"""Concurrent HTTP ingest parity.

Mirrors the 4-thread store parity suite one layer up: N async clients
interleave ingest and query requests against the server (whose ingest
runs on a multi-thread executor under per-shard locks), and the
resulting engines must be *identical* — bit-exact sketch state — to a
serial ingest of the same batches, for both sketch families.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient
from repro.service import Query, SketchStore

from ingest_helper import ingest

SALT = 11
N_CLIENTS = 4
N_BATCHES = 24
BATCH_ROWS = 400
INSTANCES = ("monday", "tuesday")


def make_batches(seed: int = 0):
    """Distinct-key batches spread over two instances.

    Distinct keys keep the workload in the pre-aggregated model, where
    sketch state is insensitive to update order — the property that
    makes concurrent-vs-serial parity exact rather than statistical.
    """
    generator = np.random.default_rng(seed)
    n_rows = N_BATCHES * BATCH_ROWS
    keys = generator.choice(10**9, size=n_rows, replace=False)
    values = generator.random(n_rows) * 5.0 + 0.01
    batches = []
    for index in range(N_BATCHES):
        start = index * BATCH_ROWS
        stop = start + BATCH_ROWS
        batches.append(
            (
                INSTANCES[index % len(INSTANCES)],
                [f"user{key}" for key in keys[start:stop]],
                values[start:stop].tolist(),
            )
        )
    return batches


def build_store(kind: str) -> SketchStore:
    store = SketchStore()
    assigner = SeedAssigner(salt=SALT)
    if kind == "bottom_k":
        store.create("load", "bottom_k", k=128, seed_assigner=assigner, n_shards=8)
    else:
        store.create(
            "load", "poisson", threshold=0.3,
            seed_assigner=assigner, n_shards=8,
        )
    return store


def interleaved_query(kind: str) -> tuple[str, list]:
    """A query legal for the sketch family under test.

    ``distinct`` needs independently sampled weight-oblivious Poisson
    sketches; for bottom-k the subset-sum (rank conditioning) path is
    the natural read.
    """
    if kind == "bottom_k":
        return "sum", [INSTANCES[0]]
    return "distinct", list(INSTANCES)


async def client_worker(port: int, kind: str, batches: list, results: list) -> None:
    """One client: ingest its batches, interleaving queries throughout."""
    query_kind, query_instances = interleaved_query(kind)
    async with AsyncSketchClient(host="127.0.0.1", port=port) as client:
        for position, (instance, keys, values) in enumerate(batches):
            report = await client.ingest("load", instance, keys, values)
            assert report["rows"] == len(keys)
            # interleave reads with writes: every other batch, query a
            # (possibly mid-ingest) consistent snapshot
            if position % 2 == 1:
                result = await client.query("load", query_kind, query_instances)
                results.append(result)


@pytest.mark.parametrize("kind", ["bottom_k", "poisson"])
def test_concurrent_http_ingest_matches_serial(run_scenario, kind):
    batches = make_batches(seed=3 if kind == "bottom_k" else 4)
    concurrent_store = build_store(kind)

    async def scenario(server, client):
        results: list = []
        workers = [
            client_worker(server.port, kind, batches[index::N_CLIENTS], results)
            for index in range(N_CLIENTS)
        ]
        await asyncio.gather(*workers)
        metrics = await client.metrics()
        assert metrics["ingest"]["rows"] == N_BATCHES * BATCH_ROWS
        assert metrics["engines"]["load"]["version"] == N_BATCHES
        return results

    results = run_scenario(scenario, store=concurrent_store, ingest_threads=4)
    assert len(results) == N_BATCHES // 2

    serial_store = build_store(kind)
    for instance, keys, values in batches:
        ingest(serial_store, "load", instance, keys, values)

    # bit-exact parity: every shard sketch of every instance identical
    assert concurrent_store.engine("load") == serial_store.engine("load")
    assert concurrent_store.version("load") == serial_store.version("load")

    # and the served query values equal the serial planner's
    query_kind, query_instances = interleaved_query(kind)
    query = Query(query_kind, tuple(query_instances))
    expected = serial_store.query("load", query)
    final = concurrent_store.query("load", query)
    if query_kind == "sum":
        assert float(final) == float(expected)
    else:
        assert float(final.value.estimate) == float(expected.value.estimate)
