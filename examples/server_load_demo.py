"""Concurrent HTTP load against the sketch server, in one process.

Boots a :class:`repro.server.SketchServer` on an ephemeral port, drives
it with four async clients interleaving ingest and query requests
through :class:`repro.server.AsyncSketchClient`, and then shows the
serving guarantees:

* the engine built through concurrent HTTP ingest is *bit-exact equal*
  to a serial in-process ingest of the same batches;
* repeated queries are served from the version-keyed cache until the
  next ingest invalidates them;
* ``/metrics`` reports the ingest throughput, the cache hit rate, and a
  cheap per-engine probe (version, change tick, retained keys).

Run with:  PYTHONPATH=src python examples/server_load_demo.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient, ServerConfig, SketchServer
from repro.service import IngestRequest, Query, SketchStore

N_CLIENTS = 4
N_BATCHES = 32
BATCH_ROWS = 500
INSTANCES = ("monday", "tuesday")


def make_store() -> SketchStore:
    store = SketchStore()
    store.create(
        "traffic",
        "poisson",
        threshold=0.05,
        seed_assigner=SeedAssigner(salt=7),
        n_shards=4,
    )
    return store


def make_batches() -> list:
    rng = np.random.default_rng(20110613)
    n_rows = N_BATCHES * BATCH_ROWS
    keys = rng.choice(10**9, size=n_rows, replace=False)
    values = rng.random(n_rows) * 5.0 + 0.1
    return [
        (
            INSTANCES[index % len(INSTANCES)],
            [int(key) for key in keys[start : start + BATCH_ROWS]],
            [float(value) for value in values[start : start + BATCH_ROWS]],
        )
        for index, start in enumerate(range(0, n_rows, BATCH_ROWS))
    ]


async def worker(port: int, batches: list) -> int:
    """Ingest a slice of the stream, querying between batches."""
    n_requests = 0
    async with AsyncSketchClient(host="127.0.0.1", port=port) as client:
        for instance, keys, values in batches:
            await client.ingest("traffic", instance, keys, values)
            result = await client.query("traffic", "sum", [instance])
            n_requests += 2
            assert result["value"] > 0
    return n_requests


async def drive(store: SketchStore, batches: list) -> dict:
    server = SketchServer(store, ServerConfig(port=0, ingest_threads=4))
    await server.start()
    print(f"serving on 127.0.0.1:{server.port}")
    try:
        async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
            # seed both instances so queries never race instance creation
            for instance, keys, values in batches[: len(INSTANCES)]:
                await client.ingest("traffic", instance, keys, values)
            rest = batches[len(INSTANCES) :]
            totals = await asyncio.gather(
                *(worker(server.port, rest[i::N_CLIENTS]) for i in range(N_CLIENTS))
            )
            print(f"{N_CLIENTS} clients made {sum(totals) + 2} requests")

            cold = await client.query("traffic", "distinct", list(INSTANCES))
            warm = await client.query("traffic", "distinct", list(INSTANCES))
            print(
                f"distinct estimate {cold['value']['estimate']:.1f} "
                f"(cold from_cache={cold['from_cache']}, "
                f"repeat from_cache={warm['from_cache']})"
            )
            metrics = await client.metrics()
            ingest, cache = metrics["ingest"], metrics["query_cache"]
            print(
                f"ingest: {ingest['rows']} rows in {ingest['batches']} "
                f"batches ({ingest['rows_per_busy_second']:,.0f} rows/busy-s); "
                f"cache hit rate {cache['hit_rate']:.0%}"
            )
            print(f"engine probe: {metrics['engines']['traffic']}")
    finally:
        await server.shutdown()
    return metrics


def main() -> None:
    batches = make_batches()
    store = make_store()
    asyncio.run(drive(store, batches))

    serial = make_store()
    for batch in batches:
        serial.submit(IngestRequest(engine="traffic", batches=(batch,)))
    assert store.engine("traffic") == serial.engine("traffic")
    print("concurrent HTTP ingest == serial ingest: bit-exact")

    live = store.query("traffic", Query.distinct(*INSTANCES))
    reference = serial.query("traffic", Query.distinct(*INSTANCES))
    assert float(live.value.estimate) == float(reference.value.estimate)
    print(f"served estimate matches offline planner: {float(live):,.1f}")


if __name__ == "__main__":
    main()
