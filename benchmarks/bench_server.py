"""Async load generator for the HTTP sketch server.

Boots a :class:`repro.server.SketchServer` in-process on an ephemeral
port and drives it with a mixed workload of concurrent HTTP clients:
ingest workers POST distinct-key update batches while query workers
interleave ``GET /v1/query`` reads (a mix of cold and version-cached hits,
since every ingest bumps the engine version).  Two gates:

* **throughput** — the sustained mixed request rate must reach
  ``--min-rps`` (default 2,000 requests/second);
* **ingest parity** — after the load, the engine built through
  concurrent HTTP ingest must be *bit-exact equal* to a serial
  in-process ingest of the same batches (the streaming permutation
  guarantee carried through the network layer).

A second benchmark races the two ingest encodings head to head:
``bench_binary_ingest`` pushes the same update stream once as JSON
column batches and once as pipelined ``application/x-repro-batch``
bodies (:mod:`repro.server.wire`), gates the binary path on a
``--min-speedup`` rows/second multiple over JSON (default 10x), checks
the two resulting engines are *bit-exact equal*, and probes all three
ingest formats (JSON, CSV, binary) with non-finite values, which must
come back ``400`` without touching engine state.

A third benchmark prices durability: ``bench_wal_ingest`` repeats the
binary ingest with a :class:`repro.wal.WriteAheadLog` attached
(``fsync=interval``, the serving default), checks the logged engine
stays bit-exact equal to the unlogged one *and* that the log alone
recovers it bit-exactly, and gates WAL-on throughput at
``--min-wal-ratio`` of WAL-off (default 0.5x).

Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py
    PYTHONPATH=src python benchmarks/bench_server.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import struct
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.sampling.seeds import SeedAssigner
from repro.server import (
    BATCH_CONTENT_TYPE,
    AsyncSketchClient,
    ServerConfig,
    SketchServer,
    encode_batches,
)
from repro.service.queries import Query, query_value_json
from repro.service.store import IngestRequest, SketchStore
from repro.wal import WriteAheadLog, recover_store

SALT = 7
INSTANCES = ("mon", "tue")


def make_batches(n_updates: int, batch_rows: int, seed: int = 0):
    """Distinct-integer-key update batches alternating over instances."""
    generator = np.random.default_rng(seed)
    keys = generator.choice(1 << 40, size=n_updates, replace=False)
    values = generator.random(n_updates) * 10.0 + 0.01
    batches = []
    for index, start in enumerate(range(0, n_updates, batch_rows)):
        stop = min(start + batch_rows, n_updates)
        batches.append(
            (
                INSTANCES[index % len(INSTANCES)],
                [int(key) for key in keys[start:stop]],
                [float(value) for value in values[start:stop]],
            )
        )
    return batches


def make_store(wal: WriteAheadLog | None = None) -> SketchStore:
    """A weight-oblivious Poisson engine sized for serving.

    A low threshold keeps the retained set (and therefore per-query
    work) bounded the way a production sketch would be — the whole point
    of sketch-based serving is that query cost tracks the sketch, not
    the stream.  ``wal`` (when given) is attached *before* the engine is
    created, so the engine-create record lands in the log and the store
    is recoverable from the log alone.
    """
    store = SketchStore()
    if wal is not None:
        store.attach_wal(wal)
    store.create(
        "bench",
        "poisson",
        threshold=0.005,
        seed_assigner=SeedAssigner(salt=SALT),
        n_shards=4,
    )
    return store


async def _ingest_worker(port, batches, counters) -> None:
    async with AsyncSketchClient(host="127.0.0.1", port=port) as client:
        for instance, keys, values in batches:
            await client.ingest("bench", instance, keys, values)
            counters["ingest_requests"] += 1
            counters["rows"] += len(keys)


async def _query_worker(port, done, counters) -> None:
    """Rotate per-instance subset sums with cross-instance distinct
    counts — a mix of cheap and compound reads, cold after every ingest
    version bump and cache-served in between."""
    async with AsyncSketchClient(host="127.0.0.1", port=port) as client:
        position = 0
        while not done.is_set():
            if position % 3 == 2:
                result = await client.query("bench", "distinct", list(INSTANCES))
            else:
                instance = INSTANCES[position % len(INSTANCES)]
                result = await client.query("bench", "sum", [instance])
            counters["query_requests"] += 1
            counters["cache_hits"] += bool(result["from_cache"])
            position += 1


async def _drive(store, batches, ingest_workers: int, query_workers: int) -> dict:
    server = SketchServer(
        store,
        # ticker + health rules enabled: the mixed load measures the
        # serving path with the full observability surface running
        ServerConfig(
            port=0,
            ingest_threads=4,
            max_pending_batches=64,
            series_interval=0.25,
            health_target_p99=1.0,
        ),
    )
    await server.start()
    counters = {
        "ingest_requests": 0,
        "query_requests": 0,
        "cache_hits": 0,
        "rows": 0,
    }
    done = asyncio.Event()
    try:
        started = time.perf_counter()
        # seed both instances first so query workers never race the
        # creation of an instance they want to read
        n_seed = len(INSTANCES)
        async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
            for instance, keys, values in batches[:n_seed]:
                await client.ingest("bench", instance, keys, values)
                counters["ingest_requests"] += 1
                counters["rows"] += len(keys)
        ingest_tasks = [
            asyncio.ensure_future(
                _ingest_worker(
                    server.port,
                    batches[n_seed + index :: ingest_workers],
                    counters,
                )
            )
            for index in range(ingest_workers)
        ]
        query_tasks = [
            asyncio.ensure_future(_query_worker(server.port, done, counters))
            for index in range(query_workers)
        ]
        await asyncio.gather(*ingest_tasks)
        done.set()
        await asyncio.gather(*query_tasks)
        elapsed = time.perf_counter() - started
        # the health engine evaluates cleanly under load (the verdict
        # itself is workload-dependent and not gated)
        health = server.health.evaluate()
        series_samples = server.series.n_samples
        # per-route latency quantiles from the server's own histograms,
        # looked up by the label the router gives each /v1 route
        latency = {}
        for label, method, path in (
            ("ingest", "POST", "/v1/ingest"),
            ("query", "GET", "/v1/query"),
        ):
            histogram = server.metrics.route_histogram(
                server.router.label(method, path)
            )
            if histogram is not None:
                latency[label] = histogram.to_dict()
    finally:
        done.set()
        await server.shutdown()
    n_requests = counters["ingest_requests"] + counters["query_requests"]
    return {
        "seconds": elapsed,
        "ingest_requests": counters["ingest_requests"],
        "query_requests": counters["query_requests"],
        "query_cache_hits": counters["cache_hits"],
        "rows": counters["rows"],
        "requests_per_second": n_requests / elapsed,
        "ingest_rows_per_second": counters["rows"] / elapsed,
        "latency": latency,
        "health_status": health.status,
        "series_samples": series_samples,
    }


def bench_load(
    n_updates: int,
    batch_rows: int = 100,
    ingest_workers: int = 2,
    query_workers: int = 8,
    min_rps: float = 2000.0,
    attempts: int = 3,
) -> dict:
    """Mixed ingest/query load with throughput and parity gates.

    The load runs up to ``attempts`` times and the fastest run is
    reported (every run still checks parity): the gate measures the
    server, and best-of-N is the conventional way to keep co-tenant
    noise on a shared host from failing a hard throughput floor.
    """
    batches = make_batches(n_updates, batch_rows)
    serial = make_store()
    for batch in batches:
        serial.submit(IngestRequest(engine="bench", batches=(batch,)))

    numbers: dict = {}
    for _ in range(max(1, attempts)):
        store = make_store()
        attempt = asyncio.run(
            _drive(store, batches, ingest_workers, query_workers)
        )
        assert attempt["rows"] == n_updates
        assert store.engine("bench") == serial.engine("bench"), (
            "concurrent HTTP ingest diverged from serial in-process ingest"
        )
        for query in (Query.sum(INSTANCES[0]), Query.distinct(*INSTANCES)):
            final = store.query("bench", query)
            reference = serial.query("bench", query)
            assert query_value_json(final.value) == query_value_json(
                reference.value
            )
        if attempt["requests_per_second"] > numbers.get(
            "requests_per_second", 0.0
        ):
            numbers = attempt
        if numbers["requests_per_second"] >= min_rps:
            break

    print(
        f"server load ({n_updates} updates, {batch_rows} rows/batch, "
        f"{ingest_workers}+{query_workers} workers): "
        f"{numbers['requests_per_second']:8.0f} req/s "
        f"({numbers['ingest_requests']} ingest + "
        f"{numbers['query_requests']} query in "
        f"{numbers['seconds']:.2f}s), "
        f"{numbers['ingest_rows_per_second']:10.0f} rows/s  "
        f"[ingest parity with serial: ok]  (gate >= {min_rps:g} req/s)"
    )
    for label, quantiles in sorted(numbers["latency"].items()):
        print(
            f"  {label:6s} latency: "
            f"p50 {quantiles['p50_seconds'] * 1000:7.2f} ms, "
            f"p95 {quantiles['p95_seconds'] * 1000:7.2f} ms, "
            f"p99 {quantiles['p99_seconds'] * 1000:7.2f} ms "
            f"({quantiles['count']} requests)"
        )
    assert numbers["requests_per_second"] >= min_rps, (
        f"mixed throughput {numbers['requests_per_second']:.0f} req/s "
        f"below the {min_rps:g} req/s gate"
    )
    return {
        "n_updates": n_updates,
        "batch_rows": batch_rows,
        "ingest_workers": ingest_workers,
        "query_workers": query_workers,
        "parity": "ok",
        "min_rps_gate": min_rps,
        **numbers,
    }


def make_column_batches(n_updates: int, batch_rows: int, seed: int = 0):
    """The :func:`make_batches` stream with NumPy key/value columns.

    Same generator draws, so the two shapes describe the identical
    update stream — the binary-vs-JSON parity check depends on that.
    """
    generator = np.random.default_rng(seed)
    keys = generator.choice(1 << 40, size=n_updates, replace=False)
    values = generator.random(n_updates) * 10.0 + 0.01
    batches = []
    for index, start in enumerate(range(0, n_updates, batch_rows)):
        stop = min(start + batch_rows, n_updates)
        batches.append(
            (
                INSTANCES[index % len(INSTANCES)],
                keys[start:stop].astype(np.int64),
                values[start:stop].astype(float),
            )
        )
    return batches


def _ingest_config(max_batch_rows: int) -> ServerConfig:
    return ServerConfig(
        port=0,
        ingest_threads=4,
        max_pending_batches=64,
        max_batch_rows=max_batch_rows,
    )


async def _ingest_only(store, send_requests, n_workers, max_batch_rows):
    """Time an ingest-only load of prepared request senders."""
    server = SketchServer(store, _ingest_config(max_batch_rows))
    await server.start()
    try:
        started = time.perf_counter()

        async def worker(chunk) -> None:
            async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                for send in chunk:
                    await send(client)

        await asyncio.gather(
            *(
                worker(send_requests[index::n_workers])
                for index in range(n_workers)
            )
        )
        return time.perf_counter() - started
    finally:
        await server.shutdown()


async def _nonfinite_probes(store, max_batch_rows) -> dict:
    """POST a non-finite value through every ingest format.

    Returns the HTTP status per format; each must be 400 and none may
    move the engine version.
    """
    server = SketchServer(store, _ingest_config(max_batch_rows))
    await server.start()
    try:
        async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
            statuses = {}
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                body=(
                    b'{"name": "bench", "instance": "mon",'
                    b' "keys": [1, 2], "values": [1.0, NaN]}'
                ),
            )
            statuses["json"] = status
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "bench"},
                body=b"instance,key,value\nmon,1,nan\n",
                content_type="text/csv",
            )
            statuses["csv"] = status
            blob = bytearray(encode_batches([("mon", [1], [1.0])]))
            blob[-8:] = struct.pack("<d", float("nan"))
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "bench"},
                body=bytes(blob),
                content_type=BATCH_CONTENT_TYPE,
            )
            statuses["binary"] = status
            return statuses
    finally:
        await server.shutdown()


def bench_binary_ingest(
    n_updates: int,
    batch_rows: int = 100,
    rows_per_request: int = 50_000,
    ingest_workers: int = 2,
    min_speedup: float = 10.0,
) -> dict:
    """Race binary columnar ingest against JSON on the same stream."""
    rows_per_request = max(batch_rows, min(rows_per_request, n_updates // 2))
    max_batch_rows = max(100_000, rows_per_request)

    json_batches = make_batches(n_updates, batch_rows)
    column_batches = make_column_batches(n_updates, batch_rows)

    def send_json(batch):
        async def send(client):
            await client.ingest("bench", *batch)

        return send

    def send_binary(chunk):
        async def send(client):
            # encoding happens inside the timed window: the speedup
            # claim covers the whole client-side cost, not just I/O
            await client.ingest_binary("bench", chunk)

        return send

    chunks = _chunk_batches(column_batches, rows_per_request)

    json_store = make_store()
    json_seconds = asyncio.run(
        _ingest_only(
            json_store,
            [send_json(batch) for batch in json_batches],
            ingest_workers,
            max_batch_rows,
        )
    )
    binary_store = make_store()
    binary_seconds = asyncio.run(
        _ingest_only(
            binary_store,
            [send_binary(chunk) for chunk in chunks],
            ingest_workers,
            max_batch_rows,
        )
    )

    assert binary_store.engine("bench") == json_store.engine("bench"), (
        "binary columnar ingest diverged from JSON ingest of the same "
        "stream"
    )
    version_before = binary_store.version("bench")
    statuses = asyncio.run(_nonfinite_probes(binary_store, max_batch_rows))
    assert statuses == {"json": 400, "csv": 400, "binary": 400}, (
        f"non-finite probes expected uniform 400s, got {statuses}"
    )
    assert binary_store.version("bench") == version_before, (
        "a rejected non-finite ingest moved the engine version"
    )

    json_rps = n_updates / json_seconds
    binary_rps = n_updates / binary_seconds
    speedup = binary_rps / json_rps
    print(
        f"binary ingest ({n_updates} updates, {batch_rows} rows/batch, "
        f"{len(chunks)} pipelined bodies x <= {rows_per_request} rows): "
        f"json {json_rps:10.0f} rows/s, binary {binary_rps:10.0f} rows/s "
        f"-> {speedup:5.1f}x  [binary/json parity: ok; "
        f"non-finite -> 400 on json/csv/binary]  "
        f"(gate >= {min_speedup:g}x)"
    )
    assert speedup >= min_speedup, (
        f"binary ingest speedup {speedup:.1f}x below the "
        f"{min_speedup:g}x gate "
        f"(json {json_rps:.0f} rows/s, binary {binary_rps:.0f} rows/s)"
    )
    return {
        "n_updates": n_updates,
        "batch_rows": batch_rows,
        "rows_per_request": rows_per_request,
        "pipelined_bodies": len(chunks),
        "ingest_workers": ingest_workers,
        "json_seconds": json_seconds,
        "binary_seconds": binary_seconds,
        "json_rows_per_second": json_rps,
        "binary_rows_per_second": binary_rps,
        "speedup": speedup,
        "min_speedup_gate": min_speedup,
        "parity": "ok",
        "nonfinite_rejected": statuses,
    }


def _chunk_batches(column_batches, rows_per_request):
    """Group column batches into pipelined request bodies."""
    chunks = []
    pending_rows = 0
    for batch in column_batches:
        if not chunks or pending_rows >= rows_per_request:
            chunks.append([])
            pending_rows = 0
        chunks[-1].append(batch)
        pending_rows += len(batch[1])
    return chunks


def bench_wal_ingest(
    n_updates: int,
    batch_rows: int = 100,
    rows_per_request: int = 50_000,
    ingest_workers: int = 2,
    min_ratio: float = 0.5,
    repeats: int = 3,
) -> dict:
    """The durability tax: identical binary ingest with and without a
    write-ahead log (fsync policy ``interval``, the serving default).

    Three checks ride along with the throughput gate: the WAL-attached
    engine must stay bit-exact equal to the unlogged one, the log alone
    must recover that engine bit-exactly, and WAL-on rows/second must
    hold at least ``min_ratio`` of WAL-off.  Each side is timed
    ``repeats`` times and the best run counts — a single run lasts only
    a fraction of a second, so one slow fsync (or a page-cache writeback
    stall from an earlier benchmark) would otherwise swing the ratio by
    2-3x and make the gate flaky.
    """
    rows_per_request = max(batch_rows, min(rows_per_request, n_updates // 2))
    max_batch_rows = max(100_000, rows_per_request)
    chunks = _chunk_batches(
        make_column_batches(n_updates, batch_rows), rows_per_request
    )

    def send_binary(chunk):
        async def send(client):
            await client.ingest_binary("bench", chunk)

        return send

    nowal_store = None
    nowal_seconds = math.inf
    for _ in range(repeats):
        nowal_store = make_store()
        nowal_seconds = min(
            nowal_seconds,
            asyncio.run(
                _ingest_only(
                    nowal_store,
                    [send_binary(chunk) for chunk in chunks],
                    ingest_workers,
                    max_batch_rows,
                )
            ),
        )

    wal_seconds = math.inf
    wal_stats = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-wal-bench-") as scratch:
            wal_dir = Path(scratch) / "wal"
            wal = WriteAheadLog(wal_dir, fsync="interval")
            wal_store = make_store(wal)
            seconds = asyncio.run(
                _ingest_only(
                    wal_store,
                    [send_binary(chunk) for chunk in chunks],
                    ingest_workers,
                    max_batch_rows,
                )
            )
            if seconds < wal_seconds:
                wal_seconds = seconds
                wal_stats = wal.stats()
            wal.close()
            assert wal_store.engine("bench") == nowal_store.engine("bench"), (
                "attaching a WAL changed the ingested sketch state"
            )
            reopened = WriteAheadLog(wal_dir, fsync="off")
            try:
                report = recover_store(None, reopened)
            finally:
                reopened.close()
            assert report.store.engine("bench") == nowal_store.engine(
                "bench"
            ), "recovery from the WAL alone diverged from the live engine"
            assert report.torn_tail is None

    nowal_rps = n_updates / nowal_seconds
    wal_rps = n_updates / wal_seconds
    ratio = wal_rps / nowal_rps
    print(
        f"wal ingest ({n_updates} updates, fsync=interval, "
        f"{wal_stats['appended_records']} records / "
        f"{wal_stats['appended_bytes']} bytes logged, "
        f"{wal_stats['fsync_count']} fsyncs): "
        f"wal-off {nowal_rps:10.0f} rows/s, wal-on {wal_rps:10.0f} rows/s "
        f"-> {ratio:5.2f}x  [parity: ok; recover-from-log: bit-exact]  "
        f"(gate >= {min_ratio:g}x)"
    )
    assert ratio >= min_ratio, (
        f"WAL-on ingest holds only {ratio:.2f}x of WAL-off throughput, "
        f"below the {min_ratio:g}x gate "
        f"(wal-off {nowal_rps:.0f} rows/s, wal-on {wal_rps:.0f} rows/s)"
    )
    return {
        "n_updates": n_updates,
        "batch_rows": batch_rows,
        "rows_per_request": rows_per_request,
        "ingest_workers": ingest_workers,
        "repeats": repeats,
        "fsync_policy": "interval",
        "nowal_seconds": nowal_seconds,
        "wal_seconds": wal_seconds,
        "nowal_rows_per_second": nowal_rps,
        "wal_rows_per_second": wal_rps,
        "ratio": ratio,
        "min_ratio_gate": min_ratio,
        "appended_records": wal_stats["appended_records"],
        "appended_bytes": wal_stats["appended_bytes"],
        "fsync_count": wal_stats["fsync_count"],
        "parity": "ok",
        "recovery": "bit-exact",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=200_000,
                        help="total update rows to ingest over HTTP")
    parser.add_argument("--batch-rows", type=int, default=100,
                        help="rows per ingest request")
    parser.add_argument("--ingest-workers", type=int, default=2)
    parser.add_argument("--query-workers", type=int, default=8)
    parser.add_argument("--min-rps", type=float, default=2000.0,
                        help="sustained mixed requests/second gate")
    parser.add_argument("--rows-per-request", type=int, default=50_000,
                        help="rows pipelined per binary ingest body")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="binary-over-JSON ingest rows/s gate")
    parser.add_argument("--min-wal-ratio", type=float, default=0.5,
                        help="WAL-on over WAL-off ingest rows/s gate")
    parser.add_argument("--smoke", action="store_true",
                        help="small workload for CI (same gates)")
    parser.add_argument("--json", action="store_true", help="print the record as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = 40_000

    record = {
        "mixed_load": bench_load(
            args.updates,
            batch_rows=args.batch_rows,
            ingest_workers=args.ingest_workers,
            query_workers=args.query_workers,
            min_rps=args.min_rps,
        ),
        "binary_ingest": bench_binary_ingest(
            args.updates,
            batch_rows=args.batch_rows,
            rows_per_request=args.rows_per_request,
            ingest_workers=args.ingest_workers,
            min_speedup=args.min_speedup,
        ),
        "wal_ingest": bench_wal_ingest(
            args.updates,
            batch_rows=args.batch_rows,
            rows_per_request=args.rows_per_request,
            ingest_workers=args.ingest_workers,
            min_ratio=args.min_wal_ratio,
        ),
    }
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
