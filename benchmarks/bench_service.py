"""Benchmark of the persistent sketch store and query-serving layer.

Measures, on synthetic pre-aggregated update columns:

* **concurrent-ingest throughput** of :class:`repro.service.SketchStore`
  (one writer per engine) for 1/2/4 writer threads, with a correctness gate:
  the concurrently built engine must equal serial ingest of the same
  updates;
* **snapshot/restore latency** of the binary codec (``to_bytes`` /
  ``from_bytes``) and the blob size, with a round-trip equality gate;
* **query latency, cold vs cached**: the version-keyed cache must serve a
  repeated distinct-count query at least ``--min-cache-speedup`` times
  faster than the cold evaluation.

Run directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.sampling.seeds import SeedAssigner
from repro.service.codec import from_bytes, to_bytes
from repro.service.queries import Query, QueryPlanner
from repro.service.store import IngestRequest, SketchStore

SALT = 7


def make_batches(n_updates: int, n_batches: int, seed: int = 0):
    """Distinct-key update batches (the pre-aggregated model in which
    sketch state is insensitive to arrival order)."""
    generator = np.random.default_rng(seed)
    keys = generator.choice(1 << 40, size=n_updates, replace=False)
    values = generator.random(n_updates) * 10.0 + 0.01
    step = max(1, n_updates // n_batches)
    return [
        (keys[start:start + step], values[start:start + step])
        for start in range(0, n_updates, step)
    ]


def make_store(kind: str = "bottom_k") -> SketchStore:
    store = SketchStore()
    if kind == "bottom_k":
        store.create(
            "bench", "bottom_k", k=256,
            seed_assigner=SeedAssigner(salt=SALT), n_shards=8,
        )
    else:
        store.create(
            "bench", "poisson", threshold=0.05,
            seed_assigner=SeedAssigner(salt=SALT), n_shards=8,
        )
    return store


def ingest(store: SketchStore, instance, keys, values) -> int:
    """Submit one column batch to the ``bench`` engine."""
    return store.submit(
        IngestRequest(engine="bench", batches=((instance, keys, values),))
    )


def bench_concurrent_ingest(
    n_updates: int, thread_counts=(1, 2, 4)
) -> dict:
    """Store-ingest throughput per writer-thread count + parity gate."""
    batches = make_batches(n_updates, n_batches=64)

    serial = make_store()
    for keys, values in batches:
        ingest(serial, "d", keys, values)

    throughput = {}
    for n_threads in thread_counts:
        store = make_store()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(
                pool.map(
                    lambda batch: ingest(store, "d", *batch),
                    batches,
                )
            )
        elapsed = time.perf_counter() - start
        assert store.engine("bench") == serial.engine("bench"), (
            f"{n_threads}-thread ingest diverged from serial ingest"
        )
        throughput[str(n_threads)] = {
            "seconds": elapsed,
            "updates_per_second": n_updates / elapsed,
        }
    print(f"concurrent ingest ({n_updates} updates):")
    for n_threads, numbers in throughput.items():
        print(
            f"  {n_threads} thread(s): "
            f"{numbers['updates_per_second']:12.0f} updates/s "
            f"({numbers['seconds']:.3f}s)  [parity with serial: ok]"
        )
    return {"n_updates": n_updates, "threads": throughput}


def bench_snapshot_restore(n_keys: int) -> dict:
    """Codec encode/decode latency on a retained set of ``n_keys``."""
    store = make_store("poisson")
    for keys, values in make_batches(n_keys, n_batches=16, seed=1):
        ingest(store, "d", keys, values)
    engine = store.engine("bench")
    retained = sum(
        len(sketch.entries) for sketch in engine.shard_sketches("d")
    )

    start = time.perf_counter()
    blob = to_bytes(engine)
    encode_seconds = time.perf_counter() - start
    start = time.perf_counter()
    restored = from_bytes(blob)
    decode_seconds = time.perf_counter() - start
    assert restored == engine, "snapshot/restore round-trip diverged"
    print(
        f"snapshot/restore ({n_keys} updates, {retained} retained): "
        f"encode {encode_seconds * 1e3:.1f} ms, "
        f"decode {decode_seconds * 1e3:.1f} ms, "
        f"{len(blob)} bytes  [round-trip equality: ok]"
    )
    return {
        "n_updates": n_keys,
        "retained_keys": retained,
        "encode_seconds": encode_seconds,
        "decode_seconds": decode_seconds,
        "blob_bytes": len(blob),
    }


def bench_query_cache(n_keys: int, min_speedup: float) -> dict:
    """Cold vs version-cached distinct-count latency."""
    store = SketchStore()
    store.create(
        "bench", "poisson", threshold=0.2,
        seed_assigner=SeedAssigner(salt=SALT), n_shards=8,
    )
    generator = np.random.default_rng(2)
    keys = generator.choice(1 << 40, size=n_keys, replace=False)
    values = generator.random(n_keys) + 0.01
    split = (2 * n_keys) // 3
    ingest(store, "mon", keys[:split], values[:split])
    ingest(store, "tue", keys[n_keys - split:], values[n_keys - split:])

    planner = QueryPlanner(store)
    query = Query.distinct("mon", "tue")
    start = time.perf_counter()
    cold = planner.run("bench", query)
    cold_seconds = time.perf_counter() - start

    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        cached = planner.run("bench", query)
    cached_seconds = (time.perf_counter() - start) / repeats
    assert cached.from_cache and cached.value is cold.value
    speedup = cold_seconds / cached_seconds
    print(
        f"query cache ({n_keys} updates): cold "
        f"{cold_seconds * 1e3:.1f} ms, cached "
        f"{cached_seconds * 1e6:.0f} us, speedup {speedup:.0f}x "
        f"(gate >= {min_speedup:g}x)"
    )
    assert speedup >= min_speedup, (
        f"cached query speedup {speedup:.1f}x below the "
        f"{min_speedup:g}x gate"
    )
    return {
        "n_updates": n_keys,
        "cold_seconds": cold_seconds,
        "cached_seconds": cached_seconds,
        "speedup": speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=400_000,
                        help="updates for the concurrent-ingest workload")
    parser.add_argument("--snapshot-keys", type=int, default=400_000,
                        help="updates for the snapshot/restore workload")
    parser.add_argument("--query-keys", type=int, default=100_000,
                        help="updates for the query-cache workload")
    parser.add_argument("--min-cache-speedup", type=float, default=5.0)
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI")
    parser.add_argument("--json", action="store_true",
                        help="print the record as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = 40_000
        args.snapshot_keys = 40_000
        args.query_keys = 20_000

    record = {
        "concurrent_ingest": bench_concurrent_ingest(args.updates),
        "snapshot_restore": bench_snapshot_restore(args.snapshot_keys),
        "query_cache": bench_query_cache(
            args.query_keys, args.min_cache_speedup
        ),
    }
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
