"""Benchmark of the streaming coordinated-sketch engine.

Measures, on a synthetic Zipf-like stream of ``(key, value)`` updates:

* ingest throughput (updates/second) of the sharded :class:`StreamEngine`
  for bottom-k, weight-oblivious Poisson and PPS Poisson sketches, for
  several shard counts;
* merge latency of combining the per-shard sketches into the instance
  sketch;
* a correctness cross-check: the merged bottom-k and PPS Poisson
  sketches of a pre-aggregated stream must equal the offline samples of
  the accumulated data.

Run directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_streaming.py --updates 1000000

The default stream has 1M updates; use ``--updates 20000`` for a smoke run.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.poisson import poisson_weighted_sample
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.streaming.engine import StreamEngine


def synthetic_stream(
    n_updates: int, n_keys: int, batch_size: int, seed: int
):
    """Yield ``(keys, values)`` batches of a skewed synthetic stream."""
    generator = np.random.default_rng(seed)
    for start in range(0, n_updates, batch_size):
        size = min(batch_size, n_updates - start)
        # Zipf-like key popularity, clipped to the key universe
        keys = np.minimum(
            generator.zipf(1.3, size=size) - 1, n_keys - 1
        ).astype(np.uint64)
        values = generator.random(size) + 0.01
        yield keys, values


def accumulate(batches) -> dict[int, float]:
    totals: dict[int, float] = {}
    for keys, values in batches:
        for key, value in zip(keys.tolist(), values.tolist()):
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def bottom_k_offline(totals, args, assigner):
    return bottom_k_sample(
        totals, args.k, seed_assigner=assigner, instance="bench",
    )


def pps_offline(totals, args, assigner):
    return poisson_weighted_sample(
        totals, PpsRanks(), threshold=args.threshold,
        seed_assigner=assigner, instance="bench",
    )


def same_sample(streamed, offline) -> bool:
    """Whether a streamed sample equals an offline one: entries, plus
    ranks and threshold (bottom-k) or inclusion probabilities (Poisson)."""
    if streamed.entries != offline.entries:
        return False
    if hasattr(offline, "ranks"):
        return (streamed.ranks == offline.ranks
                and streamed.threshold == offline.threshold)
    return streamed.inclusion_probabilities == offline.inclusion_probabilities


def bench_engine(make_engine, name: str, args, offline=None) -> None:
    """Time ``args``' stream into ``make_engine()``; with ``offline``
    (the offline sampler of the engine's scheme), also check the
    pre-aggregated stream against it."""
    engine = make_engine()
    start = time.perf_counter()
    for keys, values in synthetic_stream(
        args.updates, args.keys, args.batch, args.seed
    ):
        engine.ingest("bench", keys, values)
    elapsed = time.perf_counter() - start
    throughput = engine.n_updates / elapsed

    merge_start = time.perf_counter()
    sketch = engine.sketch("bench")
    merge_elapsed = time.perf_counter() - merge_start
    print(
        f"{name:<28} {engine.n_updates:>10,d} updates  "
        f"{elapsed:8.3f} s  {throughput:>12,.0f} upd/s  "
        f"merge {merge_elapsed * 1e3:8.3f} ms  "
        f"retained {len(sketch.candidates()) if hasattr(sketch, 'candidates') else len(sketch):>6d}"
    )

    if offline is not None:
        totals = accumulate(
            synthetic_stream(args.updates, args.keys, args.batch, args.seed)
        )
        expected = offline(totals, args, engine.sketch("bench").seed_assigner)
        # Exactness guarantee: a pre-aggregated stream (each key once) is
        # byte-for-byte identical to the offline sample.
        exact_engine = make_engine()
        exact_engine.ingest(
            "bench",
            np.fromiter(totals, dtype=np.uint64, count=len(totals)),
            np.fromiter(totals.values(), dtype=float, count=len(totals)),
        )
        if not same_sample(exact_engine.sample("bench"), expected):
            raise SystemExit(
                f"{name}: streaming sketch diverged from offline sample"
            )
        # The raw additive stream is exact only while keys stay retained
        # (evicted keys that reappear lose their earlier mass); report how
        # close it lands.
        snapshot = sketch.to_sample()
        overlap = len(set(snapshot.entries) & set(expected.entries))
        print(
            f"{'':28} offline equivalence: pre-aggregated OK, additive "
            f"stream overlap {overlap}/{len(expected.entries)}"
        )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=1_000_000,
                        help="number of stream updates")
    parser.add_argument("--keys", type=int, default=200_000,
                        help="size of the key universe")
    parser.add_argument("--batch", type=int, default=16_384,
                        help="ingest batch size")
    parser.add_argument("--k", type=int, default=256,
                        help="bottom-k sample size")
    parser.add_argument("--threshold", type=float, default=0.01,
                        help="Poisson threshold: the weight-oblivious "
                        "probability and the PPS tau")
    parser.add_argument("--shards", type=int, nargs="*", default=[1, 4, 8],
                        help="shard counts to benchmark")
    parser.add_argument("--seed", type=int, default=7, help="stream seed")
    parser.add_argument("--skip-check", action="store_true",
                        help="skip the offline equivalence cross-check")
    args = parser.parse_args(argv)
    if args.updates <= 0 or args.keys <= 0 or args.batch <= 0:
        parser.error("--updates, --keys and --batch must be positive")
    if not args.shards or any(s <= 0 for s in args.shards):
        parser.error("--shards needs at least one positive shard count")

    assigner = SeedAssigner(salt=args.seed)

    def check(n_shards: int) -> bool:
        return not args.skip_check and n_shards == args.shards[-1]

    print(
        f"stream: {args.updates:,d} updates over <= {args.keys:,d} keys, "
        f"batch {args.batch:,d}"
    )
    for n_shards in args.shards:
        bench_engine(
            lambda: StreamEngine.bottom_k(
                k=args.k, seed_assigner=assigner, n_shards=n_shards
            ),
            f"bottom-k (k={args.k}, s={n_shards})",
            args,
            offline=bottom_k_offline if check(n_shards) else None,
        )
    for n_shards in args.shards:
        bench_engine(
            lambda: StreamEngine.poisson(
                args.threshold, seed_assigner=assigner, n_shards=n_shards
            ),
            f"poisson (p={args.threshold}, s={n_shards})",
            args,
        )
    # weighted Poisson rows have no vector filter: every positive row
    # runs the exact per-row loop, checked against the offline sampler
    for n_shards in args.shards:
        bench_engine(
            lambda: StreamEngine.poisson(
                args.threshold, rank_family=PpsRanks(),
                seed_assigner=assigner, n_shards=n_shards,
            ),
            f"poisson pps (tau={args.threshold}, s={n_shards})",
            args,
            offline=pps_offline if check(n_shards) else None,
        )


if __name__ == "__main__":
    main()
