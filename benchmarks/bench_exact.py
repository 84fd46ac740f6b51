"""Benchmark of the vectorized exact-enumeration engine and the streaming
bulk-update path, with hard speedup gates.

Measures:

* the Figure-2 exact-moments sweep (three OR estimators x two data
  vectors over a ``p`` grid): one :func:`repro.core.variance.exact_moments`
  call per grid point vs one stacked :func:`repro.exact.exact_moments_grid`
  sweep, asserting the two agree bit for bit — gated at >= 20x by default;
* streaming ``update_many`` on a pre-aggregated (distinct-key) update
  column vs the per-update scalar loop, asserting identical final sketch
  state — gated at >= 5x by default;
* the full fast-mode experiment suite wall time (reported, not gated).

Run directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_exact.py

Use ``--grid-points 300 --updates 20000`` for a CI smoke run.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.or_estimators import OrObliviousHT, OrObliviousL, OrObliviousU
from repro.core.variance import exact_moments
from repro.exact import exact_moments_grid
from repro.experiments.runner import run_all_experiments
from repro.sampling.dispersed import ObliviousPoissonScheme
from repro.sampling.seeds import SeedAssigner
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

FACTORIES = {"HT": OrObliviousHT, "L": OrObliviousL, "U": OrObliviousU}
DATA_VECTORS = ((1.0, 1.0), (1.0, 0.0))


def time_call(function, *args, repeats: int = 1):
    """Best-of-``repeats`` wall time (robust against scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_figure2_grid(n_points: int, repeats: int = 2) -> dict:
    """Per-point ``exact_moments`` vs grid sweep of the Figure-2 curves.

    Both sides are timed best-of-``repeats`` so a scheduler hiccup on
    either path cannot skew the gated speedup.
    """
    grid = np.geomspace(0.05, 0.9, n_points)

    def per_point_sweep():
        curves = {}
        for name, factory in FACTORIES.items():
            for data in DATA_VECTORS:
                variances = []
                for p in grid:
                    pair = (float(p), float(p))
                    _, variance = exact_moments(
                        factory(pair), ObliviousPoissonScheme(pair), data
                    )
                    variances.append(variance)
                curves[name, data] = np.array(variances)
        return curves

    def grid_sweep():
        return {
            (name, data): exact_moments_grid(factory, grid, data)[1]
            for name, factory in FACTORIES.items()
            for data in DATA_VECTORS
        }

    per_point, per_point_seconds = time_call(
        per_point_sweep, repeats=repeats
    )
    vectorized, grid_seconds = time_call(grid_sweep, repeats=repeats)
    for key in per_point:
        np.testing.assert_array_equal(
            per_point[key], vectorized[key],
            err_msg=f"grid sweep diverged from exact_moments on {key}",
        )
    speedup = per_point_seconds / max(grid_seconds, 1e-12)
    print(
        f"figure-2 grid ({n_points} p-points x 6 curves): "
        f"per-point {per_point_seconds*1e3:8.1f} ms   "
        f"grid {grid_seconds*1e3:7.1f} ms   speedup {speedup:6.1f}x   "
        "(bit-identical)"
    )
    return {
        "scalar_seconds": per_point_seconds,
        "grid_seconds": grid_seconds,
        "speedup": speedup,
    }


def _sketch_state(sketch) -> tuple:
    return (
        dict(sketch._values),
        dict(sketch._ranks),
        sketch.n_updates,
        sketch.n_discarded_keys,
        sketch.threshold,
    )


def bench_update_many(n_updates: int, seed: int = 7) -> dict:
    """Per-update loop vs chunked ``update_many`` on a distinct-key
    (pre-aggregated) update column, for both sketch families."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.arange(n_updates, dtype=np.uint64))
    values = rng.random(n_updates) + 0.01
    results = {}
    for label, make in (
        ("bottom-k", lambda: StreamingBottomK(
            k=256, seed_assigner=SeedAssigner(salt=seed))),
        ("poisson", lambda: StreamingPoisson(
            0.05, seed_assigner=SeedAssigner(salt=seed))),
    ):
        reference = make()
        key_list, value_list = keys.tolist(), values.tolist()

        def loop(sketch=reference):
            for key, value in zip(key_list, value_list):
                sketch.update(key, value)

        _, loop_seconds = time_call(loop)
        bulk = make()
        _, bulk_seconds = time_call(lambda: bulk.update_many(keys, values))
        if _sketch_state(bulk) != _sketch_state(reference):
            raise SystemExit(
                f"update_many diverged from the per-update loop ({label})"
            )
        speedup = loop_seconds / max(bulk_seconds, 1e-12)
        rate = n_updates / max(bulk_seconds, 1e-12)
        print(
            f"{label:9s} {n_updates:>9,d} updates: "
            f"loop {loop_seconds*1e3:8.1f} ms   "
            f"update_many {bulk_seconds*1e3:7.1f} ms   "
            f"speedup {speedup:6.1f}x   {rate/1e6:5.2f} M upd/s"
        )
        results[label] = {
            "loop_seconds": loop_seconds,
            "update_many_seconds": bulk_seconds,
            "speedup": speedup,
        }
    return results


def bench_run_all(parallel: bool | None = None) -> dict:
    """Wall time of the full fast-mode experiment suite."""
    timings: dict[str, float] = {}
    _, seconds = time_call(
        lambda: run_all_experiments(fast=True, parallel=parallel,
                                    timings=timings)
    )
    slowest = max(timings, key=timings.get)
    print(
        f"run_all_experiments(fast=True): {seconds:6.3f} s "
        f"(slowest: {slowest} {timings[slowest]:.3f} s)"
    )
    return {"seconds": seconds, "per_experiment": timings}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-points", type=int, default=1500,
                        help="p-grid density of the figure-2 sweep")
    parser.add_argument("--updates", type=int, default=200_000,
                        help="length of the streaming update column")
    parser.add_argument("--min-grid-speedup", type=float, default=20.0,
                        help="fail below this figure-2 grid speedup")
    parser.add_argument("--min-stream-speedup", type=float, default=5.0,
                        help="fail below this update_many speedup")
    parser.add_argument("--skip-run-all", action="store_true",
                        help="skip the experiment-suite wall-time report")
    args = parser.parse_args(argv)

    grid = bench_figure2_grid(args.grid_points)
    streaming = bench_update_many(args.updates)
    if not args.skip_run_all:
        bench_run_all()

    failures = []
    if grid["speedup"] < args.min_grid_speedup:
        failures.append(
            f"figure-2 grid speedup {grid['speedup']:.1f}x is below the "
            f"{args.min_grid_speedup:.0f}x gate"
        )
    for label, row in streaming.items():
        if row["speedup"] < args.min_stream_speedup:
            failures.append(
                f"{label} update_many speedup {row['speedup']:.1f}x is "
                f"below the {args.min_stream_speedup:.0f}x gate"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"\nOK: grid {grid['speedup']:.1f}x >= "
        f"{args.min_grid_speedup:.0f}x, streaming "
        + ", ".join(
            f"{label} {row['speedup']:.1f}x" for label, row in streaming.items()
        )
        + f" >= {args.min_stream_speedup:.0f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
