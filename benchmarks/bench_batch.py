"""Benchmark of the columnar batch estimation engine.

Measures, on randomized workloads of per-key sampling outcomes:

* per-estimator throughput of ``estimate_batch`` against a per-outcome
  ``estimate`` loop (one one-row batch call per outcome, the baseline a
  caller pays without ``estimate_many``), asserting the two agree to
  1e-12 on every workload;
* the speedups the script gates on (``--min-speedup``, default 10x):
  the oblivious ``max^(L)`` and both known-seed PPS max estimators,
  whose ``r = 2`` batch path is one fused kernel;
* aggregate-level throughput of :func:`sum_aggregate_oblivious`, which
  assembles the batch from a dataset + seed assigner.

Run directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_batch.py --n-outcomes 100000

Use ``--n-outcomes 20000 --min-speedup 3`` for a CI smoke run.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.aggregates.dataset import MultiInstanceDataset
from repro.aggregates.sum_estimator import sum_aggregate_oblivious
from repro.batch import OutcomeBatch
from repro.core.functions import maximum
from repro.core.max_oblivious import (
    MaxObliviousHT,
    MaxObliviousL,
    MaxObliviousU,
    MaxObliviousUAsymmetric,
)
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.core.or_estimators import OrKnownSeedsL, OrObliviousL
from repro.sampling.seeds import SeedAssigner


def oblivious_batch(rng, n, probabilities, binary=False, seeds=False):
    r = len(probabilities)
    if binary:
        values = (rng.random((n, r)) < 0.6).astype(np.float64)
    else:
        values = np.round(rng.gamma(2.0, 3.0, (n, r)), 3)
        values *= rng.random((n, r)) < 0.8
    seed_matrix = rng.random((n, r))
    sampled = seed_matrix <= np.asarray(probabilities)
    if binary:
        # known-seed weighted model: only 1-valued entries can be sampled
        sampled &= values == 1.0
    return OutcomeBatch(
        values=values,
        sampled=sampled,
        seeds=seed_matrix if seeds else None,
    )


def pps_batch(rng, n, tau_star):
    r = len(tau_star)
    values = np.round(rng.gamma(2.0, 0.6 * max(tau_star), (n, r)), 3)
    values *= rng.random((n, r)) < 0.7
    seeds = rng.random((n, r))
    sampled = (values > 0.0) & (values >= seeds * np.asarray(tau_star))
    return OutcomeBatch(values=values, sampled=sampled, seeds=seeds)


def time_call(function, *args, repeats=1):
    """Best-of-``repeats`` wall time (robust against scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_estimator(name, estimator, batch):
    outcomes = batch.to_outcomes()
    per_outcome, loop_seconds = time_call(
        lambda: np.array([estimator.estimate(o) for o in outcomes]),
        repeats=2,
    )
    batched, batch_seconds = time_call(
        estimator.estimate_batch, batch, repeats=5
    )
    np.testing.assert_allclose(batched, per_outcome, rtol=1e-12, atol=1e-12)
    speedup = loop_seconds / max(batch_seconds, 1e-12)
    rate = len(batch) / max(batch_seconds, 1e-12)
    print(
        f"{name:22s} estimate loop {loop_seconds*1e3:9.1f} ms   "
        f"batch {batch_seconds*1e3:7.1f} ms   "
        f"speedup {speedup:7.1f}x   {rate/1e6:6.2f} M outcomes/s"
    )
    return speedup


def bench_sum_aggregate(args) -> None:
    rng = np.random.default_rng(args.seed)
    n = args.n_outcomes
    keys = np.arange(n)
    instances = {
        label: dict(
            zip(
                keys.tolist(),
                np.round(rng.gamma(2.0, 3.0, n) + 0.01, 3).tolist(),
            )
        )
        for label in ("a", "b")
    }
    dataset = MultiInstanceDataset(instances)
    probabilities = (0.3, 0.3)
    estimator = MaxObliviousL(probabilities)
    result, seconds = time_call(
        lambda: sum_aggregate_oblivious(
            dataset,
            ("a", "b"),
            probabilities,
            estimator,
            SeedAssigner(salt=args.seed),
            true_function=maximum,
        )
    )
    print(
        f"\nsum_aggregate_oblivious over {n} keys: {seconds*1e3:.1f} ms "
        f"({n/seconds/1e6:.2f} M keys/s), relative error "
        f"{result.relative_error:.4f}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-outcomes", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="fail unless every gated workload reaches this speedup",
    )
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    n = args.n_outcomes

    p2 = (0.3, 0.7)
    tau = (10.0, 25.0)
    print(f"=== estimate_batch vs per-outcome estimate loop, {n} outcomes ===")
    gated = {
        "max^(L) r=2": bench_estimator(
            "max^(L) r=2", MaxObliviousL(p2), oblivious_batch(rng, n, p2)
        )
    }
    bench_estimator(
        "max^(L) uniform r=4",
        MaxObliviousL((0.3,) * 4),
        oblivious_batch(rng, n, (0.3,) * 4),
    )
    bench_estimator(
        "max^(HT)", MaxObliviousHT(p2), oblivious_batch(rng, n, p2)
    )
    bench_estimator(
        "max^(U)", MaxObliviousU(p2), oblivious_batch(rng, n, p2)
    )
    bench_estimator(
        "max^(Uas)", MaxObliviousUAsymmetric(p2), oblivious_batch(rng, n, p2)
    )
    bench_estimator(
        "OR^(L)",
        OrObliviousL(p2),
        oblivious_batch(rng, n, p2, binary=True),
    )
    bench_estimator(
        "OR^(L) known seeds",
        OrKnownSeedsL(p2),
        oblivious_batch(rng, n, p2, binary=True, seeds=True),
    )
    for name, estimator in (
        ("PPS max^(HT)", MaxPpsHT(tau)),
        ("PPS max^(L)", MaxPpsL(tau)),
    ):
        gated[name] = bench_estimator(name, estimator, pps_batch(rng, n, tau))

    bench_sum_aggregate(args)

    print()
    failed = False
    for name, speedup in gated.items():
        verdict = "OK" if speedup >= args.min_speedup else "FAIL"
        failed |= verdict == "FAIL"
        print(
            f"{verdict}: {name} speedup {speedup:.1f}x vs the "
            f"{args.min_speedup:.0f}x gate"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
