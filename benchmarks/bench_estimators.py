"""Micro-benchmarks of the estimator and sampling primitives.

Unlike the figure benchmarks (run once to regenerate a table), these measure
raw throughput of the hot code paths: estimation of a list of outcomes
(``estimate_many``), per-key variance integration and single-instance
sampling.
"""

from __future__ import annotations

import numpy as np

from repro.core.max_oblivious import MaxObliviousL
from repro.core.max_weighted import MaxPpsL
from repro.core.or_estimators import OrKnownSeedsL
from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.dispersed import ObliviousPoissonScheme, PpsPoissonScheme
from repro.sampling.poisson import poisson_pps_sample
from repro.sampling.seeds import SeedAssigner
from repro.sampling.varopt import varopt_sample


def _oblivious_outcomes(n, r=4, p=0.3, seed=0):
    scheme = ObliviousPoissonScheme((p,) * r)
    rng = np.random.default_rng(seed)
    return [
        scheme.sample(tuple(rng.uniform(0, 100, r)), rng=rng)
        for _ in range(n)
    ]


def _pps_outcomes(n, tau=(10.0, 10.0), seed=0):
    scheme = PpsPoissonScheme(tau)
    rng = np.random.default_rng(seed)
    return [
        scheme.sample(tuple(rng.uniform(0, 12, 2)), rng=rng)
        for _ in range(n)
    ]


def test_max_oblivious_l_estimation_throughput(benchmark):
    estimator = MaxObliviousL((0.3,) * 4)
    outcomes = _oblivious_outcomes(2000)

    def run():
        return float(estimator.estimate_many(outcomes).sum())

    total = benchmark(run)
    assert total >= 0.0


def test_max_pps_l_estimation_throughput(benchmark):
    estimator = MaxPpsL((10.0, 10.0))
    outcomes = _pps_outcomes(2000)

    def run():
        return float(estimator.estimate_many(outcomes).sum())

    total = benchmark(run)
    assert total >= 0.0


def test_max_pps_l_variance_integration(benchmark):
    estimator = MaxPpsL((10.0, 10.0))
    rng = np.random.default_rng(1)
    data = [tuple(rng.uniform(0, 12, 2)) for _ in range(50)]

    def run():
        return float(estimator.variance_many(data, grid_size=801).sum())

    total = benchmark(run)
    assert total >= 0.0


def test_or_known_seeds_estimation_throughput(benchmark):
    estimator = OrKnownSeedsL((0.2, 0.2))
    scheme = PpsPoissonScheme((5.0, 5.0))
    rng = np.random.default_rng(2)
    outcomes = [
        scheme.sample((float(rng.integers(0, 2)), float(rng.integers(0, 2))),
                      rng=rng)
        for _ in range(2000)
    ]

    def run():
        return float(estimator.estimate_many(outcomes).sum())

    total = benchmark(run)
    assert total >= 0.0


def test_poisson_pps_sampling_throughput(benchmark):
    values = {i: float(i % 97 + 1) for i in range(20_000)}
    seeds = SeedAssigner(salt=3)

    def run():
        return len(poisson_pps_sample(values, expected_size=2000,
                                      seed_assigner=seeds))

    size = benchmark(run)
    assert size > 0


def test_bottom_k_sampling_throughput(benchmark):
    values = {i: float(i % 97 + 1) for i in range(20_000)}
    seeds = SeedAssigner(salt=4)

    def run():
        return len(bottom_k_sample(values, k=1000, seed_assigner=seeds))

    size = benchmark(run)
    assert size == 1000


def test_varopt_sampling_throughput(benchmark):
    values = {i: float(i % 97 + 1) for i in range(5_000)}

    def run():
        return len(varopt_sample(values, k=500, rng=5))

    size = benchmark(run)
    assert size == 500
