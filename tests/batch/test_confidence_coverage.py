"""Monte Carlo coverage of the per-query ``ci90`` intervals (slow suite).

The per-query quality payload promises a nominal-90% normal interval
around the estimate.  Over repeated sketch builds of a *fixed*
population — only the sampling seeds vary across trials, which is
exactly the randomness the paper's variance analysis integrates over —
the fraction of intervals that cover the true value must sit near 90%:
the acceptance band is [85%, 95%], about 2.5 standard errors wide at
250 trials.  Checked for the two estimator families that report
confidence: bottom-k subset sums (rank-conditioning plug-in variance)
and distinct counts (Section 8.1 variance at the plug-in estimate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query
from repro.service.store import SketchStore

from ingest_helper import ingest

pytestmark = pytest.mark.slow

N_TRIALS = 250
COVERAGE_BAND = (0.85, 0.95)
SEED = 20110613


def population(n, seed=SEED):
    generator = np.random.default_rng(seed)
    keys = generator.choice(10**6, size=n, replace=False)
    values = generator.random(n) * 5.0 + 0.01
    return keys, values


def coverage_message(name, covered):
    rate = covered / N_TRIALS
    return (
        f"{name}: ci90 covered the truth in {covered}/{N_TRIALS} trials "
        f"({rate:.1%}); expected within {COVERAGE_BAND}"
    )


class TestCi90Coverage:
    def test_bottom_k_sum_coverage(self):
        keys, values = population(1500)
        truth = float(values.sum())
        covered = 0
        for trial in range(N_TRIALS):
            store = SketchStore()
            store.create(
                "bk", "bottom_k", k=96,
                seed_assigner=SeedAssigner(salt=1000 + trial),
            )
            ingest(store, "bk", "d", keys, values)
            result = store.query(
                "bk", Query("sum", ("d",), confidence=True)
            )
            interval = result.confidence["ci90"]
            covered += interval["lower"] <= truth <= interval["upper"]
        rate = covered / N_TRIALS
        assert COVERAGE_BAND[0] <= rate <= COVERAGE_BAND[1], (
            coverage_message("bottom-k sum", covered)
        )

    def test_distinct_count_coverage(self):
        keys, _ = population(1200)
        # two overlapping unit-weight instances; the union is the truth
        first, second = keys[:800], keys[400:]
        truth = float(len(set(first) | set(second)))
        covered = 0
        for trial in range(N_TRIALS):
            store = SketchStore()
            store.create(
                "traffic", "poisson", threshold=0.35,
                seed_assigner=SeedAssigner(salt=5000 + trial),
            )
            ingest(store, "traffic", "mon", first, np.ones(len(first)))
            ingest(store, "traffic", "tue", second, np.ones(len(second)))
            result = store.query(
                "traffic",
                Query("distinct", ("mon", "tue"), confidence=True),
            )
            interval = result.confidence["ci90"]
            covered += interval["lower"] <= truth <= interval["upper"]
        rate = covered / N_TRIALS
        assert COVERAGE_BAND[0] <= rate <= COVERAGE_BAND[1], (
            coverage_message("distinct", covered)
        )
