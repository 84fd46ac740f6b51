"""Querying families of coordinated sketches with the offline estimators.

The estimators of :mod:`repro.core` consume per-key
:class:`~repro.sampling.outcomes.VectorOutcome` objects; the aggregate
functions of :mod:`repro.aggregates` consume samples plus seed lookups.
This module adapts a family of per-instance streaming sketches into exactly
those shapes, so the paper's estimators — ``max^(L)``, the OR family,
rank-conditioning subset sums, distinct count, max dominance, L1 distance —
run on streaming output with zero estimator changes.

All adapters only see what a sketch legitimately knows: the values of
retained keys and, through the shared :class:`SeedAssigner`, the seed of
*any* key — the known-seeds model of the paper.

The multi-instance estimators assume instances were sampled
*independently*; sketches built from a ``coordinated=True`` seed assigner
(shared seeds across instances) are rejected here, because the same
formulas silently return biased numbers under coordination.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.aggregates.dataset import KeyPredicate, MultiInstanceDataset
from repro.aggregates.distinct import (
    CATEGORY_NAMES,
    DistinctCountEstimate,
    distinct_estimate,
)
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.estimator_base import VectorEstimator
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.exceptions import InvalidParameterError
from repro.sampling.outcomes import VectorOutcome
from repro.sampling.ranks import PpsRanks, UniformRanks
from repro.sampling.seeds import key_hashes
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

__all__ = [
    "StreamingDominanceEstimate",
    "dataset_view",
    "distinct_count",
    "l1_distance",
    "max_dominance",
    "outcome_batch",
    "rank_conditioning_total",
    "sum_aggregate",
    "vector_outcomes",
]


def _check_family(sketches: Sequence[StreamingPoisson]) -> None:
    if not sketches:
        raise InvalidParameterError("at least one sketch is required")
    labels = [sketch.instance for sketch in sketches]
    if len(set(map(repr, labels))) != len(labels):
        raise InvalidParameterError(
            "sketches must summarise distinct instances"
        )


def _check_independent(sketches: Sequence[StreamingPoisson], name: str) -> None:
    """Reject coordinated (shared-seed) sketches for estimators that assume
    instances were sampled independently.

    The Section 8 estimators are derived for independent samples; with a
    ``coordinated=True`` seed assigner the per-key inclusion events of
    different instances are fully correlated and the same formulas return
    biased numbers without any other symptom.
    """
    for sketch in sketches:
        if sketch.seed_assigner.coordinated:
            raise InvalidParameterError(
                f"{name} assumes independently sampled instances; sketches "
                "built from a coordinated (shared-seed) SeedAssigner are "
                "not supported by this estimator"
            )


def _check_uniform(sketch: StreamingPoisson, name: str) -> float:
    if not isinstance(sketch.rank_family, UniformRanks):
        raise InvalidParameterError(
            f"{name} requires weight-oblivious (UniformRanks) sketches; "
            f"got {sketch.rank_family.name} ranks"
        )
    return sketch.threshold


def _outcome_columns(
    sketches: Sequence[StreamingPoisson],
    predicate: KeyPredicate | None,
    include_seeds: bool,
) -> tuple[list[object], np.ndarray, OutcomeBatch]:
    """:func:`outcome_batch` plus the ``(n, r)`` retained-membership mask.

    The union of the retained keys is hashed once; each sketch derives
    its seed column from those hashes, and membership and values fill
    their columns through C-level ``map`` passes over the entry dicts.
    """
    _check_family(sketches)
    entry_maps = [sketch.entries for sketch in sketches]
    union: dict[object, object] = {}
    for entries in entry_maps:
        union.update(entries)
    keys = list(union) if predicate is None else list(filter(predicate, union))
    n, r = len(keys), len(sketches)
    retained = np.empty((n, r), dtype=bool)
    values = np.empty((n, r), dtype=np.float64)
    sampled = np.empty((n, r), dtype=bool)
    seeds = np.empty((n, r), dtype=np.float64) if include_seeds else None
    hashes = key_hashes(keys)
    for index, (sketch, entries) in enumerate(zip(sketches, entry_maps)):
        # Membership mask, not a value sentinel: a retained entry whose
        # accumulated value is NaN must stay sampled (and propagate NaN
        # loudly) rather than be reclassified as unretained.
        retained[:, index] = np.fromiter(
            map(entries.__contains__, keys), dtype=bool, count=n
        )
        values[:, index] = np.fromiter(
            map(entries.get, keys, repeat(0.0)), dtype=np.float64, count=n
        )
        oblivious = isinstance(sketch.rank_family, UniformRanks)
        if include_seeds or oblivious:
            seed_column = sketch.seed_assigner.seeds_from_hashes(
                hashes, instance=sketch.instance
            )
            if seeds is not None:
                seeds[:, index] = seed_column
        sampled[:, index] = retained[:, index]
        if oblivious:
            # a seed-selected but unretained key was observed to be zero
            sampled[:, index] |= seed_column <= sketch.threshold
    batch = OutcomeBatch(values=values, sampled=sampled, seeds=seeds)
    return keys, retained, batch


def outcome_batch(
    sketches: Sequence[StreamingPoisson],
    predicate: KeyPredicate | None = None,
    include_seeds: bool = True,
) -> tuple[list[object], OutcomeBatch]:
    """Columnar per-key sampling outcomes of a family of Poisson sketches.

    Entry ``i`` of the outcome of key ``h`` is sampled iff ``h`` is retained
    by ``sketches[i]`` — or, for a weight-oblivious sketch, iff the (known)
    seed of ``h`` is at most the threshold: oblivious sampling observes keys
    regardless of their value, so a key that is seed-selected but not
    retained was *observed to be zero* in that instance, exactly as in the
    offline pipeline.  With ``include_seeds`` the batch carries the seed
    of every entry (known-seeds model), which the PPS and known-seed OR
    estimators require.

    Returns the key list (one batch row per key, in sketch-retention
    order) and the assembled :class:`~repro.batch.OutcomeBatch`.
    """
    keys, _, batch = _outcome_columns(sketches, predicate, include_seeds)
    return keys, batch


def vector_outcomes(
    sketches: Sequence[StreamingPoisson],
    predicate: KeyPredicate | None = None,
    include_seeds: bool = True,
) -> dict[object, VectorOutcome]:
    """Per-key sampling outcomes of a family of Poisson sketches.

    The scalar row view of :func:`outcome_batch`, kept for callers that
    consume one :class:`VectorOutcome` at a time.
    """
    keys, batch = outcome_batch(
        sketches, predicate=predicate, include_seeds=include_seeds
    )
    return {key: batch.row(index) for index, key in enumerate(keys)}


def sum_aggregate(
    sketches: Sequence[StreamingPoisson],
    estimator: VectorEstimator,
    predicate: KeyPredicate | None = None,
    include_seeds: bool = True,
) -> float:
    """Estimate ``sum_h f(v(h))`` from sketches with a per-key estimator.

    Keys retained by no sketch contribute zero per-key estimates (every
    estimator of the paper is zero on the empty outcome), so summing over
    retained keys only is exact for the estimator.  The per-key outcomes
    are assembled into one columnar batch and estimated in a single
    vectorized ``estimate_batch`` pass.
    """
    if estimator.r != len(sketches):
        raise InvalidParameterError(
            f"estimator expects r={estimator.r} instances, "
            f"got {len(sketches)} sketches"
        )
    _check_independent(sketches, "sum_aggregate")
    _, batch = outcome_batch(
        sketches, predicate=predicate, include_seeds=include_seeds
    )
    return float(estimator.estimate_batch(batch).sum())


def dataset_view(
    sketches: Sequence[StreamingPoisson | StreamingBottomK],
) -> MultiInstanceDataset:
    """The retained entries as a :class:`MultiInstanceDataset`.

    This is the *sketch view* of the data — the exact aggregates of the view
    are aggregates of the samples, not unbiased estimates — useful for
    feeding sketch output to any code written against the offline dataset
    protocol.
    """
    _check_family(sketches)
    return MultiInstanceDataset(
        {
            sketch.instance: (
                sketch.entries
                if isinstance(sketch, StreamingPoisson)
                else sketch.to_sample().entries
            )
            for sketch in sketches
        }
    )


def rank_conditioning_total(
    sketch: StreamingBottomK, predicate: KeyPredicate | None = None
) -> float:
    """Rank-conditioning subset-sum estimate from a bottom-k sketch."""
    if not isinstance(sketch, StreamingBottomK):
        raise InvalidParameterError(
            "rank conditioning requires a bottom-k sketch"
        )
    return sketch.to_sample().rank_conditioning_total(predicate)


def distinct_count(
    sketch1: StreamingPoisson,
    sketch2: StreamingPoisson,
    variant: str = "l",
    predicate: KeyPredicate | None = None,
) -> DistinctCountEstimate:
    """Distinct count of two instances from weight-oblivious sketches.

    The Section 8.1 estimators with the sketch thresholds as inclusion
    probabilities and the shared seed assigner as the seed oracle.  The
    five key categories are counted from the outcome columns: ``F11`` is
    retained by both sketches; a key retained by one sketch only is
    ``F10``/``F01`` when the other sketch seed-selected it (observed
    absent there) and ``F1?``/``F?1`` otherwise.
    """
    _check_independent((sketch1, sketch2), "distinct_count")
    p1 = _check_uniform(sketch1, "distinct_count")
    p2 = _check_uniform(sketch2, "distinct_count")
    _, retained, batch = _outcome_columns(
        (sketch1, sketch2), predicate, include_seeds=False
    )
    in1, in2 = retained[:, 0], retained[:, 1]
    sampled1, sampled2 = batch.sampled[:, 0], batch.sampled[:, 1]
    only1, only2 = in1 & ~in2, in2 & ~in1
    masks = (
        in1 & in2,
        only1 & ~sampled2,
        only1 & sampled2,
        only2 & ~sampled1,
        only2 & sampled1,
    )
    counts = {
        name: int(np.count_nonzero(mask))
        for name, mask in zip(CATEGORY_NAMES, masks)
    }
    return distinct_estimate(counts, p1, p2, variant)


def l1_distance(
    sketch1: StreamingPoisson,
    sketch2: StreamingPoisson,
    predicate: KeyPredicate | None = None,
) -> float:
    """HT estimate of the L1 distance from weight-oblivious sketches.

    A key contributes ``|v_1 - v_2| / (p_1 p_2)`` when sampled in both
    instances — the streaming counterpart of
    :func:`repro.aggregates.distance.l1_distance_ht`.  A key that is
    seed-selected but not retained by a sketch was observed to be zero
    there, so keys of one instance seed-selected by the other contribute
    their full value.
    """
    _check_independent((sketch1, sketch2), "l1_distance")
    p1 = _check_uniform(sketch1, "l1_distance")
    p2 = _check_uniform(sketch2, "l1_distance")
    _, batch = outcome_batch(
        (sketch1, sketch2), predicate=predicate, include_seeds=False
    )
    both = batch.sampled.all(axis=1)
    values = batch.values[both]
    terms = np.abs(values[:, 0] - values[:, 1]) / (p1 * p2)
    # cumsum adds sequentially in union order (``sum`` would add
    # pairwise), so the total is the one a per-key loop computes
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass(frozen=True)
class StreamingDominanceEstimate:
    """Max-dominance estimates computed from a pair of PPS sketches."""

    ht: float
    l: float
    n_sampled_keys: int


def max_dominance(
    sketch1: StreamingPoisson,
    sketch2: StreamingPoisson,
    predicate: KeyPredicate | None = None,
) -> StreamingDominanceEstimate:
    """Max-dominance norm of two instances from PPS sketches (Section 8.2).

    A PPS sketch with threshold ``tau`` samples key ``h`` iff
    ``u(h) / v(h) < tau``, i.e. it is Poisson PPS sampling with
    ``tau_star = 1 / tau`` — the scheme the ``max^(HT)`` / ``max^(L)``
    known-seed estimators are derived for.
    """
    _check_independent((sketch1, sketch2), "max_dominance")
    for sketch in (sketch1, sketch2):
        if not isinstance(sketch.rank_family, PpsRanks):
            raise InvalidParameterError(
                "max_dominance requires PPS (PpsRanks) sketches; "
                f"got {sketch.rank_family.name} ranks"
            )
    tau_star = (1.0 / sketch1.threshold, 1.0 / sketch2.threshold)
    estimator_ht = MaxPpsHT(tau_star)
    estimator_l = MaxPpsL(tau_star)
    keys, batch = outcome_batch((sketch1, sketch2), predicate=predicate)
    return StreamingDominanceEstimate(
        ht=float(estimator_ht.estimate_batch(batch).sum()),
        l=float(estimator_l.estimate_batch(batch).sum()),
        n_sampled_keys=len(keys),
    )
