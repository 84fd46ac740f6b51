"""Columnar batch estimation engine.

Estimators score outcomes as columns: a sum aggregate over many keys
becomes one NumPy pass instead of a Python-interpreter loop per key.

``outcome_batch``
    :class:`OutcomeBatch` — ``n`` outcomes stored as ``(n, r)`` value /
    sampled-mask / seed arrays, interconvertible with scalar outcomes.
``kernels``
    Pure NumPy kernels, the only implementation of each closed-form
    estimator; the core estimator classes call them from
    ``estimate_batch`` (and score one outcome as a one-row batch).
``assemble``
    Builders that turn datasets + seed assigners into batches, hashing
    each key column once per instance.

``VectorEstimator.estimate_many`` routes an iterable of outcomes through
``estimate_batch`` when the outcomes form one batch and scores them one by
one otherwise.  ``tests/batch/test_parity.py`` pins the kernels to scalar
values frozen before the per-class formulas were removed.
"""

from repro.batch.assemble import (
    dataset_value_matrix,
    oblivious_outcome_batch,
    pps_outcome_batch,
)
from repro.batch.outcome_batch import OutcomeBatch

__all__ = [
    "OutcomeBatch",
    "dataset_value_matrix",
    "oblivious_outcome_batch",
    "pps_outcome_batch",
]
