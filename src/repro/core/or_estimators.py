"""Boolean OR estimators (Sections 4.3 and 5.1).

``OR(v)`` is 1 when any entry is nonzero.  Its sum aggregate over keys is the
distinct-element count (size of the union of the instances viewed as sets),
the application developed in Section 8.1.

Two sampling models are covered:

* **weight-oblivious Poisson** sampling (Section 4.3): entry ``i`` is
  sampled with probability ``p_i`` regardless of its value — estimators
  :class:`OrObliviousHT`, :class:`OrObliviousL`, :class:`OrObliviousU`.
* **weighted Poisson with known seeds** (Section 5.1): only ``1``-valued
  entries can be sampled (with probability ``p_i``), but the seed ``u_i`` of
  each entry is known, so ``i not in S`` together with ``u_i <= p_i``
  certifies ``v_i = 0``.  The paper shows this model is outcome-equivalent
  to the weight-oblivious one; estimators
  :class:`OrKnownSeedsHT`, :class:`OrKnownSeedsL`, :class:`OrKnownSeedsU`
  apply the mapping (:func:`repro.batch.kernels.known_seed_or_mapping`)
  and delegate.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import check_probability_vector
from repro.batch.kernels import check_binary_columns, known_seed_or_mapping
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.estimator_base import VectorEstimator
from repro.core.functions import boolean_or
from repro.core.ht import HorvitzThompsonOblivious
from repro.core.max_oblivious import MaxObliviousL, MaxObliviousU
from repro.exceptions import InvalidOutcomeError

__all__ = [
    "OrObliviousHT",
    "OrObliviousL",
    "OrObliviousU",
    "OrKnownSeedsHT",
    "OrKnownSeedsL",
    "OrKnownSeedsU",
]


class OrObliviousHT(HorvitzThompsonOblivious):
    """HT estimator of Boolean OR under weight-oblivious Poisson sampling.

    The vectorized batch path picks up ``boolean_or``'s registered twin
    from :data:`~repro.core.functions.BATCH_FUNCTIONS` automatically.
    """

    function_name = "or"

    def __init__(self, probabilities: Sequence[float]) -> None:
        super().__init__(
            probabilities, function=boolean_or, function_name="or"
        )


class OrObliviousL(VectorEstimator):
    """``OR^(L)``: the dense-first optimal OR estimator (Section 4.3).

    Obtained by specialising ``max^(L)`` to the Boolean domain; optimal also
    on that restricted domain.
    """

    function_name = "or"
    variant = "L"
    is_monotone = True
    is_pareto_optimal = True

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        self._max_l = MaxObliviousL(probabilities)

    @property
    def r(self) -> int:
        return len(self.probabilities)

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """``OR^(L)``: binary check, then the ``max^(L)`` kernel."""
        check_binary_columns(batch.values, batch.sampled)
        return self._max_l.estimate_batch(batch)


class OrObliviousU(VectorEstimator):
    """``OR^(U)``: the sparse-first optimal OR estimator (Section 4.3),
    ``r = 2`` (specialisation of ``max^(U)``)."""

    function_name = "or"
    variant = "U"
    is_pareto_optimal = True

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        self._max_u = MaxObliviousU(probabilities)

    @property
    def r(self) -> int:
        return 2

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """``OR^(U)``: binary check, then the ``max^(U)`` kernel."""
        check_binary_columns(batch.values, batch.sampled)
        return self._max_u.estimate_batch(batch)


class _KnownSeedsOrBase(VectorEstimator):
    """Shared plumbing of the known-seed OR estimators."""

    function_name = "or"

    #: class of the weight-oblivious estimator to delegate to
    _oblivious_class: type[VectorEstimator] = OrObliviousHT

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        self._oblivious = self._oblivious_class(probabilities)

    @property
    def r(self) -> int:
        return len(self.probabilities)

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """Known-seed OR: apply the Section 5 outcome mapping column-wise,
        then delegate to the weight-oblivious estimator."""
        check_binary_columns(batch.values, batch.sampled)
        if batch.seeds is None:
            raise InvalidOutcomeError(
                "known-seed OR estimators require outcomes that carry seeds"
            )
        self._check_batch(batch)
        mapped_values, mapped_sampled = known_seed_or_mapping(
            batch.sampled, batch.seeds, np.asarray(self.probabilities)
        )
        mapped = OutcomeBatch(values=mapped_values, sampled=mapped_sampled)
        return self._oblivious.estimate_batch(mapped)


class OrKnownSeedsHT(_KnownSeedsOrBase):
    """``OR^(HT)`` for weighted sampling with known seeds (Section 5.1)."""

    variant = "HT"
    is_monotone = True
    _oblivious_class = OrObliviousHT


class OrKnownSeedsL(_KnownSeedsOrBase):
    """``OR^(L)`` for weighted sampling with known seeds (Section 5.1)."""

    variant = "L"
    is_monotone = True
    is_pareto_optimal = True
    _oblivious_class = OrObliviousL


class OrKnownSeedsU(_KnownSeedsOrBase):
    """``OR^(U)`` for weighted sampling with known seeds (Section 5.1)."""

    variant = "U"
    is_pareto_optimal = True
    _oblivious_class = OrObliviousU

