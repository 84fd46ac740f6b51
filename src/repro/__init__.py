"""repro — reference reproduction of Cohen & Kaplan (PODS 2011).

"Get the Most out of Your Sample: Optimal Unbiased Estimators using Partial
Information" develops variance-optimal unbiased estimators for functions that
span several independently sampled data instances (max, min, OR, range, ...),
exploiting the *partial information* carried by outcomes that do not reveal
the exact value.

The package is organised as follows:

``repro.sampling``
    The sampling substrate: Poisson (weighted and weight-oblivious),
    bottom-k / priority, and VarOpt sampling of single instances, hash based
    reproducible seeds, and the per-key "dispersed vector" sampling schemes
    used by the estimator derivations.

``repro.core``
    The paper's primary contribution: the Horvitz-Thompson baseline, the
    generic order-based (Algorithm 1) and partition-based (Algorithm 2)
    derivation engines, the closed-form optimal estimators
    (max^(L), max^(U), OR^(L), OR^(U), PPS known-seed max^(L)), and the
    LP feasibility checker behind the Section 6 impossibility results.

``repro.batch``
    The columnar batch estimation engine: :class:`~repro.batch.
    OutcomeBatch` stores many per-key outcomes as 2-D value / mask / seed
    arrays, and every closed-form estimator is one NumPy kernel behind its
    ``estimate_batch`` (a single outcome is scored as a one-row batch).

``repro.exact``
    The vectorized exact-enumeration engine: the ``2^r`` outcome space of
    a weight-oblivious scheme as one columnar batch, exact moments as
    probability-weighted column reductions, and grid sweeps
    (``exact_moments_grid`` / ``exact_moments_value_grid``) that compute a
    whole figure curve in a handful of kernel calls — bit-for-bit equal to
    ``exact_moments`` at every point.

``repro.aggregates``
    Sum aggregates over an instances x keys data set: distinct count,
    max/min dominance norms and L1 distance — assembled into columnar
    batches and estimated in single NumPy passes.

``repro.streaming``
    The streaming coordinated-sketch engine: heap-backed bottom-k and
    Poisson sketches maintained online over ``(instance, key, value)``
    update streams, an associative/commutative merge algebra, a sharded
    batch-ingestion :class:`~repro.streaming.StreamEngine`, and query
    adapters that feed sketch output to the offline estimators unchanged.
    For any fixed seed assignment the streaming sketches equal the offline
    samples of the accumulated data exactly.

``repro.service``
    The persistence and serving layer: a versioned binary wire format for
    sketch and engine state, the :class:`~repro.service.SketchStore`
    registry with thread-safe concurrent ingest, snapshots and
    distributed-style snapshot fan-in, a per-instance cached declarative query
    planner, and the ``python -m repro.service`` CLI.

``repro.analysis``
    Variance analysis utilities: exact enumeration, Monte-Carlo simulation,
    and the sample-size planning math behind Figure 6.

``repro.datasets``
    Synthetic workload generators and the worked example from Figure 5.

``repro.experiments``
    One module per figure/table of the paper's evaluation.
"""

from repro.batch import OutcomeBatch
from repro.core.functions import (
    boolean_or,
    boolean_xor,
    exp_range,
    lth_largest,
    maximum,
    minimum,
    value_range,
)
from repro.core.ht import HorvitzThompsonOblivious, ht_variance
from repro.core.max_oblivious import (
    MaxObliviousHT,
    MaxObliviousL,
    MaxObliviousU,
)
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.core.or_estimators import (
    OrKnownSeedsHT,
    OrKnownSeedsL,
    OrKnownSeedsU,
    OrObliviousHT,
    OrObliviousL,
    OrObliviousU,
)
from repro.core.order_based import DiscreteModel, OrderBasedDeriver
from repro.core.partition_based import PartitionBasedDeriver
from repro.sampling.dispersed import ObliviousPoissonScheme, PpsPoissonScheme
from repro.sampling.outcomes import VectorOutcome
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner
from repro.service import Query, SketchStore
from repro.streaming import (
    StreamEngine,
    StreamingBottomK,
    StreamingPoisson,
    merge_sketches,
)

__version__ = "1.4.0"

__all__ = [
    "boolean_or",
    "boolean_xor",
    "exp_range",
    "lth_largest",
    "maximum",
    "minimum",
    "value_range",
    "HorvitzThompsonOblivious",
    "ht_variance",
    "MaxObliviousHT",
    "MaxObliviousL",
    "MaxObliviousU",
    "MaxPpsHT",
    "MaxPpsL",
    "OrObliviousHT",
    "OrObliviousL",
    "OrObliviousU",
    "OrKnownSeedsHT",
    "OrKnownSeedsL",
    "OrKnownSeedsU",
    "DiscreteModel",
    "OrderBasedDeriver",
    "PartitionBasedDeriver",
    "ObliviousPoissonScheme",
    "OutcomeBatch",
    "PpsPoissonScheme",
    "VectorOutcome",
    "SeedAssigner",
    "ExpRanks",
    "PpsRanks",
    "UniformRanks",
    "StreamEngine",
    "StreamingBottomK",
    "StreamingPoisson",
    "Query",
    "SketchStore",
    "merge_sketches",
    "__version__",
]
