"""Streaming coordinated-sketch engine.

The offline pipeline materialises every instance before sampling it; this
subpackage maintains the same coordinated summaries *online* over unbounded
streams of ``(instance, key, value)`` updates:

* :mod:`repro.streaming.sketch` — heap-backed :class:`StreamingBottomK`
  (O(log k) per update) and :class:`StreamingPoisson` sketches, seeded
  through the shared :class:`~repro.sampling.seeds.SeedAssigner` so sketches
  of different instances stay coordinated;
* :mod:`repro.streaming.merge` — associative, commutative sketch merging,
  the algebra behind shard-and-reduce parallelism;
* :mod:`repro.streaming.engine` — :class:`StreamEngine`, batched NumPy
  ingestion sharded by key hash;
* :mod:`repro.streaming.query` — adapters producing
  :class:`~repro.sampling.outcomes.VectorOutcome` families and
  :class:`~repro.aggregates.dataset.MultiInstanceDataset` views so the
  offline estimators (``max^(L)``, the OR family, rank conditioning,
  distinct count, dominance, L1 distance) run on sketch output unchanged.

For any fixed seed assignment the streaming sketches are *exact*: the
sketch of an instance equals the offline sample of the accumulated data,
and merging per-shard sketches equals the single-pass sketch.
"""

from repro.streaming.engine import StreamEngine
from repro.streaming.merge import merge_bottom_k, merge_poisson, merge_sketches
from repro.streaming.query import (
    SketchColumns,
    StreamingDominanceEstimate,
    dataset_view,
    distinct_count,
    l1_distance,
    max_dominance,
    rank_conditioning_total,
    sum_aggregate,
    vector_outcomes,
)
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

__all__ = [
    "SketchColumns",
    "StreamEngine",
    "StreamingBottomK",
    "StreamingPoisson",
    "StreamingDominanceEstimate",
    "merge_bottom_k",
    "merge_poisson",
    "merge_sketches",
    "dataset_view",
    "distinct_count",
    "l1_distance",
    "max_dominance",
    "rank_conditioning_total",
    "sum_aggregate",
    "vector_outcomes",
]
