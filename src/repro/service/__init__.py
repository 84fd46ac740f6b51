"""Persistent sketch store and query-serving layer.

The streaming subsystem (:mod:`repro.streaming`) maintains coordinated
sketches in memory; this package turns them into long-lived, queryable
state:

* :mod:`repro.service.codec` — a versioned little-endian binary wire
  format (:func:`to_bytes` / :func:`from_bytes`) for both sketch
  families and full :class:`~repro.streaming.StreamEngine` state.
  Restoration is state-exact: identical snapshots, identical query
  results, bit-identical subsequent updates;
* :mod:`repro.service.store` — :class:`SketchStore`, a registry of named
  engines with thread-safe concurrent ingest (one writer per engine),
  monotone version counters, snapshot/restore to disk, and
  distributed-style fan-in of peer snapshot files through the sketch
  merge algebra;
* :mod:`repro.service.queries` — plain-data :class:`Query` objects and
  a :class:`QueryPlanner` that routes distinct-count / sum / dominance /
  L1 queries over the store's memoised column views to the existing
  :mod:`repro.aggregates` and :mod:`repro.batch` estimator paths,
  memoising results in a cache keyed per instance: an ingest
  invalidates the results that read the instance it wrote;
* :mod:`repro.service.cli` — ``python -m repro.service
  ingest|snapshot|merge|query`` over CSV/JSONL update streams.
"""

from repro.service.codec import from_bytes, to_bytes
from repro.service.queries import Query, QueryPlanner, QueryResult
from repro.service.store import IngestRequest, SketchStore

__all__ = [
    "IngestRequest",
    "Query",
    "QueryPlanner",
    "QueryResult",
    "SketchStore",
    "from_bytes",
    "to_bytes",
]
