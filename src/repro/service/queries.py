"""Declarative queries over a :class:`~repro.service.SketchStore`.

A :class:`Query` names an aggregate (distinct count, subset sum, max
dominance, L1 distance, or a custom function) over one or more instances
of a named engine; :class:`QueryPlanner` routes it to the existing
estimator paths — the Section-8 aggregate estimators of
:mod:`repro.aggregates` and the vectorized :mod:`repro.batch` kernels,
via the :mod:`repro.streaming.query` adapters — and memoises results in a
**version-keyed cache**: the cache key embeds the engine's monotone
ingest version and its replacement epoch, so any ingest or engine swap
invalidates all cached results of that engine automatically and a hit is
only ever served for the exact state it was computed from.

The two-instance kinds (``distinct``, ``l1``, ``dominance``) read the
store's memoised column views (:meth:`SketchStore.column_view`), so a
miss on an instance pair already seen at this engine state folds and
hashes nothing; ``sum`` and ``custom`` read fresh merged sketches
(:meth:`SketchStore.snapshot_view`).

Routing
-------
========== ==========================================================
kind        path
========== ==========================================================
distinct    :func:`repro.streaming.query.distinct_count`
            (Section 8.1 ``L`` / ``HT`` estimators)
sum         with ``estimator``: :func:`~repro.streaming.query.
            sum_aggregate` (vectorized batch path); without: rank
            conditioning for bottom-k, Horvitz-Thompson for Poisson
dominance   :func:`repro.streaming.query.max_dominance`
            (``max^(HT)`` / ``max^(L)`` on PPS sketches)
l1          :func:`repro.streaming.query.l1_distance`
custom      ``query.fn(sketches)``
========== ==========================================================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.aggregates.distinct import check_variant
from repro.exceptions import InvalidParameterError
from repro.obs import span
from repro.service.confidence import query_confidence
from repro.streaming.query import (
    distinct_count,
    l1_distance,
    max_dominance,
    rank_conditioning_total,
    sum_aggregate,
)
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

__all__ = ["Query", "QueryPlanner", "QueryResult", "query_value_json"]

_KINDS = ("distinct", "sum", "dominance", "l1", "custom")
#: the kinds that run on the store's memoised column views
_COLUMN_KINDS = frozenset(("distinct", "dominance", "l1"))


@dataclass(frozen=True)
class Query:
    """A declarative aggregate query over named instances.

    Queries are frozen and hashable (callables hash by identity), which
    makes them directly usable as cache keys; reuse the same ``Query``
    object to hit the planner cache for predicate/custom queries.
    """

    kind: str
    instances: tuple
    #: distinct-count variant: ``"l"`` (variance-optimal) or ``"ht"``,
    #: case-insensitive; stored lowercase, and as ``"l"`` for other kinds
    variant: str = "l"
    #: per-key :class:`~repro.core.estimator_base.VectorEstimator` for
    #: multi-instance sum queries
    estimator: object = None
    #: optional key predicate restricting the aggregate to a subset
    predicate: object = None
    #: custom query function ``fn(sketches) -> value``
    fn: object = field(default=None)
    #: report estimate quality (``cv`` / ``ci90``) alongside the value;
    #: raises :class:`~repro.exceptions.ConfidenceUnavailableError` for
    #: query shapes without an applicable variance estimator
    confidence: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown query kind {self.kind!r}; expected one of "
                f"{_KINDS}"
            )
        object.__setattr__(self, "instances", tuple(self.instances))
        # normalised, so ``HT`` and ``ht`` share one cache entry; other
        # kinds ignore the variant, so it must not split their entries
        variant = check_variant(self.variant)
        object.__setattr__(
            self, "variant", variant if self.kind == "distinct" else "l"
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def distinct(
        cls, instance1, instance2, variant: str = "l", predicate=None
    ) -> "Query":
        """Distinct count (union size) of two instances."""
        return cls(
            "distinct",
            (instance1, instance2),
            variant=variant,
            predicate=predicate,
        )

    @classmethod
    def sum(cls, *instances, estimator=None, predicate=None) -> "Query":
        """Subset-sum over one instance, or an estimator-weighted sum
        aggregate over several."""
        return cls(
            "sum", instances, estimator=estimator, predicate=predicate
        )

    @classmethod
    def dominance(cls, instance1, instance2, predicate=None) -> "Query":
        """Max-dominance norm of two PPS instances."""
        return cls("dominance", (instance1, instance2), predicate=predicate)

    @classmethod
    def l1(cls, instance1, instance2, predicate=None) -> "Query":
        """L1 distance of two weight-oblivious instances."""
        return cls("l1", (instance1, instance2), predicate=predicate)

    @classmethod
    def custom(cls, *instances, fn) -> "Query":
        """Run ``fn`` on the merged sketches of ``instances``."""
        return cls("custom", instances, fn=fn)


@dataclass(frozen=True)
class QueryResult:
    """A query value plus the engine version it was computed at.

    ``confidence`` carries the estimate-quality payload
    (:func:`repro.service.confidence.query_confidence`) when the query
    asked for it, else ``None``.
    """

    value: object
    version: int
    from_cache: bool
    confidence: dict | None = None

    def __float__(self) -> float:
        return float(self.value)


class QueryPlanner:
    """Routes queries to the estimator paths, caching by engine version.

    The cache maps ``(store name, engine version, epoch, query)`` to the
    computed value.  Because the store bumps the version on every ingest
    and the epoch on every engine replacement, stale entries are never
    served; they age out of the LRU bound.
    Unhashable queries (e.g. list-valued instance labels) are computed
    but never cached; like every computing :meth:`run`, each counts as
    a miss.
    """

    def __init__(self, store, max_cache_entries: int = 1024) -> None:
        if max_cache_entries <= 0:
            raise InvalidParameterError(
                "max_cache_entries must be positive, got "
                f"{max_cache_entries}"
            )
        self._store = store
        self.max_cache_entries = int(max_cache_entries)
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _param_token(value: object):
        """Hashable cache token of one query parameter.

        Plain values key by value, but behavioural parameters — custom
        query functions, predicates, estimator objects — key by
        *identity*: two distinct callables must never share a cache
        entry even when they compare equal (bound methods of equal
        instances, or user callables with an ``__eq__`` coarser than
        their behaviour).  The object itself rides along in the token so
        its ``id`` cannot be recycled while the cache still holds it.
        """
        if value is None or isinstance(
            value, (str, int, float, bool, bytes, frozenset)
        ):
            return value
        return (id(value), value)

    @classmethod
    def _cache_key(cls, name: str, state: tuple[int, int], query: Query):
        key = (
            name,
            state,
            query.kind,
            query.instances,
            query.variant,
            cls._param_token(query.estimator),
            cls._param_token(query.predicate),
            cls._param_token(query.fn),
            bool(query.confidence),
        )
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def cache_stats(self) -> dict:
        """Hit/miss counters and current size, for monitoring surfaces."""
        with self._lock:
            hits, misses, size = self.hits, self.misses, len(self._cache)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "entries": size,
            "max_entries": self.max_cache_entries,
        }

    def peek(self, name: str, query: Query) -> QueryResult | None:
        """The cached result at the store's current version, or ``None``.

        Never computes anything and never waits on the store's
        per-engine locks — a cache probe cheap enough for a serving
        event loop to call inline before deciding whether to pay for a
        recompute on a worker thread.  A hit counts toward :attr:`hits`;
        a miss leaves the counters untouched (the caller is expected to
        follow up with :meth:`run`).
        """
        state = self._store.state_hint(name)
        key = self._cache_key(name, state, query)
        if key is None:
            return None
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self.hits += 1
                value, confidence = self._cache[key]
                return QueryResult(value, state[0], True, confidence)
        return None

    def run(self, name: str, query: Query) -> QueryResult:
        """Execute ``query`` against store ``name``, serving from the
        cache when the engine version has not moved."""
        with span(
            "planner.query", engine=name, kind=query.kind
        ) as span_attrs:
            cached = self.peek(name, query)
            if cached is not None:
                span_attrs["cache"] = "hit"
                return cached
            span_attrs["cache"] = "miss"
            # A consistent view: the version the sketches are read at is
            # the version the result is cached under (ingests between the
            # check above and here just cause a recompute at the newer
            # version).  The epoch is read around the view, and a result
            # an engine replacement raced is returned but not cached.
            epoch = self._store.state_hint(name)[1]
            version, sketches = self._view(name, query)
            value = self._dispatch(sketches, query)
            # computed against the same sketches as the value, so the
            # quality payload describes exactly this estimate (and rides
            # the cache entry with it)
            confidence = (
                query_confidence(sketches, query, value)
                if query.confidence
                else None
            )
            key = (
                self._cache_key(name, (version, epoch), query)
                if self._store.state_hint(name)[1] == epoch
                else None
            )
            with self._lock:
                # every computed result is a miss, cached or not
                self.misses += 1
                if key is not None:
                    self._cache[key] = (value, confidence)
                    while len(self._cache) > self.max_cache_entries:
                        self._cache.popitem(last=False)
            return QueryResult(value, version, False, confidence)

    def execute(self, name: str, query: Query):
        """Uncached execution (always recomputes, never stores)."""
        _, sketches = self._view(name, query)
        return self._dispatch(sketches, query)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _view(self, name: str, query: Query) -> tuple[int, list]:
        """``(version, sketches)`` of the query's instances: memoised
        column views for the two-instance kinds, fresh merged sketches
        for the rest."""
        if query.kind in _COLUMN_KINDS:
            return self._store.column_view(name, query.instances)
        return self._store.snapshot_view(name, query.instances)

    @staticmethod
    def _pair(sketches: list, kind: str) -> tuple:
        if len(sketches) != 2:
            raise InvalidParameterError(
                f"{kind} queries take exactly two instances, got "
                f"{len(sketches)}"
            )
        return sketches[0], sketches[1]

    def _dispatch(self, sketches: list, query: Query):
        kind = query.kind
        if kind == "distinct":
            sketch1, sketch2 = self._pair(sketches, kind)
            return distinct_count(
                sketch1,
                sketch2,
                variant=query.variant,
                predicate=query.predicate,
            )
        if kind == "dominance":
            sketch1, sketch2 = self._pair(sketches, kind)
            return max_dominance(
                sketch1, sketch2, predicate=query.predicate
            )
        if kind == "l1":
            sketch1, sketch2 = self._pair(sketches, kind)
            return l1_distance(sketch1, sketch2, predicate=query.predicate)
        if kind == "sum":
            if query.estimator is not None:
                return sum_aggregate(
                    sketches, query.estimator, predicate=query.predicate
                )
            if len(sketches) != 1:
                raise InvalidParameterError(
                    "multi-instance sum queries require an estimator"
                )
            sketch = sketches[0]
            if isinstance(sketch, StreamingBottomK):
                return rank_conditioning_total(sketch, query.predicate)
            if isinstance(sketch, StreamingPoisson):
                return sketch.to_sample().horvitz_thompson_total(
                    query.predicate
                )
            raise InvalidParameterError(
                "sum queries support streaming sketches, got "
                f"{type(sketch).__name__}"
            )
        # __post_init__ guarantees kind == "custom" here
        if query.fn is None:
            raise InvalidParameterError(
                "custom queries require a query function (fn=...)"
            )
        return query.fn(sketches)


def query_value_json(value: object) -> object:
    """JSON-encodable form of a query result value.

    Shared by every serving surface (the CLI and the HTTP front-end):
    plain numbers pass through, the aggregate result objects
    (estimate/counts, ht/l distinct-count pairs) flatten to dicts, and
    anything else falls back to ``repr``.
    """
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "estimate") and hasattr(value, "counts"):
        return {
            "estimate": float(value.estimate),
            "counts": dict(value.counts),
            "estimator": value.estimator,
        }
    if hasattr(value, "ht") and hasattr(value, "l"):
        return {
            "ht": float(value.ht),
            "l": float(value.l),
            "n_sampled_keys": int(value.n_sampled_keys),
        }
    return repr(value)
