"""Declarative queries over a :class:`~repro.service.SketchStore`.

A :class:`Query` is plain data: an aggregate kind (distinct count,
subset sum, max dominance or L1 distance), the instances of a named
engine it reads, the distinct-count variant and whether to report
confidence.  :class:`QueryPlanner` routes it to the existing estimator
paths — the Section-8 aggregate estimators of :mod:`repro.aggregates`
and the vectorized :mod:`repro.batch` kernels, via the
:mod:`repro.streaming.query` adapters — and memoises results in a
**per-instance cache**: the cache key embeds the engine's replacement
epoch and, for each instance the query reads, the engine version that
last changed it.  A write to an instance, or an engine swap, invalidates
exactly the cached results that read it, and a hit is only ever served
for the exact state of its instances it was computed from.

Every kind reads the store's memoised column views
(:meth:`SketchStore.column_view`): a
:class:`~repro.streaming.query.SketchColumns` per instance of a Poisson
engine, the merged sketch per instance of a bottom-k one.  A miss on an
instance no write has touched since its last read therefore folds and
hashes nothing.

Routing
-------
========== ==========================================================
kind        path
========== ==========================================================
distinct    :func:`repro.streaming.query.distinct_count`
            (Section 8.1 ``L`` / ``HT`` estimators)
sum         Poisson: the Horvitz-Thompson total ``sum v / p`` over the
            view's value column, ``p`` from
            :func:`~repro.streaming.query.inclusion_probabilities`;
            bottom-k: :func:`~repro.streaming.query.
            rank_conditioning_total`
dominance   :func:`repro.streaming.query.max_dominance`
            (``max^(HT)`` / ``max^(L)`` on PPS sketches)
l1          :func:`repro.streaming.query.l1_distance`
========== ==========================================================

Predicates, estimator-weighted sums over several instances and other
functions of the sketches are in-process uses: call
:mod:`repro.streaming.query` on :meth:`SketchStore.merged_sketch` or
:meth:`SketchStore.column_view`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.aggregates.distinct import check_variant
from repro.exceptions import InvalidParameterError
from repro.obs import span
from repro.service.confidence import query_confidence
from repro.streaming.query import (
    SketchColumns,
    distinct_count,
    inclusion_probabilities,
    l1_distance,
    max_dominance,
    rank_conditioning_total,
)
from repro.streaming.sketch import StreamingBottomK

__all__ = ["QUERY_KINDS", "Query", "QueryPlanner", "QueryResult", "query_value_json"]

#: every query kind, as HTTP (``?kind=``) and the CLI (``--kind``) take it
QUERY_KINDS = ("distinct", "sum", "dominance", "l1")


@dataclass(frozen=True)
class Query:
    """A declarative aggregate query over named instances.

    Queries are frozen, hashable plain data, which makes them directly
    usable as cache keys: two equal queries share one cache entry.
    Construction refuses an unknown kind, an unhashable instance label
    and a wrong instance count (``sum`` takes one instance, the other
    kinds two).
    """

    kind: str
    instances: tuple
    #: distinct-count variant: ``"l"`` (variance-optimal) or ``"ht"``,
    #: case-insensitive; stored lowercase, and as ``"l"`` for other kinds
    variant: str = "l"
    #: report estimate quality (``cv`` / ``ci90``) alongside the value;
    #: raises :class:`~repro.exceptions.ConfidenceUnavailableError` for
    #: query shapes without an applicable variance estimator
    confidence: bool = False

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise InvalidParameterError(
                f"unknown query kind {self.kind!r}; expected one of "
                f"{QUERY_KINDS}"
            )
        instances = tuple(self.instances)
        object.__setattr__(self, "instances", instances)
        if self.kind == "sum":
            if len(instances) != 1:
                raise InvalidParameterError(
                    "sum queries take exactly one instance, got "
                    f"{len(instances)}"
                )
        elif len(instances) != 2:
            raise InvalidParameterError(
                f"{self.kind} queries take exactly two instances, got "
                f"{len(instances)}"
            )
        try:
            hash(instances)
        except TypeError as exc:
            raise InvalidParameterError(
                f"query instance labels must be hashable: {exc}"
            ) from None
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
    def distinct(cls, instance1, instance2, variant: str = "l") -> "Query":
        """Distinct count (union size) of two instances."""
        return cls("distinct", (instance1, instance2), variant=variant)

    @classmethod
    def sum(cls, instance) -> "Query":
        """Subset sum over one instance."""
        return cls("sum", (instance,))

    @classmethod
    def dominance(cls, instance1, instance2) -> "Query":
        """Max-dominance norm of two PPS instances."""
        return cls("dominance", (instance1, instance2))

    @classmethod
    def l1(cls, instance1, instance2) -> "Query":
        """L1 distance of two weight-oblivious instances."""
        return cls("l1", (instance1, instance2))


@dataclass(frozen=True)
class QueryResult:
    """A query value plus the engine version it was computed at.

    A cached result keeps the version it was computed at, which can be
    older than the engine's current one when only other instances have
    changed since; the value is exact at both.

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
    """Routes queries to the estimator paths, caching per instance.

    The cache maps ``(store name, (epoch, last-change versions of the
    query's instances), query)`` to the computed value and the version
    it was computed at.  The store moves an instance's last-change
    version on every submit, replay or merge that changes its sample,
    and the epoch on every engine replacement, so stale entries are
    never served; they age out of the LRU bound.  A write to one instance
    keeps every cached answer that does not read it.  A computed result
    is cached under the key read in the same lock hold as its views, so
    it is exact for that key.  A result an engine replacement raced is
    returned but not cached; like every computing :meth:`run`, it counts
    as a miss.
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
        """The cached result at the current state of the query's
        instances, or ``None``.

        Never computes anything and never waits on the store's
        per-engine locks — a cache probe cheap enough for a serving
        event loop to call inline before it pays for a recompute.  A
        hit reports the version it was computed at and counts toward
        :attr:`hits`; a miss leaves the counters untouched (the caller
        is expected to follow up with :meth:`run`).
        """
        key = (name, self._store.state_hint(name, query.instances)[1], query)
        with self._lock:
            cached = self._cache.get(key)
            if cached is None:
                return None
            self._cache.move_to_end(key)
            self.hits += 1
        value, version, confidence = cached
        return QueryResult(value, version, True, confidence)

    def run(self, name: str, query: Query, *, wait: bool = True) -> QueryResult:
        """Execute ``query`` against store ``name``, serving from the
        cache when none of the instances it reads has changed.

        ``wait=False`` never waits for the engine's lock: if another
        thread holds it, :class:`~repro.exceptions.EngineBusyError` is
        raised before the view memo, :attr:`misses` or the cache change.
        That attempt still leaves one ``planner.query`` span, with
        ``error`` set.
        """
        with span(
            "planner.query", engine=name, kind=query.kind
        ) as span_attrs:
            cached = self.peek(name, query)
            if cached is not None:
                span_attrs["cache"] = "hit"
                return cached
            span_attrs["cache"] = "miss"
            # the key comes from the lock hold the views were read in, so
            # the result is cached under exactly the state it describes
            # (a write between the probe above and here only makes this
            # a recompute at the newer state)
            version, key, sketches = self._store.keyed_view(
                name, query.instances, wait=wait
            )
            value = self._dispatch(sketches, query)
            # computed against the same sketches as the value, so the
            # quality payload describes exactly this estimate (and rides
            # the cache entry with it)
            confidence = (
                query_confidence(sketches, query, value)
                if query.confidence
                else None
            )
            # a result an engine replacement raced is returned but not
            # cached: no probe can hit its dead epoch's key again
            cacheable = self._store.state_hint(name)[1][0] == key[0]
            with self._lock:
                # every computed result is a miss, cached or not
                self.misses += 1
                if cacheable:
                    self._cache[name, key, query] = (value, version, confidence)
                    while len(self._cache) > self.max_cache_entries:
                        self._cache.popitem(last=False)
            return QueryResult(value, version, False, confidence)

    def execute(self, name: str, query: Query):
        """Uncached execution (always recomputes, never stores)."""
        _, sketches = self._store.column_view(name, query.instances)
        return self._dispatch(sketches, query)

    def _dispatch(self, sketches: list, query: Query):
        """The value of ``query`` over its instances' column views."""
        kind = query.kind
        if kind == "sum":
            (view,) = sketches
            if isinstance(view, StreamingBottomK):
                return rank_conditioning_total(view)
            terms = view.values / inclusion_probabilities(view)
            # cumsum adds sequentially in retention order, as the
            # sample's per-key Horvitz-Thompson loop does
            return float(np.cumsum(terms)[-1]) if terms.size else 0.0
        # a bottom-k engine's merged sketches are refused here
        first, second = map(SketchColumns.of, sketches)
        if kind == "distinct":
            return distinct_count(first, second, variant=query.variant)
        if kind == "dominance":
            return max_dominance(first, second)
        return l1_distance(first, second)


def query_value_json(value: object) -> object:
    """JSON-encodable form of a query result value.

    Shared by every serving surface (the CLI and the HTTP front-end):
    plain numbers pass through, the aggregate result objects
    (estimate/counts, ht/l distinct-count pairs) flatten to dicts, and
    any other type raises :class:`TypeError`.
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
    raise TypeError(
        f"no JSON form for a query value of type {type(value).__name__}"
    )
