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

The Poisson adapters read a sketch through :class:`SketchColumns`, an
immutable columnar view (keys, their hashes, values).  A caller that
queries one instance many times — the store, which memoises views per
engine version — builds the view once and passes it wherever a sketch
is accepted; the join over views then hashes nothing.  A view also
memoises its hash sort order, so a pair of int-keyed or str-keyed views
joins by finding the first view's hashes in the second's sorted hashes:
the candidate join below, with every row a candidate.  Other key types,
three or more views and hash collisions keep the exact ``dict`` join.

The pair queries (:func:`distinct_count`, :func:`l1_distance`,
:func:`max_dominance`) build no outcome batch, and most pairs take the
*candidate join*.  The instances are seeded independently, so a key
both views retain passes each view's own retention rule.  When both
views are *self-selected* (every key a view holds passes its rule, a
memoised check), the matches are looked for only among the first
view's keys that the second view's rule could keep at its largest
value: about one key in twenty under weight-oblivious ranks at
``p = 0.05``.  Any other pair takes the full join; both find the same
matches, and every per-row term and the union row order are the
same.  A key both views retain is sampled in both and needs no seed;
a key one view retains needs only the other view's seed, as the
seed-selected test or the PPS seed bound.

The multi-instance estimators assume instances were sampled
*independently*; sketches built from a ``coordinated=True`` seed assigner
(shared seeds across instances) are rejected here, because the same
formulas silently return biased numbers under coordination.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from typing import NamedTuple

import numpy as np

from repro.aggregates.dataset import KeyPredicate, MultiInstanceDataset
from repro.aggregates.distinct import (
    CATEGORY_NAMES,
    DistinctCountEstimate,
    distinct_estimate,
)
from repro._validation import check_positive_vector
from repro.batch.kernels import pps_max_r2_kernel, pps_one_sampled
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.estimator_base import VectorEstimator
from repro.exceptions import InvalidParameterError
from repro.sampling.outcomes import VectorOutcome
from repro.sampling.ranks import PpsRanks, RankFamily, UniformRanks
from repro.sampling.seeds import SeedAssigner, hash_key_column, uniform_selected
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson, _keeps

__all__ = [
    "SketchColumns",
    "StreamingDominanceEstimate",
    "dataset_view",
    "distinct_count",
    "inclusion_probabilities",
    "l1_distance",
    "max_dominance",
    "outcome_batch",
    "rank_conditioning_total",
    "sum_aggregate",
    "vector_outcomes",
]


def _in_sorted(hashes: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Mask of the ``hashes`` found in the sorted array ``pool``."""
    if not pool.size:
        return np.zeros(hashes.shape, dtype=bool)
    slots = np.minimum(np.searchsorted(pool, hashes), pool.size - 1)
    return pool[slots] == hashes


def _memoised(method):
    """A read-only attribute computed by ``method`` on first use and kept
    in the instance ``__dict__``.

    :func:`functools.cached_property` on Python 3.11 takes one lock per
    attribute shared by every instance, which would serialise concurrent
    queries over different views.  Here two threads may both compute a
    first value; ``setdefault`` keeps one, so every reader sees the same
    object.
    """
    name = method.__name__

    def get(self):
        memo = self.__dict__
        try:
            return memo[name]
        except KeyError:
            return memo.setdefault(name, method(self))

    return property(get, doc=method.__doc__)


@dataclass(frozen=True, eq=False)
class SketchColumns:
    """Immutable columnar view of one Poisson sketch.

    The sketch's configuration plus three aligned columns: ``keys`` in
    retention (insertion) order, their :func:`key_hashes` and their
    accumulated ``values``.  ``canonical`` says whether equal keys of
    this and another canonical view always share a hash
    (:func:`~repro.sampling.seeds.hash_key_column`); only :meth:`of`,
    which hashes the keys, sets it, and a view built directly keeps the
    always exact ``False``.  ``shard_marks`` are the
    :meth:`~StreamingPoisson.mark` of each shard sketch the view's rows
    come from, in turn, their row counts the shard boundaries, when
    :meth:`after` can rebuild the view from them (else ``None``).
    Every array, including the lazily memoised :attr:`join_index`, is
    read-only, so one view can be shared by any number of concurrent
    queries.
    """

    instance: object
    threshold: float
    rank_family: RankFamily
    seed_assigner: SeedAssigner
    keys: tuple
    hashes: np.ndarray
    values: np.ndarray
    canonical: bool = field(default=False, init=False, repr=False)
    shard_marks: tuple[tuple[int, int], ...] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not len(self.keys) == len(self.hashes) == len(self.values):
            raise InvalidParameterError(
                "keys, hashes and values must be aligned columns"
            )
        self.hashes.flags.writeable = False
        self.values.flags.writeable = False

    @_memoised
    def join_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(order, sorted hashes)`` for the sorted-hash pair join, or
        ``None`` when a hash match cannot stand for a key match here: the
        view is not canonical, or two of its keys share a hash."""
        if not self.canonical:
            return None
        order = np.argsort(self.hashes)
        ordered = self.hashes[order]
        if np.any(ordered[1:] == ordered[:-1]):
            return None
        order.flags.writeable = ordered.flags.writeable = False
        return order, ordered

    @_memoised
    def self_selected(self) -> bool:
        """Whether the view's own retention rule accounts for every key
        it holds, so a pair join may look for the keys both views
        retain among the keys that rule could keep (:func:`_pair_join`).

        The view must have a :attr:`join_index` and PPS or
        weight-oblivious ranks, and each key's rank at its value, from
        the seed its hash gives, must pass the threshold as the sketch
        compares it (:func:`~repro.streaming.sketch._keeps`).  A restored rank
        column that is not the keys' seeds, or a NaN or zero value,
        fails.
        """
        family = type(self.rank_family)
        if self.join_index is None or family not in (UniformRanks, PpsRanks):
            return False
        return self._passes(self.hashes, self.values)

    def _passes(self, hashes: np.ndarray, values: np.ndarray) -> bool:
        """Whether every key with these hashes passes the view's rank
        test at these values (see :attr:`self_selected`)."""
        seeds = self.seed_assigner.seeds_from_hashes(hashes, self.instance)
        ranks = self.rank_family.rank(values, seeds)
        return bool(np.all(_keeps(ranks, self.threshold, self.rank_family)))

    @_memoised
    def int_span(self) -> tuple[int, int] | None:
        """The least and the largest key of a canonical view of int
        keys, or ``None``: a view of ``str`` keys, an empty view, or one
        that is not canonical."""
        if not (self.canonical and self.keys) or isinstance(self.keys[0], str):
            return None
        return int(min(self.keys)), int(max(self.keys))

    @classmethod
    def of(
        cls,
        sketch: StreamingPoisson | SketchColumns,
        shards: Sequence[StreamingPoisson] | None = None,
    ) -> SketchColumns:
        """The view of ``sketch``; a view is returned as is.

        ``shards`` are the sketches ``sketch`` is the merge of, in merge
        order.  A canonical view of shards that share no key records
        their :attr:`shard_marks`: the merge lists each shard's keys in
        turn (:func:`~repro.streaming.merge.merge_poisson`).
        """
        if isinstance(sketch, cls):
            return sketch
        if not isinstance(sketch, StreamingPoisson):
            raise InvalidParameterError(
                "multi-instance queries take Poisson sketches, got "
                f"{type(sketch).__name__}"
            )
        entries = sketch.entries
        keys = tuple(entries)
        hashes, canonical = hash_key_column(keys)
        view = cls(
            instance=sketch.instance,
            threshold=sketch.threshold,
            rank_family=sketch.rank_family,
            seed_assigner=sketch.seed_assigner,
            keys=keys,
            hashes=hashes,
            values=np.fromiter(
                entries.values(), dtype=np.float64, count=len(keys)
            ),
        )
        object.__setattr__(view, "canonical", canonical)
        if canonical and shards is not None and sum(map(len, shards)) == len(keys):
            object.__setattr__(
                view, "shard_marks", tuple(shard.mark() for shard in shards)
            )
        return view

    def after(self, shards: Sequence[StreamingPoisson]) -> SketchColumns | None:
        """The view of the merge of ``shards``, the sketches this view
        recorded the :attr:`shard_marks` of, as they are now; ``None``
        when it recorded none or a new key would make the view not
        canonical (its key types differ).

        Each shard says what changed since its mark
        (:meth:`~StreamingPoisson.changes_since`): its new keys go after
        its rows here, and only they are hashed; its values are read
        again only when a retained one moved.  What this view memoised
        carries forward: the new hashes are merged into the sorted
        :attr:`join_index`, :attr:`self_selected` ranks only the new keys
        of shards whose values moved (a key appended to another shard
        passed that test at the value it still has, and a retained key's
        rank only falls as its value grows), and :attr:`int_span` is
        widened.  The result
        equals :meth:`of` of the merged sketch field for field, and is
        this view when no shard changed.
        """
        marks = self.shard_marks
        if marks is None:
            return None
        changes = [
            shard.changes_since(mark) for shard, mark in zip(shards, marks)
        ]
        if not any(keys or moved for keys, _, moved in changes):
            return self
        new_keys = list(chain.from_iterable(keys for keys, _, _ in changes))
        new_hashes, canonical = hash_key_column(new_keys)
        if not canonical or (
            new_keys
            and self.keys
            and (type(new_keys[0]) is str) != (type(self.keys[0]) is str)
        ):
            return None
        counts = [count for count, _ in marks]
        sizes = [len(keys) for keys, _, _ in changes]
        moved = [shard_moved for _, _, shard_moved in changes]
        ends = list(accumulate(counts))
        at = np.repeat(ends, sizes)  # the row of this view each new key goes before
        new_values = np.concatenate(
            [values[len(values) - n :] for (_, values, _), n in zip(changes, sizes)]
        )
        values = np.insert(self.values, at, new_values)
        start = 0
        for count, (shard_keys, shard_values, shard_moved) in zip(counts, changes):
            if shard_moved:
                values[start : start + len(shard_values)] = shard_values
            start += count + len(shard_keys)
        keys = list(self.keys)
        for end, (shard_keys, _, _) in zip(ends[::-1], changes[::-1]):
            keys[end:end] = shard_keys  # back to front: the ends stay put
        view = SketchColumns(
            instance=self.instance,
            threshold=self.threshold,
            rank_family=self.rank_family,
            seed_assigner=self.seed_assigner,
            keys=tuple(keys),
            hashes=np.insert(self.hashes, at, new_hashes),
            values=values,
        )
        object.__setattr__(view, "canonical", True)
        object.__setattr__(
            view, "shard_marks", tuple(shard.mark() for shard in shards)
        )
        # a copy: a query may be filling this view's memo meanwhile
        memo, carried = dict(self.__dict__), view.__dict__
        if "join_index" in memo:
            index = memo["join_index"]
            if index is not None and new_keys:
                by_hash = np.argsort(new_hashes)
                ordered_new = new_hashes[by_hash]
                order, ordered = index
                if np.any(ordered_new[1:] == ordered_new[:-1]) or np.any(
                    _in_sorted(ordered_new, ordered)
                ):
                    index = None
                else:
                    slots = np.searchsorted(ordered, ordered_new)
                    # a row moves down by the new keys of the shards before its own
                    before = np.cumsum(sizes) - sizes
                    order = order + np.repeat(before, counts)[order]
                    rows = at + np.arange(len(new_keys))
                    order = np.insert(order, slots, rows[by_hash])
                    ordered = np.insert(ordered, slots, ordered_new)
                    order.flags.writeable = ordered.flags.writeable = False
                    index = order, ordered
            carried["join_index"] = index
        if "self_selected" in memo:
            if memo["self_selected"]:
                # a key a shard appended passed this rank test at its value
                # then, which only a move changes (a merge replaces the
                # shard and may append keys that fail)
                tested = np.repeat(moved, sizes)
                carried["self_selected"] = carried["join_index"] is not None and (
                    not tested.any()
                    or self._passes(new_hashes[tested], new_values[tested])
                )
            elif not any(moved):
                # the key that failed still fails at the same value
                carried["self_selected"] = False
        if "int_span" in memo:
            span = memo["int_span"]
            if span is not None and new_keys:
                span = (
                    min(span[0], int(min(new_keys))),
                    max(span[1], int(max(new_keys))),
                )
            # a view of str keys keeps None; an empty view's span waits
            if span is not None or self.keys:
                carried["int_span"] = span
        return view


def inclusion_probabilities(view: SketchColumns) -> float | np.ndarray:
    """The Poisson inclusion probability of each of ``view``'s keys, as
    :meth:`StreamingPoisson.to_sample` gives it: the threshold itself
    under weight-oblivious ranks, else the rank family's ``cdf`` of the
    key's value at the threshold."""
    if isinstance(view.rank_family, UniformRanks):
        return view.threshold
    return view.rank_family.cdf(view.values, view.threshold)


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


def _same_keys(
    first: SketchColumns,
    mine: np.ndarray,
    second: SketchColumns,
    theirs: np.ndarray,
) -> bool:
    """Whether ``first``'s keys at rows ``mine`` equal ``second``'s at
    rows ``theirs``, pair by pair, where their hashes do.

    An int key hashes as SplitMix64, a bijection, of its value modulo
    ``2**64`` (:func:`~repro.sampling.seeds.hash_key_column`), so two
    int keys with equal hashes are equal unless they differ by a
    multiple of ``2**64`` (``-1`` and ``2**64 - 1``).  When the keys of
    both views lie in one window narrower than that
    (:attr:`SketchColumns.int_span`), the hashes prove the match.
    """
    span1, span2 = first.int_span, second.int_span
    if span1 is not None and span2 is not None:
        if max(span1[1], span2[1]) - min(span1[0], span2[0]) < 1 << 64:
            return True
    keys1, keys2 = first.keys, second.keys
    return [keys1[row] for row in mine.tolist()] == [
        keys2[row] for row in theirs.tolist()
    ]


def _dict_rows(index: dict, view: SketchColumns) -> np.ndarray:
    """The row ``index`` maps each of ``view``'s keys to (``-1`` when
    absent): the exact join, by key equality."""
    return np.fromiter(
        map(index.get, view.keys, repeat(-1)),
        dtype=np.intp,
        count=len(view.keys),
    )


def _join_rows(first: SketchColumns, second: SketchColumns) -> np.ndarray:
    """The row of each of ``second``'s keys among ``first``'s (``-1``
    when absent).

    When both views have a :attr:`SketchColumns.join_index`, every row
    of ``first`` is a candidate of :func:`_candidate_matches`.  A view
    without one may hold equal keys under different hashes, and a match
    of unequal keys is a hash collision; both leave the join to the
    exact dict join.  Both give the same rows.
    """
    matches = None
    if first.join_index is not None and second.join_index is not None:
        matches = _candidate_matches(first, second)
    if matches is None:
        return _dict_rows(dict(zip(first.keys, range(len(first.keys)))), second)
    mine, theirs = matches
    rows = np.full(len(second.keys), -1, dtype=np.intp)
    rows[theirs] = mine
    return rows


def _seed_selected(view: SketchColumns, hashes: np.ndarray) -> np.ndarray:
    """Whether ``view``'s seed of each key with these hashes is at most
    its threshold: the engine plan's test
    (:func:`~repro.sampling.seeds.uniform_selected` on the mixed
    ``uint64`` values), the same answer as ``seeds <= threshold``
    without building the seeds."""
    mixed = view.seed_assigner._mix(hashes, view.instance)
    return uniform_selected(mixed, view.threshold)


def _seed_cap(view: SketchColumns) -> float:
    """A seed bound of a PPS ``view``: every key a
    :attr:`~SketchColumns.self_selected` view holds has its seed ``u``
    at most this.

    Such a key passed ``u / max(v, 1e-300) < t``.  The division is
    correctly rounded and ``t`` is a float, so the exact quotient is
    below ``t`` too.  So ``u`` is below the exact ``t * max(v, 1e-300)``,
    which is at most ``t * max(vmax, 1e-300)`` for the view's largest
    value ``vmax``, and a float below a real number is at most that
    number's correct rounding, the product computed here.
    """
    top = view.values.max(initial=0.0)
    return view.threshold * max(top, 1e-300)


def _candidate_matches(
    first: SketchColumns,
    second: SketchColumns,
    candidates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The matched row pairs of two views, looked for only among
    ``first``'s ``candidates`` rows (all of them when ``None``):
    ``(mine, theirs)``, or ``None`` when a hash match joins unequal keys
    (a collision).

    The candidates' hashes are sorted (every row's sort order is
    ``first``'s memoised :attr:`SketchColumns.join_index`), then found
    in ``second``'s sorted hashes (its ``join_index``, one row per hash).
    """
    order2, sorted2 = second.join_index
    if candidates is None:
        rows = np.arange(len(first.keys))
        by_hash, ordered = first.join_index
    else:
        rows = np.flatnonzero(candidates)
        hashes = first.hashes[rows]
        by_hash = np.argsort(hashes)
        ordered = hashes[by_hash]
    if not (rows.size and sorted2.size):
        return rows[:0], rows[:0]
    at = np.searchsorted(sorted2, ordered)
    np.minimum(at, sorted2.size - 1, out=at)
    hit = sorted2[at] == ordered
    mine, theirs = rows[by_hash[hit]], order2[at[hit]]
    if mine.size and not _same_keys(first, mine, second, theirs):
        return None
    return mine, theirs


class _PairJoin(NamedTuple):
    """The join of two views as the rows of their union, in union order:
    ``first``'s rows ``rows1``, then ``second``'s rows ``only2``.

    ``mine``/``theirs`` pair each of ``first``'s union rows whose key
    ``second`` retains with ``second``'s row of it, in no set order.
    ``rows1`` is ``slice(None)`` unless a predicate drops some of
    ``first``'s keys; ``only2`` masks ``second``'s keys that ``first``
    does not retain and the predicate accepts.
    """

    rows1: slice | np.ndarray
    mine: np.ndarray
    theirs: np.ndarray
    only2: np.ndarray

    def positions(self) -> np.ndarray:
        """The union row of each of ``mine``."""
        if isinstance(self.rows1, slice):
            return self.mine
        return np.searchsorted(self.rows1, self.mine)


def _pair_views(
    sketch1: StreamingPoisson | SketchColumns,
    sketch2: StreamingPoisson | SketchColumns,
) -> tuple[SketchColumns, SketchColumns]:
    _check_family((sketch1, sketch2))
    return SketchColumns.of(sketch1), SketchColumns.of(sketch2)


def _pair_join(
    first: SketchColumns,
    second: SketchColumns,
    predicate: KeyPredicate | None,
    candidates: np.ndarray,
) -> _PairJoin:
    """The two views' join as :class:`_PairJoin`, restricted to the
    union keys ``predicate`` accepts.

    ``candidates`` masks ``first``'s rows that ``second``'s retention
    rule could keep, applied to ``second``'s seed of each key at
    ``second``'s largest value: the rows ``second``'s seed selects under
    weight-oblivious ranks (:func:`_seed_selected`), the rows whose
    seed is at most :func:`_seed_cap` under PPS ranks.  When both views
    are :attr:`~SketchColumns.self_selected`, every key both retain is
    among them, so only they are looked for in ``second``
    (:func:`_candidate_matches`).  Any other pair, and a candidate match
    of unequal keys, takes the full join, :func:`_join_rows`: the same
    search with every row of ``first`` a candidate, or the dict join.
    All find the same matches.
    """
    matches = None
    if first.self_selected and second.self_selected:
        matches = _candidate_matches(first, second, candidates)
    if matches is None:
        rows = _join_rows(first, second)
        theirs = np.flatnonzero(rows >= 0)
        matches = rows[theirs], theirs
    mine, theirs = matches
    if predicate is None:
        only2 = np.ones(len(second.keys), dtype=bool)
        only2[theirs] = False
        return _PairJoin(slice(None), mine, theirs, only2)
    # a key both views retain is first's row, kept or dropped by its key
    accepted = _accepted(first, predicate)
    only2 = _accepted(second, predicate)
    only2[theirs] = False
    kept = accepted[mine]
    return _PairJoin(np.flatnonzero(accepted), mine[kept], theirs[kept], only2)


def _accepted(view: SketchColumns, predicate: KeyPredicate) -> np.ndarray:
    return np.fromiter(
        map(predicate, view.keys), dtype=bool, count=len(view.keys)
    )


def _outcome_columns(
    sketches: Sequence[StreamingPoisson | SketchColumns],
    predicate: KeyPredicate | None,
    include_seeds: bool,
    with_keys: bool = False,
) -> tuple[list[object] | None, np.ndarray, OutcomeBatch]:
    """:func:`outcome_batch` plus the ``(n, r)`` retained-membership mask.

    One join over the sketches' :class:`SketchColumns`: the union rows
    are the first view's keys, then each further view's new keys in its
    own order.  A pair of views is joined by :func:`_join_rows`, the
    join the pair queries read; three or more views take one
    ``dict.get`` pass per further view.  The union hashes are the views'
    hashes at their new rows, so no key is hashed here.  The union key
    list is built only for a predicate or when ``with_keys`` asks for it
    (else ``None``).

    The ``(n, r)`` arrays are column-major (``order="F"``): each view's
    column is one contiguous 1-D array, written through integer rows,
    which costs a fraction of a strided write into a row-major array.
    """
    _check_family(sketches)
    views = [SketchColumns.of(sketch) for sketch in sketches]
    first = views[0]
    n = len(first.keys)
    need_keys = with_keys or predicate is not None
    keys = list(first.keys) if need_keys else None
    index = dict(zip(first.keys, range(n))) if len(views) > 2 else None
    positions: list[slice | np.ndarray] = [slice(0, n)]
    hash_parts = [first.hashes]
    for number, view in enumerate(views[1:], start=2):
        rows = _join_rows(first, view) if index is None else _dict_rows(index, view)
        new = rows < 0
        added = int(np.count_nonzero(new))
        rows[new] = np.arange(n, n + added)
        positions.append(rows)
        hash_parts.append(view.hashes[new])
        more = number < len(views)
        if need_keys or more:
            new_keys = list(compress(view.keys, new.tolist()))
            if keys is not None:
                keys.extend(new_keys)
            if more:
                # later views find keys first retained here
                index.update(zip(new_keys, range(n, n + added)))
        n += added
    hashes = np.concatenate(hash_parts)
    r = len(views)
    # Membership mask, not a value sentinel: a retained entry whose
    # accumulated value is NaN must stay sampled (and propagate NaN
    # loudly) rather than be reclassified as unretained.
    retained = np.zeros((n, r), dtype=bool, order="F")
    values = np.zeros((n, r), dtype=np.float64, order="F")
    seeds = (
        np.empty((n, r), dtype=np.float64, order="F") if include_seeds else None
    )
    for column, (view, rows) in enumerate(zip(views, positions)):
        retained[:, column][rows] = True
        values[:, column][rows] = view.values
    sampled = retained.copy(order="F")
    for column, view in enumerate(views):
        oblivious = isinstance(view.rank_family, UniformRanks)
        if not (include_seeds or oblivious):
            continue
        seed_column = view.seed_assigner.seeds_from_hashes(
            hashes, instance=view.instance
        )
        if seeds is not None:
            seeds[:, column] = seed_column
        if oblivious:
            # a seed-selected but unretained key was observed to be zero
            sampled[:, column] |= seed_column <= view.threshold
    if predicate is not None:
        keep = np.fromiter(map(predicate, keys), dtype=bool, count=n)
        keys = list(compress(keys, keep.tolist()))
        retained, values, sampled, seeds = (
            None if array is None else np.asfortranarray(array[keep])
            for array in (retained, values, sampled, seeds)
        )
    batch = OutcomeBatch(values=values, sampled=sampled, seeds=seeds)
    return keys, retained, batch


def outcome_batch(
    sketches: Sequence[StreamingPoisson | SketchColumns],
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
    keys, _, batch = _outcome_columns(
        sketches, predicate, include_seeds, with_keys=True
    )
    return keys, batch


def vector_outcomes(
    sketches: Sequence[StreamingPoisson | SketchColumns],
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
    sketches: Sequence[StreamingPoisson | SketchColumns],
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
    _, _, batch = _outcome_columns(sketches, predicate, include_seeds)
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
    sketch1: StreamingPoisson | SketchColumns,
    sketch2: StreamingPoisson | SketchColumns,
    variant: str = "l",
    predicate: KeyPredicate | None = None,
) -> DistinctCountEstimate:
    """Distinct count of two instances from weight-oblivious sketches.

    The Section 8.1 estimators with the sketch thresholds as inclusion
    probabilities and the shared seed assigner as the seed oracle.  The
    five key categories are counted from the join: ``F11`` is retained
    by both sketches; a key retained by one sketch only is
    ``F10``/``F01`` when the other sketch seed-selected it (observed
    absent there) and ``F1?``/``F?1`` otherwise.  The seed tests run on
    the mixed hashes (:func:`_seed_selected`), and the keys of the first
    sketch the second selects are the join's candidates.
    """
    _check_independent((sketch1, sketch2), "distinct_count")
    p1 = _check_uniform(sketch1, "distinct_count")
    p2 = _check_uniform(sketch2, "distinct_count")
    first, second = _pair_views(sketch1, sketch2)
    seen1 = _seed_selected(second, first.hashes)
    join = _pair_join(first, second, predicate, seen1)
    both = len(join.mine)
    selected1 = seen1[join.rows1]
    seen_only1 = int(np.count_nonzero(selected1)) - int(
        np.count_nonzero(seen1[join.mine])
    )
    seen_only2 = int(
        np.count_nonzero(_seed_selected(first, second.hashes) & join.only2)
    )
    counts = dict(
        zip(
            CATEGORY_NAMES,
            (
                both,
                len(selected1) - both - seen_only1,
                seen_only1,
                int(np.count_nonzero(join.only2)) - seen_only2,
                seen_only2,
            ),
        )
    )
    return distinct_estimate(counts, p1, p2, variant)


def l1_distance(
    sketch1: StreamingPoisson | SketchColumns,
    sketch2: StreamingPoisson | SketchColumns,
    predicate: KeyPredicate | None = None,
) -> float:
    """HT estimate of the L1 distance from weight-oblivious sketches.

    A key contributes ``|v_1 - v_2| / (p_1 p_2)`` when sampled in both
    instances — the streaming counterpart of
    :func:`repro.aggregates.distance.l1_distance_ht`.  A key that is
    seed-selected but not retained by a sketch was observed to be zero
    there, so keys of one instance seed-selected by the other contribute
    their full value.  Terms are computed on those keys only, in union
    order.
    """
    _check_independent((sketch1, sketch2), "l1_distance")
    p1 = _check_uniform(sketch1, "l1_distance")
    p2 = _check_uniform(sketch2, "l1_distance")
    first, second = _pair_views(sketch1, sketch2)
    seen1 = _seed_selected(second, first.hashes)
    join = _pair_join(first, second, predicate, seen1)
    # first's union rows second sampled: retained there, or seed-selected
    # and so an observed zero
    seen1[join.mine] = True
    rows = np.flatnonzero(seen1[join.rows1])
    values2 = np.zeros(rows.size, dtype=np.float64)
    values2[np.searchsorted(rows, join.positions())] = second.values[join.theirs]
    only2 = _seed_selected(first, second.hashes) & join.only2
    terms = np.concatenate(
        (
            np.abs(first.values[join.rows1][rows] - values2),
            np.abs(second.values[only2]),
        )
    ) / (p1 * p2)
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
    sketch1: StreamingPoisson | SketchColumns,
    sketch2: StreamingPoisson | SketchColumns,
    predicate: KeyPredicate | None = None,
) -> StreamingDominanceEstimate:
    """Max-dominance norm of two instances from PPS sketches (Section 8.2).

    A PPS sketch with threshold ``tau`` samples key ``h`` iff
    ``u(h) / v(h) < tau``, i.e. it is Poisson PPS sampling with
    ``tau_star = 1 / tau`` — the scheme the ``max^(HT)`` / ``max^(L)``
    known-seed estimators are derived for.

    The determining vector of every union key is written straight
    from the join, in union order: a key both sketches retain is its
    value pair, and a key one sketch retains pairs its value with the
    other sketch's seed bound
    (:func:`~repro.batch.kernels.pps_one_sampled`).  The second
    sketch's seeds of all the first's keys give those bounds and the
    join's candidates.  One
    :func:`~repro.batch.kernels.pps_max_r2_kernel` call scores both
    estimators.
    """
    _check_independent((sketch1, sketch2), "max_dominance")
    for sketch in (sketch1, sketch2):
        if not isinstance(sketch.rank_family, PpsRanks):
            raise InvalidParameterError(
                "max_dominance requires PPS (PpsRanks) sketches; "
                f"got {sketch.rank_family.name} ranks"
            )
    tau1, tau2 = check_positive_vector(
        (1.0 / sketch1.threshold, 1.0 / sketch2.threshold), "tau_star"
    )
    first, second = _pair_views(sketch1, sketch2)
    # second's seeds of first's keys: the seed bounds of the keys only
    # first retains, and the join's candidates
    seeds2 = second.seed_assigner.seeds_from_hashes(
        first.hashes, instance=second.instance
    )
    join = _pair_join(first, second, predicate, seeds2 <= _seed_cap(second))
    values1 = first.values[join.rows1]
    rows2 = np.flatnonzero(join.only2)
    values2 = second.values[rows2]
    n1 = values1.size
    phi1 = np.empty(n1 + values2.size, dtype=np.float64)
    phi2 = np.empty_like(phi1)
    known = np.empty(phi1.size, dtype=bool)
    phi1[:n1] = values1
    phi2[:n1], known[:n1] = pps_one_sampled(values1, seeds2[join.rows1] * tau2)
    # both sampled where second retains the key
    at = join.positions()
    phi2[at] = second.values[join.theirs]
    known[at] = True
    seeds1 = first.seed_assigner.seeds_from_hashes(
        second.hashes[rows2], instance=first.instance
    )
    phi1[n1:], known[n1:] = pps_one_sampled(values2, seeds1 * tau1)
    phi2[n1:] = values2
    ht, max_l = pps_max_r2_kernel(phi1, phi2, known, tau1, tau2)
    return StreamingDominanceEstimate(
        ht=float(ht.sum()), l=float(max_l.sum()), n_sampled_keys=len(ht)
    )
