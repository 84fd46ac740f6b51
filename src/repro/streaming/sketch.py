"""Streaming coordinated sketches of single instances.

The offline pipeline materialises every instance as a ``{key: value}``
mapping before sampling it.  The sketches here maintain the *same* summaries
incrementally over an unbounded stream of ``(key, value)`` updates:

:class:`StreamingBottomK`
    A heap-backed bottom-k sketch.  It keeps the ``k + 1`` keys of smallest
    rank seen so far (the sample plus the threshold candidate), so for any
    prefix of the stream its :meth:`~StreamingBottomK.to_sample` equals the
    offline :func:`repro.sampling.bottomk.bottom_k_sample` of the
    accumulated data — entries, ranks and threshold — under the same seed
    assignment.  Per-update cost is O(log k).

:class:`StreamingPoisson`
    A Poisson-``tau`` sketch: it retains exactly the keys whose rank is
    below the fixed threshold, for any of the rank families (PPS,
    exponential, or the weight-oblivious :class:`UniformRanks`).

Both sketches draw seeds from a :class:`repro.sampling.seeds.SeedAssigner`,
so sketches of different instances built from a ``coordinated=True``
assigner share per-key seeds exactly like the offline coordinated samples,
and sketches are deterministic functions of the accumulated data — the
property that makes them mergeable (see :mod:`repro.streaming.merge`).

Bulk columns of updates go through :meth:`_StreamingSketch.update_many`:
the column is hashed, seeded and ranked in one vectorised pass, then
:meth:`_StreamingSketch._apply_ranked` folds it chunk by chunk (the
sharding engine ranks a whole batch once and hands each shard's sketch
its ranked slice there directly).  One rule filters the rows of a
weight-oblivious Poisson column of canonical keys before they are
seeded: :func:`_settle_failing`, which the engine plan and
:meth:`StreamingPoisson.update_many` share, counts a row whose seed
fails as one discarded key, since it cannot change the sketch.  Every
other Poisson row, and every row of a weighted (PPS or exponential)
Poisson sketch, runs the exact per-row loop, in row order.  A bottom-k
chunk of distinct, not yet retained keys folds with one
``argpartition``, the heap rebuilt only at chunk boundaries.  Both the
filter and the fold find equal keys by equal hashes, which only
canonical keys guarantee (see :func:`repro.sampling.seeds.hash_key_column`:
``1 == 1.0`` hash apart); other columns, and bottom-k chunks with
repeats, replays or a rank tie at the cutoff, take the per-row loop.
Either way the sketch ends identical to a sequence of scalar
:meth:`update` calls — entry order and discard counter included, so
snapshots match byte for byte.

Update semantics are *additive*: repeated updates of a key accumulate.
Because ranks are nonincreasing in the value for every rank family, a key
that is retained by the sketch stays retained as its value grows, and its
rank is recomputed exactly from the accumulated total.  The sketch is exact
whenever each key's total arrives while the key is retained (in particular
when each key appears once per stream, the pre-aggregated model used by the
equivalence tests); only a key that was evicted and later reappears loses
its earlier mass.  :attr:`n_discarded_keys` counts evictions so callers can
detect the approximate regime.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import count, islice

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sampling.bottomk import BottomKSample
from repro.sampling.poisson import PoissonSample
from repro.sampling.ranks import (
    ExpRanks,
    RankFamily,
    UniformRanks,
    rank_family_from_name,
)
from repro.sampling.seeds import (
    SeedAssigner,
    canonical_kinds,
    hash_key_column,
    key_hashes,
    uniform_from_uint64,
    uniform_selected,
)

__all__ = ["StreamingBottomK", "StreamingPoisson", "sketch_from_state"]

#: rows per fold of :meth:`_StreamingSketch._apply_ranked`
_CHUNK_SIZE = 16384

#: value revisions of :class:`StreamingPoisson`: a sketch takes a new one
#: when it is built and whenever a retained key's value moves, so no two
#: sketches, and no two sets of retained values of one sketch, share one
_REVISIONS = count()


def _keeps(ranks, threshold: float, rank_family: RankFamily):
    """Whether a rank (or each of an array of ranks) passes a Poisson
    ``threshold``.

    Offline weight-oblivious sampling is inclusive (``seed <= p``),
    weighted sampling strict (``rank < tau``); a sketch and every view
    of it mirror both exactly.
    """
    if isinstance(rank_family, UniformRanks):
        return ranks <= threshold
    return ranks < threshold


def _validate_values(values: np.ndarray) -> None:
    """Reject non-finite or negative values in one vectorised pass.

    NaN fails every ordering comparison, so ``values.min() < 0`` alone
    would wave NaN (and infinities) through into the rank computation and
    silently break the sketch heap invariants.
    """
    if not values.size:
        return
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise InvalidParameterError(
            f"update values must be finite, got {float(values[bad])!r} at row {bad}"
        )
    if float(values.min()) < 0.0:
        raise InvalidParameterError("values must be nonnegative")


class _StreamingSketch:
    """State shared by the streaming sketches: seeds, counters, batching."""

    def __init__(
        self,
        instance: object,
        rank_family: RankFamily | None,
        seed_assigner: SeedAssigner | None,
    ) -> None:
        self.instance = instance
        self.rank_family = rank_family if rank_family is not None else ExpRanks()
        self.seed_assigner = (
            seed_assigner if seed_assigner is not None else SeedAssigner()
        )
        #: number of updates ingested (including rejected ones)
        self.n_updates = 0
        #: number of retained keys evicted/rejected after carrying positive
        #: value — when zero, the sketch is exact for the accumulated data
        self.n_discarded_keys = 0

    def _rank(self, value: float, seed: float) -> float:
        return float(self.rank_family.rank(value, seed))

    def update(self, key: object, value: float) -> None:
        """Ingest a single ``(key, value)`` update."""
        value = float(value)
        # ``value < 0`` is False for NaN, so check finiteness explicitly:
        # a NaN rank would break every heap comparison downstream.
        if value != value or value in (float("inf"), float("-inf")):
            raise InvalidParameterError(
                f"update values must be finite, got {value!r}"
            )
        if value < 0.0:
            raise InvalidParameterError("values must be nonnegative")
        self.n_updates += 1
        if value == 0.0:
            return
        seed = float(self.seed_assigner.seed(key, instance=self.instance))
        self._ingest(key, value, seed)

    def extend(self, stream: Iterable[tuple[object, float]]) -> None:
        """Ingest an iterable of ``(key, value)`` updates."""
        for key, value in stream:
            self.update(key, value)

    def update_many(
        self,
        keys: Sequence[object],
        values,
        chunk_size: int = _CHUNK_SIZE,
    ) -> None:
        """Chunked NumPy fast path over parallel ``keys`` / ``values``
        columns.

        The column is validated, hashed, seeded and ranked in one
        vectorised pass (of a weight-oblivious Poisson column, only the
        rows that can change the sketch are seeded: see
        :meth:`_ranked_rows`), then folded chunk by chunk by
        :meth:`_apply_ranked`.
        """
        if chunk_size <= 0:
            raise InvalidParameterError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        if not isinstance(keys, np.ndarray):
            # a NumPy key column stays an array: chunk slices below are
            # views, and the vectorised hash path can consume it directly
            keys = list(keys)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(keys),):
            raise InvalidParameterError(
                "keys and values must have matching length"
            )
        # Validate the whole column up front so a bad value in a late
        # chunk cannot leave the sketch partially updated.
        _validate_values(values)
        hashes, canonical = hash_key_column(keys)
        keys, values, hashes, seeds, ranks = self._ranked_rows(
            keys, values, hashes, canonical
        )
        self._apply_ranked(
            keys, values, seeds, ranks, hashes, canonical, chunk_size
        )

    def _ranked_rows(self, keys, values, hashes, canonical: bool) -> tuple:
        """``(keys, values, hashes, seeds, ranks)`` of the rows of a
        checked column that :meth:`_apply_ranked` folds: here every
        row."""
        return (keys, values, hashes, *self._rank_column(hashes, values))

    def _rank_column(
        self, hashes: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Seeds and ranks of keys with these hashes and ``values``,
        under this sketch's seed assigner, instance and rank family."""
        seeds = self.seed_assigner.seeds_from_hashes(
            hashes, instance=self.instance
        )
        ranks = np.asarray(self.rank_family.rank(values, seeds), dtype=float)
        return seeds, ranks

    def _apply_ranked(
        self, keys, values, seeds, ranks, hashes, canonical: bool,
        chunk_size: int = _CHUNK_SIZE,
    ) -> None:
        """Fold validated, hashed, seeded and ranked columns, one chunk of
        ``chunk_size`` rows at a time.

        A bottom-k chunk goes to :meth:`_fold`, which folds it with
        array operations when it can.  The fold needs hash equality to
        find equal keys, so it runs only when the column and the
        retained keys are canonical (``canonical``, see
        :func:`~repro.sampling.seeds.hash_key_column`).  Any other
        chunk, any chunk the fold declines, and every Poisson chunk
        take the exact per-row loop over the positive rows; a
        weight-oblivious Poisson column reaches it already filtered by
        :func:`_settle_failing`, its failing rows counted.  Either way
        the final sketch state (entries in insertion order, ranks,
        threshold, discard counter) is identical to a sequence of
        :meth:`update` calls.  ``seeds`` and ``ranks`` come from
        :meth:`_rank_column` of a sketch of this instance and
        configuration.
        """
        for start in range(0, len(keys), chunk_size):
            rows = slice(start, start + chunk_size)
            chunk_keys, chunk_values = keys[rows], values[rows]
            chunk_seeds, chunk_ranks = seeds[rows], ranks[rows]
            self.n_updates += len(chunk_values)
            if not (
                canonical
                and self._fold(
                    chunk_keys, chunk_values, chunk_seeds, chunk_ranks,
                    hashes[rows],
                )
            ):
                self._apply_rows(
                    chunk_keys, chunk_values, chunk_seeds, chunk_ranks,
                    np.flatnonzero(chunk_values > 0.0),
                )

    def _fold(self, keys, values, seeds, ranks, hashes) -> bool:
        """Fold one chunk of canonical keys with array operations; return
        False to fall back to the per-row loop, as a sketch with no
        array fold always does."""
        return False

    def _apply_rows(self, keys, values, seeds, ranks, rows) -> None:
        """Per-row reference loop over ``rows`` (positive-value row
        indices, ascending) of one ranked chunk."""
        raise NotImplementedError

    def _ingest(self, key: object, value: float, seed: float) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # State export
    # ------------------------------------------------------------------
    def _config_state(self) -> dict:
        """Configuration and counters shared by both sketch families."""
        return {
            "instance": self.instance,
            "rank_family": self.rank_family,
            "salt": self.seed_assigner.salt,
            "coordinated": self.seed_assigner.coordinated,
            "n_updates": self.n_updates,
            "n_discarded_keys": self.n_discarded_keys,
        }

    def state_dict(self) -> dict:
        """Full snapshot of the sketch state (see subclasses)."""
        raise NotImplementedError

    def _eq_state(self) -> tuple:
        """Order-insensitive view of the state used by ``__eq__``."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        """Whether two sketches carry identical snapshot state.

        Equality compares configuration, counters and the retained
        entries — values, ranks and (for bottom-k) seeds — but *not* the
        internal entry ordering, so sketches built from permutations of
        the same updates compare equal.  :meth:`state_dict` exposes the
        ordering too, for consumers (the binary codec) that need
        bit-identical continuation behaviour.
        """
        if type(other) is not type(self):
            return NotImplemented
        return self._eq_state() == other._eq_state()

    # sketches are mutable containers; equality is by state, so identity
    # hashing would break the hash invariant
    __hash__ = None


class StreamingBottomK(_StreamingSketch):
    """Streaming bottom-k sketch of one instance.

    Parameters
    ----------
    k:
        Nominal sample size; the sketch retains at most ``k + 1`` keys (the
        sample plus the threshold candidate).
    instance:
        Label of the summarised instance; part of the seed derivation.
    rank_family:
        Rank family (default :class:`ExpRanks`, i.e. weighted sampling
        without replacement).
    seed_assigner:
        Source of reproducible per-(key, instance) seeds; pass one built
        with ``coordinated=True`` to coordinate sketches across instances.

    Examples
    --------
    >>> from repro.sampling.seeds import SeedAssigner
    >>> sketch = StreamingBottomK(k=2, seed_assigner=SeedAssigner(salt=1))
    >>> sketch.extend([("a", 1.0), ("b", 2.0), ("c", 3.0)])
    >>> len(sketch.to_sample()) == 2
    True
    """

    def __init__(
        self,
        k: int,
        instance: object = 0,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
    ) -> None:
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        super().__init__(instance, rank_family, seed_assigner)
        self.k = int(k)
        # accumulated value, current rank and seed of the retained keys;
        # at most k + 1 entries at any time
        self._values: dict[object, float] = {}
        self._ranks: dict[object, float] = {}
        self._seeds: dict[object, float] = {}
        # lazy max-heap over (-rank, seq, key); seq breaks rank ties so
        # keys are never compared; entries whose rank no longer matches
        # ``_ranks`` are stale and skipped on pop
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0
        # cached largest retained rank when the sketch is full, for the O(1)
        # reject fast path; None when fewer than k + 1 keys are retained
        self._full_max: float | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _ingest(self, key: object, value: float, seed: float) -> None:
        if key in self._values:
            self._accumulate(key, value, seed)
        else:
            self._insert_new(key, value, seed, self._rank(value, seed))

    def _accumulate(self, key: object, value: float, seed: float) -> None:
        # ranks are nonincreasing in the value, so a retained key stays
        # retained; refresh its rank from the accumulated total
        total = self._values[key] + value
        rank = self._rank(total, seed)
        self._values[key] = total
        self._ranks[key] = rank
        self._push(rank, key)
        if self._full_max is not None:
            self._full_max = -self._clean_top()[0]

    def _insert_new(
        self, key: object, value: float, seed: float, rank: float
    ) -> None:
        if not np.isfinite(rank):
            return
        if self._full_max is not None and rank >= self._full_max:
            self.n_discarded_keys += 1
            return
        self._values[key] = value
        self._ranks[key] = rank
        self._seeds[key] = seed
        self._push(rank, key)
        if len(self._values) > self.k + 1:
            self._evict()
        elif len(self._values) == self.k + 1:
            self._full_max = -self._clean_top()[0]

    def _apply_rows(self, keys, values, seeds, ranks, rows) -> None:
        for i in rows.tolist():
            key = keys[i]
            if key in self._values:
                self._accumulate(key, float(values[i]), float(seeds[i]))
            else:
                self._insert_new(
                    key, float(values[i]), float(seeds[i]), float(ranks[i])
                )

    def _fold(self, keys, values, seeds, ranks, hashes) -> bool:
        """Fold a clean chunk with one ``argpartition`` instead of per-row
        heap updates.

        A chunk is clean when its keys are distinct and none is retained
        yet.  With canonical keys on both sides, distinct hashes prove
        it; repeated or colliding hashes just decline the fold.  Then,
        with no rank ties at the cutoff, the final retained set is exactly
        the ``k + 1`` smallest ranks of (retained ∪ chunk), and every other
        key dies exactly once — either rejected on arrival or evicted
        later — so the discard counter advances by ``|retained| + |chunk|
        - |final|`` no matter the arrival order.  The per-row loop would
        leave the surviving old keys in place, with their heap entries,
        and append the surviving new ones in row order, each with a fresh
        heap entry; the fold builds exactly that.  It drops the stale
        heap entries, which the loop would only skip: none can come back
        to life, since a retained key's rank only falls, and an evicted
        key returns only with a rank below the cutoff, which never rises,
        while its stale ranks were above the cutoff it was evicted at.
        """
        # Rows with non-finite rank are dropped silently, as in the
        # per-row loop (``_insert_new`` neither retains nor counts them).
        rows = np.flatnonzero((values > 0.0) & np.isfinite(ranks))
        if not rows.size:
            return True
        old_keys = list(self._values)
        retained, canonical = hash_key_column(old_keys)
        pooled = np.concatenate([retained, hashes[rows]])
        if not canonical or np.unique(pooled).size != pooled.size:
            return False
        n_old = len(old_keys)
        total = n_old + rows.size
        keep = min(self.k + 1, total)
        combined = np.concatenate(
            [
                np.fromiter(
                    (self._ranks[key] for key in old_keys),
                    dtype=float,
                    count=n_old,
                ),
                ranks[rows],
            ]
        )
        kept = np.ones(total, dtype=bool)
        if total > keep:
            order = np.argpartition(combined, keep - 1)
            if combined[order[:keep]].max() == combined[order[keep:]].min():
                # A rank tie at the cutoff is resolved by arrival order in
                # the scalar path; replay it exactly instead.
                return False
            kept[order[keep:]] = False
        new_values = {
            key: self._values[key]
            for key, survives in zip(old_keys, kept[:n_old].tolist())
            if survives
        }
        new_ranks = {key: self._ranks[key] for key in new_values}
        new_seeds = {key: self._seeds[key] for key in new_values}
        heap = [
            entry for entry in self._heap
            if new_ranks.get(entry[2]) == -entry[0]
        ]
        for row in rows[kept[n_old:]].tolist():
            key = keys[row]
            rank = float(ranks[row])
            new_values[key] = float(values[row])
            new_ranks[key] = rank
            new_seeds[key] = float(seeds[row])
            self._seq += 1
            heap.append((-rank, self._seq, key))
        heapq.heapify(heap)
        self._values, self._ranks, self._seeds = (
            new_values, new_ranks, new_seeds,
        )
        self._heap = heap
        self.n_discarded_keys += total - keep
        self._full_max = max(new_ranks.values()) if keep > self.k else None
        return True

    def _push(self, rank: float, key: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-rank, self._seq, key))

    def _clean_top(self) -> tuple[float, int, object]:
        """Pop stale heap entries and return the valid max-rank entry."""
        while True:
            neg_rank, _, key = self._heap[0]
            if self._ranks.get(key) == -neg_rank:
                return self._heap[0]
            heapq.heappop(self._heap)

    def _evict(self) -> None:
        _, _, key = self._clean_top()
        heapq.heappop(self._heap)
        del self._values[key], self._ranks[key], self._seeds[key]
        self.n_discarded_keys += 1
        self._full_max = -self._clean_top()[0]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(len(self._values), self.k)

    def __contains__(self, key: object) -> bool:
        return key in self._values and self._ranks[key] < self.threshold

    @property
    def threshold(self) -> float:
        """The ``(k + 1)``-st smallest rank seen so far (``inf`` if fewer)."""
        if len(self._values) <= self.k:
            return float("inf")
        return max(self._ranks.values())

    def candidates(self) -> dict[object, float]:
        """Accumulated values of all retained keys (sample + candidate)."""
        return dict(self._values)

    def candidate_ranks(self) -> dict[object, float]:
        """Current ranks of all retained keys."""
        return dict(self._ranks)

    def to_sample(self) -> BottomKSample:
        """Snapshot the sketch as an offline :class:`BottomKSample`.

        The result is identical — entries, ranks, threshold — to running
        :func:`repro.sampling.bottomk.bottom_k_sample` on the accumulated
        data with the same seed assignment, so every downstream estimator
        (rank conditioning, priority totals) applies unchanged.
        """
        order = sorted(self._ranks, key=self._ranks.get)[: self.k]
        return BottomKSample(
            instance=self.instance,
            entries={key: self._values[key] for key in order},
            ranks={key: self._ranks[key] for key in order},
            threshold=self.threshold,
            k=self.k,
            rank_family=self.rank_family,
            seed_assigner=self.seed_assigner,
        )

    def _entry_order(self) -> list:
        """Retained keys ordered by their effective heap position.

        The heap breaks exact rank ties by insertion sequence number, so
        the *relative* sequence order of the retained keys is part of the
        sketch's forward behaviour.  A key's effective position is the
        smallest sequence number among its non-stale heap entries; stale
        entries (rank no longer current) never influence behaviour and are
        dropped from the export.
        """
        best: dict[object, int] = {}
        for neg_rank, seq, key in self._heap:
            if self._ranks.get(key) == -neg_rank:
                current = best.get(key)
                if current is None or seq < current:
                    best[key] = seq
        ordered = sorted(best, key=best.get)
        if len(ordered) != len(self._values):  # pragma: no cover - defensive
            ordered += [key for key in self._values if key not in best]
        return ordered

    def state_dict(self) -> dict:
        """Complete snapshot of the sketch state.

        The retained keys are columns in dict-insertion order: ``keys``,
        ``values``, ``ranks``, ``seeds`` and ``positions``, where a
        key's position is its index in :meth:`_entry_order`.
        ``entries`` holds the same rows as ``(key, value, rank, seed,
        position)`` tuples for callers that reorder rows.  Restoring from
        this state (:meth:`from_state`) yields a sketch whose subsequent
        updates are bit-identical to the live one.
        """
        position = {
            key: index for index, key in enumerate(self._entry_order())
        }
        state = self._config_state()
        state["kind"] = "bottom_k"
        state["k"] = self.k
        keys = list(self._values)
        state["keys"] = keys
        state["values"] = [self._values[key] for key in keys]
        state["ranks"] = [self._ranks[key] for key in keys]
        state["seeds"] = [self._seeds[key] for key in keys]
        state["positions"] = [position[key] for key in keys]
        state["entries"] = tuple(
            zip(keys, state["values"], state["ranks"], state["seeds"],
                state["positions"])
        )
        return state

    def _eq_state(self) -> tuple:
        return (
            self.k,
            self.instance,
            self.rank_family,
            self.seed_assigner,
            self.n_updates,
            self.n_discarded_keys,
            frozenset(
                (key, self._values[key], self._ranks[key], self._seeds[key])
                for key in self._values
            ),
        )

    @classmethod
    def from_state(cls, state: Mapping) -> "StreamingBottomK":
        """Rebuild a sketch from a :meth:`state_dict` snapshot.

        The restored sketch is state-identical to the exported one: same
        :meth:`to_sample` snapshot and bit-identical behaviour on any
        subsequent stream of updates.  The dicts are built from the
        ``keys``/``values``/``ranks``/``seeds`` columns in one pass each,
        and the heap from ``positions``; a state that carries ``entries``
        is built from those rows instead.
        """
        family = state["rank_family"]
        if isinstance(family, str):
            family = rank_family_from_name(family)
        sketch = cls(
            k=int(state["k"]),
            instance=state["instance"],
            rank_family=family,
            seed_assigner=SeedAssigner(
                salt=state["salt"], coordinated=bool(state["coordinated"])
            ),
        )
        keys, values, ranks, seeds, positions = _state_columns(
            state, ("keys", "values", "ranks", "seeds", "positions")
        )
        if len(keys) > sketch.k + 1:
            raise InvalidParameterError(
                f"bottom-k state holds {len(keys)} entries; at most "
                f"k + 1 = {sketch.k + 1} can be retained"
            )
        sketch.n_updates = int(state["n_updates"])
        sketch.n_discarded_keys = int(state["n_discarded_keys"])
        sketch._values = _keyed_column(keys, values, "bottom-k")
        sketch._ranks = dict(zip(keys, map(float, ranks)))
        sketch._seeds = dict(zip(keys, map(float, seeds)))
        by_position = sorted(range(len(keys)), key=positions.__getitem__)
        seq_of = {
            keys[index]: seq for seq, index in enumerate(by_position, start=1)
        }
        heap = [
            (-rank, seq_of[key], key) for key, rank in sketch._ranks.items()
        ]
        heapq.heapify(heap)
        sketch._heap = heap
        sketch._seq = len(keys)
        if len(sketch._values) == sketch.k + 1:
            sketch._full_max = max(sketch._ranks.values())
        return sketch


class StreamingPoisson(_StreamingSketch):
    """Streaming Poisson-``tau`` sketch of one instance.

    Retains exactly the keys whose rank is below ``threshold``.  With
    :class:`PpsRanks` this is streaming PPS sampling (``tau = 1 /
    tau_star``), with :class:`UniformRanks` it is weight-oblivious Poisson
    sampling with probability ``tau`` — the two schemes the multi-instance
    estimators of :mod:`repro.core` are built for.

    A weight-oblivious sketch derives its ranks instead of storing them:
    a retained key's uniform rank is its seed, so
    :meth:`candidate_ranks`, :meth:`state_dict` and equality compute it
    from the key in one vectorised seed pass, and the sketch keeps only
    the values.  It starts storing ranks, as a weighted sketch does, only
    where a rank may differ from its key's seed: after an update by an
    equal key that hashes differently (``1.0`` or ``True`` for ``1``), a
    merge of sketches that share a key or whose equal labels seed apart
    (``1`` and ``1.0``, uncoordinated), or a restore whose ``ranks``
    column turns out, when first needed, not to be the keys' seeds.
    Either way the state is the one the per-row update loop builds, bit
    for bit.
    """

    def __init__(
        self,
        threshold: float,
        instance: object = 0,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
    ) -> None:
        threshold = float(threshold)
        if not threshold > 0.0:
            raise InvalidParameterError(
                f"threshold must be positive, got {threshold}"
            )
        if rank_family is None:
            rank_family = UniformRanks()
        if isinstance(rank_family, UniformRanks) and threshold > 1.0:
            raise InvalidParameterError(
                "a weight-oblivious threshold is a probability and must be "
                f"at most 1, got {threshold}"
            )
        super().__init__(instance, rank_family, seed_assigner)
        self.threshold = threshold
        #: whether ranks are weight-oblivious, so the threshold is
        #: inclusive (see :func:`_keeps`)
        self._inclusive = isinstance(self.rank_family, UniformRanks)
        self._values: dict[object, float] = {}
        #: the retained keys' ranks, or None while they are derived
        self._ranks: dict[object, float] | None = (
            None if self._inclusive else {}
        )
        #: a restored ranks column of the first retained keys, not yet
        #: checked against their seeds (see :meth:`_derives_ranks`)
        self._restored: np.ndarray | None = None
        # The types of the retained keys, brought up to date by
        # :meth:`_sync_retained`, and how many keys it has seen.
        self._synced = 0
        self._kinds: set[type] = set()
        #: see :data:`_REVISIONS` and :meth:`mark`
        self._revision = next(_REVISIONS)

    def _ingest(self, key: object, value: float, seed: float) -> None:
        old = self._values.get(key)
        if old is not None:
            total = old + value
            self._values[key] = total
            self._revision = next(_REVISIONS)
            self._rerank(key, total, seed)
            return
        rank = self._rank(value, seed)
        if not _keeps(rank, self.threshold, self.rank_family):
            self.n_discarded_keys += 1
            return
        self._values[key] = value
        if self._ranks is not None:
            self._ranks[key] = rank

    def _apply_rows(self, keys, values, seeds, ranks, rows) -> None:
        keep = _keeps(ranks, self.threshold, self.rank_family)
        for i in rows.tolist():
            key = keys[i]
            if key in self._values:
                total = self._values[key] + float(values[i])
                self._values[key] = total
                self._revision = next(_REVISIONS)
                self._rerank(key, total, float(seeds[i]))
            elif keep[i]:
                self._values[key] = float(values[i])
                if self._ranks is not None:
                    self._ranks[key] = float(ranks[i])
            else:
                self.n_discarded_keys += 1

    def _rerank(self, key: object, total: float, seed: float) -> None:
        """Rank the retained ``key`` after an update to ``total`` by an
        equal key whose seed is ``seed``."""
        if self._derives_ranks():
            # equal int-like keys, or equal plain strs, hash alike, so
            # then ``seed`` is the retained key's seed: the derived rank
            self._sync_retained()
            if canonical_kinds(self._kinds | {type(key)}):
                return
        self._stored_ranks()[key] = self._rank(total, seed)

    def _seeds_of(self, keys: Sequence[object]) -> np.ndarray:
        """The seeds of ``keys`` in this sketch's instance."""
        return self.seed_assigner.seeds_from_hashes(
            key_hashes(keys), instance=self.instance
        )

    def _ranks_of(self, keys: list) -> list[float]:
        """The ranks of the retained ``keys``, in order."""
        if self._derives_ranks():
            return self._seeds_of(keys).tolist()
        return [self._ranks[key] for key in keys]

    def _stored_ranks(self) -> dict[object, float]:
        """The stored ranks; a sketch that derives them starts storing."""
        if self._derives_ranks():
            keys = list(self._values)
            self._ranks = dict(zip(keys, self._ranks_of(keys)))
        return self._ranks

    def _derives_ranks(self) -> bool:
        """Whether the ranks are derived, once a restored ranks column
        is settled: it is stored only if it is not its keys' seeds."""
        if self._restored is not None:
            restored, self._restored = self._restored.tolist(), None
            keys = list(islice(self._values, len(restored)))
            if self._seeds_of(keys).tolist() != restored:
                later = list(self._values)[len(keys):]
                self._ranks = dict(zip(keys, restored))
                self._ranks.update(zip(later, self._seeds_of(later).tolist()))
        return self._ranks is None

    def _ranked_rows(self, keys, values, hashes, canonical: bool) -> tuple:
        """The rows of a checked column the per-row loop must see.

        A weight-oblivious column of canonical keys is planned as the
        engine plans a group, as a plan of one shard: the rows that
        cannot change the sketch are counted by :func:`_settle_failing`,
        and only the others are seeded and returned.  Any other column
        returns every row.
        """
        if not (canonical and self._inclusive):
            return super()._ranked_rows(keys, values, hashes, canonical)
        rows, seeds = _settle_failing(
            [self], hashes, np.zeros(len(hashes), dtype=np.intp),
            [len(hashes)], values,
        )
        keys = keys[rows] if isinstance(keys, np.ndarray) else [keys[i] for i in rows]
        return keys, values[rows], hashes[rows], seeds, seeds

    def _sync_retained(self) -> bool:
        """Catch up with the types of the keys retained since the last
        call; return whether all retained keys are canonical.

        A Poisson sketch never drops a retained key, and new keys append
        to ``_values`` in insertion order (in every ingest path, merges
        included), so the keys not seen yet are the newest ones.
        """
        added = len(self._values) - self._synced
        if added:
            self._kinds.update(map(type, islice(reversed(self._values), added)))
            self._synced = len(self._values)
        return canonical_kinds(self._kinds)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def mark(self) -> tuple[int, int]:
        """``(retained keys, value revision)``: the point of this
        sketch's history that :meth:`changes_since` reads from."""
        return len(self._values), self._revision

    def changes_since(
        self, mark: tuple[int, int]
    ) -> tuple[list, np.ndarray, bool]:
        """What changed since :meth:`mark` gave ``mark``: ``(keys,
        values, moved)``.

        ``keys`` are the keys retained since, in retention order: the
        sketch never drops a key and appends new ones (see
        :meth:`_sync_retained`), so they are the newest.  Unless a
        retained value moved since (``moved``), ``values`` are those
        keys' values; else they are every retained value, in order.  An
        engine merge replaces a shard by a new sketch that lists the old
        one's keys first, in order; the old sketch's mark reads on it as
        ``moved``.
        """
        before, revision = mark
        added = len(self._values) - before
        keys = list(islice(reversed(self._values), added))
        keys.reverse()
        moved = revision != self._revision
        if moved:
            values = np.fromiter(
                self._values.values(), dtype=np.float64, count=len(self._values)
            )
        else:
            values = np.fromiter(
                islice(reversed(self._values.values()), added),
                dtype=np.float64,
                count=added,
            )[::-1]
        return keys, values, moved

    @property
    def entries(self) -> dict[object, float]:
        """Accumulated values of the retained keys."""
        return dict(self._values)

    def candidate_ranks(self) -> dict[object, float]:
        """Current ranks of the retained keys."""
        keys = list(self._values)
        return dict(zip(keys, self._ranks_of(keys)))

    def to_sample(self) -> PoissonSample:
        """Snapshot the sketch as an offline :class:`PoissonSample`.

        Matches :func:`repro.sampling.poisson.poisson_uniform_sample` /
        :func:`poisson_weighted_sample` of the accumulated data, so the HT
        subset-sum estimator and the known-seed machinery apply unchanged.
        """
        entries = dict(self._values)
        if isinstance(self.rank_family, UniformRanks):
            return PoissonSample(
                instance=self.instance,
                entries=entries,
                inclusion_probabilities={
                    key: self.threshold for key in entries
                },
                probability=self.threshold,
                seed_assigner=self.seed_assigner,
                rank_family_name=self.rank_family.name,
            )
        probabilities = {
            key: float(self.rank_family.cdf(value, self.threshold))
            for key, value in entries.items()
        }
        return PoissonSample(
            instance=self.instance,
            entries=entries,
            inclusion_probabilities=probabilities,
            threshold=self.threshold,
            seed_assigner=self.seed_assigner,
            rank_family_name=self.rank_family.name,
        )

    def state_dict(self) -> dict:
        """Complete snapshot of the sketch state.

        The retained keys are columns in dict-insertion order: ``keys``,
        ``values`` and ``ranks``; ``entries`` holds the same rows as
        ``(key, value, rank)`` tuples for callers that reorder rows.
        :meth:`from_state` keeps the order, so query paths that iterate
        the entries (and therefore sum floats in that order) reproduce
        bit-identical results.
        """
        state = self._config_state()
        state["kind"] = "poisson"
        state["threshold"] = self.threshold
        keys = list(self._values)
        state["keys"] = keys
        state["values"] = list(self._values.values())
        state["ranks"] = self._ranks_of(keys)
        state["entries"] = tuple(zip(keys, state["values"], state["ranks"]))
        return state

    def _eq_state(self) -> tuple:
        keys = list(self._values)
        return (
            self.threshold,
            self.instance,
            self.rank_family,
            self.seed_assigner,
            self.n_updates,
            self.n_discarded_keys,
            frozenset(zip(keys, self._values.values(), self._ranks_of(keys))),
        )

    @classmethod
    def from_state(cls, state: Mapping) -> "StreamingPoisson":
        """Rebuild a sketch from a :meth:`state_dict` snapshot.

        The ``keys`` and ``values`` columns become the sketch's dict in
        one pass; a state that carries ``entries`` is built from those
        rows instead.  A weight-oblivious sketch keeps the ``ranks``
        column as one array, and checks it against the keys' seeds only
        when its ranks are first read or updated (:meth:`_derives_ranks`).
        """
        family = state["rank_family"]
        if isinstance(family, str):
            family = rank_family_from_name(family)
        sketch = cls(
            threshold=float(state["threshold"]),
            instance=state["instance"],
            rank_family=family,
            seed_assigner=SeedAssigner(
                salt=state["salt"], coordinated=bool(state["coordinated"])
            ),
        )
        sketch.n_updates = int(state["n_updates"])
        sketch.n_discarded_keys = int(state["n_discarded_keys"])
        keys, values, ranks = _state_columns(
            state, ("keys", "values", "ranks")
        )
        sketch._values = _keyed_column(keys, values, "Poisson")
        if sketch._inclusive:
            sketch._restored = np.asarray(ranks, dtype=float)
        else:
            sketch._ranks = dict(zip(keys, map(float, ranks)))
        return sketch


def _settle_failing(
    shards: Sequence[StreamingPoisson], hashes: np.ndarray,
    shard_ids: np.ndarray, per_shard: Sequence[int], values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Count the rows of one weight-oblivious group that cannot change
    their shard's sketch; return the indices of the other rows and
    their seeds, which are also their ranks.

    The one filter of weight-oblivious rows, run once for a whole
    group of canonical keys, by the engine plan
    (:meth:`~repro.streaming.engine.StreamEngine.ingest_jobs`) and by
    :meth:`StreamingPoisson.update_many`: a uniform rank is the key's
    seed, and every retained key's seed passed, so on a shard whose
    retained keys are canonical a positive row whose rank fails adds
    one discarded key and nothing else.  A zero row adds only an update
    anywhere.  The pass test compares the mixed ``uint64`` hashes with
    :func:`~repro.sampling.seeds.uniform_selected`, so only the routed
    rows, all positive, are turned into seeds.  ``hashes`` are the
    rows' key hashes, ``shard_ids`` give each row's index into
    ``shards``, and ``per_shard`` the rows of each shard.
    """
    first = shards[0]
    mixed = first.seed_assigner._mix(hashes, first.instance)
    positive = values > 0.0
    route = positive & uniform_selected(mixed, first.threshold)
    exact = np.array([sketch._sync_retained() for sketch in shards])
    if not exact.all():
        route |= positive & ~exact[shard_ids]
    rows = np.flatnonzero(route)
    n = len(shards)
    routed = np.bincount(shard_ids[rows], minlength=n).tolist()
    active = (
        per_shard if positive.all()
        else np.bincount(shard_ids[positive], minlength=n).tolist()
    )
    for sketch, total, n_active, n_routed in zip(
        shards, per_shard, active, routed
    ):
        sketch.n_updates += total - n_routed
        sketch.n_discarded_keys += n_active - n_routed
    return rows, uniform_from_uint64(mixed[rows])


def _state_columns(state: Mapping, names: tuple) -> tuple:
    """The entry columns ``names`` of a sketch state, in order.

    A state that carries ``entries`` (rows in the order of ``names``)
    gives those rows transposed; any other gives its named columns.
    """
    if "entries" in state:
        rows = tuple(state["entries"])
        columns = tuple(zip(*rows)) if rows else ((),) * len(names)
    else:
        columns = tuple(state[name] for name in names)
    if len({len(column) for column in columns}) > 1:
        raise InvalidParameterError(
            "sketch state columns differ in length: "
            + ", ".join(
                f"{name}={len(column)}" for name, column in zip(names, columns)
            )
        )
    return columns


def _keyed_column(keys: Sequence, column: Sequence, family: str) -> dict:
    """``{key: float(value)}`` over two state columns; a key may appear
    only once."""
    keyed = dict(zip(keys, map(float, column)))
    if len(keyed) != len(keys):
        repeated = next(key for key, n in Counter(keys).items() if n > 1)
        raise InvalidParameterError(f"{family} state repeats key {repeated!r}")
    return keyed


def sketch_from_state(state: Mapping):
    """Rebuild either sketch family from a ``state_dict()`` snapshot."""
    kind = state.get("kind")
    if kind == "bottom_k":
        return StreamingBottomK.from_state(state)
    if kind == "poisson":
        return StreamingPoisson.from_state(state)
    raise InvalidParameterError(
        f"unknown sketch state kind {kind!r}; expected 'bottom_k' or "
        "'poisson'"
    )
