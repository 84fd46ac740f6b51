"""Sharded streaming ingestion of ``(instance, key, value)`` updates.

:class:`StreamEngine` is the entry point of the streaming path.  It accepts
batched NumPy columns of updates, routes each key to a shard by key hash
(the same hash pass that derives the key's seeds), and drives one sketch
per (instance, shard) pair with vectorised batch updates.  Because shards
partition the key space, per-shard sketches merge exactly
(:mod:`repro.streaming.merge`) into the sketch of the whole stream — the
shard-and-reduce shape that later distribution work builds on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sampling.ranks import (
    ExpRanks,
    RankFamily,
    UniformRanks,
    rank_family_from_name,
)
from repro.sampling.seeds import SeedAssigner, canonical_kinds, hash_key_column
from repro.streaming.merge import merge_sketches
from repro.streaming.sketch import (
    StreamingBottomK,
    StreamingPoisson,
    _settle_failing,
    _validate_values,
    sketch_from_state,
)

__all__ = ["IngestJob", "StreamEngine"]


def _check_hashable(keys: Sequence[object]) -> None:
    """Reject a key column holding an unhashable key, naming its row."""
    try:
        # one C-level pass; the per-row search runs only on failure
        deque(map(hash, keys), maxlen=0)
    except TypeError:
        for row, key in enumerate(keys):
            try:
                hash(key)
            except TypeError:
                raise InvalidParameterError(
                    "update keys must be hashable, got "
                    f"{type(key).__name__} at row {row}"
                ) from None
        raise


class IngestJob(NamedTuple):
    """One shard's share of an ingest batch, hashed, seeded and ranked
    (see :meth:`StreamEngine.ingest_jobs`)."""

    sketch: object
    keys: Sequence[object]
    values: np.ndarray
    hashes: np.ndarray
    seeds: np.ndarray
    ranks: np.ndarray
    #: whether this job's key column is canonical
    #: (:func:`~repro.sampling.seeds.canonical_kinds`); only the
    #: bottom-k array fold (``StreamingBottomK._fold``) reads it
    canonical: bool


#: the sketch type and default rank family of each engine kind
_KINDS: dict[str, tuple[type, type[RankFamily]]] = {
    "bottom_k": (StreamingBottomK, ExpRanks),
    "poisson": (StreamingPoisson, UniformRanks),
}


class StreamEngine:
    """Shard-parallel ingestion engine over per-instance sketches.

    The paper's multi-instance estimators are unbiased only when every
    sketch of an instance shares one configuration, and exact shard
    merges rely on it too, so an engine *is* its configuration: the
    constructor validates it once and builds every (instance, shard)
    sketch from it.

    Parameters
    ----------
    kind:
        ``"bottom_k"`` (a :class:`StreamingBottomK` per instance and
        shard) or ``"poisson"`` (a :class:`StreamingPoisson`).
    k:
        Bottom-k sample size; required for ``bottom_k``, refused for
        ``poisson``.
    threshold:
        Poisson threshold; required for ``poisson``, refused for
        ``bottom_k``.
    rank_family:
        Rank family of every sketch; :class:`ExpRanks` for ``bottom_k``
        and :class:`UniformRanks` for ``poisson`` when omitted.
    seed_assigner:
        Seed assignment of every sketch; ``SeedAssigner()`` when omitted.
    n_shards:
        Number of key-hash shards per instance.

    :attr:`sketch_config` records the keyword arguments other than
    ``n_shards``, defaults resolved, so
    ``StreamEngine(**engine.sketch_config, n_shards=engine.n_shards)``
    is an empty copy of ``engine``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sampling.seeds import SeedAssigner
    >>> engine = StreamEngine.bottom_k(
    ...     k=4, seed_assigner=SeedAssigner(salt=3, coordinated=True))
    >>> engine.ingest("day1", np.arange(100), np.ones(100))
    >>> len(engine.sample("day1"))
    4
    """

    def __init__(
        self,
        kind: str,
        *,
        k: int | None = None,
        threshold: float | None = None,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
        n_shards: int = 8,
    ) -> None:
        if kind == "bottom_k":
            if k is None:
                raise InvalidParameterError(
                    "a bottom_k engine requires the sample size k"
                )
            if threshold is not None:
                raise InvalidParameterError(
                    "threshold applies to poisson engines only"
                )
            size: dict = {"k": int(k)}
        elif kind == "poisson":
            if threshold is None:
                raise InvalidParameterError(
                    "a poisson engine requires a threshold"
                )
            if k is not None:
                raise InvalidParameterError(
                    "k applies to bottom_k engines only"
                )
            size = {"threshold": float(threshold)}
        else:
            raise InvalidParameterError(
                f"unknown sketch kind {kind!r}; use 'bottom_k' or 'poisson'"
            )
        if n_shards <= 0:
            raise InvalidParameterError(
                f"n_shards must be positive, got {n_shards}"
            )
        sketch_type, default_family = _KINDS[kind]
        self._sketch_type = sketch_type
        self._sketch_args = {
            **size,
            "rank_family": (
                rank_family if rank_family is not None else default_family()
            ),
            "seed_assigner": (
                seed_assigner if seed_assigner is not None
                else SeedAssigner()
            ),
        }
        # the sketch constructor owns the rules on k, the threshold and
        # their rank family: one throwaway sketch checks them up front
        self._new_sketch(None)
        #: the configuration every sketch of the engine shares
        self.sketch_config: dict = {"kind": kind, **self._sketch_args}
        self.n_shards = int(n_shards)
        self._shards: dict[object, list] = {}
        self.n_updates = 0
        #: per-shard update counters (summed over instances) — the
        #: load-balance signal behind the per-engine metrics block.
        #: Session-local like :attr:`change_tick`: never serialized, a
        #: restored engine starts at zero.
        self.shard_updates: list[int] = [0] * self.n_shards
        #: session-local monotone mutation counter — bumped by every
        #: :meth:`ingest_jobs` plan and every :meth:`merge_from`, never
        #: serialized, so a freshly restored engine always reads 0
        #: ("clean").  The serving layer polls it as a cheap dirty probe.
        self.change_tick = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bottom_k(
        cls,
        k: int,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
        n_shards: int = 8,
    ) -> "StreamEngine":
        """Engine maintaining a :class:`StreamingBottomK` per instance."""
        return cls(
            "bottom_k", k=k, rank_family=rank_family,
            seed_assigner=seed_assigner, n_shards=n_shards,
        )

    @classmethod
    def poisson(
        cls,
        threshold: float,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
        n_shards: int = 8,
    ) -> "StreamEngine":
        """Engine maintaining a :class:`StreamingPoisson` per instance."""
        return cls(
            "poisson", threshold=threshold, rank_family=rank_family,
            seed_assigner=seed_assigner, n_shards=n_shards,
        )

    def _new_sketch(self, instance: object):
        return self._sketch_type(instance=instance, **self._sketch_args)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _instance_shards(self, instance: object) -> list:
        shards = self._shards.get(instance)
        if shards is None:
            shards = [self._new_sketch(instance) for _ in range(self.n_shards)]
            self._shards[instance] = shards
        return shards

    def ingest_jobs(
        self,
        instance: object,
        keys: Sequence[object],
        values,
        *,
        checked: bool = False,
    ) -> list[IngestJob]:
        """Validate one batch, rank it, and split it into per-shard
        update jobs.

        This is the planning half of :meth:`ingest`: it hashes, seeds
        and ranks the whole batch in one vectorised pass (a key's seed
        and rank depend only on the key, the instance and the value,
        never on its shard), routes each update to its shard, creates
        missing sketches, and advances ``n_updates`` — but applies
        nothing, with one exception.  A weight-oblivious Poisson group
        of canonical keys routes only the rows that can change a sketch:
        the plan settles every other row into its shard's ``n_updates``
        and ``n_discarded_keys`` itself (see
        :func:`~repro.streaming.sketch._settle_failing`, the one filter
        of such rows), so the shards receive the few rows whose rank
        passes, not the whole group, and only those rows are seeded.
        Callers that apply the jobs inside their own critical
        section (e.g. the engine lock of
        :class:`repro.service.SketchStore`, which logs, plans and applies
        one group in one hold) run the returned jobs through
        :meth:`run_job` themselves.  ``checked=True`` says ``keys`` and
        ``values`` are what :meth:`checked_columns` returned (the store
        validates a whole request before it logs any group), so they are
        not checked again.
        """
        if not checked:
            keys, values = self.checked_columns(keys, values)
        columnar = isinstance(keys, np.ndarray)
        shards = self._instance_shards(instance)
        hashes, canonical = hash_key_column(keys)
        self.n_updates += len(keys)
        self.change_tick += 1
        shard_ids = (hashes % np.uint64(self.n_shards)).astype(np.intp)
        per_shard = np.bincount(shard_ids, minlength=self.n_shards).tolist()
        for shard, count in enumerate(per_shard):
            self.shard_updates[shard] += count
        # every shard of an instance shares its label and configuration;
        # seeding with the sketch's own label, not ``instance``, matters
        # when an equal label of another type (1.0 for 1) finds it
        if (
            canonical
            and isinstance(shards[0], StreamingPoisson)
            and shards[0]._inclusive
        ):
            # weight-oblivious Poisson: the plan settles the failing rows
            # and seeds only the others, whose ranks are their seeds
            rows, seeds = _settle_failing(
                shards, hashes, shard_ids, per_shard, values
            )
            keys = keys[rows] if columnar else [keys[i] for i in rows]
            values, hashes, shard_ids = (
                column[rows] for column in (values, hashes, shard_ids)
            )
            ranks = seeds
        else:
            seeds, ranks = shards[0]._rank_column(hashes, values)
        if self.n_shards == 1:
            return [
                IngestJob(
                    shards[0], keys, values, hashes, seeds, ranks, canonical
                )
            ]
        jobs = []
        for shard in range(self.n_shards):
            index = np.nonzero(shard_ids == shard)[0]
            if index.size == 0:
                continue
            shard_keys = keys[index] if columnar else [keys[i] for i in index]
            jobs.append(
                IngestJob(
                    shards[shard],
                    shard_keys,
                    values[index],
                    hashes[index],
                    seeds[index],
                    ranks[index],
                    # a mixed group may still leave one shard canonical
                    canonical or canonical_kinds(map(type, shard_keys)),
                )
            )
        return jobs

    @staticmethod
    def checked_columns(
        keys: Sequence[object], values
    ) -> tuple[Sequence[object], np.ndarray]:
        """Validate one column batch; returns ``(keys, values)`` as
        ingested: a 1-D NumPy key column as-is, any other key sequence
        as a list, and the values as a float column.

        The validation half of :meth:`ingest_jobs`, which runs it before
        any state changes, so a bad row must not leave some shards
        updated and others not.  The store runs it once per group, ahead
        of the write-ahead log, and plans the checked columns, so every
        ingest path rejects a batch with the same message.  Keys must be
        hashable (the sketches key dicts by them).
        """
        # NumPy key columns stay columnar end to end: they hash without
        # per-key Python objects and shard-split by fancy indexing.
        if isinstance(keys, np.ndarray):
            if keys.ndim != 1:
                raise InvalidParameterError(
                    f"a key column must be 1-D, got shape {keys.shape}"
                )
            if keys.dtype == object:
                _check_hashable(keys)
        else:
            keys = list(keys)
            _check_hashable(keys)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(keys),):
            raise InvalidParameterError(
                "keys and values must have matching length"
            )
        _validate_values(values)
        return keys, values

    @staticmethod
    def run_job(job: IngestJob) -> None:
        """Fold one shard job produced by :meth:`ingest_jobs` into its
        sketch; the job is already validated and ranked, so this only
        folds."""
        job.sketch._apply_ranked(
            job.keys, job.values, job.seeds, job.ranks, job.hashes,
            job.canonical,
        )

    def ingest(self, instance: object, keys: Sequence[object], values) -> None:
        """Ingest one batch of ``(key, value)`` updates for ``instance``.

        ``keys`` and ``values`` are parallel columns; integer key columns
        are hashed fully vectorised.
        """
        for job in self.ingest_jobs(instance, keys, values):
            self.run_job(job)

    def ingest_updates(self, instances: Sequence[object], keys, values) -> None:
        """Ingest a mixed batch of ``(instance, key, value)`` updates."""
        instances = list(instances)
        keys = list(keys)
        if len(instances) != len(keys):
            raise InvalidParameterError(
                "instances and keys must have matching length"
            )
        values = np.asarray(values, dtype=float)
        if values.shape != (len(keys),):
            raise InvalidParameterError(
                "keys and values must have matching length"
            )
        groups: dict[object, list[int]] = {}
        for position, label in enumerate(instances):
            groups.setdefault(label, []).append(position)
        for label, positions in groups.items():
            self.ingest(
                label, [keys[i] for i in positions], values[positions]
            )

    def ingest_stream(
        self, stream: Iterable[tuple[object, object, float]],
        batch_size: int = 4096,
    ) -> None:
        """Ingest an iterable of ``(instance, key, value)`` updates in
        batches of ``batch_size``."""
        if batch_size <= 0:
            raise InvalidParameterError(
                f"batch_size must be positive, got {batch_size}"
            )
        instances: list[object] = []
        keys: list[object] = []
        values: list[float] = []
        for instance, key, value in stream:
            instances.append(instance)
            keys.append(key)
            values.append(float(value))
            if len(keys) >= batch_size:
                self.ingest_updates(instances, keys, np.asarray(values))
                instances, keys, values = [], [], []
        if keys:
            self.ingest_updates(instances, keys, np.asarray(values))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def instance_labels(self) -> list[object]:
        """Labels of the instances seen so far, in first-seen order."""
        return list(self._shards)

    def shard_sketches(self, instance: object) -> list:
        """The live per-shard sketches of ``instance`` (not copies)."""
        if instance not in self._shards:
            raise InvalidParameterError(f"unknown instance {instance!r}")
        return list(self._shards[instance])

    def sketch(self, instance: object):
        """The merged sketch of ``instance`` across all shards."""
        return merge_sketches(self.shard_sketches(instance))

    def sample(self, instance: object):
        """Offline-sample snapshot of ``instance`` (bottom-k or Poisson)."""
        return self.sketch(instance).to_sample()

    def sketches(self) -> dict[object, object]:
        """Merged sketches of every instance, keyed by label."""
        return {label: self.sketch(label) for label in self._shards}

    def probe(self) -> dict:
        """Cheap state probe for monitoring and shutdown decisions.

        Touches only counters and per-shard lengths — no merging, no
        copying — so callers (the HTTP ``/metrics`` endpoint, the
        graceful-shutdown dirty check) can poll it on every request.
        ``change_tick`` is session-local: it advances on every ingest
        plan and engine merge and resets to 0 on restore, so comparing
        two probes tells whether the engine mutated in between.
        """
        return {
            "change_tick": self.change_tick,
            "n_updates": self.n_updates,
            "n_instances": len(self._shards),
            "n_shards": self.n_shards,
            "shard_updates": list(self.shard_updates),
            # one copy of the values: an ingest may add an instance
            # while this sum runs without the engine lock
            "retained_keys": sum(
                len(sketch)
                for shards in list(self._shards.values())
                for sketch in shards
            ),
        }

    # ------------------------------------------------------------------
    # State export / merge
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete engine state: configuration plus per-shard sketch
        states of every instance (see the sketches' ``state_dict``)."""
        config = self.sketch_config
        assigner = config["seed_assigner"]
        state = {
            "kind": config["kind"],
            "rank_family": config["rank_family"],
            "salt": assigner.salt,
            "coordinated": assigner.coordinated,
            "n_shards": self.n_shards,
            "n_updates": self.n_updates,
            "instances": {
                label: tuple(sketch.state_dict() for sketch in shards)
                for label, shards in self._shards.items()
            },
        }
        if config["kind"] == "bottom_k":
            state["k"] = config["k"]
        else:
            state["threshold"] = config["threshold"]
        return state

    @classmethod
    def from_state(cls, state: Mapping) -> "StreamEngine":
        """Rebuild an engine from a :meth:`state_dict` snapshot."""
        family = state["rank_family"]
        if isinstance(family, str):
            family = rank_family_from_name(family)
        engine = cls(
            state["kind"],
            k=state.get("k"),
            threshold=state.get("threshold"),
            rank_family=family,
            seed_assigner=SeedAssigner(
                salt=state["salt"], coordinated=bool(state["coordinated"])
            ),
            n_shards=int(state["n_shards"]),
        )
        engine.n_updates = int(state["n_updates"])
        for label, shard_states in state["instances"].items():
            shards = [
                sketch_from_state(shard_state)
                for shard_state in shard_states
            ]
            if len(shards) != engine.n_shards:
                raise InvalidParameterError(
                    f"instance {label!r} carries {len(shards)} shard "
                    f"sketches for an {engine.n_shards}-shard engine"
                )
            for sketch in shards:
                if type(sketch) is not engine._sketch_type:
                    raise InvalidParameterError(
                        f"{state['kind']} engine state carries a "
                        f"{type(sketch).__name__} shard sketch"
                    )
                if sketch.instance != label:
                    raise InvalidParameterError(
                        f"shard sketch of instance {sketch.instance!r} "
                        f"listed under label {label!r}"
                    )
                # the sketch attributes carry the engine argument names
                if any(
                    getattr(sketch, name) != value
                    for name, value in engine._sketch_args.items()
                ):
                    raise InvalidParameterError(
                        "shard sketch configuration does not match the "
                        "engine configuration"
                    )
            engine._shards[label] = shards
        return engine

    def __eq__(self, other: object) -> bool:
        """Configuration, counters and per-shard sketch equality."""
        if type(other) is not type(self):
            return NotImplemented
        if (
            self.sketch_config != other.sketch_config
            or self.n_shards != other.n_shards
            or self.n_updates != other.n_updates
            or set(self._shards) != set(other._shards)
        ):
            return False
        return all(
            self._shards[label] == other._shards[label]
            for label in self._shards
        )

    __hash__ = None

    def merge_from(self, other: "StreamEngine") -> None:
        """Fold another engine's sketches into this one, shard by shard.

        Both engines must share the same recorded configuration and shard
        count: sharding routes a key by ``hash % n_shards``, so equal
        shard counts guarantee that shard ``s`` of both engines holds the
        same key-space partition and per-shard merging is exact.  The
        other engine is left untouched.
        """
        if self.sketch_config != other.sketch_config:
            raise InvalidParameterError(
                "cannot merge engines with different sketch configurations"
            )
        if self.n_shards != other.n_shards:
            raise InvalidParameterError(
                f"cannot merge engines with {self.n_shards} and "
                f"{other.n_shards} shards; sharding must partition the "
                "key space identically"
            )
        self.n_updates += other.n_updates
        self.change_tick += 1
        self.shard_updates = [
            mine + theirs
            for mine, theirs in zip(self.shard_updates, other.shard_updates)
        ]
        for label in other.instance_labels:
            other_shards = other.shard_sketches(label)
            mine = self._shards.get(label)
            if mine is None:
                self._shards[label] = [
                    merge_sketches([sketch]) for sketch in other_shards
                ]
            else:
                self._shards[label] = [
                    merge_sketches([ours, theirs])
                    for ours, theirs in zip(mine, other_shards)
                ]
