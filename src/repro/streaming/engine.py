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
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sampling.ranks import (
    ExpRanks,
    RankFamily,
    UniformRanks,
    rank_family_from_name,
)
from repro.sampling.seeds import SeedAssigner, key_hashes
from repro.streaming.merge import merge_sketches
from repro.streaming.sketch import (
    StreamingBottomK,
    StreamingPoisson,
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
    """One shard's share of an ingest batch (see
    :meth:`StreamEngine.ingest_jobs`)."""

    sketch: object
    keys: Sequence[object]
    values: np.ndarray
    hashes: np.ndarray


class StreamEngine:
    """Shard-parallel ingestion engine over per-instance sketches.

    Parameters
    ----------
    sketch_factory:
        Callable ``instance -> sketch`` building an empty sketch of the
        instance; it is called once per (instance, shard).  All sketches of
        one instance must be configured identically — use the convenience
        constructors :meth:`bottom_k` and :meth:`poisson` for the common
        cases.
    n_shards:
        Number of key-hash shards per instance.

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
        sketch_factory: Callable[[object], object],
        n_shards: int = 8,
    ) -> None:
        if n_shards <= 0:
            raise InvalidParameterError(
                f"n_shards must be positive, got {n_shards}"
            )
        self._factory = sketch_factory
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
        #: configuration recorded by the :meth:`bottom_k` / :meth:`poisson`
        #: constructors; ``None`` for custom factories, which therefore
        #: cannot be serialized or merged engine-to-engine
        self.sketch_config: dict | None = None

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
        if seed_assigner is None:
            seed_assigner = SeedAssigner()
        if rank_family is None:
            rank_family = ExpRanks()

        def factory(instance: object) -> StreamingBottomK:
            return StreamingBottomK(
                k=k,
                instance=instance,
                rank_family=rank_family,
                seed_assigner=seed_assigner,
            )

        engine = cls(factory, n_shards=n_shards)
        engine.sketch_config = {
            "kind": "bottom_k",
            "k": int(k),
            "rank_family": rank_family,
            "seed_assigner": seed_assigner,
        }
        return engine

    @classmethod
    def poisson(
        cls,
        threshold: float,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
        n_shards: int = 8,
    ) -> "StreamEngine":
        """Engine maintaining a :class:`StreamingPoisson` per instance."""
        if seed_assigner is None:
            seed_assigner = SeedAssigner()
        if rank_family is None:
            rank_family = UniformRanks()

        def factory(instance: object) -> StreamingPoisson:
            return StreamingPoisson(
                threshold=threshold,
                instance=instance,
                rank_family=rank_family,
                seed_assigner=seed_assigner,
            )

        engine = cls(factory, n_shards=n_shards)
        engine.sketch_config = {
            "kind": "poisson",
            "threshold": float(threshold),
            "rank_family": rank_family,
            "seed_assigner": seed_assigner,
        }
        return engine

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _instance_shards(self, instance: object) -> list:
        shards = self._shards.get(instance)
        if shards is None:
            shards = [self._factory(instance) for _ in range(self.n_shards)]
            self._shards[instance] = shards
        return shards

    def ingest_jobs(
        self, instance: object, keys: Sequence[object], values
    ) -> list[IngestJob]:
        """Validate one batch and split it into per-shard update jobs.

        This is the planning half of :meth:`ingest`: it hashes the key
        column, routes each update to its shard, creates missing sketches,
        and advances ``n_updates`` — but applies nothing.  Callers that
        apply the jobs inside their own critical section (e.g. the engine
        lock of :class:`repro.service.SketchStore`, which logs, plans and
        applies one group in one hold) run the returned jobs through
        :meth:`run_job` themselves.
        """
        keys, values = self.checked_columns(keys, values)
        columnar = isinstance(keys, np.ndarray)
        shards = self._instance_shards(instance)
        hashes = key_hashes(keys)
        self.n_updates += len(keys)
        self.change_tick += 1
        if self.n_shards == 1:
            self.shard_updates[0] += len(keys)
            return [IngestJob(shards[0], keys, values, hashes)]
        shard_ids = (hashes % np.uint64(self.n_shards)).astype(np.intp)
        jobs = []
        for shard in range(self.n_shards):
            index = np.nonzero(shard_ids == shard)[0]
            if index.size == 0:
                continue
            self.shard_updates[shard] += int(index.size)
            jobs.append(
                IngestJob(
                    shards[shard],
                    keys[index] if columnar else [keys[i] for i in index],
                    values[index],
                    hashes[index],
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
        updated and others not.  The store runs it ahead of the
        write-ahead log and the shard-worker dispatch, so every ingest
        path rejects a batch with the same message.  Keys must be
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
        """Apply one shard job produced by :meth:`ingest_jobs`."""
        job.sketch.update_many(job.keys, job.values, hashes=job.hashes)

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
            "retained_keys": sum(
                len(sketch)
                for shards in self._shards.values()
                for sketch in shards
            ),
        }

    # ------------------------------------------------------------------
    # State export / merge
    # ------------------------------------------------------------------
    def _require_config(self) -> dict:
        if self.sketch_config is None:
            raise InvalidParameterError(
                "only engines built via StreamEngine.bottom_k() or "
                "StreamEngine.poisson() record the configuration needed "
                "to export state or merge engines"
            )
        return self.sketch_config

    def state_dict(self) -> dict:
        """Complete engine state: configuration plus per-shard sketch
        states of every instance (see the sketches' ``state_dict``)."""
        config = self._require_config()
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
        kind = state["kind"]
        family = state["rank_family"]
        if isinstance(family, str):
            family = rank_family_from_name(family)
        assigner = SeedAssigner(
            salt=state["salt"], coordinated=bool(state["coordinated"])
        )
        if kind == "bottom_k":
            engine = cls.bottom_k(
                k=int(state["k"]),
                rank_family=family,
                seed_assigner=assigner,
                n_shards=int(state["n_shards"]),
            )
        elif kind == "poisson":
            engine = cls.poisson(
                threshold=float(state["threshold"]),
                rank_family=family,
                seed_assigner=assigner,
                n_shards=int(state["n_shards"]),
            )
        else:
            raise InvalidParameterError(
                f"unknown engine state kind {kind!r}; expected 'bottom_k' "
                "or 'poisson'"
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
            expected_type = (
                StreamingBottomK if kind == "bottom_k" else StreamingPoisson
            )
            for sketch in shards:
                if type(sketch) is not expected_type:
                    raise InvalidParameterError(
                        f"{kind} engine state carries a "
                        f"{type(sketch).__name__} shard sketch"
                    )
                if sketch.instance != label:
                    raise InvalidParameterError(
                        f"shard sketch of instance {sketch.instance!r} "
                        f"listed under label {label!r}"
                    )
                if (
                    sketch.rank_family != family
                    or sketch.seed_assigner != assigner
                    or (
                        kind == "bottom_k"
                        and sketch.k != engine.sketch_config["k"]
                    )
                    or (
                        kind == "poisson"
                        and sketch.threshold
                        != engine.sketch_config["threshold"]
                    )
                ):
                    raise InvalidParameterError(
                        "shard sketch configuration does not match the "
                        "engine configuration"
                    )
            engine._shards[label] = shards
        return engine

    def __eq__(self, other: object) -> bool:
        """Configuration, counters and per-shard sketch equality.

        Engines built from custom factories (no recorded configuration)
        only compare equal to themselves.
        """
        if type(other) is not type(self):
            return NotImplemented
        if self.sketch_config is None or other.sketch_config is None:
            return self is other
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
        config, other_config = self._require_config(), other._require_config()
        if config != other_config:
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

    @staticmethod
    def _untouched(sketch) -> bool:
        """Whether a sketch has never seen an update (safe to replace)."""
        return (
            sketch.n_updates == 0
            and sketch.n_discarded_keys == 0
            and not sketch._values
        )

    def fold_delta(self, delta: "StreamEngine") -> None:
        """Fold a *freshly materialised* delta engine into this one,
        taking ownership of the delta's sketches.

        The multiprocess fan-in path of
        :class:`repro.service.SketchStore`: ``delta`` is a decoded
        shard-worker state that is discarded after the fold, so any
        shard this engine has never touched adopts the delta's sketch
        object wholesale — preserving the delta's bit-exact state, heap
        tie-break order included, instead of re-inserting its entries
        through the merge.  Shards with history on both sides fall back
        to the associative merge, which is state-equal but rebuilds
        entry order.  ``shard_updates`` advances by the adopted
        sketches' own update counters (exact: a shard's routed rows are
        precisely the rows its sketches counted), since the wire codec
        does not carry the engine-level counter.  The delta is emptied
        to prevent accidental sketch sharing.
        """
        config, delta_config = self._require_config(), delta._require_config()
        if config != delta_config:
            raise InvalidParameterError(
                "cannot fold engines with different sketch configurations"
            )
        if self.n_shards != delta.n_shards:
            raise InvalidParameterError(
                f"cannot fold engines with {self.n_shards} and "
                f"{delta.n_shards} shards; sharding must partition the "
                "key space identically"
            )
        self.n_updates += delta.n_updates
        self.change_tick += 1
        for label in delta.instance_labels:
            theirs = delta._shards[label]
            for shard, sketch in enumerate(theirs):
                self.shard_updates[shard] += sketch.n_updates
            mine = self._shards.get(label)
            if mine is None:
                self._shards[label] = list(theirs)
                continue
            self._shards[label] = [
                (
                    theirs_sketch
                    if self._untouched(ours_sketch)
                    else (
                        ours_sketch
                        if self._untouched(theirs_sketch)
                        else merge_sketches([ours_sketch, theirs_sketch])
                    )
                )
                for ours_sketch, theirs_sketch in zip(mine, theirs)
            ]
        delta._shards = {}
