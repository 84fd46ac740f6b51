"""Persistent registry of named sketch engines with concurrent ingest.

:class:`SketchStore` is the long-lived state of the serving layer: a
registry of named :class:`~repro.streaming.StreamEngine` instances with

* **thread-safe concurrent ingest** — per-(instance, shard) locking over
  the engine's sharded structure, so writer threads touching different
  shards proceed in parallel while updates to one shard serialize.
  Because sketch state is insensitive to update order (the streaming
  permutation guarantee), concurrent ingest of pre-aggregated updates
  produces sketches identical to serial ingest;
* **monotone version counters** — every completed ingest bumps the named
  engine's version and every engine replacement its epoch; together they
  key the query-result cache of :class:`repro.service.queries.QueryPlanner`
  and the store's own memo of per-instance column views
  (:meth:`SketchStore.column_view`);
* **durability** — :meth:`snapshot` writes the whole store through the
  versioned binary codec and :meth:`restore` brings it back,
  state-identical;
* **distributed-style fan-in** — :meth:`merge_snapshot` folds a peer's
  snapshot file into this store shard-by-shard via the associative merge
  algebra of :mod:`repro.streaming.merge`.

Reads (queries, snapshots, merges) are quiescent: they wait for in-flight
ingests to drain and briefly block new ones, so every exported state and
every version observed is a consistent point-in-time view.

Every ingest surface — live API calls, binary batch groups, row
triples (grouped by :func:`group_rows`), recovery replay — funnels
through one validated call shape: :class:`IngestRequest` via
:meth:`SketchStore.submit`.  Both the HTTP server and the CLI read the
text formats of :data:`INGEST_FORMATS` through the row decoders here.

With :meth:`SketchStore.start_workers` the store swaps its in-process
threaded execution for a multiprocess shard-worker plane
(:mod:`repro.cluster`): batches are wire-encoded once, appended to the
WAL *before* dispatch (unchanged kill-9 recovery semantics), and
broadcast to N worker processes that each apply the rows of their own
shard group.  Quiescent reads first *fold* the workers' accumulated
deltas back into the parent engine through the associative sketch
merge — bit-exact with single-process ingest, because every row is
owned by exactly one worker.  A crashed worker is respawned and
replayed from the WAL tail, so acknowledged batches survive worker
``SIGKILL``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro.exceptions import (
    InvalidParameterError,
    RowDecodeError,
    SketchCodecError,
    UnknownStoreError,
)
from repro.obs import span
from repro.sampling.ranks import RankFamily, rank_family_from_name
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.streaming.engine import StreamEngine
from repro.streaming.query import SketchColumns

if TYPE_CHECKING:
    from repro.service.queries import QueryPlanner

__all__ = ["INGEST_FORMATS", "IngestFormat", "IngestRequest", "SketchStore",
           "csv_rows", "group_rows", "json_columns", "json_rows", "jsonl_rows"]


class _StoreEntry:
    """A named engine plus its concurrency state."""

    __slots__ = (
        "engine",
        "version",
        "cond",
        "in_flight",
        "shard_locks",
        "synced_version",
        "epoch",
        "columns",
    )

    def __init__(self, engine: StreamEngine, version: int = 0) -> None:
        self.engine = engine
        self.version = int(version)
        #: guards version / in_flight / shard-lock creation; readers wait
        #: on it for quiescence.  Reentrant so pool-mode crash healing
        #: can re-touch an entry from inside a quiescent read.
        self.cond = threading.Condition(threading.RLock())
        self.in_flight = 0
        self.shard_locks: dict[tuple, threading.Lock] = {}
        #: multiprocess backend only: the highest version whose effects
        #: are folded into the *parent* engine.  Batches in
        #: ``(synced_version, version]`` live as worker deltas (and WAL
        #: records — the crash-replay window for a respawned worker).
        self.synced_version = int(version)
        #: replacement counter: :meth:`SketchStore.adopt` advances it when
        #: it swaps the engine, which need not move the version, so every
        #: cache of derived state keys on ``(version, epoch)``
        self.epoch = 0
        #: the column-view memo: ``((version, epoch), {instance:
        #: SketchColumns})``, replaced wholesale when the key moves
        self.columns: tuple[tuple[int, int] | None, dict] = (None, {})


@dataclass(frozen=True)
class IngestRequest:
    """One validated ingest call shape shared by every execution path.

    The thread backend, the multiprocess shard-worker backend, and
    recovery replay all consume this via :meth:`SketchStore.submit`:

    ``engine``
        Target engine name.
    ``batches``
        ``(instance, keys, values)`` column triples (one or many;
        :class:`repro.server.wire` ``WireBatch`` tuples work as-is).
    ``version``
        ``None`` for live ingest (the store assigns the next version);
        an explicit version turns the submit into a *replay* of a
        logged batch — quiescent, version-forced, exactly one batch.
    ``coalesce``
        Merge batches of the same instance into one column before
        ingesting (safe under the streaming permutation guarantee, and
        what the binary ingest fast path wants); disable to force one
        ingest per batch.
    """

    engine: str
    batches: tuple = field(default=())
    version: int | None = None
    coalesce: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) or not self.engine:
            raise InvalidParameterError(
                "IngestRequest.engine must be a non-empty string, got "
                f"{self.engine!r}"
            )
        normalized = tuple(tuple(batch) for batch in self.batches)
        for batch in normalized:
            if len(batch) != 3:
                raise InvalidParameterError(
                    "each IngestRequest batch must be an (instance, "
                    f"keys, values) triple, got {len(batch)} fields"
                )
        object.__setattr__(self, "batches", normalized)
        if self.version is not None:
            if len(normalized) != 1:
                raise InvalidParameterError(
                    "a version-forced (replay) IngestRequest carries "
                    f"exactly one batch, got {len(normalized)}"
                )


def group_rows(
    rows: Iterable[tuple[object, object, float]],
) -> tuple[tuple[object, list, list], ...]:
    """Group ``(instance, key, value)`` triples into one ``(instance,
    keys, values)`` batch per instance, in first-seen order — the
    :attr:`IngestRequest.batches` shape of a row-oriented stream."""
    groups: dict[object, tuple[list, list]] = {}
    for instance, key, value in rows:
        columns = groups.get(instance)
        if columns is None:
            columns = groups[instance] = ([], [])
        columns[0].append(key)
        columns[1].append(value)
    return tuple(
        (instance, keys, values) for instance, (keys, values) in groups.items()
    )


# -- Row decoders shared by HTTP and the CLI: rules raise ValueError(reason)
_CSV_HEADER = ["instance", "key", "value"]

#: JSON types no instance or key may have: the codec cannot encode a list
#: or an object, so a WAL append refuses one and a retained one fails
#: every later snapshot of the engine
_BAD_LABEL_TYPES = frozenset({list, dict})
_BAD_LABEL = "{} must not be a JSON list or object, got {!r}"


def _int_key(key: object) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise ValueError(f"int_keys needs integer keys, got {key!r}") from None


def _csv_value(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"update values must be numbers, got {raw!r}") from None
    return _update_value(value)


def _update_value(value: object) -> float:
    """The value rule of every text format: a number, not a bool, finite."""
    if value.__class__ not in (float, int):  # exact: bool subclasses int
        raise ValueError(f"update values must be numbers, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # 1e999 is legal JSON and parses to inf
        raise ValueError(f"update values must be finite, got {number!r}")
    return number


def _bad_label(labels: Sequence[object]) -> int | None:
    """The label rule in one type pass: the first list/object's index."""
    if _BAD_LABEL_TYPES.isdisjoint(map(type, labels)):
        return None
    return next(
        i for i, label in enumerate(labels) if type(label) in _BAD_LABEL_TYPES
    )


def _json_row(instance, key, value, int_keys: bool = False) -> tuple:
    labels = instance, key
    bad = _bad_label(labels)
    if bad is not None:
        raise ValueError(_BAD_LABEL.format(("instance", "key")[bad], labels[bad]))
    return instance, _int_key(key) if int_keys else key, _update_value(value)


def csv_rows(lines: Iterable[str], *, int_keys: bool = False) -> Iterator[tuple]:
    """Yield the ``(instance, key, value)`` rows of CSV ``lines``.  Blank
    lines are skipped and not counted: the optional header may follow
    them, and ``CSV line N`` counts non-empty lines."""
    line = 0
    for row in csv.reader(lines):
        if not row:
            continue
        line += 1
        if line == 1 and row == _CSV_HEADER:
            continue
        try:
            if len(row) != 3:
                raise ValueError(
                    f"expected instance,key,value; got {len(row)} columns"
                )
            instance, key, raw = row
            parsed = instance, _int_key(key) if int_keys else key, _csv_value(raw)
        except ValueError as exc:
            raise RowDecodeError(f"CSV line {line}", str(exc), line) from None
        yield parsed


def jsonl_rows(lines: Iterable[str], *, int_keys: bool = False) -> Iterator[tuple]:
    """Yield the rows of JSON ``lines``, one ``{"instance", "key", "value"}``
    object per non-blank line; ``JSONL line N`` counts every line."""
    for line, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            record = json.loads(text)  # a JSONDecodeError is a ValueError
            if not isinstance(record, dict) or not record.keys() >= {*_CSV_HEADER}:
                raise ValueError("expected an {instance, key, value} object")
            row = _json_row(*(record[name] for name in _CSV_HEADER), int_keys)
        except ValueError as exc:
            raise RowDecodeError(f"JSONL line {line}", str(exc), line) from None
        yield row


def json_rows(rows: list) -> Iterator[tuple]:
    """Yield the ``rows`` of a JSON ingest body: ``[instance, key, value]``
    triples under the JSON row rule, a bad one named ``rows[i]``."""
    for index, row in enumerate(rows):
        try:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError("expected an [instance, key, value] triple")
            parsed = _json_row(*row)
        except ValueError as exc:
            raise RowDecodeError(f"rows[{index}]", str(exc)) from None
        yield parsed


def json_columns(instance: object, keys: list, values: list) -> tuple:
    """One batch from the columns of a JSON ingest body, a bad row named
    ``instance``, ``keys[i]`` or ``values[i]``; one type pass checks keys."""
    if type(instance) in _BAD_LABEL_TYPES:
        raise RowDecodeError("instance", _BAD_LABEL.format("instance", instance))
    bad = _bad_label(keys)
    if bad is not None:
        raise RowDecodeError(f"keys[{bad}]", _BAD_LABEL.format("key", keys[bad]))
    column = []
    try:
        for index, value in enumerate(values):
            column.append(_update_value(value))
    except ValueError as exc:
        raise RowDecodeError(f"values[{index}]", str(exc)) from None
    return instance, keys, column


class IngestFormat(NamedTuple):
    """An ingest format: its HTTP content type (None: not served), CLI file
    suffixes (empty: not read) and row decoder (None: decoded whole)."""

    content_type: str | None
    suffixes: tuple[str, ...]
    rows: Callable[..., Iterator[tuple]] | None


#: format name (HTTP ``?format=``, CLI ``--format``) -> format
INGEST_FORMATS: dict[str, IngestFormat] = {
    "json": IngestFormat("application/json", (), None),
    "csv": IngestFormat("text/csv", (".csv",), csv_rows),
    "jsonl": IngestFormat(None, (".jsonl", ".ndjson"), jsonl_rows),
    "binary": IngestFormat("application/x-repro-batch", (".rbat", ".bin"), None),
}


def _coalesce_batches(
    batches: Iterable[tuple[object, Sequence[object], Sequence[float]]],
) -> list[tuple[object, object, object]]:
    """Merge column batches of the same instance into one column each.

    Safe under the streaming permutation guarantee — sketch state does
    not depend on how a stream is batched — and it amortises per-batch
    engine planning over the whole group.
    """
    groups: dict[object, tuple[list, list]] = {}
    for instance, keys, values in batches:
        columns = groups.get(instance)
        if columns is None:
            columns = groups[instance] = ([], [])
        columns[0].append(keys)
        columns[1].append(values)
    coalesced: list[tuple[object, object, object]] = []
    for instance, (key_columns, value_columns) in groups.items():
        if len(key_columns) == 1:
            keys, values = key_columns[0], value_columns[0]
        elif all(
            isinstance(column, np.ndarray) for column in key_columns
        ):
            keys = np.concatenate(key_columns)
            values = np.concatenate(
                [np.asarray(col, dtype=float) for col in value_columns]
            )
        else:
            keys = [key for column in key_columns for key in column]
            values = np.concatenate(
                [np.asarray(col, dtype=float) for col in value_columns]
            )
        coalesced.append((instance, keys, values))
    return coalesced


def _checked_columns(keys: Sequence[object], values: object) -> np.ndarray:
    """Validate one column batch ahead of multiprocess dispatch.

    The thread backend validates inside ``ingest_jobs`` *before* any
    state changes; the dispatch path acknowledges before workers apply,
    so the same rejections must happen parent-side first.
    """
    column = np.asarray(values, dtype=float)
    if column.ndim != 1 or column.shape[0] != len(keys):
        raise InvalidParameterError(
            f"keys ({len(keys)}) and values (shape {column.shape}) must "
            "be equal-length 1-D columns"
        )
    if column.size:
        if not np.all(np.isfinite(column)):
            raise InvalidParameterError(
                "update values must be finite"
            )
        if bool((column < 0).any()):
            raise InvalidParameterError(
                "update weights must be nonnegative"
            )
    return column


def _check_replay_version(name: str, entry: _StoreEntry, version: int) -> None:
    """Refuse a replayed batch the store already holds (caller holds
    ``entry.cond``): skipping applied records is the caller's job."""
    if version <= entry.version:
        raise InvalidParameterError(
            f"replayed batch for {name!r} carries version {version} but "
            f"the store is already at {entry.version}; skip-checks belong "
            "to the caller"
        )


class SketchStore:
    """Named, versioned, concurrently ingestible sketch engines.

    Examples
    --------
    >>> from repro.sampling.seeds import SeedAssigner
    >>> store = SketchStore()
    >>> _ = store.create("traffic", kind="poisson", threshold=0.5,
    ...                  seed_assigner=SeedAssigner(salt=7))
    >>> store.submit(IngestRequest(
    ...     engine="traffic",
    ...     batches=(("monday", ["alice", "bob"], [3.0, 1.0]),)))
    1
    >>> store.version("traffic")
    1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _StoreEntry] = {}
        self._planner: "QueryPlanner | None" = None
        #: duck-typed repro.wal.WriteAheadLog (kept untyped to avoid a
        #: service -> wal -> server import cycle)
        self._wal = None
        #: duck-typed repro.cluster.ShardWorkerPool; when set, ingest
        #: dispatches to worker processes instead of running in-process
        self._pool = None

    # ------------------------------------------------------------------
    # Durability log
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`repro.wal.WriteAheadLog`, or ``None``."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Attach a write-ahead log: from now on every ingest batch and
        engine-state change is appended *before* it is applied.

        The log records batches in the :mod:`repro.server.wire` columnar
        format, so a WAL-attached store only accepts wire-encodable keys
        (str / int64 / the tagged instance labels) and finite values —
        the same contract as the binary ingest endpoint.  Attach the log
        *after* recovery replay and before serving traffic; re-attaching
        is an error.
        """
        if wal is None:
            raise InvalidParameterError("cannot attach wal=None")
        if self._wal is not None:
            raise InvalidParameterError(
                "a write-ahead log is already attached to this store"
            )
        self._wal = wal

    # ------------------------------------------------------------------
    # Multiprocess shard workers
    # ------------------------------------------------------------------
    @property
    def has_workers(self) -> bool:
        """Whether the multiprocess shard-worker backend is active."""
        return self._pool is not None

    def start_workers(
        self,
        n_workers: int,
        *,
        transport: str = "shm",
        ring_bytes: int | None = None,
        mp_method: str | None = None,
    ) -> None:
        """Swap ingest execution onto ``n_workers`` shard processes.

        Each worker owns the shards ``s % n_workers == worker_id`` of
        every engine and starts from an *empty* configured clone (the
        parent keeps all pre-existing state); quiescent reads fold the
        workers' deltas back through the associative merge, bit-exact
        with single-process ingest.  Call before serving concurrent
        traffic; engines registered later join the pool automatically.
        Worker-mode ingest requires wire-encodable keys (the binary
        ingest contract) and engines with a recorded configuration.
        """
        from repro.cluster import DEFAULT_RING_BYTES, ShardWorkerPool

        if self._pool is not None:
            raise InvalidParameterError(
                "shard workers are already running for this store"
            )
        # fail fast (before any process exists) on template-less engines
        templates = {
            name: self._engine_template(name, self._entry(name).engine)
            for name in self.names()
        }
        pool = ShardWorkerPool(
            n_workers,
            transport=transport,
            ring_bytes=(
                DEFAULT_RING_BYTES if ring_bytes is None else ring_bytes
            ),
            mp_method=mp_method,
        )
        pool.start()
        try:
            for name, blob in templates.items():
                pool.register_engine(name, blob)
        except Exception:
            pool.stop()
            raise
        # all existing state lives in the parent: the fold frontier is
        # exactly the current version of every engine
        for name in self.names():
            with self._read(name) as entry:
                entry.synced_version = entry.version
        self._pool = pool

    def stop_workers(self) -> None:
        """Fold outstanding worker deltas, then stop every worker.

        The pool is torn down even when the final fold fails (crashed
        workers without a WAL to heal from): the exception still
        propagates, but no orphaned worker processes linger.
        """
        pool = self._pool
        if pool is None:
            return
        try:
            with pool.lock:
                try:
                    for name, entry in list(self._entries.items()):
                        self._sync_one(name, entry)
                finally:
                    self._pool = None
        finally:
            pool.stop()

    def worker_probes(self) -> list[dict]:
        """Per-worker observability rows (empty without workers)."""
        pool = self._pool
        if pool is None:
            return []
        return pool.probes()

    @staticmethod
    def _engine_template(name: str, engine: StreamEngine) -> bytes:
        """Empty configured clone of ``engine`` — the worker reset
        template (workers accumulate pure deltas on top of it)."""
        config = engine.sketch_config
        if not config:
            raise InvalidParameterError(
                f"engine {name!r} was built from a custom factory and "
                "carries no recorded configuration; shard workers need "
                "one to build their empty reset template"
            )
        kind = config.get("kind")
        if kind == "bottom_k":
            template = StreamEngine.bottom_k(
                k=config["k"],
                rank_family=config.get("rank_family"),
                seed_assigner=config.get("seed_assigner"),
                n_shards=engine.n_shards,
            )
        elif kind == "poisson":
            template = StreamEngine.poisson(
                threshold=config["threshold"],
                rank_family=config.get("rank_family"),
                seed_assigner=config.get("seed_assigner"),
                n_shards=engine.n_shards,
            )
        else:
            raise InvalidParameterError(
                f"engine {name!r} has unknown sketch kind {kind!r}"
            )
        return codec.to_bytes(template)

    def _sync_one(self, name: str, entry: _StoreEntry) -> None:
        """Fold worker deltas for ``name`` into the parent engine.

        Caller holds ``pool.lock``, so no dispatch can interleave and
        the fold frontier lands exactly on the current version.  Crashed
        workers are healed (respawn + WAL-tail replay) and the collect
        retried; deltas a crash-interrupted collect already reset out of
        live workers are preserved by the pool and folded here too.
        """
        from repro.cluster import WorkerCrashError

        pool = self._pool
        with entry.cond:
            if entry.synced_version == entry.version:
                return
        for _ in range(8):
            try:
                states = pool.collect(name)
                break
            except WorkerCrashError:
                self._heal_workers()
        else:
            raise RuntimeError(
                f"shard workers kept crashing while folding {name!r}; "
                "giving up after 8 heal attempts"
            )
        with entry.cond:
            with span(
                "store.fold", engine=name, deltas=len(states)
            ):
                for blob in states:
                    # ownership-transferring fold: untouched shards adopt
                    # the decoded delta sketch bit-exactly
                    entry.engine.fold_delta(codec.from_bytes(blob))
            entry.synced_version = entry.version
            entry.shard_locks.clear()

    def _heal_workers(self) -> None:
        """Respawn dead workers and replay their un-folded WAL tail.

        Caller holds ``pool.lock``.  A respawned worker restarts from
        empty templates, so every batch in ``(synced_version, version]``
        of every engine — the delta the dead incarnation held — is
        re-dispatched to it from the log.  Those windows never contain
        engine records: ``adopt``/``merge_store`` advance the fold
        frontier to the version they write.
        """
        from repro.wal.log import RECORD_BATCH

        pool = self._pool
        dead = pool.dead_workers()
        if not dead:
            return
        if self._wal is None:
            raise RuntimeError(
                f"shard worker(s) {dead} died with no write-ahead log "
                "attached; their un-folded deltas are unrecoverable — "
                "serve with a WAL to make worker crashes survivable"
            )
        windows: dict[str, tuple[int, int]] = {}
        for name, entry in list(self._entries.items()):
            with entry.cond:
                if entry.synced_version < entry.version:
                    windows[name] = (entry.synced_version, entry.version)
        records = []
        if windows:
            records, _ = self._wal.read_all()
        with span("store.heal_workers", dead=len(dead)) as attrs:
            replayed = 0
            for index in dead:
                pool.respawn(index)
                for record in records:
                    if record.kind != RECORD_BATCH:
                        continue
                    window = windows.get(record.name)
                    if window is None:
                        continue
                    low, high = window
                    if low < record.version <= high:
                        pool.dispatch_to(index, record.name, record.payload)
                        replayed += 1
            attrs["replayed_batches"] = replayed

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        kind: str = "bottom_k",
        *,
        k: int | None = None,
        threshold: float | None = None,
        rank_family: RankFamily | None = None,
        seed_assigner: SeedAssigner | None = None,
        n_shards: int = 8,
    ) -> StreamEngine:
        """Create, register and return a named engine."""
        if kind == "bottom_k":
            if k is None:
                raise InvalidParameterError(
                    "a bottom_k store requires the sample size k"
                )
            if threshold is not None:
                raise InvalidParameterError(
                    "threshold applies to poisson stores only"
                )
            engine = StreamEngine.bottom_k(
                k=k,
                rank_family=rank_family,
                seed_assigner=seed_assigner,
                n_shards=n_shards,
            )
        elif kind == "poisson":
            if threshold is None:
                raise InvalidParameterError(
                    "a poisson store requires a threshold"
                )
            if k is not None:
                raise InvalidParameterError(
                    "k applies to bottom_k stores only"
                )
            engine = StreamEngine.poisson(
                threshold=threshold,
                rank_family=rank_family,
                seed_assigner=seed_assigner,
                n_shards=n_shards,
            )
        else:
            raise InvalidParameterError(
                f"unknown sketch kind {kind!r}; use 'bottom_k' or 'poisson'"
            )
        self.register(name, engine)
        return engine

    def create_from_config(self, config) -> StreamEngine:
        """Create a named engine from a flat, JSON-style configuration.

        The shared creation path of the serving surfaces — HTTP ``POST
        /engines`` bodies and the serve CLI's ``--create`` specs — so
        both apply identical defaults.  Keys: ``name`` (required),
        ``kind`` (default ``bottom_k``), ``k`` (default 64),
        ``threshold`` (required for poisson), ``ranks`` (rank-family
        name; the family default when omitted), ``salt`` (default 0),
        ``coordinated`` (bool or "1"/"true"/"yes" string), ``n_shards``
        (default 8).  Numeric values may arrive as strings.
        """
        allowed = {
            "name", "kind", "k", "threshold", "ranks", "salt",
            "coordinated", "n_shards",
        }
        unknown = sorted(set(config) - allowed)
        if unknown:
            raise InvalidParameterError(
                f"unknown engine config keys {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        name = config.get("name")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                f"engine config requires a string 'name', got {name!r}"
            )
        kind = config.get("kind", "bottom_k")
        ranks = config.get("ranks")
        coordinated = config.get("coordinated", False)
        if isinstance(coordinated, str):
            coordinated = coordinated.lower() in ("1", "true", "yes")
        kwargs = {
            "rank_family": (
                rank_family_from_name(ranks) if ranks is not None else None
            ),
            "seed_assigner": SeedAssigner(
                salt=int(config.get("salt", 0)),
                coordinated=bool(coordinated),
            ),
            "n_shards": int(config.get("n_shards", 8)),
        }
        if kind == "bottom_k":
            kwargs["k"] = int(config.get("k", 64))
        elif kind == "poisson":
            if config.get("threshold") is None:
                raise InvalidParameterError(
                    f"a poisson engine requires a 'threshold' "
                    f"(engine {name!r})"
                )
            kwargs["threshold"] = float(config["threshold"])
        # unknown kinds fall through to create(), which rejects them
        return self.create(name, kind, **kwargs)

    def register(
        self, name: str, engine: StreamEngine, version: int = 0
    ) -> None:
        """Register an existing engine under ``name``.

        Engines built from custom factories are accepted for in-memory
        use, but :meth:`snapshot` and :meth:`merge_snapshot` require the
        recorded configuration of ``StreamEngine.bottom_k`` /
        ``StreamEngine.poisson`` engines.
        """
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                f"store names must be non-empty strings, got {name!r}"
            )
        if not isinstance(engine, StreamEngine):
            raise InvalidParameterError(
                f"expected a StreamEngine, got {type(engine).__name__}"
            )
        pool = self._pool
        template = (
            self._engine_template(name, engine) if pool is not None else None
        )
        with self._lock:
            if name in self._entries:
                raise InvalidParameterError(
                    f"store {name!r} already exists"
                )
            if self._wal is not None:
                self._wal.append_engine(
                    name, int(version), codec.to_bytes(engine)
                )
            self._entries[name] = _StoreEntry(engine, version)
            if template is not None:
                from repro.cluster import WorkerCrashError

                with pool.lock:
                    try:
                        pool.register_engine(name, template)
                    except WorkerCrashError:
                        # respawn re-sends every template, this one
                        # included
                        self._heal_workers()

    def adopt(
        self, name: str, engine: StreamEngine, version: int = 0
    ) -> None:
        """Register ``name`` or replace its engine wholesale.

        The replication / recovery counterpart of :meth:`register`: a
        follower applying an engine-state record must overwrite whatever
        it currently holds.  Replacement waits for in-flight ingests to
        drain, keeps the version monotone (``max(local, version)``), and
        logs an engine record when a WAL is attached.  The version may
        stay put, so replacement advances the entry's epoch instead: the
        query caches key on both.
        """
        if name not in self:
            self.register(name, engine, version=version)
            return
        if not isinstance(engine, StreamEngine):
            raise InvalidParameterError(
                f"expected a StreamEngine, got {type(engine).__name__}"
            )
        with self._read(name) as entry:
            new_version = max(entry.version, int(version))
            if self._wal is not None:
                self._wal.append_engine(
                    name, new_version, codec.to_bytes(engine)
                )
            entry.engine = engine
            entry.version = new_version
            entry.epoch += 1
            entry.columns = (None, {})
            entry.synced_version = new_version
            entry.shard_locks.clear()
            pool = self._pool
            if pool is not None:
                # the read already folded and reset the workers; replace
                # their template so future deltas match the new config
                from repro.cluster import WorkerCrashError

                try:
                    pool.register_engine(
                        name, self._engine_template(name, engine)
                    )
                except WorkerCrashError:
                    self._heal_workers()

    def names(self) -> list[str]:
        """Registered engine names, in registration order."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def _entry(self, name: str) -> _StoreEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownStoreError(
                    f"unknown store {name!r}; registered: "
                    f"{list(self._entries)}"
                ) from None

    def engine(self, name: str, *, sync: bool = False) -> StreamEngine:
        """The live engine registered under ``name`` (not a copy).

        With shard workers running the parent's engine object lags the
        dispatched batches until a quiescent read folds the workers'
        deltas in; ``sync=True`` forces that fold first.  The default
        stays cheap (no worker round-trip) for observability probes
        that tolerate staleness.  Queries never read it: they go through
        the quiescent reads :meth:`snapshot_view`, :meth:`column_view`
        and :meth:`merged_sketch`, which sync.  Mutating the returned
        engine directly bypasses the version, so cached query results and
        memoised column views would not see the change.
        """
        if sync:
            with self._read(name) as entry:
                return entry.engine
        return self._entry(name).engine

    def version(self, name: str) -> int:
        """Monotone ingest counter of ``name`` (0 for a fresh engine)."""
        entry = self._entry(name)
        with entry.cond:
            return entry.version

    def state_hint(self, name: str) -> tuple[int, int]:
        """Lock-free ``(version, epoch)`` of ``name`` — possibly a moment
        stale; the pair keys every cache of query results.

        :meth:`version` waits on the per-engine condition lock, which an
        in-flight ingest holds while planning a whole batch; serving
        event loops that must never block (the HTTP server's cache
        probe, metrics scrapes) read the counters without it.  Under the
        GIL each read is atomic, and a stale pair only makes a cache
        probe miss or return a result correctly labelled with an older
        state.
        """
        entry = self._entry(name)
        return entry.version, entry.epoch

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, request: IngestRequest) -> int:
        """Run one :class:`IngestRequest` — the single ingest choke point.

        Every surface funnels here: per-batch API ingest, grouped binary
        batches, row triples (via :func:`group_rows`), and recovery
        replay (``request.version`` set).  Dispatches to the thread
        backend or the multiprocess shard workers, whichever is active.
        Returns the engine version after the request (the current
        version when ``request.batches`` is empty).
        """
        if not isinstance(request, IngestRequest):
            raise InvalidParameterError(
                f"submit() takes an IngestRequest, got "
                f"{type(request).__name__}"
            )
        name = request.engine
        entry = self._entry(name)
        if request.version is not None:
            instance, keys, values = request.batches[0]
            return self._replay(
                name, entry, int(request.version), instance, keys, values
            )
        triples = (
            _coalesce_batches(request.batches)
            if request.coalesce
            else list(request.batches)
        )
        version: int | None = None
        for instance, keys, values in triples:
            if self._pool is not None:
                version = self._dispatch(name, entry, instance, keys, values)
            else:
                version = self._ingest_one(name, entry, instance, keys, values)
        if version is None:
            with entry.cond:
                return entry.version
        return version

    def _ingest_one(
        self,
        name: str,
        entry: _StoreEntry,
        instance: object,
        keys: Sequence[object],
        values,
    ) -> int:
        """One live batch through the thread backend.

        Safe to call from many threads at once — batch planning
        (hashing, sharding, sketch creation) is serialized on the
        engine, while the per-shard sketch updates run under
        per-(instance, shard) locks so different shards make progress in
        parallel.  Returns the new version.
        """
        with entry.cond:
            jobs = entry.engine.ingest_jobs(instance, keys, values)
            if self._wal is not None:
                # append-before-apply: the version this batch will carry
                # once applied is the idempotence key recovery replays
                # against.  version + in_flight is invariant under
                # completions, so planned versions are the exact sequence
                # the quiescent (snapshot-visible) counter runs through.
                self._wal.append_batch(
                    name,
                    entry.version + entry.in_flight + 1,
                    instance,
                    keys,
                    values,
                )
            for job in jobs:
                entry.shard_locks.setdefault(
                    (instance, job.shard), threading.Lock()
                )
            entry.in_flight += 1
        try:
            with span("store.ingest", engine=name, shards=len(jobs)):
                for job in jobs:
                    with entry.shard_locks[(instance, job.shard)]:
                        StreamEngine.run_job(job)
        finally:
            with entry.cond:
                entry.in_flight -= 1
                entry.version += 1
                version = entry.version
                entry.cond.notify_all()
        return version

    def _dispatch(
        self,
        name: str,
        entry: _StoreEntry,
        instance: object,
        keys: Sequence[object],
        values,
        forced: int | None = None,
    ) -> int:
        """Wire-encode one batch and broadcast it to the shard workers.

        ``forced`` is the recorded version of a replayed batch (``None``
        for live ingest, which takes the next version).
        Append-before-dispatch: with a WAL attached the batch is logged
        (byte-identical to the record the thread backend writes) before
        any worker sees it, so a parent crash after the ack replays it
        on restart and a worker crash replays the un-folded tail to the
        respawned slot.  The version bump lands *before* crash healing
        so the healed worker's replay window includes this batch.
        """
        from repro.cluster import WorkerCrashError
        from repro.server.wire import encode_batches

        pool = self._pool
        # workers apply after the ack, so the rejections ingest_jobs
        # would have raised must happen parent-side first
        column = _checked_columns(keys, values)
        blob = encode_batches([(instance, keys, column)])
        with pool.lock:
            with entry.cond:
                if forced is None:
                    version = entry.version + 1
                else:
                    version = forced
                    _check_replay_version(name, entry, version)
                if self._wal is not None:
                    self._wal.append_batch_blob(name, version, blob)
            crashed = False
            with span(
                "store.dispatch" if forced is None else "store.replay",
                engine=name,
                rows=int(column.shape[0]),
            ):
                try:
                    pool.dispatch(name, blob)
                except WorkerCrashError:
                    crashed = True
            with entry.cond:
                entry.version = version
                entry.cond.notify_all()
            if crashed:
                self._heal_workers()
        return version

    def _replay(
        self,
        name: str,
        entry: _StoreEntry,
        version: int,
        instance: object,
        keys: Sequence[object],
        values,
    ) -> int:
        """Apply a logged ingest batch, forcing its recorded version.

        Recovery and replica catch-up re-apply batches that already have
        a version assigned by the origin store; applying them as live
        ingest would re-number them.  Runs quiescently (no concurrent
        ingest can interleave), bumps the version to the record's value,
        and — when this store has its *own* WAL attached (a durable
        follower) — logs the batch before applying, same as a live
        ingest.  Returns the new version.
        """
        if self._pool is not None:
            return self._dispatch(
                name, entry, instance, keys, values, forced=version
            )
        with entry.cond:
            while entry.in_flight:
                entry.cond.wait()
            _check_replay_version(name, entry, version)
            if self._wal is not None:
                self._wal.append_batch(name, version, instance, keys, values)
            jobs = entry.engine.ingest_jobs(instance, keys, values)
            with span("store.replay", engine=name, shards=len(jobs)):
                for job in jobs:
                    StreamEngine.run_job(job)
            entry.version = version
            entry.cond.notify_all()
            return entry.version

    # ------------------------------------------------------------------
    # Quiescent reads
    # ------------------------------------------------------------------
    @contextmanager
    def _read(self, name: str):
        """Yield the entry once no ingest is in flight, blocking new
        ingests for the duration (they queue on the condition lock).

        With shard workers attached, first folds outstanding worker
        deltas into the parent engine — under the pool lock, so no
        dispatch can interleave: the yielded engine is then the exact
        serial-ingest state at the yielded version.
        """
        entry = self._entry(name)
        pool = self._pool
        if pool is not None:
            with pool.lock:
                if self._pool is pool:  # raced a stop_workers()
                    self._sync_one(name, entry)
                with entry.cond:
                    while entry.in_flight:
                        entry.cond.wait()
                    yield entry
            return
        with entry.cond:
            while entry.in_flight:
                entry.cond.wait()
            yield entry

    def snapshot_view(
        self, name: str, instances: Sequence[object]
    ) -> tuple[int, list]:
        """A consistent ``(version, merged sketches)`` view of ``name``."""
        with self._read(name) as entry:
            return (
                entry.version,
                [entry.engine.sketch(label) for label in instances],
            )

    def column_view(
        self, name: str, instances: Sequence[object]
    ) -> tuple[int, list[SketchColumns]]:
        """A consistent ``(version, column views)`` read of ``name``.

        The views (:class:`~repro.streaming.query.SketchColumns`) of the
        merged Poisson sketches are memoised per ``(version, epoch)``:
        the first read of an instance folds its shards and hashes its
        keys once, and every later read at the same state reuses that
        work.  The memo holds one state at most; a read at a new state
        replaces it wholesale.
        """
        with self._read(name) as entry:
            key = (entry.version, entry.epoch)
            memo_key, views = entry.columns
            if memo_key != key:
                views = {}
                entry.columns = (key, views)
            missing = [label for label in instances if label not in views]
            if missing:
                with span("store.columns", engine=name, instances=len(missing)):
                    for label in missing:
                        views[label] = SketchColumns.of(
                            entry.engine.sketch(label)
                        )
            return entry.version, [views[label] for label in instances]

    def merged_sketch(self, name: str, instance: object):
        """The cross-shard merged sketch of one instance."""
        with self._read(name) as entry:
            return entry.engine.sketch(instance)

    def sample(self, name: str, instance: object):
        """Offline-sample snapshot of one instance."""
        return self.merged_sketch(name, instance).to_sample()

    def describe(self) -> dict:
        """Human/JSON-friendly summary of every registered engine."""
        summary: dict[str, dict] = {}
        for name in self.names():
            with self._read(name) as entry:
                engine = entry.engine
                config = engine.sketch_config or {}
                summary[name] = {
                    "kind": config.get("kind", "custom"),
                    "version": entry.version,
                    "n_updates": engine.n_updates,
                    "n_shards": engine.n_shards,
                    "instances": {
                        str(label): len(engine.sketch(label))
                        for label in engine.instance_labels
                    },
                }
        return summary

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self, path) -> Path:
        """Write the whole store to ``path`` via the binary codec."""
        return self.snapshot_marked(path)[0]

    def snapshot_marked(
        self, path, *, checkpoint_wal: bool = True
    ) -> tuple[Path, dict]:
        """:meth:`snapshot` plus the exact per-engine marks written.

        Returns ``(path, marks)`` where ``marks[name]`` is the
        ``(version, change_tick)`` pair captured *inside* each engine's
        quiescent read — i.e. exactly the state that landed in the file.
        Serving layers use the marks for dirty tracking: an ingest that
        completes while a later engine is still being serialized must
        not be considered snapshotted.

        With a WAL attached, a successful snapshot checkpoints the log:
        segments whose records all predate the snapshot are deleted.
        The cutoff LSN is captured *before* any engine is serialized, so
        a batch racing the snapshot is always either in the file or in
        the surviving tail — replay's version checks make the overlap
        harmless.  ``checkpoint_wal=False`` keeps the log intact (ad-hoc
        snapshot copies must not weaken the primary's recovery story).
        """
        items = []
        marks: dict[str, tuple[int, int]] = {}
        with span("store.snapshot") as attrs:
            cutoff = self._wal.last_lsn if self._wal is not None else None
            for name in self.names():
                with self._read(name) as entry:
                    items.append(
                        (name, entry.version, codec.to_bytes(entry.engine))
                    )
                    marks[name] = (entry.version, entry.engine.change_tick)
            path = Path(path)
            # atomic replace: a crash mid-write must never truncate the
            # only copy of the store (the serve CLI snapshots onto
            # --store itself)
            scratch = path.with_name(path.name + ".tmp")
            blob = codec.store_to_bytes(items)
            scratch.write_bytes(blob)
            os.replace(scratch, path)
            attrs["engines"] = len(items)
            attrs["bytes"] = len(blob)
            if checkpoint_wal and cutoff is not None:
                attrs["wal_segments_dropped"] = self._wal.checkpoint(cutoff)
        return path, marks

    def to_bytes(self) -> bytes:
        """Serialize the whole store to one snapshot blob, no file.

        Same format as :meth:`snapshot` (readable by
        :func:`repro.service.codec.store_from_bytes`); used by the
        ``/replicate`` full-delta mode when the WAL tail a follower asks
        for was already checkpointed away.
        """
        items = []
        for name in self.names():
            with self._read(name) as entry:
                items.append(
                    (name, entry.version, codec.to_bytes(entry.engine))
                )
        return codec.store_to_bytes(items)

    @classmethod
    def restore(cls, path) -> "SketchStore":
        """Rebuild a store from a :meth:`snapshot` file.

        The restored store is state-identical: same engines, same
        versions, same query results.
        """
        store = cls()
        path = Path(path)
        with span("store.restore") as attrs:
            data = path.read_bytes()
            try:
                entries = codec.store_from_bytes(data)
            except SketchCodecError as exc:
                raise SketchCodecError(
                    f"corrupt store snapshot {path} "
                    f"({len(data)} bytes): {exc}"
                ) from exc
            for name, version, engine in entries:
                store.register(name, engine, version=version)
            attrs["engines"] = len(store.names())
        return store

    # ------------------------------------------------------------------
    # Fan-in
    # ------------------------------------------------------------------
    def merge_store(self, other: "SketchStore") -> None:
        """Fold every engine of ``other`` into this store.

        Engines present in both stores are merged shard-by-shard through
        the streaming merge algebra (configurations and shard counts must
        match); engines only ``other`` has are adopted.  Either way the
        engines are copied through the codec, so the peer store is left
        untouched and shares no state.  Merged names get version
        ``max(local, peer) + 1`` so cached query results are invalidated.
        """
        for name in other.names():
            with other._read(name) as peer_entry:
                blob = codec.to_bytes(peer_entry.engine)
                peer_version = peer_entry.version
            peer_engine = codec.from_bytes(blob)
            if name not in self:
                self.register(name, peer_engine, version=peer_version)
                continue
            with self._read(name) as entry:
                entry.engine.merge_from(peer_engine)
                entry.version = max(entry.version, peer_version) + 1
                # the read folded the workers' deltas, so the peer state
                # merged into the parent is the whole story
                entry.synced_version = entry.version
                entry.shard_locks.clear()
                if self._wal is not None:
                    # a merge is not replayable from batches — log the
                    # full post-merge state so recovery sees it
                    self._wal.append_engine(
                        name, entry.version, codec.to_bytes(entry.engine)
                    )

    def merge_snapshot(self, path) -> None:
        """Fold a peer's :meth:`snapshot` file into this store."""
        self.merge_store(SketchStore.restore(path))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def planner(self) -> "QueryPlanner":
        """The store's default (version-cached) query planner.

        Built lazily on first use and shared by every serving surface —
        :meth:`query`, the CLI, and the HTTP front-end — so they all see
        one cache and one set of hit/miss counters.
        """
        with self._lock:
            if self._planner is None:
                from repro.service.queries import QueryPlanner

                self._planner = QueryPlanner(self)
            return self._planner

    def query(self, name: str, query):
        """Run a :class:`repro.service.queries.Query` through the store's
        default (version-cached) planner."""
        return self.planner().run(name, query)
