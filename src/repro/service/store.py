"""Persistent registry of named sketch engines with concurrent ingest.

:class:`SketchStore` is the long-lived state of the serving layer: a
registry of named :class:`~repro.streaming.StreamEngine` instances with

* **thread-safe concurrent ingest** — one writer per engine: each
  ingest group is logged, planned and applied under the engine's lock
  (under the GIL a second writer adds convoy, not compute).  Because
  sketch state is insensitive to update order (the streaming
  permutation guarantee), concurrent ingest of pre-aggregated updates
  produces sketches identical to serial ingest;
* **monotone version counters** — every completed ingest bumps the named
  engine's version and records it as the last change of the instance
  whose sample it changed, and every engine replacement bumps the
  engine's epoch; the epoch and the last-change versions of the
  instances a read touches key the query-result cache of
  :class:`repro.service.queries.QueryPlanner` and the store's own memo
  of per-instance column views (:meth:`SketchStore.column_view`), so a
  write to one instance leaves the others' views and answers in place;
* **durability** — :meth:`snapshot` writes the whole store through the
  versioned binary codec and :meth:`restore` brings it back,
  state-identical;
* **distributed-style fan-in** — :meth:`merge_snapshot` folds a peer's
  snapshot file into this store shard-by-shard via the associative merge
  algebra of :mod:`repro.streaming.merge`.

Reads (queries, snapshots, merges) are quiescent: they hold the engine's
lock, so they wait for at most one group's apply and briefly block new
ingests, and every exported state and every version observed is a
consistent point-in-time view.  A query read or a submit may instead
refuse to wait (``column_view(..., wait=False)``, ``submit(...,
wait=False)``): it takes the lock only if it is free and otherwise
raises :class:`~repro.exceptions.EngineBusyError` before any change.

Every ingest surface — live API calls, binary batch groups, row
triples (grouped by :func:`group_rows`), recovery replay — funnels
through one validated call shape: :class:`IngestRequest` via
:meth:`SketchStore.submit`, one write pipeline.  It validates every
group of a request before it logs or applies any, so a rejected request
leaves the store as it was; then it logs, plans and applies the groups
in turn.  Both the HTTP server and the CLI read the text formats of
:data:`INGEST_FORMATS` through the row decoders here.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import re
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro.exceptions import (
    EngineBusyError,
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
from repro.streaming.sketch import StreamingPoisson

if TYPE_CHECKING:
    from repro.service.queries import QueryPlanner

__all__ = ["INGEST_FORMATS", "IngestFormat", "IngestRequest", "SketchStore",
           "csv_rows", "group_rows", "json_columns", "json_rows", "jsonl_rows"]


class _InstanceState(NamedTuple):
    """Which state of an engine's instances a derived value was read at.

    ``epoch`` counts engine replacements (:meth:`SketchStore.adopt`),
    and ``ticks`` maps each instance whose sample changed since the last
    one to the engine version that last changed it; an instance absent
    from it is at tick 0.  Versions only grow within an epoch and every
    change takes a new one, so ``(epoch, tick)`` names one state of one
    instance.  A write moves its instances' ticks in place, under the
    engine lock; only a replacement publishes a new value, so a
    lock-free reader always pairs ticks with the epoch they belong to.
    """

    epoch: int
    ticks: dict[object, int]

    def key(self, instances: Iterable[object]) -> tuple:
        """``(epoch, ticks of instances)``: the cache key of a value
        derived from exactly these instances."""
        ticks = self.ticks
        return self.epoch, tuple([ticks.get(label, 0) for label in instances])


class _StoreEntry:
    """A named engine plus its lock, version, per-instance change state
    and column-view memo.

    ``state`` (an :class:`_InstanceState`) keys every cache of derived
    state: the column memo here and the result cache of
    :class:`repro.service.queries.QueryPlanner`.  Every path that changes
    an instance moves that instance's tick under the lock — a submit
    (live or replayed) the instance of each group whose plan routes a
    row to a shard, a merge every instance the peer holds — and an
    engine replacement moves the epoch, so no cached value outlives the
    state it was read at, and a write to one instance keeps the others'
    views and answers.
    """

    __slots__ = (
        "engine",
        "version",
        "lock",
        "state",
        "columns",
    )

    def __init__(self, engine: StreamEngine, version: int = 0) -> None:
        self.engine = engine
        self.version = int(version)
        #: the one writer lock: a submit holds it while it logs, plans
        #: and applies one group (a non-waiting submit, the whole
        #: request), and a read holds it for the whole read.  A read or
        #: submit made with ``wait=False`` (the HTTP server's inline
        #: query and small ingest) takes it only when it is free, so it
        #: never waits at all.  A plain Lock, not an RLock: no holder of
        #: it ever takes it again.
        self.lock = threading.Lock()
        #: replaced by an engine replacement, its ticks moved in place
        #: by every other change; read lock-free by the cache probe
        self.state = _InstanceState(0, {})
        #: the column-view memo, ``{instance: (tick, view)}`` of the
        #: current epoch: a view is rebuilt when its instance's tick
        #: moves, and an engine replacement empties the memo in the lock
        #: hold that moves the epoch
        self.columns: dict = {}


@dataclass(frozen=True)
class IngestRequest:
    """One validated ingest call shape shared by every execution path.

    Live ingest and recovery replay both consume this via
    :meth:`SketchStore.submit`:

    ``engine``
        Target engine name.
    ``batches``
        ``(instance, keys, values)`` column triples (one or many;
        :class:`repro.server.wire` ``WireBatch`` tuples work as-is, and
        a decoded binary body already holds one per instance).
    ``version``
        ``None`` for live ingest (the store assigns the next version);
        an explicit version — an integer >= 1, not a bool — turns the
        submit into a *replay* of a logged batch: quiescent,
        version-forced, exactly one batch.
    ``coalesce``
        Merge batches of the same instance into one column before
        ingesting (safe under the streaming permutation guarantee);
        disable to force one ingest per batch.  Row formats (CSV, JSON
        rows) group per instance already, and the binary decoder joins
        a body's batches per instance itself, so on the served paths
        every instance arrives as one batch and this merges nothing.
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
            try:
                hash(batch[0])
            except TypeError:
                raise InvalidParameterError(
                    "each IngestRequest instance must be hashable, got "
                    f"{type(batch[0]).__name__}"
                ) from None
        object.__setattr__(self, "batches", normalized)
        if self.version is not None:
            try:
                version = (
                    None if isinstance(self.version, bool)
                    else operator.index(self.version)
                )
            except TypeError:
                version = None
            if version is None or version < 1:
                raise InvalidParameterError(
                    "IngestRequest.version must be None or an integer "
                    f">= 1, got {self.version!r}"
                )
            object.__setattr__(self, "version", version)
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


_NDIM = operator.attrgetter("ndim")
_DTYPE = operator.attrgetter("dtype")


def _coalesce_batches(
    batches: Iterable[tuple[object, Sequence[object], Sequence[float]]],
) -> list[tuple[object, object, object]]:
    """Merge column batches of the same instance into one column each.

    Safe under the streaming permutation guarantee — sketch state does
    not depend on how a stream is batched — and it amortises per-batch
    engine planning over the whole group.  Merging changes no key and
    no refusal.  Key columns concatenate as one array only when all are
    1-D arrays of one dtype, since NumPy would promote mixed dtypes
    (int64 and uint64 keys become float64); other keys join as objects.
    A group holding a batch of the wrong shape (a key column that is not
    1-D, values that are not a column of its length) stays apart, so
    :meth:`StreamEngine.checked_columns` refuses that batch as it would
    refuse it alone.
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
            coalesced.append((instance, key_columns[0], value_columns[0]))
            continue
        value_columns = [np.asarray(col, dtype=float) for col in value_columns]
        if not (
            {getattr(column, "ndim", 1) for column in key_columns} == {1}
            and set(map(_NDIM, value_columns)) == {1}
            and list(map(len, key_columns)) == list(map(len, value_columns))
        ):
            coalesced.extend(
                (instance, keys, values)
                for keys, values in zip(key_columns, value_columns)
            )
            continue
        if (
            set(map(type, key_columns)) == {np.ndarray}
            and len(set(map(_DTYPE, key_columns))) == 1
        ):
            keys = np.concatenate(key_columns)
        else:
            keys = [key for column in key_columns for key in column]
        coalesced.append((instance, keys, np.concatenate(value_columns)))
    return coalesced


#: the strings an engine config's ``coordinated`` accepts (lowercased)
_CONFIG_FLAGS = {
    "0": False, "1": True, "false": False, "true": True,
    "no": False, "yes": True,
}


def _config_int(field_name: str, value: object) -> int:
    """An engine config's integer field: an int (not a bool) or a
    decimal-integer string; anything else is refused, never coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    raise InvalidParameterError(
        f"engine config {field_name!r} must be an integer, got {value!r}"
    )


def _config_flag(value: object) -> bool:
    """An engine config's ``coordinated``: a bool, 0/1, or a yes/no
    string of :data:`_CONFIG_FLAGS`; anything else is refused."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in _CONFIG_FLAGS:
        return _CONFIG_FLAGS[value.lower()]
    raise InvalidParameterError(
        "engine config 'coordinated' must be a bool, 0/1 or one of "
        f"{sorted(_CONFIG_FLAGS)}, got {value!r}"
    )


#: a memo miss: no view, at no tick
_NO_VIEW = (None, None)


def _instance_view(engine: StreamEngine, label: object, memoised: object):
    """The view of ``label`` that :meth:`SketchStore.column_view` serves.

    ``memoised`` is the memo's view of an earlier state of ``label``, or
    ``None``.  A Poisson view is grown from it by what each shard
    changed since (:meth:`SketchColumns.after`).  A first build, a
    bottom-k engine and keys that are not canonical (``1`` and ``1.0``
    may sit in two shards) merge every shard instead.
    """
    if isinstance(memoised, SketchColumns):
        view = memoised.after(engine.shard_sketches(label))
        if view is not None:
            return view
    sketch = engine.sketch(label)
    if isinstance(sketch, StreamingPoisson):
        return SketchColumns.of(sketch, engine.shard_sketches(label))
    return sketch


def _acquire(name: str, entry: _StoreEntry, wait: bool) -> None:
    """Take ``entry.lock``; with ``wait=False`` a held lock raises
    :class:`~repro.exceptions.EngineBusyError` instead."""
    if not entry.lock.acquire(wait):
        raise EngineBusyError(f"engine {name!r} is busy")


def _check_replay_version(name: str, entry: _StoreEntry, version: int) -> None:
    """Refuse a replayed batch the store already holds (caller holds
    ``entry.lock``): skipping applied records is the caller's job."""
    if version <= entry.version:
        raise InvalidParameterError(
            f"replayed batch for {name!r} carries version {version} but "
            f"the store is already at {entry.version}; skip-checks belong "
            "to the caller"
        )


def fsync_directory(directory: Path) -> None:
    """Make a file created, renamed or deleted in ``directory`` durable;
    a file system that cannot fsync a directory is left as it is."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


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
        """Create, register and return a named engine (see
        :class:`StreamEngine` for the arguments and their rules)."""
        engine = StreamEngine(
            kind,
            k=k,
            threshold=threshold,
            rank_family=rank_family,
            seed_assigner=seed_assigner,
            n_shards=n_shards,
        )
        self.register(name, engine)
        return engine

    def create_from_config(self, config) -> StreamEngine:
        """Create a named engine from a flat, JSON-style configuration.

        The shared creation path of the serving surfaces — HTTP ``POST
        /engines`` bodies and the serve CLI's ``--create`` specs — so
        both apply identical defaults.  Keys: ``name`` (required),
        ``kind`` (default ``bottom_k``), ``k`` (bottom-k only, default
        64), ``threshold`` (poisson only, required), ``ranks``
        (rank-family name; the family default when omitted), ``salt``
        (default 0), ``coordinated`` (default false), ``n_shards``
        (default 8).  ``k``, ``salt`` and ``n_shards`` take an int (not a
        bool) or a decimal-integer string; ``coordinated`` a bool,
        ``0``/``1``, or one of the strings ``0``/``1``/``true``/
        ``false``/``yes``/``no`` in any case.  Any other value is refused
        rather than coerced.
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
        k = config.get("k")
        if k is None and kind == "bottom_k":
            k = 64
        ranks = config.get("ranks")
        return self.create(
            name,
            kind,
            k=None if k is None else _config_int("k", k),
            threshold=config.get("threshold"),
            rank_family=(
                rank_family_from_name(ranks) if ranks is not None else None
            ),
            seed_assigner=SeedAssigner(
                salt=_config_int("salt", config.get("salt", 0)),
                coordinated=_config_flag(config.get("coordinated", False)),
            ),
            n_shards=_config_int("n_shards", config.get("n_shards", 8)),
        )

    def register(
        self, name: str, engine: StreamEngine, version: int = 0
    ) -> None:
        """Register an existing engine under ``name``."""
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                f"store names must be non-empty strings, got {name!r}"
            )
        if not isinstance(engine, StreamEngine):
            raise InvalidParameterError(
                f"expected a StreamEngine, got {type(engine).__name__}"
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

    def adopt(
        self, name: str, engine: StreamEngine, version: int = 0
    ) -> None:
        """Register ``name`` or replace its engine wholesale.

        The replication / recovery counterpart of :meth:`register`: a
        follower applying an engine-state record must overwrite whatever
        it currently holds.  Replacement waits for the group being
        applied, keeps the version monotone (``max(local, version)``),
        and logs an engine record when a WAL is attached.  The version may
        stay put, so replacement advances the entry's epoch instead, which
        drops every memoised view and cached answer of the engine.
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
            entry.state = _InstanceState(entry.state.epoch + 1, {})
            entry.columns = {}

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

    def engine(self, name: str) -> StreamEngine:
        """The live engine registered under ``name`` (not a copy).

        Queries never read it: they go through the quiescent reads
        :meth:`snapshot_view`, :meth:`column_view` and
        :meth:`merged_sketch`, which hold the engine's lock.  Mutating
        the returned engine directly bypasses the version, so cached
        query results and memoised column views would not see the
        change.
        """
        return self._entry(name).engine

    def version(self, name: str) -> int:
        """Monotone ingest counter of ``name`` (0 for a fresh engine)."""
        entry = self._entry(name)
        with entry.lock:
            return entry.version

    def state_hint(
        self, name: str, instances: Iterable[object] = ()
    ) -> tuple[int, tuple]:
        """Lock-free ``(version, key)`` of ``name`` — possibly a moment
        stale.  ``key`` is ``(epoch, last-change versions of
        instances)``, the key of every cache of values derived from
        those instances.

        :meth:`version` waits on the per-engine lock, which an ingest
        holds while it logs, plans and applies one group; serving
        event loops that must never block (the HTTP server's cache
        probe, metrics scrapes) read the counters without it.  The key's
        ticks are read from the dict of the epoch it names, and each
        tick names one state of its instance, so a key read during a
        write still names states some value is exact for; the version
        is read apart from it.  A stale key only makes a cache probe
        miss, or return an answer of a state no acknowledged write has
        left.
        """
        entry = self._entry(name)
        return entry.version, entry.state.key(instances)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, request: IngestRequest, *, wait: bool = True) -> int:
        """Run one :class:`IngestRequest` — the single write pipeline.

        Every surface funnels here: per-batch API ingest, binary bodies
        (one batch per instance, as
        :func:`~repro.server.wire.decode_batches` joins them), row
        triples (via :func:`group_rows`), and recovery replay
        (``request.version`` set).  A request is all or nothing: it runs
        three steps, and a failure in the first changes nothing.

        1. *Validate* every group (one per instance when
           ``request.coalesce``) with no lock held, and with a
           write-ahead log attached encode each group's log record, so a
           key the log refuses fails here too.
        2. *Log, plan and apply* each group in turn, in one hold of the
           engine's lock: the group takes its version, is appended to
           the log (append-before-apply), is planned, and its shard jobs
           are applied in this thread.  Each engine therefore has one
           writer at a time, and a read waits for at most one group's
           apply.  Each group's version becomes its instance's last
           change, so views and cached answers of the request's other
           instances stay valid.  A group whose plan routes no row (a
           weight-oblivious Poisson group whose every row the sample
           discards) moves only update counters, so it changes no
           instance's last change.  The version is published even when
           the apply raises, because the log already holds its record.
        3. A *replay* is the same pipeline with a forced version: it
           refuses a version the store already holds.

        ``wait=False`` never waits for the engine's lock: it takes the
        lock once, only if it is free, and holds it for all of the
        request's groups.  If another thread holds it, the submit raises
        :class:`~repro.exceptions.EngineBusyError` before any version,
        log record or sketch changes, so the caller can run the same
        request again with ``wait=True`` (the HTTP server's inline
        ingest does, on its executor).

        The log keeps one record, and the engine one version, per group.
        A crash between two of a request's appends therefore recovers a
        prefix of that request: a request is atomic against bad input,
        not against a crash.

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
        groups = [
            (instance, *StreamEngine.checked_columns(keys, values))
            for instance, keys, values in (
                _coalesce_batches(request.batches)
                if request.coalesce
                else request.batches
            )
        ]
        records: list[bytes] = []
        if self._wal is not None:
            from repro.server.wire import encode_batches

            records = [encode_batches([group]) for group in groups]
        forced = request.version
        # one hold per group, or one for the whole request when it must
        # not wait: a busy engine then refuses it before any change
        holds = [[group] for group in groups] if wait else [groups]
        for hold in holds or [[]]:
            _acquire(name, entry, wait)
            try:
                for instance, keys, values in hold:
                    if forced is None:
                        planned = entry.version + 1
                    else:
                        _check_replay_version(name, entry, forced)
                        planned = forced
                    if records:
                        # popped: a record on disk is freed at once
                        self._wal.append_batch_blob(name, planned, records.pop(0))
                    work = None
                    try:
                        work = entry.engine.ingest_jobs(
                            instance, keys, values, checked=True
                        )
                        with span("store.ingest", engine=name, rows=len(values)):
                            for job in work:
                                StreamEngine.run_job(job)
                    finally:
                        # the log holds this version's record, so it is
                        # published even when the apply raised
                        entry.version = planned
                        # a plan that routes no row moved only the shards'
                        # update counters, which no view or answer reads
                        if work is None or work:
                            entry.state.ticks[instance] = planned
                version = entry.version
            finally:
                entry.lock.release()
        return version

    # ------------------------------------------------------------------
    # Quiescent reads
    # ------------------------------------------------------------------
    @contextmanager
    def _read(self, name: str, wait: bool = True):
        """Yield the entry under its lock, so no ingest changes it for
        the duration; the read waits for at most one group's apply, and
        ingests queue behind it.  With ``wait=False`` a held lock raises
        :class:`~repro.exceptions.EngineBusyError` instead, before the
        caller reads anything."""
        entry = self._entry(name)
        _acquire(name, entry, wait)
        try:
            yield entry
        finally:
            entry.lock.release()

    def snapshot_view(
        self, name: str, instances: Sequence[object]
    ) -> tuple[int, list]:
        """A consistent ``(version, merged sketches)`` view of ``name``,
        merged afresh on every call (served queries read the memoised
        :meth:`column_view`)."""
        with self._read(name) as entry:
            return (
                entry.version,
                [entry.engine.sketch(label) for label in instances],
            )

    def column_view(
        self, name: str, instances: Sequence[object], *, wait: bool = True
    ) -> tuple[int, list]:
        """A consistent ``(version, views)`` read of ``name``: the read
        every served query makes.

        A Poisson engine's view of an instance is the
        :class:`~repro.streaming.query.SketchColumns` of its merged
        sketch, a bottom-k engine's the merged sketch itself.  Views are
        memoised per instance, keyed by the engine's epoch and the
        version that last changed the instance, and every read reuses
        the memoised view until a submit, replay or merge changes that
        instance.  The first read of an instance merges its shards and
        hashes every key; a read after such a write rebuilds a Poisson
        view from the memoised one plus the rows each shard changed,
        hashing only the new keys
        (:meth:`~repro.streaming.query.SketchColumns.after`).  A write to
        another instance keeps the view; an engine replacement drops the
        whole memo.

        ``wait=False`` never waits for the engine's lock: if a submit,
        snapshot, merge or adoption holds it, the read raises
        :class:`~repro.exceptions.EngineBusyError` and leaves the memo
        as it was.
        """
        version, _, views = self.keyed_view(name, instances, wait=wait)
        return version, views

    def keyed_view(
        self, name: str, instances: Sequence[object], *, wait: bool = True
    ) -> tuple[int, tuple, list]:
        """:meth:`column_view` plus the cache key of the state read,
        ``(epoch, last-change versions of instances)`` as
        :meth:`state_hint` gives it, taken under the same lock hold as
        the views: a value derived from them is exact for that key.

        A stale view is rebuilt as :func:`_instance_view` says: from the
        memoised view and what each shard changed since, or, for a first
        build, a bottom-k engine or keys that are not canonical, by
        merging every shard."""
        with self._read(name, wait) as entry:
            memo = entry.columns
            key = entry.state.key(instances)
            stale = [
                (label, tick)
                for label, tick in zip(instances, key[1])
                if memo.get(label, _NO_VIEW)[0] != tick
            ]
            if stale:
                with span("store.columns", engine=name, instances=len(stale)):
                    for label, tick in stale:
                        memoised = memo.get(label, _NO_VIEW)[1]
                        view = _instance_view(entry.engine, label, memoised)
                        memo[label] = (tick, view)
            return entry.version, key, [memo[label][1] for label in instances]

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
                summary[name] = {
                    "kind": engine.sketch_config["kind"],
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
            # --store itself).  The scratch file is durable before it
            # replaces the old copy, and the rename is durable before the
            # WAL drops the records the snapshot now holds.
            scratch = path.with_name(path.name + ".tmp")
            blob = codec.store_to_bytes(items)
            with scratch.open("wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, path)
            fsync_directory(path.parent)
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
        ``max(local, peer) + 1``, which becomes the last change of every
        instance the peer holds, so those instances' views and cached
        answers are invalidated and the others' are kept.
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
                entry.state.ticks.update(
                    dict.fromkeys(peer_engine.instance_labels, entry.version)
                )
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
        """The store's default (per-instance cached) query planner.

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
        default (per-instance cached) planner."""
        return self.planner().run(name, query)
