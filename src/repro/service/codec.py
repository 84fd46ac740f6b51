"""Versioned little-endian binary wire format for sketch state.

The codec turns :class:`~repro.streaming.StreamingBottomK`,
:class:`~repro.streaming.StreamingPoisson` and full
:class:`~repro.streaming.StreamEngine` state into self-describing byte
blobs (:func:`to_bytes`) and back (:func:`from_bytes`).  Restoration is
*state-exact*: the restored object produces identical ``to_sample()``
snapshots, identical query results, and bit-identical behaviour on any
subsequent stream of updates — entries, ranks, seeds, heap tie-order,
discard counters and seed-assigner configuration all round-trip.

Layout
------
Every blob starts with a fixed header::

    magic  b"RSVC"   4 bytes
    version          u16   (currently 1)
    kind             u8    (1 bottom-k sketch, 2 Poisson sketch,
                            3 engine, 4 store snapshot)

followed by a kind-specific body.  All integers are little-endian and
unsigned unless noted; floats are raw IEEE-754 doubles, so ranks and
values survive bit for bit.  Variable-length payloads are length-prefixed.
Keys, instance labels and salts are encoded with a small tagged union
covering ``None``, booleans, 64-bit and big integers, floats, strings,
bytes and (nested) tuples.

Entry columns are stored columnar — all keys, then the value/rank/seed
arrays as raw ``<f8`` buffers — and decode as columns end to end: a key
run whose labels are all 64-bit ints (tag 3, exactly 9 bytes each) is
read as one strided NumPy view, any other run label by label, and the
key, value and rank columns go straight into the sketches' columnar
``from_state``.  Large Poisson sketches therefore encode and restore at
NumPy speed.

Decoding failures (bad magic, unsupported version, truncation, trailing
garbage, corrupt payloads) raise
:class:`~repro.exceptions.SketchCodecError`, as does encoding state the
format cannot represent (custom rank families or key types).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    SketchCodecError,
)
from repro.sampling.ranks import RankFamily, rank_family_from_name
from repro.streaming.engine import StreamEngine
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "Reader",
    "Writer",
    "from_bytes",
    "read_label",
    "store_from_bytes",
    "store_to_bytes",
    "to_bytes",
    "write_label",
]

MAGIC = b"RSVC"
FORMAT_VERSION = 1

_KIND_BOTTOM_K = 1
_KIND_POISSON = 2
_KIND_ENGINE = 3
_KIND_STORE = 4

_SKETCH_KINDS = {"bottom_k": _KIND_BOTTOM_K, "poisson": _KIND_POISSON}

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: one ``_TAG_INT`` label as it sits in a key run: the tag, then the i64
_INT_LABEL = np.dtype([("tag", "u1"), ("value", "<i8")])

# tagged-union tags for keys / instance labels / salts
_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_BIGINT = 4
_TAG_FLOAT = 5
_TAG_STR = 6
_TAG_BYTES = 7
_TAG_TUPLE = 8


class _Writer:
    """Append-only little-endian byte sink."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def raw(self, data: bytes) -> None:
        self._buffer += data

    def u8(self, value: int) -> None:
        self._buffer += _U8.pack(value)

    def u16(self, value: int) -> None:
        self._buffer += _U16.pack(value)

    def u32(self, value: int) -> None:
        self._buffer += _U32.pack(value)

    def u64(self, value: int) -> None:
        self._buffer += _U64.pack(value)

    def i64(self, value: int) -> None:
        self._buffer += _I64.pack(value)

    def f64(self, value: float) -> None:
        self._buffer += _F64.pack(value)

    def blob(self, data: bytes) -> None:
        self.u64(len(data))
        self.raw(data)

    def text(self, value: str) -> None:
        self.blob(value.encode("utf-8"))

    def f64_column(self, values) -> None:
        self.raw(np.asarray(values, dtype="<f8").tobytes())

    def u32_column(self, values) -> None:
        self.raw(np.asarray(values, dtype="<u4").tobytes())

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class _Reader:
    """Bounds-checked little-endian byte source."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._memory = memoryview(self._data)
        self._pos = 0

    def _truncated(self, n: int) -> SketchCodecError:
        return SketchCodecError(
            f"truncated buffer: needed {n} bytes at offset "
            f"{self._pos}, only {len(self._data) - self._pos} left"
        )

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if n < 0 or end > len(self._data):
            raise self._truncated(n)
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    @property
    def position(self) -> int:
        """Current decode offset — error context for corrupt payloads."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bytes left after the current position."""
        return len(self._data) - self._pos

    @property
    def buffer(self) -> bytes:
        """The whole buffer, for callers that parse a stretch of it in
        place and then :meth:`seek` past it."""
        return self._data

    def seek(self, position: int) -> None:
        """Move the decode offset to ``position``, an offset of
        :attr:`buffer`; the reads after it check their own bounds."""
        self._pos = position

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u64())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SketchCodecError(f"corrupt string payload: {exc}") from exc

    def view(self, n: int) -> memoryview:
        """Read ``n`` bytes as a read-only view of the buffer: nothing is
        copied, so the view keeps the buffer alive."""
        end = self._pos + n
        if end > len(self._data):
            raise self._truncated(n)
        view = self._memory[self._pos:end]
        self._pos = end
        return view

    def column(self, dtype: str, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` as a read-only view of the
        buffer (see :meth:`view`)."""
        return np.frombuffer(self.view(count * np.dtype(dtype).itemsize), dtype)

    def labels(self, count: int) -> list:
        """Read a run of ``count`` tagged labels.

        A run of ``_TAG_INT`` labels is a packed array of 9-byte
        ``(tag, i64)`` records, so it decodes as one view; any other run
        (or one cut short) goes label by label from the same offset,
        which keeps every truncation and unknown-tag error.
        """
        if 9 * count <= len(self._data) - self._pos:
            run = np.frombuffer(self._data, _INT_LABEL, count, self._pos)
            if (run["tag"] == _TAG_INT).all():
                self._pos += 9 * count
                return run["value"].tolist()
        return [_read_label(self) for _ in range(count)]

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise SketchCodecError(
                f"{len(self._data) - self._pos} trailing bytes after the "
                "payload"
            )


# ----------------------------------------------------------------------
# Labels (keys, instance labels, salts)
# ----------------------------------------------------------------------
def _write_label(writer: _Writer, label: object) -> None:
    if label is None:
        writer.u8(_TAG_NONE)
    elif isinstance(label, (bool, np.bool_)):
        writer.u8(_TAG_TRUE if label else _TAG_FALSE)
    elif isinstance(label, (int, np.integer)):
        value = int(label)
        if _I64_MIN <= value <= _I64_MAX:
            writer.u8(_TAG_INT)
            writer.i64(value)
        else:
            writer.u8(_TAG_BIGINT)
            length = (value.bit_length() + 8) // 8
            writer.blob(value.to_bytes(length, "little", signed=True))
    elif isinstance(label, (float, np.floating)):
        writer.u8(_TAG_FLOAT)
        writer.f64(float(label))
    elif isinstance(label, str):
        writer.u8(_TAG_STR)
        writer.text(label)
    elif isinstance(label, (bytes, bytearray)):
        writer.u8(_TAG_BYTES)
        writer.blob(bytes(label))
    elif isinstance(label, tuple):
        writer.u8(_TAG_TUPLE)
        writer.u32(len(label))
        for item in label:
            _write_label(writer, item)
    else:
        raise SketchCodecError(
            f"cannot encode a key/label of type {type(label).__name__}; "
            "supported types: None, bool, int, float, str, bytes, tuple"
        )


def _read_label(reader: _Reader) -> object:
    tag = reader.u8()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return reader.i64()
    if tag == _TAG_BIGINT:
        return int.from_bytes(reader.blob(), "little", signed=True)
    if tag == _TAG_FLOAT:
        return reader.f64()
    if tag == _TAG_STR:
        return reader.text()
    if tag == _TAG_BYTES:
        return reader.blob()
    if tag == _TAG_TUPLE:
        return tuple(_read_label(reader) for _ in range(reader.u32()))
    raise SketchCodecError(f"unknown label tag {tag}")


# ----------------------------------------------------------------------
# Shared sketch configuration
# ----------------------------------------------------------------------
def _write_family(writer: _Writer, family: RankFamily) -> None:
    # Delegate to the registry in repro.sampling.ranks (the single source
    # of truth for family <-> name): a family only encodes if its name
    # resolves back to exactly its class.
    try:
        registered = rank_family_from_name(family.name)
    except InvalidParameterError:
        registered = None
    if registered is None or type(family) is not type(registered):
        raise SketchCodecError(
            "only the built-in rank families can be encoded; got "
            f"{type(family).__name__}"
        )
    writer.text(family.name)


def _read_family_name(reader: _Reader) -> str:
    name = reader.text()
    try:
        rank_family_from_name(name)
    except InvalidParameterError as exc:
        raise SketchCodecError(str(exc)) from exc
    return name


def _write_common(writer: _Writer, state: dict) -> None:
    _write_label(writer, state["instance"])
    _write_family(writer, state["rank_family"])
    _write_label(writer, state["salt"])
    writer.u8(1 if state["coordinated"] else 0)
    writer.u64(state["n_updates"])
    writer.u64(state["n_discarded_keys"])


def _read_coordinated(reader: _Reader) -> bool:
    coordinated = reader.u8()
    if coordinated > 1:
        raise SketchCodecError(
            f"coordinated flag must be 0 or 1, got {coordinated}"
        )
    return bool(coordinated)


def _read_common(reader: _Reader) -> dict:
    state = {"instance": _read_label(reader)}
    state["rank_family"] = _read_family_name(reader)
    salt = _read_label(reader)
    if not isinstance(salt, int) or isinstance(salt, bool):
        raise SketchCodecError(
            "seed-assigner salt must decode to an integer, got "
            f"{type(salt).__name__}"
        )
    state["salt"] = salt
    state["coordinated"] = _read_coordinated(reader)
    state["n_updates"] = reader.u64()
    state["n_discarded_keys"] = reader.u64()
    return state


# ----------------------------------------------------------------------
# Sketch bodies
# ----------------------------------------------------------------------
def _write_sketch_state(writer: _Writer, state: dict) -> None:
    writer.u8(_SKETCH_KINDS[state["kind"]])
    _write_sketch_body(writer, state)


def _write_sketch_body(writer: _Writer, state: dict) -> None:
    _write_common(writer, state)
    if state["kind"] == "bottom_k":
        writer.u64(state["k"])
    else:
        writer.f64(state["threshold"])
    keys = state["keys"]
    writer.u64(len(keys))
    for key in keys:
        _write_label(writer, key)
    writer.f64_column(state["values"])
    writer.f64_column(state["ranks"])
    if state["kind"] == "bottom_k":
        writer.f64_column(state["seeds"])
        writer.u32_column(state["positions"])


def _read_sketch_state(reader: _Reader) -> dict:
    return _read_sketch_body(reader, reader.u8())


def _read_sketch_body(reader: _Reader, kind_byte: int) -> dict:
    if kind_byte not in (_KIND_BOTTOM_K, _KIND_POISSON):
        raise SketchCodecError(f"unknown sketch kind byte {kind_byte}")
    state = _read_common(reader)
    if kind_byte == _KIND_BOTTOM_K:
        state["kind"] = "bottom_k"
        state["k"] = reader.u64()
    else:
        state["kind"] = "poisson"
        state["threshold"] = reader.f64()
    count = reader.u64()
    state["keys"] = reader.labels(count)
    state["values"] = reader.column("<f8", count).tolist()
    state["ranks"] = reader.column("<f8", count).tolist()
    if kind_byte == _KIND_BOTTOM_K:
        state["seeds"] = reader.column("<f8", count).tolist()
        state["positions"] = reader.column("<u4", count).tolist()
    return state


def _restore_sketch(state: dict):
    try:
        if state["kind"] == "bottom_k":
            return StreamingBottomK.from_state(state)
        return StreamingPoisson.from_state(state)
    except ReproError as exc:
        raise SketchCodecError(f"invalid sketch state: {exc}") from exc


# ----------------------------------------------------------------------
# Engine bodies
# ----------------------------------------------------------------------
def _write_engine_state(writer: _Writer, state: dict) -> None:
    kind = state["kind"]
    writer.u8(_SKETCH_KINDS[kind])
    if kind == "bottom_k":
        writer.u64(state["k"])
    else:
        writer.f64(state["threshold"])
    _write_family(writer, state["rank_family"])
    _write_label(writer, state["salt"])
    writer.u8(1 if state["coordinated"] else 0)
    writer.u32(state["n_shards"])
    writer.u64(state["n_updates"])
    writer.u64(len(state["instances"]))
    for label, shard_states in state["instances"].items():
        _write_label(writer, label)
        for shard_state in shard_states:
            _write_sketch_state(writer, shard_state)


def _read_engine_state(reader: _Reader) -> dict:
    kind_byte = reader.u8()
    if kind_byte not in (_KIND_BOTTOM_K, _KIND_POISSON):
        raise SketchCodecError(f"unknown engine kind byte {kind_byte}")
    state: dict = {}
    if kind_byte == _KIND_BOTTOM_K:
        state["kind"] = "bottom_k"
        state["k"] = reader.u64()
    else:
        state["kind"] = "poisson"
        state["threshold"] = reader.f64()
    state["rank_family"] = _read_family_name(reader)
    salt = _read_label(reader)
    if not isinstance(salt, int) or isinstance(salt, bool):
        raise SketchCodecError("seed-assigner salt must decode to an integer")
    state["salt"] = salt
    state["coordinated"] = _read_coordinated(reader)
    state["n_shards"] = reader.u32()
    state["n_updates"] = reader.u64()
    instances: dict[object, tuple] = {}
    for _ in range(reader.u64()):
        label = _read_label(reader)
        instances[label] = tuple(
            _read_sketch_state(reader) for _ in range(state["n_shards"])
        )
    state["instances"] = instances
    return state


def _restore_engine(state: dict) -> StreamEngine:
    try:
        return StreamEngine.from_state(state)
    except ReproError as exc:
        raise SketchCodecError(f"invalid engine state: {exc}") from exc


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _write_header(writer: _Writer, kind: int) -> None:
    writer.raw(MAGIC)
    writer.u16(FORMAT_VERSION)
    writer.u8(kind)


def _read_header(reader: _Reader) -> int:
    magic = reader.raw(len(MAGIC))
    if magic != MAGIC:
        raise SketchCodecError(
            f"bad magic {magic!r}: not a repro.service blob"
        )
    version = reader.u16()
    if not 1 <= version <= FORMAT_VERSION:
        raise SketchCodecError(
            f"unsupported wire-format version {version}; this build reads "
            f"versions 1..{FORMAT_VERSION}"
        )
    return reader.u8()


def to_bytes(obj) -> bytes:
    """Serialize a sketch or engine to the versioned binary wire format."""
    writer = _Writer()
    if isinstance(obj, (StreamingBottomK, StreamingPoisson)):
        state = obj.state_dict()
        _write_header(writer, _SKETCH_KINDS[state["kind"]])
        _write_sketch_body(writer, state)
    elif isinstance(obj, StreamEngine):
        state = obj.state_dict()
        _write_header(writer, _KIND_ENGINE)
        _write_engine_state(writer, state)
    else:
        raise SketchCodecError(
            f"cannot encode objects of type {type(obj).__name__}; "
            "expected StreamingBottomK, StreamingPoisson or StreamEngine"
        )
    return writer.getvalue()


#: exceptions a corrupt-but-well-framed payload can smuggle out of the
#: decode path: struct unpacking, NumPy buffer slicing, int/float
#: conversions and oversized allocations.  The public decoders translate
#: them into SketchCodecError with the reader offset, so callers see one
#: exception type (with context) for every flavour of corruption.
_STRAY_DECODE_ERRORS = (
    struct.error, ValueError, TypeError, KeyError, IndexError,
    OverflowError, MemoryError,
)


def from_bytes(data: bytes):
    """Restore a sketch or engine serialized by :func:`to_bytes`.

    The restored object is state-identical to the one encoded: same
    snapshots, same query results, bit-identical subsequent updates.
    Any corruption surfaces as :class:`SketchCodecError` carrying the
    decode offset — never a bare ``struct.error`` or NumPy exception.
    """
    reader = _Reader(data)
    try:
        kind = _read_header(reader)
        if kind in (_KIND_BOTTOM_K, _KIND_POISSON):
            obj = _restore_sketch(_read_sketch_body(reader, kind))
        elif kind == _KIND_ENGINE:
            obj = _restore_engine(_read_engine_state(reader))
        elif kind == _KIND_STORE:
            raise SketchCodecError(
                "blob is a store snapshot; use SketchStore.restore() or "
                "store_from_bytes()"
            )
        else:
            raise SketchCodecError(f"unknown payload kind {kind}")
        reader.expect_end()
    except SketchCodecError:
        raise
    except _STRAY_DECODE_ERRORS as exc:
        raise SketchCodecError(
            f"corrupt payload near offset {reader.position}: {exc!r}"
        ) from exc
    return obj


def store_to_bytes(items) -> bytes:
    """Serialize ``(name, version, engine_blob)`` triples to a store blob.

    ``engine_blob`` entries are full :func:`to_bytes` engine payloads, so
    a store snapshot is a named, versioned container of independently
    decodable engines.
    """
    writer = _Writer()
    _write_header(writer, _KIND_STORE)
    items = list(items)
    writer.u64(len(items))
    for name, version, blob in items:
        writer.text(name)
        writer.u64(version)
        writer.blob(blob)
    return writer.getvalue()


# Shared little-endian primitives.  The columnar ingest batch format of
# :mod:`repro.server.wire` is built on the same bounds-checked
# reader/writer and the same tagged label union, so keys and instance
# labels encode identically in snapshots and in ingest batches.
Reader = _Reader
Writer = _Writer
read_label = _read_label
write_label = _write_label
#: the label tags a wire header decodes inline, without :func:`read_label`
LABEL_TAG_INT = _TAG_INT
LABEL_TAG_STR = _TAG_STR


def store_from_bytes(data: bytes) -> list[tuple[str, int, StreamEngine]]:
    """Decode a store blob into ``(name, version, engine)`` triples.

    Corruption anywhere in the container or in an embedded engine blob
    raises :class:`SketchCodecError` with the offending offset.
    """
    reader = _Reader(data)
    try:
        kind = _read_header(reader)
        if kind != _KIND_STORE:
            raise SketchCodecError(
                f"expected a store snapshot (kind {_KIND_STORE}), got kind "
                f"{kind}"
            )
        items = []
        for _ in range(reader.u64()):
            name = reader.text()
            version = reader.u64()
            engine = from_bytes(reader.blob())
            if not isinstance(engine, StreamEngine):
                raise SketchCodecError(
                    f"store entry {name!r} does not contain an engine"
                )
            items.append((name, version, engine))
        reader.expect_end()
    except SketchCodecError:
        raise
    except _STRAY_DECODE_ERRORS as exc:
        raise SketchCodecError(
            f"corrupt store snapshot near offset {reader.position}: {exc!r}"
        ) from exc
    return items
