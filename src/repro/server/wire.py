"""Columnar binary batch format for the HTTP ingest fast path.

JSON and CSV ingest spend almost all of their time building per-row
Python objects: BENCH_PR5/PR6 put the HTTP layer at a few tens of
thousands of rows per second while the store itself ingests large NumPy
columns at millions of rows per second.  This module defines the wire
format that closes that gap: a self-describing little-endian blob whose
key and value columns deserialize straight into the arrays
:meth:`repro.streaming.StreamEngine.ingest` and
:meth:`repro.service.SketchStore.submit` already want — no per-row
Python objects on the decode path, and non-finite values rejected in one
vectorized :func:`numpy.isfinite` pass per instance so the fast path is
also the safe path.

A body carries a *pipelined sequence* of batches, so one request can
amortize HTTP framing and executor-hop overhead over many logical
batches.  :func:`decode_batches` reads the batch headers once and joins
each instance's batches into one column pair, so everything after the
decoder — the request, :meth:`repro.service.SketchStore.submit` and the
engine's shard plan — costs Python per instance, not per batch.  The
columns of an instance sent as one batch are read-only NumPy views of
the body, not copies; joined columns are copies.

The header loop reads each batch straight off the body bytes with
:func:`struct.unpack_from`: a str or int instance label inline, then
``(key_tag, n_rows)`` as one record, then the two column views of an
``i64`` batch as slices of one :class:`memoryview`.  Anything else —
another label tag, a str or tagged key column, a field cut short — is
read by the codec's :class:`~repro.service.codec.Reader` from that
offset, so a malformed body raises exactly the error a field-by-field
read would, naming the field's size and offset.

Layout
------
Everything is little-endian; the header reuses the magic + version
conventions of :mod:`repro.service.codec`, and instance labels (plus
heterogeneous keys) use the codec's tagged label union so labels encode
identically in snapshots and ingest batches::

    magic      b"RBAT"            4 bytes
    version    u16                (currently 1)
    n_batches  u32
    batch * n_batches:
        instance   tagged label   (codec union: int/str/float/...)
        key_tag    u8             0 tagged / 1 i64 / 2 utf-8 str
        n_rows     u64
        keys       key_tag 0: n_rows tagged labels
                   key_tag 1: raw ``<i8`` column (8 * n_rows bytes)
                   key_tag 2: ``<u4`` length column, then the
                              concatenated utf-8 bytes
        values     raw ``<f8`` column (8 * n_rows bytes)

Homogeneous integer and string key columns get the flat encodings
(``key_tag`` 1/2); anything else — mixed types, tuples, bytes, bools —
falls back to the per-key tagged union, which is still far cheaper than
JSON.  Decoding failures (bad magic, unsupported version, truncation,
unknown tags, corrupt utf-8, trailing bytes, non-finite values) raise
:class:`~repro.exceptions.SketchCodecError`, never ``struct.error``.

The MIME type for HTTP bodies in this format is
:data:`BATCH_CONTENT_TYPE` (``application/x-repro-batch``).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import SketchCodecError
from repro.service.codec import (
    LABEL_TAG_INT,
    LABEL_TAG_STR,
    Reader,
    Writer,
    read_label,
    write_label,
)
from repro.service.store import INGEST_FORMATS

__all__ = [
    "BATCH_CONTENT_TYPE",
    "MAGIC",
    "REPLICA_CONTENT_TYPE",
    "REPLICA_MAGIC",
    "REPLICA_MODE_STORE",
    "REPLICA_MODE_WAL",
    "REPLICA_VERSION",
    "WIRE_VERSION",
    "WireBatch",
    "batch_count",
    "decode_batches",
    "decode_replica",
    "encode_batches",
    "encode_replica",
]

BATCH_CONTENT_TYPE = INGEST_FORMATS["binary"].content_type
MAGIC = b"RBAT"
WIRE_VERSION = 1

#: MIME type of ``GET /replicate`` response bodies
REPLICA_CONTENT_TYPE = "application/x-repro-replica"
REPLICA_MAGIC = b"RREP"
REPLICA_VERSION = 1
#: payload is a WAL tail — concatenated record frames for
#: :func:`repro.wal.decode_tail`
REPLICA_MODE_WAL = 1
#: payload is a full store snapshot blob (the tail was checkpointed
#: away) for :func:`repro.service.codec.store_from_bytes`
REPLICA_MODE_STORE = 2

#: key-column encodings
_KEY_TAGGED = 0
_KEY_I64 = 1
_KEY_STR = 2

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
#: the header fields after a batch's instance label: ``key_tag``, ``n_rows``
_HEADER = struct.Struct("<BQ")


class WireBatch(NamedTuple):
    """One decoded ingest batch: all of one instance's rows of a body.

    ``keys`` is an ``<i8`` NumPy array (every batch of the instance had
    an integer column), a list of strings, or a list of arbitrary
    decoded labels; ``values`` is a float64 NumPy array.  Both arrays
    are read-only.
    """

    instance: object
    keys: Sequence[object]
    values: np.ndarray


def _is_plain_int(key: object) -> bool:
    return (
        isinstance(key, (int, np.integer))
        and not isinstance(key, (bool, np.bool_))
        and _I64_MIN <= int(key) <= _I64_MAX
    )


def _encode_keys(writer: Writer, keys) -> None:
    """Write one key column, picking the cheapest faithful encoding."""
    if isinstance(keys, np.ndarray):
        if keys.dtype.kind == "i" and keys.dtype.itemsize <= 8:
            writer.u8(_KEY_I64)
            writer.u64(len(keys))
            writer.raw(np.ascontiguousarray(keys, dtype="<i8").tobytes())
            return
        if keys.dtype.kind == "u" and (
            keys.size == 0 or int(keys.max()) <= _I64_MAX
        ):
            writer.u8(_KEY_I64)
            writer.u64(len(keys))
            writer.raw(keys.astype("<i8").tobytes())
            return
        keys = keys.tolist()
    if keys and all(_is_plain_int(key) for key in keys):
        writer.u8(_KEY_I64)
        writer.u64(len(keys))
        writer.raw(
            np.fromiter(
                (int(key) for key in keys), dtype="<i8", count=len(keys)
            ).tobytes()
        )
        return
    if keys and all(isinstance(key, str) for key in keys):
        encoded = [key.encode("utf-8") for key in keys]
        writer.u8(_KEY_STR)
        writer.u64(len(encoded))
        writer.raw(
            np.fromiter(
                (len(item) for item in encoded),
                dtype="<u4",
                count=len(encoded),
            ).tobytes()
        )
        writer.raw(b"".join(encoded))
        return
    writer.u8(_KEY_TAGGED)
    writer.u64(len(keys))
    for key in keys:
        write_label(writer, key)


def encode_batches(
    batches: Iterable[tuple[object, Sequence[object], Sequence[float]]],
) -> bytes:
    """Encode ``(instance, keys, values)`` batches to one wire blob.

    ``keys`` may be a NumPy integer array, a list of ints, a list of
    strings, or any mix of codec-encodable labels; ``values`` is
    anything :func:`numpy.asarray` turns into a 1-D float column.
    Non-finite values are rejected here, mirroring the decoder — a
    well-behaved client cannot emit a batch the server will refuse.
    """
    batches = list(batches)
    writer = Writer()
    writer.raw(MAGIC)
    writer.u16(WIRE_VERSION)
    writer.u32(len(batches))
    for index, (instance, keys, values) in enumerate(batches):
        if isinstance(keys, np.ndarray):
            if keys.ndim != 1:
                raise SketchCodecError(
                    f"batch {index}: keys must form a 1-D column, got "
                    f"shape {keys.shape}"
                )
        else:
            keys = list(keys)
        values = np.ascontiguousarray(values, dtype="<f8")
        if values.ndim != 1:
            raise SketchCodecError(
                f"batch {index}: values must form a 1-D column, got "
                f"shape {values.shape}"
            )
        if len(keys) != len(values):
            raise SketchCodecError(
                f"batch {index}: {len(keys)} keys but {len(values)} values"
            )
        if values.size and not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise SketchCodecError(
                f"batch {index}: non-finite update value "
                f"{float(values[bad])!r} at row {bad}"
            )
        write_label(writer, instance)
        _encode_keys(writer, keys)
        writer.raw(values.tobytes())
    return writer.getvalue()


def decode_batches(data: bytes) -> list[WireBatch]:
    """Decode a wire blob into one :class:`WireBatch` per instance.

    The batch headers are read once, in order, and each instance's
    batches are joined in first-seen order of the instances, exactly as
    :meth:`~repro.service.SketchStore.submit` coalesces batches: an
    instance whose batches all carry ``i64`` keys gets one ``<i8`` key
    column, and any other instance one key list, in which ``i64`` keys
    are NumPy integer scalars.  The columns of an instance sent as one
    batch are read-only NumPy views of ``data``; joined columns are
    copies.  A zero-row batch keeps its instance in the output.

    Raises :class:`~repro.exceptions.SketchCodecError` on any malformed
    payload — including non-finite values, which are detected with one
    vectorized ``np.isfinite`` pass per instance so a poisoned row can
    never reach a sketch.  A non-finite value is reported with the
    batch it was found in, and a body that is also malformed further on
    reports its first non-finite value, as a batch-by-batch check would.
    """
    reader = Reader(data)
    magic = reader.raw(len(MAGIC))
    if magic != MAGIC:
        raise SketchCodecError(
            f"bad magic {magic!r}: not a repro batch payload"
        )
    version = reader.u16()
    if not 1 <= version <= WIRE_VERSION:
        raise SketchCodecError(
            f"unsupported batch wire version {version}; this build reads "
            f"versions 1..{WIRE_VERSION}"
        )
    batches: list[_RawBatch] = []
    try:
        _read_batches(reader, batches)
    except SketchCodecError:
        _check_finite(batches)
        raise
    groups: dict[object, list[_RawBatch]] = {}
    for batch in batches:
        groups.setdefault(batch[0], []).append(batch)
    decoded = [_join(instance, parts) for instance, parts in groups.items()]
    if not all(np.isfinite(group.values).all() for group in decoded):
        _check_finite(batches)
    reader.expect_end()
    return decoded


def batch_count(data: bytes) -> int:
    """The number of wire batches a body carries, as its header declares
    them; :func:`decode_batches` returns one batch per instance instead.
    """
    reader = Reader(data)
    reader.raw(len(MAGIC) + 2)  # the magic and the wire version
    return reader.u32()


#: one batch as read: ``(instance, key_tag, keys, values)``, with
#: ``i64`` keys and the values as byte views of the body
_RawBatch = tuple[object, int, object, memoryview]


def _read_batches(reader: Reader, out: list[_RawBatch]) -> None:
    """Read every batch of the body into ``out``, in order: the header
    loop of the module docstring, which hands whatever it does not read
    inline to ``reader`` at that offset."""
    count = reader.u32()
    data = reader.buffer
    memory = memoryview(data)
    end = len(data)
    pos = reader.position
    for index in range(count):
        tag = data[pos] if end - pos >= 9 else None
        if tag == LABEL_TAG_INT:
            (instance,) = _I64.unpack_from(data, pos + 1)
            pos += 9
        elif (
            tag == LABEL_TAG_STR
            and (stop := pos + 9 + _U64.unpack_from(data, pos + 1)[0]) <= end
        ):
            try:
                instance = data[pos + 9 : stop].decode("utf-8")
            except UnicodeDecodeError:
                reader.seek(pos)
                read_label(reader)  # raises the codec's corrupt-string error
            pos = stop
        else:
            reader.seek(pos)
            instance = read_label(reader)
            pos = reader.position
        if end - pos >= 9:
            key_tag, n_rows = _HEADER.unpack_from(data, pos)
            pos += 9
        else:
            reader.seek(pos)
            key_tag, n_rows = reader.u8(), reader.u64()
            pos = reader.position
        size = 8 * n_rows
        if key_tag == _KEY_I64 and pos + 2 * size <= end:
            keys: object = memory[pos : pos + size]
            values = memory[pos + size : pos + 2 * size]
            pos += 2 * size
        else:
            reader.seek(pos)
            keys = _read_keys(reader, key_tag, n_rows, index)
            values = reader.view(size)
            pos = reader.position
        out.append((instance, key_tag, keys, values))
    reader.seek(pos)


def _read_keys(reader: Reader, key_tag: int, n_rows: int, index: int) -> object:
    """Read batch ``index``'s key column, field by field."""
    if key_tag == _KEY_I64:
        return reader.view(8 * n_rows)
    if key_tag == _KEY_STR:
        return _read_str_keys(reader, n_rows, index)
    if key_tag == _KEY_TAGGED:
        return reader.labels(n_rows)
    raise SketchCodecError(f"batch {index}: unknown key tag {key_tag}")


def _read_str_keys(reader: Reader, n_rows: int, index: int) -> list[str]:
    """Read batch ``index``'s ``utf-8`` key column: lengths, then bytes."""
    lengths = reader.column("<u4", n_rows)
    view = reader.view(int(lengths.sum(dtype=np.uint64)))
    decoded = []
    offset = 0
    try:
        for length in lengths.tolist():
            decoded.append(str(view[offset : offset + length], "utf-8"))
            offset += length
    except UnicodeDecodeError as exc:
        raise SketchCodecError(
            f"batch {index}: corrupt utf-8 key payload: {exc}"
        ) from exc
    return decoded


def _column(views: Sequence[memoryview], dtype: str) -> np.ndarray:
    """One column of byte views: a view of a lone one, else a copy."""
    return np.frombuffer(views[0] if len(views) == 1 else b"".join(views), dtype)


def _join(instance: object, parts: list[_RawBatch]) -> WireBatch:
    """One instance's batches as one :class:`WireBatch`."""
    _, key_tags, key_columns, value_columns = zip(*parts)
    values = _column(value_columns, "<f8")
    if key_tags.count(_KEY_I64) == len(key_tags):
        return WireBatch(instance, _column(key_columns, "<i8"), values)
    joined: list = []
    for key_tag, keys in zip(key_tags, key_columns):
        joined.extend(np.frombuffer(keys, "<i8") if key_tag == _KEY_I64 else keys)
    return WireBatch(instance, joined, values)


def _check_finite(batches: list[_RawBatch]) -> None:
    """Reject the first non-finite value of ``batches``: one pass over
    all their values, then a walk to name the batch only on failure."""
    columns = [np.frombuffer(raw, "<f8") for _, _, _, raw in batches]
    if not columns or np.isfinite(np.concatenate(columns)).all():
        return
    for index, ((instance, _, _, _), values) in enumerate(zip(batches, columns)):
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise SketchCodecError(
                f"batch {index} (instance {instance!r}): non-finite "
                f"update value {float(values[bad])!r} at row {bad}"
            )


def encode_replica(mode: int, last_lsn: int, payload: bytes) -> bytes:
    """Frame one ``/replicate`` response body.

    Layout: ``b"RREP"`` magic, u16 version, u8 mode
    (:data:`REPLICA_MODE_WAL` / :data:`REPLICA_MODE_STORE`), u64
    ``last_lsn`` (the follower's next ``since`` cursor), then the
    length-prefixed payload.
    """
    if mode not in (REPLICA_MODE_WAL, REPLICA_MODE_STORE):
        raise SketchCodecError(f"unknown replica mode {mode}")
    writer = Writer()
    writer.raw(REPLICA_MAGIC)
    writer.u16(REPLICA_VERSION)
    writer.u8(mode)
    writer.u64(int(last_lsn))
    writer.blob(bytes(payload))
    return writer.getvalue()


def decode_replica(data: bytes) -> tuple[int, int, bytes]:
    """Decode a ``/replicate`` body into ``(mode, last_lsn, payload)``."""
    reader = Reader(data)
    magic = reader.raw(len(REPLICA_MAGIC))
    if magic != REPLICA_MAGIC:
        raise SketchCodecError(
            f"bad magic {magic!r}: not a repro replica payload"
        )
    version = reader.u16()
    if not 1 <= version <= REPLICA_VERSION:
        raise SketchCodecError(
            f"unsupported replica version {version}; this build reads "
            f"versions 1..{REPLICA_VERSION}"
        )
    mode = reader.u8()
    if mode not in (REPLICA_MODE_WAL, REPLICA_MODE_STORE):
        raise SketchCodecError(f"unknown replica mode {mode}")
    last_lsn = reader.u64()
    payload = reader.blob()
    reader.expect_end()
    return mode, last_lsn, payload
