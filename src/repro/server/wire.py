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
vectorized :func:`numpy.isfinite` pass so the fast path is also the safe
path.

A body carries a *pipelined sequence* of batches, so one request can
amortize HTTP framing and executor-hop overhead over many logical
batches; the server coalesces them per instance before ingesting
(one coalescing :meth:`repro.service.SketchStore.submit`).

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

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import SketchCodecError
from repro.service.codec import Reader, Writer, read_label, write_label
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


class WireBatch(NamedTuple):
    """One decoded ingest batch.

    ``keys`` is a ``<i8`` NumPy array (homogeneous integer column), a
    list of strings, or a list of arbitrary decoded labels; ``values``
    is a float64 NumPy array viewing the payload bytes directly.
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
    """Decode a wire blob into :class:`WireBatch` columns.

    Raises :class:`~repro.exceptions.SketchCodecError` on any malformed
    payload — including non-finite values, which are detected with one
    vectorized ``np.isfinite`` pass per batch so a poisoned row can
    never reach a sketch.
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
    batches = []
    for index in range(reader.u32()):
        instance = read_label(reader)
        key_tag = reader.u8()
        n_rows = reader.u64()
        keys: Sequence[object]
        if key_tag == _KEY_I64:
            keys = np.frombuffer(reader.raw(8 * n_rows), dtype="<i8")
        elif key_tag == _KEY_STR:
            lengths = np.frombuffer(reader.raw(4 * n_rows), dtype="<u4")
            blob = reader.raw(int(lengths.sum(dtype=np.uint64)))
            view = memoryview(blob)
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
            keys = decoded
        elif key_tag == _KEY_TAGGED:
            keys = [read_label(reader) for _ in range(n_rows)]
        else:
            raise SketchCodecError(
                f"batch {index}: unknown key tag {key_tag}"
            )
        values = np.frombuffer(reader.raw(8 * n_rows), dtype="<f8")
        if values.size:
            finite = np.isfinite(values)
            if not finite.all():
                bad = int(np.flatnonzero(~finite)[0])
                raise SketchCodecError(
                    f"batch {index} (instance {instance!r}): non-finite "
                    f"update value {float(values[bad])!r} at row {bad}"
                )
        batches.append(WireBatch(instance, keys, values))
    reader.expect_end()
    return batches


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
