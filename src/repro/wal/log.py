"""The append-only segment log: framing, rotation, fsync, validation.

Layout
------
A log is a directory of segment files named ``wal-<base LSN>.wal``.
Every segment starts with a fixed header::

    magic     b"RWAL"   4 bytes
    version   u16       (currently 1)
    base_lsn  u64       first LSN appended to this segment

followed by a run of framed records::

    magic     b"RWRC"   4 bytes
    body_len  u32
    crc32     u32       zlib.crc32 of the body
    body      body_len bytes

and a record body is, in :mod:`repro.service.codec` primitives::

    kind      u8        1 ingest batch / 2 engine state
    lsn       u64       log-wide monotone sequence number
    name      text      engine name (u64 length + utf-8)
    version   u64       per-engine version assigned at plan time
    payload   rest      kind 1: repro.server.wire batch blob (RBAT)
                        kind 2: repro.service.codec engine blob (RSVC)

Integrity policy
----------------
Appends are atomic at record granularity only as far as the OS allows,
so a crash can tear the *final* record: leave a short frame header, a
body shorter than its declared length, or a checksum mismatch at end of
file.  Those anomalies — in the last position of the last segment, with
no intact record after them — are torn tails: tolerated and truncated.
Everything else (anomalies in sealed segments, an anomaly followed by an
intact record, an LSN gap, a checksummed body that fails to decode)
raises :class:`~repro.exceptions.WalCorruptionError` naming the segment
file and byte offset.  A checksum-valid record is never reinterpreted;
a checksum-invalid region is never skipped over.

Durability policy (``fsync``)
-----------------------------
``always``
    flush + ``os.fsync`` after every append: an acknowledged batch
    survives power loss.
``interval``
    flush after every append (bounding loss to OS-cache lifetime on
    process crash), ``os.fsync`` at most every ``fsync_interval``
    seconds plus on rotation and close: the serving default.
``off``
    flush only, never fsync: benchmarking / throwaway stores.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import IO, NamedTuple

from repro.exceptions import (
    InvalidParameterError,
    SketchCodecError,
    WalCorruptionError,
)
from repro.obs import LatencyHistogram
from repro.service.codec import Reader, Writer
from repro.service.store import fsync_directory
from repro.server.wire import encode_batches

__all__ = [
    "FSYNC_POLICIES",
    "RECORD_BATCH",
    "RECORD_ENGINE",
    "RECORD_HEADER_BYTES",
    "SEGMENT_HEADER_BYTES",
    "WalRecord",
    "WriteAheadLog",
    "decode_tail",
]

SEGMENT_MAGIC = b"RWAL"
SEGMENT_VERSION = 1
#: segment magic + u16 version + u64 base LSN
SEGMENT_HEADER_BYTES = 14

RECORD_MAGIC = b"RWRC"
#: record magic + u32 body length + u32 crc32
RECORD_HEADER_BYTES = 12

#: record kinds
RECORD_BATCH = 1
RECORD_ENGINE = 2

FSYNC_POLICIES = ("always", "interval", "off")

_SEGMENT_SUFFIX = ".wal"
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class WalRecord(NamedTuple):
    """One decoded log record."""

    kind: int
    lsn: int
    name: str
    version: int
    payload: bytes


class _TailAnomaly(Exception):
    """Internal: the frame scan hit something torn-tail-shaped.

    Whether it really *is* a torn tail (tolerated) or mid-log corruption
    (fatal) is decided by the caller from the anomaly's position.
    """

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


class _SegmentScan(NamedTuple):
    base_lsn: int
    records: list[WalRecord]
    #: ``(start, end)`` byte offsets of each record's frame in the segment
    frames: list[tuple[int, int]]
    clean_end: int
    torn_offset: int | None


def _encode_record(
    kind: int, lsn: int, name: str, version: int, payload: bytes
) -> bytes:
    writer = Writer()
    writer.u8(kind)
    writer.u64(lsn)
    writer.text(name)
    writer.u64(version)
    writer.raw(payload)
    body = writer.getvalue()
    return (
        RECORD_MAGIC
        + _U32.pack(len(body))
        + _U32.pack(zlib.crc32(body))
        + body
    )


def _decode_body(body: bytes, where: str) -> WalRecord:
    """Decode a checksum-verified record body.

    The checksum already passed, so any decode failure here means the
    writer and reader disagree about the format — fatal, never a torn
    tail.
    """
    reader = Reader(body)
    try:
        kind = reader.u8()
        lsn = reader.u64()
        name = reader.text()
        version = reader.u64()
        payload = reader.raw(reader.remaining)
    except SketchCodecError as exc:
        raise WalCorruptionError(
            f"{where}: checksummed record body fails to decode: {exc}"
        ) from exc
    if kind not in (RECORD_BATCH, RECORD_ENGINE):
        raise WalCorruptionError(f"{where}: unknown record kind {kind}")
    return WalRecord(kind, lsn, name, version, bytes(payload))


def _parse_frame(data: bytes, offset: int) -> tuple[bytes, int]:
    """``(body, end offset)`` of the frame at ``offset``.

    Raises :class:`_TailAnomaly` when the bytes at ``offset`` do not
    hold one complete, checksum-valid frame.
    """
    if len(data) - offset < RECORD_HEADER_BYTES:
        raise _TailAnomaly(
            offset,
            f"{len(data) - offset} trailing bytes are shorter than a "
            f"{RECORD_HEADER_BYTES}-byte record header",
        )
    if data[offset : offset + 4] != RECORD_MAGIC:
        raise _TailAnomaly(
            offset, f"bad record magic {data[offset : offset + 4]!r}"
        )
    (body_len,) = _U32.unpack_from(data, offset + 4)
    (crc,) = _U32.unpack_from(data, offset + 8)
    end = offset + RECORD_HEADER_BYTES + body_len
    if end > len(data):
        raise _TailAnomaly(
            offset,
            f"record body of {body_len} bytes extends {end - len(data)} "
            "bytes past end of segment",
        )
    body = data[offset + RECORD_HEADER_BYTES : end]
    if zlib.crc32(body) != crc:
        raise _TailAnomaly(offset, "record checksum mismatch")
    return body, end


def _find_intact_frame_after(data: bytes, offset: int) -> int | None:
    """Offset of the first complete, checksum-valid frame strictly after
    ``offset``, if any — the torn-tail-vs-corruption discriminator."""
    probe = data.find(RECORD_MAGIC, offset + 1)
    while probe != -1:
        try:
            _parse_frame(data, probe)
        except _TailAnomaly:
            probe = data.find(RECORD_MAGIC, probe + 1)
        else:
            return probe
    return None


def _scan_segment(
    path: Path, data: bytes, prev_lsn: int | None, final: bool
) -> _SegmentScan:
    """Validate one segment and decode its records.

    ``final`` marks the last segment of the log — the only place a torn
    tail may legitimately appear.  ``prev_lsn`` (when known) checks base
    continuity against the previous segment.  A final segment whose
    header itself was torn scans as ``base_lsn == -1`` with no records.
    """
    size = len(data)
    if size < SEGMENT_HEADER_BYTES:
        if final:
            return _SegmentScan(-1, [], [], 0, 0)
        raise WalCorruptionError(
            f"{path}: sealed segment shorter than its "
            f"{SEGMENT_HEADER_BYTES}-byte header ({size} bytes)"
        )
    if data[:4] != SEGMENT_MAGIC:
        raise WalCorruptionError(
            f"{path}: bad segment magic {data[:4]!r} at offset 0"
        )
    (segment_version,) = _U16.unpack_from(data, 4)
    if segment_version != SEGMENT_VERSION:
        raise WalCorruptionError(
            f"{path}: unsupported segment version {segment_version}; this "
            f"build reads version {SEGMENT_VERSION}"
        )
    (base_lsn,) = _U64.unpack_from(data, 6)
    if prev_lsn is not None and base_lsn != prev_lsn + 1:
        raise WalCorruptionError(
            f"{path}: segment base LSN {base_lsn} does not continue the "
            f"log (previous record was LSN {prev_lsn})"
        )
    records: list[WalRecord] = []
    frames: list[tuple[int, int]] = []
    offset = SEGMENT_HEADER_BYTES
    expected = base_lsn
    torn_offset: int | None = None
    while offset < size:
        try:
            body, end = _parse_frame(data, offset)
        except _TailAnomaly as anomaly:
            if not final:
                raise WalCorruptionError(
                    f"{path}: corrupt record at offset {anomaly.offset} in "
                    f"a sealed segment: {anomaly.reason}"
                ) from None
            intact_after = _find_intact_frame_after(data, anomaly.offset)
            if intact_after is not None:
                raise WalCorruptionError(
                    f"{path}: corrupt record at offset {anomaly.offset} "
                    f"({anomaly.reason}) followed by an intact record at "
                    f"offset {intact_after}; mid-log corruption is not a "
                    "torn tail — refusing to replay"
                ) from None
            torn_offset = anomaly.offset
            break
        record = _decode_body(body, f"{path} offset {offset}")
        if record.lsn != expected:
            raise WalCorruptionError(
                f"{path}: record at offset {offset} carries LSN "
                f"{record.lsn} where {expected} was expected — "
                "checksum-valid but out of sequence; refusing to replay"
            )
        records.append(record)
        frames.append((offset, end))
        expected += 1
        offset = end
    clean_end = offset if torn_offset is None else torn_offset
    return _SegmentScan(base_lsn, records, frames, clean_end, torn_offset)


def decode_tail(data: bytes) -> list[WalRecord]:
    """Decode a shipped tail (concatenated record frames), strictly.

    A replica tail travels over HTTP, not a crashing disk, so nothing
    torn is tolerated: any framing or checksum failure raises
    :class:`~repro.exceptions.WalCorruptionError`.
    """
    records: list[WalRecord] = []
    offset = 0
    while offset < len(data):
        try:
            body, end = _parse_frame(data, offset)
        except _TailAnomaly as anomaly:
            raise WalCorruptionError(
                f"replica tail: corrupt record at offset {anomaly.offset}: "
                f"{anomaly.reason}"
            ) from None
        records.append(_decode_body(body, f"replica tail offset {offset}"))
        offset = end
    return records


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated ingest log.

    Opening a directory that already holds segments resumes the log:
    the final segment is validated, a torn tail (if any) is truncated,
    and appends continue from the next LSN.  All methods are
    thread-safe; appends serialize on one internal lock.

    Examples
    --------
    ::

        wal = WriteAheadLog(data_dir / "wal", fsync="always")
        store.attach_wal(wal)           # ingests now append-before-apply
        ...
        store.snapshot_marked(path)     # checkpoints (truncates) the log
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        segment_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise InvalidParameterError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got "
                f"{fsync!r}"
            )
        # written so that NaN fails too
        if not float(fsync_interval) >= 0:
            raise InvalidParameterError(
                f"fsync_interval must be >= 0, got {fsync_interval}"
            )
        if int(segment_bytes) <= SEGMENT_HEADER_BYTES:
            raise InvalidParameterError(
                f"segment_bytes must exceed the {SEGMENT_HEADER_BYTES}-byte "
                f"segment header, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_bytes = int(segment_bytes)
        #: fsync wall-time distribution (mergeable, quantile-queryable)
        self.fsync_histogram = LatencyHistogram()
        self._lock = threading.Lock()
        self._handle: IO[bytes] | None = None
        #: ``(base LSN, path)`` per segment, ascending; the last is open
        self._segments: list[tuple[int, Path]] = []
        self._segment_size = 0
        self._last_lsn = 0
        self._checkpoint_lsn = 0
        self._appended_records = 0
        self._appended_bytes = 0
        self._fsync_count = 0
        self._fsync_seconds = 0.0
        self._last_fsync = time.monotonic()
        # checkpoint age is measured from log open: a freshly opened log
        # that never checkpoints is exactly as replay-heavy as its age
        self._last_checkpoint = time.monotonic()
        self._replay_seconds: float | None = None
        self._replayed_records = 0
        self._torn_tail: str | None = None
        self._open_directory()

    # ------------------------------------------------------------------
    # Opening / segment management
    # ------------------------------------------------------------------
    def _open_directory(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.directory.glob(f"wal-*{_SEGMENT_SUFFIX}")):
            try:
                base = int(path.stem.partition("-")[2])
            except ValueError:
                raise WalCorruptionError(
                    f"{path}: segment file name does not encode a base LSN"
                ) from None
            self._segments.append((base, path))
        self._segments.sort()
        if not self._segments:
            self._create_segment(1)
            return
        base, path = self._segments[-1]
        data = path.read_bytes()
        scan = _scan_segment(path, data, None, final=True)
        if scan.base_lsn == -1:
            # the header write itself was torn; the file name still
            # encodes the base LSN, so rewrite the header in place
            self._torn_tail = f"{path}: torn segment header"
            with path.open("wb") as handle:
                handle.write(self._segment_header(base))
            self._last_lsn = base - 1
            self._segment_size = SEGMENT_HEADER_BYTES
        else:
            if scan.base_lsn != base:
                raise WalCorruptionError(
                    f"{path}: file name encodes base LSN {base} but the "
                    f"segment header says {scan.base_lsn}"
                )
            if scan.torn_offset is not None:
                self._torn_tail = (
                    f"{path}: torn tail truncated at offset "
                    f"{scan.torn_offset}"
                )
                os.truncate(path, scan.clean_end)
            self._last_lsn = (
                scan.records[-1].lsn if scan.records else base - 1
            )
            self._segment_size = scan.clean_end
        self._handle = path.open("ab")

    @staticmethod
    def _segment_header(base_lsn: int) -> bytes:
        return SEGMENT_MAGIC + _U16.pack(SEGMENT_VERSION) + _U64.pack(base_lsn)

    def _create_segment(self, base_lsn: int) -> None:
        path = self.directory / f"wal-{base_lsn:020d}{_SEGMENT_SUFFIX}"
        with path.open("wb") as handle:
            handle.write(self._segment_header(base_lsn))
            handle.flush()
            if self.fsync_policy != "off":
                os.fsync(handle.fileno())
        self._fsync_directory()
        self._segments.append((base_lsn, path))
        self._handle = path.open("ab")
        self._segment_size = SEGMENT_HEADER_BYTES

    def _fsync_directory(self) -> None:
        # a created or deleted segment only survives power loss once the
        # directory entry itself is durable
        if self.fsync_policy != "off":
            fsync_directory(self.directory)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_batch(
        self, name: str, version: int, instance: object, keys, values
    ) -> int:
        """Append one ingest batch; returns its LSN.

        ``version`` is the per-engine version the batch will have once
        applied — the idempotence key replay checks against snapshot
        marks.
        """
        payload = encode_batches([(instance, keys, values)])
        return self.append_batch_blob(name, version, payload)

    def append_batch_blob(self, name: str, version: int, payload: bytes) -> int:
        """Append an already wire-encoded batch payload; returns its LSN.

        The record body is the :func:`repro.server.wire.encode_batches`
        blob the caller already holds (:meth:`append_batch` encodes one
        batch and delegates here).
        """
        return self._append(RECORD_BATCH, name, version, bytes(payload))

    def append_engine(self, name: str, version: int, engine_blob: bytes) -> int:
        """Append a full engine-state record (create / merge / adopt);
        returns its LSN."""
        return self._append(RECORD_ENGINE, name, version, bytes(engine_blob))

    def _append(self, kind: int, name: str, version: int, payload: bytes) -> int:
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                f"WAL records require a non-empty engine name, got {name!r}"
            )
        with self._lock:
            if self._handle is None:
                raise InvalidParameterError("the write-ahead log is closed")
            lsn = self._last_lsn + 1
            frame = _encode_record(kind, lsn, name, int(version), payload)
            self._handle.write(frame)
            self._last_lsn = lsn
            self._segment_size += len(frame)
            self._appended_records += 1
            self._appended_bytes += len(frame)
            if self.fsync_policy == "always":
                self._fsync_locked()
            else:
                self._handle.flush()
                if (
                    self.fsync_policy == "interval"
                    and time.monotonic() - self._last_fsync
                    >= self.fsync_interval
                ):
                    self._fsync_locked()
            if self._segment_size >= self.segment_bytes:
                self._rotate_locked()
            return lsn

    def _fsync_locked(self) -> None:
        assert self._handle is not None
        started = time.perf_counter()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        elapsed = time.perf_counter() - started
        self.fsync_histogram.observe(elapsed)
        self._fsync_count += 1
        self._fsync_seconds += elapsed
        self._last_fsync = time.monotonic()

    def _rotate_locked(self) -> None:
        if self._segment_size <= SEGMENT_HEADER_BYTES:
            return  # rotating an empty segment seals nothing
        assert self._handle is not None
        if self.fsync_policy != "off":
            self._fsync_locked()
        self._handle.close()
        self._create_segment(self._last_lsn + 1)

    def sync(self) -> None:
        """Force an fsync of the live segment now (any policy)."""
        with self._lock:
            if self._handle is not None:
                self._fsync_locked()

    def close(self) -> None:
        """Flush (and, unless ``fsync='off'``, fsync) and close."""
        with self._lock:
            if self._handle is None:
                return
            if self.fsync_policy != "off":
                self._fsync_locked()
            else:
                self._handle.flush()
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, up_to_lsn: int) -> int:
        """Drop segments fully covered by a snapshot at ``up_to_lsn``.

        Seals the live segment (rotation), then deletes every sealed
        segment whose records all have LSN <= ``up_to_lsn``.  Records
        beyond the cutoff stay replayable; returns the number of deleted
        segments.
        """
        with self._lock:
            if self._handle is None:
                raise InvalidParameterError("the write-ahead log is closed")
            self._rotate_locked()
            self._checkpoint_lsn = max(self._checkpoint_lsn, int(up_to_lsn))
            self._last_checkpoint = time.monotonic()
            removed = 0
            while len(self._segments) > 1:
                _, path = self._segments[0]
                next_base = self._segments[1][0]
                if next_base - 1 > int(up_to_lsn):
                    break
                path.unlink(missing_ok=True)
                self._segments.pop(0)
                removed += 1
            if removed:
                self._fsync_directory()
            return removed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_all(self) -> tuple[list[WalRecord], str | None]:
        """Every record in LSN order, plus a torn-tail note (or None).

        Raises :class:`~repro.exceptions.WalCorruptionError` on anything
        that is not a torn tail of the final segment.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            segments = list(self._segments)
            records: list[WalRecord] = []
            torn = self._torn_tail
            prev_lsn: int | None = None
            for index, (base, path) in enumerate(segments):
                final = index == len(segments) - 1
                scan = _scan_segment(
                    path, path.read_bytes(), prev_lsn, final=final
                )
                if scan.base_lsn == -1:
                    torn = f"{path}: torn segment header"
                    continue
                records.extend(scan.records)
                if scan.torn_offset is not None:
                    torn = (
                        f"{path}: torn tail at offset {scan.torn_offset}"
                    )
                prev_lsn = (
                    scan.records[-1].lsn
                    if scan.records
                    else scan.base_lsn - 1
                )
            return records, torn

    def tail_since(self, since: int) -> tuple[bytes, int] | None:
        """Raw record frames with LSN > ``since`` and the last LSN they
        run up to, or ``None`` when that tail was checkpointed away.

        The returned blob is a valid :func:`decode_tail` input; callers
        that get ``None`` must fall back to shipping full sketch state.
        """
        since = int(since)
        if since < 0:
            raise InvalidParameterError(f"since must be >= 0, got {since}")
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            if since + 1 < self._segments[0][0]:
                return None
            chunks: list[bytes] = []
            for index, (base, path) in enumerate(self._segments):
                final = index == len(self._segments) - 1
                upper = (
                    self._last_lsn
                    if final
                    else self._segments[index + 1][0] - 1
                )
                if upper <= since:
                    continue
                data = path.read_bytes()
                scan = _scan_segment(path, data, None, final=final)
                if scan.torn_offset is not None:
                    # the live segment was flushed under this lock, so a
                    # short read here is on-disk damage, not a torn write
                    raise WalCorruptionError(
                        f"{path}: unreadable record at offset "
                        f"{scan.torn_offset} while shipping the tail"
                    )
                for record, (start, end) in zip(scan.records, scan.frames):
                    if record.lsn > since:
                        chunks.append(data[start:end])
            return b"".join(chunks), self._last_lsn

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._last_lsn

    @property
    def checkpoint_lsn(self) -> int:
        """Highest LSN a checkpoint has covered."""
        return self._checkpoint_lsn

    @property
    def torn_tail(self) -> str | None:
        """Description of the torn tail truncated at open, if any."""
        return self._torn_tail

    @property
    def checkpoint_age_seconds(self) -> float:
        """Seconds since the last checkpoint (or since the log was
        opened, when it never checkpointed) — a recovery-cost proxy:
        the older the checkpoint, the longer the replay tail."""
        return time.monotonic() - self._last_checkpoint

    def segment_paths(self) -> list[Path]:
        """Current segment files, oldest first (the last one is live)."""
        with self._lock:
            return [path for _, path in self._segments]

    def note_replay(self, seconds: float, records: int) -> None:
        """Record how long recovery replay took (reported by stats)."""
        with self._lock:
            self._replay_seconds = float(seconds)
            self._replayed_records = int(records)

    def stats(self) -> dict:
        """Counters for ``/metrics``: appends, fsyncs, segments, LSNs."""
        with self._lock:
            return {
                "directory": str(self.directory),
                "fsync_policy": self.fsync_policy,
                "appended_records": self._appended_records,
                "appended_bytes": self._appended_bytes,
                "fsync_count": self._fsync_count,
                "fsync_seconds": self._fsync_seconds,
                "segments": len(self._segments),
                "last_lsn": self._last_lsn,
                "checkpoint_lsn": self._checkpoint_lsn,
                "checkpoint_age_seconds": (
                    time.monotonic() - self._last_checkpoint
                ),
                "replay_seconds": self._replay_seconds,
                "replayed_records": self._replayed_records,
                "torn_tail": self._torn_tail,
            }
