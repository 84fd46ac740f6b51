"""Fault-injection helpers for the write-ahead-log suite.

Small, deterministic primitives the tests compose: build a WAL-attached
store next to an identical control store, then damage the log —
truncate it at an arbitrary byte, flip a single bit, tear the final
record at every offset — and check recovery either reproduces the
control state (minus the torn batch) or fails loudly with offset
context.  Never a silently partial store.
"""

from __future__ import annotations

from pathlib import Path

from repro.sampling.seeds import SeedAssigner
from repro.service.store import SketchStore
from repro.wal import WriteAheadLog
from repro.wal.log import (
    RECORD_HEADER_BYTES,
    RECORD_MAGIC,
    SEGMENT_HEADER_BYTES,
    _U32,
)

from ingest_helper import ingest

#: engine name every helper-built store registers
ENGINE = "t"


def make_engine_kwargs(kind: str) -> dict:
    kwargs = {
        "seed_assigner": SeedAssigner(salt=7, coordinated=True),
        "n_shards": 4,
    }
    if kind == "poisson":
        kwargs["threshold"] = 0.05
    else:
        kwargs["k"] = 32
    return kwargs


def build_store(kind: str = "poisson") -> SketchStore:
    store = SketchStore()
    store.create(ENGINE, kind, **make_engine_kwargs(kind))
    return store


def build_wal_store(
    wal_dir: Path,
    kind: str = "poisson",
    *,
    fsync: str = "off",
    segment_bytes: int = 64 * 1024 * 1024,
) -> tuple[SketchStore, WriteAheadLog]:
    """A fresh store with an attached log (engine-create record included)."""
    store = SketchStore()
    wal = WriteAheadLog(wal_dir, fsync=fsync, segment_bytes=segment_bytes)
    store.attach_wal(wal)
    store.create(ENGINE, kind, **make_engine_kwargs(kind))
    return store, wal


def batch(i: int, rows: int = 5) -> tuple[str, list[str], list[float]]:
    """The ``i``-th deterministic ingest batch."""
    return (
        "mon" if i % 2 == 0 else "tue",
        [f"user-{i}-{j}" for j in range(rows)],
        [float(j % 3 + 1) for j in range(rows)],
    )


def fill(store: SketchStore, n_batches: int, rows: int = 5) -> None:
    for i in range(n_batches):
        instance, keys, values = batch(i, rows)
        ingest(store, ENGINE, instance, keys, values)


def control_after(n_batches: int, kind: str = "poisson", rows: int = 5):
    """The engine state an uninterrupted ingest of ``n_batches`` reaches."""
    store = build_store(kind)
    fill(store, n_batches, rows)
    return store.engine(ENGINE)


def truncate_to(path: Path, size: int) -> None:
    path.write_bytes(path.read_bytes()[:size])


def flip_bit(path: Path, offset: int, bit: int = 0) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))


def record_spans(path: Path) -> list[tuple[int, int]]:
    """``(start, end)`` byte spans of every record frame in a segment.

    Walks the framing directly (magic + declared body length) instead of
    going through the validating scanner, so the tests can locate the
    final record even in files they are about to damage.
    """
    data = path.read_bytes()
    spans = []
    offset = SEGMENT_HEADER_BYTES
    while offset + RECORD_HEADER_BYTES <= len(data):
        assert data[offset : offset + 4] == RECORD_MAGIC, (
            f"helper walked off the frame chain at offset {offset}"
        )
        (body_len,) = _U32.unpack_from(data, offset + 4)
        end = offset + RECORD_HEADER_BYTES + body_len
        spans.append((offset, end))
        offset = end
    return spans
