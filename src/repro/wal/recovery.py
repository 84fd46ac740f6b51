"""Crash recovery: restore the last snapshot, replay the WAL tail.

The invariant that makes this exact: every log record carries the
per-engine version the store assigned at plan time, snapshots are taken
at quiescent points, and versions advance by one per applied batch — so
"apply iff ``record.version > store.version(name)``" replays precisely
the records whose effects the snapshot missed, in order, once.  The
recovered sketches are bit-for-bit the pre-crash state (checked by
``tests/wal/``, including at every possible torn-tail byte offset).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import SketchCodecError, WalCorruptionError
from repro.server.wire import batch_count, decode_batches
from repro.service import codec
from repro.service.store import IngestRequest, SketchStore
from repro.wal.log import RECORD_BATCH, RECORD_ENGINE, WalRecord, WriteAheadLog

__all__ = ["RecoveryReport", "apply_records", "recover_store"]


class RecoveryReport(NamedTuple):
    """What :func:`recover_store` did, for operators and tests."""

    store: SketchStore
    snapshot_engines: int
    replayed_records: int
    replayed_rows: int
    skipped_records: int
    last_lsn: int
    torn_tail: str | None
    replay_seconds: float


def apply_records(
    store: SketchStore, records: list[WalRecord]
) -> tuple[int, int, int]:
    """Apply WAL records to ``store``; ``(applied, rows, skipped)``.

    Idempotent: batch records whose version the store has already
    reached are skipped, so replaying on top of a snapshot that contains
    some of the logged effects (the normal crash window) never
    double-applies.  An engine record is skipped only below the store's
    version: an adoption that kept the version logs its engine at it,
    and adopting a logged engine again leaves the same state.  Used
    both by recovery (records read from disk) and by replica catch-up
    (records shipped over ``/replicate``).

    A batch record naming an engine the store does not know — and that
    no earlier engine record created — means the log and the snapshot
    disagree about history, which is corruption, not a skippable detail.
    """
    applied = 0
    rows = 0
    skipped = 0
    for record in records:
        if record.kind == RECORD_ENGINE:
            if (
                record.name in store
                and record.version < store.version(record.name)
            ):
                skipped += 1
                continue
            try:
                engine = codec.from_bytes(record.payload)
            except SketchCodecError as exc:
                raise WalCorruptionError(
                    f"engine record LSN {record.lsn} for "
                    f"{record.name!r} fails to decode: {exc}"
                ) from exc
            store.adopt(record.name, engine, version=record.version)
            applied += 1
            continue
        # RECORD_BATCH — log.py rejects any other kind at decode time
        if record.name not in store:
            raise WalCorruptionError(
                f"batch record LSN {record.lsn} names unknown engine "
                f"{record.name!r}; the log does not match the snapshot "
                "— refusing to replay"
            )
        if record.version <= store.version(record.name):
            skipped += 1
            continue
        try:
            batches = decode_batches(record.payload)
        except SketchCodecError as exc:
            raise WalCorruptionError(
                f"batch record LSN {record.lsn} for {record.name!r} "
                f"fails to decode: {exc}"
            ) from exc
        # the store logs one batch per version: any other count cannot
        # be replayed under the record's single version
        n_batches = batch_count(record.payload)
        if n_batches != 1:
            raise WalCorruptionError(
                f"batch record LSN {record.lsn} for {record.name!r} "
                f"carries {n_batches} batches; every batch record "
                "holds exactly one"
            )
        store.submit(
            IngestRequest(
                engine=record.name,
                batches=batches,
                version=record.version,
            )
        )
        rows += len(batches[0].keys)
        applied += 1
    return applied, rows, skipped


def recover_store(
    snapshot_path: str | Path | None, wal: WriteAheadLog
) -> RecoveryReport:
    """Restore ``snapshot_path`` (if it exists) and replay ``wal``.

    The returned store has *no* WAL attached — the caller decides
    whether to attach ``wal`` afterwards (the serve CLI does, after
    snapshotting the recovered state and checkpointing the log).  Any
    non-torn-tail damage raises
    :class:`~repro.exceptions.WalCorruptionError` before a single record
    is applied; a recovered store is never silently partial.
    """
    started = time.perf_counter()
    if snapshot_path is not None and Path(snapshot_path).exists():
        store = SketchStore.restore(snapshot_path)
    else:
        store = SketchStore()
    snapshot_engines = len(store.names())
    records, torn_tail = wal.read_all()
    applied, rows, skipped = apply_records(store, records)
    elapsed = time.perf_counter() - started
    wal.note_replay(elapsed, applied)
    return RecoveryReport(
        store=store,
        snapshot_engines=snapshot_engines,
        replayed_records=applied,
        replayed_rows=rows,
        skipped_records=skipped,
        last_lsn=wal.last_lsn,
        torn_tail=torn_tail,
        replay_seconds=elapsed,
    )
