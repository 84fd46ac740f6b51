"""Crash-recovery semantics: snapshot + tail replay, bit-exact.

Each crash window the ISSUE calls out gets a test: a record logged but
never applied, a snapshot persisted but the WAL truncation interrupted,
and an empty just-created segment on startup.  Replay must be
idempotent in every window — recovering twice, or recovering a log that
overlaps the snapshot, never double-applies a batch.
"""

from __future__ import annotations

import pytest

import faults
from repro.exceptions import (
    InvalidParameterError,
    SketchCodecError,
    WalCorruptionError,
)
from repro.server.wire import encode_batches
from repro.service import codec
from repro.service.store import IngestRequest, SketchStore
from repro.wal import WriteAheadLog, apply_records, recover_store

from ingest_helper import ingest


def engine_bytes(store) -> bytes:
    return codec.to_bytes(store.engine(faults.ENGINE))


def reopen_and_recover(wal_dir, snapshot=None):
    wal = WriteAheadLog(wal_dir, fsync="off")
    try:
        return recover_store(snapshot, wal)
    finally:
        wal.close()


class TestRecoverFromLogAlone:
    def test_rotated_log_replays_across_segments(self, tmp_path):
        store, wal = faults.build_wal_store(
            tmp_path / "wal", segment_bytes=256
        )
        faults.fill(store, 10)
        assert len(wal.segment_paths()) > 1
        wal.close()
        report = reopen_and_recover(tmp_path / "wal")
        assert engine_bytes(report.store) == engine_bytes(store)
        assert report.replayed_records == 11


class TestCrashWindows:
    def test_record_logged_but_never_applied(self, tmp_path):
        # crash between the WAL append and the in-memory apply: the
        # acknowledged-but-unapplied batch must come back on recovery
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 3)
        instance, keys, values = faults.batch(3)
        wal.append_batch(
            faults.ENGINE,
            store.version(faults.ENGINE) + 1,
            instance,
            keys,
            values,
        )
        wal.close()
        report = reopen_and_recover(tmp_path / "wal")
        assert engine_bytes(report.store) == codec.to_bytes(
            faults.control_after(4)
        )
        assert report.store.version(faults.ENGINE) == 4

    def test_snapshot_persisted_but_truncation_interrupted(self, tmp_path):
        # crash after the snapshot rename but before the checkpoint: the
        # whole log overlaps the snapshot and must be skipped wholesale
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 5)
        snapshot = tmp_path / "store.bin"
        store.snapshot_marked(snapshot, checkpoint_wal=False)
        wal.close()
        report = reopen_and_recover(tmp_path / "wal", snapshot)
        assert engine_bytes(report.store) == engine_bytes(store)
        assert report.snapshot_engines == 1
        assert report.replayed_records == 0
        assert report.skipped_records == 6  # engine create + 5 batches
        assert report.store.version(faults.ENGINE) == 5

    def test_replay_resumes_exactly_past_the_snapshot(self, tmp_path):
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 3)
        snapshot = tmp_path / "store.bin"
        store.snapshot_marked(snapshot, checkpoint_wal=False)
        for i in range(3, 6):
            instance, keys, values = faults.batch(i)
            ingest(store, faults.ENGINE, instance, keys, values)
        wal.close()
        report = reopen_and_recover(tmp_path / "wal", snapshot)
        assert engine_bytes(report.store) == codec.to_bytes(
            faults.control_after(6)
        )
        assert report.skipped_records == 4  # engine create + batches 1..3
        assert report.replayed_records == 3  # batches 4..6

    def test_empty_wal_segment_on_startup(self, tmp_path):
        # crash right after segment creation: header only, zero records
        store = faults.build_store()
        faults.fill(store, 4)
        snapshot = tmp_path / "store.bin"
        store.snapshot_marked(snapshot)
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        wal.close()
        report = reopen_and_recover(tmp_path / "wal", snapshot)
        assert engine_bytes(report.store) == engine_bytes(store)
        assert report.replayed_records == 0
        assert report.skipped_records == 0
        assert report.last_lsn == 0

    def test_replay_is_idempotent(self, tmp_path):
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 4)
        wal.close()
        reader = WriteAheadLog(tmp_path / "wal", fsync="off")
        try:
            records, torn = reader.read_all()
        finally:
            reader.close()
        assert torn is None
        recovered = SketchStore()
        assert apply_records(recovered, records) == (5, 20, 0)
        once = engine_bytes(recovered)
        # a second pass over the same records is a no-op
        assert apply_records(recovered, records) == (0, 0, 5)
        assert engine_bytes(recovered) == once == engine_bytes(store)


class TestEngineRecords:
    def test_adopt_is_logged_and_replayed(self, tmp_path):
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 2)
        replacement = faults.build_store()
        faults.fill(replacement, 6)
        store.adopt(
            faults.ENGINE, replacement.engine(faults.ENGINE), version=10
        )
        wal.close()
        report = reopen_and_recover(tmp_path / "wal")
        assert engine_bytes(report.store) == engine_bytes(replacement)
        assert report.store.version(faults.ENGINE) == 10

    def test_adopt_that_keeps_the_version_is_replayed(self, tmp_path):
        # the engine record is logged at the store's version, 4: replay
        # must adopt it, not skip it as already reached
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 4)
        replacement = faults.build_store()
        faults.fill(replacement, 2)
        store.adopt(faults.ENGINE, replacement.engine(faults.ENGINE))
        snapshot = tmp_path / "store.bin"
        store.snapshot_marked(snapshot, checkpoint_wal=False)
        wal.close()
        report = reopen_and_recover(tmp_path / "wal")
        assert engine_bytes(report.store) == engine_bytes(replacement)
        assert report.store.version(faults.ENGINE) == 4
        assert (report.replayed_records, report.skipped_records) == (6, 0)
        # on a snapshot that holds the adoption, re-adopting changes no byte
        report = reopen_and_recover(tmp_path / "wal", snapshot)
        assert engine_bytes(report.store) == engine_bytes(replacement)
        assert (report.replayed_records, report.skipped_records) == (1, 5)

    def test_batch_for_unknown_engine_is_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        instance, keys, values = faults.batch(0)
        wal.append_batch("ghost", 1, instance, keys, values)
        wal.close()
        with pytest.raises(WalCorruptionError, match="ghost"):
            reopen_and_recover(tmp_path / "wal")

    @pytest.mark.parametrize("n_batches", [0, 2])
    def test_batch_record_must_hold_exactly_one_batch(
        self, tmp_path, n_batches
    ):
        # one record is one version: a record decoding to any other
        # batch count is corruption, refused before any of it applies
        self.assert_record_refused(
            tmp_path, [faults.batch(i) for i in range(1, 1 + n_batches)]
        )

    def test_two_batches_of_one_instance_are_refused(self, tmp_path):
        # the decoder joins them into one batch, but the record's wire
        # header still declares two
        batches = [faults.batch(1), faults.batch(3)]
        assert batches[0][0] == batches[1][0]
        self.assert_record_refused(tmp_path, batches)

    @staticmethod
    def assert_record_refused(tmp_path, batches) -> None:
        n_batches = len(batches)
        store, wal = faults.build_wal_store(tmp_path / "wal")
        faults.fill(store, 1)
        blob = encode_batches(batches)
        lsn = wal.append_batch_blob(faults.ENGINE, 2, blob)
        wal.close()
        reader = WriteAheadLog(tmp_path / "wal", fsync="off")
        try:
            records, _ = reader.read_all()
        finally:
            reader.close()
        recovered = SketchStore()
        with pytest.raises(
            WalCorruptionError, match=rf"LSN {lsn} .* {n_batches} batches"
        ):
            apply_records(recovered, records)
        assert recovered.version(faults.ENGINE) == 1
        assert engine_bytes(recovered) == codec.to_bytes(
            faults.control_after(1)
        )


class TestReplayBatchGuards:
    @pytest.mark.parametrize("replay", [False, True])
    def test_batch_the_log_refuses_changes_nothing(self, tmp_path, replay):
        """A key the wire codec cannot encode is refused by the log
        before the engine plans the batch: no counter, instance or
        version moves, so the next snapshot agrees with WAL recovery."""
        store, wal = faults.build_wal_store(tmp_path / "wal")
        try:
            faults.fill(store, 2)
            engine = store.engine(faults.ENGINE)
            before = (
                engine_bytes(store),
                engine.probe(),
                engine.instance_labels,
                store.version(faults.ENGINE),
            )
            request = IngestRequest(
                engine=faults.ENGINE,
                batches=(("fresh", [frozenset({1})], [1.0]),),
                version=3 if replay else None,
            )
            with pytest.raises(SketchCodecError):
                store.submit(request)
            after = (
                engine_bytes(store),
                engine.probe(),
                engine.instance_labels,
                store.version(faults.ENGINE),
            )
        finally:
            wal.close()
        assert after == before

    def test_stale_version_is_the_callers_bug(self, tmp_path):
        store = faults.build_store()
        faults.fill(store, 2)
        instance, keys, values = faults.batch(0)
        with pytest.raises(InvalidParameterError, match="version"):
            store.submit(
                IngestRequest(
                    engine=faults.ENGINE,
                    batches=((instance, keys, values),),
                    version=1,
                )
            )
