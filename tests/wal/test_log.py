"""Unit tests for the append-only segment log itself.

Framing, LSN discipline, rotation, checkpointing, tail shipping, fsync
policies and reopen semantics — everything below the recovery layer.
"""

from __future__ import annotations

import pytest

import faults
from repro.exceptions import InvalidParameterError, WalCorruptionError
from repro.server.wire import decode_batches
from repro.wal import (
    FSYNC_POLICIES,
    RECORD_BATCH,
    RECORD_ENGINE,
    WriteAheadLog,
    decode_tail,
)


def open_log(path, **kwargs):
    kwargs.setdefault("fsync", "off")
    return WriteAheadLog(path, **kwargs)


def append_n(wal: WriteAheadLog, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        instance, keys, values = faults.batch(i, rows=2)
        wal.append_batch("t", i + 1, instance, keys, values)


class TestFraming:
    def test_round_trip(self, tmp_path):
        wal = open_log(tmp_path)
        assert wal.append_engine("t", 0, b"engine-blob") == 1
        assert wal.append_batch("t", 1, "mon", ["a", "b"], [1.0, 2.5]) == 2
        records, torn = wal.read_all()
        wal.close()
        assert torn is None
        assert [r.lsn for r in records] == [1, 2]
        assert [r.kind for r in records] == [RECORD_ENGINE, RECORD_BATCH]
        assert [r.name for r in records] == ["t", "t"]
        assert [r.version for r in records] == [0, 1]
        assert records[0].payload == b"engine-blob"
        (batch,) = decode_batches(records[1].payload)
        assert batch.instance == "mon"
        assert list(batch.keys) == ["a", "b"]
        assert list(batch.values) == [1.0, 2.5]

    def test_lsns_are_monotone_from_one(self, tmp_path):
        wal = open_log(tmp_path)
        lsns = [
            wal.append_batch("t", i + 1, "mon", [f"k{i}"], [1.0])
            for i in range(5)
        ]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        wal.close()

    def test_empty_engine_name_rejected(self, tmp_path):
        wal = open_log(tmp_path)
        with pytest.raises(InvalidParameterError, match="non-empty"):
            wal.append_engine("", 0, b"x")
        wal.close()

    def test_closed_log_rejects_work(self, tmp_path):
        wal = open_log(tmp_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(InvalidParameterError, match="closed"):
            wal.append_batch("t", 1, "mon", ["a"], [1.0])
        with pytest.raises(InvalidParameterError, match="closed"):
            wal.checkpoint(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fsync": "sometimes"},
            {"fsync_interval": -0.1},
            {"fsync_interval": float("nan")},
            {"segment_bytes": 10},
        ],
    )
    def test_bad_configuration_rejected(self, tmp_path, kwargs):
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(tmp_path, **kwargs)


class TestRotation:
    def test_small_cap_rotates_and_preserves_order(self, tmp_path):
        wal = open_log(tmp_path, segment_bytes=256)
        append_n(wal, 12)
        paths = wal.segment_paths()
        assert len(paths) > 1
        assert paths == sorted(paths)
        records, torn = wal.read_all()
        wal.close()
        assert torn is None
        assert [r.lsn for r in records] == list(range(1, 13))

    def test_reopen_continues_the_lsn_sequence(self, tmp_path):
        wal = open_log(tmp_path, segment_bytes=256)
        append_n(wal, 7)
        wal.close()
        reopened = open_log(tmp_path, segment_bytes=256)
        assert reopened.last_lsn == 7
        assert reopened.torn_tail is None
        assert reopened.append_batch("t", 8, "mon", ["k"], [1.0]) == 8
        records, _ = reopened.read_all()
        reopened.close()
        assert [r.lsn for r in records] == list(range(1, 9))

    def test_reopen_truncates_a_torn_header(self, tmp_path):
        # crash during segment creation: the header write itself tore
        wal = open_log(tmp_path)
        wal.close()
        (path,) = list(tmp_path.glob("*.wal"))
        faults.truncate_to(path, 3)
        reopened = open_log(tmp_path)
        assert reopened.torn_tail is not None
        assert "torn segment header" in reopened.torn_tail
        assert reopened.last_lsn == 0
        assert reopened.append_batch("t", 1, "mon", ["k"], [1.0]) == 1
        records, _ = reopened.read_all()
        reopened.close()
        assert [r.lsn for r in records] == [1]

    def test_reopen_truncates_a_torn_final_record(self, tmp_path):
        wal = open_log(tmp_path)
        append_n(wal, 3)
        wal.close()
        (path,) = list(tmp_path.glob("*.wal"))
        faults.truncate_to(path, path.stat().st_size - 4)
        reopened = open_log(tmp_path)
        assert reopened.torn_tail is not None
        assert "torn tail" in reopened.torn_tail
        assert reopened.last_lsn == 2
        # the truncated slot is rewritten by the next append
        assert reopened.append_batch("t", 3, "mon", ["k"], [1.0]) == 3
        records, torn = reopened.read_all()
        reopened.close()
        assert [r.lsn for r in records] == [1, 2, 3]
        assert torn is not None

    def test_name_and_header_base_must_agree(self, tmp_path):
        wal = open_log(tmp_path)
        append_n(wal, 1)
        wal.close()
        (path,) = list(tmp_path.glob("*.wal"))
        path.rename(path.with_name("wal-00000000000000000009.wal"))
        with pytest.raises(WalCorruptionError, match="file name"):
            open_log(tmp_path)


class TestCheckpoint:
    def test_full_checkpoint_drops_covered_segments(self, tmp_path):
        wal = open_log(tmp_path, segment_bytes=256)
        append_n(wal, 10)
        before = len(wal.segment_paths())
        removed = wal.checkpoint(wal.last_lsn)
        assert removed >= 1
        assert len(wal.segment_paths()) == 1
        assert len(wal.segment_paths()) == before - removed + 1
        assert wal.checkpoint_lsn == 10
        # the covered tail is gone: a since=0 follower needs a full delta
        assert wal.tail_since(0) is None
        assert wal.tail_since(10) == (b"", 10)
        records, _ = wal.read_all()
        assert records == []
        # the log keeps appending past the checkpoint
        assert wal.append_batch("t", 11, "mon", ["k"], [1.0]) == 11
        wal.close()

    def test_partial_checkpoint_keeps_the_uncovered_tail(self, tmp_path):
        wal = open_log(tmp_path, segment_bytes=256)
        append_n(wal, 10)
        bases = [
            int(path.stem.partition("-")[2]) for path in wal.segment_paths()
        ]
        assert len(bases) >= 3, "need several sealed segments for this test"
        cutoff = bases[1] - 1  # exactly covers the first segment
        assert wal.checkpoint(cutoff) == 1
        records, _ = wal.read_all()
        assert [r.lsn for r in records] == list(range(bases[1], 11))
        # records past the cutoff are still shippable
        blob, last = wal.tail_since(cutoff)
        assert last == 10
        assert [r.lsn for r in decode_tail(blob)] == list(
            range(cutoff + 1, 11)
        )
        wal.close()


class TestTailSince:
    def test_full_tail_equals_read_all(self, tmp_path):
        wal = open_log(tmp_path, segment_bytes=256)
        append_n(wal, 9)
        blob, last = wal.tail_since(0)
        records, _ = wal.read_all()
        wal.close()
        assert last == 9
        assert decode_tail(blob) == records

    def test_cursor_skips_already_seen_records(self, tmp_path):
        wal = open_log(tmp_path)
        append_n(wal, 6)
        blob, last = wal.tail_since(4)
        wal.close()
        assert last == 6
        assert [r.lsn for r in decode_tail(blob)] == [5, 6]

    def test_negative_cursor_rejected(self, tmp_path):
        wal = open_log(tmp_path)
        with pytest.raises(InvalidParameterError, match=">= 0"):
            wal.tail_since(-1)
        wal.close()

    def test_decode_tail_is_strict(self, tmp_path):
        wal = open_log(tmp_path)
        append_n(wal, 2)
        blob, _ = wal.tail_since(0)
        wal.close()
        with pytest.raises(WalCorruptionError, match="offset"):
            decode_tail(blob[:-3])
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x10
        with pytest.raises(WalCorruptionError, match="offset"):
            decode_tail(bytes(flipped))


class TestFsyncPolicies:
    def test_policy_tuple_is_the_public_contract(self):
        assert FSYNC_POLICIES == ("always", "interval", "off")

    def test_always_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        append_n(wal, 4)
        stats = wal.stats()
        wal.close()
        assert stats["fsync_count"] >= 4
        assert stats["fsync_seconds"] > 0.0

    def test_off_never_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        append_n(wal, 4)
        wal.close()
        assert wal.stats()["fsync_count"] == 0

    def test_zero_interval_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="interval", fsync_interval=0.0)
        append_n(wal, 3)
        count = wal.stats()["fsync_count"]
        wal.close()
        assert count >= 3

    def test_infinite_interval_is_accepted(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="interval", fsync_interval=float("inf"))
        wal.close()
        assert wal.fsync_interval == float("inf")

    def test_sync_forces_an_fsync(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        append_n(wal, 1)
        wal.sync()
        wal.close()
        assert wal.stats()["fsync_count"] == 1


class TestStats:
    def test_counter_surface(self, tmp_path):
        wal = open_log(tmp_path)
        append_n(wal, 3)
        wal.note_replay(0.5, 2)
        stats = wal.stats()
        wal.close()
        assert stats["appended_records"] == 3
        assert stats["appended_bytes"] > 0
        assert stats["last_lsn"] == 3
        assert stats["checkpoint_lsn"] == 0
        assert stats["segments"] == 1
        assert stats["fsync_policy"] == "off"
        assert stats["replay_seconds"] == 0.5
        assert stats["replayed_records"] == 2
        assert stats["torn_tail"] is None
        assert stats["directory"] == str(tmp_path)
