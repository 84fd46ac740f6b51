"""SketchStore: concurrent ingest parity, versioning, persistence,
fan-in."""

from __future__ import annotations

import os
import stat
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    SketchCodecError,
    UnknownStoreError,
)
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, query_value_json
from repro.service.store import IngestRequest, SketchStore, group_rows
from repro.streaming.engine import StreamEngine
from repro.wal import WriteAheadLog, recover_store
from repro.wal.log import RECORD_BATCH

from ingest_helper import ingest


def make_batches(n_keys=6000, n_batches=12, seed=0, instances=("d",)):
    """Per-instance update batches over *distinct* keys (the
    pre-aggregated model in which sketches are order-insensitive)."""
    generator = np.random.default_rng(seed)
    batches = []
    for index, instance in enumerate(instances):
        keys = generator.choice(10**8, size=n_keys, replace=False)
        values = generator.random(n_keys) * 10.0 + 0.01
        for start in range(0, n_keys, n_keys // n_batches):
            stop = start + n_keys // n_batches
            batches.append((instance, keys[start:stop], values[start:stop]))
    return batches


def build_store(kind="bottom_k", **kwargs):
    store = SketchStore()
    defaults = {
        "seed_assigner": SeedAssigner(salt=5, coordinated=True),
        "n_shards": 4,
    }
    defaults.update(kwargs)
    if kind == "bottom_k":
        defaults.setdefault("k", 48)
    else:
        defaults.setdefault("threshold", 0.4)
    store.create("traffic", kind, **defaults)
    return store


class TestConcurrentIngest:
    @pytest.mark.parametrize("kind", ["bottom_k", "poisson"])
    def test_four_thread_ingest_matches_serial(self, kind):
        batches = make_batches(instances=("mon", "tue"))

        serial = build_store(kind)
        for instance, keys, values in batches:
            ingest(serial, "traffic", instance, keys, values)

        concurrent = build_store(kind)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda batch: ingest(concurrent, "traffic", *batch),
                    batches,
                )
            )

        assert concurrent.version("traffic") == serial.version("traffic")
        assert concurrent.engine("traffic") == serial.engine("traffic")
        for instance in ("mon", "tue"):
            merged = concurrent.merged_sketch("traffic", instance)
            assert merged == serial.merged_sketch("traffic", instance)
            assert (
                concurrent.sample("traffic", instance).entries
                == serial.sample("traffic", instance).entries
            )

    def test_concurrent_ingest_with_queries_interleaved(self):
        batches = make_batches(n_keys=3000, instances=("mon",))
        store = build_store("poisson")
        with ThreadPoolExecutor(max_workers=5) as pool:
            ingest_futures = [
                pool.submit(ingest, store, "traffic", *batch)
                for batch in batches
            ]
            read_futures = [
                pool.submit(store.merged_sketch, "traffic", "mon")
                for _ in range(8)
            ]
            for future in ingest_futures + read_futures:
                future.result()
        # every quiescent read is a consistent prefix; the final state
        # matches serial ingest
        serial = build_store("poisson")
        for batch in batches:
            ingest(serial, "traffic", *batch)
        assert store.engine("traffic") == serial.engine("traffic")


def test_one_writer_per_engine(monkeypatch):
    """A second submit to one engine applies nothing while the first
    is still applying, even when the two touch different instances."""
    store = build_store("poisson")
    entered = threading.Event()
    release = threading.Event()
    callers: list[str] = []
    run_job = StreamEngine.run_job

    def gated(job):
        callers.append(threading.current_thread().name)
        if len(callers) == 1:
            entered.set()
            release.wait(10)
        run_job(job)

    monkeypatch.setattr(StreamEngine, "run_job", staticmethod(gated))
    keys = np.arange(400)
    values = np.ones(400)
    writer_a = threading.Thread(
        target=ingest, args=(store, "traffic", "mon", keys, values), name="A"
    )
    writer_b = threading.Thread(
        target=ingest, args=(store, "traffic", "tue", keys, values), name="B"
    )
    writer_a.start()
    assert entered.wait(10)
    writer_b.start()
    writer_b.join(0.5)
    assert "B" not in callers
    release.set()
    writer_a.join(10)
    writer_b.join(10)
    assert "B" in callers
    assert store.version("traffic") == 2


def test_failed_apply_still_publishes_its_logged_version(
    monkeypatch, tmp_path
):
    store = SketchStore()
    wal = WriteAheadLog(tmp_path / "wal", fsync="off")
    store.attach_wal(wal)
    store.create(
        "traffic", "poisson", threshold=0.4, n_shards=4,
        seed_assigner=SeedAssigner(salt=5, coordinated=True),
    )
    run_job = StreamEngine.run_job
    failures = [RuntimeError("injected apply failure")]

    def failing_once(job):
        if failures:
            raise failures.pop()
        run_job(job)

    monkeypatch.setattr(StreamEngine, "run_job", staticmethod(failing_once))
    with pytest.raises(RuntimeError, match="injected apply failure"):
        ingest(store, "traffic", "mon", np.arange(100), np.ones(100))
    assert store.version("traffic") == 1
    records, _ = wal.read_all()
    assert [
        record.version for record in records if record.kind == RECORD_BATCH
    ] == [1]
    assert ingest(store, "traffic", "tue", np.arange(100), np.ones(100)) == 2
    wal.close()
    log = WriteAheadLog(tmp_path / "wal", fsync="off")
    try:
        recovered = recover_store(None, log).store
    finally:
        log.close()
    assert recovered.version("traffic") == 2


class TestRegistryAndVersions:
    def test_versions_are_monotone_per_ingest(self):
        store = build_store()
        assert store.version("traffic") == 0
        for expected in (1, 2, 3):
            version = ingest(store, "traffic", "d", [expected], [float(expected)])
            assert version == expected == store.version("traffic")

    def test_unknown_name_raises_typed_error(self):
        store = SketchStore()
        with pytest.raises(UnknownStoreError):
            store.engine("nope")
        with pytest.raises(UnknownStoreError):
            ingest(store, "nope", "d", [1], [1.0])
        assert issubclass(UnknownStoreError, KeyError)

    def test_duplicate_and_invalid_creation(self):
        store = build_store()
        with pytest.raises(InvalidParameterError, match="already exists"):
            store.create("traffic", "bottom_k", k=4)
        with pytest.raises(InvalidParameterError, match="requires"):
            store.create("x", "bottom_k")
        with pytest.raises(InvalidParameterError, match="requires"):
            store.create("x", "poisson")
        with pytest.raises(InvalidParameterError, match="kind"):
            store.create("x", "unknown")
        with pytest.raises(InvalidParameterError, match="poisson"):
            store.create("x", "bottom_k", k=3, threshold=0.5)

    def test_config_creation_refuses_a_size_field_of_the_other_kind(self):
        store = SketchStore()
        with pytest.raises(InvalidParameterError, match="k applies to bottom_k"):
            store.create_from_config(
                {"name": "p", "kind": "poisson", "threshold": 0.5, "k": 5}
            )
        with pytest.raises(
            InvalidParameterError, match="threshold applies to poisson"
        ):
            store.create_from_config(
                {"name": "b", "kind": "bottom_k", "k": 8, "threshold": 0.5}
            )
        assert store.names() == []
        # a bottom-k engine without k still gets the default size
        store.create_from_config({"name": "b"})
        assert store.engine("b").sketch_config["k"] == 64

    def test_group_rows_groups_by_instance(self):
        rows = [("mon", 1, 2.0), ("tue", 2, 3.0), ("mon", 3, 4.0)]
        assert group_rows(rows) == (
            ("mon", [1, 3], [2.0, 4.0]),
            ("tue", [2], [3.0]),
        )
        store = build_store(kind="poisson")
        store.submit(IngestRequest(engine="traffic", batches=group_rows(rows)))
        direct = build_store(kind="poisson")
        ingest(direct, "traffic", "mon", [1, 3], [2.0, 4.0])
        ingest(direct, "traffic", "tue", [2], [3.0])
        assert store.engine("traffic") == direct.engine("traffic")


def hourly_rows(n_hours, n_rows, seed=3, as_str=False):
    """``(instance, keys, values)`` per hour over int64 keys (or their
    ``str`` forms), half of each hour's keys shared by every hour."""
    generator = np.random.default_rng(seed)
    shared = generator.choice(2**62, size=n_rows // 2, replace=False)
    rows = []
    for hour in range(n_hours):
        own = generator.choice(2**62, size=n_rows - shared.size, replace=False)
        keys = np.concatenate([shared, own])
        if as_str:
            keys = [f"user{key}" for key in keys.tolist()]
        values = 1.0 + 9.0 * generator.random(n_rows) ** 2
        rows.append((f"h{hour:02d}", keys, values))
    return rows


#: the state each benchmark workload restores: its engine configs, its
#: hourly rows and the ``(engine, kind, confidence)`` queries it serves
SERVED_STATE_SHAPES = [
    pytest.param(
        [{"name": "bench", "kind": "poisson", "threshold": 0.005,
          "ranks": "uniform", "salt": 7, "n_shards": 4}],
        {"n_hours": 2, "n_rows": 40_000},
        [("bench", "distinct", True), ("bench", "l1", False)],
        id="ingest_engine_uniform_int64_keys",
    ),
    pytest.param(
        [{"name": "hours", "kind": "poisson", "threshold": 0.05,
          "ranks": "uniform", "salt": 11, "n_shards": 8},
         {"name": "hours_pps", "kind": "poisson", "threshold": 0.02,
          "ranks": "pps", "salt": 13, "n_shards": 8}],
        {"n_hours": 3, "n_rows": 8000},
        [("hours", "distinct", True), ("hours", "l1", False),
         ("hours_pps", "dominance", False)],
        id="hourly_uniform_and_pps_pair_int64_keys",
    ),
    pytest.param(
        [{"name": "users", "kind": "bottom_k", "k": 64, "salt": 5,
          "coordinated": True, "n_shards": 2}],
        {"n_hours": 2, "n_rows": 3000, "as_str": True},
        [("users", "sum", True)],
        id="bottom_k_str_keys",
    ),
]


@pytest.mark.parametrize("configs, hours, queries", SERVED_STATE_SHAPES)
def test_snapshot_restore_snapshot_is_byte_identical(
    tmp_path, configs, hours, queries
):
    store = SketchStore()
    for config in configs:
        store.create_from_config(config)
    for instance, keys, values in hourly_rows(**hours):
        for config in configs:
            ingest(store, config["name"], instance, keys, values)
    first = store.snapshot(tmp_path / "first.bin")
    restored = SketchStore.restore(first)
    second = restored.snapshot(tmp_path / "second.bin")
    assert second.read_bytes() == first.read_bytes()
    for name, kind, confidence in queries:
        instances = ("h00",) if kind == "sum" else ("h00", "h01")
        query = Query(kind, instances, confidence=confidence)
        served, again = store.query(name, query), restored.query(name, query)
        assert query_value_json(again.value) == query_value_json(served.value)
        assert again.confidence == served.confidence


class TestFanIn:
    def test_merge_snapshot_equals_single_store_ingest(self, tmp_path):
        batches = make_batches(instances=("mon", "tue"))
        reference = build_store("poisson")
        for batch in batches:
            ingest(reference, "traffic", *batch)

        half = len(batches) // 2
        peers = []
        for index, part in enumerate((batches[:half], batches[half:])):
            peer = build_store("poisson")
            for batch in part:
                ingest(peer, "traffic", *batch)
            peers.append(peer.snapshot(tmp_path / f"peer{index}.bin"))

        merged = SketchStore.restore(peers[0])
        merged.merge_snapshot(peers[1])
        assert merged.engine("traffic") == reference.engine("traffic")
        # fan-in bumps the version past both peers
        assert merged.version("traffic") > max(
            SketchStore.restore(path).version("traffic") for path in peers
        )

    def test_merge_adopts_names_missing_locally(self, tmp_path):
        local = build_store()
        peer = SketchStore()
        peer.create(
            "other", "poisson", threshold=0.5,
            seed_assigner=SeedAssigner(salt=2),
        )
        ingest(peer, "other", "d", [1, 2], [1.0, 2.0])
        local.merge_snapshot(peer.snapshot(tmp_path / "peer.bin"))
        assert set(local.names()) == {"traffic", "other"}
        assert local.engine("other") == peer.engine("other")

    def test_merge_rejects_mismatched_configs(self, tmp_path):
        local = build_store(n_shards=4)
        peer = SketchStore()
        peer.create(
            "traffic", "bottom_k", k=48,
            seed_assigner=SeedAssigner(salt=5, coordinated=True),
            n_shards=2,
        )
        path = peer.snapshot(tmp_path / "peer.bin")
        with pytest.raises(InvalidParameterError, match="shards"):
            local.merge_snapshot(path)

        other_k = SketchStore()
        other_k.create(
            "traffic", "bottom_k", k=7,
            seed_assigner=SeedAssigner(salt=5, coordinated=True),
            n_shards=4,
        )
        path = other_k.snapshot(tmp_path / "otherk.bin")
        with pytest.raises(InvalidParameterError, match="configuration"):
            local.merge_snapshot(path)

    def test_merge_leaves_peer_untouched(self, tmp_path):
        local = build_store("poisson")
        ingest(local, "traffic", "d", [1], [1.0])
        peer = build_store("poisson")
        ingest(peer, "traffic", "d", [2], [2.0])
        before = peer.engine("traffic").state_dict()
        local.merge_store(peer)
        assert peer.engine("traffic").state_dict() == before
        ingest(local, "traffic", "d", [3], [3.0])
        assert peer.engine("traffic").state_dict() == before


class TestSnapshotMarked:
    def test_marks_report_exactly_the_written_state(self, tmp_path):
        store = SketchStore()
        store.create(
            "t", "poisson", threshold=0.5,
            seed_assigner=SeedAssigner(salt=7),
        )
        ingest(store, "t", "mon", ["a", "b"], [1.0, 2.0])
        path, marks = store.snapshot_marked(tmp_path / "s.bin")
        assert marks == {
            "t": (store.version("t"), store.engine("t").change_tick)
        }
        assert SketchStore.restore(path).engine("t") == store.engine("t")
        # further ingest moves the live state past the recorded marks
        ingest(store, "t", "mon", ["c"], [1.0])
        assert marks["t"] != (
            store.version("t"), store.engine("t").change_tick
        )

    def test_snapshot_001_durable_before_the_wal_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """The scratch file is fsynced before it replaces the snapshot,
        and the directory after, and only then is the WAL checkpointed."""
        store = SketchStore()
        store.create(
            "t", "poisson", threshold=0.5,
            seed_assigner=SeedAssigner(salt=7),
        )
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        store.attach_wal(wal)
        ingest(store, "t", "mon", ["a", "b"], [1.0, 2.0])
        calls = []
        fsync, replace, checkpoint = os.fsync, os.replace, wal.checkpoint

        def record_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync {kind}")
            fsync(fd)

        def record_replace(source, target):
            calls.append("replace")
            replace(source, target)

        def record_checkpoint(cutoff):
            calls.append("checkpoint")
            return checkpoint(cutoff)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        monkeypatch.setattr(wal, "checkpoint", record_checkpoint)
        try:
            path = store.snapshot(tmp_path / "s.bin")
        finally:
            wal.close()
        assert calls == ["fsync file", "replace", "fsync dir", "checkpoint"]
        assert SketchStore.restore(path).engine("t") == store.engine("t")


class TestCorruptSnapshot:
    """Restoring a damaged snapshot file must raise
    :class:`SketchCodecError` with file and offset context — never a
    bare ``struct.error`` / ``ValueError`` / NumPy exception."""

    @staticmethod
    def write_snapshot(tmp_path):
        store = build_store("poisson", threshold=0.05)
        for instance, keys, values in make_batches(
            n_keys=600, n_batches=3
        ):
            ingest(store, "traffic", instance, keys, values)
        path = tmp_path / "store.bin"
        store.snapshot(path)
        return path

    def test_truncated_snapshot_names_the_file(self, tmp_path):
        path = self.write_snapshot(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SketchCodecError) as err:
            SketchStore.restore(path)
        message = str(err.value)
        assert str(path) in message
        assert "corrupt store snapshot" in message

    def test_bad_magic_names_the_file(self, tmp_path):
        path = self.write_snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SketchCodecError, match="corrupt store snapshot"):
            SketchStore.restore(path)

    def test_bit_flips_never_escape_as_stray_exceptions(self, tmp_path):
        """Flip one bit at a spread of offsets.  Two outcomes are
        acceptable — a clean restore (the flip landed in a value byte;
        the snapshot format carries no checksum) or a SketchCodecError
        with context — but never a stray decoder exception."""
        path = self.write_snapshot(tmp_path)
        pristine = path.read_bytes()
        step = max(1, len(pristine) // 64)
        for offset in range(0, len(pristine), step):
            data = bytearray(pristine)
            data[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(data))
            try:
                SketchStore.restore(path)
            except SketchCodecError as exc:
                assert str(path) in str(exc), f"offset {offset}: {exc}"
        path.write_bytes(pristine)
        SketchStore.restore(path)  # the pristine bytes still round-trip
