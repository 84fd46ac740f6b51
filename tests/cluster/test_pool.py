"""Multiprocess shard-worker plane: row partitioning, concurrent-vs-
serial parity across the process boundary, probes, idle cost,
lifecycle.

The parity bar here is *byte-exact* ``codec.to_bytes`` equality — the
ownership-transferring fold (:meth:`StreamEngine.fold_delta`) keeps
even heap insertion order identical to a serial ingest, as long as the
fold happens once after the load (the pattern a snapshot or read
fan-in produces).
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.cluster import ShardWorkerPool, partition
from repro.exceptions import InvalidParameterError
from repro.sampling.seeds import key_hashes
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.store import SketchStore

from ingest_helper import ingest

ENGINE = "t"
N_SHARDS = 8


def make_engine_kwargs(kind: str) -> dict:
    kwargs = {
        "seed_assigner": SeedAssigner(salt=11, coordinated=True),
        "n_shards": N_SHARDS,
    }
    if kind == "poisson":
        kwargs["threshold"] = 0.2
    else:
        kwargs["k"] = 64
    return kwargs


def build_store(kind: str = "bottom_k") -> SketchStore:
    store = SketchStore()
    store.create(ENGINE, kind, **make_engine_kwargs(kind))
    return store


def make_batches(
    n_batches: int = 8, rows: int = 400, seed: int = 3, keys: str = "int"
):
    """Deterministic column batches over two instances.

    Every batch carries enough distinct keys that each of the workers'
    shard groups sees rows, which keeps the single-fold parity
    byte-exact.  ``keys="str"`` gives list columns of ``str`` keys
    instead of NumPy integer columns.
    """
    generator = np.random.default_rng(seed)
    batches = []
    for instance in ("mon", "tue"):
        ids = generator.choice(10**7, size=n_batches * rows, replace=False)
        values = generator.random(n_batches * rows) * 8.0 + 0.05
        for start in range(0, n_batches * rows, rows):
            stop = start + rows
            column = ids[start:stop]
            if keys == "str":
                column = [f"user{key}" for key in column.tolist()]
            batches.append((instance, column, values[start:stop]))
    return batches


def load(store: SketchStore, batches, name: str = ENGINE) -> None:
    for instance, keys, values in batches:
        ingest(store, name, instance, keys, values)


class TestPartition:
    def test_workers_partition_the_rows(self):
        generator = np.random.default_rng(0)
        keys = generator.choice(10**6, size=500, replace=False)
        values = generator.random(500)
        seen = []
        for batch in partition("i", keys, values, N_SHARDS, 3):
            assert batch is not None
            instance, subset_keys, subset_values = batch
            assert instance == "i"
            assert len(subset_keys) == len(subset_values)
            seen.extend(int(key) for key in np.asarray(subset_keys))
        assert sorted(seen) == sorted(int(key) for key in keys)

    def test_subset_rows_hash_into_owned_shards(self):
        generator = np.random.default_rng(1)
        keys = generator.choice(10**6, size=300, replace=False)
        values = generator.random(300)
        _, subset_keys, subset_values = partition(
            "i", keys, values, N_SHARDS, 4
        )[2]
        shards = key_hashes(np.asarray(subset_keys)) % np.uint64(N_SHARDS)
        assert set(int(shard) % 4 for shard in shards) == {2}
        # order-preserving: the slice is the batch with other rows removed
        order = np.flatnonzero(np.isin(keys, subset_keys))
        assert np.array_equal(keys[order], subset_keys)
        assert np.array_equal(values[order], subset_values)

    def test_single_worker_passthrough(self):
        keys = ["a", "b", "c"]
        values = [1.0, 2.0, 3.0]
        [(_, subset_keys, subset_values)] = partition(
            "i", keys, values, N_SHARDS, 1
        )
        assert subset_keys is keys
        assert subset_values.tolist() == values

    def test_empty_batch_goes_to_every_worker(self):
        slices = partition("i", [], [], N_SHARDS, 4)
        assert len(slices) == 4
        for instance, subset_keys, subset_values in slices:
            assert instance == "i"
            assert list(subset_keys) == []
            assert subset_values.size == 0

    def test_worker_without_rows_gets_none(self):
        # one key lands on exactly one worker's shard group
        slices = partition("i", ["only"], [1.0], N_SHARDS, 4)
        assert sum(batch is not None for batch in slices) == 1
        [(_, subset_keys, _)] = [batch for batch in slices if batch]
        assert subset_keys == ["only"]


class TestPoolParity:
    @pytest.mark.parametrize("kind", ["bottom_k", "poisson"])
    @pytest.mark.parametrize("keys", ["int", "str"])
    def test_pooled_ingest_matches_serial_byte_exact(self, kind, keys):
        batches = make_batches(keys=keys)
        serial = build_store(kind)
        load(serial, batches)

        pooled = build_store(kind)
        pooled.start_workers(4)
        try:
            assert pooled.has_workers
            load(pooled, batches)
            # the read fans in through one ownership-transferring fold
            pooled_blob = codec.to_bytes(pooled.engine(ENGINE, sync=True))
        finally:
            pooled.stop_workers()
        assert pooled_blob == codec.to_bytes(serial.engine(ENGINE))
        assert pooled.version(ENGINE) == serial.version(ENGINE)

    def test_reads_between_ingests_stay_consistent(self):
        batches = make_batches(n_batches=4)
        pooled = build_store()
        serial = build_store()
        pooled.start_workers(2)
        try:
            for index, (instance, keys, values) in enumerate(batches):
                ingest(pooled, ENGINE, instance, keys, values)
                ingest(serial, ENGINE, instance, keys, values)
                if index % 3 == 0:
                    # interleaved reads force multi-fold merges; the
                    # engines stay value-identical even where the byte
                    # encoding (heap insertion order) may drift
                    assert pooled.engine(ENGINE, sync=True) == serial.engine(ENGINE)
        finally:
            pooled.stop_workers()
        assert pooled.engine(ENGINE, sync=True) == serial.engine(ENGINE)

    def test_engine_registered_after_start_participates(self):
        pooled = build_store()
        serial = build_store()
        pooled.start_workers(2)
        try:
            for store in (pooled, serial):
                store.create("late", "bottom_k", **make_engine_kwargs("bottom_k"))
            batches = make_batches(n_batches=3)
            for instance, keys, values in batches:
                ingest(pooled, "late", instance, keys, values)
                ingest(serial, "late", instance, keys, values)
            blob = codec.to_bytes(pooled.engine("late", sync=True))
        finally:
            pooled.stop_workers()
        assert blob == codec.to_bytes(serial.engine("late"))


class TestWorkerTemplates:
    """A worker builds each engine from its template, the engine's
    configuration; ``adopt``, a late ``create`` and a respawn must each
    leave every worker on the parent's current configuration."""

    def test_templates_survive_adopt_late_create_and_respawn(self, tmp_path):
        from repro.streaming.engine import StreamEngine
        from repro.wal import WriteAheadLog

        batches = make_batches(n_batches=2)
        serial = SketchStore()
        pooled = SketchStore()
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        pooled.attach_wal(wal)
        pooled.start_workers(2)
        try:
            for store in (serial, pooled):
                store.create("p", "poisson", **make_engine_kwargs("poisson"))
            for store in (serial, pooled):
                load(store, batches[:2], "p")
                store.adopt(
                    "p",
                    StreamEngine.poisson(
                        0.3,
                        seed_assigner=SeedAssigner(salt=29, coordinated=True),
                        n_shards=N_SHARDS,
                    ),
                )
                load(store, batches[2:], "p")
                store.create("b", "bottom_k", **make_engine_kwargs("bottom_k"))
                load(store, batches[:2], "b")

            victim = pooled.worker_probes()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pooled.worker_probes()[0]["alive"]:
                assert time.monotonic() < deadline, "worker 0 never died"
                time.sleep(0.01)
            for store in (serial, pooled):
                load(store, batches[:1], "p")
                load(store, batches[2:], "b")
            blobs = {
                name: codec.to_bytes(pooled.engine(name, sync=True))
                for name in ("p", "b")
            }
            restarts = [row["restarts"] for row in pooled.worker_probes()]
        finally:
            pooled.stop_workers()
            wal.close()
        assert restarts == [1, 0]
        assert pooled.engine("p").sketch_config["threshold"] == 0.3
        for name, blob in blobs.items():
            assert blob == codec.to_bytes(serial.engine(name)), name


class TestLifecycle:
    def test_stop_workers_returns_to_thread_backend(self):
        store = build_store()
        batches = make_batches(n_batches=2)
        store.start_workers(2)
        try:
            load(store, batches[:2])
        finally:
            store.stop_workers()
        assert not store.has_workers
        assert store.worker_probes() == []
        load(store, batches[2:])
        serial = build_store()
        load(serial, batches)
        assert store.engine(ENGINE) == serial.engine(ENGINE)

    def test_probes_report_liveness_and_throughput(self):
        store = build_store()
        store.start_workers(2)
        try:
            load(store, make_batches(n_batches=2))
            # a read fans in, which also drains the dispatch queues
            store.engine(ENGINE, sync=True)
            probes = store.worker_probes()
        finally:
            store.stop_workers()
        assert [row["worker"] for row in probes] == [0, 1]
        for row in probes:
            assert row["alive"]
            assert row["pid"] > 0
            assert row["pid"] != os.getpid()
            assert row["restarts"] == 0
        # both workers saw work: every batch spreads over all shards
        assert all(row["batches"] > 0 for row in probes)
        assert sum(row["rows"] for row in probes) > 0

    def test_double_start_rejected(self):
        store = build_store()
        store.start_workers(1)
        try:
            with pytest.raises(ValueError, match="already"):
                store.start_workers(1)
        finally:
            store.stop_workers()

    def test_crash_without_wal_is_loud(self):
        store = build_store()
        store.start_workers(2)
        try:
            batches = make_batches(n_batches=3)
            load(store, batches[:2])
            victim = store.worker_probes()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            with pytest.raises(RuntimeError, match="write-ahead log"):
                while time.monotonic() < deadline:
                    load(store, batches[2:4])
                    store.engine(ENGINE, sync=True)
                    time.sleep(0.05)
                raise AssertionError("crash never surfaced")
        finally:
            # the un-folded delta is acknowledged lost; the teardown
            # still must terminate the surviving worker
            with contextlib.suppress(RuntimeError):
                store.stop_workers()
        assert store._pool is None


class TestPoolPrimitives:
    def test_pool_validates_worker_count(self):
        with pytest.raises(ValueError):
            ShardWorkerPool(0)


def _engine_state(store: SketchStore) -> tuple:
    engine = store.engine(ENGINE, sync=True)
    return codec.to_bytes(engine), engine.probe(), engine.instance_labels


@pytest.mark.parametrize(
    "keys, values, message",
    [
        (["a", "b", "c"], [1.0, -2.0, 3.0], "values must be nonnegative"),
        (["a", "b", "c"], [1.0, float("nan"), 3.0], "must be finite, got nan at row 1"),
        (["a", ["x"], "c"], [1.0, 2.0, 3.0], "must be hashable, got list at row 1"),
        (
            np.array(["a", "b", {}], dtype=object),
            [1.0, 2.0, 3.0],
            "must be hashable, got dict at row 2",
        ),
    ],
    ids=["negative", "nan", "unhashable", "unhashable-object-column"],
)
def test_bad_batch_gets_one_message_with_and_without_workers(keys, values, message):
    """The thread backend and the worker dispatch share one batch rule,
    and a rejected batch leaves no engine state behind."""
    raised = []
    for n_workers in (0, 2):
        store = build_store()
        if n_workers:
            store.start_workers(n_workers)
        try:
            before = _engine_state(store)
            with pytest.raises(InvalidParameterError) as info:
                ingest(store, ENGINE, "mon", keys, values)
            assert store.version(ENGINE) == 0
            assert _engine_state(store) == before
        finally:
            store.stop_workers()
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    assert message in raised[0]


def _cpu_seconds(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
def test_idle_workers_sleep():
    """An idle worker blocks in ``poll`` instead of spinning."""
    store = build_store()
    store.start_workers(2)
    try:
        load(store, make_batches(n_batches=1))
        store.engine(ENGINE, sync=True)
        pids = [row["pid"] for row in store.worker_probes()]
        before = [_cpu_seconds(pid) for pid in pids]
        time.sleep(1.0)
        used = [_cpu_seconds(pid) - start for pid, start in zip(pids, before)]
    finally:
        store.stop_workers()
    assert all(seconds < 0.02 for seconds in used), used
