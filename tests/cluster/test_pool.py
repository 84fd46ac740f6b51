"""Multiprocess shard-worker plane: row partitioning, concurrent-vs-
serial parity across the process boundary, probes, lifecycle.

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
import time

import numpy as np
import pytest

from repro.cluster import ShardWorkerPool, owned_subset
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


def make_batches(n_batches: int = 8, rows: int = 400, seed: int = 3):
    """Deterministic column batches over two instances.

    Every batch carries enough distinct keys that each of the workers'
    shard groups sees rows, which keeps the single-fold parity
    byte-exact.
    """
    generator = np.random.default_rng(seed)
    batches = []
    for instance in ("mon", "tue"):
        keys = generator.choice(10**7, size=n_batches * rows, replace=False)
        values = generator.random(n_batches * rows) * 8.0 + 0.05
        for start in range(0, n_batches * rows, rows):
            stop = start + rows
            batches.append((instance, keys[start:stop], values[start:stop]))
    return batches


def load(store: SketchStore, batches) -> None:
    for instance, keys, values in batches:
        ingest(store, ENGINE, instance, keys, values)


class TestOwnedSubset:
    def test_workers_partition_the_rows(self):
        generator = np.random.default_rng(0)
        keys = generator.choice(10**6, size=500, replace=False)
        values = generator.random(500)
        n_workers = 3
        seen = []
        for worker_id in range(n_workers):
            subset_keys, subset_values = owned_subset(
                keys, values, N_SHARDS, n_workers, worker_id
            )
            assert len(subset_keys) == len(subset_values)
            seen.extend(int(key) for key in np.asarray(subset_keys))
        assert sorted(seen) == sorted(int(key) for key in keys)

    def test_subset_rows_hash_into_owned_shards(self):
        generator = np.random.default_rng(1)
        keys = generator.choice(10**6, size=300, replace=False)
        values = generator.random(300)
        subset_keys, _ = owned_subset(keys, values, N_SHARDS, 4, 2)
        shards = key_hashes(np.asarray(subset_keys)) % np.uint64(N_SHARDS)
        assert set(int(shard) % 4 for shard in shards) == {2}

    def test_single_worker_passthrough(self):
        keys = ["a", "b", "c"]
        values = [1.0, 2.0, 3.0]
        subset_keys, subset_values = owned_subset(
            keys, values, N_SHARDS, 1, 0
        )
        assert subset_keys is keys
        assert subset_values.tolist() == values

    def test_empty_batch_passes_through(self):
        subset_keys, subset_values = owned_subset([], [], N_SHARDS, 4, 1)
        assert list(subset_keys) == []
        assert subset_values.size == 0


class TestPoolParity:
    @pytest.mark.parametrize("kind", ["bottom_k", "poisson"])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_pooled_ingest_matches_serial_byte_exact(self, kind, transport):
        batches = make_batches()
        serial = build_store(kind)
        load(serial, batches)

        pooled = build_store(kind)
        pooled.start_workers(4, transport=transport)
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
            assert row["transport"] == "shm"
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

    def test_pool_validates_transport(self):
        with pytest.raises(ValueError):
            ShardWorkerPool(1, transport="carrier-pigeon")
