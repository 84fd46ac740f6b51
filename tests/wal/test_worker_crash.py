"""Shard-worker crash recovery through the write-ahead log.

SIGKILL a worker mid-load: the parent must respawn the slot and replay
its un-folded WAL tail, ending bit-exact with an uninterrupted control
run — acked batches are never dropped, and the append-before-dispatch
ordering means the log always covers whatever the dead incarnation
held.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

import faults
from repro.service import codec

from ingest_helper import ingest

N_WORKERS = 2


def make_batches(n_batches: int = 12, rows: int = 300, seed: int = 9):
    generator = np.random.default_rng(seed)
    batches = []
    for instance in ("mon", "tue"):
        keys = generator.choice(
            10**7, size=n_batches * rows // 2, replace=False
        )
        values = generator.random(keys.size) * 6.0 + 0.1
        for start in range(0, keys.size, rows):
            batches.append(
                (instance, keys[start : start + rows],
                 values[start : start + rows])
            )
    return batches


def assert_respawned(store, dead_pid: int) -> None:
    """Healing is traffic-driven (a dispatch or fold notices the dead
    slot), so this checks the *outcome* after a sync read, not a
    passive wait."""
    probes = store.worker_probes()
    assert all(row["alive"] for row in probes)
    assert dead_pid not in [row["pid"] for row in probes]
    assert sum(row["restarts"] for row in probes) >= 1


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("kind", ["bottom_k", "poisson"])
    def test_sigkill_mid_load_recovers_bit_exact(self, tmp_path, kind):
        batches = make_batches()

        control = faults.build_store(kind)
        for instance, keys, values in batches:
            ingest(control, faults.ENGINE, instance, keys, values)
        control_blob = codec.to_bytes(control.engine(faults.ENGINE))

        store, wal = faults.build_wal_store(tmp_path / "wal", kind)
        store.start_workers(N_WORKERS)
        try:
            half = len(batches) // 2
            for instance, keys, values in batches[:half]:
                ingest(store, faults.ENGINE, instance, keys, values)
            victim = store.worker_probes()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            # keep loading through the crash: a dispatch or the final
            # fold notices the dead slot, respawns it, and replays the
            # WAL tail into the fresh incarnation
            for instance, keys, values in batches[half:]:
                ingest(store, faults.ENGINE, instance, keys, values)
            recovered = codec.to_bytes(
                store.engine(faults.ENGINE, sync=True)
            )
            assert_respawned(store, victim)
        finally:
            store.stop_workers()
            wal.close()
        assert recovered == control_blob

    def test_crash_between_loads_replays_acked_batches(self, tmp_path):
        """A worker killed while *idle* still loses its un-folded
        delta (acked batches live only in worker memory until a fold);
        the WAL tail replay must restore every one of them.

        The parity bar here is engine equality, not byte equality: the
        mid-run sync read makes this a multi-fold sequence, and a
        second fold merges into already-touched shards (heap insertion
        order may differ while the retained sample is identical)."""
        batches = make_batches(n_batches=6)
        control = faults.build_store("bottom_k")
        for instance, keys, values in batches:
            ingest(control, faults.ENGINE, instance, keys, values)

        store, wal = faults.build_wal_store(tmp_path / "wal", "bottom_k")
        store.start_workers(N_WORKERS)
        try:
            for instance, keys, values in batches[:-1]:
                ingest(store, faults.ENGINE, instance, keys, values)
            # quiesce: every batch above is applied and acked
            store.engine(faults.ENGINE, sync=True)
            victim = store.worker_probes()[1]["pid"]
            os.kill(victim, signal.SIGKILL)
            instance, keys, values = batches[-1]
            ingest(store, faults.ENGINE, instance, keys, values)
            recovered = store.engine(faults.ENGINE, sync=True)
            assert_respawned(store, victim)
            assert recovered == control.engine(faults.ENGINE)
        finally:
            store.stop_workers()
            wal.close()
