"""Rejected ingest requests racing accepted ones on threads change
nothing; tests/conformance/test_write_paths.py checks a rejected request
on every write path."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.seeds import SeedAssigner
from repro.service.store import IngestRequest, SketchStore
from repro.wal import WriteAheadLog
from repro.wal.log import RECORD_BATCH

from ingest_helper import ingest

ENGINE = "t"


def new_store(wal_dir=None) -> SketchStore:
    """An engine holding one earlier batch, with a log when asked."""
    store = SketchStore()
    if wal_dir is not None:
        store.attach_wal(WriteAheadLog(wal_dir, fsync="off"))
    seeds = SeedAssigner(salt=7)
    store.create(ENGINE, "poisson", threshold=0.5, seed_assigner=seeds, n_shards=4)
    ingest(store, ENGINE, "wed", ["w1", "w2"], [1.0, 2.0])
    return store


@pytest.fixture
def wal_store(tmp_path):
    store = new_store(tmp_path / "wal")
    yield store
    store.wal.close()


class TestAtomicSubmit:
    def test_atomic_006_concurrent_requests_with_rejections(self, wal_store):
        """Six threads race two-group requests, every third one with a
        negative last group: the accepted ones land exactly once, at the
        versions the log recorded for them."""
        n_threads, n_requests = 6, 20

        def request(thread: int, index: int, bad: bool) -> IngestRequest:
            keys = [f"{thread}-{index}-{row}" for row in range(4)]
            last = [1.0, -1.0] if bad else [1.0, 2.0]
            batches = (("mon", keys[:2], [3.0, 4.0]), ("tue", keys[2:], last))
            return IngestRequest(engine=ENGINE, batches=batches)

        rejected = []

        def writer(thread: int) -> None:
            for index in range(n_requests):
                try:
                    wal_store.submit(request(thread, index, index % 3 == 2))
                except InvalidParameterError:
                    rejected.append((thread, index))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(thread,))
                for thread in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(rejected) == n_threads * (n_requests // 3)

        serial = new_store()
        for thread in range(n_threads):
            for index in range(n_requests):
                if index % 3 != 2:
                    serial.submit(request(thread, index, False))
        # engine equality: codec bytes follow the order keys arrived in
        assert wal_store.engine(ENGINE) == serial.engine(ENGINE)
        version = wal_store.version(ENGINE)
        accepted = n_threads * n_requests - len(rejected)
        assert version == serial.version(ENGINE) == 1 + 2 * accepted
        records, _ = wal_store.wal.read_all()
        logged = sorted(r.version for r in records if r.kind == RECORD_BATCH)
        assert logged == list(range(1, version + 1))
