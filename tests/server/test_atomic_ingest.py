"""A rejected ingest request changes nothing, on every write path.

Each numbered case sends one request of two instance groups whose *last*
group is invalid: a negative value, or a key the write-ahead log's codec
refuses.  The request must fail and leave the engine's codec bytes, its
version, its ``probe()`` and the log's record count as they were.  A
retry with the last group fixed must then count the first group once:
the engine ends byte-identical to a store that only saw the fixed
request.
"""

from __future__ import annotations

import csv
import sys
import threading

import pytest

from repro.exceptions import InvalidParameterError, SketchCodecError
from repro.sampling.seeds import SeedAssigner
from repro.server.wire import BATCH_CONTENT_TYPE, encode_batches
from repro.service import codec
from repro.service.cli import main as cli_main
from repro.service.store import IngestRequest, SketchStore
from repro.wal import WriteAheadLog
from repro.wal.log import RECORD_BATCH

from ingest_helper import ingest

ENGINE = "t"
#: the valid first group of every request
FIRST = ("mon", ["a", "b", "c"], [5.0, 1.0, 2.0])
#: the last group as the retry sends it
FIXED = ("tue", ["x", "y"], [1.0, 3.0])
NEGATIVE = ("tue", ["x", "y"], [1.0, -1.0])
#: a hashable key the wire codec cannot encode
UNLOGGABLE = ("tue", ["x", frozenset({"y"})], [1.0, 3.0])


def new_store(wal_dir=None) -> SketchStore:
    """An engine holding one earlier batch, with a log when asked."""
    store = SketchStore()
    if wal_dir is not None:
        store.attach_wal(WriteAheadLog(wal_dir, fsync="off"))
    seeds = SeedAssigner(salt=7)
    store.create(ENGINE, "poisson", threshold=0.5, seed_assigner=seeds, n_shards=4)
    ingest(store, ENGINE, "wed", ["w1", "w2"], [1.0, 2.0])
    return store


def state(store: SketchStore) -> tuple:
    """Engine bytes, version, probe and log record count of ``store``."""
    engine = store.engine(ENGINE)
    wal = store.wal
    return (
        codec.to_bytes(engine),
        store.version(ENGINE),
        engine.probe(),
        len(wal.read_all()[0]) if wal is not None else None,
    )


def assert_retry_counts_once(store: SketchStore) -> None:
    control = new_store()
    control.submit(IngestRequest(engine=ENGINE, batches=(FIRST, FIXED)))
    engine = store.engine(ENGINE)
    assert codec.to_bytes(engine) == codec.to_bytes(control.engine(ENGINE))
    assert store.version(ENGINE) == control.version(ENGINE)


def check_submit(store: SketchStore, bad, error, match) -> None:
    before = state(store)
    with pytest.raises(error, match=match):
        store.submit(IngestRequest(engine=ENGINE, batches=(FIRST, bad)))
    assert state(store) == before
    store.submit(IngestRequest(engine=ENGINE, batches=(FIRST, FIXED)))
    assert_retry_counts_once(store)


@pytest.fixture
def wal_store(tmp_path):
    store = new_store(tmp_path / "wal")
    yield store
    store.wal.close()


def rows_of(*groups) -> list:
    return [
        [instance, key, value]
        for instance, keys, values in groups
        for key, value in zip(keys, values)
    ]


def check_http(run_scenario, tmp_path, send) -> None:
    """``send(client, groups)`` POSTs one request and returns its status."""
    store = new_store()

    async def scenario(server, client):
        before = state(store)
        assert await send(client, (FIRST, NEGATIVE)) == 400
        assert state(store) == before
        assert await send(client, (FIRST, FIXED)) == 200

    run_scenario(scenario, store=store, wal_dir=tmp_path / "wal")
    assert_retry_counts_once(store)


class TestAtomicSubmit:
    def test_atomic_001_submit_negative_value(self):
        check_submit(new_store(), NEGATIVE, InvalidParameterError, "nonnegative")

    def test_atomic_002_submit_negative_value_with_log(self, wal_store):
        check_submit(wal_store, NEGATIVE, InvalidParameterError, "nonnegative")

    def test_atomic_003_submit_key_the_log_refuses(self, wal_store):
        check_submit(wal_store, UNLOGGABLE, SketchCodecError, "frozenset")

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


class TestAtomicHttp:
    def test_atomic_007_http_json_rows(self, run_scenario, tmp_path):
        async def send(client, groups):
            body = {"name": ENGINE, "rows": rows_of(*groups)}
            status, _ = await client.request("POST", "/v1/ingest", json_body=body)
            return status

        check_http(run_scenario, tmp_path, send)

    def test_atomic_008_http_csv(self, run_scenario, tmp_path):
        async def send(client, groups):
            text = "".join(f"{i},{k},{v!r}\n" for i, k, v in rows_of(*groups))
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": ENGINE},
                body=text.encode(),
                content_type="text/csv",
            )
            return status

        check_http(run_scenario, tmp_path, send)

    def test_atomic_009_http_rbat(self, run_scenario, tmp_path):
        async def send(client, groups):
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": ENGINE},
                body=encode_batches(groups),
                content_type=BATCH_CONTENT_TYPE,
            )
            return status

        check_http(run_scenario, tmp_path, send)


class TestAtomicCli:
    def test_atomic_010_cli_ingest_writes_no_store(self, tmp_path, capsys):
        """The CLI snapshots only after every submit succeeded, so a
        failed ingest writes no ``--store`` file and leaves an existing
        one byte-identical."""
        spec = ["--kind", "poisson", "--threshold", "0.5", "--salt", "7"]

        def cli_ingest(store_path, name, *groups):
            path = tmp_path / name
            with path.open("w", newline="") as handle:
                csv.writer(handle).writerows(rows_of(*groups))
            args = ["--store", str(store_path), "--name", ENGINE, "--input", str(path)]
            return cli_main(["ingest", *args, *spec, "--shards", "4"])

        fresh = tmp_path / "fresh.bin"
        assert cli_ingest(fresh, "bad.csv", FIRST, NEGATIVE) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not fresh.exists()

        warm = tmp_path / "warm.bin"
        assert cli_ingest(warm, "warm.csv", ("wed", ["w1", "w2"], [1.0, 2.0])) == 0
        before = warm.read_bytes()
        assert cli_ingest(warm, "bad.csv", FIRST, NEGATIVE) == 2
        assert warm.read_bytes() == before
        assert cli_ingest(warm, "fixed.csv", FIRST, FIXED) == 0
        assert_retry_counts_once(SketchStore.restore(warm))
