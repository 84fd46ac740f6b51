"""Where store work runs: inline on a free engine, on a thread if busy.

A query the result cache cannot answer runs on the event loop when its
engine's lock is free, with no executor hop.  When another thread holds
the lock, the store raises ``EngineBusyError`` before any work and the
query reruns on the one ``sketch-query`` thread, which waits for the
lock there; health pages and other engines' ingests answer meanwhile.
An ingest body small enough to parse on the loop is submitted there too
when it holds at most two instance groups, the store has no WAL and the
engine is free; a larger body, a body with more groups, a WAL-attached
store or a busy engine submits on the ingest pool.  Each
executor hop records its queue wait as an ``executor.wait`` span under
the request's ``http.request`` span.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.exceptions import EngineBusyError
from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient
from repro.server.app import _PARSE_INLINE_BYTES, _SUBMIT_INLINE_GROUPS
from repro.service import SketchStore, codec

from ingest_helper import HeldLock, ingest

HOURS = ("h0", "h1", "h2", "h3")
QUERY_PARAMS = {"name": "traffic", "kind": "distinct", "instances": "h0,h1"}


def make_store(store: SketchStore | None = None) -> SketchStore:
    store = store if store is not None else SketchStore()
    for name in ("traffic", "clicks"):
        store.create(
            name,
            "poisson",
            threshold=0.4,
            seed_assigner=SeedAssigner(salt=5),
            n_shards=4,
        )
    for index, hour in enumerate(HOURS):
        keys = [f"user{key}" for key in range(index * 50, index * 50 + 200)]
        ingest(store, "traffic", hour, keys, [1.0 + key % 7 for key in range(200)])
    return store


def hour_pairs() -> list[tuple[str, str]]:
    return [(a, b) for a in HOURS for b in HOURS if a != b]


class RunSpy:
    """Stands in for ``server.planner.run``, noting the thread and the
    outcome (``running``, ``busy`` or ``answered``) of each call;
    ``on_answer`` runs on the answering thread."""

    def __init__(self, server, on_answer=None) -> None:
        self.calls: list[list] = []
        self._run = server.planner.run
        self._on_answer = on_answer
        server.planner.run = self

    def __call__(self, *args, **kwargs):
        call = [threading.current_thread(), "running"]
        self.calls.append(call)
        try:
            result = self._run(*args, **kwargs)
        except EngineBusyError:
            call[1] = "busy"
            raise
        call[1] = "answered"
        if self._on_answer is not None:
            self._on_answer()
        return result

    def on_lane(self) -> bool:
        return any(thread.name.startswith("sketch-query") for thread, _ in self.calls)


class SubmitSpy:
    """Stands in for ``server.store.submit``, noting the thread, the
    ``wait`` flag and the outcome (``running``, ``busy`` or
    ``answered``) of each call."""

    def __init__(self, store: SketchStore) -> None:
        self.calls: list[list] = []
        self._submit = store.submit
        store.submit = self

    def __call__(self, request, *, wait=True):
        call = [threading.current_thread(), wait, "running"]
        self.calls.append(call)
        try:
            version = self._submit(request, wait=wait)
        except EngineBusyError:
            call[2] = "busy"
            raise
        call[2] = "answered"
        return version

    def on_pool(self) -> bool:
        return any(
            thread.name.startswith("sketch-server") for thread, _, _ in self.calls
        )


async def until(condition) -> None:
    for _ in range(500):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition never held")


def request_spans(server, name: str, request_id: str) -> list:
    return [
        record
        for record in server.trace.recent(name=name)
        if record.trace_id == request_id
    ]


class OrderedStore(SketchStore):
    """A store noting when the shutdown snapshot is written."""

    def __init__(self, events: list[str]) -> None:
        super().__init__()
        self.events = events

    def snapshot_marked(self, *args, **kwargs):
        self.events.append("snapshot")
        return super().snapshot_marked(*args, **kwargs)


class TestQueryLane:
    def test_lane_001_free_engine_answers_on_the_event_loop(self, run_scenario):
        async def scenario(server, client):
            loop_thread = threading.current_thread()
            spy = RunSpy(server)
            server.trace.clear()
            pairs = hour_pairs()

            async def connection(chunk):
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as own:
                    for pair in chunk:
                        result = await own.query("traffic", "distinct", list(pair))
                        assert not result["from_cache"]

            await asyncio.gather(connection(pairs[0::2]), connection(pairs[1::2]))
            assert spy.calls == [[loop_thread, "answered"]] * len(pairs)
            status, _ = await client.request(
                "GET",
                "/v1/query",
                params={**QUERY_PARAMS, "instances": "h2,h0"},
                request_id="lane-inline-1",
            )
            assert status == 200
            assert len(request_spans(server, "http.request", "lane-inline-1")) == 1
            assert request_spans(server, "executor.wait", "lane-inline-1") == []

        run_scenario(scenario, store=make_store(), ingest_threads=4)

    def test_lane_002_busy_engine_answers_on_the_lane(self, run_scenario):
        store = make_store()

        async def scenario(server, client):
            loop_thread = threading.current_thread()
            spy = RunSpy(server)
            with HeldLock(store, "traffic") as lock:
                async with AsyncSketchClient(
                    host="127.0.0.1", port=server.port
                ) as other:
                    query = asyncio.ensure_future(
                        other.query("traffic", "distinct", ["h0", "h1"])
                    )
                    await until(spy.on_lane)
                    status, payload = await client.request(
                        "GET", "/v1/healthz", params={"verbose": "1"}
                    )
                    assert status == 200 and "health" in payload
                    report = await client.ingest("clicks", "h9", ["late"], [2.0])
                    assert report["rows"] == 1
                    assert not query.done()
                    lock.release()
                    result = await query
            assert not result["from_cache"]
            (first, outcome), (second, answer) = spy.calls
            assert (first, outcome) == (loop_thread, "busy")
            assert second.name.startswith("sketch-query") and answer == "answered"

        run_scenario(scenario, store=store)

    def test_lane_003_shutdown_waits_for_the_parked_query(self, run_scenario, tmp_path):
        events: list[str] = []
        store = make_store(OrderedStore(events))

        async def scenario(server, client):
            spy = RunSpy(server, on_answer=lambda: events.append("query"))
            with HeldLock(store, "traffic") as lock:
                query = asyncio.ensure_future(
                    client.query("traffic", "distinct", ["h0", "h1"])
                )
                await until(spy.on_lane)
                # Without a drain window, only the lane's own drain can
                # hold the snapshot back; the lock frees while shutdown
                # blocks on it.
                opener = threading.Timer(0.2, lock.release)
                opener.start()
                try:
                    await server.shutdown(drain_seconds=0.0)
                finally:
                    opener.join(timeout=5)
                assert not opener.is_alive()
            query.cancel()
            await asyncio.gather(query, return_exceptions=True)

        run_scenario(scenario, store=store, snapshot_path=tmp_path / "store.bin")
        assert events == ["query", "snapshot"]
        assert (tmp_path / "store.bin").exists()

    def test_lane_004_lane_query_records_its_executor_wait(self, run_scenario):
        store = make_store()

        async def scenario(server, client):
            spy = RunSpy(server)
            server.trace.clear()
            with HeldLock(store, "traffic") as lock:
                query = asyncio.ensure_future(
                    client.request(
                        "GET",
                        "/v1/query",
                        params=QUERY_PARAMS,
                        request_id="lane-wait-1",
                    )
                )
                await until(spy.on_lane)
                lock.release()
                status, _ = await query
            assert status == 200
            waits = request_spans(server, "executor.wait", "lane-wait-1")
            assert len(waits) == 1
            (wait,) = waits
            assert wait.parent == "http.request"
            assert wait.duration_seconds >= 0.0
            (request,) = request_spans(server, "http.request", "lane-wait-1")
            assert wait.duration_seconds <= request.duration_seconds

        run_scenario(scenario, store=store)


class TestInlineIngest:
    def test_ingest_inline_001_small_body_submits_on_the_event_loop(
        self, run_scenario
    ):
        store = make_store()

        async def scenario(server, client):
            loop_thread = threading.current_thread()
            spy = SubmitSpy(store)
            server.trace.clear()
            before = store.version("traffic")
            status, report = await client.request(
                "POST",
                "/v1/ingest",
                json_body={
                    "name": "traffic",
                    "instance": "h0",
                    "keys": ["new0", "new1"],
                    "values": [1.0, 2.0],
                },
                request_id="ingest-inline-1",
            )
            assert status == 200 and report["version"] == before + 1
            assert spy.calls == [[loop_thread, False, "answered"]]
            assert request_spans(server, "executor.wait", "ingest-inline-1") == []

        run_scenario(scenario, store=store)

    def test_ingest_inline_002_large_body_submits_on_the_pool(self, run_scenario):
        store = make_store()
        keys = [f"bulk{key}" for key in range(6000)]

        async def scenario(server, client):
            spy = SubmitSpy(store)
            body = json.dumps(
                {
                    "name": "traffic",
                    "instance": "h0",
                    "keys": keys,
                    "values": [1.5] * len(keys),
                }
            ).encode()
            assert len(body) > _PARSE_INLINE_BYTES
            status, report = await client.request(
                "POST",
                "/v1/ingest",
                body=body,
            )
            assert status == 200 and report["rows"] == len(keys)
            ((thread, wait, outcome),) = spy.calls
            assert thread.name.startswith("sketch-server")
            assert (wait, outcome) == (True, "answered")

        run_scenario(scenario, store=store)

    def test_ingest_inline_003_wal_attached_store_submits_on_the_pool(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            spy = SubmitSpy(server.store)
            await client.create_engine("traffic", "poisson", threshold=0.5)
            report = await client.ingest("traffic", "h0", ["a", "b"], [1.0, 2.0])
            assert report["version"] == 1
            ((thread, wait, outcome),) = spy.calls
            assert thread.name.startswith("sketch-server")
            assert (wait, outcome) == (True, "answered")

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")

    def test_ingest_inline_004_busy_engine_submits_on_the_pool(self, run_scenario):
        store = make_store()

        async def scenario(server, client):
            loop_thread = threading.current_thread()
            before = (store.version("traffic"), codec.to_bytes(store.engine("traffic")))
            spy = SubmitSpy(store)
            with HeldLock(store, "traffic") as lock:
                ingest = asyncio.ensure_future(
                    client.ingest("traffic", "h1", ["late"], [2.0])
                )
                await until(spy.on_pool)
                # the refused inline attempt changed nothing
                assert spy.calls[0] == [loop_thread, False, "busy"]
                assert store._entry("traffic").version == before[0]
                assert not ingest.done()
                lock.release()
                report = await ingest
            assert report["version"] == before[0] + 1
            second, wait, outcome = spy.calls[1]
            assert second.name.startswith("sketch-server")
            assert (wait, outcome) == (True, "answered")
            reference = codec.from_bytes(before[1])
            reference.ingest("h1", ["late"], [2.0])
            assert codec.to_bytes(store.engine("traffic")) == codec.to_bytes(reference)

        run_scenario(scenario, store=store)

    def test_ingest_inline_005_small_body_of_many_groups_submits_on_the_pool(
        self, run_scenario
    ):
        store = make_store()

        async def scenario(server, client):
            loop_thread = threading.current_thread()
            spy = SubmitSpy(store)
            for n_groups in (_SUBMIT_INLINE_GROUPS, _SUBMIT_INLINE_GROUPS + 1):
                rows = [[f"m{group}", f"key{group}", 1.0] for group in range(n_groups)]
                status, report = await client.request(
                    "POST",
                    "/v1/ingest",
                    json_body={"name": "traffic", "rows": rows},
                )
                assert status == 200 and report["rows"] == n_groups
            (first, wait, outcome), (second, *rest) = spy.calls
            assert (first, wait, outcome) == (loop_thread, False, "answered")
            assert second.name.startswith("sketch-server")
            assert rest == [True, "answered"]

        run_scenario(scenario, store=store)
