"""The one-thread query lane and the executor queue-wait span.

Cold queries (result-cache misses) run on a dedicated ``sketch-query``
thread; ingest, snapshots and the health pages stay on the
``ingest_threads`` pool, so none of them queues behind a query.  Each
executor hop records its queue wait as an ``executor.wait`` span under
the request's ``http.request`` span.
"""

from __future__ import annotations

import asyncio
import threading

from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient
from repro.service import SketchStore

from ingest_helper import ingest

HOURS = ("h0", "h1", "h2", "h3")


def make_store() -> SketchStore:
    store = SketchStore()
    store.create(
        "traffic",
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


def spy_on_run(server, before=None) -> list[str]:
    """Replace ``server.planner.run`` with a spy recording the thread
    each call runs on; ``before`` runs first on that thread."""
    threads: list[str] = []
    run = server.planner.run

    def spy(name, query):
        threads.append(threading.current_thread().name)
        if before is not None:
            before()
        return run(name, query)

    server.planner.run = spy
    return threads


def test_cold_queries_from_two_connections_share_one_thread(run_scenario):
    async def scenario(server, client):
        threads = spy_on_run(server)
        pairs = hour_pairs()

        async def connection(chunk):
            async with AsyncSketchClient(host="127.0.0.1", port=server.port) as own:
                for pair in chunk:
                    result = await own.query("traffic", "distinct", list(pair))
                    assert not result["from_cache"]

        await asyncio.gather(connection(pairs[0::2]), connection(pairs[1::2]))
        return threads

    threads = run_scenario(scenario, store=make_store(), ingest_threads=4)
    assert len(threads) == len(hour_pairs())
    (name,) = set(threads)
    assert name.startswith("sketch-query")


def test_parked_query_blocks_neither_health_nor_ingest(run_scenario):
    gate = threading.Event()
    parked = threading.Event()

    def park():
        parked.set()
        assert gate.wait(timeout=30), "test gate never opened"

    async def scenario(server, client):
        spy_on_run(server, before=park)
        async with AsyncSketchClient(host="127.0.0.1", port=server.port) as other:
            query = asyncio.ensure_future(
                other.query("traffic", "distinct", ["h0", "h1"])
            )
            try:
                for _ in range(500):
                    if parked.is_set():
                        break
                    await asyncio.sleep(0.01)
                assert parked.is_set()
                status, payload = await client.request(
                    "GET", "/v1/healthz", params={"verbose": "1"}
                )
                assert status == 200 and "health" in payload
                report = await client.ingest("traffic", "h9", ["late"], [2.0])
                assert report["rows"] == 1
                assert not query.done()
            finally:
                gate.set()
            result = await query
            assert not result["from_cache"]

    run_scenario(scenario, store=make_store())


class OrderedStore(SketchStore):
    """A store noting when the shutdown snapshot is written."""

    def __init__(self, events: list[str]) -> None:
        super().__init__()
        self.events = events

    def snapshot_marked(self, *args, **kwargs):
        self.events.append("snapshot")
        return super().snapshot_marked(*args, **kwargs)


def test_shutdown_waits_for_the_parked_query_before_snapshot(run_scenario, tmp_path):
    events: list[str] = []
    store = OrderedStore(events)
    store.create("traffic", "poisson", threshold=0.4, n_shards=2)
    ingest(store, "traffic", "h0", ["a", "b", "c"], [1.0, 2.0, 3.0])
    ingest(store, "traffic", "h1", ["b", "c", "d"], [1.0, 2.0, 3.0])
    gate = threading.Event()
    parked = threading.Event()

    def park():
        parked.set()
        assert gate.wait(timeout=30), "test gate never opened"
        events.append("query")

    async def scenario(server, client):
        spy_on_run(server, before=park)
        query = asyncio.ensure_future(client.query("traffic", "distinct", ["h0", "h1"]))
        for _ in range(500):
            if parked.is_set():
                break
            await asyncio.sleep(0.01)
        assert parked.is_set()
        # Without a drain window, only the lane's own drain can hold the
        # snapshot back; the gate opens while shutdown blocks on it.
        opener = threading.Timer(0.2, gate.set)
        opener.start()
        try:
            await server.shutdown(drain_seconds=0.0)
        finally:
            gate.set()
            opener.join(timeout=5)
        assert not opener.is_alive()
        query.cancel()
        await asyncio.gather(query, return_exceptions=True)

    run_scenario(scenario, store=store, snapshot_path=tmp_path / "store.bin")
    assert events == ["query", "snapshot"]
    assert (tmp_path / "store.bin").exists()


def test_cold_query_records_its_executor_wait(run_scenario):
    async def scenario(server, client):
        server.trace.clear()
        status, _ = await client.request(
            "GET",
            "/v1/query",
            params={"name": "traffic", "kind": "distinct", "instances": "h0,h1"},
            request_id="lane-wait-1",
        )
        assert status == 200
        waits = [
            record
            for record in server.trace.recent(name="executor.wait")
            if record.trace_id == "lane-wait-1"
        ]
        assert len(waits) == 1
        (wait,) = waits
        assert wait.parent == "http.request"
        assert wait.duration_seconds >= 0.0
        (request,) = [
            record
            for record in server.trace.recent(name="http.request")
            if record.trace_id == "lane-wait-1"
        ]
        assert wait.duration_seconds <= request.duration_seconds

    run_scenario(scenario, store=make_store())
