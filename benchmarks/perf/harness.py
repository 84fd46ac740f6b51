"""Server process control, closed-loop load, checks and metric formulas.

One *pass* of a workload runs these steps in order:

1. prepare the workload's server state (snapshot or write-ahead log);
2. boot the server (``serve.py``), several times for ``setup_s``;
3. warm up, discarding the results;
4. run the timed window;
5. read ``/v1/metrics``;
6. send SIGTERM and wait for the clean shutdown;
7. check the outputs, untimed.

The load comes from this process alone: one asyncio loop driving at most
two keep-alive :class:`~repro.server.AsyncSketchClient` connections, each
a closed loop that sends its next request only after the previous reply,
as log shippers and dashboards do.

Timings are reported at a reference host speed.  The host is shared and
the speed a process gets drifts by tens of percent between runs; the
probe of ``calibrate.py`` measures it beside the boots and beside the
load, and every time is scaled by ``speed / REFERENCE_SPEED`` (every
rate by its inverse).  The probe runs only on idle CPU time and uses no
repository code, so the scaling cancels the host's drift and nothing
else.  The raw values are printed in the run's stamp.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ledger
import workloads as wl
from repro.server import BATCH_CONTENT_TYPE, AsyncSketchClient
from repro.service import codec
from repro.service.confidence import query_confidence
from repro.service.queries import Query, query_value_json
from repro.service.store import IngestRequest, SketchStore
from repro.streaming.engine import StreamEngine
from repro.wal import WriteAheadLog, recover_store

SERVE = Path(__file__).with_name("serve.py")
PROBE = Path(__file__).with_name("calibrate.py")
#: the two probes' readings on the reference host, which the reported
#: timings are scaled to: kernel iterations per CPU second beside the
#: load, and seconds of the import probe before a boot.  Fixed
#: constants: runs are only comparable while they stay the same.
REFERENCE_SPEED = 1500.0
REFERENCE_IMPORT_SECONDS = 1.0
#: boots per untraced pass; ``setup_s`` is their median
SETUP_BOOTS = 3
WARMUP_SECONDS = 1.0
#: query responses the ``query-cold`` check recomputes in-process
CHECKED_QUERIES = 100
FSYNC_POLICY = "interval"
WARMUP, WINDOW = 0, 1
_FSYNC_BUCKET = re.compile(
    r'^repro_wal_fsync_seconds_bucket\{le="([^"]+)"[^}]*\} (\S+)$'
)


# ----------------------------------------------------------------------
# Requests and samples
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    kind: str  # "ingest" or "query"
    method: str
    path: str
    params: dict | None
    body: bytes | None
    content_type: str
    #: body index (ingest) or QuerySpec (query)
    tag: object
    rows: int = 0


@dataclass
class Sample:
    kind: str
    tag: object
    phase: int
    seconds: float
    finished: float
    status: int
    rows: int
    payload: object = None


def _ingest_json(seed: int, index: int) -> Request:
    body = wl.json_body(seed, index)
    return Request(
        "ingest",
        "POST",
        "/v1/ingest",
        None,
        body,
        "application/json",
        index,
        wl.JSON_BODY_ROWS,
    )


def _ingest_binary(seed: int, index: int) -> Request:
    body = wl.binary_body(seed, index)
    return Request(
        "ingest",
        "POST",
        "/v1/ingest",
        {"name": wl.BENCH_ENGINE["name"]},
        body,
        BATCH_CONTENT_TYPE,
        index,
        wl.BINARY_BODY_ROWS,
    )


def _query(spec: wl.QuerySpec) -> Request:
    return Request("query", "GET", "/v1/query", spec.params(), None, "", spec)


# ----------------------------------------------------------------------
# Server state helpers
# ----------------------------------------------------------------------
def _create_spec(engine: dict) -> str:
    fields = dict(engine)
    fields["shards"] = fields.pop("n_shards")
    return ",".join(f"{key}={value}" for key, value in fields.items())


def _new_store(*engines: dict) -> SketchStore:
    store = SketchStore()
    for engine in engines:
        store.create_from_config(engine)
    return store


def _link_tree(source: Path, target: Path) -> None:
    """Hard-link every file of ``source`` into ``target``: a boot gets its
    own directory entries without copying the prepared bytes, and the
    server's later rewrites (atomic replace, checkpoint unlinks) leave
    the prepared originals untouched."""
    target.mkdir(parents=True, exist_ok=True)
    for path in source.iterdir():
        os.link(path, target / path.name)


def canonical_bytes(engine: StreamEngine) -> bytes:
    """``codec.to_bytes`` of ``engine`` with instances and each shard's
    entries sorted.

    The codec keeps entry insertion order, and two connections ingesting
    concurrently interleave differently on every run; sorting makes the
    bytes a function of the sketch contents alone, which stay compared
    bit for bit (keys, values, ranks, counters).
    """
    state = engine.state_dict()
    state["instances"] = {
        label: tuple(
            {**shard, "entries": tuple(sorted(shard["entries"], key=_first))}
            for shard in shards
        )
        for label, shards in sorted(
            state["instances"].items(), key=lambda item: str(item[0])
        )
    }
    return codec.to_bytes(StreamEngine.from_state(state))


def _first(entry: tuple):
    return entry[0]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One traffic mix against one server state."""

    name = ""
    #: requests lane 0 completes before the other lanes start
    prime = 0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def prepare(self) -> dict:
        """Build the server's starting state; returns corpus sizes."""
        return {}

    def stage(self, boot_dir: Path) -> list[str]:
        """Lay out one boot's directory; returns its ``serve`` arguments."""
        boot_dir.mkdir(parents=True)
        return [
            "--store",
            str(boot_dir / "store.bin"),
            "--create",
            _create_spec(wl.BENCH_ENGINE),
        ]

    def before_stop(self, boot_dir: Path) -> None:
        """Runs after the load, before SIGTERM."""

    def lanes(self) -> list:
        """One request source per connection."""
        raise NotImplementedError

    def check(self, boot_dir: Path, samples: list[Sample]) -> tuple[int, list[str]]:
        """``(checks made, mismatch descriptions)``."""
        raise NotImplementedError


class _IngestChecked(Workload):
    """Ingest workloads: the engine the server wrote at shutdown must
    equal a serial in-process submit of every acknowledged body."""

    first_body = 0

    def reference_bodies(self, samples: list[Sample]) -> list[int]:
        return sorted(
            sample.tag
            for sample in samples
            if sample.kind == "ingest" and 200 <= sample.status < 300
        )

    def submit_body(self, store: SketchStore, index: int) -> None:
        raise NotImplementedError

    def served_stores(self, boot_dir: Path) -> dict[str, SketchStore]:
        """The stores the server's outputs rebuild, by description."""
        return {"shutdown snapshot": SketchStore.restore(boot_dir / "store.bin")}

    def check(self, boot_dir, samples):
        reference = _new_store(wl.BENCH_ENGINE)
        for index in self.reference_bodies(samples):
            self.submit_body(reference, index)
        name = wl.BENCH_ENGINE["name"]
        expected = canonical_bytes(reference.engine(name))
        served = self.served_stores(boot_dir)
        mismatches = [
            f"{source} differs from serial ingest"
            for source, store in served.items()
            if canonical_bytes(store.engine(name)) != expected
        ]
        return len(served), mismatches


class Mixed(_IngestChecked):
    """JSON column ingest on one connection, cached reads on the other."""

    name = "mixed"
    # both instances must exist before the first query reads them
    prime = 2

    def lanes(self):
        seed = self.seed
        bodies = iter(range(self.first_body, 1 << 22))
        shapes = wl.mixed_queries()
        position = iter(range(1 << 40))

        def ingest():
            return _ingest_json(seed, next(bodies))

        def query():
            return _query(shapes[next(position) % len(shapes)])

        return [ingest, query]

    def submit_body(self, store, index):
        payload = json.loads(wl.json_body(self.seed, index))
        batch = (payload["instance"], payload["keys"], payload["values"])
        store.submit(
            IngestRequest(engine=payload["name"], batches=(batch,), coalesce=False)
        )


class IngestBinary(_IngestChecked):
    """Two connections POSTing 20,000-row RBAT bodies; no WAL, no query."""

    name = "ingest-binary"

    def prepare(self):
        return {"rows_per_body": wl.BINARY_BODY_ROWS}

    def lanes(self):
        seed = self.seed

        def lane(offset: int):
            bodies = iter(range(self.first_body + offset, 1 << 22, 2))
            return lambda: _ingest_binary(seed, next(bodies))

        return [lane(0), lane(1)]

    def submit_body(self, store, index):
        # the generator's columns, not the decoded body: the reference
        # also vouches for the wire encoding the server decoded
        batches = tuple(wl.binary_batches(self.seed, index))
        store.submit(IngestRequest(engine=wl.BENCH_ENGINE["name"], batches=batches))


class IngestDurable(IngestBinary):
    """``ingest-binary`` plus the write-ahead log; every boot recovers a
    prepared log first."""

    name = "ingest-durable"
    first_body = wl.DURABLE_PREP_BODIES

    def prepare(self):
        wal = WriteAheadLog(self.work / "prepared-wal", fsync="off")
        try:
            store = SketchStore()
            store.attach_wal(wal)
            store.create_from_config(wl.BENCH_ENGINE)
            for index in range(self.first_body):
                self.submit_body(store, index)
        finally:
            wal.close()
        return {
            "rows_per_body": wl.BINARY_BODY_ROWS,
            "recovered_rows": self.first_body * wl.BINARY_BODY_ROWS,
            "fsync": FSYNC_POLICY,
        }

    def stage(self, boot_dir):
        _link_tree(self.work / "prepared-wal", boot_dir / "wal")
        return [
            "--store",
            str(boot_dir / "store.bin"),
            "--wal-dir",
            str(boot_dir / "wal"),
            "--fsync",
            FSYNC_POLICY,
        ]

    def before_stop(self, boot_dir):
        # the boot-time snapshot and every segment written since; the
        # shutdown checkpoint deletes the server's own names for them
        check = boot_dir / "check"
        check.mkdir()
        os.link(boot_dir / "store.bin", check / "store.bin")
        _link_tree(boot_dir / "wal", check / "wal")

    def reference_bodies(self, samples):
        return list(range(self.first_body)) + super().reference_bodies(samples)

    def served_stores(self, boot_dir):
        wal = WriteAheadLog(boot_dir / "check" / "wal", fsync="off")
        try:
            report = recover_store(boot_dir / "check" / "store.bin", wal)
        finally:
            wal.close()
        stores = super().served_stores(boot_dir)
        stores["recovery from the WAL"] = report.store
        return stores


class QueryCold(Workload):
    """Two connections cycling every hour pair's three queries over a
    restored snapshot; every query misses the result cache."""

    name = "query-cold"

    def prepare(self):
        store = _new_store(wl.HOURS_ENGINE, wl.HOURS_PPS_ENGINE)
        for hour in range(wl.HOURS):
            batch = wl.hour_columns(self.seed, hour)
            for engine in (wl.HOURS_ENGINE, wl.HOURS_PPS_ENGINE):
                store.submit(IngestRequest(engine=engine["name"], batches=(batch,)))
        (self.work / "prepared").mkdir()
        store.snapshot(self.work / "prepared" / "store.bin")
        self.order = wl.query_cold_order(self.seed)
        return {
            "hours": wl.HOURS,
            "rows_per_hour": wl.HOUR_ROWS,
            "distinct_queries": len(self.order),
        }

    def stage(self, boot_dir):
        _link_tree(self.work / "prepared", boot_dir)
        return ["--store", str(boot_dir / "store.bin")]

    def lanes(self):
        # one cursor shared by both connections, so no query repeats
        # before the whole cycle has been sent
        order = self.order
        cursor = iter(range(1 << 40))

        def lane():
            return _query(order[next(cursor) % len(order)])

        return [lane, lane]

    def check(self, boot_dir, samples):
        queries = [sample for sample in samples if sample.kind == "query"]
        store = SketchStore.restore(self.work / "prepared" / "store.bin")
        planner = store.planner()
        mismatches = []
        positions = wl.checked_positions(self.seed, len(queries), CHECKED_QUERIES)
        for position in positions:
            sample = queries[position]
            spec = sample.tag
            query = Query(spec.kind, spec.instances, confidence=spec.confidence)
            value = planner.execute(spec.engine, query)
            expected = {"value": query_value_json(value), "confidence": None}
            if spec.confidence:
                _, sketches = store.snapshot_view(spec.engine, spec.instances)
                expected["confidence"] = query_confidence(sketches, query, value)
            payload = sample.payload if isinstance(sample.payload, dict) else {}
            served = {key: payload.get(key) for key in expected}
            if json.loads(json.dumps(expected)) != served:
                mismatches.append(f"{spec}: served {served}, expected {expected}")
        return len(positions), mismatches


WORKLOADS = {
    workload.name: workload
    for workload in (Mixed, IngestBinary, IngestDurable, QueryCold)
}


# ----------------------------------------------------------------------
# Processes: the server and the host-speed probe
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``serve.py`` process, from spawn to clean exit."""

    def __init__(self, cli_args: list[str], log_path: Path, ledger: Path | None):
        self.cli_args = cli_args
        self.log_path = log_path
        self.ledger = ledger
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Spawn and wait for the first 200 from ``/v1/healthz``; returns
        the seconds that took."""
        command = [sys.executable, str(SERVE)]
        if self.ledger is not None:
            command += ["--ledger", str(self.ledger)]
        command += ["--", "serve", "--port", "0", *self.cli_args]
        started = time.perf_counter()
        with self.log_path.open("w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True
            )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"server did not start; see {self.log_path}")
        self.port = int(json.loads(line)["listening"].rpartition(":")[2])
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/v1/healthz")
            status = connection.getresponse().status
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
        return time.perf_counter() - started

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kib / 1024.0

    def signal(self, number: int) -> None:
        self.process.send_signal(number)

    def stop(self, timeout: float = 120.0) -> None:
        """SIGTERM, then wait for the graceful shutdown."""
        self.process.send_signal(signal.SIGTERM)
        self.process.communicate(timeout=timeout)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.process.returncode}; see {self.log_path}"
            )

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.communicate()


def import_probe_seconds() -> float:
    """Wall seconds of ``calibrate.py --imports`` in a fresh interpreter."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(PROBE), "--imports"], check=True)
    return time.perf_counter() - started


class SpeedProbe:
    """``calibrate.py`` running beside one phase (a context manager);
    :attr:`speed` is its kernel iterations per CPU second."""

    #: fewer iterations mean the probe found almost no idle CPU
    MIN_ITERATIONS = 20

    def __enter__(self) -> "SpeedProbe":
        self.speed = 0.0
        self.process = subprocess.Popen(
            [sys.executable, str(PROBE)], stdout=subprocess.PIPE, text=True
        )
        if self.process.stdout.readline().strip() != "ready":
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("the host-speed probe did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.process.send_signal(signal.SIGTERM)
        output, _ = self.process.communicate(timeout=30)
        if exc_info[0] is not None:
            return
        report = json.loads(output)
        if report["iterations"] < self.MIN_ITERATIONS:
            raise RuntimeError(
                f"the host-speed probe ran only {report['iterations']} "
                "iterations; the host has no idle CPU to measure with"
            )
        self.speed = report["iterations"] / report["cpu_seconds"]


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
async def _send(client, request: Request, phase: int, samples: list) -> None:
    started = time.perf_counter()
    try:
        status, payload = await client.request(
            request.method,
            request.path,
            params=request.params,
            body=request.body,
            content_type=request.content_type,
        )
    except (OSError, asyncio.IncompleteReadError) as error:
        status, payload = 0, repr(error)
    finished = time.perf_counter()
    samples.append(
        Sample(
            request.kind,
            request.tag,
            phase,
            finished - started,
            finished,
            status,
            request.rows,
            payload if request.kind == "query" else None,
        )
    )


async def _lane(client, source, deadline: float, phase: int, samples: list) -> None:
    while time.perf_counter() < deadline:
        await _send(client, source(), phase, samples)


async def _metrics(client) -> dict:
    _, payload = await client.request("GET", "/v1/metrics")
    _, text = await client.request(
        "GET", "/v1/metrics", params={"format": "prometheus"}
    )
    return {"json": payload, "prometheus": text}


@dataclass
class Load:
    samples: list = field(default_factory=list)
    window_seconds: float = 0.0
    #: ``/v1/metrics`` (JSON and Prometheus) at the window's start and end
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)


async def _drive(workload: Workload, server: ServerProcess, seconds: float) -> Load:
    load = Load()
    lanes = workload.lanes()
    clients = [
        AsyncSketchClient(host="127.0.0.1", port=server.port, retry_attempts=0)
        for _ in lanes
    ]

    async def run_lanes(deadline: float, phase: int) -> None:
        await asyncio.gather(
            *(
                _lane(client, lane, deadline, phase, load.samples)
                for client, lane in zip(clients, lanes)
            )
        )

    try:
        for client in clients:
            await client.connect()
        for _ in range(workload.prime):
            await _send(clients[0], lanes[0](), WARMUP, load.samples)
        await run_lanes(time.perf_counter() + WARMUP_SECONDS, WARMUP)
        load.before = await _metrics(clients[0])
        if server.ledger is not None:
            server.signal(signal.SIGUSR1)
        started = time.perf_counter()
        await run_lanes(started + seconds, WINDOW)
        load.window_seconds = max(sample.finished for sample in load.samples) - started
        if server.ledger is not None:
            server.signal(signal.SIGUSR2)
        load.after = await _metrics(clients[0])
    finally:
        for client in clients:
            await client.close()
    return load


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_seconds: list[float]
    load: Load
    peak_rss_mib: float
    checks: int
    mismatches: list[str]
    ledger: dict | None
    #: the import probe's seconds before each boot, and the kernel
    #: probe's speed beside warm-up plus window
    import_seconds: list[float]
    window_speed: float
    #: wall seconds of the pass's steps, harness overhead included
    step_seconds: dict[str, float]


def run_pass(workload: Workload, seconds: float, traced: bool) -> PassResult:
    """Boot, load, stop and check one workload once."""
    label = "traced" if traced else "plain"
    boots = 1 if traced else SETUP_BOOTS
    steps = {}
    clock = time.perf_counter()

    def step(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        steps[name] = now - clock
        clock = now

    setups, imports = [], []
    for boot in range(boots):
        boot_dir = workload.work / f"{label}-{boot}"
        cli_args = workload.stage(boot_dir)
        ledger_path = boot_dir / "ledger.json" if traced else None
        server = ServerProcess(cli_args, boot_dir / "server.log", ledger_path)
        imports.append(import_probe_seconds())
        try:
            setups.append(server.start())
            if boot < boots - 1:
                server.stop()
        except BaseException:
            server.kill()
            raise
    step("boot")
    try:
        with SpeedProbe() as window_probe:
            load = asyncio.run(_drive(workload, server, seconds))
        peak_rss = server.peak_rss_mib()
        step("load")
        workload.before_stop(boot_dir)
        server.stop()
        step("stop")
    finally:
        server.kill()
    checks, mismatches = workload.check(boot_dir, load.samples)
    step("check")
    return PassResult(
        setup_seconds=setups,
        load=load,
        peak_rss_mib=peak_rss,
        checks=checks,
        mismatches=mismatches,
        ledger=json.loads(ledger_path.read_text()) if traced else None,
        import_seconds=imports,
        window_speed=window_probe.speed,
        step_seconds=steps,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _window(result: PassResult) -> list[Sample]:
    return [sample for sample in result.load.samples if sample.phase == WINDOW]


def _percentile(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) if seconds else 0.0


def measured(result: PassResult) -> dict[str, float]:
    """The end-to-end metrics as measured, before scaling."""
    latencies = [sample.seconds for sample in _window(result)]
    return {
        "setup_s": statistics.median(result.setup_seconds),
        "requests_per_s": len(latencies) / result.load.window_seconds,
        "latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "latency_p99_ms": _percentile(latencies, 99) * 1e3,
        "peak_rss_mb": result.peak_rss_mib,
    }


def end_to_end(result: PassResult) -> dict[str, float]:
    """The end-to-end metrics at the reference host speed: each boot's
    time is scaled by the import probe run just before it, the window's
    timings by the kernel probe run beside it."""
    values = measured(result)
    values["setup_s"] = REFERENCE_IMPORT_SECONDS * statistics.median(
        setup / probe
        for setup, probe in zip(result.setup_seconds, result.import_seconds)
    )
    slowdown = REFERENCE_SPEED / result.window_speed
    values["requests_per_s"] *= slowdown
    values["latency_p50_ms"] /= slowdown
    values["latency_p99_ms"] /= slowdown
    return values


def per_layer(plain: PassResult, traced: PassResult) -> dict[str, float]:
    """The per-layer metrics of a traced pass and its untraced twin."""
    values = ledger.layer_metrics(
        traced.ledger,
        setup_seconds=measured(traced)["setup_s"],
        boot_scale=REFERENCE_IMPORT_SECONDS / traced.import_seconds[0],
        window_scale=traced.window_speed / REFERENCE_SPEED,
    )
    values.update(_server_counters(traced))
    values["trace_overhead"] = 1.0 - (
        end_to_end(traced)["requests_per_s"] / end_to_end(plain)["requests_per_s"]
    )
    return values


def _counter(snapshot: dict, *path: str) -> float:
    node = snapshot.get("json") or {}
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
    return float(node or 0)


def _fsync_buckets(text: object) -> dict[float, float]:
    buckets = {}
    for line in str(text or "").splitlines():
        match = _FSYNC_BUCKET.match(line)
        if match:
            buckets[float(match.group(1))] = float(match.group(2))
    return buckets


def _fsync_p99_us(before: dict, after: dict) -> float:
    """Upper bound of the bucket holding the window's p99 fsync, from the
    server's Prometheus histogram (the resolution it exports)."""
    start = _fsync_buckets(before.get("prometheus"))
    end = _fsync_buckets(after.get("prometheus"))
    delta = {bound: count - start.get(bound, 0.0) for bound, count in end.items()}
    total = delta.get(float("inf"), 0.0)
    for bound in sorted(delta):
        if total > 0 and delta[bound] >= 0.99 * total and bound != float("inf"):
            return bound * 1e6
    return 0.0


def _acked_rows(result: PassResult) -> int:
    return sum(
        sample.rows for sample in _window(result) if 200 <= sample.status < 300
    )


def _server_counters(result: PassResult) -> dict[str, float]:
    """The ledger metrics read from ``/v1/metrics`` over the window."""
    before, after = result.load.before, result.load.after

    def delta(*path: str) -> float:
        return _counter(after, *path) - _counter(before, *path)

    lookups = delta("query_cache", "hits") + delta("query_cache", "misses")
    rows = _acked_rows(result)
    return {
        "planner.cache_hit_ratio": (
            delta("query_cache", "hits") / lookups if lookups else 0.0
        ),
        "wal.fsync.calls": delta("wal", "fsync_count"),
        "wal.fsync.p99_us": _fsync_p99_us(before, after),
        "wal.bytes_per_row": delta("wal", "appended_bytes") / rows if rows else 0.0,
    }


def failures(result: PassResult) -> int:
    """Requests answered non-2xx or lost to a connection error."""
    return sum(1 for sample in result.load.samples if not 200 <= sample.status < 300)


def describe(result: PassResult) -> dict:
    """What the stamp prints beside the metrics: raw values and probe
    speeds, per-kind latency with sample counts, rows per second, the
    checks, and the time each step took."""
    window = _window(result)
    info = {
        "measured": measured(result),
        "probes": {
            "import_s": result.import_seconds,
            "window_speed": result.window_speed,
            "reference_import_s": REFERENCE_IMPORT_SECONDS,
            "reference_speed": REFERENCE_SPEED,
        },
        "window_s": result.load.window_seconds,
        "ingest_rows_per_s": _acked_rows(result) / result.load.window_seconds,
        "boots_setup_s": result.setup_seconds,
        "failed_requests": failures(result),
        "checks": result.checks,
        "mismatches": result.mismatches,
        "step_s": result.step_seconds,
    }
    for kind in ("ingest", "query"):
        seconds = [sample.seconds for sample in window if sample.kind == kind]
        if seconds:
            info[f"{kind}_samples"] = len(seconds)
            info[f"{kind}_p50_ms"] = _percentile(seconds, 50) * 1e3
            info[f"{kind}_p99_ms"] = _percentile(seconds, 99) * 1e3
    return info
