"""One differential oracle for every write path.

Each example draws an engine and a short request stream and sends it
through direct ``submit`` (with and without a write-ahead log), one
server with a log holding a JSON, a CSV and an RBAT engine, a follower
``catch_up`` of the server's tail, ``recover_store`` on the server's
log, and the CLI (``convert``, ``ingest``, ``query``).  It asserts (i)
identical engine bytes and versions, (ii) identical served payloads,
(iii) the offline estimators on the same sample, and (iv) a request with
an invalid group changes nothing on any path that can send it.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from collections import Counter
from contextlib import closing, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregates import MultiInstanceDataset, distinct_count_ht, distinct_count_l
from repro.aggregates import l1_distance_ht, max_dominance_estimates
from repro.exceptions import InvalidParameterError, SketchCodecError
from repro.sampling import SeedAssigner, bottom_k_sample
from repro.sampling import poisson_pps_sample, poisson_uniform_sample
from repro.sampling.ranks import rank_family_from_name
from repro.server import BATCH_CONTENT_TYPE, encode_batches
from repro.service import IngestRequest, Query, SketchStore, to_bytes
from repro.service.cli import main as cli_main
from repro.service.queries import query_value_json
from repro.wal import WriteAheadLog, recover_store

PIN = 1e-12  # relative tolerance of served values against offline ones
NAME = "e"
INSTANCES = ("mon", "tue")
FIELDS = ("instance", "key", "value")
CONFIDENT = frozenset({"distinct", "sum"})  # kinds served with confidence=1
REFUSALS = (InvalidParameterError, SketchCodecError)


class Step(NamedTuple):
    """A request's valid groups, and maybe ``bad = (position, group)``:
    an invalid group its first send carries; the retry omits it.  Only a
    log refuses a ``frozenset`` key, and no wire format carries one."""

    groups: tuple
    bad: tuple | None = None

    def refused(self) -> tuple:
        position, group = self.bad
        return self.groups[:position] + (group,) + self.groups[position:]

    def unloggable(self) -> bool:
        return any(isinstance(key, frozenset) for key in self.bad[1][1])

    def fault(self) -> str:
        return "frozenset" if self.unloggable() else "nonnegative"


class Stream(NamedTuple):
    config: dict
    domain: str  # CSV cannot carry "mixed" (int + str) keys
    steps: tuple

    def groups(self) -> list:
        return [group for step in self.steps for group in step.groups]


def create_engine(store: SketchStore, config: dict) -> None:
    """The in-process engine constructor; no path sets the shard count."""
    store.create_from_config({"name": NAME, **config})


INT64 = st.integers(-(2**63), 2**63 - 1)
TEXT = st.text(max_size=5)
KEY_POOLS = {  # key domain -> the distinct keys one stream draws from
    "int64": st.lists(INT64, min_size=1, max_size=8, unique=True),
    "bigint": st.lists(st.integers(2**64, 2**72), min_size=1, max_size=8, unique=True),
    "unicode": st.lists(TEXT, min_size=1, max_size=8, unique=True),
    "mixed": st.builds(
        lambda ints, texts: ints + texts,
        st.lists(INT64, min_size=1, max_size=4, unique=True),
        st.lists(TEXT, min_size=1, max_size=4, unique=True),
    ),
}
TIES = st.sampled_from((0.0, -0.0, 0.1, 1 / 3, 1.0, 123456.789, 5e-324))  # 0: no-op
VALUES = TIES | st.floats(0, 1e6, allow_subnormal=True)  # full double precision
ENGINE_KINDS = {  # engine kind -> the configs one stream draws from
    ranks: [{"kind": "poisson", "threshold": tau, "ranks": ranks} for tau in (0.3, 1.0)]
    for ranks in ("uniform", "pps")
} | {
    "bottom_k": [
        {"kind": "bottom_k", "k": k, "ranks": ranks}
        for k in range(2, 7)
        for ranks in ("exp", "pps")
    ]
}
SALTS = st.integers(0, 2**16)
ONCE = (False, True)  # whether a stream sends each key at most once per instance


def draw_group(draw, instance, pool, used):
    """A group of ``instance``; with ``used``, of keys it has not seen."""
    if used is not None:
        pool = [key for key in pool if key not in used[instance]]
        if not pool:
            return None
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if used is not None:
        keys = list(dict.fromkeys(keys))
        used[instance].update(keys)
    values = draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))
    return instance, keys, values


@st.composite
def streams(draw, kinds=tuple(ENGINE_KINDS), domains=tuple(KEY_POOLS), once=ONCE):
    kind = draw(st.sampled_from(kinds))
    config = {**draw(st.sampled_from(ENGINE_KINDS[kind])), "salt": draw(SALTS)}
    domain = draw(st.sampled_from(domains))
    pool = draw(KEY_POOLS[domain])
    # each key at most once per instance: then every kind of sketch is
    # exact, and the estimators that sample a data set themselves apply
    used = {i: set() for i in INSTANCES} if draw(st.sampled_from(once)) else None
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(INSTANCES))[: draw(st.integers(1, 2))]
        groups = [draw_group(draw, instance, pool, used) for instance in order]
        if any(groups):
            steps.append(Step(tuple(group for group in groups if group)))
    if draw(st.booleans()):
        index = draw(st.integers(0, len(steps) - 1))
        instance = draw(st.sampled_from(INSTANCES))
        instance, keys, values = draw_group(draw, instance, pool, None)
        row = draw(st.integers(0, len(keys) - 1))
        if draw(st.booleans()):
            values[row] = -max(values[row], 0.5)
        else:
            keys[row] = frozenset({keys[row]})
        position = draw(st.integers(0, len(steps[index].groups)))
        steps[index] = Step(steps[index].groups, (position, (instance, keys, values)))
    return Stream(config, domain, tuple(steps))


def served_queries(stream: Stream) -> list:
    """``(kind, instances, variant)`` of every served query the engine
    admits over the instances the stream fills."""
    present = [i for i in INSTANCES if any(g[0] == i for g in stream.groups())]
    queries = [("sum", (instance,), "l") for instance in present]
    if len(present) == 2 and stream.config["ranks"] == "uniform":
        queries += [("distinct", INSTANCES, v) for v in ("l", "ht")]
        queries.append(("l1", INSTANCES, "l"))
    elif len(present) == 2 and "threshold" in stream.config:
        queries.append(("dominance", INSTANCES, "l"))
    return queries


def payload(served: dict) -> list:
    """The JSON form of a served value and its confidence payload."""
    return json.loads(json.dumps([served["value"], served.get("confidence")]))


def local_payloads(store: SketchStore, name: str, queries) -> dict:
    payloads = {}
    for kind, instances, variant in queries:
        query = Query(kind, instances, variant=variant, confidence=kind in CONFIDENT)
        result = store.query(name, query)
        value = query_value_json(result.value)
        payloads[kind, instances, variant] = payload(
            {"value": value, "confidence": result.confidence}
        )
    return payloads


def engine_state(store: SketchStore, name: str) -> tuple:
    return to_bytes(store.engine(name)), store.version(name)


def state(store: SketchStore, names) -> tuple:
    """Each engine's bytes, version and probe, and the log's record count."""
    probes = [store.engine(name).probe() for name in names]
    log = None if store.wal is None else len(store.wal.read_all()[0])
    return [engine_state(store, name) for name in names], probes, log


def run_direct(stream: Stream, wal_dir: Path | None) -> SketchStore:
    store = SketchStore()
    if wal_dir is not None:
        store.attach_wal(WriteAheadLog(wal_dir, fsync="off"))
    try:
        create_engine(store, stream.config)
        for step in stream.steps:
            if step.bad and (wal_dir or not step.unloggable()):
                before = state(store, [NAME])
                with pytest.raises(REFUSALS, match=step.fault()):
                    store.submit(IngestRequest(engine=NAME, batches=step.refused()))
                assert state(store, [NAME]) == before
            store.submit(IngestRequest(engine=NAME, batches=step.groups))
    finally:
        if store.wal is not None:
            store.wal.close()
    return store


def rows_of(groups) -> list:
    return [[i, k, v] for i, keys, values in groups for k, v in zip(keys, values)]


def csv_text(groups) -> str:
    text = io.StringIO()
    csv.writer(text).writerows(rows_of(groups))
    return text.getvalue()


async def http_send(client, fmt: str, groups, int_keys: bool) -> tuple:
    """POST ``groups`` as one ``fmt`` body to engine ``fmt``."""
    if fmt == "json":
        body = {"rows": rows_of(groups)}
        if len(groups) == 1:  # column style
            body = dict(zip(("instance", "keys", "values"), groups[0]))
        body["name"] = fmt
        return await client.request("POST", "/v1/ingest", json_body=body)
    return await client.request(
        "POST",
        "/v1/ingest",
        params={"name": fmt, **({"int_keys": "1"} if int_keys else {})},
        body=csv_text(groups).encode() if fmt == "csv" else encode_batches(groups),
        content_type="text/csv" if fmt == "csv" else BATCH_CONTENT_TYPE,
    )


def run_server(stream, formats, wal_dir, run_scenario, reference) -> tuple:
    """Serve one engine per format; returns the server's store and a
    follower caught up from its ``/replicate`` tail."""
    int_keys = stream.domain in ("int64", "bigint")

    async def scenario(server, client):
        for fmt in formats:
            await client.create_engine(fmt, **stream.config)
        version = 0
        for step in stream.steps:
            if step.bad and not step.unloggable():
                before = state(server.store, formats)
                for fmt in formats:
                    status, _ = await http_send(client, fmt, step.refused(), int_keys)
                    assert status == 400
                assert state(server.store, formats) == before
            version += len(step.groups)
            rows, batches = len(rows_of(step.groups)), len(step.groups)
            for fmt in formats:
                status, report = await http_send(client, fmt, step.groups, int_keys)
                assert status == 200 and report["version"] == version
                assert (report["rows"], report["batches"]) == (rows, batches)
        for fmt in formats:
            for kind, instances, variant in reference:
                served = await client.query(
                    fmt, kind, instances, variant, confidence=kind in CONFIDENT
                )
                assert payload(served) == reference[kind, instances, variant], fmt
        follower = SketchStore()
        cursor = await client.catch_up(follower)
        # a follower catching up again from cursor 0 skips what it has
        assert await client.catch_up(follower, 0) == cursor
        return server.store, follower

    return run_scenario(scenario, wal_dir=wal_dir, wal_fsync="off")


def cli(*args) -> tuple[int, object]:
    """The exit code, and the JSON summary or else the error output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(arg) for arg in args])
    return code, json.loads(out.getvalue()) if code == 0 else err.getvalue()


def run_cli(stream: Stream, workdir: Path, reference: dict) -> Path:
    """Write each request as CSV (string keys) or JSON lines, convert it
    to ``.rbat`` three rows per wire batch, ingest that into one store
    file, and query the file; returns the file."""
    store, rbat = workdir / "cli.bin", workdir / "in.rbat"
    flags = [arg for item in stream.config.items() for arg in (f"--{item[0]}", item[1])]
    text = workdir / ("in.csv" if stream.domain == "unicode" else "in.jsonl")
    convert = ["convert", "--input", text, "--out", rbat, "--batch-size", 3]
    if stream.domain in ("int64", "bigint"):
        convert.append("--int-keys")

    def ingest(groups) -> tuple[int, object]:
        rows = rows_of(groups)
        lines = [json.dumps(dict(zip(FIELDS, row))) + "\n" for row in rows]
        body = csv_text(groups) if text.suffix == ".csv" else "".join(lines)
        text.write_text(body, encoding="utf-8")
        code, report = cli(*convert)
        windows = [rows[start : start + 3] for start in range(0, len(rows), 3)]
        batches = sum(len({row[0] for row in window}) for window in windows)
        assert code == 0
        assert (report["rows"], report["batches"]) == (len(rows), batches)
        assert report["bytes"] == rbat.stat().st_size
        return cli("ingest", "--store", store, "--name", NAME, "--input", rbat, *flags)

    version, instances = 0, set()
    for step in stream.steps:
        if step.bad and not step.unloggable():
            before = store.exists() and store.read_bytes()
            code, error = ingest(step.refused())
            assert code == 2 and step.fault() in error
            assert (store.exists() and store.read_bytes()) == before
        code, report = ingest(step.groups)
        version += len(step.groups)
        instances.update(instance for instance, _, _ in step.groups)
        assert code == 0
        assert report["rows_ingested"] == len(rows_of(step.groups))
        assert (report["version"], report["instances"]) == (version, sorted(instances))
    for kind, labels, variant in reference:
        query = ["query", "--store", store, "--name", NAME, "--kind", kind]
        query += ["--instances", *labels, "--variant", variant]
        code, served = cli(*query, *(["--confidence"] if kind in CONFIDENT else []))
        assert code == 0, served
        assert payload(served) == reference[kind, labels, variant], "cli"
    return store


def offline_sample(config: dict, values: dict, seeds: SeedAssigner, instance):
    if config["kind"] == "bottom_k":
        family = rank_family_from_name(config["ranks"])
        return bottom_k_sample(values, config["k"], family, seeds, instance)
    if config["ranks"] == "uniform":
        return poisson_uniform_sample(values, config["threshold"], seeds, instance)
    threshold = config["threshold"]
    return poisson_pps_sample(values, threshold, seed_assigner=seeds, instance=instance)


def check_offline(stream: Stream, store: SketchStore, payloads: dict) -> None:
    """(iii): the served values against the offline estimators."""
    config, seeds, totals = stream.config, SeedAssigner(salt=stream.config["salt"]), {}
    for instance, keys, values in stream.groups():  # summed in arrival order
        column = totals.setdefault(instance, {})
        for key, value in zip(keys, values):
            column[key] = column.get(key, 0.0) + value
    dataset = MultiInstanceDataset(totals)  # keeps the positive totals
    sends = Counter((i, key) for i, keys, _ in stream.groups() for key in keys)
    # A sketch holds the offline sample of the summed data when no key's
    # fate depends on how its total arrived: always under uniform ranks,
    # and for every kind when each key arrives once per instance.  Only
    # then do l1_distance_ht and max_dominance_estimates, which sample a
    # data set themselves, apply.
    exact = config["ranks"] == "uniform" or max(sends.values()) == 1
    samples = {i: store.merged_sketch(NAME, i).to_sample() for i in totals}
    for instance in totals if exact else ():
        offline = offline_sample(config, dataset.instance(instance), seeds, instance)
        assert samples[instance].entries == offline.entries
    approx = partial(pytest.approx, rel=PIN, abs=PIN)
    p = config.get("threshold")
    for (kind, instances, variant), (value, confidence) in payloads.items():
        sample = samples[instances[0]]
        if kind == "sum":  # the plug-in variance, one key at a time
            probability = (
                sample.conditional_inclusion_probability
                if config["kind"] == "bottom_k"
                else sample.inclusion_probabilities.get
            )
            variance = 0.0
            for key, key_value in sample.entries.items():
                q = probability(key)
                variance += key_value * key_value * (1.0 - q) / (q * q)
            assert confidence["variance"] == variance
        if kind == "sum" and config["kind"] == "bottom_k":
            assert value == sample.rank_conditioning_total()
        elif kind == "sum":
            assert value == sample.horvitz_thompson_total()
        elif kind == "distinct":
            estimator = distinct_count_l if variant == "l" else distinct_count_ht
            entries = (samples[instance].entries for instance in instances)
            lookups = (partial(seeds.seed, instance=instance) for instance in instances)
            offline = estimator(*entries, p, p, *lookups)
            assert value["estimate"] == approx(offline.estimate)
            assert value["counts"] == dict(offline.counts)
            assert value["estimator"] == offline.estimator
        elif kind == "l1":
            offline = l1_distance_ht(dataset, instances, (p, p), seeds)
            assert value == approx(offline.estimate)
        elif exact:  # dominance
            offline = max_dominance_estimates(dataset, instances, (1 / p, 1 / p), seeds)
            assert value["n_sampled_keys"] == offline.n_sampled_keys
            assert (value["ht"], value["l"]) == (approx(offline.ht), approx(offline.l))


def check_stream(stream: Stream, run_scenario) -> None:
    formats = ("json", "rbat") if stream.domain == "mixed" else ("json", "csv", "rbat")
    control = SketchStore()  # sees only the accepted requests
    create_engine(control, stream.config)
    for step in stream.steps:
        control.submit(IngestRequest(engine=NAME, batches=step.groups))
    reference = local_payloads(control, NAME, served_queries(stream))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        direct = run_direct(stream, None)
        logged = run_direct(stream, workdir / "direct-wal")
        served, follower = run_server(
            stream, formats, workdir / "server-wal", run_scenario, reference
        )
        with closing(WriteAheadLog(workdir / "server-wal", fsync="off")) as wal:
            recovery = recover_store(None, wal)
        restored = SketchStore.restore(run_cli(stream, workdir, reference))

    n_records = len(formats) * (1 + len(stream.groups()))
    n_rows = len(formats) * len(rows_of(stream.groups()))
    # snapshot_engines, replayed_records, replayed_rows, skipped_records,
    # last_lsn, torn_tail
    assert recovery[1:7] == (0, n_records, n_rows, 0, n_records, None)
    assert recovery.replay_seconds > 0.0
    assert control.version(NAME) == len(stream.groups())
    paths = {"direct": (direct, NAME), "direct-logged": (logged, NAME)}
    paths["cli"] = (restored, NAME)
    for fmt in formats:
        paths[f"http-{fmt}"], paths[f"replica-{fmt}"] = (served, fmt), (follower, fmt)
        paths[f"recovered-{fmt}"] = (recovery.store, fmt)
    for path, (store, name) in paths.items():  # (i) and (ii) on every path
        assert engine_state(store, name) == engine_state(control, NAME), path
        assert local_payloads(store, name, reference) == reference, path
    check_offline(stream, control, reference)  # (iii)


# the function-scoped ``run_scenario`` fixture only returns a runner,
# which keeps no state between the examples that share it
ORACLE = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# tier-1 runs each engine kind x key domain x key reuse, 6 examples each
@pytest.mark.parametrize("once", ONCE, ids=("repeats", "once"))
@pytest.mark.parametrize("domain", sorted(KEY_POOLS))
@pytest.mark.parametrize("kind", list(ENGINE_KINDS))
@settings(ORACLE, max_examples=6)
@given(data=st.data())
def test_write_paths_agree(kind, domain, once, data, run_scenario):
    stream = streams((kind,), (domain,), (once,))
    check_stream(data.draw(stream, label="stream"), run_scenario)


@pytest.mark.slow
@settings(ORACLE, max_examples=1000)
@given(stream=streams())
def test_write_paths_agree_sweep(stream, run_scenario):
    check_stream(stream, run_scenario)


UNIFORM = {"kind": "poisson", "threshold": 0.3, "ranks": "uniform", "salt": 0}
ALL = {**UNIFORM, "threshold": 1.0}  # samples every key
BIG = 2**64
CASES = {
    # a zero update is a no-op: the offline reference keeps the data
    # set's positive totals, as the sketch does
    "conformance_001_zero_update_is_a_no_op": Stream(
        ALL, "bigint", (Step((("mon", [BIG], [0.0]),)),)
    ),
    # -0.0 is not negative: every path accepts it as a zero update
    "conformance_002_negative_zero_is_accepted": Stream(
        UNIFORM, "int64", (Step((("mon", [0], [-0.0]),)), Step((("mon", [0], [0.5]),)))
    ),
    # the shrunk catch of an RBAT decoder that reverses each batch's rows
    "conformance_003_repeated_key_in_one_rbat_batch": Stream(
        {**UNIFORM, "ranks": "pps"}, "bigint", (Step((("tue", [BIG] * 2, [0.5, 1]),)),)
    ),
    # ... of a replay that skips the last batch record of a log
    "conformance_004_one_record_log_replays_whole": Stream(
        UNIFORM, "bigint", (Step((("mon", [BIG], [0.5]),)),)
    ),
    # ... of a catch-up that applies only the first record of a tail
    "conformance_005_whole_tail_reaches_the_replica": Stream(
        UNIFORM, "int64", (Step((("mon", [0], [0.0]),)),)
    ),
    # a refused first request writes no CLI store file
    "conformance_006_refused_first_request_writes_no_store": Stream(
        UNIFORM, "unicode", (Step((("mon", ["a"], [1.0]),), (1, ("tue", [""], [-1]))),)
    ),
    # the RBAT decoder fault's shrunk catch on the CLI path
    "conformance_007_rbat_batch_of_two_instances": Stream(
        {**UNIFORM, "salt": 1},
        "mixed",
        (
            Step((("mon", [0], [0.0]),)),
            Step((("tue", [-1, 0, ">"], [0.5, 0.0, 0.5]), ("mon", [0], [0.0]))),
        ),
    ),
    # the shrunk catches of a CSV parser or RBAT decoder that rounds
    # values to float32, which also flushes a subnormal to zero
    "conformance_008_values_keep_double_precision": Stream(
        ALL, "bigint", (Step((("mon", [BIG, BIG + 1], [0.1, 5e-324]),)),)
    ),
}


@pytest.mark.parametrize("stream", list(CASES.values()), ids=list(CASES))
def test_numbered_case(stream, run_scenario):
    check_stream(stream, run_scenario)
