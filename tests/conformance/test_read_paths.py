"""One differential oracle for every read path.

Each example draws a store of three engines side by side (a uniform
and a PPS Poisson engine and a bottom-k engine), 2-4 int or str
instance labels, a first request filling every label, and a sequence
of operations: an ingest into one instance, a crash recovered by
``recover_store`` from the last snapshot and the write-ahead log, a
``merge_store`` of a peer, a snapshot and restore, an ``adopt`` of a
codec copy, and the promotion of a ``catch_up`` replica.  After each
operation it asks every query each engine serves (``sum``,
``distinct`` L and HT, ``l1``, ``dominance``, with and without
confidence) through every read: the answer cached at an earlier state,
``planner.run`` with ``wait=False`` on the free engine, ``peek`` after
it, the lane's ``planner.run(wait=True)`` on a cold planner, HTTP
``/v1/query``, the replica, and after the last operation CLI ``query``
on a snapshot.  It asserts (i) all reads of a query at one state are
equal bit for bit, (ii) each equals the offline estimator of
:mod:`repro.aggregates` on the ``to_sample()`` of a codec copy, to
1e-12 with counts exact, (iii) no read issued after an ingest ack
answers from an older state, and (iv) a refused query (a kind the
engine does not serve, an unknown instance, refused confidence)
changes no engine and no cached result.
"""

from __future__ import annotations

import json
import math
import tempfile
from functools import partial
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import MultiInstanceDataset, distinct_count_ht, distinct_count_l
from repro.aggregates import l1_distance_ht, max_dominance_estimates
from repro.aggregates.distinct import distinct_ht_variance, distinct_l_variance
from repro.analysis.confidence import normal_interval
from repro.exceptions import ConfidenceUnavailableError, InvalidParameterError
from repro.sampling import SeedAssigner
from repro.service import IngestRequest, Query, QueryPlanner, SketchStore
from repro.service import from_bytes, to_bytes
from repro.service.queries import query_value_json
from repro.streaming.query import distinct_count, l1_distance, max_dominance
from repro.wal import WriteAheadLog, recover_store

from test_write_paths import ENGINE_KINDS, KEY_POOLS, ORACLE, PIN, SALTS, cli
from test_write_paths import draw_group

ENGINES = {"uni": "uniform", "pps": "pps", "bk": "bottom_k"}  # name -> kind
LABELS = {"str": ("mon", "tue", "wed", "thu"), "int": (0, 1, 7, 2**40)}
ABSENT = {str: "zzz", int: 999}  # a label no example ingests
#: engine name -> the pair kinds it refuses, and the refusal's text
WRONG_KINDS = {
    "uni": (("dominance",), "requires PPS"),
    "pps": (("distinct", "l1"), "requires weight-oblivious"),
    "bk": (("distinct", "l1", "dominance"), "take Poisson sketches"),
}
PAIR_KINDS = {"uni": ("distinct", "l1"), "pps": ("dominance",), "bk": ()}
ADAPTERS = {"distinct": distinct_count, "l1": l1_distance, "dominance": max_dominance}
OPS = ("ingest",) * 3 + ("replay", "merge", "restore", "adopt", "replica")


def predicate(key) -> bool:
    """The in-process reads' predicate: any key type, about half the keys."""
    return len(str(key)) % 2 == 1


class Example(NamedTuple):
    configs: dict  # engine name -> config
    labels: tuple
    fill: tuple  # the first request: a group (instance, keys, values) per label
    # ("ingest", group), ("replay",), ("merge", groups), ("restore",),
    # ("adopt", engine name, version delta, groups) or ("replica",)
    ops: tuple
    pairs_first: bool = False  # ask the pair queries before the sums


@st.composite
def examples(draw, domains=tuple(KEY_POOLS), max_ops=3):
    salt = draw(SALTS)
    configs = {
        name: {**draw(st.sampled_from(ENGINE_KINDS[kind])), "salt": salt}
        for name, kind in ENGINES.items()
    }
    labels = draw(st.permutations(LABELS[draw(st.sampled_from(sorted(LABELS)))]))
    labels = tuple(labels[: draw(st.integers(2, 4))])
    pool = draw(KEY_POOLS[draw(st.sampled_from(domains))])

    def groups(least=1, most=2):
        lists = st.lists(st.sampled_from(labels), min_size=least, max_size=most)
        return tuple(draw_group(draw, instance, pool, None) for instance in draw(lists))

    fill = tuple(draw_group(draw, label, pool, None) for label in labels)
    ops = []
    for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=max_ops)):
        if op == "ingest":
            ops.append((op, *groups(1, 1)))
        elif op == "merge":
            ops.append((op, groups()))
        elif op == "adopt":
            name = draw(st.sampled_from(sorted(ENGINES)))
            ops.append((op, name, draw(st.integers(-2, 2)), groups(0)))
        else:
            ops.append((op,))
    return Example(configs, labels, fill, tuple(ops), draw(st.booleans()))


def submit(store: SketchStore, name: str, groups) -> int:
    return store.submit(IngestRequest(engine=name, batches=tuple(groups)))


def served_queries(name: str, labels: list) -> list[Query]:
    """Every query engine ``name`` serves over ``labels``."""
    queries = [Query("sum", (a,), confidence=c) for a in labels for c in (False, True)]
    for pair, kind in product(combinations(labels, 2), PAIR_KINDS[name]):
        if kind == "distinct":
            for variant, confident in product(("l", "ht"), (False, True)):
                queries.append(Query(kind, pair, variant, confident))
        else:
            queries.append(Query(kind, pair))
    return queries


def refused_queries(name: str, labels: list) -> list[tuple]:
    """``(query, error, match)`` of refused queries over ``labels``: an
    unknown instance, a kind the engine does not serve, refused
    confidence."""
    if len(labels) < 2:  # a group that routed no row adds no instance
        return []
    absent, pair = ABSENT[type(labels[0])], tuple(labels[:2])
    unknown = [Query("sum", (absent,)), Query("l1", (labels[0], absent))]
    refused = [(query, InvalidParameterError, "unknown instance") for query in unknown]
    kinds, match = WRONG_KINDS[name]
    refused += [(Query(kind, pair), InvalidParameterError, match) for kind in kinds]
    if name != "bk":  # l1 and dominance have no variance estimator
        query = Query(PAIR_KINDS[name][-1], pair, confidence=True)
        refused.append((query, ConfidenceUnavailableError, query.kind))
    return refused


def confidence_payload(estimate: float, variance: float, **extra) -> dict:
    interval = normal_interval(estimate, variance, 0.90)
    ci90 = {"lower": interval.lower, "upper": interval.upper}
    ci90.update(confidence=interval.confidence, method=interval.method)
    cv = math.sqrt(variance) / estimate if estimate > 0.0 else None
    return {"cv": cv, "variance": variance, "ci90": ci90, **extra}


class Offline(NamedTuple):
    """The offline estimators over the samples of a codec copy."""

    config: dict
    samples: dict
    seeds: SeedAssigner

    @classmethod
    def of(cls, store: SketchStore, name: str, config: dict) -> Offline:
        copy = from_bytes(to_bytes(store.engine(name)))
        labels = copy.instance_labels
        samples = {label: copy.sketch(label).to_sample() for label in labels}
        return cls(config, samples, SeedAssigner(salt=config["salt"]))

    def value(self, kind: str, pair: tuple, variant: str = "l", where=None):
        p = self.config["threshold"]
        entries = {label: self.samples[label].entries for label in pair}
        if kind == "distinct":
            estimator = distinct_count_l if variant == "l" else distinct_count_ht
            lookups = [partial(self.seeds.seed, instance=label) for label in pair]
            return estimator(*entries.values(), p, p, *lookups, predicate=where)
        data = MultiInstanceDataset(entries)
        if kind == "l1":
            return l1_distance_ht(data, pair, (p, p), self.seeds, where).estimate
        return max_dominance_estimates(data, pair, (1 / p, 1 / p), self.seeds, where)

    def payload(self, query: Query) -> list:
        """``[value, confidence]`` as the served JSON carries them."""
        if query.kind == "sum":
            return self.sum(self.samples[query.instances[0]], query.confidence)
        value = self.value(query.kind, query.instances, query.variant)
        if not query.confidence:
            return [query_value_json(value), None]
        p, estimate = self.config["threshold"], value.estimate  # distinct
        if value.estimator == "HT":
            variance = distinct_ht_variance(estimate, p, p)
        elif estimate > 0.0:  # the plug-in Jaccard F11 / (p1 p2) / D
            jaccard = min(1.0, max(0.0, value.counts["F11"] / (p * p) / estimate))
            variance = distinct_l_variance(estimate, jaccard, p, p)
        else:
            variance = 0.0
        return [query_value_json(value), confidence_payload(estimate, variance)]

    def sum(self, sample, confident: bool) -> list:
        k = self.config.get("k")
        if k is not None:
            value = sample.rank_conditioning_total()
            probability = sample.conditional_inclusion_probability
        else:
            value = sample.horvitz_thompson_total()
            probability = sample.inclusion_probabilities.get
        if not confident:
            return [value, None]
        variance = 0.0  # the plug-in variance, one key at a time
        for key, key_value in sample.entries.items():
            q = probability(key)
            variance += key_value * key_value * (1.0 - q) / (q * q)
        extra = {"cv_bound": 1.0 / math.sqrt(k - 2)} if k is not None and k > 2 else {}
        return [value, confidence_payload(value, variance, **extra)]


def assert_close(served, expected, where) -> None:
    """(ii): floats to ``PIN`` relative, everything else exactly."""
    if isinstance(expected, dict):
        assert isinstance(served, dict) and set(served) == set(expected), where
        for key, reference in expected.items():
            assert_close(served[key], reference, where)
    elif isinstance(expected, list):
        assert isinstance(served, list) and len(served) == len(expected), where
        for item, reference in zip(served, expected):
            assert_close(item, reference, where)
    elif isinstance(expected, float):
        assert served == pytest.approx(expected, rel=PIN, abs=PIN), where
    else:
        assert served == expected, where


def read(store: SketchStore, name: str, query: Query, version: int, value, confidence):
    """A read's payload as JSON text, equal texts being equal bit for bit,
    and whether the version it reports names the state it read (iii): no
    earlier than the last change of an instance it read, no later than
    now."""
    latest, (_, ticks) = store.state_hint(name, query.instances)
    text = json.dumps([value, confidence], sort_keys=True)
    return text, max(ticks) <= version <= latest


def served(result) -> tuple:
    """``read``'s ``version, value, confidence`` of a ``QueryResult``."""
    return result.version, query_value_json(result.value), result.confidence


def http_params(name: str, query: Query) -> dict:
    params = {"name": name, "kind": query.kind, "variant": query.variant}
    params["instances"] = ",".join(str(label) for label in query.instances)
    if isinstance(query.instances[0], int):
        params["int_instances"] = "1"
    if query.confidence:
        params["confidence"] = "1"
    return params


def cli_query(snapshot: Path, name: str, query: Query) -> tuple[int, object]:
    args = ["query", "--store", snapshot, "--name", name, "--kind", query.kind]
    args += ["--instances", *query.instances, "--variant", query.variant]
    if isinstance(query.instances[0], int):
        args.append("--int-instances")
    return cli(*args, *(["--confidence"] if query.confidence else []))


def frozen(store: SketchStore) -> tuple:
    """What a refused query must leave as it was: every engine's bytes
    and state key, the view memo, and the cache with its counters."""
    planner, engines = store.planner(), []
    for name in ENGINES:
        entry = store._entry(name)
        epoch, memo = entry.state.epoch, entry.columns
        views = {label: (tick, id(view)) for label, (tick, view) in memo.items()}
        hint = store.state_hint(name, store.engine(name).instance_labels)
        engines.append((to_bytes(store.engine(name)), hint, epoch, views))
    return engines, list(planner._cache.items()), planner.hits, planner.misses


class Reads:
    """The live store of one example, its log, its last snapshot and its
    replica, and the reads of every query after each operation."""

    def __init__(self, example: Example, workdir: Path, run_scenario) -> None:
        self.example, self.workdir, self.run_scenario = example, workdir, run_scenario
        self.wal = WriteAheadLog(workdir / "wal", fsync="off")
        self.checkpoint = workdir / "store.bin"  # the last snapshot
        self.store = self.attached(SketchStore())
        for name, config in example.configs.items():
            self.store.create_from_config({"name": name, **config})
            submit(self.store, name, example.fill)
        self.follower, self.cursor = SketchStore(), 0

    def attached(self, store: SketchStore) -> SketchStore:
        store.attach_wal(self.wal)
        return store

    def apply(self, op: tuple) -> None:
        kind, store = op[0], self.store
        if kind == "ingest":
            for name in ENGINES:
                submit(store, name, op[1:])
        elif kind == "replay":  # a crash: the last snapshot, then the log
            self.store = self.attached(recover_store(self.checkpoint, self.wal).store)
        elif kind == "merge":
            peer = SketchStore()
            for name, config in self.example.configs.items():
                peer.create_from_config({"name": name, **config})
                submit(peer, name, op[1])
            store.merge_store(peer)
        elif kind == "restore":
            snapshot = store.snapshot(self.checkpoint)
            self.store = self.attached(SketchStore.restore(snapshot))
        elif kind == "adopt":
            _, name, delta, groups = op
            copy = from_bytes(to_bytes(store.engine(name)))
            for group in groups:
                copy.ingest(*group)
            store.adopt(name, copy, version=max(0, store.version(name) + delta))
        else:  # promote the replica; a new one starts from nothing
            self.store = self.attached(self.follower)
            self.follower, self.cursor = SketchStore(), 0

    def check(self, ingested: object = None, with_cli: bool = False) -> None:
        """Every read of every query, and every refusal, at the current
        state; ``ingested`` is the instance an ingest just wrote into
        this same store.  The CLI, which restores the whole store for
        each query, reads only ``with_cli``."""
        store, planner = self.store, self.store.planner()
        present = {}
        for name in ENGINES:
            labels = store.engine(name).instance_labels
            present[name] = [label for label in self.example.labels if label in labels]
        queries = [
            (name, q) for name in ENGINES for q in served_queries(name, present[name])
        ]
        if self.example.pairs_first:
            queries.sort(key=lambda item: item[1].kind == "sum")
        reads = {key: {} for key in queries}
        for name, query in queries:
            cached = planner.peek(name, query)  # an answer of an earlier state
            if ingested is not None and ingested not in query.instances:
                assert cached is not None, (name, query)  # the write kept it
            run = planner.run(name, query, wait=False)
            peek = planner.peek(name, query)
            lane = QueryPlanner(store).run(name, query, wait=True)
            assert peek.from_cache and not lane.from_cache
            results = {"cached": cached, "run": run, "peek": peek, "lane": lane}
            for path, result in results.items():
                if result is not None:
                    reads[name, query][path] = read(store, name, query, *served(result))
        self.serve(queries, present, reads)
        for name, query in queries:
            answer = served(self.follower.planner().run(name, query))
            reads[name, query]["replica"] = read(self.follower, name, query, *answer)
        if with_cli:
            snapshot = self.workdir / "cli.bin"
            store.snapshot_marked(snapshot, checkpoint_wal=False)
            for name, query in queries:
                code, answer = cli_query(snapshot, name, query)
                assert code == 0, answer
                answer = answer["version"], answer["value"], answer.get("confidence")
                reads[name, query]["cli"] = read(store, name, query, *answer)
        configs = self.example.configs
        offline = {name: Offline.of(store, name, configs[name]) for name in ENGINES}
        for (name, query), by_path in reads.items():
            texts = {text for text, _ in by_path.values()}
            assert len(texts) == 1, (name, query, by_path)  # (i)
            assert all(fresh for _, fresh in by_path.values()), (name, query, by_path)
            expected = offline[name].payload(query)
            assert_close(json.loads(texts.pop()), expected, (name, query))  # (ii)
        self.check_predicates(offline, present)

    def serve(self, queries: list, present: dict, reads: dict) -> None:
        """The replica's catch-up, the HTTP reads, and every refusal, in
        process and over HTTP."""
        refused = [
            (name, *refusal)
            for name in ENGINES
            for refusal in refused_queries(name, present[name])
        ]

        async def scenario(server, client):
            self.cursor = await client.catch_up(self.follower, self.cursor)
            for name, query in queries:
                params = http_params(name, query)
                status, body = await client.request("GET", "/v1/query", params=params)
                assert status == 200, body
                answer = body["version"], body["value"], body.get("confidence")
                reads[name, query]["http"] = read(self.store, name, query, *answer)
            before = frozen(self.store)
            for name, query, error, match in refused:  # (iv)
                for wait in (False, True):
                    with pytest.raises(error, match=match):
                        self.store.planner().run(name, query, wait=wait)
                params = http_params(name, query)
                status, body = await client.request("GET", "/v1/query", params=params)
                assert status == 400 and match in body["error"], (name, query, body)
            assert frozen(self.store) == before

        self.run_scenario(scenario, store=self.store)

    def check_predicates(self, offline: dict, present: dict) -> None:
        """The in-process pair estimators with a predicate, on the
        store's memoised views, against the offline ones."""
        for name, kinds in PAIR_KINDS.items():
            for pair, kind in product(combinations(present[name], 2), kinds):
                _, views = self.store.column_view(name, pair)
                value = ADAPTERS[kind](*views, predicate=predicate)
                reference = offline[name].value(kind, pair, "l", predicate)
                if kind == "distinct":  # the counts in the offline order
                    assert list(value.counts) == list(reference.counts)
                expected = query_value_json(reference)
                assert_close(query_value_json(value), expected, (name, pair, kind))


def check_example(example: Example, run_scenario) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        reads = Reads(example, Path(workdir), run_scenario)
        try:
            reads.check()
            for number, op in enumerate(example.ops, start=1):
                store = reads.store
                reads.apply(op)
                same = reads.store is store
                ingested = op[1][0] if op[0] == "ingest" and same else None
                reads.check(ingested, with_cli=number == len(example.ops))
        finally:
            reads.wal.close()


# tier-1 runs every key domain; each example holds every engine kind
@pytest.mark.parametrize("domain", sorted(KEY_POOLS))
@settings(ORACLE, max_examples=10)
@given(data=st.data())
def test_read_paths_agree(domain, data, run_scenario):
    check_example(data.draw(examples((domain,)), label="example"), run_scenario)


@pytest.mark.slow
@settings(ORACLE, max_examples=1000)
@given(example=examples())
def test_read_paths_agree_sweep(example, run_scenario):
    check_example(example, run_scenario)


CONFIGS = {
    "uni": {"kind": "poisson", "threshold": 1.0, "ranks": "uniform", "salt": 0},
    "pps": {"kind": "poisson", "threshold": 0.3, "ranks": "pps", "salt": 0},
    "bk": {"kind": "bottom_k", "k": 2, "ranks": "exp", "salt": 0},
}
FILL = (("mon", [1], [1.0]), ("tue", [1, 2], [2.0, 0.5]))
CASES = {
    # the shrunk catch of a view memo that a write into the second
    # instance of a pair does not invalidate
    "readpath_001_a_write_moves_the_second_instance_of_a_pair": Example(
        CONFIGS, ("mon", "tue"), FILL, (("ingest", ("tue", [3], [1.0])),), True
    ),
    # ... of a cache key that ignores the distinct-count variant
    "readpath_002_the_variant_keys_the_cache": Example(
        CONFIGS, ("mon", "tue"), FILL, (("replay",),)
    ),
    # ... of a join that drops a matched row
    "readpath_003_every_matched_row_joins": Example(
        CONFIGS,
        (0, 1),
        ((0, [7], [1.0]), (1, [7], [2.0])),
        (("merge", ((1, [8], [1.0]),)),),
    ),
    # ... of confidence computed from a view of an earlier state
    "readpath_004_confidence_reads_the_current_view": Example(
        CONFIGS, ("mon", "tue"), FILL, (("ingest", ("mon", [4, 5], [3.0, 4.0])),)
    ),
    # recovery and catch-up skipped the engine record of an adoption that
    # kept the version, so a recovered store or a replica kept the engine
    # it replaced
    "readpath_005_an_adoption_that_keeps_the_version_replays": Example(
        CONFIGS,
        ("mon", "tue"),
        FILL,
        (("adopt", "uni", 0, (("mon", [6], [1.0]),)), ("replica",)),
    ),
}


@pytest.mark.parametrize("example", list(CASES.values()), ids=list(CASES))
def test_numbered_case(example, run_scenario):
    check_example(example, run_scenario)
