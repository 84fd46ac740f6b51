"""Unit tests for the sharded streaming engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.poisson import poisson_uniform_sample
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner, key_hashes
from repro.service import codec
from repro.streaming.engine import StreamEngine
from repro.streaming.sketch import (
    _CHUNK_SIZE,
    StreamingBottomK,
    StreamingPoisson,
)


def make_columns(n: int = 500, seed: int = 0):
    generator = np.random.default_rng(seed)
    keys = generator.choice(10**7, size=n, replace=False)
    values = generator.random(n) * 10.0 + 0.05
    return keys, values


class TestStreamEngineBottomK:
    def test_sharded_ingest_matches_offline(self):
        keys, values = make_columns()
        assigner = SeedAssigner(salt=13)
        for n_shards in (1, 4, 7):
            engine = StreamEngine.bottom_k(
                k=25, seed_assigner=assigner, n_shards=n_shards
            )
            for start in range(0, len(keys), 64):
                engine.ingest("d", keys[start:start + 64],
                              values[start:start + 64])
            offline = bottom_k_sample(
                {int(k): float(v) for k, v in zip(keys, values)},
                25, seed_assigner=assigner, instance="d",
            )
            sample = engine.sample("d")
            assert sample.entries == offline.entries
            assert sample.ranks == offline.ranks
            assert sample.threshold == offline.threshold

    def test_multiple_instances_are_independent_sketches(self):
        keys, values = make_columns(100)
        engine = StreamEngine.bottom_k(k=10, seed_assigner=SeedAssigner())
        engine.ingest("a", keys, values)
        engine.ingest("b", keys[:50], values[:50])
        assert set(engine.instance_labels) == {"a", "b"}
        assert engine.sample("a").instance == "a"
        assert len(engine.shard_sketches("a")) == 8
        assert engine.n_updates == 150

    def test_sketches_returns_all_instances(self):
        keys, values = make_columns(60)
        engine = StreamEngine.bottom_k(k=5, seed_assigner=SeedAssigner())
        engine.ingest(0, keys, values)
        engine.ingest(1, keys, values)
        sketches = engine.sketches()
        assert set(sketches) == {0, 1}
        assert all(isinstance(s, StreamingBottomK) for s in sketches.values())


class TestStreamEnginePoisson:
    def test_poisson_engine_matches_offline(self):
        keys, values = make_columns()
        assigner = SeedAssigner(salt=21)
        engine = StreamEngine.poisson(
            0.3, seed_assigner=assigner, n_shards=5
        )
        engine.ingest("d", keys, values)
        offline = poisson_uniform_sample(
            {int(k): float(v) for k, v in zip(keys, values)},
            0.3, seed_assigner=assigner, instance="d",
        )
        assert dict(engine.sample("d").entries) == dict(offline.entries)

    def test_pps_factory(self):
        engine = StreamEngine.poisson(0.1, rank_family=PpsRanks())
        engine.ingest(0, [1, 2, 3], [1.0, 2.0, 3.0])
        assert isinstance(engine.sketch(0), StreamingPoisson)
        assert engine.sketch(0).rank_family.name == "pps"


class TestStreamEngineIngestion:
    def test_ingest_updates_groups_by_instance(self):
        assigner = SeedAssigner(salt=2)
        keys, values = make_columns(90)
        instances = ["even" if i % 2 == 0 else "odd" for i in range(90)]
        engine = StreamEngine.bottom_k(k=8, seed_assigner=assigner)
        engine.ingest_updates(instances, keys, values)
        direct = StreamEngine.bottom_k(k=8, seed_assigner=assigner)
        direct.ingest("even", keys[::2], values[::2])
        direct.ingest("odd", keys[1::2], values[1::2])
        for label in ("even", "odd"):
            assert engine.sample(label).entries == direct.sample(label).entries

    def test_ingest_stream_batches(self):
        assigner = SeedAssigner(salt=3)
        keys, values = make_columns(120)
        stream = [("d", int(k), float(v)) for k, v in zip(keys, values)]
        engine = StreamEngine.bottom_k(k=9, seed_assigner=assigner)
        engine.ingest_stream(iter(stream), batch_size=17)
        direct = StreamEngine.bottom_k(k=9, seed_assigner=assigner)
        direct.ingest("d", keys, values)
        assert engine.sample("d").entries == direct.sample("d").entries
        assert engine.n_updates == 120

    def test_invalid_arguments(self):
        engine = StreamEngine.bottom_k(k=4)
        with pytest.raises(InvalidParameterError):
            engine.ingest(0, [1, 2], [1.0])
        with pytest.raises(InvalidParameterError):
            engine.ingest_updates([0], [1, 2], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            engine.ingest_stream(iter([]), batch_size=0)
        with pytest.raises(InvalidParameterError):
            engine.sketch("never-seen")
        with pytest.raises(InvalidParameterError):
            StreamEngine.bottom_k(k=4, n_shards=0)


class TestStreamEngineConfiguration:
    def test_sketch_config_builds_an_empty_copy(self):
        engine = StreamEngine(
            "poisson", threshold=2.0, rank_family=PpsRanks(),
            seed_assigner=SeedAssigner(salt=4), n_shards=3,
        )
        engine.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
        copy = StreamEngine(**engine.sketch_config, n_shards=engine.n_shards)
        assert copy.instance_labels == []
        copy.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
        assert copy == engine

    def test_kind_defaults_the_rank_family(self):
        assert StreamEngine("bottom_k", k=3).sketch_config["rank_family"].name == "exp"
        assert (
            StreamEngine("poisson", threshold=0.5).sketch_config["rank_family"].name
            == "uniform"
        )

    @pytest.mark.parametrize(
        "kind, kwargs, message",
        [
            ("bottom_k", {"k": 0}, "k must be positive"),
            ("poisson", {"threshold": 1.5}, "at most 1"),
        ],
    )
    def test_sketch_rules_are_checked_before_any_ingest(self, kind, kwargs, message):
        with pytest.raises(InvalidParameterError, match=message):
            StreamEngine(kind, **kwargs)


def test_probe_survives_an_instance_created_while_it_sums(monkeypatch):
    """``probe()`` runs without the engine lock, so an ingest may add an
    instance between two of its per-sketch reads."""
    engine = StreamEngine.poisson(0.5, n_shards=2)
    engine.ingest("mon", [1, 2, 3], [1.0, 2.0, 3.0])
    length = StreamingPoisson.__len__
    calls = []

    def ingest_on_first_call(sketch):
        if not calls:
            calls.append(sketch)
            engine.ingest("tue", [4, 5], [1.0, 2.0])
        return length(sketch)

    monkeypatch.setattr(StreamingPoisson, "__len__", ingest_on_first_call)
    probe = engine.probe()
    assert calls
    assert probe["retained_keys"] == len(engine.sketch("mon"))
    assert engine.instance_labels == ["mon", "tue"]


# ---------------------------------------------------------------------------
# Differential property: engine ingest == scalar updates of its shards
# ---------------------------------------------------------------------------

FAMILIES = {
    "uniform": (UniformRanks, 0.6),
    "pps": (PpsRanks, 0.8),
    "exp": (ExpRanks, 0.8),
}
#: key columns: an int64 array, an int list (``0`` / ``2**64`` share a
#: hash), a str list, and keys equal across types (``1`` / ``1.0`` /
#: ``True`` hash apart, so they may land in different shards)
KEY_COLUMNS = {
    "int64": (
        list(range(-3, 12)) + [2**62],
        lambda keys: np.array(keys, dtype=np.int64),
    ),
    "int": (list(range(12)) + [2**64, 2**64 + 3], list),
    "str": ([f"k{i}" for i in range(12)], list),
    "mixed": ([1, 1.0, True, 0, 2, 2.0, "x"], list),
}


def _engine(kind, family, k, n_shards, coordinated):
    rank_family, threshold = FAMILIES[family]
    return StreamEngine(
        kind,
        k=k if kind == "bottom_k" else None,
        threshold=threshold if kind == "poisson" else None,
        rank_family=rank_family(),
        seed_assigner=SeedAssigner(salt=5, coordinated=coordinated),
        n_shards=n_shards,
    )


def _scalar_reference(engine, batches):
    """An empty copy of ``engine`` whose shard sketches got every row of
    ``batches`` through scalar ``update`` calls, routed by key hash."""
    reference = StreamEngine(
        **engine.sketch_config, n_shards=engine.n_shards
    )
    for instance, keys, values in batches:
        shards = reference._instance_shards(instance)
        reference.n_updates += len(values)
        routes = (key_hashes(keys) % np.uint64(engine.n_shards)).tolist()
        for key, value, shard in zip(keys, values, routes):
            shards[shard].update(key, value)
    return reference


def _assert_engine_parity(kind, family, k, n_shards, coordinated, batches):
    engine = _engine(kind, family, k, n_shards, coordinated)
    for instance, keys, values in batches:
        engine.ingest(instance, keys, values)
    # an empty batch still creates its instance
    assert set(engine.instance_labels) == {batch[0] for batch in batches}
    reference = _scalar_reference(engine, batches)
    assert codec.to_bytes(engine) == codec.to_bytes(reference)


@st.composite
def engine_batches(draw):
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        pool, column = KEY_COLUMNS[
            draw(st.sampled_from(sorted(KEY_COLUMNS)))
        ]
        rows = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.sampled_from([0.0, 0.25, 1.0, 2.5, 4.0]),
                ),
                max_size=30,
            )
        )
        batches.append(
            (
                # ``3`` / ``3.0`` are one instance with two label hashes
                draw(st.sampled_from(["mon", "tue", 3, 3.0, True])),
                column([key for key, _ in rows]),
                [value for _, value in rows],
            )
        )
    return batches


ENGINE_CASES = {
    "kind": st.sampled_from(["bottom_k", "poisson"]),
    "family": st.sampled_from(sorted(FAMILIES)),
    "k": st.integers(1, 6),
    "n_shards": st.sampled_from([1, 3, 8]),
    "coordinated": st.booleans(),
    "batches": engine_batches(),
}


@settings(max_examples=150, deadline=None)
@given(**ENGINE_CASES)
# ``1`` and ``1.0`` are one key with two hashes: no fold may see them
@example("bottom_k", "exp", 1, 1, False, [("mon", [1, 1.0], [0.25, 0.25])])
@example("poisson", "uniform", 1, 1, True, [("mon", [1, 1.0], [0.25, 0.25])])
# a later ``3.0`` batch lands in instance ``3`` and must be seeded as ``3``
@example("poisson", "pps", 1, 3, False, [(3, [1], [1.0]), (3.0, [2, 5], [1.0, 2.5])])
def test_engine_ingest_matches_scalar_shard_updates(
    kind, family, k, n_shards, coordinated, batches
):
    _assert_engine_parity(kind, family, k, n_shards, coordinated, batches)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(**ENGINE_CASES)
def test_engine_ingest_matches_scalar_shard_updates_long_sweep(
    kind, family, k, n_shards, coordinated, batches
):
    _assert_engine_parity(kind, family, k, n_shards, coordinated, batches)


def test_one_shard_batch_longer_than_a_chunk():
    # distinct keys: the bottom-k fold runs on each of three chunks
    rng = np.random.default_rng(17)
    n_rows = 40_000
    assert n_rows > 2 * _CHUNK_SIZE
    keys = rng.permutation(10**6)[:n_rows]
    values = np.round(rng.random(n_rows) * 4, 2)
    _assert_engine_parity(
        "bottom_k", "exp", 16, 1, False, [("mon", keys, values.tolist())]
    )


def _planned_and_reference(threshold, batches, n_shards=3):
    """A uniform Poisson engine fed ``batches`` through ``ingest_jobs`` and
    ``run_job``, and its per-row ``update`` reference; both must match."""
    engine = StreamEngine(
        "poisson",
        threshold=threshold,
        rank_family=UniformRanks(),
        seed_assigner=SeedAssigner(salt=5),
        n_shards=n_shards,
    )
    for instance, keys, values in batches:
        for job in engine.ingest_jobs(instance, keys, values):
            engine.run_job(job)
    reference = _scalar_reference(engine, batches)
    assert engine == reference
    assert codec.to_bytes(engine) == codec.to_bytes(reference)
    return engine


def _retained(engine, instance):
    shards = engine._instance_shards(instance)
    return {key for shard in shards for key in shard.entries}


class TestObliviousPlan:
    """The boundaries of the weight-oblivious plan's pass test."""

    KEYS = np.arange(-20, 60, dtype=np.int64)

    def test_plan_001_a_seed_equal_to_the_threshold_is_retained(self):
        seed = SeedAssigner(salt=5).seed(17, instance="mon")
        values = np.ones(len(self.KEYS))
        engine = _planned_and_reference(seed, [("mon", self.KEYS, values)])
        assert 17 in _retained(engine, "mon")
        below = float(np.nextafter(seed, 0.0))
        engine = _planned_and_reference(below, [("mon", self.KEYS, values)])
        assert 17 not in _retained(engine, "mon")

    def test_plan_002_zero_rows_are_updates_not_discards(self):
        values = np.where(self.KEYS % 3 == 0, 0.0, 1.5)
        engine = _planned_and_reference(0.3, [("mon", self.KEYS, values)] * 2)
        shards = engine._instance_shards("mon")
        retained = _retained(engine, "mon")
        positive = set(self.KEYS[values > 0.0].tolist())
        assert retained < positive
        assert sum(shard.n_updates for shard in shards) == 2 * len(self.KEYS)
        assert sum(shard.n_discarded_keys for shard in shards) == 2 * len(
            positive - retained
        )

    def test_plan_003_threshold_one_retains_every_positive_row(self):
        values = np.where(self.KEYS % 4 == 0, 0.0, 2.0)
        engine = _planned_and_reference(1.0, [("mon", self.KEYS, values)])
        assert _retained(engine, "mon") == set(self.KEYS[values > 0.0].tolist())
        shards = engine._instance_shards("mon")
        assert sum(shard.n_discarded_keys for shard in shards) == 0

    def test_plan_004_a_threshold_below_every_seed_retains_nothing(self):
        # a uniform seed is at least the smallest normal float
        values = np.ones(len(self.KEYS))
        engine = _planned_and_reference(1e-320, [("mon", self.KEYS, values)])
        assert _retained(engine, "mon") == set()


def _direct_and_reference(make_sketch, columns):
    """A sketch fed ``columns`` through ``update_many`` and its per-row
    ``update`` reference; their states, counters included, must match."""
    sketch, reference = make_sketch(), make_sketch()
    for keys, values in columns:
        sketch.update_many(keys, values)
        for key, value in zip(keys, values):
            reference.update(key, value)
    assert sketch.state_dict() == reference.state_dict()
    assert (sketch.n_updates, sketch.n_discarded_keys) == (
        reference.n_updates,
        reference.n_discarded_keys,
    )
    assert codec.to_bytes(sketch) == codec.to_bytes(reference)
    return sketch


class TestDirectPlan:
    """The one rule on columns given to a sketch's own ``update_many``."""

    KEYS = np.arange(-20, 60, dtype=np.int64)

    @staticmethod
    def uniform(threshold, salt=5):
        return lambda: StreamingPoisson(
            threshold,
            rank_family=UniformRanks(),
            seed_assigner=SeedAssigner(salt=salt),
        )

    def test_plan_005_a_retained_float_key_takes_its_int_rows(self, monkeypatch):
        # pins: a sketch retaining ``1.0`` is not canonical, so the plan
        # routes every positive row, and the ``1`` rows, whose own seed
        # fails, accumulate into ``1.0``
        assigner = SeedAssigner(salt=8)
        assert assigner.seed(1.0) <= 0.5 < assigner.seed(1)
        routed = []
        apply_rows = StreamingPoisson._apply_rows

        def spy(self, keys, values, seeds, ranks, rows):
            routed.append(len(rows))
            apply_rows(self, keys, values, seeds, ranks, rows)

        monkeypatch.setattr(StreamingPoisson, "_apply_rows", spy)
        keys = np.array([1, 2, 1, 3, 4, 1, 5], dtype=np.int64)
        values = np.array([0.5, 1.0, 0.0, 2.0, 1.5, 0.25, 3.0])
        sketch = _direct_and_reference(
            self.uniform(0.5, salt=8), [([1.0], [2.0]), (keys, values)]
        )
        assert routed[-1] == np.count_nonzero(values)
        (one,) = [key for key in sketch.entries if key == 1]
        assert type(one) is float
        assert sketch.entries[one] == 2.0 + 0.5 + 0.25

    def test_plan_006_zero_rows_are_updates_not_discards(self):
        # pins: ``0.0`` and ``-0.0`` rows add an update each and no
        # discarded key, whatever their seed
        values = np.where(self.KEYS % 3 == 0, 0.0, 1.5)
        values[self.KEYS % 3 == 1] = -0.0
        sketch = _direct_and_reference(
            self.uniform(0.3), [(self.KEYS, values)] * 2
        )
        positive = set(self.KEYS[values > 0.0].tolist())
        assert set(sketch.entries) < positive
        assert sketch.n_updates == 2 * len(self.KEYS)
        assert sketch.n_discarded_keys == 2 * len(positive - set(sketch.entries))

    def test_plan_007_a_retained_pps_key_takes_a_failing_row(self):
        # pins: a PPS row whose own rank fails still accumulates into its
        # retained key, whose rank is recomputed from the total
        assigner = SeedAssigner(salt=5)
        seed = assigner.seed(3)
        threshold = 2.0 * seed  # value 1 passes, value 0.25 fails alone
        sketch = _direct_and_reference(
            lambda: StreamingPoisson(
                threshold, rank_family=PpsRanks(), seed_assigner=assigner
            ),
            [([3, 7], [1.0, 0.0]), ([7, 3, 3], [0.0, 0.25, 0.25])],
        )
        assert PpsRanks().rank(0.25, seed) >= threshold
        assert sketch.entries == {3: 1.5}
        assert sketch.candidate_ranks() == {3: PpsRanks().rank(1.5, seed)}

    def test_plan_008_a_threshold_below_every_seed_retains_nothing(self):
        # pins: no seed passes 1e-320 (a uniform seed is at least the
        # smallest normal float), so every positive row is discarded
        values = np.where(self.KEYS % 5 == 0, 0.0, 1.0)
        sketch = _direct_and_reference(
            self.uniform(1e-320), [(self.KEYS, values)]
        )
        assert sketch.entries == {}
        assert sketch.n_discarded_keys == np.count_nonzero(values)
