"""Unit tests for the sharded streaming engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.poisson import poisson_uniform_sample
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.streaming.engine import StreamEngine
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson


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
