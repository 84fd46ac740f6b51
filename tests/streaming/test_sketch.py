"""Unit tests for the streaming sketches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.poisson import poisson_pps_sample, poisson_uniform_sample
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson


def make_data(n: int = 200, seed: int = 0) -> dict[int, float]:
    generator = np.random.default_rng(seed)
    keys = generator.choice(10**7, size=n, replace=False)
    values = generator.random(n) * 10.0 + 0.1
    return {int(k): float(v) for k, v in zip(keys, values)}


class TestStreamingBottomK:
    def test_matches_offline_sample_exactly(self):
        data = make_data()
        assigner = SeedAssigner(salt=3)
        for family in (ExpRanks(), PpsRanks()):
            sketch = StreamingBottomK(
                k=16, instance="i", rank_family=family, seed_assigner=assigner
            )
            sketch.extend(data.items())
            offline = bottom_k_sample(
                data, 16, rank_family=family, seed_assigner=assigner,
                instance="i",
            )
            snapshot = sketch.to_sample()
            assert snapshot.entries == offline.entries
            assert snapshot.ranks == offline.ranks
            assert snapshot.threshold == offline.threshold

    def test_to_sample_supports_rank_conditioning(self):
        data = make_data()
        sketch = StreamingBottomK(k=60, seed_assigner=SeedAssigner(salt=1))
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        estimate = sketch.to_sample().rank_conditioning_total()
        assert estimate == pytest.approx(sum(data.values()), rel=0.5)

    def test_fewer_keys_than_k(self):
        sketch = StreamingBottomK(k=10, seed_assigner=SeedAssigner())
        sketch.extend([("a", 1.0), ("b", 2.0)])
        sample = sketch.to_sample()
        assert sample.keys == {"a", "b"}
        assert np.isinf(sample.threshold)
        assert np.isinf(sketch.threshold)

    def test_zero_values_ignored(self):
        sketch = StreamingBottomK(k=5, seed_assigner=SeedAssigner())
        sketch.update("a", 0.0)
        assert len(sketch) == 0
        assert sketch.n_updates == 1

    def test_additive_updates_accumulate(self):
        # k >= number of keys: no evictions, so additivity is exact
        assigner = SeedAssigner(salt=4)
        split = StreamingBottomK(k=40, seed_assigner=assigner)
        whole = StreamingBottomK(k=40, seed_assigner=assigner)
        data = make_data(30)
        for key, value in data.items():
            split.update(key, 0.25 * value)
            split.update(key, 0.75 * value)
            whole.update(key, value)
        assert split.candidates() == whole.candidates()
        assert split.candidate_ranks() == whole.candidate_ranks()

    def test_additive_update_of_retained_key_stays_exact(self):
        data = make_data(60)
        assigner = SeedAssigner(salt=6)
        sketch = StreamingBottomK(k=10, seed_assigner=assigner)
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        key = next(iter(sketch.to_sample().keys))
        sketch.update(key, 5.0)
        data[key] += 5.0
        offline = bottom_k_sample(data, 10, seed_assigner=assigner)
        snapshot = sketch.to_sample()
        assert snapshot.entries == offline.entries
        assert snapshot.ranks == offline.ranks
        assert snapshot.threshold == offline.threshold

    def test_contains_and_len(self):
        data = make_data(50)
        sketch = StreamingBottomK(k=10, seed_assigner=SeedAssigner(salt=2))
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        assert len(sketch) == 10
        sample = sketch.to_sample()
        for key in sample.keys:
            assert key in sketch
        # the threshold candidate is retained but not part of the sample
        assert len(sketch.candidates()) == 11

    def test_discard_counter_tracks_evictions(self):
        data = make_data(100)
        sketch = StreamingBottomK(k=5, seed_assigner=SeedAssigner())
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        assert sketch.n_discarded_keys == 100 - 6
        assert sketch.n_updates == 100

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            StreamingBottomK(k=0)
        sketch = StreamingBottomK(k=3)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", -1.0)
        with pytest.raises(InvalidParameterError):
            sketch.update_many(["a", "b"], [1.0], chunk_size=2)

    def test_negative_integer_keys(self):
        data = {k: float(abs(k) % 7 + 1) for k in range(-40, 40)}
        assigner = SeedAssigner(salt=11)
        sketch = StreamingBottomK(k=12, seed_assigner=assigner)
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        offline = bottom_k_sample(data, 12, seed_assigner=assigner)
        assert sketch.to_sample().entries == offline.entries

    def test_string_keys(self):
        data = {f"user-{i}": float(i % 9 + 1) for i in range(80)}
        assigner = SeedAssigner(salt=11)
        sketch = StreamingBottomK(k=12, seed_assigner=assigner)
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        offline = bottom_k_sample(data, 12, seed_assigner=assigner)
        assert sketch.to_sample().entries == offline.entries


class TestStreamingPoisson:
    def test_uniform_matches_offline(self):
        data = make_data()
        assigner = SeedAssigner(salt=7)
        sketch = StreamingPoisson(0.35, instance="a", seed_assigner=assigner)
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        offline = poisson_uniform_sample(
            data, 0.35, seed_assigner=assigner, instance="a"
        )
        snapshot = sketch.to_sample()
        assert dict(snapshot.entries) == dict(offline.entries)
        assert snapshot.probability == offline.probability
        assert dict(snapshot.inclusion_probabilities) == dict(
            offline.inclusion_probabilities
        )

    def test_pps_matches_offline(self):
        data = make_data()
        assigner = SeedAssigner(salt=7)
        sketch = StreamingPoisson(
            0.08, instance="a", rank_family=PpsRanks(), seed_assigner=assigner
        )
        for key, value in data.items():
            sketch.update(key, value)
        offline = poisson_pps_sample(
            data, threshold=0.08, seed_assigner=assigner, instance="a"
        )
        snapshot = sketch.to_sample()
        assert dict(snapshot.entries) == dict(offline.entries)
        assert snapshot.threshold == offline.threshold
        assert dict(snapshot.inclusion_probabilities) == dict(
            offline.inclusion_probabilities
        )

    def test_horvitz_thompson_total_from_snapshot(self):
        data = make_data(400)
        sketch = StreamingPoisson(
            0.2, rank_family=PpsRanks(), seed_assigner=SeedAssigner(salt=1)
        )
        sketch.update_many(list(data), list(data.values()), chunk_size=len(data))
        estimate = sketch.to_sample().horvitz_thompson_total()
        assert estimate == pytest.approx(sum(data.values()), rel=0.25)

    def test_additive_updates_accumulate(self):
        assigner = SeedAssigner(salt=4)
        sketch = StreamingPoisson(
            0.5, rank_family=PpsRanks(), seed_assigner=assigner
        )
        sketch.update("a", 3.0)
        before = sketch.entries.get("a")
        sketch.update("a", 2.0)
        if before is not None:
            assert sketch.entries["a"] == 5.0
            rank = sketch.candidate_ranks()["a"]
            assert rank == pytest.approx(
                assigner.seed("a", instance=0) / 5.0
            )

    def test_oblivious_threshold_must_be_probability(self):
        with pytest.raises(InvalidParameterError):
            StreamingPoisson(1.5)
        # weighted families accept thresholds above one
        StreamingPoisson(1.5, rank_family=PpsRanks())

    def test_invalid_threshold(self):
        with pytest.raises(InvalidParameterError):
            StreamingPoisson(0.0)
        with pytest.raises(InvalidParameterError):
            StreamingPoisson(-1.0, rank_family=ExpRanks())

    def test_uniform_boundary_seed_is_included_like_offline(self):
        # offline oblivious sampling tests seed <= p; a key whose seed
        # exactly equals the threshold must be retained by the sketch too
        assigner = SeedAssigner(salt=6)
        boundary_seed = assigner.seed("edge", instance=0)
        sketch = StreamingPoisson(boundary_seed, seed_assigner=assigner)
        sketch.update("edge", 1.0)
        offline = poisson_uniform_sample(
            {"edge": 1.0}, boundary_seed, seed_assigner=assigner
        )
        assert "edge" in sketch
        assert dict(sketch.to_sample().entries) == dict(offline.entries)

    def test_uniform_ranks_ignore_values(self):
        assigner = SeedAssigner(salt=2)
        small = StreamingPoisson(0.5, seed_assigner=assigner)
        large = StreamingPoisson(0.5, seed_assigner=assigner)
        keys = [f"k{i}" for i in range(100)]
        small.update_many(keys, np.full(100, 0.001), chunk_size=len(keys))
        large.update_many(keys, np.full(100, 1000.0), chunk_size=len(keys))
        assert set(small.entries) == set(large.entries)
        assert isinstance(small.rank_family, UniformRanks)
