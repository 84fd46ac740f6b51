"""Unit tests for the streaming sketches."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.bottomk import bottom_k_sample
from repro.sampling.poisson import poisson_pps_sample, poisson_uniform_sample
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.streaming.merge import merge_sketches
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


def uniform_sketch(salt: int = 1, threshold: float = 0.5) -> StreamingPoisson:
    return StreamingPoisson(
        threshold, instance="i", seed_assigner=SeedAssigner(salt=salt)
    )


def assert_ranks_are_seeds(sketch: StreamingPoisson) -> None:
    keys = list(sketch.entries)
    assert keys
    expected = sketch.seed_assigner.seed_map(keys, instance=sketch.instance)
    assert sketch.candidate_ranks() == expected


class TestDerivedUniformRanks:
    """A weight-oblivious sketch keeps no ranks: a retained key's uniform
    rank is its seed, whichever path retained it."""

    def test_uniform_ranks_001_after_update(self):
        sketch = uniform_sketch()
        for key, value in make_data(300).items():
            sketch.update(key, value)
            sketch.update(key, 1.0)
        assert_ranks_are_seeds(sketch)

    def test_uniform_ranks_002_after_update_many(self):
        sketch = uniform_sketch()
        data = make_data(300)
        sketch.update_many(np.array(list(data), dtype=np.int64), list(data.values()))
        sketch.update_many(["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0])
        assert_ranks_are_seeds(sketch)

    def test_uniform_ranks_003_after_merge_sketches(self):
        data = list(make_data(400).items())
        parts = [uniform_sketch(), uniform_sketch()]
        for part, rows in zip(parts, (data[:200], data[200:])):
            part.update_many([key for key, _ in rows], [v for _, v in rows])
        assert_ranks_are_seeds(merge_sketches(parts))

    def test_uniform_ranks_004_after_codec_round_trip(self):
        sketch = uniform_sketch()
        sketch.update_many(list(make_data(300)), np.ones(300))
        restored = codec.from_bytes(codec.to_bytes(sketch))
        assert_ranks_are_seeds(restored)
        assert codec.to_bytes(restored) == codec.to_bytes(sketch)

    def test_uniform_sketch_holds_at_most_128_bytes_per_retained_key(self):
        keys = np.arange(200_000, dtype=np.int64)
        values = np.ones(keys.size)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sketch = uniform_sketch()
            sketch.update_many(keys, values)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sketch) > 95_000
        assert held / len(sketch) <= 128

    def test_uniform_ranks_005_equal_key_of_another_type_sets_the_rank(self):
        # ``True == 1`` but they hash apart: the update's seed becomes
        # the retained key's rank, as the per-row loop always set it
        for scalar in (True, False):
            sketch = uniform_sketch(threshold=1.0)
            sketch.update_many([1, 2], np.ones(2))
            if scalar:
                sketch.update(True, 1.0)
            else:
                sketch.update_many([True], [1.0])
            seed = sketch.seed_assigner.seed(True, instance="i")
            assert sketch.candidate_ranks()[1] == seed
            restored = codec.from_bytes(codec.to_bytes(sketch))
            assert codec.to_bytes(restored) == codec.to_bytes(sketch)

    def test_uniform_ranks_006_restore_keeps_ranks_that_are_not_the_seeds(self):
        # NumPy str keys restore as plain str, whose seeds differ
        sketch = uniform_sketch(threshold=1.0)
        sketch.update_many(np.array(["a", "b", "c"]), np.ones(3))
        blob = codec.to_bytes(sketch)
        assert codec.to_bytes(codec.from_bytes(blob)) == blob
        restored = codec.from_bytes(blob)
        for copy in (sketch, restored):
            copy.update_many(["d"], [1.0])
        assert restored.candidate_ranks() == sketch.candidate_ranks()
        assert codec.to_bytes(restored) == codec.to_bytes(sketch)

    @pytest.mark.parametrize(
        ("label", "digest"),
        [
            (1.0, "4ec266c5c69e80072a2bffd5ff289bc76549c1b97d00435e9a37eacec911b7cc"),
            (True, "95d2bd28574e6ab51d55166f1d915cb532fc6cd7d2ad6839725163b6c39160c1"),
        ],
    )
    def test_uniform_ranks_007_merge_of_equal_labels_that_seed_apart(
        self, label, digest
    ):
        # ``label == 1`` passes the merge check, but uncoordinated seeds
        # hash the label itself: each part's keys keep its own ranks.
        # ``digest`` is the merged bytes of the version that stored ranks
        data = list(make_data(400).items())
        parts = [
            StreamingPoisson(0.5, instance=instance, seed_assigner=SeedAssigner(salt=1))
            for instance in (1, label)
        ]
        for part, rows in zip(parts, (data[:200], data[200:])):
            part.update_many([key for key, _ in rows], [v for _, v in rows])
        merged = merge_sketches(parts)
        assert merged.candidate_ranks() == {
            **parts[0].candidate_ranks(), **parts[1].candidate_ranks()
        }
        assert hashlib.sha256(codec.to_bytes(merged)).hexdigest() == digest
