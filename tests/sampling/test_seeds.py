"""Tests for hash-based seed assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.seeds import (
    SeedAssigner,
    _hash_label,
    key_hashes,
    splitmix64,
    uniform_from_uint64,
)

#: integer keys across every boundary the vectorised list path meets:
#: bools, negatives, values at and beyond 2**64, NumPy scalars
_INT_KEYS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64 - 3, max_value=2**64 + 3),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=-128, max_value=127).map(np.int8),
)


class TestKeyHashes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(_INT_KEYS, st.text(max_size=4), st.floats(allow_nan=False)),
            max_size=12,
        )
    )
    def test_list_path_matches_per_key_hash(self, keys):
        expected = splitmix64(
            np.array([_hash_label(key) for key in keys], dtype=np.uint64)
        )
        assert key_hashes(keys).tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_INT_KEYS, min_size=1, max_size=12))
    def test_int_lists_match_per_key_hash(self, keys):
        expected = splitmix64(
            np.array([_hash_label(key) for key in keys], dtype=np.uint64)
        )
        assert key_hashes(keys).tolist() == expected.tolist()

    def test_bool_keys_hash_by_repr(self):
        assert key_hashes([True]).tolist() != key_hashes([1]).tolist()


class TestSplitMix:
    def test_deterministic(self):
        values = np.arange(10, dtype=np.uint64)
        assert np.array_equal(splitmix64(values), splitmix64(values))

    def test_distinct_inputs_give_distinct_outputs(self):
        values = np.arange(1000, dtype=np.uint64)
        hashed = splitmix64(values)
        assert len(np.unique(hashed)) == 1000

    def test_uniform_range(self):
        values = splitmix64(np.arange(10_000, dtype=np.uint64))
        uniforms = uniform_from_uint64(values)
        assert np.all(uniforms > 0.0)
        assert np.all(uniforms < 1.0)

    def test_uniform_mean_near_half(self):
        values = splitmix64(np.arange(50_000, dtype=np.uint64))
        uniforms = uniform_from_uint64(values)
        assert abs(float(np.mean(uniforms)) - 0.5) < 0.01


class TestSeedAssigner:
    def test_seed_in_unit_interval(self):
        seeds = SeedAssigner(salt=1)
        for key in ["a", 17, ("x", 2)]:
            value = seeds.seed(key, instance="i")
            assert 0.0 < value < 1.0

    def test_reproducible(self):
        a = SeedAssigner(salt=3)
        b = SeedAssigner(salt=3)
        assert a.seed("key", instance=2) == b.seed("key", instance=2)

    def test_salt_changes_seeds(self):
        a = SeedAssigner(salt=1)
        b = SeedAssigner(salt=2)
        keys = list(range(100))
        different = sum(
            1 for k in keys if a.seed(k) != b.seed(k)
        )
        assert different == 100

    def test_independent_instances_differ(self):
        seeds = SeedAssigner(salt=0, coordinated=False)
        keys = list(range(200))
        u1 = seeds.seeds(keys, instance=1)
        u2 = seeds.seeds(keys, instance=2)
        assert not np.allclose(u1, u2)

    def test_coordinated_instances_share_seeds(self):
        seeds = SeedAssigner(salt=0, coordinated=True)
        keys = list(range(200))
        u1 = seeds.seeds(keys, instance=1)
        u2 = seeds.seeds(keys, instance="another")
        assert np.array_equal(u1, u2)

    def test_vectorised_matches_scalar(self):
        seeds = SeedAssigner(salt=5)
        keys = [3, 99, 1234567]
        vector = seeds.seeds(keys, instance="x")
        scalars = [seeds.seed(k, instance="x") for k in keys]
        assert np.allclose(vector, scalars)

    def test_vectorised_matches_scalar_for_string_keys(self):
        seeds = SeedAssigner(salt=5)
        keys = ["alpha", "beta", "gamma"]
        vector = seeds.seeds(keys, instance=0)
        scalars = [seeds.seed(k, instance=0) for k in keys]
        assert np.allclose(vector, scalars)

    def test_seed_map(self):
        seeds = SeedAssigner(salt=2)
        mapping = seeds.seed_map(["a", "b"], instance=1)
        assert set(mapping) == {"a", "b"}
        assert mapping["a"] == seeds.seed("a", instance=1)

    def test_seeds_approximately_uniform(self):
        seeds = SeedAssigner(salt=11)
        values = seeds.seeds(list(range(20_000)), instance=0)
        assert abs(float(values.mean()) - 0.5) < 0.01
        assert abs(float(np.mean(values < 0.25)) - 0.25) < 0.02

    @pytest.mark.parametrize("instance", [0, "hour1", ("a", 1)])
    def test_arbitrary_instance_labels(self, instance):
        seeds = SeedAssigner(salt=9)
        assert 0.0 < seeds.seed("k", instance=instance) < 1.0
