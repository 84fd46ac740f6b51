"""Tests for hash-based seed assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.seeds import (
    SeedAssigner,
    _hash_label,
    _splitmix64_int,
    key_hashes,
    splitmix64,
    uniform_cutoff,
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=12),
        st.sampled_from(["<i8", ">i8", "<i4", "u8"]),
    )
    def test_numpy_int_columns_match_per_key_hash(self, keys, dtype):
        if dtype == "<i4":
            keys = [key % 2**31 for key in keys]
        if dtype == "u8":
            keys = [key % 2**64 for key in keys]
        column = np.array(keys, dtype=dtype)
        expected = splitmix64(
            np.array([_hash_label(key) for key in keys], dtype=np.uint64)
        )
        assert key_hashes(column).tolist() == expected.tolist()
        assert column.tolist() == keys

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

    #: the uint64 boundaries and their frozen images
    EDGES = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    EDGE_HASHES = [
        0xE220A8397B1DCDAF,
        0x910A2DEC89025CC1,
        0x481EC0A212A9F3DB,
        0xE4D971771B652C20,
    ]

    def test_frozen_edge_outputs(self):
        hashes = splitmix64(self.EDGES)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == self.EDGE_HASHES
        # 0 and 2**64 - 1 land on the open interval's clamped ends
        assert uniform_from_uint64(self.EDGES).tolist() == [
            np.finfo(np.float64).tiny,
            2.0**-64,
            0.5,
            1.0 - np.finfo(np.float64).epsneg,
        ]
        assert uniform_from_uint64(hashes).tolist() == [
            float.fromhex("0x1.c4415072f63bap-1"),
            float.fromhex("0x1.22145bd91204cp-1"),
            float.fromhex("0x1.207b02884aa7dp-2"),
            float.fromhex("0x1.c9b2e2ee36ca6p-1"),
        ]

    def test_zero_dimensional_input(self):
        # SeedAssigner mixes each instance in as one uint64 scalar
        for value, expected in zip(self.EDGES.tolist(), self.EDGE_HASHES):
            assert int(splitmix64(np.uint64(value))) == expected
        assert float(uniform_from_uint64(np.uint64(5))) == 5 * 2.0**-64

    def test_read_only_input_left_untouched(self):
        values = self.EDGES.copy()
        values.flags.writeable = False
        hashes = splitmix64(values)
        uniforms = uniform_from_uint64(hashes)
        hashes.flags.writeable = False
        assert uniform_from_uint64(hashes).tolist() == uniforms.tolist()
        assert values.tolist() == [0, 1, 2**63, 2**64 - 1]
        assert hashes.tolist() == self.EDGE_HASHES


class TestUniformCutoff:
    """``m <= uniform_cutoff(p)`` is ``uniform_from_uint64(m) <= p``."""

    @pytest.mark.parametrize(
        "probability",
        [0.005, 0.05, 0.3, 0.5, 1.0 - 2.0**-53, 2.0**-64, 2.5e-308, 1e-320, 1.0],
    )
    def test_the_cutoff_is_the_pass_boundary(self, probability):
        cutoff = uniform_cutoff(probability)
        edges = [value for value in (cutoff, cutoff + 1) if 0 <= value < 2**64]
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [
                rng.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True),
                np.array(edges + [0, 2**64 - 1], dtype=np.uint64),
            ]
        )
        passes = uniform_from_uint64(values) <= probability
        assert (values.astype(object) <= cutoff).tolist() == passes.tolist()
        if 0 <= cutoff:
            assert uniform_from_uint64(np.uint64(cutoff)) <= probability
        if cutoff + 1 < 2**64:
            assert uniform_from_uint64(np.uint64(cutoff + 1)) > probability

    def test_the_clamps_bound_the_cutoff(self):
        assert uniform_cutoff(1.0) == 2**64 - 1
        assert uniform_cutoff(1e-320) == -1


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

    def test_equal_labels_printed_apart_keep_their_own_constants(self):
        # 1 == 1.0 == True and (1, 2) == (1.0, 2), but a label seeds by
        # its int value or its repr text: a memo keyed by the label
        # itself would hand the first one's constant to the others
        seeds = SeedAssigner(salt=9)
        labels = [1, 1.0, True, (1, 2), (1.0, 2)]
        labels += labels[::-1]
        constants = [seeds._constant(label) for label in labels]
        assert constants == [
            _splitmix64_int(
                (_hash_label(label) * 0x9E3779B97F4A7C15 + 9)
                & 0xFFFFFFFFFFFFFFFF
            )
            for label in labels
        ] and len(set(constants)) == 5


def _numpy_formula_seeds(assigner, hashes, instance):
    """The seed formula with the instance constant mixed as a 0-d NumPy
    SplitMix64, as the column is."""
    instance_hash = 0 if assigner.coordinated else _hash_label(instance)
    constant = np.uint64(
        (instance_hash * 0x9E3779B97F4A7C15 + assigner.salt)
        & 0xFFFFFFFFFFFFFFFF
    )
    with np.errstate(over="ignore"):
        mixed = np.asarray(hashes, dtype=np.uint64) ^ splitmix64(constant)
    return uniform_from_uint64(splitmix64(mixed))


@pytest.mark.parametrize("coordinated", [False, True])
@pytest.mark.parametrize("salt", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("instance", [0, -1, 2**64 + 3, "mon", ("a", 1)])
def test_instance_constant_mixes_like_the_numpy_formula(
    instance, salt, coordinated
):
    assigner = SeedAssigner(salt=salt, coordinated=coordinated)
    hashes = key_hashes([0, 1, -5, 2**64 - 1, "k", 3.5])
    seeds = assigner.seeds_from_hashes(hashes, instance=instance)
    expected = _numpy_formula_seeds(assigner, hashes, instance)
    assert seeds.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


#: every key kind the write-path oracle draws (int64, >= 2**64, unicode),
#: plus floats, bools, tuples, None, negative ints and NumPy integers
_SCALAR_SEED_KEYS = st.one_of(
    _INT_KEYS,
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**64, 2**72),
    st.text(max_size=5),
    st.floats(allow_nan=True, allow_subnormal=True),
    st.none(),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
)


@settings(max_examples=400, deadline=None)
@given(
    key=_SCALAR_SEED_KEYS,
    instance=st.one_of(st.integers(-(2**65), 2**65), st.text(max_size=4),
                       st.floats(allow_nan=False)),
    salt=st.integers(0, 2**64 - 1),
    coordinated=st.booleans(),
)
def test_scalar_seed_matches_the_column_bit_for_bit(
    key, instance, salt, coordinated
):
    assigner = SeedAssigner(salt=salt, coordinated=coordinated)
    scalar = assigner.seed(key, instance=instance)
    column = assigner.seeds([key], instance=instance)
    assert type(scalar) is float
    assert np.float64(scalar).view(np.uint64) == column.view(np.uint64)[0]
