"""Parity tests for the chunked ``update_many`` streaming fast path.

The fold must be indistinguishable from a sequence of scalar ``update``
calls — entries and their order, ranks, seeds, threshold, heap
invariants and the discard counter — on every stream shape: distinct
keys (the bottom-k ``argpartition`` fold, the Poisson candidate rows),
duplicate-heavy streams and retained-key replays, zero values,
colliding hashes, keys that are equal across types, and chunk-boundary
splits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.store import IngestRequest, SketchStore, json_columns
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson


def sketch_state(sketch) -> dict:
    state = {
        # the codec writes the entries in insertion order, which the
        # dicts below compare regardless of; the typed key list catches
        # which of two equal keys (``1`` / ``1.0``) the sketch holds
        "bytes": codec.to_bytes(sketch),
        "keys": [(type(key), key) for key in sketch._values],
        "values": dict(sketch._values),
        "ranks": sketch.candidate_ranks(),
        "n_updates": sketch.n_updates,
        "n_discarded": sketch.n_discarded_keys,
        "threshold": sketch.threshold,
    }
    if isinstance(sketch, StreamingBottomK):
        state["seeds"] = dict(sketch._seeds)
        state["sample"] = sketch.to_sample().entries
    return state


def reference(make_sketch, keys, values):
    sketch = make_sketch()
    for key, value in zip(keys, values):
        sketch.update(key, value)
    return sketch


BOTTOMK_FACTORIES = [
    lambda salt: StreamingBottomK(k=5, seed_assigner=SeedAssigner(salt=salt)),
    lambda salt: StreamingBottomK(
        k=64, rank_family=PpsRanks(), seed_assigner=SeedAssigner(salt=salt)
    ),
]
POISSON_FACTORIES = [
    lambda salt: StreamingPoisson(0.25, seed_assigner=SeedAssigner(salt=salt)),
    lambda salt: StreamingPoisson(
        0.8, rank_family=PpsRanks(), seed_assigner=SeedAssigner(salt=salt)
    ),
]


@pytest.mark.parametrize("factory", BOTTOMK_FACTORIES + POISSON_FACTORIES)
@pytest.mark.parametrize("chunk_size", [3, 64, 10_000])
def test_distinct_keys_bulk_path(factory, chunk_size):
    rng = np.random.default_rng(7)
    keys = rng.permutation(np.arange(500, dtype=np.uint64)).tolist()
    values = np.round(rng.random(500) * 4, 3)
    ref = reference(lambda: factory(1), keys, values)
    fast = factory(1)
    fast.update_many(keys, values, chunk_size=chunk_size)
    assert sketch_state(fast) == sketch_state(ref)


@pytest.mark.parametrize("factory", BOTTOMK_FACTORIES + POISSON_FACTORIES)
@pytest.mark.parametrize("chunk_size", [5, 128])
def test_duplicate_heavy_stream_falls_back_exactly(factory, chunk_size):
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 40, size=900).astype(np.uint64).tolist()
    values = np.round(rng.random(900) * 4, 3)
    values[rng.random(900) < 0.1] = 0.0
    ref = reference(lambda: factory(2), keys, values)
    fast = factory(2)
    fast.update_many(keys, values, chunk_size=chunk_size)
    assert sketch_state(fast) == sketch_state(ref)


@pytest.mark.parametrize("factory", BOTTOMK_FACTORIES + POISSON_FACTORIES)
def test_retained_key_replay_accumulates(factory):
    # Second call replays the same key universe: every chunk intersects the
    # retained set, so the fallback loop must accumulate, not reinsert.
    keys = np.arange(60, dtype=np.uint64).tolist()
    values = np.linspace(0.5, 3.0, 60)
    ref = reference(lambda: factory(3), keys + keys, np.tile(values, 2))
    fast = factory(3)
    fast.update_many(keys, values)
    fast.update_many(keys, values)
    assert sketch_state(fast) == sketch_state(ref)


def test_streaming_bottomk_discard_counter_matches_scalar():
    rng = np.random.default_rng(13)
    keys = rng.permutation(np.arange(2000, dtype=np.uint64)).tolist()
    values = rng.random(2000) + 0.01
    make = lambda: StreamingBottomK(k=8, seed_assigner=SeedAssigner(salt=5))
    ref = reference(make, keys, values)
    fast = make()
    fast.update_many(keys, values, chunk_size=256)
    assert fast.n_discarded_keys == ref.n_discarded_keys
    assert fast.n_discarded_keys > 0


def test_update_many_then_scalar_updates_compose():
    make = lambda: StreamingBottomK(k=4, seed_assigner=SeedAssigner(salt=9))
    keys = np.arange(50, dtype=np.uint64).tolist()
    values = np.linspace(1.0, 2.0, 50)
    ref = reference(make, keys + [3, 99], list(values) + [1.5, 0.7])
    fast = make()
    fast.update_many(keys, values)
    fast.update(3, 1.5)
    fast.update(99, 0.7)
    assert sketch_state(fast) == sketch_state(ref)


def test_update_many_validation():
    sketch = StreamingPoisson(0.5, seed_assigner=SeedAssigner(salt=1))
    with pytest.raises(InvalidParameterError):
        sketch.update_many([1, 2], [1.0])
    with pytest.raises(InvalidParameterError):
        sketch.update_many([1, 2], [1.0, -2.0])
    with pytest.raises(InvalidParameterError):
        sketch.update_many([1], [1.0], chunk_size=0)
    assert sketch.n_updates == 0


def test_update_many_validation_is_atomic_across_chunks():
    # A negative value in a *later* chunk must be rejected before any
    # earlier chunk is ingested.
    sketch = StreamingPoisson(0.9, seed_assigner=SeedAssigner(salt=1))
    keys = list(range(10))
    values = np.ones(10)
    values[7] = -1.0
    with pytest.raises(InvalidParameterError):
        sketch.update_many(keys, values, chunk_size=3)
    assert sketch.n_updates == 0 and len(sketch) == 0


def test_update_many_empty_column():
    sketch = StreamingBottomK(k=3, seed_assigner=SeedAssigner(salt=1))
    sketch.update_many([], [])
    assert len(sketch) == 0 and sketch.n_updates == 0


def test_uniform_ranks_poisson_bulk_matches_offline_inclusive_rule():
    # UniformRanks thresholds are inclusive (seed <= p); the bulk mask must
    # apply the same rule as the scalar path.
    assigner = SeedAssigner(salt=21)
    keys = np.arange(400, dtype=np.uint64).tolist()
    values = np.ones(400)
    make = lambda: StreamingPoisson(
        0.5, rank_family=UniformRanks(), seed_assigner=SeedAssigner(salt=21)
    )
    ref = reference(make, keys, values)
    fast = make()
    fast.update_many(keys, values, chunk_size=128)
    assert sketch_state(fast) == sketch_state(ref)
    seeds = assigner.seeds(keys, instance=0)
    assert set(fast._values) == {
        key for key, seed in zip(keys, seeds) if seed <= 0.5
    }


# ---------------------------------------------------------------------------
# Keys that are equal across types hash apart
# ---------------------------------------------------------------------------

ALL_FAMILY_FACTORIES = [
    lambda: StreamingBottomK(k=4, seed_assigner=SeedAssigner(salt=3)),
    lambda: StreamingBottomK(
        k=4, rank_family=PpsRanks(), seed_assigner=SeedAssigner(salt=3)
    ),
    lambda: StreamingPoisson(1.0, seed_assigner=SeedAssigner(salt=3)),
    lambda: StreamingPoisson(
        100.0, rank_family=PpsRanks(), seed_assigner=SeedAssigner(salt=3)
    ),
    lambda: StreamingPoisson(
        100.0, rank_family=ExpRanks(), seed_assigner=SeedAssigner(salt=3)
    ),
]


@pytest.mark.parametrize("factory", ALL_FAMILY_FACTORIES)
def test_cross_type_equal_keys_in_one_chunk_accumulate(factory):
    # ``1 == 1.0`` but the two hash apart, so distinct hashes do not
    # prove distinct keys: the second row must add to the first.
    fast = factory()
    fast.update_many([1, 1.0], [2.0, 3.0])
    assert fast._values == {1: 5.0}
    assert sketch_state(fast) == sketch_state(
        reference(factory, [1, 1.0], [2.0, 3.0])
    )


@pytest.mark.parametrize("factory", ALL_FAMILY_FACTORIES)
def test_canonical_chunk_replays_a_cross_type_retained_key(factory):
    # the chunk is canonical, the retained key ``1.0`` is not
    ref = reference(factory, [1.0, 1], [2.0, 3.0])
    fast = factory()
    fast.update(1.0, 2.0)
    fast.update_many(np.array([1]), [3.0])
    assert list(fast._values.items()) == [(1.0, 5.0)]
    assert sketch_state(fast) == sketch_state(ref)


def test_store_submit_keeps_the_mass_of_cross_type_equal_keys():
    store = SketchStore()
    store.create("e", "poisson", threshold=1.0, n_shards=1)
    store.submit(
        IngestRequest(
            engine="e", batches=(json_columns("mon", [1, 1.0], [2, 3]),)
        )
    )
    assert store.engine("e").sketch("mon")._values == {1: 5.0}


# ---------------------------------------------------------------------------
# Differential property: update_many == a per-row update loop
# ---------------------------------------------------------------------------

#: key pools: canonical ints (with ``0`` / ``2**64`` sharing a hash),
#: canonical strings, and keys equal across types
KEY_POOLS = {
    "int": [*range(12), 2**64, 2**64 + 3],
    "str": [f"k{i}" for i in range(12)],
    "cross": [1, 1.0, True, 0, 2**64, 2, np.int64(2), np.str_("x"), "x", "y"],
}
FAMILIES = {
    "uniform": (UniformRanks, 0.6),
    "pps": (PpsRanks, 0.8),
    "exp": (ExpRanks, 0.8),
}


def _column(keys: list, numpy: bool):
    if not numpy:
        return keys
    if all(type(key) is int and key < 2**63 for key in keys):
        return np.array(keys, dtype=np.int64)
    column = np.empty(len(keys), dtype=object)
    column[:] = keys
    return column


@st.composite
def update_streams(draw):
    pool = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    return draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.sampled_from(pool),
                        st.sampled_from([0.0, 0.25, 1.0, 2.5, 4.0]),
                    ),
                    max_size=40,
                ),
                st.booleans(),  # NumPy key column
                st.integers(1, 64),  # chunk size
            ),
            min_size=1,
            max_size=4,
        )
    )


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["bottom_k", "poisson"]),
    family=st.sampled_from(sorted(FAMILIES)),
    k=st.integers(1, 6),
    salt=st.integers(0, 3),
    calls=update_streams(),
)
def test_update_many_matches_update_loop(kind, family, k, salt, calls):
    rank_family, threshold = FAMILIES[family]

    def make():
        assigner = SeedAssigner(salt=salt)
        if kind == "bottom_k":
            return StreamingBottomK(
                k=k, rank_family=rank_family(), seed_assigner=assigner
            )
        return StreamingPoisson(
            threshold, rank_family=rank_family(), seed_assigner=assigner
        )

    fast, slow = make(), make()
    for rows, numpy, chunk_size in calls:
        keys = [key for key, _ in rows]
        values = [value for _, value in rows]
        column = _column(keys, numpy)
        fast.update_many(column, values, chunk_size=chunk_size)
        for key, value in zip(column, values):
            slow.update(key, value)
    assert sketch_state(fast) == sketch_state(slow)
    assert fast.n_discarded_keys == slow.n_discarded_keys
