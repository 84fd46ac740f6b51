"""Property-based round-trip suite for the binary sketch codec.

The contract under test is *state-exactness*: for random streams over
both sketch families and all three rank families,
``from_bytes(to_bytes(s))`` must reproduce the sketch — snapshots, full
``state_dict`` (entry order included), and bit-identical behaviour on
subsequent updates — and serialization must commute with the merge
algebra: ``restore(merge(a, b)) == merge(restore(a), restore(b))``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError, SketchCodecError
from repro.sampling.ranks import (
    ExpRanks,
    PpsRanks,
    UniformRanks,
)
from repro.sampling.seeds import SeedAssigner
from repro.service.codec import (
    FORMAT_VERSION,
    MAGIC,
    from_bytes,
    store_from_bytes,
    store_to_bytes,
    to_bytes,
)
from repro.streaming.engine import StreamEngine
from repro.streaming.merge import merge_sketches
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

keys = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=3)),
)
streams = st.lists(
    st.tuples(keys, st.floats(min_value=0.0, max_value=1000.0)),
    max_size=60,
)
weighted_families = st.sampled_from([ExpRanks(), PpsRanks()])
all_families = st.sampled_from([ExpRanks(), PpsRanks(), UniformRanks()])
salts = st.integers(min_value=0, max_value=10_000)

#: ints equal to no key of the other shapes below (``True == 1``,
#: ``1.0 == 1``, ``False == 0``), with both ``_TAG_INT`` extremes
run_ints = st.one_of(
    st.sampled_from([-(2**63), 2**63 - 1]),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=-(10**6), max_value=-1),
)
#: the key types a run can mix with its ints
other_keys = {
    "bigint": st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7]),
    "bool": st.booleans(),
    "float": st.just(1.0),
    "str": st.text(max_size=5),
    "bytes": st.binary(max_size=4),
    "tuple": st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=3)),
    "np.int64": st.integers(min_value=10**7, max_value=10**8).map(np.int64),
}


@st.composite
def key_runs(draw) -> list:
    """Distinct keys: all ints, all strs, or ints with one key of
    another type first, in the middle or last."""
    shape = draw(st.sampled_from(["int", "str", *other_keys]))
    if shape == "str":
        return draw(st.lists(st.text(max_size=5), unique=True, max_size=12))
    run = draw(st.lists(run_ints, unique=True, max_size=12))
    if shape == "int":
        return run
    position = draw(st.sampled_from([0, len(run) // 2, len(run)]))
    return [*run[:position], draw(other_keys[shape]), *run[position:]]


def feed(sketch, stream) -> None:
    for key, value in stream:
        sketch.update(key, value)


def assert_roundtrip_exact(sketch, extra_stream) -> None:
    """Restored sketch: equal state, equal snapshot, bit-identical
    continuation."""
    restored = from_bytes(to_bytes(sketch))
    assert restored == sketch
    assert restored.state_dict() == sketch.state_dict()
    assert restored.to_sample() == sketch.to_sample()
    feed(sketch, extra_stream)
    feed(restored, extra_stream)
    assert restored.state_dict() == sketch.state_dict()
    assert restored.to_sample() == sketch.to_sample()
    assert list(restored._values) == list(sketch._values)


class TestSketchRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=streams,
        extra=streams,
        k=st.integers(min_value=1, max_value=12),
        salt=salts,
        family=all_families,
        coordinated=st.booleans(),
    )
    def test_bottom_k_roundtrip_is_state_exact(
        self, stream, extra, k, salt, family, coordinated
    ):
        sketch = StreamingBottomK(
            k=k,
            instance="day0",
            rank_family=family,
            seed_assigner=SeedAssigner(salt=salt, coordinated=coordinated),
        )
        feed(sketch, stream)
        assert_roundtrip_exact(sketch, extra)

    @settings(max_examples=60, deadline=None)
    @given(
        stream=streams,
        extra=streams,
        threshold=st.floats(min_value=0.05, max_value=1.0),
        salt=salts,
        family=all_families,
    )
    def test_poisson_roundtrip_is_state_exact(
        self, stream, extra, threshold, salt, family
    ):
        sketch = StreamingPoisson(
            threshold=threshold,
            instance=("poisson", 1),
            rank_family=family,
            seed_assigner=SeedAssigner(salt=salt),
        )
        feed(sketch, stream)
        assert_roundtrip_exact(sketch, extra)

    @settings(max_examples=40, deadline=None)
    @given(
        stream_a=streams,
        stream_b=streams,
        k=st.integers(min_value=1, max_value=10),
        salt=salts,
        family=weighted_families,
    )
    def test_merge_commutes_with_restore_bottom_k(
        self, stream_a, stream_b, k, salt, family
    ):
        assigner = SeedAssigner(salt=salt)

        def build(stream):
            sketch = StreamingBottomK(
                k=k, instance="d", rank_family=family, seed_assigner=assigner
            )
            feed(sketch, stream)
            return sketch

        part_a, part_b = build(stream_a), build(stream_b)
        merged_then_restored = from_bytes(
            to_bytes(merge_sketches([part_a, part_b]))
        )
        restored_then_merged = merge_sketches(
            [from_bytes(to_bytes(part_a)), from_bytes(to_bytes(part_b))]
        )
        assert merged_then_restored == restored_then_merged

    @settings(max_examples=40, deadline=None)
    @given(
        stream_a=streams,
        stream_b=streams,
        threshold=st.floats(min_value=0.05, max_value=1.0),
        salt=salts,
        family=all_families,
    )
    def test_merge_commutes_with_restore_poisson(
        self, stream_a, stream_b, threshold, salt, family
    ):
        assigner = SeedAssigner(salt=salt)

        def build(stream):
            sketch = StreamingPoisson(
                threshold=threshold,
                instance="d",
                rank_family=family,
                seed_assigner=assigner,
            )
            feed(sketch, stream)
            return sketch

        part_a, part_b = build(stream_a), build(stream_b)
        merged_then_restored = from_bytes(
            to_bytes(merge_sketches([part_a, part_b]))
        )
        restored_then_merged = merge_sketches(
            [from_bytes(to_bytes(part_a)), from_bytes(to_bytes(part_b))]
        )
        assert merged_then_restored == restored_then_merged


class TestMixedKeyRuns:
    @settings(max_examples=80, deadline=None)
    @given(keys=key_runs(), salt=salts)
    def test_key_run_roundtrips_with_its_types(self, keys, salt):
        assigner = SeedAssigner(salt=salt)
        for sketch in (
            StreamingBottomK(k=max(len(keys), 1), seed_assigner=assigner),
            StreamingPoisson(1.0, seed_assigner=assigner),
        ):
            feed(sketch, [(key, 1.0 + index) for index, key in enumerate(keys)])
            assert list(sketch._values) == keys  # every key retained
            blob = to_bytes(sketch)
            restored = from_bytes(blob)
            assert to_bytes(restored) == blob
            assert restored.state_dict() == sketch.state_dict()
            # NumPy ints come back as Python ints; a bool stays a bool
            assert [type(key) for key in restored._values] == [
                int if isinstance(key, np.integer) else type(key)
                for key in keys
            ]


class TestColumnarState:
    def make_sketches(self):
        bottom_k = StreamingBottomK(k=8, seed_assigner=SeedAssigner(salt=6))
        poisson = StreamingPoisson(1.0, seed_assigner=SeedAssigner(salt=6))
        for sketch in (bottom_k, poisson):
            feed(sketch, [(key, 1.0 + key) for key in (5, 3, 9, 1)])
        return bottom_k, poisson

    def test_columns_of_unequal_length_are_rejected(self):
        for sketch in self.make_sketches():
            state = dict(sketch.state_dict(), ranks=[0.5])
            del state["entries"]
            with pytest.raises(InvalidParameterError, match="ranks=1"):
                type(sketch).from_state(state)

    def test_reordered_entries_rows_win_over_the_columns(self):
        # how a caller puts a sketch's keys in a canonical order
        for sketch in self.make_sketches():
            state = sketch.state_dict()
            state["entries"] = tuple(sorted(state["entries"]))
            rebuilt = type(sketch).from_state(state)
            assert list(rebuilt._values) == [1, 3, 5, 9]
            assert rebuilt == sketch


class TestEngineRoundTrip:
    def make_columns(self, n=600, seed=0):
        generator = np.random.default_rng(seed)
        return (
            generator.choice(10**7, size=n, replace=False),
            generator.random(n) * 10.0 + 0.01,
        )

    def test_bottom_k_engine_roundtrip_and_continuation(self):
        keys_column, values = self.make_columns()
        engine = StreamEngine.bottom_k(
            k=20, seed_assigner=SeedAssigner(salt=3), n_shards=4
        )
        engine.ingest("mon", keys_column[:400], values[:400])
        engine.ingest("tue", keys_column[200:], values[200:])
        restored = from_bytes(to_bytes(engine))
        assert restored == engine
        assert restored.sample("mon") == engine.sample("mon")
        engine.ingest("mon", keys_column[400:], values[400:])
        restored.ingest("mon", keys_column[400:], values[400:])
        assert restored == engine
        assert restored.state_dict() == engine.state_dict()

    def test_poisson_engine_roundtrip(self):
        keys_column, values = self.make_columns(seed=1)
        engine = StreamEngine.poisson(
            0.4,
            seed_assigner=SeedAssigner(salt=9, coordinated=True),
            n_shards=3,
        )
        engine.ingest("a", keys_column, values)
        restored = from_bytes(to_bytes(engine))
        assert restored == engine
        assert dict(restored.sample("a").entries) == dict(
            engine.sample("a").entries
        )

    def test_empty_engine_roundtrip(self):
        engine = StreamEngine.poisson(0.5, n_shards=2)
        assert from_bytes(to_bytes(engine)) == engine

    def test_from_state_rejects_shard_config_mismatch(self):
        engine = StreamEngine.bottom_k(
            k=4, seed_assigner=SeedAssigner(salt=1), n_shards=2
        )
        engine.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
        state = engine.state_dict()
        doctored = dict(state, k=9)  # header disagrees with shard bodies
        with pytest.raises(InvalidParameterError, match="configuration"):
            StreamEngine.from_state(doctored)

        poisson = StreamEngine.poisson(
            0.5, seed_assigner=SeedAssigner(salt=1), n_shards=2
        )
        poisson.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
        mixed = dict(poisson.state_dict())
        mixed["instances"] = state["instances"]  # bottom-k shards inside
        with pytest.raises(InvalidParameterError, match="shard"):
            StreamEngine.from_state(mixed)


class TestStoreBlob:
    def test_store_blob_roundtrip(self):
        engine = StreamEngine.bottom_k(k=5, seed_assigner=SeedAssigner(salt=1))
        engine.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
        items = store_from_bytes(
            store_to_bytes([("traffic", 11, to_bytes(engine))])
        )
        assert items == [("traffic", 11, engine)]

    def test_sketch_blob_is_not_a_store(self):
        sketch = StreamingBottomK(k=2, seed_assigner=SeedAssigner())
        with pytest.raises(SketchCodecError, match="store"):
            store_from_bytes(to_bytes(sketch))


class TestCodecErrors:
    def make_blob(self):
        sketch = StreamingBottomK(k=4, seed_assigner=SeedAssigner(salt=2))
        sketch.update_many(list(range(50)), np.arange(50, dtype=float) + 1)
        return to_bytes(sketch)

    def test_bad_magic(self):
        blob = self.make_blob()
        with pytest.raises(SketchCodecError, match="magic"):
            from_bytes(b"XXXX" + blob[4:])

    def test_future_version(self):
        blob = bytearray(self.make_blob())
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(SketchCodecError, match="version"):
            from_bytes(bytes(blob))

    def test_truncated_buffer(self):
        blob = self.make_blob()
        for cut in (3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SketchCodecError):
                from_bytes(blob[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(SketchCodecError, match="trailing"):
            from_bytes(self.make_blob() + b"\x00")

    def test_store_blob_rejected_by_from_bytes(self):
        blob = store_to_bytes([])
        with pytest.raises(SketchCodecError, match="SketchStore.restore"):
            from_bytes(blob)

    def test_custom_rank_family_is_rejected(self):
        class HalfRanks(UniformRanks):
            pass

        sketch = StreamingPoisson(0.5, rank_family=HalfRanks())
        with pytest.raises(SketchCodecError, match="rank famil"):
            to_bytes(sketch)

    def test_unsupported_key_type_is_rejected(self):
        sketch = StreamingBottomK(k=2, seed_assigner=SeedAssigner())
        sketch.update(frozenset({1}), 1.0)
        with pytest.raises(SketchCodecError, match="frozenset"):
            to_bytes(sketch)

    def test_non_sketch_object_is_rejected(self):
        with pytest.raises(SketchCodecError, match="cannot encode"):
            to_bytes(object())

    def test_magic_constant_is_stable(self):
        # the on-disk format is a compatibility surface; catching an
        # accidental change here beats debugging unreadable snapshots
        assert MAGIC == b"RSVC"
        assert FORMAT_VERSION == 1
        assert self.make_blob()[:4] == MAGIC


# ----------------------------------------------------------------------
# Edges of the all-int key run and of the coordinated flag: numbered cases
# ----------------------------------------------------------------------
#: large enough that a tag flipped to ``_TAG_STR`` reads a string length
#: no blob holds
RUN_KEYS = (2**40 + 5, 2**40 + 6, 2**40 + 7)


def int_run_blob(keys=RUN_KEYS) -> tuple[bytearray, int]:
    """A Poisson sketch blob retaining ``keys``, and the offset where its
    key run ends (the value and rank columns follow)."""
    sketch = StreamingPoisson(1.0, seed_assigner=SeedAssigner(salt=4))
    feed(sketch, [(key, 1.0) for key in keys])
    blob = bytearray(to_bytes(sketch))
    return blob, len(blob) - 16 * len(keys)


def patched(blob: bytes, offset: int, data: bytes) -> bytes:
    blob = bytearray(blob)
    blob[offset : offset + len(data)] = data
    return bytes(blob)


def flag_offset(build) -> int:
    """Offset of the first coordinated flag: the first byte at which the
    blobs of ``build(False)`` and ``build(True)`` differ."""
    plain, coordinated = to_bytes(build(False)), to_bytes(build(True))
    return next(
        offset
        for offset, (a, b) in enumerate(zip(plain, coordinated))
        if a != b
    )


def coordinated_engine(coordinated: bool) -> StreamEngine:
    engine = StreamEngine.poisson(
        0.5,
        seed_assigner=SeedAssigner(salt=3, coordinated=coordinated),
        n_shards=2,
    )
    engine.ingest("d", [1, 2, 3], [1.0, 2.0, 3.0])
    return engine


def coordinated_sketch(coordinated: bool) -> StreamingPoisson:
    sketch = StreamingPoisson(
        0.5, seed_assigner=SeedAssigner(salt=3, coordinated=coordinated)
    )
    feed(sketch, [(1, 1.0), (2, 2.0)])
    return sketch


class RunCase(NamedTuple):
    id: str
    blob: bytes
    #: a fragment of the SketchCodecError; None: the blob restores and
    #: re-encodes to itself
    error: str | None = None


_RUN, _RUN_END = int_run_blob()


def tag_offset(index: int) -> int:
    """Offset of the tag of ``RUN_KEYS[index]`` in ``_RUN``."""
    return _RUN_END - 9 * (len(RUN_KEYS) - index)


RUN_CASES = [
    RunCase("run_001_empty_run", bytes(int_run_blob(keys=())[0])),
    RunCase("run_002_all_int_run", bytes(_RUN)),
    *(
        RunCase(
            f"run_{2 + cut:03d}_cut_{cut}_bytes_before_the_run_ends",
            bytes(_RUN[: _RUN_END - cut]),
            "truncated buffer",
        )
        for cut in range(1, 10)
    ),
    RunCase(
        "run_012_tag_flipped_to_str_reads_the_int_as_a_length",
        patched(_RUN, tag_offset(1), bytes([6])),
        f"truncated buffer: needed {RUN_KEYS[1]} bytes",
    ),
    RunCase(
        "run_013_unknown_tag",
        patched(_RUN, tag_offset(2), bytes([0xEE])),
        "unknown label tag 238",
    ),
    RunCase(
        "run_014_repeated_int_key",
        patched(
            _RUN, tag_offset(1), _RUN[tag_offset(0) : tag_offset(0) + 9]
        ),
        f"invalid sketch state: Poisson state repeats key {RUN_KEYS[0]}",
    ),
    RunCase(
        "run_015_engine_header_coordinated_byte_above_1",
        patched(
            to_bytes(coordinated_engine(True)),
            flag_offset(coordinated_engine),
            bytes([7]),
        ),
        "coordinated flag must be 0 or 1, got 7",
    ),
    RunCase(
        "run_016_sketch_coordinated_byte_above_1",
        patched(
            to_bytes(coordinated_sketch(True)),
            flag_offset(coordinated_sketch),
            bytes([7]),
        ),
        "coordinated flag must be 0 or 1, got 7",
    ),
]


@pytest.mark.parametrize("case", RUN_CASES, ids=[case.id for case in RUN_CASES])
def test_run_case(case):
    if case.error is None:
        assert to_bytes(from_bytes(case.blob)) == case.blob
    else:
        with pytest.raises(SketchCodecError, match=re.escape(case.error)):
            from_bytes(case.blob)
