"""Property-based and adversarial suite for the binary batch format.

Two contracts:

* **round-trip exactness** — for arbitrary mixes of key types (NumPy
  integer columns, plain ints, strings, heterogeneous codec labels) and
  batch sizes including empty, ``decode_batches(encode_batches(b))``
  reproduces every batch, and ingesting the decoded columns yields a
  sketch state bit-identical to ingesting the originals;
* **no undefined failure modes** — truncated, garbage, bad-magic,
  future-version, wrong-tag and non-finite payloads raise the typed
  :class:`~repro.exceptions.SketchCodecError` (never ``struct.error``
  or a stray ``UnicodeDecodeError``), and encoding rejects malformed
  batches before writing anything.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SketchCodecError
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.store import IngestRequest, SketchStore, _coalesce_batches
from repro.server.wire import (
    MAGIC,
    WIRE_VERSION,
    WireBatch,
    decode_batches,
    encode_batches,
)
from repro.streaming.engine import StreamEngine

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

labels = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**25), max_value=10**25),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=6),
    st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=3)),
)
finite_values = st.floats(min_value=0.0, max_value=1e12)


@st.composite
def key_columns(draw):
    """One key column in any of the encodable shapes."""
    shape = draw(st.sampled_from(["i64_array", "int_list", "str_list", "mixed"]))
    n = draw(st.integers(min_value=0, max_value=30))
    if shape == "i64_array":
        column = draw(
            st.lists(
                st.integers(min_value=I64_MIN, max_value=I64_MAX),
                min_size=n,
                max_size=n,
            )
        )
        return np.array(column, dtype=np.int64)
    if shape == "int_list":
        return draw(
            st.lists(
                st.integers(min_value=-(10**25), max_value=10**25),
                min_size=n,
                max_size=n,
            )
        )
    if shape == "str_list":
        return draw(st.lists(st.text(max_size=8), min_size=n, max_size=n))
    return draw(st.lists(labels, min_size=n, max_size=n))


@st.composite
def batch_lists(draw):
    columns = draw(st.lists(key_columns(), max_size=5))
    batches = []
    for keys in columns:
        values = draw(
            st.lists(finite_values, min_size=len(keys), max_size=len(keys))
        )
        instance = draw(labels)
        batches.append((instance, keys, np.asarray(values, dtype=float)))
    return batches


def normalize_keys(keys):
    return [
        key.tolist() if isinstance(key, np.integer) else key for key in keys
    ]


def decoded_keys(keys):
    """A key column as the type it decodes to: an ``<i8`` array for a
    column the encoder writes as ``i64``, else a list of its keys."""
    if isinstance(keys, np.ndarray) or (
        keys and all(type(key) is int and I64_MIN <= key <= I64_MAX for key in keys)
    ):
        return np.asarray(keys, dtype=np.int64)
    return list(keys)


def coalesced(batches) -> list:
    """What :func:`decode_batches` must return for ``batches`` sent in
    one body: the groups the store coalesces from the input columns,
    each key column taken as the type it decodes to."""
    return _coalesce_batches(
        (instance, decoded_keys(keys), np.asarray(values, dtype=float))
        for instance, keys, values in batches
    )


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(batch_lists())
    def test_batches_round_trip_exactly(self, batches):
        decoded = decode_batches(encode_batches(batches))
        expected = coalesced(batches)
        assert len(decoded) == len(expected)
        for (instance, keys, values), batch in zip(expected, decoded):
            assert isinstance(batch, WireBatch)
            assert batch.instance == instance
            assert normalize_keys(batch.keys) == normalize_keys(keys)
            assert np.array_equal(batch.values, values)

    def test_empty_payload_round_trips(self):
        assert decode_batches(encode_batches([])) == []

    def test_empty_batch_round_trips(self):
        (batch,) = decode_batches(encode_batches([("d", [], [])]))
        assert batch.instance == "d"
        assert len(batch.keys) == 0
        assert batch.values.size == 0

    def test_i64_column_decodes_as_numpy(self):
        keys = np.array([5, -3, I64_MAX, I64_MIN], dtype=np.int64)
        (batch,) = decode_batches(
            encode_batches([(1, keys, np.ones(4))])
        )
        assert isinstance(batch.keys, np.ndarray)
        assert batch.keys.dtype == np.dtype("<i8")
        assert np.array_equal(batch.keys, keys)

    def test_plain_int_list_uses_flat_column(self):
        # ints within i64 take the flat path and decode as an array
        (batch,) = decode_batches(
            encode_batches([("d", [1, 2, 3], [1.0, 2.0, 3.0])])
        )
        assert isinstance(batch.keys, np.ndarray)

    def test_oversized_ints_fall_back_to_tagged(self):
        keys = [2**80, -(2**90), 7]
        (batch,) = decode_batches(
            encode_batches([("d", keys, np.ones(3))])
        )
        assert list(batch.keys) == keys

    def test_uint64_column_beyond_i64_falls_back(self):
        keys = np.array([2**63 + 5, 1], dtype=np.uint64)
        (batch,) = decode_batches(
            encode_batches([("d", keys, np.ones(2))])
        )
        assert normalize_keys(batch.keys) == [2**63 + 5, 1]

    def test_bools_are_not_flattened_to_ints(self):
        # bool is an int subclass; the tagged union must preserve it
        (batch,) = decode_batches(
            encode_batches([("d", [True, False, 1], np.ones(3))])
        )
        assert batch.keys == [True, False, 1]
        assert isinstance(batch.keys[0], bool)

    @settings(max_examples=40, deadline=None)
    @given(batch_lists())
    def test_ingest_parity_with_original_columns(self, batches):
        def build(feed):
            engine = StreamEngine.bottom_k(
                k=8, seed_assigner=SeedAssigner(salt=3), n_shards=2
            )
            feed(engine)
            return engine

        direct = build(
            lambda engine: [
                engine.ingest(instance, list(keys), np.asarray(values))
                for instance, keys, values in batches
            ]
        )
        via_wire = build(
            lambda engine: [
                engine.ingest(batch.instance, batch.keys, batch.values)
                for batch in decode_batches(encode_batches(batches))
            ]
        )
        assert direct == via_wire


class TestEncodeValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SketchCodecError, match="2 keys but 1 values"):
            encode_batches([("d", ["a", "b"], [1.0])])

    def test_generator_keys_length_checked(self):
        with pytest.raises(SketchCodecError, match="keys but"):
            encode_batches([("d", (key for key in "abc"), [1.0])])

    def test_2d_keys_rejected(self):
        with pytest.raises(SketchCodecError, match="1-D"):
            encode_batches([("d", np.zeros((2, 2), dtype=np.int64), [1.0, 2.0])])

    def test_2d_values_rejected(self):
        with pytest.raises(SketchCodecError, match="1-D"):
            encode_batches([("d", [1, 2, 3, 4], np.zeros((2, 2)))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(SketchCodecError, match="non-finite"):
            encode_batches([("d", [1, 2], [1.0, bad])])

    def test_bad_batch_reported_with_index(self):
        with pytest.raises(SketchCodecError, match="batch 1"):
            encode_batches(
                [("ok", [1], [1.0]), ("bad", [2], [float("nan")])]
            )


def valid_blob() -> bytes:
    return encode_batches(
        [
            ("mon", np.arange(4, dtype=np.int64), np.ones(4)),
            (2, ["a", "b"], [0.5, 1.5]),
            ("tue", [None, (1, "x")], [1.0, 2.0]),
        ]
    )


class TestDecodeFuzz:
    def test_bad_magic(self):
        with pytest.raises(SketchCodecError, match="magic"):
            decode_batches(b"NOPE" + valid_blob()[4:])

    def test_unsupported_version(self):
        blob = bytearray(valid_blob())
        blob[4:6] = struct.pack("<H", WIRE_VERSION + 1)
        with pytest.raises(SketchCodecError, match="version"):
            decode_batches(bytes(blob))

    def test_every_truncation_is_typed(self):
        blob = valid_blob()
        for cut in range(len(blob)):
            with pytest.raises(SketchCodecError):
                decode_batches(blob[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SketchCodecError):
            decode_batches(valid_blob() + b"\x00")

    def test_unknown_key_tag(self):
        blob = encode_batches([("d", [1], [1.0])])
        # the key tag is the byte right after the instance label
        offset = blob.index(b"d") + 1
        mutated = blob[:offset] + bytes([200]) + blob[offset + 1 :]
        with pytest.raises(SketchCodecError, match="key tag"):
            decode_batches(mutated)

    def test_corrupt_utf8_keys_are_typed(self):
        blob = bytearray(encode_batches([("d", ["ab"], [1.0])]))
        position = bytes(blob).index(b"ab")
        blob[position] = 0xFF
        with pytest.raises(SketchCodecError, match="utf-8"):
            decode_batches(bytes(blob))

    def test_smuggled_nan_rejected_at_decode(self):
        # bypass the encoder's check by patching the value bytes directly
        blob = bytearray(encode_batches([("d", [1, 2], [1.0, 2.0])]))
        blob[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(SketchCodecError, match="non-finite"):
            decode_batches(bytes(blob))

    def test_smuggled_infinity_rejected_at_decode(self):
        blob = bytearray(encode_batches([("d", [1], [1.0])]))
        blob[-8:] = struct.pack("<d", float("inf"))
        with pytest.raises(SketchCodecError, match="non-finite"):
            decode_batches(bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200))
    def test_garbage_never_escapes_the_typed_error(self, data):
        try:
            decode_batches(MAGIC + data)
        except SketchCodecError:
            pass

    def test_magic_matches_codec_conventions(self):
        assert len(MAGIC) == 4
        assert valid_blob()[:4] == MAGIC


#: a body that takes every decode path: batch 0 has an int instance and an
#: ``i64`` key column, batch 1 is empty under a str instance, batch 2 has
#: ``utf-8`` str keys and batch 3 a tuple key in the tagged union
RBAT_MIXED = [
    (7, np.array([5, -3], dtype=np.int64), [1.0, 2.0]),
    ("mon", np.array([], dtype=np.int64), []),
    ("tue", ["a", "bc"], [0.5, 1.5]),
    ("wed", [(1, "x")], [2.5]),
]

#: every read that decoding ``RBAT_MIXED`` makes, as ``(offset, size)``:
#: cutting the body inside one of them fails that read and no earlier one
RBAT_MIXED_READS = (
    (0, 4), (4, 2), (6, 4),  # magic, version, n_batches
    (10, 1), (11, 8), (19, 1), (20, 8), (28, 16), (44, 16),  # batch 0
    (60, 1), (61, 8), (69, 3), (72, 1), (73, 8),  # batch 1, no rows
    (81, 1), (82, 8), (90, 3), (93, 1), (94, 8),  # batch 2 header
    (102, 8), (110, 3), (113, 16),  # key lengths, key bytes, values
    (129, 1), (130, 8), (138, 3), (141, 1), (142, 8),  # batch 3 header
    (150, 1), (151, 4), (155, 1), (156, 8),  # tuple tag, arity, int item
    (164, 1), (165, 8), (173, 1), (174, 8),  # str item, values
)

NOT_UTF8 = (
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)


def mixed_body(*patches: tuple[int, bytes], cut=None, tail=b"") -> bytes:
    """``RBAT_MIXED`` encoded, with ``(offset, bytes)`` overwritten,
    then cut to ``cut`` bytes and ``tail`` appended."""
    body = bytearray(encode_batches(RBAT_MIXED))
    for offset, data in patches:
        body[offset : offset + len(data)] = data
    return bytes(body[:cut]) + tail


def f64(value: float) -> bytes:
    return struct.pack("<d", value)


def decode_error(body: bytes) -> str:
    with pytest.raises(SketchCodecError) as info:
        decode_batches(body)
    return str(info.value)


class TestGoldenMessages:
    """Every error text of the mixed body, pinned word for word.

    The finiteness pass runs once per body, yet a body with a non-finite
    value and a later defect (a truncation, an unknown tag, trailing
    bytes) reports the non-finite value, as reading batch by batch
    would (``rbat_013``).
    """

    def test_rbat_001_mixed_body_decodes(self):
        decoded = decode_batches(mixed_body())
        assert [batch.instance for batch in decoded] == [7, "mon", "tue", "wed"]
        assert decoded[0].keys.tolist() == [5, -3]
        assert decoded[1].keys.dtype == np.dtype("<i8")
        assert len(decoded[1].keys) == 0
        assert decoded[2].keys == ["a", "bc"]
        assert decoded[3].keys == [(1, "x")]

    def test_rbat_002_reads_tile_the_body(self):
        ends = [offset + size for offset, size in RBAT_MIXED_READS]
        starts = [offset for offset, _ in RBAT_MIXED_READS]
        assert starts == [0] + ends[:-1]
        assert ends[-1] == len(mixed_body())

    def test_rbat_003_every_cut(self):
        for offset, size in RBAT_MIXED_READS:
            for cut in range(offset, offset + size):
                assert decode_error(mixed_body(cut=cut)) == (
                    f"truncated buffer: needed {size} bytes at offset "
                    f"{offset}, only {cut - offset} left"
                )

    def test_rbat_004_bad_magic(self):
        assert decode_error(mixed_body((0, b"RBAX"))) == (
            "bad magic b'RBAX': not a repro batch payload"
        )

    @pytest.mark.parametrize("version", [0, 2])
    def test_rbat_005_unsupported_versions(self, version):
        assert decode_error(mixed_body((4, struct.pack("<H", version)))) == (
            f"unsupported batch wire version {version}; this build reads "
            "versions 1..1"
        )

    @pytest.mark.parametrize(
        ("offset", "index"), [(19, 0), (72, 1), (93, 2), (141, 3)]
    )
    def test_rbat_006_unknown_key_tag(self, offset, index):
        assert decode_error(mixed_body((offset, b"\x09"))) == (
            f"batch {index}: unknown key tag 9"
        )

    @pytest.mark.parametrize("offset", [10, 60, 81, 150])
    def test_rbat_007_unknown_label_tag(self, offset):
        # instance labels of batches 0-2, then batch 3's tuple key
        assert decode_error(mixed_body((offset, b"\x2a"))) == (
            "unknown label tag 42"
        )

    def test_rbat_008_corrupt_utf8_str_key(self):
        assert decode_error(mixed_body((111, b"\xff"))) == (
            f"batch 2: corrupt utf-8 key payload: {NOT_UTF8}"
        )

    @pytest.mark.parametrize("offset", [173, 69, 90])
    def test_rbat_009_corrupt_utf8_tagged_key_and_instances(self, offset):
        # the str inside batch 3's tuple key, then two instance labels
        assert decode_error(mixed_body((offset, b"\xff"))) == (
            f"corrupt string payload: {NOT_UTF8}"
        )

    @pytest.mark.parametrize(
        ("offset", "bad", "message"),
        [
            (52, float("nan"), "batch 0 (instance 7): non-finite update "
             "value nan at row 1"),
            (113, float("inf"), "batch 2 (instance 'tue'): non-finite "
             "update value inf at row 0"),
            (174, float("-inf"), "batch 3 (instance 'wed'): non-finite "
             "update value -inf at row 0"),
        ],
    )
    def test_rbat_010_non_finite_first_middle_last(self, offset, bad, message):
        assert decode_error(mixed_body((offset, f64(bad)))) == message

    def test_rbat_011_first_non_finite_batch_wins(self):
        body = mixed_body((44, f64(float("nan"))), (174, f64(float("inf"))))
        assert decode_error(body) == (
            "batch 0 (instance 7): non-finite update value nan at row 0"
        )

    def test_rbat_012_one_trailing_byte(self):
        assert decode_error(mixed_body(tail=b"\x00")) == (
            "1 trailing bytes after the payload"
        )

    @pytest.mark.parametrize(
        ("later", "defect"),
        [([], {"cut": 150}), ([], {"tail": b"\x00"}), ([(93, b"\x09")], {})],
    )
    def test_rbat_013_non_finite_reported_before_later_defect(
        self, later, defect
    ):
        body = mixed_body((52, f64(float("nan"))), *later, **defect)
        assert decode_error(body) == (
            "batch 0 (instance 7): non-finite update value nan at row 1"
        )

    @pytest.mark.parametrize(
        ("offset", "needed_at", "left"), [(20, 28, 154), (73, 81, 101)]
    )
    def test_rbat_014_i64_header_with_n_rows_near_2_64(
        self, offset, needed_at, left
    ):
        # batch 0 (int instance) and batch 1 (str instance) headers
        body = mixed_body((offset, struct.pack("<Q", 2**64 - 1)))
        assert decode_error(body) == (
            "truncated buffer: needed 147573952589676412920 bytes at "
            f"offset {needed_at}, only {left} left"
        )

    def test_rbat_015_instance_length_near_2_64(self):
        body = mixed_body((61, struct.pack("<Q", 2**64 - 1)))
        assert decode_error(body) == (
            "truncated buffer: needed 18446744073709551615 bytes at "
            "offset 69, only 113 left"
        )

    def test_rbat_016_batch_count_mismatch(self):
        assert decode_error(mixed_body((6, struct.pack("<I", 0)))) == (
            "172 trailing bytes after the payload"
        )
        assert decode_error(mixed_body((6, struct.pack("<I", 5)))) == (
            "truncated buffer: needed 1 bytes at offset 182, only 0 left"
        )


#: one instance's batches in every key encoding, an ``i64`` run split by
#: the others, so the decoder's join must keep each key's type
RBAT_ONE_INSTANCE = [
    ("mon", np.array([5, -3, 2**40], dtype=np.int64), [1.0, 2.0, 0.5]),
    ("mon", ["a", "bc"], [0.5, 1.5]),
    ("mon", [(1, "x"), 2**70, None, 2.5, True], [2.5, 1.0, 3.0, 0.25, 4.0]),
    ("mon", np.array([7, 5], dtype=np.int64), [1.0, 0.75]),
]
#: sha256 of ``codec.to_bytes`` of an engine of each config after one
#: submit of ``RBAT_ONE_INSTANCE`` as one body, as the version that
#: decoded one batch per batch and coalesced them in the store wrote it
RBAT_ONE_INSTANCE_ENGINES = (
    (
        {"kind": "poisson", "threshold": 0.9, "ranks": "uniform", "salt": 7},
        "1753dae808248de1b0d4cad9ba623d851650dffae65c3c341e29c000a81b34b9",
    ),
    (
        {"kind": "poisson", "threshold": 2.0, "ranks": "pps", "salt": 7},
        "4ef6c3a83c5a142056146524385795cd62a14e976fc10fad4147d1e59e4f793b",
    ),
    (
        {"kind": "bottom_k", "k": 6, "ranks": "exp", "salt": 7},
        "0ab7df345a99889ffabb80500e53bb784143cce88d0aa5f40338b654643d8ebe",
    ),
)


class TestInstanceGroups:
    """The decoder returns one batch per instance, in first-seen order."""

    def test_rbat_017_interleaved_i64_batches_join_per_instance(self):
        batches = [
            ("mon", np.array([1, 2], dtype=np.int64), [0.5, 1.0]),
            ("tue", np.array([3], dtype=np.int64), [1.5]),
            ("mon", np.array([-4], dtype=np.int64), [2.0]),
            ("tue", np.array([5, 2**62], dtype=np.int64), [2.5, 3.0]),
        ]
        mon, tue = decode_batches(encode_batches(batches))
        assert_same_batch(mon, "mon", np.array([1, 2, -4]), [0.5, 1.0, 2.0])
        assert_same_batch(tue, "tue", np.array([3, 5, 2**62]), [1.5, 2.5, 3.0])

    @pytest.mark.parametrize(("config", "digest"), RBAT_ONE_INSTANCE_ENGINES)
    def test_rbat_018_mixed_encodings_join_as_the_store_coalesces(self, config, digest):
        (batch,) = decode_batches(encode_batches(RBAT_ONE_INSTANCE))
        (group,) = coalesced(RBAT_ONE_INSTANCE)
        assert_same_batch(batch, *group)
        assert type(batch.keys[0]) is np.int64
        store = SketchStore()
        store.create_from_config({"name": "e", **config})
        store.submit(IngestRequest(engine="e", batches=(batch,)))
        engine_bytes = codec.to_bytes(store.engine("e"))
        assert hashlib.sha256(engine_bytes).hexdigest() == digest

    def test_rbat_019_zero_row_batch_keeps_its_instance(self):
        batches = [
            ("mon", np.array([1], dtype=np.int64), [0.5]),
            ("tue", np.array([], dtype=np.int64), []),
            ("mon", [], []),
            ("wed", ["a"], [1.0]),
            ("wed", [], []),
        ]
        mon, tue, wed = decode_batches(encode_batches(batches))
        assert_same_batch(mon, "mon", [np.int64(1)], [0.5])
        assert_same_batch(tue, "tue", np.array([], np.int64), [])
        assert_same_batch(wed, "wed", ["a"], [1.0])


    def test_rbat_020_every_label_tag_interleaved_over_200_batches(self):
        rng = np.random.default_rng(20)
        batches = []
        for index in range(200):
            n = int(rng.integers(0, 6))
            shape = index % 5
            if shape == 0:
                keys = rng.integers(-(2**40), 2**40, n)
            elif shape == 1:
                keys = [f"k{key}" for key in rng.integers(0, 50, n).tolist()]
            elif shape == 2:
                keys = rng.integers(0, 50, n).tolist()
            elif shape == 3:
                keys = [LABEL_TAGS[i] for i in rng.integers(0, 9, n).tolist()]
            else:
                keys = [2**70 + key for key in rng.integers(0, 50, n).tolist()]
            values = rng.random(n) * 4.0
            batches.append((LABEL_TAGS[index % 9], keys, values))
        decoded = decode_batches(encode_batches(batches))
        expected = coalesced(batches)
        assert [batch.instance for batch in decoded] == LABEL_TAGS
        assert len(decoded) == len(expected)
        for batch, group in zip(decoded, expected):
            assert_same_batch(batch, *group)

    def test_rbat_021_every_cut_of_the_last_of_200_batches(self):
        batches = [
            (("mon", "tue")[index % 2], np.arange(100) + 100 * index, np.ones(100))
            for index in range(200)
        ]
        body = encode_batches(batches)
        last = len(encode_batches(batches[:-1]))
        for cut in range(last, len(body)):
            message = field_by_field_error(body[:cut])
            assert message.startswith("truncated buffer: needed ")
            assert decode_error(body[:cut]) == message


#: one instance label of each tag of the codec's label union
LABEL_TAGS = [None, False, True, 7, 2**70, 2.5, "mon", b"\x00\xff", (1, "x")]


def field_by_field_error(body: bytes) -> str:
    """The error a read of an all-``i64`` body, one field per read, meets."""
    reader = codec.Reader(body)
    with pytest.raises(SketchCodecError) as info:
        reader.raw(4)
        reader.u16()
        for _ in range(reader.u32()):
            codec.read_label(reader)
            reader.u8()
            n_rows = reader.u64()
            reader.view(8 * n_rows)
            reader.view(8 * n_rows)
    return str(info.value)


#: three batches encoded by the version-1 encoder: a str instance with an
#: ``i64`` key column, an int instance with str keys, and a tuple instance
#: with tagged keys
FROZEN_BODY = bytes.fromhex(
    "524241540100030000000603000000000000006d6f6e01030000000000000001"
    "000000000000000000000000010000f9ffffffffffffff000000000000e03f00"
    "0000000000f03f00000000000002400303000000000000000202000000000000"
    "00010000000200000061c3a9000000000000f03f000000000000104008020000"
    "0006010000000000000078030100000000000000000300000000000000000204"
    "0900000000000000000000000000000040000000000000d03f00000000000000"
    "802be6708b68120000"
)
FROZEN_BATCHES = [
    ("mon", np.array([1, 2**40, -7], dtype=np.int64), [0.5, 1.0, 2.25]),
    (3, ["a", "é"], [1.0, 4.0]),
    (("x", 1), [None, True, 2**70], [0.25, -0.0, 1e-310]),
]


def assert_same_batch(decoded: WireBatch, instance, keys, values) -> None:
    """Equal instance and keys, down to their types, and bit-equal values."""
    assert type(decoded.instance) is type(instance)
    assert decoded.instance == instance
    values = np.asarray(values, dtype="<f8")
    assert decoded.values.dtype == np.dtype("<f8")
    assert decoded.values.tobytes() == values.tobytes()
    if isinstance(keys, np.ndarray) or (
        keys and all(type(key) is int and I64_MIN <= key <= I64_MAX for key in keys)
    ):
        assert isinstance(decoded.keys, np.ndarray)
        assert decoded.keys.dtype == np.dtype("<i8")
        assert decoded.keys.tolist() == list(np.asarray(keys).tolist())
    else:
        assert isinstance(decoded.keys, list)
        assert [type(key) for key in decoded.keys] == [type(key) for key in keys]
        assert decoded.keys == list(keys)


@st.composite
def interleaved_batches(draw):
    """Batches whose ``i64`` key column decodes as a view interleaved with
    batches in every other key encoding."""
    batches = []
    for i64_keys in draw(st.lists(st.booleans(), max_size=8)):
        n = draw(st.integers(min_value=0, max_value=12))
        if i64_keys:
            instance = draw(
                st.one_of(st.integers(I64_MIN, I64_MAX), st.text(max_size=6))
            )
            keys = np.array(
                draw(st.lists(st.integers(I64_MIN, I64_MAX), min_size=n, max_size=n)),
                dtype=np.int64,
            )
        else:
            instance = draw(labels)
            keys = draw(key_columns())
            n = len(keys)
        values = draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
        batches.append((instance, keys, values))
    return batches


class TestFormatFreeze:
    def test_wire_version_is_1(self):
        assert WIRE_VERSION == 1

    def test_encoder_writes_the_frozen_body(self):
        assert encode_batches(FROZEN_BATCHES) == FROZEN_BODY

    def test_frozen_body_decodes_to_its_columns(self):
        decoded = decode_batches(FROZEN_BODY)
        assert len(decoded) == len(FROZEN_BATCHES)
        for batch, expected in zip(decoded, FROZEN_BATCHES):
            assert_same_batch(batch, *expected)

    def test_i64_key_and_value_columns_are_read_only_views(self):
        body = encode_batches([("mon", np.arange(3, dtype=np.int64), [1.0] * 3)])
        (batch,) = decode_batches(body)
        for column in (batch.keys, batch.values):
            assert not column.flags.writeable
            assert np.shares_memory(column, np.frombuffer(body, np.uint8))

    @settings(max_examples=80, deadline=None)
    @given(interleaved_batches())
    def test_interleaved_key_encodings_round_trip_bit_for_bit(self, batches):
        decoded = decode_batches(encode_batches(batches))
        expected = coalesced(batches)
        assert len(decoded) == len(expected)
        for batch, group in zip(decoded, expected):
            assert_same_batch(batch, *group)
