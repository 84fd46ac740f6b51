"""The :class:`IngestRequest` funnel.

Every write path into :class:`SketchStore` flows through one
``submit(IngestRequest)`` entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.store import IngestRequest, SketchStore
from repro.streaming import StreamEngine
from repro.wal import WriteAheadLog, recover_store

from ingest_helper import ingest


def build_store(kind="bottom_k", **kwargs):
    store = SketchStore()
    defaults = {
        "seed_assigner": SeedAssigner(salt=5, coordinated=True),
        "n_shards": 4,
    }
    defaults.update(kwargs)
    if kind == "bottom_k":
        defaults.setdefault("k", 48)
    else:
        defaults.setdefault("threshold", 0.4)
    store.create("traffic", kind, **defaults)
    return store


#: a one-row batch, for requests whose batch does not matter
ONE_ROW = ("mon", [1], [1.0])


def make_columns(n=400, seed=0):
    generator = np.random.default_rng(seed)
    keys = generator.choice(10**8, size=n, replace=False)
    values = generator.random(n) * 10.0 + 0.01
    return keys, values


class TestIngestRequestValidation:
    def test_defaults(self):
        request = IngestRequest(engine="traffic")
        assert request.batches == ()
        assert request.version is None
        assert request.coalesce

    def test_engine_must_be_nonempty_string(self):
        with pytest.raises(ValueError, match="engine"):
            IngestRequest(engine="")
        with pytest.raises(ValueError, match="engine"):
            IngestRequest(engine=None)  # type: ignore[arg-type]

    def test_batches_normalized_to_triples(self):
        keys, values = make_columns(8)
        request = IngestRequest(
            engine="traffic", batches=[("mon", keys, values)]
        )
        assert isinstance(request.batches, tuple)
        ((instance, got_keys, got_values),) = request.batches
        assert instance == "mon"
        assert got_keys is keys and got_values is values

    def test_malformed_batches_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            IngestRequest(engine="traffic", batches=[("mon", [1, 2])])

    def test_forced_version_requires_exactly_one_batch(self):
        keys, values = make_columns(4)
        batch = ("mon", keys, values)
        IngestRequest(engine="traffic", batches=[batch], version=3)
        with pytest.raises(ValueError, match="version"):
            IngestRequest(
                engine="traffic", batches=[batch, batch], version=3
            )
        with pytest.raises(ValueError, match="version"):
            IngestRequest(engine="traffic", batches=(), version=3)

    def test_ingest_request_001_unhashable_instance_rejected(self):
        keys, values = make_columns(4)
        store = build_store()
        with pytest.raises(InvalidParameterError, match="instance must be hashable"):
            store.submit(
                IngestRequest(
                    engine="traffic",
                    batches=[("mon", keys, values), (["x"], [1], [1.0])],
                )
            )
        assert store.version("traffic") == 0

    def test_ingest_request_002_fractional_version_refused(self):
        with pytest.raises(InvalidParameterError, match="version must be"):
            IngestRequest(engine="traffic", batches=[ONE_ROW], version=1.5)

    def test_ingest_request_003_bool_version_refused(self):
        with pytest.raises(InvalidParameterError, match="version must be"):
            IngestRequest(engine="traffic", batches=[ONE_ROW], version=True)

    def test_ingest_request_004_string_version_refused(self):
        with pytest.raises(InvalidParameterError, match="version must be"):
            IngestRequest(engine="traffic", batches=[ONE_ROW], version="2")

    def test_ingest_request_005_zero_version_refused(self):
        with pytest.raises(InvalidParameterError, match="version must be"):
            IngestRequest(engine="traffic", batches=[ONE_ROW], version=0)

    def test_ingest_request_006_store_and_log_agree_on_the_version(self, tmp_path):
        store = build_store()
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        store.attach_wal(wal)
        try:
            store.submit(
                IngestRequest(engine="traffic", batches=[ONE_ROW], version=np.int64(2))
            )
            (record,) = wal.read_all()[0]
        finally:
            wal.close()
        assert type(store.version("traffic")) is int
        assert store.version("traffic") == record.version == 2

    @pytest.mark.parametrize(
        "field, value", [("source", "http"), ("wal_bypass", True)]
    )
    def test_removed_fields_are_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            IngestRequest(engine="traffic", **{field: value})

    def test_frozen(self):
        request = IngestRequest(engine="traffic")
        with pytest.raises(AttributeError):
            request.engine = "other"  # type: ignore[misc]


class TestSubmit:
    def test_empty_submit_returns_current_version(self):
        store = build_store()
        assert store.submit(IngestRequest(engine="traffic")) == 0

    def test_submit_rejects_non_request(self):
        store = build_store()
        with pytest.raises(ValueError, match="IngestRequest"):
            store.submit({"engine": "traffic"})  # type: ignore[arg-type]

    def test_version_forced_submit_applies_once(self):
        keys, values = make_columns(120)
        store = build_store()
        replay = IngestRequest(
            engine="traffic",
            batches=[("mon", keys, values)],
            version=1,
        )
        assert store.submit(replay) == 1
        before = codec.to_bytes(store.engine("traffic"))
        # an already-applied version is the caller's skip-check to make;
        # the store refuses rather than double-counting
        with pytest.raises(ValueError, match="already at"):
            store.submit(replay)
        assert codec.to_bytes(store.engine("traffic")) == before

    @pytest.mark.parametrize(
        "keys, values, message",
        [
            (["a", "b", "c"], [1.0, -2.0, 3.0], "values must be nonnegative"),
            (
                ["a", "b", "c"],
                [1.0, float("nan"), 3.0],
                "must be finite, got nan at row 1",
            ),
            (["a", ["x"], "c"], [1.0, 2.0, 3.0], "must be hashable, got list at row 1"),
            (
                np.array(["a", "b", {}], dtype=object),
                [1.0, 2.0, 3.0],
                "must be hashable, got dict at row 2",
            ),
        ],
        ids=["negative", "nan", "unhashable", "unhashable-object-column"],
    )
    def test_bad_batch_gets_its_message_and_changes_nothing(
        self, keys, values, message
    ):
        store = build_store()
        engine = store.engine("traffic")

        def state():
            return codec.to_bytes(engine), engine.probe(), engine.instance_labels

        before = state()
        with pytest.raises(InvalidParameterError, match=message):
            ingest(store, "traffic", "mon", keys, values)
        assert store.version("traffic") == 0
        assert state() == before

    def test_each_group_is_validated_once(self, monkeypatch, tmp_path):
        checked = []
        check = StreamEngine.checked_columns

        def spy(keys, values):
            checked.append(len(keys))
            return check(keys, values)

        monkeypatch.setattr(StreamEngine, "checked_columns", staticmethod(spy))
        keys, values = make_columns(120)
        request = IngestRequest(
            engine="traffic",
            batches=[("mon", keys, values), ("tue", keys[:30], values[:30])],
        )
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        try:
            store = SketchStore()
            store.attach_wal(wal)
            store.create("traffic", "poisson", threshold=0.4, n_shards=4)
            assert store.submit(request) == 2
            assert checked == [120, 30]
            checked.clear()
            replayed = recover_store(None, wal).store  # one submit per record
            assert checked == [120, 30]
        finally:
            wal.close()
        engines = [codec.to_bytes(s.engine("traffic")) for s in (store, replayed)]
        assert engines[0] == engines[1]
        # a direct call of the planner still validates its columns
        with pytest.raises(InvalidParameterError, match="must be finite"):
            store.engine("traffic").ingest_jobs("mon", [1], [float("inf")])


def _submit_outcome(batches, coalesce):
    """Engine bytes after one request, or the refusal's message."""
    store = SketchStore()
    store.create("e", "poisson", threshold=1.0, n_shards=1)
    try:
        store.submit(
            IngestRequest(engine="e", batches=batches, coalesce=coalesce)
        )
    except InvalidParameterError as exc:
        return f"refused: {exc}"
    return codec.to_bytes(store.engine("e"))


class TestCoalescingKeepsKeys:
    """Coalescing one instance's batches must not change a key or an
    error: NumPy promotes mixed dtypes when it concatenates columns."""

    def assert_coalescing_is_invisible(self, batches):
        coalesced = _submit_outcome(batches, coalesce=True)
        assert coalesced == _submit_outcome(batches, coalesce=False)
        return coalesced

    def test_coalesce_001_int64_and_uint64_keys_stay_ints(self):
        outcome = self.assert_coalescing_is_invisible(
            (
                ("a", np.array([2**62 + 1], dtype=np.int64), [1.0]),
                ("a", np.array([5], dtype=np.uint64), [2.0]),
            )
        )
        # not the float64 keys 4.611686018427388e+18 and 5.0
        assert codec.from_bytes(outcome).sketch("a")._values == {
            2**62 + 1: 1.0,
            5: 2.0,
        }

    def test_coalesce_002_int64_and_str_keys_stay_apart(self):
        self.assert_coalescing_is_invisible(
            (
                ("a", np.array([2**62 + 1, 7], dtype=np.int64), [1.0, 3.0]),
                ("a", np.array(["7", "x"]), [2.0, 4.0]),
            )
        )

    def test_coalesce_003_a_2d_key_column_is_refused_as_alone(self):
        outcome = self.assert_coalescing_is_invisible(
            (
                ("a", np.array([1], dtype=np.int64), [1.0]),
                ("a", np.array([[2]], dtype=np.int64), [2.0]),
            )
        )
        assert outcome == "refused: a key column must be 1-D, got shape (1, 1)"

    def test_coalesce_004_one_dtype_still_concatenates(self):
        self.assert_coalescing_is_invisible(
            (
                ("a", np.array([1, 2], dtype=np.int64), [1.0, 2.0]),
                ("a", np.array([3], dtype=np.int64), [3.0]),
                ("b", np.array([4], dtype=np.int64), [4.0]),
            )
        )

    def test_coalesce_005_misaligned_batches_are_refused_as_alone(self):
        # equal totals, but the second key would take the third value
        outcome = self.assert_coalescing_is_invisible(
            (
                ("a", [1, 2], [1.0]),
                ("a", [3], [2.0, 3.0]),
            )
        )
        assert outcome == "refused: keys and values must have matching length"

    def test_coalesce_006_a_2d_value_column_is_refused_as_alone(self):
        outcome = self.assert_coalescing_is_invisible(
            (
                ("a", np.array([1], dtype=np.int64), [1.0]),
                ("a", np.array([2], dtype=np.int64), [[2.0]]),
            )
        )
        assert outcome == "refused: keys and values must have matching length"

