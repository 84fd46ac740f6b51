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
    def test_submit_multi_batch_bumps_version_per_batch(self):
        store = build_store()
        keys, values = make_columns(300)
        request = IngestRequest(
            engine="traffic",
            batches=[
                ("mon", keys[:150], values[:150]),
                ("tue", keys[150:], values[150:]),
            ],
            coalesce=False,
        )
        version = store.submit(request)
        assert version == store.version("traffic") == 2

    def test_submit_coalesces_same_instance_batches(self):
        keys, values = make_columns(300)
        split = build_store()
        split.submit(
            IngestRequest(
                engine="traffic",
                batches=[
                    ("mon", keys[:100], values[:100]),
                    ("mon", keys[100:], values[100:]),
                ],
                coalesce=True,
            )
        )
        # one coalesced application: a single version bump
        assert split.version("traffic") == 1
        whole = build_store()
        ingest(whole, "traffic", "mon", keys, values)
        assert codec.to_bytes(split.engine("traffic")) == codec.to_bytes(
            whole.engine("traffic")
        )

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

