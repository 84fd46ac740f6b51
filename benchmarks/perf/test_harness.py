"""Tests of the benchmark harness itself; no server is started.

Run with ``python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

import harness  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import schema  # noqa: E402
import workloads as wl  # noqa: E402
from repro.obs.trace import SpanRecord  # noqa: E402
from repro.service import codec  # noqa: E402
from repro.service.store import IngestRequest  # noqa: E402

SPEC = schema.load_spec(ROOT / "BENCHMARK.json")


def _output(group: str) -> dict:
    """A run's output carrying every metric of ``group``."""
    return {
        entry["name"]: {"value": 1.0, "unit": entry["unit"]} for entry in SPEC[group]
    }


class TestSchema:
    def test_benchmark_json_meets_the_contract(self):
        assert schema.check_spec(SPEC, layers.declared_metrics()) == []

    @pytest.mark.parametrize("group", ["end_to_end", "per_layer"])
    def test_complete_output_passes(self, group):
        assert schema.check_metrics(SPEC, group, _output(group)) == []

    @pytest.mark.parametrize("group", ["end_to_end", "per_layer"])
    def test_deleting_a_metric_fails_the_check(self, group):
        for entry in SPEC[group]:
            output = _output(group)
            del output[entry["name"]]
            errors = schema.check_metrics(SPEC, group, output)
            assert errors == [f"metric {entry['name']!r} is missing"]

    def test_non_finite_value_fails_the_check(self):
        output = _output("end_to_end")
        output["setup_s"]["value"] = float("nan")
        assert schema.check_metrics(SPEC, "end_to_end", output)

    def test_bad_name_is_refused(self):
        spec = json.loads(json.dumps(SPEC))
        spec["end_to_end"][1]["name"] = "requests per s"
        errors = schema.check_spec(spec, layers.declared_metrics())
        assert any("bad name" in error for error in errors)

    def test_caps_are_enforced(self):
        spec = json.loads(json.dumps(SPEC))
        spec["workloads"] = [
            {"name": f"w{index}", "why": "x"}
            for index in range(schema.MAX_WORKLOADS + 1)
        ]
        errors = schema.check_spec(spec, layers.declared_metrics())
        assert any("the cap is 8" in error for error in errors)

    def test_undeclared_per_layer_metric_is_refused(self):
        spec = json.loads(json.dumps(SPEC))
        spec["per_layer"].append(
            {"name": "mystery.calls", "unit": "count", "better": "higher"}
        )
        errors = schema.check_spec(spec, layers.declared_metrics())
        assert any("declares no end-to-end metric" in error for error in errors)

    def test_declaration_must_name_a_known_workload(self):
        declared = dict(layers.declared_metrics())
        unit, better, moves, _ = declared["decode.rbat.calls"]
        declared["decode.rbat.calls"] = (unit, better, moves, "nowhere")
        errors = schema.check_spec(SPEC, declared)
        assert errors == [
            "'decode.rbat.calls' moves them on unknown workload 'nowhere'"
        ]


class TestSeededInputs:
    """The same seed gives byte-identical inputs; another seed does not."""

    @staticmethod
    def _inputs(seed: int) -> list:
        return [
            wl.binary_body(seed, 0),
            wl.binary_body(seed, 5),
            wl.json_body(seed, 3),
            b"".join(
                np.concatenate(wl.hour_columns(seed, hour)[1:]).tobytes()
                for hour in (0, 7)
            ),
            repr(wl.query_cold_order(seed)).encode(),
            repr(wl.checked_positions(seed, 5000, 100)).encode(),
        ]

    def test_same_seed_same_inputs(self):
        assert self._inputs(12345) == self._inputs(12345)

    def test_different_seed_different_inputs(self):
        first, second = self._inputs(12345), self._inputs(12346)
        for index, (a, b) in enumerate(zip(first, second)):
            assert a != b, f"input {index} ignores the seed"

    def test_keys_are_distinct_across_bodies(self):
        keys = np.concatenate(
            [keys for index in range(4) for _, keys, _ in wl.binary_batches(3, index)]
        )
        assert np.unique(keys).size == keys.size

    def test_query_cold_outgrows_the_result_cache(self):
        order = wl.query_cold_order(0)
        assert len(set(order)) == len(order) > 1024


class TestCanonicalBytes:
    def test_order_of_ingest_changes_codec_bytes_but_not_canonical_bytes(self):
        batches = wl.binary_batches(0, 0)
        forward = harness._new_store(wl.BENCH_ENGINE)
        backward = harness._new_store(wl.BENCH_ENGINE)
        name = wl.BENCH_ENGINE["name"]
        for batch in batches:
            forward.submit(IngestRequest(engine=name, batches=(batch,)))
        for batch in reversed(batches):
            backward.submit(IngestRequest(engine=name, batches=(batch,)))
        one, other = forward.engine(name), backward.engine(name)
        assert codec.to_bytes(one) != codec.to_bytes(other)
        assert harness.canonical_bytes(one) == harness.canonical_bytes(other)

    def test_a_missing_row_changes_canonical_bytes(self):
        name = wl.BENCH_ENGINE["name"]
        batches = wl.binary_batches(0, 0)
        full = harness._new_store(wl.BENCH_ENGINE)
        full.submit(IngestRequest(engine=name, batches=tuple(batches)))
        short = harness._new_store(wl.BENCH_ENGINE)
        instance, keys, values = batches[0]
        trimmed = ((instance, keys[1:], values[1:]),) + tuple(batches[1:])
        short.submit(IngestRequest(engine=name, batches=trimmed))
        assert harness.canonical_bytes(full.engine(name)) != harness.canonical_bytes(
            short.engine(name)
        )


class TestLedger:
    def test_self_time_excludes_children(self):
        recorder = ledger.LedgerRecorder()
        recorder.phase = ledger.WINDOW
        recorder.record(SpanRecord("t1", "store.submit", "http.request", 0.0, 0.004))
        recorder.record(SpanRecord("t1", "http.request", None, 0.0, 0.010))
        window = recorder.to_json()["window"]
        assert window["http.request"]["self_seconds"] == pytest.approx(0.006)
        assert window["store.submit"]["self_seconds"] == pytest.approx(0.004)

    def test_spans_outside_the_window_are_not_counted(self):
        recorder = ledger.LedgerRecorder()
        recorder.record(SpanRecord(None, "codec.decode", None, 0.0, 0.5))
        recorder.phase = ledger.AFTER
        recorder.record(SpanRecord("t", "http.request", None, 0.0, 0.5))
        dumped = recorder.to_json()
        assert dumped["boot"]["codec.decode"]["calls"] == 1
        assert dumped["window"] == {}

    def test_every_span_metric_is_derived(self):
        recorder = ledger.LedgerRecorder()
        recorder.record(SpanRecord(None, "codec.decode", None, 0.0, 0.2))
        recorder.phase = ledger.WINDOW
        recorder.record(SpanRecord("t", "http.request", None, 0.0, 0.01))
        metrics = ledger.layer_metrics(recorder.to_json(), setup_seconds=1.0)
        expected = {
            f"{layer.span}.{suffix}"
            for layer in layers.LAYERS
            for suffix, _, _ in layers.SPAN_METRICS
        }
        expected |= {
            "http.request.calls",
            "http.request.p50_us",
            "http.request.p99_us",
            "unattributed_share",
        }
        assert set(metrics) == expected
        assert metrics["codec.decode.self_share"] == pytest.approx(0.2)
        assert metrics["decode.rbat.calls"] == 0
        assert metrics["unattributed_share"] == pytest.approx(1.0)

    def test_every_declared_metric_has_a_source(self):
        idle = _pass_result(ledger={"boot": {}, "window": {}})
        assert set(harness.per_layer(idle, idle)) == set(layers.declared_metrics())
        assert set(harness.end_to_end(idle)) == {
            entry["name"] for entry in SPEC["end_to_end"]
        }

    def test_timings_scale_with_the_probe_speed(self):
        result = _pass_result(
            import_seconds=[harness.REFERENCE_IMPORT_SECONDS * 2],
            window_speed=harness.REFERENCE_SPEED * 2,
        )
        values = harness.end_to_end(result)
        assert values["setup_s"] == pytest.approx(1.0)
        assert values["requests_per_s"] == pytest.approx(0.5)
        assert values["latency_p50_ms"] == pytest.approx(20.0)
        assert values["peak_rss_mb"] == 100.0


def _pass_result(**fields) -> "harness.PassResult":
    """A pass of one 10 ms request in a 1 s window, 2 s setup, 100 MiB."""
    sample = harness.Sample("query", None, harness.WINDOW, 0.01, 1.0, 200, 0)
    defaults = {
        "setup_seconds": [2.0],
        "load": harness.Load(samples=[sample], window_seconds=1.0),
        "peak_rss_mib": 100.0,
        "checks": 0,
        "mismatches": [],
        "ledger": None,
        "import_seconds": [harness.REFERENCE_IMPORT_SECONDS],
        "window_speed": harness.REFERENCE_SPEED,
        "step_seconds": {},
    }
    return harness.PassResult(**{**defaults, **fields})
