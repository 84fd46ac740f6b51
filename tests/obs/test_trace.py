"""Tests of request-ID propagation, nested spans, and the trace ring."""

from __future__ import annotations

import contextvars
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import InvalidParameterError
from repro.obs import (
    TraceRecorder,
    current_request_id,
    current_span_name,
    new_request_id,
    request_context,
    span,
)


class TestRequestContext:
    def test_new_request_ids_are_distinct_hex(self):
        first, second = new_request_id(), new_request_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)  # parses as hex

    def test_binds_and_restores(self):
        assert current_request_id() is None
        with request_context("abc123") as bound:
            assert bound == "abc123"
            assert current_request_id() == "abc123"
        assert current_request_id() is None

    def test_generates_when_missing(self):
        with request_context() as bound:
            assert current_request_id() == bound
            assert len(bound) == 16

    def test_nested_contexts_unwind(self):
        with request_context("outer"):
            with request_context("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"

    def test_copy_context_carries_id_to_executor(self):
        # the server propagates request IDs onto worker threads with
        # contextvars.copy_context(); assert that mechanism works
        with request_context("threaded"):
            context = contextvars.copy_context()
            with ThreadPoolExecutor(max_workers=1) as pool:
                seen = pool.submit(context.run, current_request_id).result()
        assert seen == "threaded"


class TestSpan:
    def test_records_name_duration_and_trace_id(self):
        recorder = TraceRecorder(capacity=16)
        with request_context("req-1"):
            with span("store.ingest", recorder=recorder, rows=10):
                pass
        (record,) = recorder.recent()
        assert record.name == "store.ingest"
        assert record.trace_id == "req-1"
        assert record.parent is None
        assert record.duration_seconds >= 0.0
        assert record.attrs == {"rows": 10}

    def test_nesting_sets_parent(self):
        recorder = TraceRecorder(capacity=16)
        with span("http.request", recorder=recorder):
            assert current_span_name() == "http.request"
            with span("planner.query", recorder=recorder):
                assert current_span_name() == "planner.query"
        assert current_span_name() is None
        inner, outer = recorder.recent()
        assert inner.name == "planner.query"
        assert inner.parent == "http.request"
        assert outer.parent is None

    def test_mutable_attrs_annotated_mid_flight(self):
        recorder = TraceRecorder(capacity=16)
        with span("planner.query", recorder=recorder) as attrs:
            attrs["cache"] = "hit"
        (record,) = recorder.recent()
        assert record.attrs["cache"] == "hit"

    def test_error_spans_still_recorded(self):
        recorder = TraceRecorder(capacity=16)
        with pytest.raises(ValueError):
            with span("store.ingest", recorder=recorder):
                raise ValueError("boom")
        (record,) = recorder.recent()
        assert record.attrs["error"] == "ValueError"
        # the span name unwound despite the exception
        assert current_span_name() is None


class TestTraceRecorder:
    def test_ring_is_bounded(self):
        recorder = TraceRecorder(capacity=4)
        for index in range(10):
            with span(f"s{index}", recorder=recorder):
                pass
        assert len(recorder) == 4
        assert recorder.n_recorded == 10
        assert [r.name for r in recorder.recent()] == ["s6", "s7", "s8", "s9"]

    def test_recent_filters_by_name_and_bounds(self):
        recorder = TraceRecorder(capacity=16)
        for name in ("a", "b", "a", "b", "a"):
            with span(name, recorder=recorder):
                pass
        assert len(recorder.recent(name="a")) == 3
        assert len(recorder.recent(n=2, name="a")) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            TraceRecorder(capacity=0)

    def test_export_jsonl(self, tmp_path):
        recorder = TraceRecorder(capacity=16)
        with request_context("exported"):
            with span("a", recorder=recorder, rows=3):
                pass
        path = tmp_path / "spans.jsonl"
        assert recorder.export_jsonl(path) == 1
        (line,) = path.read_text().splitlines()
        payload = json.loads(line)
        assert payload["name"] == "a"
        assert payload["trace_id"] == "exported"
        assert payload["attrs"] == {"rows": 3}

    def test_clear(self):
        recorder = TraceRecorder(capacity=4)
        with span("a", recorder=recorder):
            pass
        recorder.clear()
        assert len(recorder) == 0

    def test_export_jsonl_is_safe_against_concurrent_recording(self, tmp_path):
        # Regression: export used to iterate the ring outside the recorder
        # lock, so a concurrent record() could rotate the deque mid-export.
        recorder = TraceRecorder(capacity=64)
        for index in range(64):
            with span(f"seed{index}", recorder=recorder, idx=index):
                pass

        stop = False

        def churn(worker: int) -> None:
            index = 0
            while not stop:
                with span(f"w{worker}", recorder=recorder, idx=index):
                    pass
                index += 1

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(churn, worker) for worker in range(3)]
            try:
                for round_ in range(20):
                    path = tmp_path / f"spans{round_}.jsonl"
                    exported = recorder.export_jsonl(path)
                    lines = path.read_text().splitlines()
                    assert len(lines) == exported
                    for line in lines:
                        payload = json.loads(line)  # every line is valid JSON
                        assert "name" in payload
            finally:
                stop = True
            for future in futures:
                future.result()
