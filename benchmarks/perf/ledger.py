"""The traced server's span ledger.

:func:`install` wraps every callable :data:`layers.LAYERS` names in a
:func:`repro.obs.trace.span`, replacing it at the place the program looks
it up, and swaps the process-wide trace recorder for a
:class:`LedgerRecorder`.  Spans therefore nest under the program's own
``http.request`` span and carry its request ID across executor threads,
through the contextvars the server already copies.

The recorder keeps no span records.  It folds each finished span into a
per-name aggregate — call count, total and self time (duration minus the
time of its child spans), and a :class:`~repro.obs.LatencyHistogram` —
separately for the boot phase and the timed window.  The benchmark marks
the window with ``SIGUSR1`` (start) and ``SIGUSR2`` (end); the signal
handlers only flip the phase number, which :meth:`LedgerRecorder.record`
reads, so they never take a lock the interrupted thread may hold.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import signal
import time

from repro.obs import LatencyHistogram
from repro.obs import trace
from repro.obs.trace import SpanRecord, TraceRecorder, current_span_name, span

from layers import LAYERS

BOOT, WINDOW, AFTER = 0, 1, 2
PHASES = ("boot", "window")
#: the program's own root span, the denominator of every request share
REQUEST_SPAN = "http.request"


def _histogram() -> LatencyHistogram:
    # the serving histograms start at 100 us; layer spans such as a
    # cache probe take single microseconds
    return LatencyHistogram(lowest=1e-6)


class LedgerRecorder(TraceRecorder):
    """A trace recorder that aggregates spans per name and phase."""

    def __init__(self) -> None:
        super().__init__(capacity=1)
        #: written only by the signal handlers; read under the lock
        self.phase = BOOT
        self._ledgers: tuple[dict, dict] = ({}, {})
        #: (trace id, parent span name) -> seconds of finished children
        self._children: dict[tuple, float] = {}

    def record(self, record: SpanRecord) -> None:
        duration = record.duration_seconds
        with self._lock:
            self.n_recorded += 1
            own_key = (record.trace_id, record.name)
            self_seconds = max(0.0, duration - self._children.pop(own_key, 0.0))
            if record.parent is not None:
                parent_key = (record.trace_id, record.parent)
                self._children[parent_key] = (
                    self._children.get(parent_key, 0.0) + duration
                )
            phase = self.phase
            if phase == AFTER:
                return
            entry = self._ledgers[phase].get(record.name)
            if entry is None:
                entry = self._ledgers[phase][record.name] = [
                    0, 0.0, 0.0, _histogram()
                ]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_seconds
            entry[3].observe(duration)

    def to_json(self) -> dict:
        with self._lock:
            return {
                phase: {
                    name: {
                        "calls": calls,
                        "total_seconds": total,
                        "self_seconds": own,
                        "p50_seconds": hist.quantile(0.5),
                        "p99_seconds": hist.quantile(0.99),
                    }
                    for name, (calls, total, own, hist) in ledger.items()
                }
                for phase, ledger in zip(PHASES, self._ledgers)
            }


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _traced(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # a wrapped callable calling another one of the same span (the
        # WAL's append_batch -> append_batch_blob) stays one span
        if current_span_name() == name:
            return fn(*args, **kwargs)
        with span(name):
            return fn(*args, **kwargs)

    return traced


def _traced_kind(name: str, query_kind: str, fn):
    @functools.wraps(fn)
    def traced(self, sketches, query):
        if query.kind != query_kind:
            return fn(self, sketches, query)
        with span(name):
            return fn(self, sketches, query)

    return traced


class _HeadTimedReader:
    """Stream reader proxy noting when a request head has arrived."""

    __slots__ = ("_reader", "head_at")

    def __init__(self, reader) -> None:
        self._reader = reader
        self.head_at: float | None = None

    async def readuntil(self, separator: bytes) -> bytes:
        head = await self._reader.readuntil(separator)
        self.head_at = time.perf_counter()
        return head

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


def _traced_read(name: str, fn):
    # An idle keep-alive connection waits inside read_request for the
    # client's next request; that wait is the client's, not the server's,
    # so the span starts once the request head has arrived and covers
    # parsing plus the body read.
    @functools.wraps(fn)
    async def traced(reader, *args, **kwargs):
        timed = _HeadTimedReader(reader)
        try:
            return await fn(timed, *args, **kwargs)
        finally:
            if timed.head_at is not None:
                elapsed = time.perf_counter() - timed.head_at
                trace.default_recorder().record(
                    SpanRecord(
                        trace_id=None,
                        name=name,
                        parent=current_span_name(),
                        started_at=time.time() - elapsed,
                        duration_seconds=elapsed,
                    )
                )

    return traced


def install() -> LedgerRecorder:
    """Wrap every layer's callables and install a fresh ledger recorder.

    Call before the server is built: the recorder must be the default
    one when ``SketchServer`` picks it up, and the program must look the
    wrappers up instead of the originals.
    """
    recorder = LedgerRecorder()
    trace.set_default_recorder(recorder)
    for layer in LAYERS:
        for target in layer.wraps:
            owner, attribute = _resolve(target)
            original = inspect.getattr_static(owner, attribute)
            static = isinstance(original, staticmethod)
            fn = original.__func__ if static else original
            if inspect.iscoroutinefunction(fn):
                wrapped = _traced_read(layer.span, fn)
            elif layer.query_kind is not None:
                wrapped = _traced_kind(layer.span, layer.query_kind, fn)
            else:
                wrapped = _traced(layer.span, fn)
            setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)

    def mark(phase: int):
        def handler(signum, frame) -> None:
            recorder.phase = phase

        return handler

    signal.signal(signal.SIGUSR1, mark(WINDOW))
    signal.signal(signal.SIGUSR2, mark(AFTER))
    return recorder


def _us(seconds: float, scale: float) -> float:
    return 0.0 if math.isnan(seconds) else seconds * scale * 1e6


def layer_metrics(
    ledger: dict,
    setup_seconds: float,
    boot_scale: float = 1.0,
    window_scale: float = 1.0,
) -> dict[str, float]:
    """Per-span metrics from a dumped ledger.

    A span's ``self_share`` is its self time over the window's total
    ``http.request`` time, or over ``setup_seconds`` for boot spans.
    Percentiles are multiplied by the phase's ``*_scale``, the host-speed
    factor the end-to-end timings are scaled by.
    """
    window = ledger["window"]
    empty = {
        "calls": 0,
        "total_seconds": 0.0,
        "self_seconds": 0.0,
        "p50_seconds": math.nan,
        "p99_seconds": math.nan,
    }
    request = window.get(REQUEST_SPAN, empty)
    request_seconds = request["total_seconds"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        phase = "boot" if layer.boot else "window"
        entry = ledger[phase].get(layer.span, empty)
        denominator = setup_seconds if layer.boot else request_seconds
        scale = boot_scale if layer.boot else window_scale
        metrics[f"{layer.span}.calls"] = entry["calls"]
        metrics[f"{layer.span}.self_share"] = (
            entry["self_seconds"] / denominator if denominator else 0.0
        )
        metrics[f"{layer.span}.p50_us"] = _us(entry["p50_seconds"], scale)
        metrics[f"{layer.span}.p99_us"] = _us(entry["p99_seconds"], scale)
    metrics["http.request.calls"] = request["calls"]
    metrics["http.request.p50_us"] = _us(request["p50_seconds"], window_scale)
    metrics["http.request.p99_us"] = _us(request["p99_seconds"], window_scale)
    metrics["unattributed_share"] = (
        request["self_seconds"] / request_seconds if request_seconds else 0.0
    )
    return metrics
