"""Request IDs and nested spans for the serving stack.

A *trace* is one request's journey through the layers: the HTTP
front-end assigns (or adopts) a request ID, stores it in a
:class:`contextvars.ContextVar`, and every layer underneath — ingest
decoding, store ingest, the query planner — wraps its work in
:func:`span`, which records ``(trace_id, span name, parent, start,
duration, attrs)`` into a bounded in-memory ring buffer.  Because
context variables flow through ``await`` and (when propagated with
``contextvars.copy_context``) across executor threads, the spans of one
request correlate by trace ID no matter which thread ran them.

The ring buffer (:class:`TraceRecorder`) is deliberately small and
lossy: it answers "what did the last N requests spend their time on"
without unbounded memory.  For offline analysis, the buffered spans
can be dumped with :meth:`TraceRecorder.export_jsonl`.
"""

from __future__ import annotations

import json
import random
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.exceptions import InvalidParameterError

__all__ = [
    "SpanRecord",
    "TraceRecorder",
    "current_request_id",
    "current_span_name",
    "default_recorder",
    "new_request_id",
    "request_context",
    "set_default_recorder",
    "span",
]

_REQUEST_ID: ContextVar[str | None] = ContextVar("repro_request_id", default=None)
_SPAN_NAME: ContextVar[str | None] = ContextVar("repro_span_name", default=None)


# seeded once from the OS entropy pool; correlation IDs need collision
# resistance, not unpredictability, and ``uuid.uuid4`` costs a urandom
# syscall per call — measurable on the serving hot path
_ID_RNG = random.Random(uuid.uuid4().int)
_ID_LOCK = threading.Lock()


def new_request_id() -> str:
    """A fresh 16-hex-char request ID."""
    with _ID_LOCK:
        return f"{_ID_RNG.getrandbits(64):016x}"


def current_request_id() -> str | None:
    """The request ID of the current context, if one is set."""
    return _REQUEST_ID.get()


def current_span_name() -> str | None:
    """The name of the innermost open span in this context, if any."""
    return _SPAN_NAME.get()


@contextmanager
def request_context(request_id: str | None = None) -> Iterator[str]:
    """Bind a request ID to the current context for the ``with`` body.

    Yields the bound ID (freshly generated when ``request_id`` is
    ``None``) and restores the previous binding on exit, so nested
    contexts — e.g. a server handling a request while replaying another
    — unwind correctly.
    """
    bound = request_id if request_id else new_request_id()
    token = _REQUEST_ID.set(bound)
    try:
        yield bound
    finally:
        _REQUEST_ID.reset(token)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    trace_id: str | None
    name: str
    parent: str | None
    started_at: float
    duration_seconds: float
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "name": self.name,
            "parent": self.parent,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class TraceRecorder:
    """Bounded, thread-safe ring buffer of finished spans."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self._lock = threading.Lock()
        self._buffer: deque[SpanRecord] = deque(maxlen=int(capacity))
        self.n_recorded = 0

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._buffer.append(record)
            self.n_recorded += 1

    def recent(self, n: int | None = None, name: str | None = None) -> list[SpanRecord]:
        """The most recent spans, newest last, optionally filtered by
        span name; ``n`` bounds the result length."""
        with self._lock:
            records = list(self._buffer)
        if name is not None:
            records = [record for record in records if record.name == name]
        if n is not None:
            records = records[-int(n):]
        return records

    def export_jsonl(self, path: str | Path) -> int:
        """Write the buffered spans to ``path`` as JSON lines.

        The payloads are materialised under the recorder lock — one
        consistent snapshot of the ring *and* of every record's attrs
        dict (``to_json`` copies it), so a concurrent :meth:`record`
        or an in-flight span mutating its attrs cannot corrupt the
        export mid-write.  File I/O happens outside the lock.

        Returns the number of records written.
        """
        with self._lock:
            payloads = [record.to_json() for record in self._buffer]
        with Path(path).open("w") as handle:
            for payload in payloads:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
        return len(payloads)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


_default_recorder = TraceRecorder()


def default_recorder() -> TraceRecorder:
    """The process-wide recorder :func:`span` writes to by default."""
    return _default_recorder


def set_default_recorder(recorder: TraceRecorder) -> TraceRecorder:
    """Replace the process-wide recorder; returns the previous one."""
    global _default_recorder
    if not isinstance(recorder, TraceRecorder):
        raise InvalidParameterError(
            f"expected a TraceRecorder, got {type(recorder).__name__}"
        )
    previous, _default_recorder = _default_recorder, recorder
    return previous


@contextmanager
def span(name: str, recorder: TraceRecorder | None = None, **attrs) -> Iterator[dict]:
    """Record the wall time of the ``with`` body as a named span.

    The span nests under the innermost open span of the current context
    (its ``parent``) and carries the current request ID as its trace
    ID.  The yielded dict is the span's mutable ``attrs`` — handlers
    can annotate mid-flight (e.g. ``attrs["cache"] = "hit"``).  Spans
    are recorded even when the body raises, with ``attrs["error"]`` set
    to the exception type name.
    """
    target = recorder if recorder is not None else _default_recorder
    parent = _SPAN_NAME.get()
    token = _SPAN_NAME.set(name)
    started_wall = time.time()
    started = time.perf_counter()
    try:
        yield attrs
    except BaseException as error:
        attrs.setdefault("error", type(error).__name__)
        raise
    finally:
        _SPAN_NAME.reset(token)
        target.record(
            SpanRecord(
                trace_id=_REQUEST_ID.get(),
                name=name,
                parent=parent,
                started_at=started_wall,
                duration_seconds=time.perf_counter() - started,
                attrs=attrs,
            )
        )
