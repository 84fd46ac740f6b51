"""Asyncio client for the sketch server.

:class:`AsyncSketchClient` speaks the same minimal HTTP/1.1 as the
server over one persistent keep-alive connection (requests on a single
client serialize on an internal lock — run many clients for
concurrency, as the load generator in ``benchmarks/perf/harness.py``
does).  The typed convenience methods mirror the endpoint surface and
raise :class:`ClientResponseError` on non-2xx responses; use
:meth:`request` directly to observe error statuses without exceptions.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import socket
from typing import TYPE_CHECKING
from urllib.parse import quote, urlencode

from repro.obs import current_request_id, new_request_id
from repro.server.wire import (
    BATCH_CONTENT_TYPE,
    REPLICA_MODE_WAL,
    encode_batches,
    decode_replica,
)

if TYPE_CHECKING:
    from repro.service.store import SketchStore

__all__ = ["AsyncSketchClient", "ClientResponseError"]


class ClientResponseError(Exception):
    """A non-2xx response from the sketch server."""

    def __init__(self, status: int, payload: object) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(message or f"HTTP {status}")
        self.status = int(status)
        self.payload = payload


class AsyncSketchClient:
    """One keep-alive HTTP connection to a :class:`SketchServer`.

    The typed endpoint methods target the versioned ``/v1`` API surface.

    Examples
    --------
    ::

        async with AsyncSketchClient(host="127.0.0.1", port=8080) as client:
            await client.ingest("traffic", "monday", keys, values)
            result = await client.query(
                "traffic", "distinct", ["monday", "tuesday"])
    """

    def __init__(
        self,
        *,
        host: str,
        port: int,
        retry_attempts: int = 4,
        retry_base: float = 0.05,
        retry_cap: float = 2.0,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        #: 503 (backpressure) retries before the error surfaces; 0
        #: restores the old fail-fast behaviour
        self.retry_attempts = int(retry_attempts)
        #: first-retry backoff in seconds; doubles per attempt up to
        #: ``retry_cap``, with equal jitter on top
        self.retry_base = float(retry_base)
        self.retry_cap = float(retry_cap)
        if self.retry_attempts < 0:
            raise ValueError(
                f"retry_attempts must be >= 0, got {retry_attempts}"
            )
        # written so that NaN fails it too: a NaN delay never wakes up
        if not 0 < self.retry_base <= self.retry_cap:
            raise ValueError(
                "need 0 < retry_base <= retry_cap, got "
                f"{retry_base} / {retry_cap}"
            )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()
        self._target_cache: dict[tuple, str] = {}
        #: the ``X-Request-Id`` the server attached to the most recent
        #: response — correlate client-side failures with server traces
        self.last_request_id: str | None = None
        #: parsed ``Retry-After`` seconds of the most recent response
        self.last_retry_after: float | None = None
        # injectable for deterministic tests
        self._sleep = asyncio.sleep
        self._random = random.random

    async def connect(self) -> "AsyncSketchClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            sock = self._writer.get_extra_info("socket")
            if sock is not None:
                # single-write request/response round-trips: Nagle only
                # adds latency here
                with contextlib.suppress(OSError):
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def __aenter__(self) -> "AsyncSketchClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        *,
        params: dict | None = None,
        json_body: object = None,
        body: bytes | None = None,
        content_type: str = "application/json",
        request_id: str | None = None,
    ) -> tuple[int, object]:
        """One round-trip; returns ``(status, decoded JSON payload)``.

        Every request carries an ``X-Request-Id`` header — ``request_id``
        when given, else the ambient :func:`repro.obs.current_request_id`
        (so a client used inside a traced context propagates its trace
        id), else a fresh id.  The id the server echoed back is kept in
        :attr:`last_request_id`.

        Idempotent requests (GET/HEAD) reconnect and retry once when the
        server closed the idle keep-alive connection between requests;
        non-idempotent requests surface the connection error instead,
        because the server may already have applied them.
        """
        if body is not None and json_body is not None:
            raise ValueError("pass either json_body or body, not both")
        if json_body is not None:
            body = json.dumps(json_body, separators=(",", ":")).encode()
        if request_id is None:
            request_id = current_request_id() or new_request_id()
        # clients hammer a handful of (path, params) shapes; memoising
        # the quoted target skips percent-encoding on the hot path
        cache_key = (path, tuple(params.items()) if params else None)
        target = self._target_cache.get(cache_key)
        if target is None:
            target = quote(path)
            if params:
                target += "?" + urlencode(params)
            if len(self._target_cache) < 1024:
                self._target_cache[cache_key] = target
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Connection: keep-alive\r\n"
            f"X-Request-Id: {request_id}\r\n"
        )
        if body is not None:
            head += (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        payload = head.encode("latin-1") + b"\r\n" + (body or b"")
        # Only idempotent requests are retried after a connection error:
        # a POST may already have been applied by the time the connection
        # died, and resending it would e.g. double-ingest a batch.
        retriable = method.upper() in ("GET", "HEAD")
        async with self._lock:
            for attempt in (0, 1):
                await self.connect()
                assert self._reader is not None
                assert self._writer is not None
                try:
                    self._writer.write(payload)
                    await self._writer.drain()
                    return await self._read_response(self._reader)
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    asyncio.IncompleteReadError,
                ):
                    await self.close()
                    if attempt or not retriable:
                        raise
        raise RuntimeError("unreachable")  # pragma: no cover

    async def _read_response(self, reader: asyncio.StreamReader) -> tuple[int, object]:
        # one readuntil for the whole response head (status line +
        # headers): the per-line variant dominates client-side CPU under
        # pipelined load
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, _, header_block = head.decode("latin-1").partition("\r\n")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionResetError(f"malformed status line {status_line!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise ConnectionResetError(
                f"malformed status line {status_line!r}"
            ) from exc
        headers: dict[str, str] = {}
        for text in header_block.splitlines():
            text = text.strip()
            if not text:
                break
            name, _, value = text.partition(":")
            key = name.strip().lower()
            value = value.strip()
            if key == "content-length" and headers.get(key, value) != value:
                # conflicting duplicates would silently frame the body by
                # whichever arrived last; treat the response as garbage
                raise ConnectionResetError(
                    "conflicting duplicate Content-Length headers "
                    f"({headers[key]!r} and {value!r})"
                )
            headers[key] = value
        try:
            length = int(headers.get("content-length", "0"))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
        except ValueError as exc:
            # a malformed length means the framing of this (and every
            # following) response is unknowable — surface it as a
            # connection error so the idempotent-retry logic in
            # :meth:`request` applies
            raise ConnectionResetError(
                f"malformed Content-Length {headers.get('content-length')!r}"
            ) from exc
        self.last_request_id = headers.get("x-request-id")
        self.last_retry_after = None
        if "retry-after" in headers:
            with contextlib.suppress(ValueError):
                self.last_retry_after = max(0.0, float(headers["retry-after"]))
        raw = await reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        if not raw:
            return status, None
        content_type = (
            headers.get("content-type", "").partition(";")[0].strip().lower()
        )
        if content_type.startswith("application/x-repro-"):
            # binary bodies (batch / replica payloads) pass through raw
            return status, raw
        try:
            return status, json.loads(raw)
        except json.JSONDecodeError:
            return status, raw.decode("utf-8", "replace")

    async def _checked(self, *args, **kwargs) -> object:
        """:meth:`request`, raising on >= 400 — after riding out 503s.

        Backpressure 503s are retried with capped exponential backoff
        plus equal jitter (so a thundering herd of clients decorrelates),
        honouring the server's ``Retry-After`` hint as a floor.  Any
        other error status raises :class:`ClientResponseError`
        immediately; so does a 503 once ``retry_attempts`` is exhausted.
        """
        for attempt in range(self.retry_attempts + 1):
            status, payload = await self.request(*args, **kwargs)
            if status != 503 or attempt >= self.retry_attempts:
                if status >= 400:
                    raise ClientResponseError(status, payload)
                return payload
            backoff = min(self.retry_cap, self.retry_base * 2**attempt)
            delay = backoff / 2 + self._random() * (backoff / 2)
            hint = self.last_retry_after
            if hint is not None:
                delay = max(delay, min(hint, self.retry_cap))
            await self._sleep(delay)
        raise RuntimeError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Endpoint surface
    # ------------------------------------------------------------------
    async def healthz(self, verbose: bool = False) -> dict:
        params = {"verbose": "1"} if verbose else None
        return await self._checked("GET", "/v1/healthz", params=params)

    async def statusz(self) -> str:
        """The ``/statusz`` page as HTML text."""
        payload = await self._checked("GET", "/v1/statusz")
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload).decode("utf-8", "replace")
        return str(payload)

    async def metrics(self) -> dict:
        return await self._checked("GET", "/v1/metrics")

    async def metrics_history(
        self, metric: str, window: float | None = None
    ) -> dict:
        """The ring-buffered time series of one metric."""
        params = {"metric": metric}
        if window is not None:
            params["window"] = str(float(window))
        return await self._checked(
            "GET", "/v1/metrics/history", params=params
        )

    async def create_engine(self, name: str, kind: str = "bottom_k", **config) -> dict:
        return await self._checked(
            "POST",
            "/v1/engines",
            json_body={"name": name, "kind": kind, **config},
        )

    async def ingest(
        self, name: str, instance: object, keys: list, values: list
    ) -> dict:
        return await self._checked(
            "POST",
            "/v1/ingest",
            json_body={
                "name": name,
                "instance": instance,
                "keys": list(keys),
                "values": [float(value) for value in values],
            },
        )

    async def ingest_binary(
        self,
        name: str,
        batches: list,
    ) -> dict:
        """Ingest ``(instance, keys, values)`` batches as one binary body.

        ``batches`` is encoded with
        :func:`repro.server.wire.encode_batches` — key columns may be
        NumPy integer arrays, lists of ints/strings, or mixed labels;
        value columns anything array-like — and POSTed as a single
        pipelined ``application/x-repro-batch`` request, the fast path
        that skips JSON entirely on both sides.
        """
        return await self._checked(
            "POST",
            "/v1/ingest",
            params={"name": name},
            body=encode_batches(batches),
            content_type=BATCH_CONTENT_TYPE,
        )

    async def query(
        self,
        name: str,
        kind: str,
        instances: list,
        variant: str = "l",
        int_instances: bool = False,
        confidence: bool = False,
    ) -> dict:
        params = {
            "name": name,
            "kind": kind,
            "instances": ",".join(str(label) for label in instances),
            "variant": variant,
        }
        if int_instances:
            params["int_instances"] = "1"
        if confidence:
            params["confidence"] = "1"
        return await self._checked("GET", "/v1/query", params=params)

    async def snapshot(self, path: object = None) -> dict:
        json_body = {"path": str(path)} if path is not None else {}
        return await self._checked(
            "POST", "/v1/snapshot", json_body=json_body
        )

    async def merge(self, path: object) -> dict:
        return await self._checked(
            "POST", "/v1/merge", json_body={"path": str(path)}
        )

    # ------------------------------------------------------------------
    # Replication (follower side)
    # ------------------------------------------------------------------
    async def replicate(
        self, since: int = 0, follower: str | None = None
    ) -> tuple[int, int, bytes]:
        """Fetch the primary's changes past LSN ``since``.

        Returns ``(mode, last_lsn, payload)`` — ``mode`` is
        :data:`repro.server.wire.REPLICA_MODE_WAL` (``payload`` is a WAL
        tail for :func:`repro.wal.decode_tail`) or ``REPLICA_MODE_STORE``
        (``payload`` is a full store snapshot blob: the tail was
        checkpointed away).  ``last_lsn`` is the next ``since`` cursor.
        ``follower`` registers this replica under an id on the primary,
        which then watches its lag through the ``wal_follower_lag`` /
        ``wal_follower_idle`` health rules.
        """
        params = {"since": str(int(since))}
        if follower:
            params["follower"] = str(follower)
        payload = await self._checked(
            "GET", "/v1/replicate", params=params
        )
        if not isinstance(payload, (bytes, bytearray)):
            raise ClientResponseError(502, payload)
        return decode_replica(bytes(payload))

    async def catch_up(
        self,
        store: "SketchStore",
        since: int = 0,
        *,
        on_full: str = "replace",
        follower: str | None = None,
    ) -> int:
        """One replication round: fetch past ``since``, apply to
        ``store``, return the new cursor.

        A WAL tail replays through the store's idempotent version checks
        (records the follower already has are skipped).  A full-store
        delta is applied per ``on_full``: ``"replace"`` (default) adopts
        the primary's engines wholesale — bit-exact for a pure follower —
        while ``"merge"`` folds them in through the
        ``StreamEngine.merge_from`` algebra, for followers holding their
        own *disjoint* data (merging overlapping streams double-counts).
        """
        if on_full not in ("replace", "merge"):
            raise ValueError(
                f"on_full must be 'replace' or 'merge', got {on_full!r}"
            )
        mode, last_lsn, payload = await self.replicate(since, follower=follower)
        if mode == REPLICA_MODE_WAL:
            from repro.wal import apply_records, decode_tail

            records = decode_tail(payload)
            if records:
                await asyncio.to_thread(apply_records, store, records)
        else:
            await asyncio.to_thread(_apply_full_delta, store, payload, on_full)
        return last_lsn

    async def follow(
        self,
        store: "SketchStore",
        *,
        since: int = 0,
        interval: float = 1.0,
        stop: asyncio.Event | None = None,
        max_rounds: int | None = None,
        on_full: str = "replace",
        follower: str | None = None,
    ) -> int:
        """Pull-replication loop: :meth:`catch_up` every ``interval``
        seconds until ``stop`` is set (or ``max_rounds`` rounds ran).
        Returns the final cursor, so a later ``follow(since=cursor)``
        resumes where this one left off.
        """
        cursor = int(since)
        rounds = 0
        while True:
            cursor = await self.catch_up(
                store, cursor, on_full=on_full, follower=follower
            )
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                return cursor
            if stop is not None and stop.is_set():
                return cursor
            if stop is None:
                await self._sleep(interval)
            else:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(stop.wait(), interval)


def _apply_full_delta(store: "SketchStore", payload: bytes, on_full: str) -> None:
    """Apply a full-store replica payload (executor-thread half)."""
    from repro.service import codec
    from repro.service.store import SketchStore

    entries = codec.store_from_bytes(payload)
    if on_full == "merge":
        peer = SketchStore()
        for name, version, engine in entries:
            peer.register(name, engine, version=version)
        store.merge_store(peer)
    else:
        for name, version, engine in entries:
            store.adopt(name, engine, version=version)
