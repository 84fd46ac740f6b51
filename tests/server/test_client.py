"""Transport-level behaviour of :class:`AsyncSketchClient`.

Drives the client against a scripted fake server so the suite can send
byte-exact malformed responses: a non-numeric status code or a garbage
or conflicting ``Content-Length`` must surface as a *connection* error
(the class the idempotent retry logic understands), never an unhandled
``ValueError`` mid-read (the regression this file pins down).
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.server import AsyncSketchClient, ClientResponseError


class ScriptedServer:
    """One-connection-at-a-time server that replays canned responses."""

    def __init__(self, responses: list[bytes]) -> None:
        self.responses = list(responses)
        self.requests: list[bytes] = []
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def __aenter__(self) -> "ScriptedServer":
        self.server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        assert self.server is not None
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer) -> None:
        try:
            while self.responses:
                head = await reader.readuntil(b"\r\n\r\n")
                self.requests.append(head)
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                if length:
                    await reader.readexactly(length)
                writer.write(self.responses.pop(0))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()


def response(*header_lines: str, body: bytes = b"") -> bytes:
    head = "HTTP/1.1 200 OK\r\n" + "".join(
        line + "\r\n" for line in header_lines
    )
    return head.encode("latin-1") + b"\r\n" + body


def run(coroutine):
    return asyncio.run(coroutine)


class TestMalformedContentLength:
    def test_garbage_length_is_a_connection_error(self):
        async def scenario():
            responses = [response("Content-Length: banana")] * 2
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    with pytest.raises(ConnectionResetError, match="banana"):
                        await client.request("GET", "/v1/healthz")

        run(scenario())

    def test_negative_length_is_a_connection_error(self):
        async def scenario():
            responses = [response("Content-Length: -5")] * 2
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    with pytest.raises(ConnectionResetError, match="-5"):
                        await client.request("GET", "/v1/healthz")

        run(scenario())

    def test_post_with_garbage_length_does_not_retry(self):
        """Non-idempotent requests surface the error after ONE attempt —
        resending could double-apply the ingest."""

        async def scenario():
            responses = [response("Content-Length: nope")] * 2
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    with pytest.raises(ConnectionResetError):
                        await client.request(
                            "POST", "/v1/ingest", json_body={"name": "x"}
                        )
                # a second canned response remains: only one request hit
                # the wire
                assert len(server.requests) == 1

        run(scenario())

    def test_conflicting_duplicate_lengths_rejected(self):
        async def scenario():
            responses = [
                response(
                    "Content-Length: 2",
                    "Content-Length: 99",
                    body=b"{}",
                )
            ] * 2
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    with pytest.raises(
                        ConnectionResetError, match="duplicate"
                    ):
                        await client.request("GET", "/v1/healthz")

        run(scenario())

    def test_repeated_identical_lengths_accepted(self):
        async def scenario():
            responses = [
                response(
                    "Content-Length: 2",
                    "Content-Length: 2",
                    body=b"{}",
                )
            ]
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    status, payload = await client.request("GET", "/v1/healthz")
                    assert status == 200
                    assert payload == {}

        run(scenario())

    def test_well_formed_response_still_parses(self):
        async def scenario():
            responses = [
                response(
                    "Content-Length: 15",
                    "X-Request-Id: abc123",
                    body=b'{"status":"ok"}',
                )
            ]
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    status, payload = await client.request("GET", "/v1/healthz")
                    assert status == 200
                    assert payload == {"status": "ok"}
                    assert client.last_request_id == "abc123"

        run(scenario())


class TestMalformedStatusCode:
    """A non-numeric status code frames nothing that follows it, like a
    malformed Content-Length: a connection error, retried for GET only."""

    @pytest.mark.parametrize("method, sent", [("GET", 2), ("POST", 1)])
    def test_is_a_connection_error(self, method, sent):
        async def scenario():
            responses = [b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}"] * 2
            async with ScriptedServer(responses) as server:
                async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                    with pytest.raises(ConnectionResetError, match="2OO"):
                        await client.request(method, "/v1/ingest", json_body={})
                assert len(server.requests) == sent

        run(scenario())


def status_response(
    status: int, *header_lines: str, body: bytes = b""
) -> bytes:
    head = f"HTTP/1.1 {status} X\r\n" + "".join(
        line + "\r\n" for line in header_lines
    )
    head += f"Content-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def overloaded(*header_lines: str) -> bytes:
    return status_response(
        503, *header_lines, body=b'{"error":"backpressure"}'
    )


def ok() -> bytes:
    return status_response(200, body=b'{"status":"ok"}')


class TestBackpressureRetry:
    """503 handling in :meth:`AsyncSketchClient._checked`: capped
    exponential backoff with jitter, honouring ``Retry-After``."""

    @staticmethod
    def instrument(client, jitter: float = 0.0) -> list[float]:
        """Make backoff deterministic and capture the slept delays."""
        delays: list[float] = []

        async def fake_sleep(delay: float) -> None:
            delays.append(delay)

        client._sleep = fake_sleep
        client._random = lambda: jitter
        return delays

    def test_retries_until_success(self):
        async def scenario():
            responses = [overloaded(), overloaded(), ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_base=0.1
                )
                delays = self.instrument(client)
                async with client:
                    assert await client.healthz() == {"status": "ok"}
                assert len(server.requests) == 3
                # zero jitter: delay == backoff/2, doubling per attempt
                assert delays == [0.05, 0.1]

        run(scenario())

    def test_jitter_spreads_the_herd(self):
        async def scenario():
            responses = [overloaded(), ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_base=0.1
                )
                delays = self.instrument(client, jitter=1.0)
                async with client:
                    await client.healthz()
                # full jitter: backoff/2 + 1.0 * backoff/2 == backoff
                assert delays == [0.1]

        run(scenario())

    def test_backoff_is_capped(self):
        async def scenario():
            responses = [overloaded() for _ in range(5)] + [ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1",
                    port=server.port,
                    retry_attempts=5,
                    retry_base=1.0,
                    retry_cap=2.0,
                )
                delays = self.instrument(client)
                async with client:
                    await client.healthz()
                # 1.0, 2.0, then pinned to the cap (halved: zero jitter)
                assert delays == [0.5, 1.0, 1.0, 1.0, 1.0]

        run(scenario())

    def test_attempts_are_capped_then_the_503_surfaces(self):
        async def scenario():
            responses = [overloaded() for _ in range(3)]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_attempts=2
                )
                delays = self.instrument(client)
                async with client:
                    with pytest.raises(ClientResponseError) as err:
                        await client.healthz()
                assert err.value.status == 503
                assert len(server.requests) == 3  # 1 try + 2 retries
                assert len(delays) == 2

        run(scenario())

    def test_zero_attempts_fails_fast(self):
        async def scenario():
            responses = [overloaded()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_attempts=0
                )
                delays = self.instrument(client)
                async with client:
                    with pytest.raises(ClientResponseError):
                        await client.healthz()
                assert len(server.requests) == 1
                assert delays == []

        run(scenario())

    def test_retry_after_is_a_floor(self):
        async def scenario():
            responses = [overloaded("Retry-After: 0.8"), ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_base=0.1
                )
                delays = self.instrument(client)
                async with client:
                    await client.healthz()
                # the computed 0.05 backoff is raised to the hint
                assert delays == [0.8]
                # the final 200 carried no hint, so the cache cleared
                assert client.last_retry_after is None

        run(scenario())

    def test_retry_after_is_clamped_to_the_cap(self):
        async def scenario():
            responses = [overloaded("Retry-After: 3600"), ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_cap=1.5
                )
                delays = self.instrument(client)
                async with client:
                    await client.healthz()
                # a hostile/huge hint never stalls the client past the cap
                assert delays == [1.5]

        run(scenario())

    def test_malformed_retry_after_is_ignored(self):
        async def scenario():
            responses = [overloaded("Retry-After: soon"), ok()]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(
                    host="127.0.0.1", port=server.port, retry_base=0.1
                )
                delays = self.instrument(client)
                async with client:
                    await client.healthz()
                assert client.last_retry_after is None
                assert delays == [0.05]

        run(scenario())

    def test_non_503_errors_do_not_retry(self):
        async def scenario():
            responses = [
                status_response(404, body=b'{"error":"no such route"}')
            ]
            async with ScriptedServer(responses) as server:
                client = AsyncSketchClient(host="127.0.0.1", port=server.port)
                delays = self.instrument(client)
                async with client:
                    with pytest.raises(ClientResponseError) as err:
                        await client.healthz()
                assert err.value.status == 404
                assert len(server.requests) == 1
                assert delays == []

        run(scenario())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retry_attempts": -1},
            {"retry_base": 0.0},
            {"retry_base": 2.0, "retry_cap": 1.0},
            {"retry_base": math.nan},
            {"retry_cap": math.nan},
        ],
    )
    def test_bad_retry_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AsyncSketchClient(host="127.0.0.1", port=1, **kwargs)
