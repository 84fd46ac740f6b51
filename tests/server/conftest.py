"""Shared helpers for the HTTP server suite.

The tests are plain synchronous pytest functions that drive asyncio
scenarios through :func:`asyncio.run` — no async test plugin needed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import AsyncSketchClient, ServerConfig, SketchServer
from repro.service import SketchStore
from repro.wal import WriteAheadLog


@pytest.fixture
def run_scenario():
    """Run ``await scenario(server, client)`` against a fresh server.

    ``scenario`` receives a started :class:`SketchServer` (ephemeral
    port) and one connected client; the server is shut down afterwards
    even when the scenario fails.  ``wal_dir`` attaches a
    :class:`WriteAheadLog` (policy ``wal_fsync``) to the store and
    closes it after shutdown; extra keyword arguments become
    :class:`ServerConfig` fields.
    """

    def runner(
        scenario, store=None, wal_dir=None, wal_fsync="interval", **config_kwargs
    ):
        async def main():
            target_store = store if store is not None else SketchStore()
            wal = None
            if wal_dir is not None:
                wal = WriteAheadLog(wal_dir, fsync=wal_fsync)
                target_store.attach_wal(wal)
            config_kwargs.setdefault("port", 0)
            server = SketchServer(target_store, ServerConfig(**config_kwargs))
            await server.start()
            try:
                client = AsyncSketchClient(host="127.0.0.1", port=server.port)
                async with client:
                    return await scenario(server, client)
            finally:
                await server.shutdown()
                if wal is not None:
                    wal.close()

        return asyncio.run(main())

    return runner
