"""Shared fixtures for the test suite.

The HTTP tests are plain synchronous pytest functions that drive asyncio
scenarios through :func:`asyncio.run` (``run_scenario``), so no async
test plugin is needed.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.aggregates.dataset import MultiInstanceDataset
from repro.sampling.dispersed import ObliviousPoissonScheme, PpsPoissonScheme
from repro.server import AsyncSketchClient, ServerConfig, SketchServer
from repro.service import SketchStore
from repro.wal import WriteAheadLog


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(20110613)


@pytest.fixture
def half_scheme() -> ObliviousPoissonScheme:
    """Weight-oblivious scheme with p1 = p2 = 1/2 (the Figure 1 setting)."""
    return ObliviousPoissonScheme((0.5, 0.5))


@pytest.fixture
def skewed_scheme() -> ObliviousPoissonScheme:
    """Weight-oblivious scheme with unequal probabilities."""
    return ObliviousPoissonScheme((0.3, 0.7))


@pytest.fixture
def pps_scheme() -> PpsPoissonScheme:
    """PPS scheme with equal thresholds and known seeds."""
    return PpsPoissonScheme((10.0, 10.0), known_seeds=True)


@pytest.fixture
def small_dataset() -> MultiInstanceDataset:
    """A small two-instance data set used across aggregate tests."""
    return MultiInstanceDataset(
        {
            "day1": {"a": 4.0, "b": 1.0, "c": 7.0, "e": 2.0},
            "day2": {"a": 5.0, "b": 0.5, "d": 3.0, "e": 2.0},
        }
    )


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
