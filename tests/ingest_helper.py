"""One-call store ingest for tests, and a held engine lock.

The store has a single write funnel, ``SketchStore.submit(IngestRequest)``;
most tests only need "ingest this column batch", which this wraps.
:class:`HeldLock` keeps an engine busy, as an in-flight ingest would.
"""

from __future__ import annotations

import threading

from repro.service.store import IngestRequest, SketchStore


def ingest(
    store: SketchStore, name: str, instance: object, keys, values
) -> int:
    """Submit one ``(instance, keys, values)`` batch to engine ``name``;
    returns the engine version after it."""
    return store.submit(
        IngestRequest(engine=name, batches=((instance, keys, values),))
    )


class HeldLock:
    """Holds an engine's lock on a second thread until :meth:`release`
    or the end of the ``with`` block."""

    def __init__(self, store: SketchStore, name: str) -> None:
        self._gate = threading.Event()
        held = threading.Event()

        def hold() -> None:
            with store._entry(name).lock:
                held.set()
                self._gate.wait(timeout=30)

        self._holder = threading.Thread(target=hold, name="lock-holder")
        self._holder.start()
        assert held.wait(timeout=5), "the holder never took the lock"

    def release(self) -> None:
        self._gate.set()
        self._holder.join(timeout=5)

    def __enter__(self) -> "HeldLock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
