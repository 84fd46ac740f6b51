"""One-call store ingest for tests, a held engine lock, and the check
that a memoised view equals a fresh one.

The store has a single write funnel, ``SketchStore.submit(IngestRequest)``;
most tests only need "ingest this column batch", which this wraps.
:class:`HeldLock` keeps an engine busy, as an in-flight ingest would.
"""

from __future__ import annotations

import copy
import threading

from repro.service.store import IngestRequest, SketchStore
from repro.streaming.query import SketchColumns

#: what a view memoises on first use
MEMOISED = ("join_index", "self_selected", "int_span")


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


def assert_fresh_view(store: SketchStore, name: str, label: object, view) -> None:
    """Assert that ``view``, a served view of ``label``, equals a view
    built afresh from the merged sketch, field for field: keys (and their
    types), hashes, values bit for bit, ``canonical``, and each memoised
    property, the ones it holds and the ones it would compute; and that
    a view that is not canonical records no shard marks, so a rebuild
    merges its shards.  The check fills no memo of ``view``."""
    fresh = SketchColumns.of(store.engine(name).sketch(label))
    assert view.keys == fresh.keys
    assert list(map(type, view.keys)) == list(map(type, fresh.keys))
    assert view.hashes.tobytes() == fresh.hashes.tobytes()
    assert view.values.tobytes() == fresh.values.tobytes()
    assert view.canonical == fresh.canonical
    assert view.canonical or view.shard_marks is None
    assert not (view.hashes.flags.writeable or view.values.flags.writeable)
    probe = copy.copy(view)  # computes what ``view`` has not memoised
    for attr in MEMOISED:
        mine, theirs = getattr(probe, attr), getattr(fresh, attr)
        if attr == "join_index" and mine is not None and theirs is not None:
            assert not any(column.flags.writeable for column in mine)
            mine = [(column.dtype, column.tobytes()) for column in mine]
            theirs = [(column.dtype, column.tobytes()) for column in theirs]
        assert mine == theirs, (label, attr)
