"""One-call store ingest for tests.

The store has a single write funnel, ``SketchStore.submit(IngestRequest)``;
most tests only need "ingest this column batch", which this wraps.
"""

from __future__ import annotations

from repro.service.store import IngestRequest, SketchStore


def ingest(
    store: SketchStore, name: str, instance: object, keys, values
) -> int:
    """Submit one ``(instance, keys, values)`` batch to engine ``name``;
    returns the engine version after it."""
    return store.submit(
        IngestRequest(engine=name, batches=((instance, keys, values),))
    )
