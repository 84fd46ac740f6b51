"""Snapshot round-trip through the persistent sketch service.

Builds a store of coordinated Poisson sketches over two traffic
instances, snapshots it to disk through the versioned binary codec,
restores it into a fresh process-like state, and shows that the restored
store is *state-identical*: same engines, same version counters, and the
same query results — here distinct count and L1 distance — with the
second query served from the version-keyed cache.

Run with:  PYTHONPATH=src python examples/service_snapshot_roundtrip.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.sampling.seeds import SeedAssigner
from repro.service import IngestRequest, Query, SketchStore


def main() -> None:
    rng = np.random.default_rng(20110613)
    keys = rng.choice(100_000, size=30_000, replace=False)
    values = rng.random(30_000) * 5.0 + 0.1

    store = SketchStore()
    store.create(
        "traffic", "poisson", threshold=0.25,
        seed_assigner=SeedAssigner(salt=7), n_shards=8,
    )
    store.submit(
        IngestRequest(
            engine="traffic",
            batches=(
                ("monday", keys[:20_000], values[:20_000]),
                ("tuesday", keys[10_000:], values[10_000:]),
            ),
        )
    )
    print(f"ingested 40,000 updates; version = {store.version('traffic')}")

    with tempfile.TemporaryDirectory() as tmp:
        path = store.snapshot(Path(tmp) / "traffic.bin")
        print(f"snapshot: {path.stat().st_size:,} bytes")
        restored = SketchStore.restore(path)

    assert restored.engine("traffic") == store.engine("traffic")
    assert restored.version("traffic") == store.version("traffic")
    print("restored store is state-identical to the live one")

    distinct = Query.distinct("monday", "tuesday")
    l1 = Query.l1("monday", "tuesday")
    for name, query in (("distinct count", distinct), ("L1 distance", l1)):
        live = store.query("traffic", query)
        back = restored.query("traffic", query)
        assert float(live) == float(back)
        print(f"{name:>14}: {float(live):12.1f}   (live == restored)")

    cached = restored.query("traffic", distinct)
    print(f"repeat query served from cache: {cached.from_cache}")

    restored.submit(
        IngestRequest(engine="traffic", batches=(("monday", [999_999], [1.0]),))
    )
    fresh = restored.query("traffic", distinct)
    print(
        "after one more ingest the cache is invalidated: "
        f"from_cache={fresh.from_cache}, version {cached.version} -> "
        f"{fresh.version}"
    )


if __name__ == "__main__":
    main()
