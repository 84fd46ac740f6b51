"""A frozen digest of the served pair-query payloads.

A small store shaped like the ``query-cold`` benchmark snapshot: six
hourly instances of 5,000 rows whose first half of keys every hour
shares, in a weight-oblivious engine (``hours``, tau = 0.05) and a PPS
engine (``hours_pps``, tau = 0.02), eight shards each.  Every hour pair
runs ``distinct`` with confidence, ``l1`` and ``dominance`` through
``SketchStore.query``, and the sha256 of the canonical JSON of every
payload must equal the recorded constant: any change to a pair query's
join, estimator or summation order that moves one bit of one result
fails here.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from repro.service.queries import Query, query_value_json
from repro.service.store import SketchStore

from ingest_helper import ingest

HOURS = 6
HOUR_ROWS = 5_000
ENGINES = (
    {
        "name": "hours",
        "kind": "poisson",
        "threshold": 0.05,
        "ranks": "uniform",
        "salt": 11,
        "n_shards": 8,
    },
    {
        "name": "hours_pps",
        "kind": "poisson",
        "threshold": 0.02,
        "ranks": "pps",
        "salt": 13,
        "n_shards": 8,
    },
)
#: sha256 of the payloads below, recorded before the pair queries read
#: the join's row groups directly
DIGEST = "0eb61c7057a94c6c2c3c95b605093a679a3c7e1278a8407da79d2c5bab857682"


def hour_columns(hour: int):
    """``(label, keys, values)`` of one hour: 2,500 shared int64 keys,
    2,500 of the hour's own, and values in [1, 10]."""
    half = HOUR_ROWS // 2
    shared = np.cumsum(
        np.random.default_rng([3, 0]).integers(1, 1 << 16, half, dtype=np.int64)
    )
    stream = np.random.default_rng([3, hour + 1])
    own = (np.int64(hour + 1) << np.int64(40)) + np.cumsum(
        stream.integers(1, 1 << 16, half, dtype=np.int64)
    )
    values = 1.0 + 9.0 * stream.random(HOUR_ROWS) ** 2
    return f"h{hour}", np.concatenate([shared, own]), values


def build_store() -> SketchStore:
    store = SketchStore()
    for config in ENGINES:
        store.create_from_config(config)
        for hour in range(HOURS):
            ingest(store, config["name"], *hour_columns(hour))
    return store


def payloads(store: SketchStore) -> list:
    served = []
    for pair in itertools.combinations([f"h{hour}" for hour in range(HOURS)], 2):
        for name, query in (
            ("hours", Query("distinct", pair, confidence=True)),
            ("hours", Query("l1", pair)),
            ("hours_pps", Query("dominance", pair)),
        ):
            result = store.query(name, query)
            served.append(
                {
                    "query": [name, query.kind, list(pair)],
                    "value": query_value_json(result.value),
                    "confidence": result.confidence,
                }
            )
    return served


def test_pair_payloads_match_the_recorded_digest():
    served = payloads(build_store())
    assert len(served) == 3 * HOURS * (HOURS - 1) // 2
    canonical = json.dumps(
        served, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == DIGEST
