"""Seeded inputs of the benchmark's four workloads.

Every key, value and query order derives from the run's seed.  Each
body and each dataset column draws from its own NumPy stream keyed by
``(seed, purpose, index)``, so body ``i`` of a corpus can be rebuilt on
its own: the correctness check regenerates exactly the bodies the server
acknowledged instead of keeping the corpus in memory, and the load
generator never materialises more than the body it is about to send.

Keys are distinct across the whole corpus by construction: body ``i``
owns the key range ``[i << 40, (i + 1) << 40)`` and draws strictly
increasing offsets inside it.  Distinct keys make the sketches' state a
function of the set of acknowledged rows alone, whatever order the two
connections' bodies were applied in.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from repro.server.wire import encode_batches

#: the ingest engine of ``mixed`` and ``ingest-*``: weight-oblivious
#: Poisson sampling at tau = 0.005, the sketch size a serving deployment
#: keeps bounded while the stream grows
BENCH_ENGINE = {
    "name": "bench",
    "kind": "poisson",
    "threshold": 0.005,
    "ranks": "uniform",
    "salt": 7,
    "n_shards": 4,
}
#: the two engines of the ``query-cold`` snapshot
HOURS_ENGINE = {
    "name": "hours",
    "kind": "poisson",
    "threshold": 0.05,
    "ranks": "uniform",
    "salt": 11,
    "n_shards": 8,
}
HOURS_PPS_ENGINE = {
    "name": "hours_pps",
    "kind": "poisson",
    "threshold": 0.02,
    "ranks": "pps",
    "salt": 13,
    "n_shards": 8,
}

INSTANCES = ("mon", "tue")

#: binary bodies: 200 pipelined batches of 100 rows, as a log shipper
#: that buffers small per-source batches into one request
BINARY_BATCHES_PER_BODY = 200
BINARY_BATCH_ROWS = 100
BINARY_BODY_ROWS = BINARY_BATCHES_PER_BODY * BINARY_BATCH_ROWS
#: JSON bodies: one 100-key column batch per request
JSON_BODY_ROWS = 100
#: bodies the harness writes to the write-ahead log ``ingest-durable``
#: recovers on every boot (500,000 rows; recovery's peak memory stays
#: below the load's, so ``peak_rss_mb`` measures one thing)
DURABLE_PREP_BODIES = 25

#: the ``query-cold`` dataset: hourly instances, half of each hour's keys
#: shared by every hour.  32 hours give 496 pairs and 1,488 distinct
#: query keys, more than the planner's 1,024-entry result cache holds.
HOURS = 32
HOUR_ROWS = 50_000

#: the three query shapes ``mixed`` rotates through
MIXED_QUERIES = (
    {"kind": "sum", "instances": ("mon",), "confidence": True},
    {"kind": "sum", "instances": ("tue",), "confidence": False},
    {"kind": "distinct", "instances": ("mon", "tue"), "confidence": True},
)

# stream purposes: one independent NumPy stream family per input kind
_BINARY, _JSON, _HOURS, _ORDER, _SAMPLE = range(1, 6)


def rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """The NumPy stream of one input, keyed by ``(seed, purpose, index)``."""
    return np.random.default_rng([int(seed), purpose, int(index)])


def _columns(seed: int, purpose: int, index: int, rows: int):
    """Distinct int64 keys inside body ``index``'s key range, and values."""
    stream = rng(seed, purpose, index)
    offsets = np.cumsum(stream.integers(1, 1 << 16, size=rows, dtype=np.int64))
    keys = (np.int64(index) << np.int64(40)) + offsets
    values = stream.random(rows) * 10.0 + 0.01
    return keys, values


def binary_batches(seed: int, index: int) -> list:
    """Body ``index`` of the binary corpus as ``(instance, keys, values)``
    batches: 200 batches of 100 rows, alternating the two instances."""
    keys, values = _columns(seed, _BINARY, index, BINARY_BODY_ROWS)
    batches = []
    for batch in range(BINARY_BATCHES_PER_BODY):
        rows = slice(batch * BINARY_BATCH_ROWS, (batch + 1) * BINARY_BATCH_ROWS)
        batches.append((INSTANCES[batch % 2], keys[rows], values[rows]))
    return batches


def binary_body(seed: int, index: int) -> bytes:
    """Body ``index`` of the binary corpus, RBAT-encoded."""
    return encode_batches(binary_batches(seed, index))


def json_body(seed: int, index: int) -> bytes:
    """Body ``index`` of the JSON corpus: one column batch of 100 keys
    for instance ``mon`` (even index) or ``tue`` (odd index)."""
    keys, values = _columns(seed, _JSON, index, JSON_BODY_ROWS)
    payload = {
        "name": BENCH_ENGINE["name"],
        "instance": INSTANCES[index % 2],
        "keys": keys.tolist(),
        "values": values.tolist(),
    }
    return json.dumps(payload, separators=(",", ":")).encode()


def hour_label(hour: int) -> str:
    return f"h{hour:02d}"


def hour_columns(seed: int, hour: int):
    """One hour of the ``query-cold`` dataset: ``(label, keys, values)``.

    The first half of the keys is shared by every hour (drawn from the
    hour-independent stream), the second half is the hour's own.  Values
    lie in [1, 10], so PPS inclusion probabilities at tau = 0.02 spread
    over [0.02, 0.2] and both engines keep a few thousand keys per hour.
    """
    shared_rows = HOUR_ROWS // 2
    shared, _ = _columns(seed, _HOURS, 0, shared_rows)
    own, _ = _columns(seed, _HOURS, hour + 1, HOUR_ROWS - shared_rows)
    values = 1.0 + 9.0 * rng(seed, _HOURS, HOURS + 1 + hour).random(HOUR_ROWS) ** 2
    return hour_label(hour), np.concatenate([shared, own]), values


@dataclass(frozen=True)
class QuerySpec:
    """One query request: engine, kind, instances, confidence flag."""

    engine: str
    kind: str
    instances: tuple
    confidence: bool

    def params(self) -> dict:
        params = {
            "name": self.engine,
            "kind": self.kind,
            "instances": ",".join(self.instances),
            "variant": "l",
        }
        if self.confidence:
            params["confidence"] = "1"
        return params


def query_cold_order(seed: int) -> list[QuerySpec]:
    """Every hour pair's three queries, in a seed-shuffled order:
    ``distinct`` with confidence and ``l1`` on ``hours``, ``dominance``
    on ``hours_pps``."""
    queries = []
    for first, second in itertools.combinations(range(HOURS), 2):
        pair = (hour_label(first), hour_label(second))
        queries.append(QuerySpec(HOURS_ENGINE["name"], "distinct", pair, True))
        queries.append(QuerySpec(HOURS_ENGINE["name"], "l1", pair, False))
        queries.append(
            QuerySpec(HOURS_PPS_ENGINE["name"], "dominance", pair, False)
        )
    order = rng(seed, _ORDER).permutation(len(queries))
    return [queries[position] for position in order]


def mixed_queries() -> list[QuerySpec]:
    """The cycle ``mixed``'s query connection repeats: each shape twice
    in a row, as two dashboards showing the same panel.  The second read
    hits the result cache unless an ingest landed in between."""
    return [
        QuerySpec(
            BENCH_ENGINE["name"], shape["kind"], shape["instances"], shape["confidence"]
        )
        for shape in MIXED_QUERIES
        for _ in range(2)
    ]


def checked_positions(seed: int, n_responses: int, n_checked: int) -> list[int]:
    """The seed-sampled response positions the query check recomputes."""
    n_checked = min(n_checked, n_responses)
    picks = rng(seed, _SAMPLE).choice(n_responses, size=n_checked, replace=False)
    return sorted(int(position) for position in picks)
