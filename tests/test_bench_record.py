"""The bench-trajectory compare of ``benchmarks/record.py``: a metric the
latest prior recording carries must not vanish from the new one."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

RECORD_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"

PRIOR = {
    "smoke": False,
    "benchmarks": {
        "server_mixed_load": {
            "requests_per_second": 2000.0,
            "latency": {"query": {"p50_seconds": 0.002, "count": 10}},
        },
    },
}


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, name: str, payload: dict) -> None:
    (root / name).write_text(json.dumps(payload))


def test_unchanged_metrics_pass(record, tmp_path):
    write(tmp_path, "BENCH_PR1.json", PRIOR)
    new = copy.deepcopy(PRIOR)
    assert record.run_comparison(
        "BENCH_PR2.json", new, 0.3, warn_only=False, root=tmp_path
    ) == 0


def test_added_key_passes_the_compare(record, tmp_path):
    write(tmp_path, "BENCH_PR1.json", PRIOR)
    new = copy.deepcopy(PRIOR)
    new["benchmarks"]["server_mixed_load"]["latency"]["ingest"] = {
        "p50_seconds": 0.004,
        "count": 10,
    }
    failures, _ = record.compare_records(
        "BENCH_PR2.json", new, record.bench_history(tmp_path), 0.3
    )
    assert failures == []
    assert record.run_comparison(
        "BENCH_PR2.json", new, 0.3, warn_only=False, root=tmp_path
    ) == 0


def test_deleted_key_fails_the_compare(record, tmp_path):
    write(tmp_path, "BENCH_PR1.json", PRIOR)
    new = copy.deepcopy(PRIOR)
    del new["benchmarks"]["server_mixed_load"]["latency"]["query"]
    failures, _ = record.compare_records(
        "BENCH_PR2.json", new, record.bench_history(tmp_path), 0.3
    )
    assert failures == [
        "server_mixed_load.latency.query.p50_seconds is in BENCH_PR1.json "
        "but missing from BENCH_PR2.json"
    ]
    assert record.run_comparison(
        "BENCH_PR2.json", new, 0.3, warn_only=False, root=tmp_path
    ) == 1
    # --warn-only reports the loss but does not fail
    assert record.run_comparison(
        "BENCH_PR2.json", new, 0.3, warn_only=True, root=tmp_path
    ) == 0
