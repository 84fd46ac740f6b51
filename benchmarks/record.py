"""Record and compare the repository's benchmark trajectory.

Runs the headline benchmarks (exact-enumeration grid, streaming
``update_many``, full fast-mode experiment suite, the service layer —
concurrent store ingest, snapshot/restore codec latency, query-cache
speedup — the HTTP server's mixed ingest/query load, the binary
columnar ingest path raced against JSON, and the same binary load with
a write-ahead log attached to measure the durability tax) and writes
their wall times and throughputs to a ``BENCH_PR<n>.json`` file at the
repository root, so successive PRs leave a comparable perf trail::

    PYTHONPATH=src python benchmarks/record.py --out BENCH_PR12.json
    PYTHONPATH=src python benchmarks/record.py --smoke --out BENCH_PR12.json

After writing (or with ``--compare-only``, instead of benching at all)
the record is diffed against every earlier ``BENCH_PR*.json``:

* metrics ending in ``_per_second`` are **hard-gated** — a drop of more
  than ``--max-regression`` (default 30%) against the most recent prior
  recording fails the run (or annotates, with ``--warn-only``);
* ``speedup`` metrics are **soft** — they compare cold vs cached or
  scalar vs vectorized timings and are too noisy to gate, so drifts
  only warn;
* latency quantiles (``p50_seconds`` .. ``p99_seconds``) are **soft
  and direction-reversed** — an *increase* beyond ``--max-regression``
  warns, but tail latency under a saturating load generator is too
  noisy to gate;
* a metric the most recent prior recording carries but the new record
  lacks **fails** the run: a benchmark that stops reporting a number
  must not drop out of the trajectory unnoticed.

Comparisons between a ``--smoke`` record and full-workload priors are
downgraded to warnings as well (different workload sizes).  Inside
GitHub Actions the messages use ``::warning``/``::error`` workflow
annotations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_FILE = re.compile(r"^BENCH_PR(\d+)\.json$")


# ----------------------------------------------------------------------
# Trajectory comparison
# ----------------------------------------------------------------------
def bench_history(root: Path = REPO_ROOT) -> list[tuple[int, Path, dict]]:
    """Every ``BENCH_PR<n>.json`` at the repo root, ordered by PR."""
    history = []
    for path in root.iterdir():
        match = _BENCH_FILE.match(path.name)
        if match:
            with path.open() as handle:
                history.append(
                    (int(match.group(1)), path, json.load(handle))
                )
    return sorted(history, key=lambda item: item[0])


#: latency-quantile leaves (``p50_seconds``, ``p99_seconds``, ...) —
#: compared in the *opposite* direction to throughput: bigger is worse
_LATENCY_LEAF = re.compile(r"^p\d+_seconds$")


def throughput_metrics(record: dict) -> dict[str, float]:
    """Comparable metrics of one record as ``dotted.path -> value``.

    Only the ``benchmarks`` subtree is scanned; a metric is comparable
    when its leaf name ends in ``_per_second``, is ``speedup``, or is a
    latency quantile (``p<n>_seconds``).
    """
    metrics: dict[str, float] = {}

    def walk(node: object, prefix: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{prefix}.{key}" if prefix else str(key))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaf = prefix.rsplit(".", 1)[-1]
            if (
                leaf.endswith("_per_second")
                or leaf == "speedup"
                or _LATENCY_LEAF.match(leaf)
            ):
                metrics[prefix] = float(node)

    walk(record.get("benchmarks", {}), "")
    return metrics


def compare_records(
    new_name: str,
    new_record: dict,
    history: list[tuple[int, Path, dict]],
    max_regression: float,
) -> tuple[list[str], list[str]]:
    """Diff ``new_record`` against the prior recordings.

    Returns ``(hard_failures, messages)``: every shared metric produces
    a human-readable message; drops beyond ``max_regression`` on hard
    (``_per_second``) metrics of a workload-comparable prior also land
    in ``hard_failures``, and so does every metric of the latest prior
    recording that ``new_record`` lacks.
    """
    def fmt(value: float) -> str:
        # latency quantiles are fractions of a second; ",.1f" would
        # flatten them all to 0.0
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.4g}"

    new_metrics = throughput_metrics(new_record)
    messages: list[str] = []
    failures: list[str] = []
    if not history:
        messages.append(
            "bench trajectory: no prior BENCH_PR*.json to compare against"
        )
        return failures, messages
    # baseline per metric = the most recent prior record carrying it
    baselines: dict[str, tuple[str, float, bool]] = {}
    for _, path, record in history:
        smoke = bool(record.get("smoke"))
        for metric, value in throughput_metrics(record).items():
            baselines[metric] = (path.name, value, smoke)
    smoke_mismatch_notes = set()
    for metric in sorted(new_metrics):
        if metric not in baselines:
            messages.append(
                f"  new       {metric} = {fmt(new_metrics[metric])}"
            )
            continue
        baseline_name, baseline, baseline_smoke = baselines[metric]
        value = new_metrics[metric]
        change = (value - baseline) / baseline if baseline else 0.0
        leaf = metric.rsplit(".", 1)[-1]
        # latency quantiles warn, never gate: tail latency under a
        # saturating load generator is far noisier than throughput
        latency = bool(_LATENCY_LEAF.match(leaf))
        soft = leaf == "speedup" or latency
        mismatch = bool(new_record.get("smoke")) != baseline_smoke
        if mismatch:
            smoke_mismatch_notes.add(baseline_name)
        # latency regresses by going *up*, throughput by going down
        regressed = (
            change > max_regression if latency else change < -max_regression
        )
        status = "ok"
        if regressed:
            status = "drifted" if (soft or mismatch) else "REGRESSED"
        messages.append(
            f"  {status:9s} {metric}  {fmt(baseline)} -> {fmt(value)} "
            f"({change:+.1%})  [vs {baseline_name}]"
        )
        if regressed and not soft and not mismatch:
            failures.append(
                f"{metric} regressed {change:+.1%} vs {baseline_name} "
                f"({fmt(baseline)} -> {fmt(value)}; gate is "
                f"-{max_regression:.0%})"
            )
    for name in sorted(smoke_mismatch_notes):
        messages.append(
            f"  note: exactly one of {new_name} and {name} is a smoke "
            "record; their regressions only warn (workload sizes differ)"
        )
    # a metric the latest prior recording carries must not silently
    # leave the trajectory (smoke or not: workload size keeps the keys)
    _, latest_path, latest = history[-1]
    for metric in sorted(set(throughput_metrics(latest)) - set(new_metrics)):
        messages.append(f"  MISSING   {metric}  [in {latest_path.name}]")
        failures.append(
            f"{metric} is in {latest_path.name} but missing from {new_name}"
        )
    return failures, messages


def run_comparison(
    new_name: str,
    new_record: dict,
    max_regression: float,
    warn_only: bool,
    root: Path = REPO_ROOT,
) -> int:
    history = [
        item for item in bench_history(root) if item[1].name != new_name
    ]
    failures, messages = compare_records(
        new_name, new_record, history, max_regression
    )
    prior_names = ", ".join(path.name for _, path, _ in history) or "none"
    print(f"\nbench trajectory: {new_name} vs {prior_names}")
    for message in messages:
        print(message)
    annotate = "GITHUB_ACTIONS" in os.environ
    for failure in failures:
        if annotate:
            kind = "warning" if warn_only else "error"
            print(f"::{kind} title=Bench trajectory::{failure}")
        print(f"{'warning' if warn_only else 'FAIL'}: {failure}")
    if failures and not warn_only:
        return 1
    return 0


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def record_benchmarks(smoke: bool) -> dict:
    # imported here, not at module level: the --compare-only path diffs
    # committed JSON files and must not require numpy/scipy/repro
    import bench_exact
    import bench_server
    import bench_service

    grid_points = 300 if smoke else 1500
    updates = 20_000 if smoke else 200_000
    service_updates = 40_000 if smoke else 400_000
    query_keys = 20_000 if smoke else 100_000
    server_updates = 40_000 if smoke else 200_000

    started = time.time()
    record = {
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "benchmarks": {
            "figure2_exact_moments_grid": bench_exact.bench_figure2_grid(
                grid_points
            ),
            "streaming_update_many": bench_exact.bench_update_many(updates),
            "run_all_experiments_fast": bench_exact.bench_run_all(),
            "service_concurrent_ingest": (
                bench_service.bench_concurrent_ingest(service_updates)
            ),
            "service_snapshot_restore": (
                bench_service.bench_snapshot_restore(service_updates)
            ),
            "service_query_cache": bench_service.bench_query_cache(
                query_keys, min_speedup=5.0
            ),
            "server_mixed_load": bench_server.bench_load(server_updates),
            "server_binary_ingest": bench_server.bench_binary_ingest(
                server_updates
            ),
            "server_wal_ingest": bench_server.bench_wal_ingest(
                server_updates
            ),
        },
    }
    record["total_bench_seconds"] = time.time() - started
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR12.json",
                        help="output file name (written at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workloads for a quick run")
    parser.add_argument("--compare-only", action="store_true",
                        help="skip the benchmarks; just diff --out "
                             "against the earlier BENCH_PR*.json files")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="tolerated fractional drop of hard "
                             "(_per_second) metrics (default 0.30)")
    args = parser.parse_args(argv)

    out_path = REPO_ROOT / args.out
    if args.compare_only:
        if not out_path.exists():
            print(
                f"error: {out_path} does not exist; record it first",
                file=sys.stderr,
            )
            return 2
        with out_path.open() as handle:
            record = json.load(handle)
    else:
        record = record_benchmarks(args.smoke)
        with out_path.open("w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {out_path}")

    return run_comparison(
        out_path.name, record, args.max_regression, args.warn_only
    )


if __name__ == "__main__":
    sys.exit(main())
