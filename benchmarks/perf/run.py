"""The repository benchmark: four served workloads, end to end and per layer.

Usage::

    python benchmarks/perf/run.py --seed 0          # all workloads, both passes
    python benchmarks/perf/run.py --workload mixed --seed 3 --seconds 10 --trace 0

Each workload runs against a real server process (``serve.py``) loaded
from this process over at most two keep-alive connections.  ``--trace
0`` runs the untraced pass and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the untraced pass, then a traced
pass with the per-layer span ledger, and reports the per-layer metrics
(``trace_overhead`` compares the two passes).  Without ``--trace`` both
groups are reported.  Every pass checks the server's outputs against an
in-process computation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed and every metric of ``BENCHMARK.json`` was reported;
2 when ``BENCHMARK.json`` itself breaks the contract or the source tree
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_build" / "perf"
GROUPS = {0: ("end_to_end",), 1: ("per_layer",), None: ("end_to_end", "per_layer")}


def _parse_args(argv, workload_names: list[str], run_seconds: int):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=workload_names,
        default=None,
        help="run one workload (default: all)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of every generated key, value and query order",
    )
    parser.add_argument(
        "--seconds",
        type=int,
        default=run_seconds,
        help="timed window of each pass",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: end-to-end metrics; 1: per-layer metrics (default: both)",
    )
    return parser.parse_args(argv)


def _stop_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the harness's finally blocks, which stop
    # the server and probe processes this run started
    raise SystemExit(128 + signum)


def _run_workload(harness, workload_class, args, work: Path) -> dict:
    """The passes one mode needs, with their metrics, checks and stamp."""
    import numpy

    workload = workload_class(args.seed, work / workload_class.name)
    workload.work.mkdir(parents=True)
    started = time.perf_counter()
    corpus = workload.prepare()
    prep_seconds = time.perf_counter() - started
    passes = {"plain": harness.run_pass(workload, args.seconds, traced=False)}
    values = harness.end_to_end(passes["plain"])
    if args.trace != 0:
        passes["traced"] = harness.run_pass(workload, args.seconds, traced=True)
        values.update(harness.per_layer(passes["plain"], passes["traced"]))
    attempted = failed = 0
    for result in passes.values():
        attempted += len(result.load.samples) + result.checks
        failed += harness.failures(result) + len(result.mismatches)
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "cores_visible": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "window_s": args.seconds,
        "warmup_s": harness.WARMUP_SECONDS,
        "setup_boots": harness.SETUP_BOOTS,
        "connections": len(workload.lanes()),
        "corpus": corpus,
        "harness_prep_s": prep_seconds,
        "error_rate": failed / attempted,
    }
    passes_info = {name: harness.describe(result) for name, result in passes.items()}
    print(json.dumps({"stamp": stamp, "passes": passes_info}, sort_keys=True))
    return {"values": values, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import layers
    import schema

    spec = schema.load_spec(SPEC_PATH)
    errors = schema.check_spec(spec, layers.declared_metrics())
    names = [entry["name"] for entry in spec["workloads"]]
    if set(names) != set(harness.WORKLOADS):
        errors.append(f"workloads {names} differ from {sorted(harness.WORKLOADS)}")
    if errors:
        for error in errors:
            print(f"BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    args = _parse_args(argv, names, spec["run_seconds"])
    groups = GROUPS[args.trace]
    selected = [args.workload] if args.workload else names
    single = len(selected) == 1 and len(groups) == 1

    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    work = WORK_ROOT / f"run-{os.getpid()}"
    summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    incomplete = []
    try:
        for name in selected:
            outcome = _run_workload(harness, harness.WORKLOADS[name], args, work)
            summary["attempted"] += outcome["attempted"]
            summary["failed"] += outcome["failed"]
            for group in groups:
                metrics = {
                    entry["name"]: {
                        "value": outcome["values"][entry["name"]],
                        "unit": entry["unit"],
                    }
                    for entry in spec[group]
                    if entry["name"] in outcome["values"]
                }
                incomplete += [
                    f"{name}: {problem}"
                    for problem in schema.check_metrics(spec, group, metrics)
                ]
                print(f"== {name} {group}")
                for metric, reported in metrics.items():
                    value, unit = reported["value"], reported["unit"]
                    print(f"  {metric:32s} {value:>16.6g} {unit}")
                    key = metric if single else f"{name}/{metric}"
                    summary["metrics"][key] = reported
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in incomplete:
        print(f"incomplete: {problem}", file=sys.stderr)
    summary["correct"] = summary["failed"] == 0 and not incomplete
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
