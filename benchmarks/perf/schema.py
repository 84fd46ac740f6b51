"""Checks on ``BENCHMARK.json`` and on the benchmark's own output.

``check_spec`` runs before any workload: names, units and caps must fit
the benchmark contract, and every per-layer metric must declare (in
:mod:`layers`) the end-to-end metric and workload it should move.
``check_metrics`` runs on every result: a metric ``BENCHMARK.json``
names that a run did not report, or reported as something other than a
finite number, fails the run instead of dropping out of the record.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_WORKLOADS = 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load_spec(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _check_names(spec: dict) -> list[str]:
    errors = []
    groups = (
        ("workloads", MAX_WORKLOADS),
        ("end_to_end", MAX_END_TO_END),
        ("per_layer", MAX_PER_LAYER),
    )
    seen = set()
    for group, cap in groups:
        names = [entry.get("name") for entry in spec[group]]
        if not 1 <= len(names) <= cap:
            errors.append(f"{group}: {len(names)} entries, the cap is {cap}")
        for name in names:
            if not isinstance(name, str) or not NAME.fullmatch(name):
                errors.append(f"bad name {name!r}")
            elif name in seen:
                errors.append(f"name {name!r} is used twice")
            seen.add(name)
    if len(spec["workloads"]) < 2:
        errors.append("workloads: at least 2 are required")
    return errors


def _check_entries(spec: dict) -> list[str]:
    errors = []
    for entry in spec["workloads"]:
        why = entry.get("why")
        if set(entry) != {"name", "why"} or not isinstance(why, str) or "\n" in why:
            errors.append(f"workload {entry.get('name')!r} needs a one-line why")
    for group in ("end_to_end", "per_layer"):
        expected = {"name", "unit", "better"}
        if group == "end_to_end":
            expected.add("bound")
        for entry in spec[group]:
            name = entry.get("name")
            if set(entry) != expected:
                errors.append(f"{name!r}: keys must be {sorted(expected)}")
            if not UNIT.fullmatch(str(entry.get("unit"))):
                errors.append(f"{name!r}: bad unit {entry.get('unit')!r}")
            if entry.get("better") not in ("higher", "lower"):
                errors.append(f"{name!r}: better must be 'higher' or 'lower'")
            bound = entry.get("bound", MAX_BOUND)
            if not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
                errors.append(f"{name!r}: bound must lie in (0, {MAX_BOUND}]")
    return errors


def _check_declarations(spec: dict, declared: dict) -> list[str]:
    errors = []
    workloads = {entry["name"] for entry in spec["workloads"]}
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    for entry in spec["per_layer"]:
        name = entry.get("name")
        if name not in declared:
            errors.append(
                f"per-layer metric {name!r} declares no end-to-end metric "
                "and workload it should move"
            )
            continue
        unit, better, moves, on = declared[name]
        if (entry.get("unit"), entry.get("better")) != (unit, better):
            errors.append(f"{name!r}: unit or better differs from its declaration")
        if not moves or not set(moves) <= end_to_end:
            errors.append(f"{name!r} moves unknown end-to-end metrics {moves}")
        if on not in workloads:
            errors.append(f"{name!r} moves them on unknown workload {on!r}")
    return errors


def check_spec(spec: dict, declared: dict) -> list[str]:
    """Contract violations of ``spec``.

    ``declared`` maps per-layer metric names to ``(unit, better, moves,
    on)`` (see :func:`layers.declared_metrics`).
    """
    if set(spec) != KEYS:
        return [f"keys must be exactly {sorted(KEYS)}, got {sorted(spec)}"]
    errors = []
    run_seconds = spec["run_seconds"]
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        errors.append(f"run_seconds must be a whole number in 1..60: {run_seconds!r}")
    if "setup_s" not in {entry.get("name") for entry in spec["end_to_end"]}:
        errors.append("end_to_end must include setup_s")
    errors += _check_names(spec)
    errors += _check_entries(spec)
    if not errors:
        errors += _check_declarations(spec, declared)
    return errors


def check_metrics(spec: dict, group: str, metrics: dict) -> list[str]:
    """Missing or non-numeric ``group`` metrics (``end_to_end`` or
    ``per_layer``) in one run's ``{name: {"value", "unit"}}`` output."""
    errors = []
    for entry in spec[group]:
        name = entry["name"]
        reported = metrics.get(name)
        if reported is None:
            errors.append(f"metric {name!r} is missing")
            continue
        value = reported.get("value")
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            errors.append(f"metric {name!r} has no finite value: {value!r}")
        if reported.get("unit") != entry["unit"]:
            errors.append(
                f"metric {name!r} is in {reported.get('unit')!r}, "
                f"expected {entry['unit']!r}"
            )
    return errors
