"""Host-speed probes for the benchmark's measured phases.

The benchmark's host is shared: the speed a process gets drifts by tens
of percent between runs a minute apart, and every timing drifts with
it.  Two probes measure that speed; neither uses anything from the
repository, so a change to the program cannot change what they read.

* The kernel probe (no arguments) runs beside the load.  It repeats a
  fixed kernel — interpreter arithmetic plus a NumPy hash-and-sort, the
  two kinds of work the server does — in short bursts under the
  ``SCHED_IDLE`` policy: it only runs on CPU time the benchmark leaves
  idle, yields at once to the server and the load generator, and sleeps
  between bursts so the host sees roughly the load it would see without
  it.  On SIGTERM it prints one JSON object: the kernel iterations and
  the CPU seconds they took.  Iterations per CPU second is the host's
  speed during the phase.
* The import probe (``--imports``) imports NumPy and ``scipy.stats``,
  the third-party modules a server boot spends most of its time
  loading, and exits.  Its wall time just before a boot is the host's
  speed at the kind of work a boot does, which the kernel probe does not
  track.

Usage::

    python benchmarks/perf/calibrate.py            # prints "ready", runs until SIGTERM
    python benchmarks/perf/calibrate.py --imports  # time this command
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

BURST = 4
PAUSE_SECONDS = 0.05


def kernel(column: np.ndarray) -> int:
    total = 0
    for value in range(5000):
        total += value * value
    mixed = (column * np.uint64(0x9E3779B97F4A7C15)) ^ (column >> np.uint64(7))
    mixed.sort()
    return total


def main(argv: list[str]) -> int:
    if argv == ["--imports"]:
        import scipy.stats  # noqa: F401

        return 0
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    stopped = False

    def stop(signum, frame) -> None:
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    column = np.arange(20_000, dtype=np.uint64)
    print("ready", flush=True)
    iterations = 0
    started = time.process_time()
    while not stopped:
        for _ in range(BURST):
            kernel(column)
        iterations += BURST
        time.sleep(PAUSE_SECONDS)
    cpu_seconds = time.process_time() - started
    json.dump({"iterations": iterations, "cpu_seconds": cpu_seconds}, sys.stdout)
    print(flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
