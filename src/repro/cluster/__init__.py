"""Multiprocess shard-worker ingest plane.

The paper's coordinated sketches are associative and commutative under
merge, so per-shard state can live in independent worker *processes*
and be combined by the existing reduce step
(:meth:`repro.streaming.StreamEngine.merge_from`) with no loss of
estimate fidelity — and, because each row is owned by exactly one
worker, with *bit-exact* parity against single-process ingest.

Layers:

* :mod:`repro.cluster.pool` — :func:`partition` routes each batch once
  (row -> shard -> worker); :class:`ShardWorkerPool` pipes every worker
  its slice, collects deltas, probes, and detects and respawns crashed
  workers;
* :mod:`repro.cluster.worker` — the worker process: builds each engine
  empty from its template, the engine's configuration (the
  ``StreamEngine`` keyword arguments), ingests its slices through the
  engine's own plan and ships its delta on ``collect``.

The store integration lives in :meth:`repro.service.SketchStore.
start_workers`; a served store opts in with ``serve --workers N`` (an
embedding calls ``start_workers`` itself before handing the store to
:class:`repro.server.SketchServer`, and ``stop_workers`` after its
shutdown).
"""

from repro.cluster.pool import (
    ClusterProtocolError,
    ShardWorkerPool,
    WorkerCrashError,
    partition,
)
from repro.cluster.worker import worker_main

__all__ = [
    "ClusterProtocolError",
    "ShardWorkerPool",
    "WorkerCrashError",
    "partition",
    "worker_main",
]
