"""Parent-side orchestration of the multiprocess shard-worker plane.

:class:`ShardWorkerPool` forks ``n_workers`` processes, each owning
the shard group ``{s : s % n_workers == worker_id}`` of every engine.
The parent routes every batch once (:func:`partition`: one key-hash
pass, the routing of :meth:`StreamEngine.ingest_jobs`) and pipes each
worker only the rows it owns; reads fan back in by *collecting*
per-worker engine deltas that the store folds through the associative
sketch merge.  Each worker has one command pipe (parent -> worker) and
one reply pipe (worker -> parent).

Ordering is the only protocol invariant: frames to a worker are FIFO,
so a ``collect`` observes every batch dispatched before it, and no
global barrier is needed for a consistent per-engine fold.

Crash handling is cooperative with the store's write-ahead log: the
pool detects a dead worker (``dispatch``/``collect`` raise
:class:`WorkerCrashError`), :meth:`respawn` restarts the slot and
re-registers engine templates, and the *store* replays the WAL tail of
un-folded batches to the fresh worker — so acked batches survive a
``SIGKILL`` of any worker.

An engine template is the engine's configuration: the keyword
arguments of :class:`~repro.streaming.StreamEngine` (its
``sketch_config`` plus ``n_shards``), from which a worker builds the
empty engine it accumulates a delta on.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.cluster.worker import worker_main
from repro.sampling.seeds import key_hashes

__all__ = [
    "ClusterProtocolError",
    "ShardWorkerPool",
    "WorkerCrashError",
    "partition",
]

#: one worker's share of a batch: ``(instance, keys, values)``, or
#: ``None`` when the worker owns none of its rows
Slice = tuple[object, Sequence[object], np.ndarray] | None


def partition(
    instance: object,
    keys: Sequence[object],
    values: object,
    n_shards: int,
    n_workers: int,
) -> list[Slice]:
    """Split one column batch into each worker's rows.

    Routing mirrors :meth:`StreamEngine.ingest_jobs` exactly — row ->
    shard ``key_hashes(keys) % n_shards`` -> worker ``shard %
    n_workers`` — and every slice keeps the batch order, so within each
    shard a worker replays the update sequence of the serial engine.
    A worker that owns no row gets ``None``.  An empty batch goes to
    every worker: ingesting it still creates the instance, which every
    delta must do for state parity with the serial engine.
    """
    column = np.asarray(values, dtype=float)
    if column.size == 0 or n_workers == 1:
        return [(instance, keys, column) for _ in range(n_workers)]
    owners = key_hashes(keys) % np.uint64(n_shards) % np.uint64(n_workers)
    slices: list[Slice] = []
    for worker in range(n_workers):
        index = np.flatnonzero(owners == np.uint64(worker))
        if index.size == 0:
            slices.append(None)
        elif index.size == column.size:
            slices.append((instance, keys, column))
        elif isinstance(keys, np.ndarray):
            slices.append((instance, keys[index], column[index]))
        else:
            slices.append(
                (instance, [keys[i] for i in index.tolist()], column[index])
            )
    return slices


class WorkerCrashError(RuntimeError):
    """One or more workers died; carries the dead slot indices.

    Recoverable: the caller respawns the slots and (with a WAL
    attached) replays the un-folded batch tail to them.
    """

    def __init__(self, indices: list[int]) -> None:
        self.indices = sorted(set(indices))
        super().__init__(
            f"shard worker(s) {self.indices} died"
        )


class ClusterProtocolError(RuntimeError):
    """A worker answered a frame with an application error.

    Not recoverable by respawn-and-replay — the same frame would fail
    again — so it surfaces to the caller as a server-side fault.
    """


class _Worker:
    """One worker slot: process, pipes, and flow counters."""

    __slots__ = (
        "index",
        "process",
        "command_conn",
        "reply_conn",
        "sent",
        "acked",
        "batches",
        "rows",
        "restarts",
    )

    def __init__(
        self,
        index: int,
        process: Any,
        command_conn: Any,
        reply_conn: Any,
        *,
        batches: int = 0,
        rows: int = 0,
        restarts: int = 0,
    ) -> None:
        self.index = index
        self.process = process
        self.command_conn = command_conn
        self.reply_conn = reply_conn
        self.sent = 0
        self.acked = 0
        self.batches = batches
        self.rows = rows
        self.restarts = restarts


class ShardWorkerPool:
    """N shard-worker processes behind dispatch/collect/respawn."""

    def __init__(self, n_workers: int) -> None:
        if int(n_workers) < 1:
            raise InvalidParameterError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = int(n_workers)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        #: serializes every pool interaction *and* the store's version /
        #: synced-version bookkeeping around it, so crash healing sees a
        #: consistent dispatched-vs-folded state across engines
        self.lock = threading.RLock()
        #: engine name -> StreamEngine keyword arguments (the worker's
        #: template of the engine; re-sent to every respawned worker)
        self._engines: dict[str, dict[str, Any]] = {}
        #: deltas rescued from a crash-interrupted collect, by name
        self._stray_states: dict[str, list[bytes]] = {}
        #: non-ack replies consumed by opportunistic ack folding, kept
        #: for the next collect/drain of that worker
        self._reply_stash: dict[int, list[tuple]] = {}
        self._workers: list[_Worker] = []
        self._seq = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardWorkerPool":
        """Spawn every worker process."""
        with self.lock:
            if self._started:
                raise InvalidParameterError("worker pool already started")
            self._started = True
            for index in range(self.n_workers):
                self._workers.append(self._spawn(index))
        return self

    def _spawn(
        self,
        index: int,
        *,
        batches: int = 0,
        rows: int = 0,
        restarts: int = 0,
    ) -> _Worker:
        command_child, command_parent = self._ctx.Pipe(duplex=False)
        reply_parent, reply_child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(os.getpid(), command_child, reply_child),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        process.start()
        # the child holds its own ends now; closing ours makes worker
        # death observable as EOF/broken pipe
        reply_child.close()
        command_child.close()
        return _Worker(
            index,
            process,
            command_parent,
            reply_parent,
            batches=batches,
            rows=rows,
            restarts=restarts,
        )

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop every worker and close its pipes."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                with contextlib.suppress(Exception):
                    self._send(worker, ("stop",))
            for worker in self._workers:
                worker.process.join(timeout=join_timeout)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=join_timeout)
                self._release(worker)
            self._workers = []

    @staticmethod
    def _release(worker: _Worker) -> None:
        for conn in (worker.command_conn, worker.reply_conn):
            with contextlib.suppress(OSError):
                conn.close()
        with contextlib.suppress(ValueError):
            worker.process.close()

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def _send(self, worker: _Worker, message: tuple) -> None:
        try:
            worker.command_conn.send(message)
        except OSError as exc:  # BrokenPipeError: the worker is gone
            raise WorkerCrashError([worker.index]) from exc

    def _pump(self, worker: _Worker, timeout: float) -> tuple | None:
        """Next non-ack reply from ``worker`` (acks fold into counters).

        Returns ``None`` when no reply arrives within ``timeout``;
        raises :class:`WorkerCrashError` on a broken reply pipe.
        """
        stash = self._reply_stash.get(worker.index)
        if stash:
            return stash.pop(0)
        while True:
            try:
                if not worker.reply_conn.poll(timeout):
                    return None
                message = worker.reply_conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashError([worker.index]) from exc
            if message[0] == "ack":
                worker.acked += 1
                worker.batches += 1
                worker.rows += int(message[3])
                continue
            return message

    def _fold_acks(self, worker: _Worker) -> None:
        """Consume buffered acks (queue-depth bookkeeping); any non-ack
        reply is stashed for the next collect/drain, not dropped."""
        with contextlib.suppress(WorkerCrashError):
            message = self._pump(worker, timeout=0.0)
            if message is not None:
                self._reply_stash.setdefault(worker.index, []).append(
                    message
                )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Dispatch / collect / drain
    # ------------------------------------------------------------------
    def dispatch(self, name: str, slices: Sequence[Slice]) -> None:
        """Send each worker its slice of one batch (see :func:`partition`).

        Workers whose slice is ``None`` get no frame.  Sends to every
        *live* owner even when some slots are dead, so healthy workers
        never miss a batch; dead slots are reported in one
        :class:`WorkerCrashError` afterwards (their rows are recovered
        from the WAL tail after respawn).
        """
        with self.lock:
            dead: list[int] = []
            for worker, batch in zip(self._workers, slices):
                if batch is None:
                    continue
                try:
                    self._send_batch(worker, name, batch)
                except WorkerCrashError:
                    dead.append(worker.index)
            if dead:
                raise WorkerCrashError(dead)

    def dispatch_to(self, index: int, name: str, batch: Slice) -> None:
        """Send one slice to a single worker (WAL-tail replay)."""
        with self.lock:
            self._send_batch(self._workers[index], name, batch)

    def _send_batch(self, worker: _Worker, name: str, batch: Slice) -> None:
        # drain acks first: a worker parked on a full reply pipe would
        # otherwise never read the command pipe this send blocks on
        self._fold_acks(worker)
        self._send(worker, ("batch", self._next_seq(), name, batch))
        worker.sent += 1

    def register_engine(self, name: str, config: dict[str, Any]) -> None:
        """Broadcast an engine template — the ``StreamEngine`` keyword
        arguments of an empty copy — to every worker.

        Also called to *replace* an engine after ``adopt``: workers
        drop their accumulated delta and start from the new template.
        """
        with self.lock:
            self._engines[name] = dict(config)
            dead: list[int] = []
            for worker in self._workers:
                if not worker.process.is_alive():
                    dead.append(worker.index)
                    continue
                try:
                    self._send(
                        worker, ("engine", name, self._engines[name])
                    )
                except WorkerCrashError:
                    dead.append(worker.index)
            if dead:
                raise WorkerCrashError(dead)

    def collect(self, name: str) -> list[bytes]:
        """Fetch-and-reset every worker's delta for ``name``.

        FIFO ordering makes the result exact: each returned blob
        reflects every batch dispatched to that worker before this
        call.  Deltas from a crash-interrupted earlier collect are
        included (they were reset out of their workers and must not be
        lost).  Raises :class:`WorkerCrashError` with the dead slots —
        after healing, calling again yields the remaining deltas.
        """
        with self.lock:
            results: list[bytes] = list(self._stray_states.pop(name, []))
            expected: dict[int, int] = {}
            dead: list[int] = []
            for worker in self._workers:
                sequence = self._next_seq()
                try:
                    self._send(worker, ("collect", sequence, name))
                except WorkerCrashError:
                    dead.append(worker.index)
                    continue
                expected[worker.index] = sequence
            for worker in self._workers:
                want = expected.get(worker.index)
                if want is None:
                    continue
                if not self._collect_one(worker, want, name, results):
                    dead.append(worker.index)
            if dead:
                if results:
                    # rescue already-reset deltas for the post-heal retry
                    self._stray_states.setdefault(name, []).extend(results)
                raise WorkerCrashError(dead)
            return results

    def _collect_one(
        self,
        worker: _Worker,
        want: int,
        name: str,
        results: list[bytes],
    ) -> bool:
        """Wait for ``worker``'s state reply; False when it died."""
        while True:
            try:
                message = self._pump(worker, timeout=0.05)
            except WorkerCrashError:
                return False
            if message is None:
                if worker.process.is_alive():
                    continue
                # one last sweep: the state may have been shipped just
                # before death
                try:
                    message = self._pump(worker, timeout=0.0)
                except WorkerCrashError:
                    return False
                if message is None:
                    return False
            kind = message[0]
            if kind == "state":
                _, sequence, state_name, blob = message
                if blob is not None:
                    if state_name == name:
                        results.append(blob)
                    else:
                        self._stray_states.setdefault(
                            state_name, []
                        ).append(blob)
                if sequence == want:
                    return True
            elif kind == "error":
                raise ClusterProtocolError(
                    f"worker {worker.index} failed a frame:\n{message[2]}"
                )
            else:  # pragma: no cover - future reply kinds
                raise ClusterProtocolError(
                    f"worker {worker.index} sent unknown reply "
                    f"{message[0]!r}"
                )

    def drain(self) -> None:
        """Block until every live worker acked every dispatched batch."""
        with self.lock:
            for worker in self._workers:
                while worker.acked < worker.sent:
                    message = self._pump(worker, timeout=0.05)
                    if message is not None:
                        if message[0] == "error":
                            raise ClusterProtocolError(
                                f"worker {worker.index} failed a frame:\n"
                                f"{message[2]}"
                            )
                        continue
                    if not worker.process.is_alive():
                        raise WorkerCrashError([worker.index])

    # ------------------------------------------------------------------
    # Crash handling + probes
    # ------------------------------------------------------------------
    def dead_workers(self) -> list[int]:
        """Slot indices whose process is not alive."""
        with self.lock:
            return [
                worker.index
                for worker in self._workers
                if not worker.process.is_alive()
            ]

    def respawn(self, index: int) -> None:
        """Restart a dead slot and re-register every engine template.

        The fresh worker starts from empty engines; the caller replays
        the un-folded WAL tail to it (``dispatch_to``) before the next
        collect, restoring exactly the delta the dead worker lost.
        """
        with self.lock:
            old = self._workers[index]
            if old.process.is_alive():
                old.process.terminate()
                old.process.join(timeout=5.0)
            else:
                old.process.join(timeout=0.1)
            self._release(old)
            # late replies of the dead incarnation are void: everything
            # they carried is regenerated by the caller's WAL-tail replay
            self._reply_stash.pop(index, None)
            fresh = self._spawn(
                index,
                batches=old.batches,
                rows=old.rows,
                restarts=old.restarts + 1,
            )
            for name, config in self._engines.items():
                self._send(fresh, ("engine", name, config))
            self._workers[index] = fresh

    def probes(self) -> list[dict]:
        """Per-worker observability rows for ``/metrics``/``/statusz``."""
        with self.lock:
            rows = []
            for worker in self._workers:
                self._fold_acks(worker)
                rows.append(
                    {
                        "worker": worker.index,
                        "pid": worker.process.pid,
                        "alive": bool(worker.process.is_alive()),
                        "queue_depth": worker.sent - worker.acked,
                        "batches": worker.batches,
                        "rows": worker.rows,
                        "restarts": worker.restarts,
                    }
                )
            return rows
