"""Shard-worker process: applies the rows of its shard group.

Each worker owns the shards ``s`` of every engine where ``s %
n_workers == worker_id``.  The parent routes every batch once
(:func:`repro.cluster.pool.partition`) and pipes each worker only its
own rows, in batch order; the worker runs the engine's normal
:meth:`StreamEngine.ingest_jobs` plan on that slice — so within every
shard the update sequence is byte-for-byte the one the serial engine
would have run, and the parent folding all worker deltas through the
associative sketch merge reproduces the serial engine *bit-exactly*
(each row is owned by exactly one worker, and ``merge_from`` sums
``n_updates``).

The loop is deliberately dumb: frames arrive in FIFO order over one
command pipe, and a ``collect`` frame therefore observes every batch
dispatched before it.  ``collect`` ships the engine's accumulated
delta and rebuilds the empty engine from its template (the
``StreamEngine`` keyword arguments the parent registered), making
worker state a pure delta since the last fold.  An idle worker sleeps
in ``poll``.
"""

from __future__ import annotations

import contextlib
import os
import traceback
from typing import TYPE_CHECKING, Any

from repro.service import codec
from repro.streaming.engine import StreamEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["worker_main"]

#: how often a blocked worker re-checks whether it was orphaned
_IDLE_POLL_SECONDS = 0.2


def worker_main(
    parent_pid: int,
    command_conn: "Connection",
    reply_conn: "Connection",
) -> None:
    """Blocking frame loop of one shard worker (process entry point).

    Frames (parent -> worker):

    * ``("engine", name, config)`` — start the engine empty from its
      ``StreamEngine`` keyword arguments, kept as the template it is
      rebuilt from after every ``collect``;
    * ``("batch", seq, name, (instance, keys, values))`` — ingest this
      worker's slice of one batch, then ack;
    * ``("collect", seq, name)`` — ship the accumulated delta and reset;
    * ``("stop",)`` — exit.

    Replies (worker -> parent): ``("ack", seq, name, rows)``,
    ``("state", seq, name, blob | None)``, ``("error", seq, message)``.
    A failing frame answers with ``error`` and keeps the loop alive —
    the parent decides whether that is fatal.
    """
    engines: dict[str, StreamEngine] = {}
    templates: dict[str, dict[str, Any]] = {}
    try:
        while True:
            try:
                if not command_conn.poll(_IDLE_POLL_SECONDS):
                    # reparented to init/subreaper: the parent is gone
                    # and nobody will ever send "stop"
                    if os.getppid() != parent_pid:
                        return
                    continue
                message = command_conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "stop":
                return
            try:
                if kind == "engine":
                    _, name, config = message
                    templates[name] = config
                    engines[name] = StreamEngine(**config)
                elif kind == "batch":
                    _, seq, name, (instance, keys, values) = message
                    engine = engines[name]
                    for job in engine.ingest_jobs(instance, keys, values):
                        StreamEngine.run_job(job)
                    reply_conn.send(("ack", seq, name, len(values)))
                elif kind == "collect":
                    _, seq, name = message
                    engine = engines.get(name)
                    if engine is None:
                        reply_conn.send(("state", seq, name, None))
                    else:
                        state = codec.to_bytes(engine)
                        engines[name] = StreamEngine(**templates[name])
                        reply_conn.send(("state", seq, name, state))
                else:
                    reply_conn.send(
                        ("error", -1, f"unknown frame kind {kind!r}")
                    )
            except Exception:
                seq = (
                    message[1]
                    if len(message) > 1 and isinstance(message[1], int)
                    else -1
                )
                try:
                    reply_conn.send(("error", seq, traceback.format_exc()))
                except OSError:
                    return
    finally:
        for conn in (command_conn, reply_conn):
            with contextlib.suppress(OSError):
                conn.close()
