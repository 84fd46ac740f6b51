"""Command-line front end of the sketch service.

Drives the persistent store end-to-end from the shell::

    python -m repro.service ingest   --store s.bin --name traffic \\
        --kind poisson --threshold 0.5 --salt 7 --input updates.csv
    python -m repro.service snapshot --store s.bin
    python -m repro.service merge    --out merged.bin s1.bin s2.bin
    python -m repro.service query    --store merged.bin --name traffic \\
        --kind distinct --instances monday tuesday
    python -m repro.service serve    --store s.bin --port 8080 \\
        --create name=traffic,kind=poisson,threshold=0.5,salt=7
    python -m repro.service serve    --store s.bin --wal-dir s.wal \\
        --fsync always
    python -m repro.service recover  --store s.bin --wal-dir s.wal

``serve`` boots the :mod:`repro.server` asyncio HTTP front-end over the
store file (restored when it exists, created otherwise), prints one
JSON "listening" line to stdout, and on SIGINT/SIGTERM shuts down
gracefully — draining in-flight requests and snapshotting back to the
store file if any engine changed.  With ``--wal-dir`` the server first
*recovers* (snapshot + write-ahead-log tail, exactly what ``recover``
does offline), then appends every ingest batch to the log before
applying it, so a ``kill -9`` loses at most the unsynced tail — nothing
at all under ``--fsync always``.

Update streams are CSV (``instance,key,value`` columns, optional header),
JSON lines (objects with ``instance`` / ``key`` / ``value`` fields;
selected with ``--format jsonl`` or a ``.jsonl`` suffix), or binary
columnar batch files (:mod:`repro.server.wire`; ``--format binary`` or a
``.rbat`` suffix).  ``convert`` re-encodes a CSV/JSONL stream into the
binary format — the same bytes ``POST /v1/ingest`` accepts as
``application/x-repro-batch`` — and ``ingest`` replays such a file
through the coalescing fast path.  Non-finite update values are rejected
on every path.  Every command prints a JSON summary to stdout, so the
CLI composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

from repro.exceptions import ReproError
from repro.sampling.ranks import rank_family_from_name
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, query_value_json
from repro.service.store import IngestRequest, SketchStore, group_rows

__all__ = ["main"]

_DEFAULT_FAMILIES = {"bottom_k": "exp", "poisson": "uniform"}


# ----------------------------------------------------------------------
# Update-stream parsing
# ----------------------------------------------------------------------
def _detect_format(path: Path, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    if path.suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if path.suffix in (".rbat", ".bin"):
        return "binary"
    return "csv"


def _parse_key(key: str, int_keys: bool) -> object:
    return int(key) if int_keys else key


def _finite(value: float, where: str) -> float:
    # float('nan')/'inf' parse fine and NaN defeats every downstream
    # ordering check, so the readers reject non-finite values up front
    if not math.isfinite(value):
        raise SystemExit(f"{where}: update values must be finite, got {value!r}")
    return value


def _read_updates(path: Path, fmt: str, int_keys: bool):
    """Yield ``(instance, key, value)`` triples from an update file."""
    if fmt == "jsonl":
        with path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    triple = (
                        row["instance"],
                        int(row["key"]) if int_keys else row["key"],
                        float(row["value"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise SystemExit(
                        f"{path}:{line_number}: bad JSONL update: {exc}"
                    ) from exc
                _finite(triple[2], f"{path}:{line_number}")
                yield triple
        return
    with path.open(newline="") as handle:
        # line_number counts non-empty rows so the optional header is
        # recognised even after leading blank lines, and error messages
        # stay meaningful in files with blank separators
        line_number = 0
        for row in csv.reader(handle):
            if not row:
                continue
            line_number += 1
            if line_number == 1 and row == ["instance", "key", "value"]:
                continue  # optional header
            if len(row) != 3:
                raise SystemExit(
                    f"{path}:{line_number}: expected instance,key,value; "
                    f"got {len(row)} columns"
                )
            try:
                triple = row[0], _parse_key(row[1], int_keys), float(row[2])
            except ValueError as exc:
                raise SystemExit(
                    f"{path}:{line_number}: bad update row: {exc}"
                ) from exc
            _finite(triple[2], f"{path}:{line_number}")
            yield triple


def _batched(iterable, batch_size: int):
    batch = []
    for item in iterable:
        batch.append(item)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _load_store(path: Path) -> SketchStore:
    if path.exists():
        return SketchStore.restore(path)
    return SketchStore()


def _ensure_engine(store: SketchStore, args) -> None:
    if args.name in store:
        return
    ranks = args.ranks or _DEFAULT_FAMILIES[args.kind]
    kwargs = {
        "rank_family": rank_family_from_name(ranks),
        "seed_assigner": SeedAssigner(
            salt=args.salt, coordinated=args.coordinated
        ),
        "n_shards": args.shards,
    }
    if args.kind == "bottom_k":
        store.create(args.name, "bottom_k", k=args.k, **kwargs)
    else:
        if args.threshold is None:
            raise SystemExit(
                "creating a poisson store requires --threshold"
            )
        store.create(
            args.name, "poisson", threshold=args.threshold, **kwargs
        )


def _cmd_ingest(args) -> dict:
    store_path = Path(args.store)
    store = _load_store(store_path)
    _ensure_engine(store, args)
    input_path = Path(args.input)
    fmt = _detect_format(input_path, args.format)
    if fmt == "binary":
        return _ingest_binary(args, store, store_path, input_path)
    updates = _read_updates(input_path, fmt, args.int_keys)
    batches = _batched(updates, args.batch_size)
    n_rows = 0

    def ingest(rows) -> int:
        store.submit(IngestRequest(engine=args.name, batches=group_rows(rows)))
        return len(rows)

    if args.threads > 1:
        # Bounded submission: Executor.map would drain the whole update
        # file into the futures queue; keep only O(threads) batches in
        # flight so memory stays proportional to --batch-size.
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            in_flight = set()
            for rows in batches:
                in_flight.add(pool.submit(ingest, rows))
                if len(in_flight) >= 2 * args.threads:
                    done, in_flight = wait(
                        in_flight, return_when=FIRST_COMPLETED
                    )
                    n_rows += sum(future.result() for future in done)
            n_rows += sum(future.result() for future in in_flight)
    else:
        n_rows = sum(ingest(rows) for rows in batches)
    store.snapshot(store_path)
    return {
        "command": "ingest",
        "store": str(store_path),
        "name": args.name,
        "rows_ingested": n_rows,
        "version": store.version(args.name),
        "instances": sorted(
            str(label)
            for label in store.engine(args.name).instance_labels
        ),
    }


def _ingest_binary(args, store, store_path: Path, input_path: Path) -> dict:
    """Replay a :mod:`repro.server.wire` batch file into the store.

    The decoded columns go through one coalescing
    :meth:`SketchStore.submit` — the CLI twin of the server's
    ``application/x-repro-batch`` ingest.
    """
    from repro.server.wire import decode_batches

    batches = decode_batches(input_path.read_bytes())
    n_rows = sum(len(batch.values) for batch in batches)
    store.submit(IngestRequest(engine=args.name, batches=batches))
    store.snapshot(store_path)
    return {
        "command": "ingest",
        "store": str(store_path),
        "name": args.name,
        "format": "binary",
        "batches": len(batches),
        "rows_ingested": n_rows,
        "version": store.version(args.name),
        "instances": sorted(
            str(label)
            for label in store.engine(args.name).instance_labels
        ),
    }


def _cmd_convert(args) -> dict:
    """Re-encode a CSV/JSONL update stream as a binary batch file."""
    from repro.server.wire import encode_batches

    input_path = Path(args.input)
    fmt = _detect_format(input_path, args.format)
    if fmt == "binary":
        raise SystemExit(
            "convert reads CSV/JSONL update streams; "
            f"{input_path} already looks binary"
        )
    updates = _read_updates(input_path, fmt, args.int_keys)
    batches = []
    n_rows = 0
    for rows in _batched(updates, args.batch_size):
        # one wire batch per instance within each window, preserving the
        # stream's batching envelope (the permutation guarantee makes
        # the exact grouping irrelevant to the final sketch state)
        batches.extend(group_rows(rows))
        n_rows += len(rows)
    blob = encode_batches(batches)
    out_path = Path(args.out)
    out_path.write_bytes(blob)
    return {
        "command": "convert",
        "input": str(input_path),
        "out": str(out_path),
        "batches": len(batches),
        "rows": n_rows,
        "bytes": len(blob),
    }


def _cmd_snapshot(args) -> dict:
    store_path = Path(args.store)
    store = SketchStore.restore(store_path)
    out_path = Path(args.out) if args.out else store_path
    store.snapshot(out_path)
    return {
        "command": "snapshot",
        "store": str(store_path),
        "out": str(out_path),
        "engines": store.describe(),
    }


def _cmd_merge(args) -> dict:
    store = SketchStore.restore(args.inputs[0])
    for peer in args.inputs[1:]:
        store.merge_snapshot(peer)
    out_path = store.snapshot(args.out)
    return {
        "command": "merge",
        "inputs": [str(path) for path in args.inputs],
        "out": str(out_path),
        "engines": store.describe(),
    }


def _cmd_query(args) -> dict:
    store = SketchStore.restore(args.store)
    instances = [
        _parse_key(label, args.int_instances) for label in args.instances
    ]
    query = Query(
        args.kind,
        tuple(instances),
        variant=args.variant,
        confidence=args.confidence,
    )
    result = store.query(args.name, query)
    payload = {
        "command": "query",
        "store": str(args.store),
        "name": args.name,
        "kind": args.kind,
        "instances": args.instances,
        "version": result.version,
        "value": query_value_json(result.value),
    }
    if result.confidence is not None:
        payload["confidence"] = result.confidence
    return payload


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _parse_engine_spec(spec: str) -> dict:
    """Parse one ``--create`` engine spec.

    A spec is comma-separated ``key=value`` pairs, e.g.
    ``name=traffic,kind=poisson,threshold=0.5,salt=7,ranks=uniform``.
    Supported keys: ``name`` (required), ``kind``, ``k``, ``threshold``,
    ``ranks``, ``salt``, ``coordinated``, ``shards``.
    """
    allowed = {
        "name", "kind", "k", "threshold", "ranks", "salt", "coordinated",
        "shards",
    }
    fields: dict[str, str] = {}
    for pair in spec.split(","):
        key, separator, value = pair.partition("=")
        key = key.strip()
        if not separator or key not in allowed:
            raise SystemExit(
                f"bad --create spec {spec!r}: expected comma-separated "
                f"key=value pairs with keys in {sorted(allowed)}"
            )
        fields[key] = value.strip()
    if "name" not in fields:
        raise SystemExit(f"--create spec {spec!r} requires name=<engine>")
    return fields


def _create_from_spec(store: SketchStore, fields: dict) -> None:
    """Create an engine from a parsed ``--create`` spec.

    Delegates to :meth:`SketchStore.create_from_config` — the same
    creation path as the HTTP ``POST /v1/engines`` endpoint — so both
    serving surfaces apply identical defaults.  The spec's ``shards``
    shorthand maps to the canonical ``n_shards`` key.
    """
    config = dict(fields)
    if "shards" in config:
        config["n_shards"] = config.pop("shards")
    store.create_from_config(config)


def _recover_with_wal(args, store_path: Path):
    """Open the WAL, recover snapshot + tail, attach, re-persist.

    Shared boot path of ``serve --wal-dir`` and ``recover``: after it
    returns, ``--store`` holds the recovered state, the replayed tail is
    checkpointed, and the returned store has the (still open) log
    attached.  Corruption raises :class:`WalCorruptionError` out of here
    — the process refuses to serve partial data.
    """
    from repro.wal import WriteAheadLog, recover_store

    wal = WriteAheadLog(
        args.wal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        segment_bytes=args.wal_segment_bytes,
    )
    try:
        report = recover_store(
            store_path if store_path.exists() else None, wal
        )
        store = report.store
        store.attach_wal(wal)
        if report.replayed_records or not store_path.exists():
            # the snapshot is now behind the recovered state (or absent):
            # persist and checkpoint so a crash loop cannot replay the
            # same tail forever
            store.snapshot_marked(store_path)
    except BaseException:
        wal.close()
        raise
    summary = {
        "wal_dir": str(args.wal_dir),
        "snapshot_engines": report.snapshot_engines,
        "replayed_records": report.replayed_records,
        "replayed_rows": report.replayed_rows,
        "skipped_records": report.skipped_records,
        "last_lsn": report.last_lsn,
        "torn_tail": report.torn_tail,
        "replay_seconds": report.replay_seconds,
    }
    return store, wal, summary


def _cmd_recover(args) -> dict:
    """Offline crash recovery: rebuild ``--store`` from snapshot + WAL."""
    store_path = Path(args.store)
    store, wal, summary = _recover_with_wal(args, store_path)
    wal.close()
    return {
        "command": "recover",
        "store": str(store_path),
        "engines": store.names(),
        **summary,
    }


def _cmd_serve(args) -> dict:
    from repro.server import ServerConfig, SketchServer

    store_path = Path(args.store)
    restored = store_path.exists()
    wal = None
    recovery = None
    if args.wal_dir is not None:
        store, wal, recovery = _recover_with_wal(args, store_path)
        restored = True  # _recover_with_wal persisted the store file
    else:
        store = _load_store(store_path)
    created_engines = []
    for spec in args.create or ():
        fields = _parse_engine_spec(spec)
        if fields["name"] not in store:
            _create_from_spec(store, fields)
            created_engines.append(fields["name"])
    config = ServerConfig(
        host=args.host,
        port=args.port,
        ingest_threads=args.threads,
        workers=args.workers,
        max_pending_batches=args.max_pending_batches,
        max_body_bytes=args.max_body_bytes,
        max_batch_rows=args.max_batch_rows,
        snapshot_path=store_path,
        snapshot_on_shutdown=not args.no_snapshot_on_shutdown,
        slow_request_ms=args.slow_ms,
        log_json=args.log_json,
        series_interval=args.series_interval,
        health_target_p99=args.health_target_p99,
        wal_dir=args.wal_dir,
        wal_fsync=args.fsync,
        wal_fsync_interval=args.fsync_interval,
        wal_segment_bytes=args.wal_segment_bytes,
    )
    # the WAL (when any) is already recovered and attached, so the
    # server adopts it instead of opening its own
    server = SketchServer(store, config)
    if restored and not created_engines:
        # the store state came verbatim from --store; an idle server
        # should not rewrite an identical snapshot at shutdown
        server.mark_clean()

    def on_ready(ready_server) -> None:
        ready = {
            "command": "serve",
            "listening": f"{config.host}:{ready_server.port}",
            "store": str(store_path),
            "engines": store.names(),
        }
        if recovery is not None:
            ready["wal_dir"] = recovery["wal_dir"]
            ready["replayed_records"] = recovery["replayed_records"]
        print(json.dumps(ready, sort_keys=True), flush=True)

    try:
        server.run(on_ready=on_ready)
    finally:
        if wal is not None:
            wal.close()
    result = {
        "command": "serve",
        "shutdown": "clean",
        "store": str(store_path),
        "snapshot_written": (
            str(server.last_shutdown_snapshot)
            if server.last_shutdown_snapshot is not None
            else None
        ),
        "engines": store.names(),
    }
    if recovery is not None:
        result["recovery"] = recovery
    return result


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest",
        help="ingest a CSV/JSONL/binary update stream into a store file",
    )
    ingest.add_argument("--store", required=True,
                        help="store file (created when missing)")
    ingest.add_argument("--name", required=True, help="engine name")
    ingest.add_argument("--input", required=True, help="update file")
    ingest.add_argument("--format",
                        choices=("auto", "csv", "jsonl", "binary"),
                        default="auto",
                        help="input format (auto: by suffix — .jsonl/"
                             ".ndjson JSONL, .rbat/.bin binary batch "
                             "files, else CSV)")
    ingest.add_argument("--kind", choices=("bottom_k", "poisson"),
                        default="bottom_k",
                        help="sketch kind when creating the engine")
    ingest.add_argument("--k", type=int, default=64,
                        help="bottom-k sample size (bottom_k engines)")
    ingest.add_argument("--threshold", type=float, default=None,
                        help="Poisson threshold (poisson engines)")
    ingest.add_argument("--ranks", choices=("pps", "exp", "uniform"),
                        default=None,
                        help="rank family (default: exp for bottom_k, "
                             "uniform for poisson)")
    ingest.add_argument("--salt", type=int, default=0,
                        help="seed-assigner salt")
    ingest.add_argument("--coordinated", action="store_true",
                        help="share per-key seeds across instances")
    ingest.add_argument("--shards", type=int, default=8)
    ingest.add_argument("--batch-size", type=int, default=8192)
    ingest.add_argument("--threads", type=int, default=1,
                        help="concurrent ingest threads")
    ingest.add_argument("--int-keys", action="store_true",
                        help="parse keys as integers")
    ingest.set_defaults(run=_cmd_ingest)

    convert = commands.add_parser(
        "convert",
        help="re-encode a CSV/JSONL update stream as a binary batch "
             "file (the POST /v1/ingest application/x-repro-batch body)",
    )
    convert.add_argument("--input", required=True, help="update file")
    convert.add_argument("--out", required=True,
                         help="binary batch file to write (.rbat)")
    convert.add_argument("--format", choices=("auto", "csv", "jsonl"),
                         default="auto")
    convert.add_argument("--batch-size", type=int, default=8192,
                         help="rows per pipelined wire batch")
    convert.add_argument("--int-keys", action="store_true",
                         help="parse keys as integers (enables the "
                              "flat i64 key column encoding)")
    convert.set_defaults(run=_cmd_convert)

    snapshot = commands.add_parser(
        "snapshot",
        help="re-encode a store file and print its per-engine summary",
    )
    snapshot.add_argument("--store", required=True)
    snapshot.add_argument("--out", default=None,
                          help="write the snapshot here instead of "
                               "overwriting --store")
    snapshot.set_defaults(run=_cmd_snapshot)

    merge = commands.add_parser(
        "merge", help="fan peer snapshot files into one store"
    )
    merge.add_argument("--out", required=True, help="merged store file")
    merge.add_argument("inputs", nargs="+",
                       help="store snapshot files to merge")
    merge.set_defaults(run=_cmd_merge)

    query = commands.add_parser(
        "query", help="run an aggregate query against a store file"
    )
    query.add_argument("--store", required=True)
    query.add_argument("--name", required=True)
    query.add_argument("--kind", required=True,
                       choices=("distinct", "sum", "dominance", "l1"))
    query.add_argument("--instances", required=True, nargs="+",
                       help="instance labels (as ingested)")
    query.add_argument("--variant", choices=("l", "ht"), default="l",
                       help="distinct-count estimator variant")
    query.add_argument("--int-instances", action="store_true",
                       help="parse instance labels as integers")
    query.add_argument("--confidence", action="store_true",
                       help="report estimate quality (cv / ci90) from "
                            "the paper's variance estimators; errors "
                            "for query shapes without one")
    query.set_defaults(run=_cmd_query)

    serve = commands.add_parser(
        "serve",
        help="serve a store file over HTTP (asyncio, stdlib only)",
    )
    serve.add_argument("--store", required=True,
                       help="store file (restored when present, created "
                            "on shutdown otherwise)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--create", action="append", metavar="SPEC",
                       help="engine to create when missing, as "
                            "comma-separated key=value pairs "
                            "(name=...,kind=...,k=.../threshold=...,"
                            "ranks=...,salt=...,coordinated=...,"
                            "shards=...); repeatable")
    serve.add_argument("--threads", type=int, default=4,
                       help="ingest/query executor threads")
    serve.add_argument("--workers", type=int, default=0,
                       help="shard-worker processes for the multiprocess "
                            "ingest plane (0 keeps the in-process "
                            "backend); requires --wal-dir for crash "
                            "recovery of in-flight batches")
    serve.add_argument("--max-pending-batches", type=int, default=32,
                       help="per-engine in-flight ingest bound "
                            "(backpressure: 503 beyond it)")
    serve.add_argument("--max-body-bytes", type=int,
                       default=8 * 1024 * 1024)
    serve.add_argument("--max-batch-rows", type=int, default=100_000)
    serve.add_argument("--log-json", action="store_true",
                       help="structured one-JSON-object-per-line logs "
                            "with request-id correlation")
    serve.add_argument("--slow-ms", type=float, default=500.0,
                       help="log requests slower than this many "
                            "milliseconds (0 disables)")
    serve.add_argument("--no-snapshot-on-shutdown", action="store_true",
                       help="do not snapshot dirty engines on shutdown")
    serve.add_argument("--series-interval", type=float, default=1.0,
                       help="seconds between metrics time-series "
                            "samples (/metrics/history; 0 disables)")
    serve.add_argument("--health-target-p99", type=float, default=1.0,
                       help="target request p99 (seconds) the "
                            "route_p99_burn health rule burns against")
    _add_wal_arguments(serve, required=False)
    serve.set_defaults(run=_cmd_serve)

    recover = commands.add_parser(
        "recover",
        help="rebuild --store from its snapshot plus the write-ahead "
             "log tail (crash recovery), checkpointing the log",
    )
    recover.add_argument("--store", required=True,
                         help="store file to rebuild (read when present, "
                              "written with the recovered state)")
    _add_wal_arguments(recover, required=True)
    recover.set_defaults(run=_cmd_recover)

    return parser


def _add_wal_arguments(command, required: bool) -> None:
    """The shared ``serve`` / ``recover`` write-ahead-log flags."""
    command.add_argument("--wal-dir", default=None, required=required,
                         help="write-ahead-log directory"
                              + ("" if required
                                 else " (enables the durability layer)"))
    command.add_argument("--fsync",
                         choices=("always", "interval", "off"),
                         default="interval",
                         help="WAL fsync policy (default: interval)")
    command.add_argument("--fsync-interval", type=float, default=0.05,
                         help="seconds between fsyncs under the "
                              "interval policy")
    command.add_argument("--wal-segment-bytes", type=int,
                         default=64 * 1024 * 1024,
                         help="WAL segment rotation size cap")


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        result = args.run(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0
