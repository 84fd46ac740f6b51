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
``--format jsonl`` or a ``.jsonl``/``.ndjson`` suffix), or binary
columnar batch files (:mod:`repro.server.wire`; ``--format binary`` or a
``.rbat``/``.bin`` suffix), read through the server's own format table
and row decoders (:mod:`repro.service.store`).  ``convert`` re-encodes a
CSV/JSONL stream as the ``application/x-repro-batch`` bytes ``POST
/v1/ingest`` accepts, and ``ingest`` replays such a file.  A bad row
exits 2 with ``error: <file>:<line>: <reason>`` and writes no store
file.  Every command prints a JSON summary to stdout, so the CLI
composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from itertools import islice
from pathlib import Path

from repro.exceptions import ReproError, RowDecodeError
from repro.sampling.ranks import rank_family_from_name
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, query_value_json
from repro.service.store import INGEST_FORMATS, IngestRequest, SketchStore, group_rows

__all__ = ["main"]

_DEFAULT_FAMILIES = {"bottom_k": "exp", "poisson": "uniform"}


# ----------------------------------------------------------------------
# Update-stream reading
# ----------------------------------------------------------------------
#: the formats the CLI reads: those with file suffixes
_CLI_FORMATS = tuple(name for name, fmt in INGEST_FORMATS.items() if fmt.suffixes)


def _detect_format(path: Path, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    return next(
        (name for name, fmt in INGEST_FORMATS.items() if path.suffix in fmt.suffixes),
        "csv",
    )


def _parse_key(key: str, int_keys: bool) -> object:
    return int(key) if int_keys else key


def _read_batches(path: Path, fmt: str, args):
    """Yield an update file's store batches, one group per submit: a
    binary file whole, a text stream ``--batch-size`` decoded rows at a
    time.  A bad row raises ``<file>:<line>: <reason>``."""
    decode = INGEST_FORMATS[fmt].rows
    if decode is None:
        from repro.server.wire import decode_batches

        yield decode_batches(path.read_bytes())
        return
    with path.open(newline="", encoding="utf-8") as handle:
        rows = decode(handle, int_keys=args.int_keys)
        try:
            while window := list(islice(rows, args.batch_size)):
                yield group_rows(window)
        except RowDecodeError as exc:
            raise RowDecodeError(f"{path}:{exc.line}", exc.reason, exc.line) from None


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
    n_batches = n_rows = 0
    threads = max(1, args.threads)
    # Bounded submission: Executor.map would drain the whole update file
    # into the futures queue; keep only O(threads) groups in flight so
    # memory stays proportional to --batch-size.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        in_flight = set()
        for batches in _read_batches(input_path, fmt, args):
            n_batches += len(batches)
            n_rows += sum(len(values) for _, _, values in batches)
            request = IngestRequest(engine=args.name, batches=batches)
            in_flight.add(pool.submit(store.submit, request))
            if len(in_flight) >= 2 * threads:
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
        for future in in_flight:
            future.result()
    store.snapshot(store_path)
    return {
        "command": "ingest",
        "store": str(store_path),
        "name": args.name,
        "format": fmt,
        "batches": n_batches,
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
    if INGEST_FORMATS[fmt].rows is None:
        raise SystemExit(
            "convert reads CSV/JSONL update streams; "
            f"{input_path} already looks binary"
        )
    # one wire batch per instance within each window, preserving the
    # stream's batching envelope (the permutation guarantee makes the
    # exact grouping irrelevant to the final sketch state)
    batches = [
        batch
        for group in _read_batches(input_path, fmt, args)
        for batch in group
    ]
    n_rows = sum(len(values) for _, _, values in batches)
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
    ingest.add_argument("--format", choices=("auto", *_CLI_FORMATS),
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
    convert.add_argument("--format", default="auto", choices=(
        "auto", *(name for name in _CLI_FORMATS if INGEST_FORMATS[name].rows)
    ))
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
    except (FileNotFoundError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0
