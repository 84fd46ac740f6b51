"""End-to-end crash recovery: SIGKILL a serving process, recover, compare.

A real ``python -m repro.service serve --wal-dir --fsync always``
subprocess takes acknowledged HTTP ingest batches and is then killed
with SIGKILL — no atexit, no shutdown snapshot, nothing graceful.  The
``recover`` subcommand must rebuild, from the snapshot plus the WAL
tail, exactly the state an uninterrupted in-process control reaches
from the same batches.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

import faults
from repro.service import codec
from repro.service.cli import main as cli_main
from repro.service.store import SketchStore

ENGINE_SPEC = {
    "name": faults.ENGINE,
    "kind": "poisson",
    "threshold": "0.05",
    "salt": "7",
    "coordinated": "1",
    "n_shards": "4",
}
N_ACKED = 7


def spec_argument() -> str:
    fields = dict(ENGINE_SPEC)
    fields["shards"] = fields.pop("n_shards")
    return ",".join(f"{key}={value}" for key, value in fields.items())


def start_server(store_path, wal_dir) -> tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--store",
            str(store_path),
            "--port",
            "0",
            "--wal-dir",
            str(wal_dir),
            "--fsync",
            "always",
            "--create",
            spec_argument(),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready_line = process.stdout.readline()
    if not ready_line:
        process.kill()
        pytest.fail(f"server never came up: {process.stderr.read()}")
    ready = json.loads(ready_line)
    port = int(ready["listening"].rpartition(":")[2])
    assert ready["engines"] == [faults.ENGINE]
    return process, port


def post_batch(port: int, i: int) -> None:
    instance, keys, values = faults.batch(i)
    body = json.dumps(
        {
            "name": faults.ENGINE,
            "instance": instance,
            "keys": keys,
            "values": values,
        }
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/ingest",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        payload = json.loads(response.read())
    assert payload["version"] == i + 1


def test_sigkill_then_recover_is_bit_exact(tmp_path, capsys):
    store_path = tmp_path / "store.bin"
    wal_dir = tmp_path / "wal"
    process, port = start_server(store_path, wal_dir)
    try:
        for i in range(N_ACKED):
            post_batch(port, i)
    finally:
        # fsync=always: every acknowledged batch is already durable, so
        # SIGKILL loses nothing that was acked
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    assert process.returncode == -signal.SIGKILL

    exit_code = cli_main(
        [
            "recover",
            "--store",
            str(store_path),
            "--wal-dir",
            str(wal_dir),
        ]
    )
    assert exit_code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "recover"
    assert report["engines"] == [faults.ENGINE]
    # one engine-create record plus every acknowledged batch
    assert report["replayed_records"] == 1 + N_ACKED
    assert report["replayed_rows"] == N_ACKED * 5
    assert report["torn_tail"] is None

    control = SketchStore()
    control.create_from_config(
        {
            key: value
            for key, value in ENGINE_SPEC.items()
        }
    )
    faults.fill(control, N_ACKED)
    recovered = SketchStore.restore(store_path)
    assert codec.to_bytes(recovered.engine(faults.ENGINE)) == codec.to_bytes(
        control.engine(faults.ENGINE)
    )
    assert recovered.version(faults.ENGINE) == N_ACKED

    # recovery checkpointed the log: running it again replays nothing
    # and lands on the same bytes (idempotent crash loop)
    assert (
        cli_main(
            [
                "recover",
                "--store",
                str(store_path),
                "--wal-dir",
                str(wal_dir),
            ]
        )
        == 0
    )
    second = json.loads(capsys.readouterr().out)
    assert second["replayed_records"] == 0
    again = SketchStore.restore(store_path)
    assert codec.to_bytes(again.engine(faults.ENGINE)) == codec.to_bytes(
        control.engine(faults.ENGINE)
    )


def test_second_boot_resumes_the_log_it_did_not_recover(tmp_path, capsys):
    """Two SIGKILLed ``serve`` boots over one store and one log, with no
    ``recover`` between them: the second boot recovers the first's tail
    itself, and its own acks continue the version sequence."""
    store_path = tmp_path / "store.bin"
    wal_dir = tmp_path / "wal"
    first_boot = 3
    for batches in (range(first_boot), range(first_boot, N_ACKED)):
        process, port = start_server(store_path, wal_dir)
        try:
            for i in batches:
                post_batch(port, i)
        finally:
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

    assert (
        cli_main(
            ["recover", "--store", str(store_path), "--wal-dir", str(wal_dir)]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["torn_tail"] is None
    recovered = SketchStore.restore(store_path)
    assert recovered.version(faults.ENGINE) == N_ACKED
    control = SketchStore()
    control.create_from_config(dict(ENGINE_SPEC))
    faults.fill(control, N_ACKED)
    assert codec.to_bytes(recovered.engine(faults.ENGINE)) == codec.to_bytes(
        control.engine(faults.ENGINE)
    )


def test_sigkill_mid_request_lands_on_a_batch_boundary(tmp_path, capsys):
    """Kill while a request may be in flight: every acked batch must
    survive, and the store must land on an exact batch boundary —
    never between two, whatever the race resolves to."""
    store_path = tmp_path / "store.bin"
    wal_dir = tmp_path / "wal"
    process, port = start_server(store_path, wal_dir)
    acked = 2
    try:
        for i in range(acked):
            post_batch(port, i)
        # fire one more batch and kill the server while it is (maybe)
        # still being appended / applied — the outcome is a race on
        # purpose, the recovery contract is not
        racer = threading.Thread(target=_post_quietly, args=(port, acked))
        racer.start()
    finally:
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    racer.join(timeout=30)

    assert (
        cli_main(
            ["recover", "--store", str(store_path), "--wal-dir", str(wal_dir)]
        )
        == 0
    )
    json.loads(capsys.readouterr().out)
    recovered = SketchStore.restore(store_path)
    version = recovered.version(faults.ENGINE)
    assert acked <= version <= acked + 1
    control = SketchStore()
    control.create_from_config(dict(ENGINE_SPEC))
    faults.fill(control, version)
    assert codec.to_bytes(recovered.engine(faults.ENGINE)) == codec.to_bytes(
        control.engine(faults.ENGINE)
    )


def _post_quietly(port: int, i: int) -> None:
    with contextlib.suppress(
        urllib.error.URLError, ConnectionError, AssertionError, OSError
    ):
        post_batch(port, i)
