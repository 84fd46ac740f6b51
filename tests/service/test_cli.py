"""End-to-end CLI drive: ingest -> snapshot -> merge -> query in a temp
directory, checked against in-process computation."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sampling.seeds import SeedAssigner
from repro.service.cli import main
from repro.service.queries import Query
from repro.service.store import IngestRequest, SketchStore, group_rows

from ingest_helper import ingest

SALT = 7
THRESHOLD = 0.5


def make_rows(seed=0):
    generator = np.random.default_rng(seed)
    rows = []
    for instance in ("monday", "tuesday"):
        keys = generator.choice(4000, size=900, replace=False)
        values = generator.random(900) * 4.0 + 0.1
        rows += [
            (instance, f"user{key}", float(value))
            for key, value in zip(keys, values)
        ]
    return rows


def write_csv(path, rows, header=True):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(["instance", "key", "value"])
        writer.writerows(rows)


def run_cli(capsys, *args) -> dict:
    assert main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def reference_store(rows) -> SketchStore:
    store = SketchStore()
    store.create(
        "traffic", "poisson", threshold=THRESHOLD,
        seed_assigner=SeedAssigner(salt=SALT),
    )
    store.submit(IngestRequest(engine="traffic", batches=group_rows(rows)))
    return store


@pytest.fixture
def rows():
    return make_rows()


class TestCliEndToEnd:
    def test_ingest_query_matches_in_process(self, tmp_path, capsys, rows):
        write_csv(tmp_path / "updates.csv", rows)
        report = run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--input", str(tmp_path / "updates.csv"),
            "--kind", "poisson", "--threshold", str(THRESHOLD),
            "--salt", str(SALT),
        )
        assert report["rows_ingested"] == len(rows)
        assert report["instances"] == ["monday", "tuesday"]

        result = run_cli(
            capsys,
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--kind", "distinct",
            "--instances", "monday", "tuesday",
        )
        expected = reference_store(rows).query(
            "traffic", Query.distinct("monday", "tuesday")
        )
        assert result["value"]["estimate"] == expected.value.estimate
        assert result["value"]["counts"] == dict(expected.value.counts)

        l1 = run_cli(
            capsys,
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--kind", "l1",
            "--instances", "monday", "tuesday",
        )
        direct = reference_store(rows).query(
            "traffic", Query.l1("monday", "tuesday")
        )
        assert l1["value"] == direct.value

    def test_threaded_ingest_matches_single_thread(
        self, tmp_path, capsys, rows
    ):
        write_csv(tmp_path / "updates.csv", rows)
        for threads, name in (("1", "serial.bin"), ("4", "threaded.bin")):
            run_cli(
                capsys,
                "ingest", "--store", str(tmp_path / name),
                "--name", "traffic",
                "--input", str(tmp_path / "updates.csv"),
                "--kind", "poisson", "--threshold", str(THRESHOLD),
                "--salt", str(SALT), "--threads", threads,
                "--batch-size", "256",
            )
        serial = SketchStore.restore(tmp_path / "serial.bin")
        threaded = SketchStore.restore(tmp_path / "threaded.bin")
        assert threaded.engine("traffic") == serial.engine("traffic")

    def test_split_ingest_then_merge_matches_full_ingest(
        self, tmp_path, capsys, rows
    ):
        half = len(rows) // 2
        write_csv(tmp_path / "full.csv", rows)
        write_csv(tmp_path / "a.csv", rows[:half], header=False)
        write_csv(tmp_path / "b.csv", rows[half:], header=False)
        for source, target in (
            ("full.csv", "full.bin"),
            ("a.csv", "a.bin"),
            ("b.csv", "b.bin"),
        ):
            run_cli(
                capsys,
                "ingest", "--store", str(tmp_path / target),
                "--name", "traffic", "--input", str(tmp_path / source),
                "--kind", "poisson", "--threshold", str(THRESHOLD),
                "--salt", str(SALT),
            )
        merged = run_cli(
            capsys,
            "merge", "--out", str(tmp_path / "merged.bin"),
            str(tmp_path / "a.bin"), str(tmp_path / "b.bin"),
        )
        assert "traffic" in merged["engines"]
        full = SketchStore.restore(tmp_path / "full.bin")
        fan_in = SketchStore.restore(tmp_path / "merged.bin")
        for label in ("monday", "tuesday"):
            assert fan_in.merged_sketch(
                "traffic", label
            ) == full.merged_sketch("traffic", label)

    def test_snapshot_summarises_engines(self, tmp_path, capsys, rows):
        write_csv(tmp_path / "updates.csv", rows)
        run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--input", str(tmp_path / "updates.csv"),
            "--kind", "poisson", "--threshold", str(THRESHOLD),
            "--salt", str(SALT),
        )
        report = run_cli(
            capsys,
            "snapshot", "--store", str(tmp_path / "store.bin"),
            "--out", str(tmp_path / "copy.bin"),
        )
        summary = report["engines"]["traffic"]
        assert summary["kind"] == "poisson"
        assert summary["n_updates"] == len(rows)
        assert set(summary["instances"]) == {"monday", "tuesday"}
        copy = SketchStore.restore(tmp_path / "copy.bin")
        original = SketchStore.restore(tmp_path / "store.bin")
        assert copy.engine("traffic") == original.engine("traffic")

    def test_jsonl_input_and_int_keys(self, tmp_path, capsys):
        path = tmp_path / "updates.jsonl"
        with path.open("w") as handle:
            for key in range(50):
                handle.write(json.dumps(
                    {"instance": "d", "key": key, "value": 1.5}
                ) + "\n")
        report = run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "store.bin"),
            "--name", "bk", "--input", str(path),
            "--kind", "bottom_k", "--k", "8", "--salt", "1", "--int-keys",
        )
        assert report["rows_ingested"] == 50
        store = SketchStore.restore(tmp_path / "store.bin")
        direct = SketchStore()
        direct.create(
            "bk", "bottom_k", k=8, seed_assigner=SeedAssigner(salt=1),
        )
        ingest(direct, "bk", "d", list(range(50)), [1.5] * 50)
        assert store.engine("bk") == direct.engine("bk")

    def test_query_confidence_flag(self, tmp_path, capsys, rows):
        write_csv(tmp_path / "updates.csv", rows)
        run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--input", str(tmp_path / "updates.csv"),
            "--kind", "poisson", "--threshold", str(THRESHOLD),
            "--salt", str(SALT),
        )
        result = run_cli(
            capsys,
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--kind", "sum",
            "--instances", "monday", "--confidence",
        )
        confidence = result["confidence"]
        assert confidence["variance"] > 0.0
        assert confidence["ci90"]["lower"] <= result["value"]
        assert confidence["ci90"]["upper"] >= result["value"]
        # without the flag the payload stays lean
        plain = run_cli(
            capsys,
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--kind", "sum",
            "--instances", "monday",
        )
        assert "confidence" not in plain
        # refusal surfaces as the standard CLI error exit
        code = main([
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--kind", "l1",
            "--instances", "monday", "tuesday", "--confidence",
        ])
        assert code == 2
        assert "no variance estimator" in capsys.readouterr().err

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = main([
            "ingest", "--store", str(tmp_path / "s.bin"),
            "--name", "t", "--input", str(tmp_path / "absent.csv"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_query_unknown_name_reports_error(self, tmp_path, capsys, rows):
        write_csv(tmp_path / "updates.csv", rows)
        run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "store.bin"),
            "--name", "traffic", "--input", str(tmp_path / "updates.csv"),
            "--kind", "poisson", "--threshold", str(THRESHOLD),
        )
        code = main([
            "query", "--store", str(tmp_path / "store.bin"),
            "--name", "nope", "--kind", "sum", "--instances", "monday",
        ])
        assert code == 2
        assert "unknown store" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        write_csv(tmp_path / "updates.csv", make_rows())
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.service",
                "ingest", "--store", str(tmp_path / "store.bin"),
                "--name", "traffic",
                "--input", str(tmp_path / "updates.csv"),
                "--kind", "poisson", "--threshold", str(THRESHOLD),
            ],
            capture_output=True, text=True, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["command"] == "ingest"


class TestConvertAndBinaryIngest:
    def test_convert_then_replay_matches_csv_ingest(
        self, tmp_path, capsys, rows
    ):
        write_csv(tmp_path / "updates.csv", rows)
        report = run_cli(
            capsys,
            "convert", "--input", str(tmp_path / "updates.csv"),
            "--out", str(tmp_path / "updates.rbat"),
            "--batch-size", "500",
        )
        assert report["rows"] == len(rows)
        assert report["batches"] >= 2
        assert report["bytes"] == (tmp_path / "updates.rbat").stat().st_size

        for source in ("updates.csv", "updates.rbat"):
            run_cli(
                capsys,
                "ingest", "--store", str(tmp_path / f"{source}.store"),
                "--name", "traffic", "--input", str(tmp_path / source),
                "--kind", "poisson", "--threshold", str(THRESHOLD),
                "--salt", str(SALT),
            )
        from_csv = SketchStore.restore(tmp_path / "updates.csv.store")
        from_binary = SketchStore.restore(tmp_path / "updates.rbat.store")
        assert from_binary.engine("traffic") == from_csv.engine("traffic")

    def test_convert_int_keys_round_trip(self, tmp_path, capsys):
        write_csv(
            tmp_path / "u.csv",
            [("d", str(key), 1.0 + key) for key in range(40)],
            header=False,
        )
        run_cli(
            capsys,
            "convert", "--input", str(tmp_path / "u.csv"),
            "--out", str(tmp_path / "u.rbat"), "--int-keys",
        )
        from repro.server.wire import decode_batches

        (batch,) = decode_batches((tmp_path / "u.rbat").read_bytes())
        assert isinstance(batch.keys, np.ndarray)
        assert list(batch.keys) == list(range(40))

    def test_convert_refuses_binary_input(self, tmp_path, capsys, rows):
        write_csv(tmp_path / "u.csv", rows[:10], header=False)
        run_cli(
            capsys,
            "convert", "--input", str(tmp_path / "u.csv"),
            "--out", str(tmp_path / "u.rbat"),
        )
        with pytest.raises(SystemExit, match="binary"):
            main([
                "convert", "--input", str(tmp_path / "u.rbat"),
                "--out", str(tmp_path / "again.rbat"),
            ])

    def test_corrupt_binary_input_reports_error(self, tmp_path, capsys):
        (tmp_path / "bad.rbat").write_bytes(b"RBATgarbage")
        code = main([
            "ingest", "--store", str(tmp_path / "s.bin"),
            "--name", "t", "--input", str(tmp_path / "bad.rbat"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestMalformedUpdateStreams:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_non_finite_values_rejected(self, tmp_path, capsys, bad):
        write_csv(
            tmp_path / "u.csv",
            [("d", "a", "1.0"), ("d", "b", bad)],
            header=False,
        )
        code = main([
            "ingest", "--store", str(tmp_path / "s.bin"),
            "--name", "t", "--input", str(tmp_path / "u.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "finite" in err
        assert "u.csv:2" in err
        assert not (tmp_path / "s.bin").exists()

    def test_jsonl_non_finite_values_rejected(self, tmp_path, capsys):
        path = tmp_path / "u.jsonl"
        path.write_text(
            json.dumps({"instance": "d", "key": "a", "value": 1.0})
            + "\n"
            + '{"instance": "d", "key": "b", "value": NaN}\n'
        )
        code = main([
            "ingest", "--store", str(tmp_path / "s.bin"),
            "--name", "t", "--input", str(path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "finite" in err
        assert "u.jsonl:2" in err
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize(
        "value, reason",
        [
            ('"1.5"', "must be numbers, got '1.5'"),
            ("true", "must be numbers, got True"),
            ("null", "must be numbers, got None"),
        ],
    )
    def test_jsonl_values_follow_the_http_value_rule(
        self, tmp_path, capsys, value, reason
    ):
        """Regression: JSONL used to coerce "1.5" and true to floats and
        crash on null; it now applies the HTTP JSON value rule."""
        path = tmp_path / "u.jsonl"
        path.write_text(
            '{"instance": "d", "key": "a", "value": 1.0}\n'
            f'{{"instance": "d", "key": "b", "value": {value}}}\n'
        )
        for command in (
            ["ingest", "--store", str(tmp_path / "s.bin"), "--name", "t"],
            ["convert", "--out", str(tmp_path / "u.rbat")],
        ):
            code = main([*command, "--input", str(path)])
            assert code == 2
            err = capsys.readouterr().err
            assert f"u.jsonl:2: update values {reason}" in err
        assert not (tmp_path / "s.bin").exists()
        assert not (tmp_path / "u.rbat").exists()

    def test_header_after_leading_blank_line_is_skipped(
        self, tmp_path, capsys
    ):
        """Regression: a leading blank line used to demote the header
        to a data row and fail the whole ingest."""
        (tmp_path / "u.csv").write_text(
            "\ninstance,key,value\nd,a,1.0\nd,b,2.0\n"
        )
        report = run_cli(
            capsys,
            "ingest", "--store", str(tmp_path / "s.bin"),
            "--name", "t", "--input", str(tmp_path / "u.csv"),
            "--kind", "bottom_k", "--k", "8",
        )
        assert report["rows_ingested"] == 2


class TestServeSpecs:
    """--create engine-spec parsing of the `serve` subcommand."""

    def test_parse_engine_spec(self):
        from repro.service.cli import _parse_engine_spec

        fields = _parse_engine_spec(
            "name=traffic,kind=poisson,threshold=0.5,salt=7,"
            "ranks=uniform,coordinated=1,shards=4"
        )
        assert fields == {
            "name": "traffic", "kind": "poisson", "threshold": "0.5",
            "salt": "7", "ranks": "uniform", "coordinated": "1",
            "shards": "4",
        }

    def test_parse_engine_spec_rejects_bad_input(self):
        from repro.service.cli import _parse_engine_spec

        with pytest.raises(SystemExit, match="key=value"):
            _parse_engine_spec("name=x,bogus_key=1")
        with pytest.raises(SystemExit, match="key=value"):
            _parse_engine_spec("no-equals-here")
        with pytest.raises(SystemExit, match="name="):
            _parse_engine_spec("kind=poisson,threshold=0.5")

    def test_create_from_spec_builds_matching_engines(self):
        from repro.service.cli import _create_from_spec, _parse_engine_spec

        store = SketchStore()
        _create_from_spec(store, _parse_engine_spec(
            "name=t,kind=poisson,threshold=0.5,salt=7"
        ))
        reference = SketchStore()
        reference.create(
            "t", "poisson", threshold=0.5,
            seed_assigner=SeedAssigner(salt=7), n_shards=8,
        )
        assert store.engine("t") == reference.engine("t")

        _create_from_spec(store, _parse_engine_spec(
            "name=b,kind=bottom_k,k=32,ranks=pps,shards=2"
        ))
        config = store.engine("b").sketch_config
        assert config["kind"] == "bottom_k" and config["k"] == 32
        assert store.engine("b").n_shards == 2

    def test_create_from_spec_requires_poisson_threshold(self):
        from repro.exceptions import InvalidParameterError
        from repro.service.cli import _create_from_spec

        with pytest.raises(InvalidParameterError, match="threshold"):
            _create_from_spec(SketchStore(), {"name": "t", "kind": "poisson"})
        with pytest.raises(InvalidParameterError, match="unknown sketch kind"):
            _create_from_spec(SketchStore(), {"name": "t", "kind": "nope"})


class TestRecoverCommand:
    """``python -m repro.service recover --store --wal-dir``."""

    @staticmethod
    def build_crashed_state(tmp_path):
        """A WAL with an engine and three logged batches, no snapshot —
        as if the process died before its first snapshot."""
        from repro.wal import WriteAheadLog

        store = SketchStore()
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        store.attach_wal(wal)
        store.create(
            "traffic", "poisson", threshold=THRESHOLD,
            seed_assigner=SeedAssigner(salt=SALT),
        )
        for i in range(3):
            ingest(store, "traffic", "d", [f"k{i}-{j}" for j in range(4)], [1.0] * 4)
        wal.close()
        return store

    def test_recover_replays_the_tail_and_persists(self, tmp_path, capsys):
        from repro.service import codec

        crashed = self.build_crashed_state(tmp_path)
        store_path = tmp_path / "store.bin"
        report = run_cli(
            capsys,
            "recover",
            "--store", str(store_path),
            "--wal-dir", str(tmp_path / "wal"),
        )
        assert report["command"] == "recover"
        assert report["engines"] == ["traffic"]
        assert report["replayed_records"] == 4
        assert report["replayed_rows"] == 12
        assert report["skipped_records"] == 0
        assert report["last_lsn"] == 4
        assert report["torn_tail"] is None
        assert report["replay_seconds"] > 0
        recovered = SketchStore.restore(store_path)
        assert codec.to_bytes(recovered.engine("traffic")) == codec.to_bytes(
            crashed.engine("traffic")
        )
        assert recovered.version("traffic") == 3

    def test_recover_is_idempotent(self, tmp_path, capsys):
        self.build_crashed_state(tmp_path)
        store_path = tmp_path / "store.bin"
        args = (
            "recover",
            "--store", str(store_path),
            "--wal-dir", str(tmp_path / "wal"),
        )
        run_cli(capsys, *args)
        first = store_path.read_bytes()
        second = run_cli(capsys, *args)
        # the first run snapshotted and checkpointed: nothing replays
        assert second["replayed_records"] == 0
        assert store_path.read_bytes() == first

    def test_recover_without_history_creates_an_empty_store(
        self, tmp_path, capsys
    ):
        store_path = tmp_path / "store.bin"
        report = run_cli(
            capsys,
            "recover",
            "--store", str(store_path),
            "--wal-dir", str(tmp_path / "wal"),
        )
        assert report["engines"] == []
        assert report["replayed_records"] == 0
        assert store_path.exists()

    def test_recover_refuses_corrupt_history(self, tmp_path, capsys):
        self.build_crashed_state(tmp_path)
        (segment,) = list((tmp_path / "wal").glob("*.wal"))
        data = bytearray(segment.read_bytes())
        data[40] ^= 0x10  # inside the first record: mid-log corruption
        segment.write_bytes(bytes(data))
        store_path = tmp_path / "store.bin"
        assert main(
            [
                "recover",
                "--store", str(store_path),
                "--wal-dir", str(tmp_path / "wal"),
            ]
        ) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "offset" in captured.err
        # the corrupt log wrote nothing: no partial store appears
        assert not store_path.exists()

    def test_recover_requires_the_wal_dir_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["recover", "--store", str(tmp_path / "s.bin")])
