"""One bad-row table, fed through both fronts of every text format.

Each numbered case goes through HTTP CSV and CLI CSV, and through HTTP
JSON ``rows`` and CLI JSON lines.  Both fronts of a format must give the
same verdict, the same position (``CSV line N`` / ``rows[N-1]`` on HTTP,
``file:N`` on the CLI) and the same reason text, and a rejected body
must leave the store untouched.  An accepted case must give the same
``codec.to_bytes`` on all four fronts.  A shrunk counterexample becomes
one more numbered case.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import NamedTuple

import pytest

from repro.exceptions import RowDecodeError
from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient, ServerConfig, SketchServer
from repro.service import codec
from repro.service.cli import main
from repro.service.store import (
    INGEST_FORMATS,
    SketchStore,
    csv_rows,
    json_columns,
    json_rows,
    jsonl_rows,
)

NAME = "t"


class Case(NamedTuple):
    id: str
    #: the CSV body / file, or None when the case is JSON-only
    csv: str | None = None
    #: JSON rows as ``(instance, key, raw JSON value text)``, or None when
    #: the case is CSV-only; the JSONL file holds one object per row
    rows: tuple | None = None
    int_keys: bool = False
    #: 1-based row of the rejection (CSV: non-empty line), None: accepted
    line: int | None = None
    #: a fragment of the CSV and of the JSON reason
    reason: str = ""


CASES = [
    Case(
        "rows_001_header_after_blank_lines",
        csv="\n\ninstance,key,value\nd,a,1.0\ne,b,2\n",
        rows=(("d", "a", "1.0"), ("e", "b", "2")),
    ),
    Case(
        "rows_002_int_keys",
        csv="d,7,1.5\nd,-3,0.25\n",
        rows=(("d", 7, "1.5"), ("d", -3, "0.25")),
        int_keys=True,
    ),
    Case(
        "rows_003_wrong_column_count",
        csv="d,a,1.0\n\n\nd,b\n",
        line=2,
        reason="expected instance,key,value; got 2 columns",
    ),
    Case(
        "rows_004_header_not_first_is_data",
        csv="d,a,1.0\ninstance,key,value\n",
        line=2,
        reason="must be numbers, got 'value'",
    ),
    Case(
        "rows_005_bad_float",
        csv="d,a,1.0\nd,b,bogus\n",
        line=2,
        reason="must be numbers, got 'bogus'",
    ),
    Case("rows_006_nan", csv="d,a,1.0\nd,b,nan\n", line=2, reason="finite"),
    Case("rows_007_inf", csv="d,a,1.0\nd,b,-inf\n", line=2, reason="finite"),
    Case(
        "rows_008_json_number_overflows_to_inf",
        rows=(("d", "a", "1.0"), ("d", "b", "1e999")),
        line=2,
        reason="must be finite, got inf",
    ),
    Case(
        "rows_009_json_integer_beyond_float_range",
        rows=(("d", "a", "1" + "0" * 400),),
        line=1,
        reason="must be finite, got inf",
    ),
    Case(
        "rows_010_bad_int_keys_key",
        csv="d,1,1.0\nd,x,2.0\n",
        int_keys=True,
        line=2,
        reason="int_keys needs integer keys, got 'x'",
    ),
    Case(
        "rows_011_list_value",
        rows=(("d", "a", "1.0"), ("d", "b", "[1]")),
        line=2,
        reason="must be numbers, got [1]",
    ),
    Case(
        "rows_012_object_value",
        rows=(("d", "a", '{"v": 1}'),),
        line=1,
        reason="must be numbers, got {'v': 1}",
    ),
    Case(
        "rows_013_bool_value",
        rows=(("d", "a", "1.0"), ("d", "b", "true")),
        line=2,
        reason="must be numbers, got True",
    ),
    Case(
        "rows_014_string_value",
        rows=(("d", "a", '"1.5"'),),
        line=1,
        reason="must be numbers, got '1.5'",
    ),
    Case(
        "rows_015_null_value",
        rows=(("d", "a", "null"),),
        line=1,
        reason="must be numbers, got None",
    ),
    Case(
        "rows_016_list_key",
        rows=(("d", "a", "1.0"), ("d", [1], "2.0")),
        line=2,
        reason="key must not be a JSON list or object, got [1]",
    ),
    Case(
        "rows_017_object_instance",
        rows=(({"i": 1}, "a", "1.0"),),
        line=1,
        reason="instance must not be a JSON list or object",
    ),
]


def fresh_store() -> SketchStore:
    store = SketchStore()
    store.create(NAME, "bottom_k", k=8, seed_assigner=SeedAssigner(salt=3))
    return store


def http_ingest(body: bytes, content_type: str, params: dict):
    """POST one ingest body to a fresh server; return the status, the
    payload and the server's store."""
    store = fresh_store()

    async def scenario():
        server = SketchServer(store, ServerConfig(port=0, series_interval=0))
        await server.start()
        try:
            async with AsyncSketchClient(host="127.0.0.1", port=server.port) as client:
                return await client.request(
                    "POST",
                    "/v1/ingest",
                    params={"name": NAME, **params},
                    body=body,
                    content_type=content_type,
                )
        finally:
            await server.shutdown()

    status, payload = asyncio.run(scenario())
    return status, payload, store


def cli_ingest(tmp_path, capsys, path, int_keys: bool):
    """Ingest one update file into a fresh store file through the CLI;
    return the exit status, stderr and the store the file holds after."""
    store_path = tmp_path / "store.bin"
    fresh_store().snapshot(store_path)
    before = store_path.read_bytes()
    code = main(
        ["ingest", "--store", str(store_path), "--name", NAME, "--input", str(path)]
        + (["--int-keys"] if int_keys else [])
    )
    err = capsys.readouterr().err
    if code != 0:
        assert store_path.read_bytes() == before, "a rejected file changed the store"
    return code, err, SketchStore.restore(store_path)


def cli_verdict(code: int, err: str, filename: str):
    if code == 0:
        return None
    assert code == 2, err
    match = re.fullmatch(rf"error: .*{re.escape(filename)}:(\d+): (.*)\n", err)
    assert match, err
    return int(match[1]), match[2]


def http_verdict(status: int, payload: dict, store: SketchStore, pattern: str):
    if status == 200:
        return None
    assert status == 400, payload
    assert store.version(NAME) == 0
    assert store.engine(NAME).instance_labels == []
    match = re.fullmatch(pattern, payload["error"])
    assert match, payload
    return int(match[1]), match[2]


def engine_bytes(store: SketchStore) -> bytes:
    return codec.to_bytes(store.engine(NAME))


def json_body(rows) -> bytes:
    triples = ", ".join(
        f"[{json.dumps(instance)}, {json.dumps(key)}, {value}]"
        for instance, key, value in rows
    )
    return f'{{"name": "{NAME}", "rows": [{triples}]}}'.encode()


def jsonl_text(rows) -> str:
    return "".join(
        f'{{"instance": {json.dumps(instance)}, "key": {json.dumps(key)}, '
        f'"value": {value}}}\n'
        for instance, key, value in rows
    )


def expected_verdict(case: Case, verdict):
    if case.line is None:
        assert verdict is None
    else:
        assert verdict is not None, "accepted a bad row"
        line, reason = verdict
        assert line == case.line
        assert case.reason in reason


def run_csv(case: Case, tmp_path, capsys):
    status, payload, http_store = http_ingest(
        case.csv.encode(),
        INGEST_FORMATS["csv"].content_type,
        {"int_keys": "1"} if case.int_keys else {},
    )
    http = http_verdict(status, payload, http_store, r"CSV line (\d+): (.*)")
    path = tmp_path / "u.csv"
    path.write_text(case.csv)
    code, err, cli_store = cli_ingest(tmp_path, capsys, path, case.int_keys)
    assert http == cli_verdict(code, err, "u.csv")
    expected_verdict(case, http)
    return http_store, cli_store


def run_json(case: Case, tmp_path, capsys):
    status, payload, http_store = http_ingest(
        json_body(case.rows), INGEST_FORMATS["json"].content_type, {}
    )
    http = http_verdict(status, payload, http_store, r"rows\[(\d+)\]: (.*)")
    if http is not None:
        http = (http[0] + 1, http[1])  # rows[i] is the file's line i + 1
    path = tmp_path / "u.jsonl"
    path.write_text(jsonl_text(case.rows))
    code, err, cli_store = cli_ingest(tmp_path, capsys, path, case.int_keys)
    assert http == cli_verdict(code, err, "u.jsonl")
    expected_verdict(case, http)
    return http_store, cli_store


class TestBadRowTable:
    @pytest.mark.parametrize(
        "case", [case for case in CASES if case.csv is not None], ids=lambda c: c.id
    )
    def test_csv_fronts_agree(self, case, tmp_path, capsys):
        run_csv(case, tmp_path, capsys)

    @pytest.mark.parametrize(
        "case", [case for case in CASES if case.rows is not None], ids=lambda c: c.id
    )
    def test_json_fronts_agree(self, case, tmp_path, capsys):
        run_json(case, tmp_path, capsys)

    @pytest.mark.parametrize(
        "case",
        [case for case in CASES if case.line is None],
        ids=lambda c: c.id,
    )
    def test_accepted_bodies_give_one_sketch_on_all_four_fronts(
        self, case, tmp_path, capsys
    ):
        (tmp_path / "csv").mkdir()
        (tmp_path / "json").mkdir()
        stores = [
            *run_csv(case, tmp_path / "csv", capsys),
            *run_json(case, tmp_path / "json", capsys),
        ]
        blobs = {engine_bytes(store) for store in stores}
        assert len(blobs) == 1
        assert stores[0].engine(NAME).n_updates == len(case.rows)


class TestDecoderUnits:
    """The decoders' own contract, below both fronts."""

    def test_rows_001_csv_positions_count_non_empty_lines(self):
        with pytest.raises(RowDecodeError) as excinfo:
            list(csv_rows(["\n", "d,a,1\n", "\n", "d,b\n"]))
        error = excinfo.value
        assert (error.position, error.line) == ("CSV line 2", 2)
        assert str(error) == "CSV line 2: expected instance,key,value; got 2 columns"

    def test_rows_002_jsonl_positions_count_every_line(self):
        lines = ['{"instance": "d", "key": "a", "value": 1}\n', "\n", "[1, 2, 3]\n"]
        with pytest.raises(RowDecodeError) as excinfo:
            list(jsonl_rows(lines))
        assert excinfo.value.line == 3
        assert "{instance, key, value} object" in excinfo.value.reason

    def test_rows_003_json_rows_shape(self):
        with pytest.raises(RowDecodeError, match=r"^rows\[1\]: expected an"):
            list(json_rows([["d", "a", 1.0], ["d", "b"]]))
        assert list(json_rows([["d", "a", 2]])) == [("d", "a", 2.0)]

    def test_rows_004_json_columns_name_the_bad_position(self):
        with pytest.raises(RowDecodeError, match=r"^keys\[2\]: key must not"):
            json_columns("d", ["a", 1, [2]], [1.0, 1.0, 1.0])
        with pytest.raises(RowDecodeError, match=r"^values\[1\]: .* got False"):
            json_columns("d", ["a", "b"], [1.0, False])
        instance, keys, values = json_columns("d", ["a", None, 3], [1, 2.5, 0])
        assert (instance, keys, values) == ("d", ["a", None, 3], [1.0, 2.5, 0.0])
        assert all(type(value) is float for value in values)
