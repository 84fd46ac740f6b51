"""Engine configs are parsed strictly on both creation surfaces.

``POST /v1/engines`` and ``serve --create`` share
:meth:`SketchStore.create_from_config`.  Each numbered case is a field
value that used to be coerced into some other setting (``"on"`` into
``coordinated=False``, ``2.7`` shards into 2); now both surfaces refuse
it, with no engine created.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.sampling.seeds import SeedAssigner
from repro.service import SketchStore
from repro.service.cli import main as cli_main

POISSON = {"kind": "poisson", "threshold": 0.5}
BOTTOM_K = {"kind": "bottom_k"}


class Case(NamedTuple):
    id: str
    base: dict
    field: str
    #: the value as a JSON body carries it
    value: object
    #: the value as a ``--create`` spec spells it; None: JSON-only
    spec: str | None


REFUSED = [
    Case("config_001_coordinated_maybe", POISSON, "coordinated", "maybe", "maybe"),
    Case("config_002_coordinated_on", POISSON, "coordinated", "on", "on"),
    Case("config_003_coordinated_list", POISSON, "coordinated", [1], None),
    Case("config_004_coordinated_fraction", POISSON, "coordinated", 0.5, "0.5"),
    Case("config_005_coordinated_two", POISSON, "coordinated", 2, "2"),
    Case("config_006_salt_fraction", POISSON, "salt", 1.9, "1.9"),
    Case("config_007_salt_bool", POISSON, "salt", True, None),
    Case("config_008_n_shards_fraction", POISSON, "n_shards", 2.7, "2.7"),
    Case("config_009_n_shards_bool", POISSON, "n_shards", True, None),
    Case("config_010_k_fraction", BOTTOM_K, "k", 2.7, "2.7"),
    Case("config_011_k_words", BOTTOM_K, "k", "ten", "ten"),
]


def spec_of(base: dict, field: str, value: str) -> str:
    fields = {"name": "e", **base, field: value}
    fields["shards"] = fields.pop("n_shards", 8)
    return ",".join(f"{key}={value}" for key, value in fields.items())


@pytest.mark.parametrize("case", REFUSED, ids=[case.id for case in REFUSED])
def test_http_refuses_the_value(run_scenario, case):
    async def scenario(server, client):
        body = {"name": "e", **case.base, case.field: case.value}
        status, payload = await client.request("POST", "/v1/engines", json_body=body)
        assert status == 400
        assert payload["error"].startswith(f"engine config {case.field!r}")
        assert server.store.names() == []

    run_scenario(scenario)


SPEC_REFUSED = [case for case in REFUSED if case.spec is not None]


@pytest.mark.parametrize("case", SPEC_REFUSED, ids=[case.id for case in SPEC_REFUSED])
def test_create_spec_refuses_the_value(tmp_path, capsys, case):
    store_path = tmp_path / "store.bin"
    spec = spec_of(case.base, case.field, case.spec)
    # --threads 0 also fails a boot that got past --create, so a case
    # the parser wrongly accepts exits instead of serving
    args = ["--store", str(store_path), "--port", "0", "--threads", "0"]
    assert cli_main(["serve", *args, "--create", spec]) == 2
    assert f"engine config {case.field!r}" in capsys.readouterr().err
    assert not store_path.exists()


#: accepted spellings of each field -> the value the engine gets
ACCEPTED = [
    ("coordinated", True, True),
    ("coordinated", False, False),
    ("coordinated", 1, True),
    ("coordinated", 0, False),
    ("coordinated", "1", True),
    ("coordinated", "0", False),
    ("coordinated", "TRUE", True),
    ("coordinated", "false", False),
    ("coordinated", "Yes", True),
    ("coordinated", "no", False),
    ("salt", 7, 7),
    ("salt", "7", 7),
    ("salt", "-3", -3),
    ("n_shards", 4, 4),
    ("n_shards", "4", 4),
    ("k", 32, 32),
    ("k", "32", 32),
]


def test_accepted_values_build_the_engine_they_name():
    for field, value, meant in ACCEPTED:
        base = BOTTOM_K if field == "k" else POISSON
        engine = SketchStore().create_from_config({"name": "e", **base, field: value})
        settings = {"salt": 0, "coordinated": False, "n_shards": 8, "k": 64}
        settings[field] = meant
        seeds = SeedAssigner(salt=settings["salt"], coordinated=settings["coordinated"])
        assert engine.sketch_config["seed_assigner"] == seeds, (field, value)
        assert engine.n_shards == settings["n_shards"], (field, value)
        assert engine.sketch_config.get("k", 64) == settings["k"], (field, value)
