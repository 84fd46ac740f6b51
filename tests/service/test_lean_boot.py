"""The serving stack boots and answers queries without importing SciPy.

SciPy is needed only by the offline machinery: the Algorithm 2
derivation engine (``PartitionBasedDeriver``) and the Section 6 LP
feasibility check (``unbiased_nonnegative_exists``).  Importing it costs
a served boot most of its start-up time and resident memory, so no
module reachable from the server may import it at module level.  Each
check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what the imports and calls pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

SERVE_WITHOUT_SCIPY = """
import sys

import numpy as np

import repro
import repro.server.app
import repro.service.cli
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, QueryPlanner
from repro.service.store import IngestRequest, SketchStore

store = SketchStore()
store.create("p", "poisson", threshold=0.3,
             seed_assigner=SeedAssigner(salt=1), n_shards=2)
store.create("pps", "poisson", threshold=2.0, rank_family=PpsRanks(),
             seed_assigner=SeedAssigner(salt=3), n_shards=2)
store.create("bk", "bottom_k", k=16, seed_assigner=SeedAssigner(salt=2))
generator = np.random.default_rng(5)
for instance, offset in (("mon", 0), ("tue", 150)):
    keys = np.arange(offset, offset + 300)
    values = generator.random(300) * 5.0 + 0.01
    for name in ("p", "pps", "bk"):
        store.submit(IngestRequest(
            engine=name, batches=((instance, keys, values),)))
planner = QueryPlanner(store)
served = [
    planner.run("p", Query("distinct", ("mon", "tue"), confidence=True)),
    planner.run("p", Query("sum", ("mon",), confidence=True)),
    planner.run("bk", Query("sum", ("tue",), confidence=True)),
    planner.run("p", Query.l1("mon", "tue")),
    planner.run("pps", Query.dominance("mon", "tue")),
]
assert all(result.confidence["ci90"] for result in served[:3])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""

OFFLINE_ENGINES = """
import itertools
import sys

from repro.core.feasibility import (
    binary_unknown_seed_model,
    unbiased_nonnegative_exists,
)
from repro.core.functions import boolean_or
from repro.core.order_based import DiscreteModel
from repro.core.partition_based import PartitionBasedDeriver
from repro.sampling.dispersed import ObliviousPoissonScheme

assert not any(m.startswith("scipy") for m in sys.modules)
scheme = ObliviousPoissonScheme((0.5, 0.5))
vectors = list(itertools.product((0.0, 1.0), repeat=2))
model = DiscreteModel.from_scheme(scheme, vectors)
derived = PartitionBasedDeriver(
    model, max, lambda v: sum(1 for x in v if x > 0)
).derive()
for vector in vectors:
    assert abs(derived.expectation(vector) - max(vector)) < 1e-6
result = unbiased_nonnegative_exists(
    binary_unknown_seed_model((0.6, 0.6)), boolean_or
)
assert result.feasible
print("scipy" in sys.modules)
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_serving_stack_never_imports_scipy():
    assert run_fresh(SERVE_WITHOUT_SCIPY) == "[]"


def test_offline_engines_still_reach_scipy():
    assert run_fresh(OFFLINE_ENGINES) == "True"
