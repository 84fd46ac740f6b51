"""Launch the sketch server as the benchmark's system under test.

Usage::

    python benchmarks/perf/serve.py [--ledger PATH] -- serve --port 0 ...

Everything after ``--`` goes unchanged to
``repro.service.cli.main``, which prints its ``listening`` line and
serves until SIGTERM.  With ``--ledger`` the launcher first installs the
per-layer span wrappers and the aggregating recorder
(:mod:`ledger`), and writes the ledger as JSON to ``PATH`` once the
server has shut down.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ledger", type=Path, default=None,
                        help="trace the layers and write the ledger here")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by repro.service CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if args.ledger is not None:
        import ledger

        recorder = ledger.install()
    from repro.service import cli

    code = cli.main(cli_args)
    if recorder is not None:
        args.ledger.write_text(json.dumps(recorder.to_json()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
