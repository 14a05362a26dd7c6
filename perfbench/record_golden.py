"""Record the seed commit's results for queries that lack an independent oracle.

    python3 perfbench/record_golden.py

Run from the repository root on the commit whose answers are trusted.  It
runs every argv a round may draw from plan.RECORDED through
quandlekit.cli.run and writes perfbench/golden.json (the label-free
summary of each `results` section, see verify.recorded_summary), and
perfbench/classes.json (the class tables of orders 5 and 6, which the
classify workload relabels).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
from verify import recorded_summary  # noqa: E402


def _run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    if rc not in (0, 1):
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")
    print(f"exit {rc}  {' '.join(argv)}", file=sys.stderr)
    return json.loads(out.getvalue())["results"]


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from quandlekit import cli

    golden = {}
    for family in plan.RECORDED.values():
        for argv in family:
            golden[" ".join(argv)] = recorded_summary(argv, _run(cli, argv))
    classes = {n: _run(cli, ["enumerate", n])["tables"] for n in ("5", "6")}
    for name, doc, indent in (("golden.json", golden, 0), ("classes.json", classes, None)):
        with open(os.path.join(HERE, name), "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=indent)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
