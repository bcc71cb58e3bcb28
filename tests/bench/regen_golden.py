"""Regenerate the bench's committed outputs: the tiny goldens under
``golden/`` and EXPERIMENTS.md's headline table.

Run after an *intentional* change to an experiment's output::

    PYTHONPATH=src python tests/bench/regen_golden.py

A shape claim or paper anchor (``repro.bench.paper``) that a fresh run
breaks raises before anything is written: a golden or a table that
bakes in a broken figure would silently lower the bar.  The table has
one row per anchor, measured at ``small``, between the two ``headline
table`` markers.  Both outputs are pure functions of the code, so a
second run rewrites the same bytes (CI regenerates and diffs).
"""

import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from test_golden import GOLDEN_DIR, TABLES, artifacts, run_tiny  # noqa: E402

from repro.bench.experiments import ALL_EXPERIMENTS  # noqa: E402
from repro.bench.paper import ANCHORS, check  # noqa: E402
from repro.bench.report import load_json  # noqa: E402
from repro.bench.scales import SMALL  # noqa: E402

DOC = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BEGIN = "<!-- headline table: generated by tests/bench/regen_golden.py -->\n"
END = "<!-- end of headline table -->\n"


def headline(results) -> str:
    rows = ["| Quantity | Paper | Measured (small) | Tolerance | Where | "
            "Known deviation |", "|---|---|---|---|---|---|"]
    for a in ANCHORS:
        where = f" {a.op} ".join(f"`{s}` @ {x}" for s, x in a.points())
        rows.append(
            f"| {a.quantity} | {a.paper:.4g}{a.unit} | "
            f"{a.measured(results[a.exp]):#.3g}{a.unit} | ±{a.tol:.0%} | "
            f"{a.exp} {where} | {a.reason} |"
        )
    return "\n".join(rows) + "\n"


def main() -> int:
    small = {e: ALL_EXPERIMENTS[e](SMALL) for e in sorted({a.exp for a in ANCHORS})}
    for result in small.values():
        check(result)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        tables = run_tiny(out)
        for name in artifacts(out):
            check(load_json(out / name))
        for name in artifacts(GOLDEN_DIR):
            (GOLDEN_DIR / name).unlink()
        for name in artifacts(out):
            shutil.copyfile(out / name, GOLDEN_DIR / name)
    (GOLDEN_DIR / TABLES).write_text(tables, encoding="utf-8")
    head, rest = DOC.read_text(encoding="utf-8").split(BEGIN)
    tail = rest.split(END)[1]
    DOC.write_text(head + BEGIN + headline(small) + END + tail, encoding="utf-8")
    print(f"wrote {len(artifacts(GOLDEN_DIR))} goldens, {TABLES} and "
          f"{len(ANCHORS)} headline rows in {DOC.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
