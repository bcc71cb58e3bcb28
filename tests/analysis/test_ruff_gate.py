"""Run ruff against the repo when it is installed, and the unused-import
stand-in from docs/ANALYSIS.md when it is not.

The container running tier-1 may not ship ruff; CI does.  The pinned
rule set lives in ``pyproject.toml`` so both see the same gate.  Where
ruff is absent, the ``ast`` stand-in for its F401 rule (unused imports)
is the check a change can still run locally; it is read from the doc,
so the doc's snippet and this gate cannot drift apart.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RUFF = shutil.which("ruff")


@pytest.mark.skipif(RUFF is None, reason="ruff not installed in this environment")
def test_ruff_check_is_clean():
    proc = subprocess.run(
        [RUFF, "check", "."],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _f401_stand_in() -> str:
    doc = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
    section = doc.split("## Unused imports where ruff is not installed", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "docs/ANALYSIS.md lost its F401 stand-in"
    return block.group(1)


@pytest.mark.skipif(RUFF is not None, reason="ruff itself runs the F401 rule")
def test_no_unused_import_by_the_ast_stand_in():
    proc = subprocess.run(
        [sys.executable, "-c", _f401_stand_in()],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "no unused import"
