"""The standing CI gate: the real ``src/`` tree must lint clean.

Every determinism finding in ``src/`` must be fixed or carry a justified
``simlint: ignore`` suppression; a new wall-clock read or hash-order
iteration anywhere in the simulator fails tier-1 here, not in a bench
regression three PRs later.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as cli_main
from repro.analysis.simlint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def src_report():
    """One in-process lint of ``src/``, shared by the tests that read
    its report; the CLI tests below still run the CLI."""
    return lint_paths([str(SRC)])


def test_src_tree_has_zero_unsuppressed_findings(src_report):
    assert src_report.ok, "\n" + src_report.render()
    assert src_report.files_checked > 50


def test_every_suppression_in_src_is_used(src_report):
    # lint_paths already folds unused suppressions into findings; this
    # asserts the stronger property that the ones present each waive
    # exactly what they claim.
    for s in src_report.suppressions:
        assert s.matched > 0, f"stale suppression at {s.path}:{s.comment_line}"
        assert set(s.matched_rules) <= set(s.rules) or "*" in s.rules


def test_cli_gate_exits_zero_on_src(capsys):
    assert cli_main([str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_subprocess_matches_in_process_gate():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
