"""Golden bench artifacts: the tiny-scale run, byte for byte.

``python -m repro.bench --json DIR`` at ``REPRO_SCALE=tiny`` is frozen
under ``golden/``: the eleven experiment artifacts and the printed
tables, less the ``[wrote …]`` and ``[… took N s wall]`` lines (they
name the output directory and the host's wall time).  A serial run and
a ``--jobs 2`` run must both reproduce every byte.

To regenerate after an intentional change to an experiment::

    PYTHONPATH=src python tests/bench/regen_golden.py
"""

import contextlib
import io
import os
import pathlib
import re
from unittest import mock

import pytest

from repro.bench import harness
from repro.bench.__main__ import WALLCLOCK_ARTIFACT, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TABLES = "tables.txt"

_HOST_LINE = re.compile(r"\[(wrote .*|\S+ took [0-9.]+s wall)\]\n")


def run_tiny(out_dir: pathlib.Path, jobs: int = 1) -> str:
    """Run every experiment at ``tiny`` into ``out_dir``; return the
    printed tables without the host-dependent lines."""
    stdout = io.StringIO()
    try:
        with mock.patch.dict(os.environ, REPRO_SCALE="tiny"), \
                contextlib.redirect_stdout(stdout):
            code = main(["--jobs", str(jobs), "--json", str(out_dir)])
    finally:
        harness._default_jobs = None
    assert code == 0
    return "".join(
        line for line in stdout.getvalue().splitlines(keepends=True)
        if not _HOST_LINE.fullmatch(line)
    )


def artifacts(dir_path: pathlib.Path):
    return sorted(
        p.name for p in dir_path.glob("*.json") if p.name != WALLCLOCK_ARTIFACT
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_tiny_run_matches_golden(tmp_path, jobs):
    tables = run_tiny(tmp_path, jobs)
    assert tables == (GOLDEN_DIR / TABLES).read_text(encoding="utf-8")
    names = artifacts(GOLDEN_DIR)
    assert artifacts(tmp_path) == names and len(names) == 11
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN_DIR / name).read_bytes(), f"{name} diverged"
