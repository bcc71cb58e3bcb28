"""The ``python -m repro.scenario`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenario.__main__ import main
from repro.scenario.report import load_artifact


def _tiny_spec_file(tmp_path, name="cli"):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "duration_s": 3.0,
                "sessions": 2,
                "seeds": 1,
                "population": {
                    "users": 1000,
                    "rate_per_user_hz": 0.005,
                    "dirs_per_subtree": 2,
                },
                "mix": {"create": 1, "stat": 3},
                "subtrees": [{"path": "/scn/sub0"}],
            }
        )
    )
    return path


def test_run_writes_artifact_and_report(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    out = tmp_path / "artifact.json"
    assert main(["run", str(spec_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scenario cli" in printed
    assert "p99" in printed
    artifact = load_artifact(out)
    assert artifact["scenario"]["name"] == "cli"
    assert len(artifact["per_seed"]) == 1


def test_seeds_override(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    out = tmp_path / "artifact.json"
    assert main(
        ["run", str(spec_file), "--seeds", "2", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert len(load_artifact(out)["per_seed"]) == 2


def test_compare_exit_codes(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", str(spec_file), "--out", str(a)]) == 0
    assert main(["run", str(spec_file), "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert "OK" in capsys.readouterr().out
    # Tamper with one aggregate mean: the gate must trip.
    artifact = json.loads(b.read_text())
    artifact["aggregate"]["achieved_rate_hz"]["mean"] *= 2.0
    b.write_text(json.dumps(artifact))
    assert main(["compare", str(a), str(b)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_validate_commands(tmp_path, capsys):
    good = _tiny_spec_file(tmp_path)
    assert main(["validate", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2
    assert main(["compare", "one.json"]) == 2
    capsys.readouterr()


REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("args", [
    ["run", "SPEC", "--seeds", "abc"],
    ["run", "SPEC", "--seeds", "0"],
    ["run", "SPEC", "--seeds"],
    ["run", "SPEC", "--jobs", "x"],
    ["compare", "A.json", "B.json", "x"],
], ids=["seeds-abc", "seeds-0", "seeds-missing", "jobs-x", "tolerance-x"])
def test_malformed_arguments_exit_2_with_one_line(args, tmp_path):
    """A malformed number or a missing option value is a usage error:
    exit status 2 and one line on stderr, never a traceback."""
    spec_file = str(_tiny_spec_file(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.scenario",
         *[spec_file if arg == "SPEC" else arg for arg in args]],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stdout == ""
