"""Serial/parallel equivalence of the bench harness.

The tentpole guarantee: ``--jobs N`` (process-pool fan-out) produces
byte-identical JSON artifacts to a serial run.  These tests pin the
fan-out primitive (`parallel_map`) and the CLI end-to-end;
``test_golden.py`` also holds a serial and a ``--jobs 2`` run of every
experiment to the same golden bytes.
"""

import json

import pytest

from repro.bench import harness
from repro.bench.harness import (
    get_default_jobs,
    parallel_map,
    set_default_jobs,
)


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    """Tests mutate the process-wide default; always restore it."""
    yield
    harness._default_jobs = None


# Module-level so it pickles into pool workers.
def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def test_parallel_map_serial_matches_comprehension():
    tasks = list(range(7))
    assert parallel_map(_square, tasks, jobs=1) == [x * x for x in tasks]


def test_parallel_map_pool_preserves_order():
    tasks = list(range(9))
    assert parallel_map(_square, tasks, jobs=3) == [x * x for x in tasks]


def test_parallel_map_unpicklable_falls_back_to_serial():
    # A closure cannot cross a process boundary; the fallback must be
    # silent and produce the same result.
    offset = 10
    assert parallel_map(lambda x: x + offset, [1, 2], jobs=4) == [11, 12]


def test_parallel_map_exception_propagates_serial():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_boom, [1], jobs=1)


def test_parallel_map_exception_propagates_pool():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_boom, [1, 2], jobs=2)


def test_parallel_map_empty_tasks():
    assert parallel_map(_square, [], jobs=4) == []


def test_default_jobs_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert get_default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert get_default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert get_default_jobs() == 1
    set_default_jobs(5)  # explicit override beats the environment
    assert get_default_jobs() == 5
    set_default_jobs(0)  # clamped to serial
    assert get_default_jobs() == 1


def _artifacts(dir_path):
    """Experiment artifacts only: the wallclock record is host-timing
    and legitimately differs between runs."""
    return sorted(
        p for p in dir_path.iterdir() if p.name != "BENCH_wallclock.json"
    )


def _run_cli(tmp_path, sub, extra):
    from repro.bench.__main__ import main

    out = tmp_path / sub
    assert main(["--json", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize("experiment", ["fig6c", "fig3a"])
def test_cli_jobs_byte_identical_single(tmp_path, monkeypatch, capsys, experiment):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    serial = _run_cli(tmp_path, "serial", [experiment])
    harness._default_jobs = None
    pooled = _run_cli(tmp_path, "pooled", ["--jobs", "2", experiment])
    s, p = _artifacts(serial), _artifacts(pooled)
    assert [a.name for a in s] == [a.name for a in p] == [f"{experiment}.json"]
    assert s[0].read_bytes() == p[0].read_bytes()


def test_cli_jobs_byte_identical_full_suite(tmp_path, monkeypatch, capsys):
    """Every experiment's artifact must be byte-identical under --jobs."""
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    serial = _run_cli(tmp_path, "serial", [])
    harness._default_jobs = None
    pooled = _run_cli(tmp_path, "pooled", ["--jobs", "4"])
    s, p = _artifacts(serial), _artifacts(pooled)
    assert [a.name for a in s] == [a.name for a in p]
    for a, b in zip(s, p):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} diverged"


def test_cli_writes_wallclock_record(tmp_path, monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert main(["--json", str(tmp_path), "fig6c"]) == 0
    record = json.loads((tmp_path / "BENCH_wallclock.json").read_text())
    assert record["scale"] == "tiny"
    assert set(record["wall_s"]) == {"fig6c"}
    assert record["wall_s"]["fig6c"] >= 0.0
