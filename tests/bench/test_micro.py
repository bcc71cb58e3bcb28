"""Tests for the simulator microbenchmark suite (repro.bench.micro)."""

import json

import pytest

from repro.bench.micro import (
    ARTIFACT_NAME,
    SCHEMA,
    MicroResult,
    compare_micro,
    dump_micro,
    load_micro,
    run_micro,
)
from repro.bench.scales import TINY

_EXPECTED = [
    "engine_heap_events",
    "engine_fastpath_events",
    "rpc_creates",
    "decoupled_creates",
    "journal_replay",
    "local_persist_events",
    "segment_scan_events",
    "actors_10k_serial",
    "actors_100k_serial",
]


@pytest.fixture(scope="module")
def results():
    return run_micro(TINY, repeat=1)


def test_run_micro_probe_set(results):
    assert [r.name for r in results] == _EXPECTED
    for r in results:
        assert r.per_sec > 0
        assert r.wall_s > 0
        assert r.n > 0
        assert r.unit in ("events", "creates", "entries")


def test_dump_load_round_trip(tmp_path, results):
    path = dump_micro(results, tmp_path, "tiny", repeat=1)
    assert path.name == ARTIFACT_NAME
    loaded = load_micro(path)
    assert set(loaded) == set(_EXPECTED)
    assert loaded["rpc_creates"] == results[2]


def test_load_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something/else", "results": []}))
    with pytest.raises(ValueError, match="not a"):
        load_micro(bad)
    bad.write_text(json.dumps({"schema": SCHEMA, "results": [{"name": "x"}]}))
    with pytest.raises(ValueError, match="malformed"):
        load_micro(bad)


def _artifact(tmp_path, name, per_sec_by_probe):
    results = [
        MicroResult(name=k, unit="events", per_sec=v, wall_s=1.0, n=int(v))
        for k, v in per_sec_by_probe.items()
    ]
    return dump_micro(results, tmp_path / name, "tiny", repeat=1)


def test_compare_micro_ok_within_tolerance(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    base = _artifact(tmp_path, "a", {"p1": 1000.0, "p2": 500.0})
    cand = _artifact(tmp_path, "b", {"p1": 900.0, "p2": 600.0})
    report = compare_micro(base, cand, tolerance=0.30)
    assert report.ok
    assert dict(report.ratios)["p1"] == pytest.approx(0.9)


def test_compare_micro_flags_regression_and_missing(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    base = _artifact(tmp_path, "a", {"p1": 1000.0, "p2": 500.0})
    cand = _artifact(tmp_path, "b", {"p1": 100.0})
    report = compare_micro(base, cand, tolerance=0.30)
    assert not report.ok
    assert report.missing == ["p2"]
    assert report.regressions == [("p1", 1000.0, 100.0)]
    assert "REGRESSED" in str(report)
    with pytest.raises(ValueError):
        compare_micro(base, cand, tolerance=-1.0)


def test_micro_cli_runs_and_writes(tmp_path, monkeypatch, capsys):
    from repro.bench.micro import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    rc = main(["--json", str(tmp_path), "--repeat", "1"])
    assert rc == 0
    assert (tmp_path / ARTIFACT_NAME).exists()
    assert "engine_fastpath_events" in capsys.readouterr().out


def test_micro_cli_compare_exit_codes(tmp_path, monkeypatch, capsys):
    from repro.bench.micro import main

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    base = _artifact(tmp_path, "a", {"p1": 1000.0})
    slow = _artifact(tmp_path, "b", {"p1": 100.0})
    assert main(["compare", str(base), str(base)]) == 0
    assert main(["compare", str(base), str(slow)]) == 1
    assert main(["compare", str(base)]) == 2
    assert main(["compare", str(base), str(tmp_path / "missing.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    assert main(["compare", str(base), str(garbage)]) == 2


def test_micro_cli_bad_args(capsys):
    from repro.bench.micro import main

    assert main(["--json"]) == 2
    assert main(["--repeat", "x"]) == 2
    assert main(["definitely-not-a-flag"]) == 2


def test_dispatch_from_bench_main(tmp_path, monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    rc = main(["micro", "--repeat", "1", "--json", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / ARTIFACT_NAME).exists()
