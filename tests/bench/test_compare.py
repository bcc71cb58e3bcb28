"""Tests for artifact comparison (regression detection)."""

import pytest

from repro.bench.compare import compare_files, compare_flat, compare_results
from repro.bench.harness import ExperimentResult, Series
from repro.bench.report import dump_json


def result(ys, label="s", exp="figX"):
    return ExperimentResult(
        exp, "t", "x", "y",
        series=[Series(label, list(range(len(ys))), ys)],
    )


def test_identical_results_ok():
    r = compare_results(result([1.0, 2.0]), result([1.0, 2.0]))
    assert r.ok
    assert "OK" in str(r)


def test_within_tolerance_ok():
    r = compare_results(result([100.0]), result([104.0]), tolerance=0.05)
    assert r.ok


def test_divergence_flagged():
    r = compare_results(result([100.0, 50.0]), result([100.0, 60.0]))
    assert not r.ok
    assert len(r.divergences) == 1
    d = r.divergences[0]
    assert d.metric == "s @ 1" and d.rel_change == pytest.approx(0.2)
    assert "DIVERGED" in str(r)
    assert "+20.0%" in str(r)


def test_zero_baseline_handled():
    r = compare_results(result([0.0]), result([0.001]), tolerance=0.05)
    assert r.ok  # abs change below tolerance against denom 1.0
    r = compare_results(result([0.0]), result([0.5]), tolerance=0.05)
    assert not r.ok
    assert r.divergences[0].rel_change == float("inf")


def test_missing_series_and_points():
    base = ExperimentResult(
        "e", "t", "x", "y",
        series=[Series("a", [1, 2], [1.0, 2.0]), Series("b", [1], [3.0])],
    )
    cand = ExperimentResult(
        "e", "t", "x", "y", series=[Series("a", [1], [1.0])]
    )
    r = compare_results(base, cand)
    assert r.missing == ["a @ 2", "b @ 1"]
    assert not r.divergences


def test_lost_data_point_fails_the_gate(tmp_path, capsys):
    """A candidate that dropped a baseline point has not been shown to
    be unchanged: not ok, and ``compare`` exits 1."""
    from repro.bench.__main__ import main

    r = compare_results(result([1.0, 2.0]), result([1.0]))
    assert r.missing == ["s @ 1"] and not r.divergences
    assert not r.ok
    assert "DIVERGED" in str(r) and "missing: s @ 1" in str(r)
    # Points only the candidate has are not the baseline's business.
    assert compare_results(result([1.0]), result([1.0, 2.0])).ok

    base = dump_json(result([1.0, 2.0]), tmp_path / "base.json")
    cand = dump_json(result([1.0]), tmp_path / "cand.json")
    assert main(["compare", str(base), str(cand)]) == 1
    assert "missing: s @ 1" in capsys.readouterr().out


def test_nan_on_one_side_diverges():
    nan = float("nan")
    assert not compare_flat("x", {"a": 1.0}, {"a": nan}).ok
    assert not compare_flat("x", {"a": nan}, {"a": 1.0}).ok
    assert compare_flat("x", {"a": nan}, {"a": nan}).ok


def test_mismatched_experiments_rejected():
    with pytest.raises(ValueError):
        compare_results(result([1.0], exp="a"), result([1.0], exp="b"))
    with pytest.raises(ValueError):
        compare_results(result([1.0]), result([1.0]), tolerance=-1)


def test_compare_files_round_trip(tmp_path):
    p1 = dump_json(result([1.0, 2.0]), tmp_path / "base.json")
    p2 = dump_json(result([1.0, 2.3]), tmp_path / "cand.json")
    r = compare_files(p1, p2, tolerance=0.05)
    assert not r.ok
    assert len(r.divergences) == 1


def test_cli_compare_subcommand(tmp_path, capsys):
    from repro.bench.__main__ import main

    p1 = dump_json(result([1.0]), tmp_path / "a.json")
    p2 = dump_json(result([1.0]), tmp_path / "b.json")
    assert main(["compare", str(p1), str(p2)]) == 0
    p3 = dump_json(result([2.0]), tmp_path / "c.json")
    assert main(["compare", str(p1), str(p3)]) == 1
    assert main(["compare", str(p1), str(p3), "2.0"]) == 0
    assert main(["compare"]) == 2
