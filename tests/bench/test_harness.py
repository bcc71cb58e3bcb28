"""Tests for result containers, aggregation, scales and reporting."""

import pytest

from repro.bench.harness import ExperimentResult, Series, aggregate
from repro.bench.report import format_result, format_table
from repro.bench.scales import PAPER, SMALL, TINY, get_scale


def test_series_validation():
    with pytest.raises(ValueError):
        Series("s", [1, 2], [1.0])
    with pytest.raises(ValueError):
        Series("s", [1], [1.0], yerr=[0.1, 0.2])
    s = Series("s", [1, 2], [1.0, 2.0])
    assert s.yerr == [0.0, 0.0]


def test_series_at():
    s = Series("s", ["a", "b"], [1.0, 2.0], [0.1, 0.2])
    assert s.at("b") == 2.0
    with pytest.raises(ValueError):
        s.at("c")


def test_aggregate_mean_std():
    means, stds = aggregate([[1.0, 2.0], [3.0, 4.0]])
    assert means == [2.0, 3.0]
    assert stds == [1.0, 1.0]
    with pytest.raises(ValueError):
        aggregate([1.0, 2.0])  # type: ignore[list-item]


def test_experiment_result_get():
    r = ExperimentResult(
        "x", "t", "clients", "slowdown",
        series=[Series("a", [1], [1.0])],
    )
    assert r.get("a").y == [1.0]
    with pytest.raises(KeyError):
        r.get("zz")


def test_format_table_alignment():
    out = format_table(["col", "n"], [["x", 1.5], ["longer", 20000.0]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "20,000" in out
    assert lines[1].startswith("---")


def test_format_result_renders_all_series():
    r = ExperimentResult(
        "fig0", "demo", "x", "y",
        series=[Series("a", [1, 2], [1.0, 2.0]), Series("b", [1, 2], [3.0, 4.0])],
        notes=["a note"],
    )
    text = format_result(r)
    assert "fig0" in text and "a note" in text
    assert "3.000" in text


def test_scales_presets():
    assert TINY.ops_per_client < SMALL.ops_per_client < PAPER.ops_per_client
    assert PAPER.ops_per_client == 100_000
    assert PAPER.interfere_ops == 1_000
    assert PAPER.sync_updates == 1_000_000
    assert max(PAPER.clients) == 20


def test_get_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert get_scale().name == "tiny"
    monkeypatch.delenv("REPRO_SCALE")
    assert get_scale().name == "small"
    assert get_scale("paper").name == "paper"
    with pytest.raises(KeyError):
        get_scale("galactic")


def test_aggregate_single_seed():
    means, stds = aggregate([[4.0, 8.0]])
    assert means == [4.0, 8.0]
    assert stds == [0.0, 0.0]


def test_aggregate_ragged_raises():
    with pytest.raises(ValueError):
        aggregate([[1.0, 2.0], [3.0]])


def test_series_duplicate_x_first_occurrence_wins():
    s = Series("s", [1, 2, 1], [10.0, 20.0, 30.0])
    assert s.at(1) == 10.0  # matches list.index semantics


def test_series_unhashable_x_falls_back_to_linear_scan():
    s = Series("s", [[1], [2]], [10.0, 20.0])
    assert s.at([2]) == 20.0
    with pytest.raises(ValueError):
        s.at([3])


def test_series_at_after_inplace_mutation():
    s = Series("s", [1, 2], [10.0, 20.0])
    s.x.append(3)
    s.y.append(30.0)
    assert s.at(3) == 30.0  # index map misses; list.index catches up
