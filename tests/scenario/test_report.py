"""Aggregation math, SLO report rendering and the compare gate."""

import pytest

from repro.scenario.report import (
    aggregate_seeds,
    build_artifact,
    compare_artifacts,
    dump_artifact,
    format_report,
    load_artifact,
    t_critical_95,
)
from repro.scenario.spec import ScenarioSpec


def _seed_result(seed, achieved=50.0, p99=0.004):
    return {
        "seed": seed,
        "users": 1000,
        "offered": {"create": 30, "lookup": 0, "stat": 70, "ls": 0},
        "completed": {"create": 30, "lookup": 0, "stat": 70, "ls": 0},
        "errors": {"create": 0, "lookup": 0, "stat": 0, "ls": 0},
        "offered_rate_hz": 50.0,
        "achieved_rate_hz": achieved,
        "makespan_s": 2.0,
        "peak_backlog": 3,
        "latency": {
            "all": {"count": 100, "mean_s": 0.002, "p50_s": 0.0015,
                    "p95_s": 0.003, "p99_s": p99, "max_s": 0.005},
        },
        "migrations": [],
        "migrations_done": 0,
        "redirects": 0,
    }


def _spec():
    return ScenarioSpec.from_dict(
        {
            "name": "agg",
            "duration_s": 2.0,
            "population": {"users": 1000, "rate_per_user_hz": 0.05},
            "mix": {"create": 3, "stat": 7},
            "subtrees": [{"path": "/scn/sub0"}],
        }
    )


def test_t_critical_values():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(4) == pytest.approx(2.776)
    assert t_critical_95(30) == pytest.approx(2.042)
    assert t_critical_95(100) == pytest.approx(1.960)
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_aggregate_mean_std_ci():
    agg = aggregate_seeds(
        [_seed_result(0, achieved=48.0), _seed_result(1, achieved=52.0)]
    )
    a = agg["achieved_rate_hz"]
    assert a["mean"] == pytest.approx(50.0)
    # Sample std of {48, 52} is sqrt(8) ~ 2.828.
    assert a["std"] == pytest.approx(2.8284, rel=1e-3)
    # CI95 with df=1: 12.706 * std / sqrt(2).
    assert a["ci95"] == pytest.approx(12.706 * 2.8284 / 2 ** 0.5, rel=1e-3)
    assert a["n"] == 2
    # Single seed: no spread to estimate.
    single = aggregate_seeds([_seed_result(0)])
    assert single["achieved_rate_hz"]["std"] == 0.0
    assert single["achieved_rate_hz"]["ci95"] == 0.0


def test_aggregate_latency_quantiles():
    agg = aggregate_seeds(
        [_seed_result(0, p99=0.004), _seed_result(1, p99=0.006)]
    )
    assert agg["latency"]["all"]["p99_s"]["mean"] == pytest.approx(0.005)


def test_format_report_mentions_slo_lines():
    artifact = build_artifact(_spec(), [_seed_result(0), _seed_result(1)])
    text = format_report(artifact)
    assert "scenario agg" in text
    assert "offered" in text and "achieved" in text
    assert "p50" in text and "p99" in text
    assert "1,000 users" in text


def test_compare_ok_and_divergence():
    base = build_artifact(_spec(), [_seed_result(0), _seed_result(1)])
    same = build_artifact(_spec(), [_seed_result(0), _seed_result(1)])
    assert compare_artifacts(base, same).ok

    slower = build_artifact(
        _spec(), [_seed_result(0, p99=0.009), _seed_result(1, p99=0.009)]
    )
    report = compare_artifacts(base, slower, tolerance=0.10)
    assert not report.ok
    metrics = [d.metric for d in report.divergences]
    assert "latency.all.p99_s" in metrics
    assert "DIVERGED" in str(report)
    assert str(report).startswith("compare scenario agg (tolerance 10%)")

    # A metric the candidate lost fails the gate like a moved one.
    del same["aggregate"]["latency"]["all"]
    report = compare_artifacts(base, same)
    assert not report.ok and not report.divergences
    assert "latency.all.p99_s" in report.missing


def test_compare_rejects_different_scenarios():
    base = build_artifact(_spec(), [_seed_result(0)])
    other_spec = ScenarioSpec.from_dict(
        {
            "name": "other",
            "duration_s": 2.0,
            "population": {"users": 1000, "rate_per_user_hz": 0.05},
            "mix": {"create": 1},
            "subtrees": [{"path": "/scn/sub0"}],
        }
    )
    other = build_artifact(other_spec, [_seed_result(0)])
    with pytest.raises(ValueError, match="different scenarios"):
        compare_artifacts(base, other)


def test_artifact_round_trip_and_schema_check(tmp_path):
    artifact = build_artifact(_spec(), [_seed_result(0)])
    path = tmp_path / "a.json"
    dump_artifact(artifact, path)
    assert load_artifact(path) == artifact
    # Canonical form is byte-stable: dumping twice gives identical bytes.
    twice = tmp_path / "b.json"
    dump_artifact(artifact, twice)
    assert path.read_bytes() == twice.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    with pytest.raises(ValueError, match="unexpected schema"):
        load_artifact(bad)
