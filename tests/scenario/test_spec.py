"""Scenario DSL validation and round-tripping."""

import json

import pytest

from repro.scenario.spec import (
    AutoMigrateSpec,
    BurstSpec,
    DiurnalSpec,
    DriftSpec,
    PopulationSpec,
    ScenarioError,
    ScenarioSpec,
    SubtreeSpec,
    load_spec,
)


def _minimal_raw(**overrides):
    raw = {
        "name": "t",
        "duration_s": 5.0,
        "population": {"users": 100, "rate_per_user_hz": 0.01},
        "mix": {"create": 1, "stat": 1},
        "subtrees": [{"path": "/scn/sub0"}],
    }
    raw.update(overrides)
    return raw


def test_minimal_spec_loads_with_defaults():
    spec = ScenarioSpec.from_dict(_minimal_raw())
    assert spec.sessions == 8
    assert spec.seeds == 3
    assert spec.cluster.num_mds == 1
    assert spec.auto_migrate is None
    assert spec.population.diurnal is None
    assert spec.population.bursts == []


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        ScenarioSpec.from_dict(_minimal_raw(bogus=1))


def test_unknown_section_key_rejected():
    raw = _minimal_raw()
    raw["population"]["flux_capacitor"] = 1.21
    with pytest.raises(ScenarioError, match="bad scenario section"):
        ScenarioSpec.from_dict(raw)


def test_missing_required_key_rejected():
    raw = _minimal_raw()
    del raw["population"]
    with pytest.raises(ScenarioError, match="missing required key"):
        ScenarioSpec.from_dict(raw)


def test_value_validation():
    with pytest.raises(ScenarioError):
        DiurnalSpec(period_s=10.0, amplitude=1.0)  # rate would hit zero
    with pytest.raises(ScenarioError):
        BurstSpec(at_s=-1.0, duration_s=1.0, multiplier=2.0)
    with pytest.raises(ScenarioError):
        DriftSpec(period_s=0.0)
    with pytest.raises(ScenarioError):
        PopulationSpec(users=0, rate_per_user_hz=0.1)
    with pytest.raises(ScenarioError):
        SubtreeSpec(path="relative/path")
    with pytest.raises(ScenarioError):
        SubtreeSpec(path="/")
    with pytest.raises(ScenarioError):
        SubtreeSpec(path="/a", policy={"consistency": "strong"})
    with pytest.raises(ScenarioError):
        AutoMigrateSpec(check_interval_s=0.0)


@pytest.mark.parametrize("policy, message", [
    ({"consistency": "bogus", "durability": "none"},
     "unknown consistency 'bogus'"),
    ({"consistency": "weak", "durability": "forever"},
     "unknown durability 'forever'"),
    ({"consistency": 3, "durability": "none"},
     "policy consistency must be a string"),
    ({"consistency": "strong", "durability": "global", "interfere": "block"},
     r"unknown policy key\(s\): \['interfere'\]"),
    ("strong/global", "policy must be an object"),
], ids=["bad-consistency", "bad-durability", "int-consistency",
        "unknown-key", "not-an-object"])
def test_subtree_policy_is_validated_at_load(policy, message):
    raw = _minimal_raw(subtrees=[{"path": "/scn/sub0", "policy": policy}])
    with pytest.raises(ScenarioError, match=f"subtree /scn/sub0: {message}"):
        ScenarioSpec.from_dict(raw)


def test_subtree_rank_must_exist():
    raw = _minimal_raw(subtrees=[{"path": "/scn/sub0", "rank": 1}])
    with pytest.raises(ScenarioError, match="rank 1"):
        ScenarioSpec.from_dict(raw)


def test_duplicate_subtrees_rejected():
    raw = _minimal_raw(
        subtrees=[{"path": "/scn/sub0"}, {"path": "/scn/sub0"}]
    )
    with pytest.raises(ScenarioError, match="duplicate subtree"):
        ScenarioSpec.from_dict(raw)


def test_auto_migrate_requires_multi_mds_and_materialize():
    raw = _minimal_raw(auto_migrate={"threshold_ops": 10})
    with pytest.raises(ScenarioError, match="num_mds >= 2"):
        ScenarioSpec.from_dict(raw)
    raw["cluster"] = {"num_mds": 2, "materialize": False}
    with pytest.raises(ScenarioError, match="materialize"):
        ScenarioSpec.from_dict(raw)
    raw["cluster"] = {"num_mds": 2, "materialize": True}
    spec = ScenarioSpec.from_dict(raw)
    assert spec.auto_migrate.threshold_ops == 10


def test_to_dict_from_dict_round_trip():
    raw = _minimal_raw(
        population={
            "users": 1000,
            "rate_per_user_hz": 0.002,
            "zipf_s": 1.3,
            "dirs_per_subtree": 2,
            "diurnal": {"period_s": 30.0, "amplitude": 0.4},
            "bursts": [{"at_s": 2.0, "duration_s": 1.0, "multiplier": 3.0}],
            "drift": {"period_s": 4.0, "stride": 1},
        },
        cluster={"num_mds": 2, "materialize": True},
        subtrees=[
            {"path": "/scn/sub0", "rank": 0,
             "policy": {"consistency": "strong", "durability": "global"}},
            {"path": "/scn/sub1", "rank": 1},
        ],
        auto_migrate={"check_interval_s": 1.0, "threshold_ops": 5,
                      "max_migrations": 2},
    )
    spec = ScenarioSpec.from_dict(raw)
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.to_dict() == spec.to_dict()


def test_load_spec_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_minimal_raw()))
    assert load_spec(path).name == "t"


def test_load_spec_bad_json_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="bad.json"):
        load_spec(path)


def test_load_spec_toml(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    del tomllib
    path = tmp_path / "s.toml"
    path.write_text(
        "\n".join(
            [
                'name = "t"',
                "duration_s = 5.0",
                "[population]",
                "users = 100",
                "rate_per_user_hz = 0.01",
                "[mix]",
                "create = 1",
                "[[subtrees]]",
                'path = "/scn/sub0"',
            ]
        )
    )
    spec = load_spec(path)
    assert spec.name == "t"
    assert spec.population.users == 100


def test_checked_in_scenarios_validate():
    from pathlib import Path

    scenario_dir = Path(__file__).resolve().parents[2] / "scenarios"
    files = sorted(scenario_dir.glob("*.json"))
    assert len(files) >= 3
    for path in files:
        spec = load_spec(path)
        assert spec.population.users >= 100_000
    drift = load_spec(scenario_dir / "hotspot_drift.json")
    assert drift.auto_migrate is not None
    assert drift.cluster.num_mds >= 2


@pytest.mark.parametrize("overrides, message", [
    ({"duration_s": float("inf")}, "finite"),
    ({"duration_s": "30"}, "duration_s must be a number"),
    ({"duration_s": True}, "duration_s must be a number"),
    ({"seeds": "three"}, "seeds must be an integer"),
    ({"seeds": True}, "seeds must be an integer"),
    ({"sessions": 2.5}, "sessions must be an integer"),
], ids=["inf-duration", "string-duration", "bool-duration",
        "string-seeds", "bool-seeds", "fractional-sessions"])
def test_top_level_numbers_are_typed_not_coerced(overrides, message):
    with pytest.raises(ScenarioError, match=message):
        ScenarioSpec.from_dict(_minimal_raw(**overrides))


def test_infinite_duration_in_a_json_file_is_rejected(tmp_path):
    path = tmp_path / "forever.json"
    path.write_text(
        json.dumps(_minimal_raw()).replace("5.0", "Infinity", 1)
    )
    with pytest.raises(ScenarioError, match="forever.json.*finite"):
        load_spec(path)
