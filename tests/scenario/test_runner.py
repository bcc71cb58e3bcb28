"""End-to-end scenario runs: accounting, auto-migration, determinism."""

import json

import pytest

from repro.scenario.report import build_artifact
from repro.scenario.runner import run_scenario, run_seed
from repro.scenario.spec import ScenarioSpec

#: Small but real: ~60 offered ops over 6 simulated seconds.
SMALL = {
    "name": "small",
    "duration_s": 6.0,
    "sessions": 2,
    "seeds": 2,
    "population": {
        "users": 2_000,
        "rate_per_user_hz": 0.005,
        "zipf_s": 1.0,
        "dirs_per_subtree": 2,
        "diurnal": {"period_s": 12.0, "amplitude": 0.3},
        "bursts": [{"at_s": 2.0, "duration_s": 1.0, "multiplier": 3.0}],
    },
    "mix": {"create": 1, "lookup": 1, "stat": 2, "ls": 1},
    "cluster": {"num_mds": 1, "num_osds": 3, "materialize": False},
    "subtrees": [
        {"path": "/scn/sub0", "rank": 0,
         "policy": {"consistency": "strong", "durability": "global"}},
        {"path": "/scn/sub1", "rank": 0},
    ],
}

#: Hotspot chase: both subtrees start on rank 0, the drift moves the
#: hot directory, and the detector must trigger at least one live
#: migration to rank 1.
DRIFT = {
    "name": "drift",
    "duration_s": 8.0,
    "sessions": 2,
    "seeds": 1,
    "population": {
        "users": 4_000,
        "rate_per_user_hz": 0.005,  # 20 ops/s
        "zipf_s": 1.2,
        "dirs_per_subtree": 2,
        "drift": {"period_s": 3.0, "stride": 0},
    },
    "mix": {"create": 1, "lookup": 1, "stat": 2, "ls": 1},
    "cluster": {"num_mds": 2, "num_osds": 3, "materialize": True},
    "subtrees": [
        {"path": "/scn/sub0", "rank": 0},
        {"path": "/scn/sub1", "rank": 0},
    ],
    "auto_migrate": {
        "check_interval_s": 1.0,
        "threshold_ops": 15,
        "max_migrations": 2,
    },
}


def test_seed_run_accounting():
    result = run_seed((dict(SMALL), 0))
    offered = sum(result["offered"][op] for op in sorted(result["offered"]))
    completed = sum(
        result["completed"][op] for op in sorted(result["completed"])
    )
    assert offered > 0
    # Open-loop with a finite run: everything offered gets serviced once
    # the source drains, and nothing is double-counted.
    assert completed == offered
    assert sum(result["errors"][op] for op in sorted(result["errors"])) == 0
    assert result["offered_rate_hz"] == pytest.approx(offered / 6.0)
    assert result["makespan_s"] > 0
    assert "all" in result["latency"]
    assert result["latency"]["all"]["count"] == completed
    assert result["latency"]["all"]["p50_s"] > 0
    assert result["latency"]["all"]["p99_s"] >= result["latency"]["all"]["p50_s"]


def test_seeds_differ_but_are_reproducible():
    a0 = run_seed((dict(SMALL), 0))
    a0_again = run_seed((dict(SMALL), 0))
    a1 = run_seed((dict(SMALL), 1))
    assert a0 == a0_again
    assert a0["offered"] != a1["offered"] or a0["latency"] != a1["latency"]


def test_auto_migration_triggers_under_drift():
    result = run_seed((dict(DRIFT), 0))
    assert result["migrations_done"] >= 1
    done = [m for m in result["migrations"] if m["status"] == "done"]
    assert done[0]["src"] == "mds0"
    assert done[0]["dst"] == "mds1"
    assert done[0]["subtree"] in ("/scn/sub0", "/scn/sub1")
    # The detector decided off real traffic, not a hardcoded schedule.
    assert done[0]["ops_at_decision"] >= DRIFT["auto_migrate"]["threshold_ops"]
    # Traffic kept flowing: every offered op still completed.
    offered = sum(result["offered"][op] for op in sorted(result["offered"]))
    completed = sum(
        result["completed"][op] for op in sorted(result["completed"])
    )
    assert completed == offered


def test_parallel_jobs_byte_identical():
    spec = ScenarioSpec.from_dict(SMALL)
    serial = run_scenario(spec, seeds=2, jobs=1)
    fanned = run_scenario(spec, seeds=2, jobs=2)
    assert (
        json.dumps(serial, sort_keys=True)
        == json.dumps(fanned, sort_keys=True)
    )


def test_artifact_shape():
    spec = ScenarioSpec.from_dict(SMALL)
    artifact = run_scenario(spec, seeds=2)
    assert artifact["schema"] == "repro.scenario/v1"
    assert artifact["scenario"] == spec.to_dict()
    assert len(artifact["per_seed"]) == 2
    agg = artifact["aggregate"]
    assert agg["seeds"] == 2
    assert agg["offered_rate_hz"]["n"] == 2
    assert agg["offered_rate_hz"]["ci95"] >= 0
    # The artifact round-trips through JSON without custom encoders.
    assert json.loads(json.dumps(artifact)) == artifact


def test_artifact_identical_with_args(tmp_path):
    # build_artifact is pure: same inputs, same artifact.
    spec = ScenarioSpec.from_dict(SMALL)
    per_seed = [run_seed((spec.to_dict(), s)) for s in range(2)]
    assert build_artifact(spec, per_seed) == build_artifact(spec, per_seed)
