"""End-to-end scenario runs: accounting, auto-migration, determinism."""

import ast
import json
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.mds.migrate import HotspotDetector
from repro.obs.spans import Tracer
from repro.scenario import runner
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


# -- observation is opt-in on the scenario path ----------------------------


@pytest.fixture
def observed(monkeypatch):
    """Spy on the cluster ``run_seed`` builds: every subscriber attached
    and the tap in force while the body ran."""
    seen = {"attached": [], "clusters": [], "tap_during_run": []}
    attach, run = Cluster.attach_observer, Cluster.run

    def spy_attach(cluster, subscriber):
        seen["attached"].append(subscriber)
        attach(cluster, subscriber)

    def spy_run(cluster, *args, **kwargs):
        seen["clusters"].append(cluster)
        seen["tap_during_run"].append(cluster.tap)
        return run(cluster, *args, **kwargs)

    monkeypatch.setattr(Cluster, "attach_observer", spy_attach)
    monkeypatch.setattr(Cluster, "run", spy_run)
    return seen


def test_plain_scenario_attaches_no_observer(observed):
    run_seed((dict(SMALL), 0))
    assert observed["attached"] == []
    assert observed["tap_during_run"] == [None]
    assert observed["clusters"][0].tap is None


def test_auto_migrate_attaches_only_the_detector(observed):
    run_seed((dict(DRIFT), 0))
    (detector,) = observed["attached"]
    assert isinstance(detector, HotspotDetector)
    assert detector.tap_sections == ("mds.handle",)
    assert detector.tap_marks == {}
    assert observed["tap_during_run"][0] is not None
    assert observed["clusters"][0].tap is None


def test_detector_is_detached_when_the_body_raises(observed, monkeypatch):
    def broken(spec):
        raise RuntimeError("population exploded")

    monkeypatch.setattr(runner, "PopulationModel", broken)
    with pytest.raises(RuntimeError, match="population exploded"):
        run_seed((dict(DRIFT), 0))
    assert len(observed["attached"]) == 1
    assert observed["clusters"][0].tap is None


def test_failing_op_fails_the_session_worker(monkeypatch):
    """A session worker runs its op inline (``yield from``), not as a
    child process; an op whose client generator raises must still take
    the worker — and the run — down with that exception."""
    def exploding_stat(self, path):
        yield self.engine.timeout(1e-3)
        raise RuntimeError("client exploded mid-op")

    monkeypatch.setattr("repro.client.client.Client.stat", exploding_stat)
    with pytest.raises(RuntimeError, match="client exploded mid-op"):
        run_seed((dict(SMALL), 0))


def test_scenario_run_never_opens_a_span(monkeypatch):
    def no_spans(*args, **kwargs):
        raise AssertionError("a scenario run opened a span")

    monkeypatch.setattr(Tracer, "open", no_spans)
    result = run_seed((dict(DRIFT), 0))
    assert result["migrations_done"] >= 1


def test_scenario_and_mds_import_no_observer_machinery():
    """The only thing the scenario and MDS packages take from
    ``repro.obs`` is the runner's ``Histogram``."""
    src = Path(runner.__file__).parents[1]
    found = []
    for path in sorted([*(src / "scenario").glob("*.py"),
                        *(src / "mds").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found += [
                (path.name, name) for name in names
                if name.split(".")[:2] == ["repro", "obs"]
            ]
    assert found == [("runner.py", "repro.obs.metrics.Histogram")]
