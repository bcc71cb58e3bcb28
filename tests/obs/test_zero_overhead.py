"""The zero-cost-when-disabled guarantee, test-enforced.

Observation is pure host-side bookkeeping: an instrumented run is
simulation-identical to a bare one, bench artifacts are byte-identical
with and without ``--obs``, and conformance verdicts/histories do not
change when a cell runs instrumented.
"""

import pytest

from repro.bench import harness
from repro.cluster import Cluster
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.obs import Observability, observe

from tests.conftest import tap_holders


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    yield
    harness._default_jobs = None


def _bench_artifacts(dir_path):
    """Experiment artifacts only: wallclock varies by host, OBS_* is the
    probe's own output."""
    return sorted(
        p for p in dir_path.iterdir()
        if p.name != "BENCH_wallclock.json"
        and not p.name.startswith("OBS_")
    )


def test_bench_artifacts_byte_identical_with_obs(tmp_path, monkeypatch,
                                                 capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    plain = tmp_path / "plain"
    probed = tmp_path / "obs"
    assert main(["--json", str(plain), "fig6c"]) == 0
    assert main(["--json", str(probed), "--obs", "fig6c"]) == 0
    a, b = _bench_artifacts(plain), _bench_artifacts(probed)
    assert [p.name for p in a] == [p.name for p in b] == ["fig6c.json"]
    assert a[0].read_bytes() == b[0].read_bytes()
    # ...and the probe artifacts landed beside them.
    assert (probed / "OBS_report.json").exists()
    assert (probed / "OBS_breakdown.csv").exists()
    assert not (plain / "OBS_report.json").exists()


def _drive_weak_global(cluster):
    cudele = Cudele(cluster)
    ns = cluster.run(cudele.decouple(
        "/w", SubtreePolicy.from_semantics(
            "weak", "global", allocated_inodes=64
        ),
    ))
    cluster.run(ns.create_many([f"f{i}" for i in range(32)]))
    cluster.run(ns.finalize())
    return cluster.now


def test_instrumented_run_is_simulation_identical():
    bare = _drive_weak_global(Cluster(seed=7))
    cluster = Cluster(seed=7)
    obs = observe(cluster, profile=True)
    try:
        instrumented = _drive_weak_global(cluster)
    finally:
        obs.detach()
    assert instrumented == bare
    assert len(obs.tracer.spans) > 0
    assert len(obs.hub) > 0


def test_conformance_cell_identical_under_obs():
    from repro.conformance.driver import run_cell

    bare = run_cell(("strong", "global", 0))
    instrumented = run_cell(("strong", "global", 0, True))
    assert instrumented["verdict"] == bare["verdict"]
    assert instrumented["history"] == bare["history"]
    assert "obs" not in bare
    summary = instrumented["obs"]
    assert summary["span_count"] > 0
    assert summary["metric_count"] > 0
    assert any(r["mechanism"] == "rpc" for r in summary["breakdown"])


def test_attach_detach_restores_hooks():
    cluster = Cluster(seed=1)
    cluster.new_client()
    cluster.new_decoupled_client()
    obs = Observability(cluster, profile=True).attach()
    # One observer attribute per daemon: the tap.  Observers subscribe
    # to it; they assign nothing else anywhere.
    for holder in tap_holders(cluster):
        assert holder.tap is cluster.tap is not None
        assert not hasattr(holder, "obs")
        assert not hasattr(holder, "recorder")
    assert not hasattr(cluster.engine, "tap")  # the engine is not a daemon
    assert cluster.engine.sleep_hook is not None
    with pytest.raises(RuntimeError):
        obs.attach()
    obs.detach()
    assert cluster.engine.sleep_hook is None
    for holder in tap_holders(cluster):
        assert holder.tap is None
    obs.detach()  # idempotent


def test_clients_created_after_attach_inherit_the_tap():
    cluster = Cluster(seed=1)
    with Observability(cluster):
        client = cluster.new_client()
        dclient = cluster.new_decoupled_client()
        assert client.tap is dclient.tap is cluster.tap is not None
    assert client.tap is None
    assert dclient.tap is None


def test_idle_cluster_observes_nothing_of_another_clusters_run():
    """Observation is per cluster: an Observability on an idle cluster
    sees no object-store traffic of a second cluster in the process."""
    idle = Cluster(seed=1)
    with Observability(idle) as obs:
        busy = Cluster(seed=2)
        client = busy.new_client()
        busy.run(client.mkdir("/d"))
        busy.run(client.create_many("/d", [f"f{i}" for i in range(50)]))
        busy.run(busy.mds.journal.flush())
        assert busy.mds.journal.segments_dispatched > 0
        assert len(obs.hub) == 0
        assert obs.tracer.spans == []


def test_corruption_cell_identical_under_obs():
    """The corrupted-recovery drill is also observation-invariant: the
    verifying recovery scan's spans/metrics never touch simulated state."""
    from repro.conformance.driver import run_corruption_cell

    bare = run_corruption_cell(("local", "bitflip", 0))
    instrumented = run_corruption_cell(("local", "bitflip", 0, True))
    assert instrumented["verdict"] == bare["verdict"]
    assert instrumented["history"] == bare["history"]
    assert "obs" not in bare
    assert instrumented["obs"]["span_count"] > 0


def test_recovery_scan_spans_and_damage_counter():
    """A damaged local persist leaves a recover.scan span and a
    recovery_scan_damage counter when observability is attached."""
    from repro.core.mechanisms import MechanismContext, run_mechanism

    cluster = Cluster(seed=3)
    with Observability(cluster) as obs:
        cudele = Cudele(cluster)
        ns = cluster.run(cudele.decouple(
            "/j", SubtreePolicy.from_semantics(
                "invisible", "local", allocated_inodes=64
            ),
        ))
        d = ns.dclient
        cluster.run(d.create_many("/j", [f"f{i}" for i in range(8)]))
        d.arm_persist_fault("torn", seed=0)
        cluster.run(run_mechanism(
            "local_persist", MechanismContext(cluster, "/j", d)
        ))
        d.crash()
        cluster.run(d.recover_local())
        names = [s.name for s in obs.tracer.spans]
        assert "recover.scan" in names
        damaged = obs.hub.get(
            "recovery_scan_damage", daemon=d.name,
            mechanism="recovery", damage="torn-tail",
        )
        assert damaged is not None and damaged.value == 1


def test_mds_recovery_scan_instrumented():
    """MDS journal-replay recovery runs through the same verifying scan
    (a recover.scan span with source=mds-journal)."""
    from repro.faults import FaultInjector, FaultPlan

    cluster = Cluster(seed=5)
    with Observability(cluster) as obs:
        client = cluster.new_client()
        cluster.run(client.mkdir("/r"))
        for i in range(4):
            cluster.run(client.create(f"/r/f{i}"))
        plan = (FaultPlan()
                .crash(cluster.now + 0.01, cluster.mds.name)
                .recover(cluster.now + 0.05, cluster.mds.name, mode="local"))
        FaultInjector(cluster, plan).start()
        cluster.run()
        spans = [s for s in obs.tracer.spans if s.name == "recover.scan"]
        assert spans, "MDS recovery did not emit a recover.scan span"
        assert any(
            dict(s.tags).get("source") == "mds-journal" for s in spans
        )
