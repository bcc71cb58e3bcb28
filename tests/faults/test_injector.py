"""Unit tests for the fault injector: resolution, execution, reporting."""

import pytest

from repro.client.client import RetryPolicy
from repro.cluster import Cluster
from repro.faults import FaultInjector, FaultPlan
from repro.mds.server import MDSConfig

pytestmark = pytest.mark.faults


def test_resolves_every_component_kind():
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    d = cluster.new_decoupled_client()
    injector = FaultInjector(cluster, FaultPlan())
    assert injector.resolve("osd.1") is cluster.objstore.osds[1]
    assert injector.resolve("mds0") is cluster.mds
    assert injector.resolve(client.name) is client
    assert injector.resolve(d.name) is d
    with pytest.raises(KeyError):
        injector.resolve("osd.9")
    with pytest.raises(KeyError):
        injector.resolve("toaster0")


def test_start_rejects_unknown_targets_eagerly():
    """A typo'd target must fail at start(), not kill the driver
    process mid-run where nothing observes the failure."""
    cluster = Cluster(seed=0)
    with pytest.raises(KeyError):
        FaultInjector(cluster, FaultPlan().crash(0.1, "osd.7")).start()
    client = cluster.new_client()
    with pytest.raises(KeyError):
        FaultInjector(
            cluster, FaultPlan().partition(0.1, client.name, "mds9")
        ).start()


def test_driver_executes_schedule_at_exact_sim_times():
    cluster = Cluster(seed=0)
    plan = FaultPlan().crash(0.5, "osd.0").recover(1.25, "osd.0")
    injector = FaultInjector(cluster, plan)
    proc = injector.start()
    cluster.run()
    assert proc.ok and proc.value == 2
    osd = cluster.objstore.osds[0]
    assert osd.up
    assert osd.stats.counter("crashes").value == 1
    assert osd.stats.counter("recoveries").value == 1
    times = [t for t, _ in injector.log]
    assert times == [pytest.approx(0.5), pytest.approx(1.25)]


def test_osd_crash_degrades_placement_and_recovery_restores_it():
    cluster = Cluster(seed=0)
    injector = FaultInjector(cluster, FaultPlan())
    cluster.run(injector.inject(FaultPlan().crash(0.0, "osd.2").faults[0]))
    live = cluster.objstore.placement("metadata", "obj")
    assert cluster.objstore.osds[2] not in live
    assert len(live) == 2  # degraded, still serving (min_size=1)
    cluster.run(injector.inject(FaultPlan().recover(0.0, "osd.2").faults[0]))
    assert len(cluster.objstore.placement("metadata", "obj")) == 3


def test_reads_survive_a_recovered_stale_primary():
    """An OSD that was down while an object was written serves reads
    from an up-to-date replica after it recovers."""
    cluster = Cluster(seed=0)
    store = cluster.objstore
    # Find the primary for this object, crash it, write degraded.
    victim = store.primary("metadata", "stale-test")
    victim.crash()
    cluster.run(store.put("metadata", "stale-test", b"payload"))
    victim.recover()
    assert not victim.has_object("stale-test")  # never backfilled
    data = cluster.run(store.get("metadata", "stale-test"))
    assert data == b"payload"


def test_partition_and_heal_toggle_message_flow():
    cluster = Cluster(seed=0)
    client = cluster.new_client(
        retry=RetryPolicy(max_retries=5, base_backoff_s=0.01)
    )
    plan = (
        FaultPlan()
        .partition(0.0, client.name, "mds0")
        .heal(0.03, client.name, "mds0")
    )
    injector = FaultInjector(cluster, plan)
    injector.start()
    resp = cluster.run(client.create("/during-partition"))
    assert resp.ok  # retried through the outage, succeeded after heal
    assert client.stats.counter("rpc_retries").value >= 1
    assert cluster.network.messages_dropped >= 1
    assert not cluster.network.is_partitioned(client.name, "mds0")


def test_mds_crash_recovery_latency_is_recorded():
    cluster = Cluster(
        mds_config=MDSConfig(segment_events=8), seed=0
    )
    client = cluster.new_client()
    cluster.run(client.create_many("/", [f"f{i}" for i in range(16)]))
    t0 = cluster.now
    plan = FaultPlan().crash(t0 + 0.01, "mds0").recover(t0 + 0.05, "mds0")
    injector = FaultInjector(cluster, plan)
    injector.start()
    cluster.run()
    assert cluster.mds.up
    (target, crashed_at, recovered_at), = injector.recoveries
    assert target == "mds0"
    assert crashed_at == pytest.approx(t0 + 0.01)
    # downtime plus journal-replay I/O
    assert recovered_at - crashed_at >= 0.04


def test_report_is_canonical_text():
    cluster = Cluster(seed=0)
    plan = FaultPlan().crash(0.1, "osd.0").recover(0.2, "osd.0")
    injector = FaultInjector(cluster, plan)
    injector.start()
    cluster.run()
    report = injector.report(components=[cluster.objstore.osds[0]])
    assert "# fault log" in report
    assert "t=0.100000 crash osd.0 osd down" in report
    assert "faults.counter.crashes=1.0" in report
    assert "osd.0.counter.recoveries=1.0" in report
    # Same schedule on a fresh cluster reproduces it byte for byte.
    cluster2 = Cluster(seed=0)
    injector2 = FaultInjector(cluster2, plan)
    injector2.start()
    cluster2.run()
    assert injector2.report(components=[cluster2.objstore.osds[0]]) == report
