"""Tests for the cluster assembly."""

import pytest

from repro.cluster import Cluster
from repro.mds.server import MDSConfig
from repro.sim.engine import SimulationError


def test_default_deployment_matches_paper():
    """'1 monitor daemon, 3 object storage daemons, 1 metadata server'."""
    cluster = Cluster()
    assert len(cluster.objstore.osds) == 3
    assert cluster.mds.name == "mds0"
    assert cluster.mon.name == "mon0"
    # everyone subscribed to policy-map updates
    assert "mds0" in cluster.mon.subscribers
    assert "osd.0" in cluster.mon.subscribers


def test_policy_resolver_wired():
    cluster = Cluster()
    resolver = cluster.mds.policy_resolver
    assert resolver is not None
    assert resolver.__self__ is cluster.mon
    assert resolver.__func__ is cluster.mon.resolve.__func__


def test_client_ids_unique_and_tracked():
    cluster = Cluster()
    a, b = cluster.new_client(), cluster.new_client()
    assert a.client_id != b.client_id
    assert cluster.clients == [a, b]
    d1 = cluster.new_decoupled_client()
    d2 = cluster.new_decoupled_client(persist_each=True)
    assert d1.client_id != d2.client_id
    assert d2.persist_each


def test_decoupled_ids_disjoint_from_rpc_ids():
    cluster = Cluster()
    rpc_ids = {cluster.new_client().client_id for _ in range(5)}
    dec_ids = {cluster.new_decoupled_client().client_id for _ in range(5)}
    assert not rpc_ids & dec_ids


def test_run_returns_process_value():
    cluster = Cluster()

    def body():
        yield cluster.engine.timeout(1.0)
        return "done"

    assert cluster.run(body()) == "done"
    assert cluster.now == pytest.approx(1.0)


def test_run_raises_process_failure():
    cluster = Cluster()

    def body():
        yield cluster.engine.timeout(0.5)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        cluster.run(body())


def test_run_until_leaves_process_pending():
    cluster = Cluster()

    def body():
        yield cluster.engine.timeout(100.0)
        return "late"

    assert cluster.run(body(), until=1.0) is None
    assert cluster.now == pytest.approx(1.0)


def test_run_refused_for_a_past_until_leaves_no_body_behind():
    cluster = Cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    engine = cluster.engine
    queued = (list(engine._now_queue), list(engine._heap))
    with pytest.raises(SimulationError, match="in the past"):
        cluster.run(client.mkdir("/zombie"), until=cluster.now / 2)
    assert (list(engine._now_queue), list(engine._heap)) == queued
    cluster.run()
    assert not cluster.run(client.stat("/zombie")).ok


def test_run_names_a_body_that_can_never_finish():
    cluster = Cluster()
    never = cluster.engine.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="'stuck' did not finish"):
        cluster.run(stuck())
    # A bounded run asked for a bounded answer: no raise.
    assert cluster.run(stuck(), until=cluster.now + 1.0) is None


def test_replication_capped_by_osd_count():
    cluster = Cluster(num_osds=2, replication=3)
    assert cluster.objstore.pools["metadata"].replication == 2


def test_seed_propagates_to_mds():
    cluster = Cluster(seed=7)
    assert cluster.mds.config.seed == 7


def test_custom_mds_config_respected():
    cfg = MDSConfig(journal_enabled=False, dispatch_size=5)
    cluster = Cluster(mds_config=cfg)
    assert not cluster.mds.journal.enabled
    assert cluster.mds.journal.dispatch_size == 5
