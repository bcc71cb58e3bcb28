"""Multi-MDS subtree partitioning (the Mantle-shaped substrate).

The paper's intro: "Applications perform better with dedicated metadata
servers [3], [4] but provisioning a metadata server for every client is
unreasonable."  These tests exercise the static-partitioning substrate:
subtrees pinned to MDS ranks, per-path client routing, and the
throughput scaling that motivates it.
"""

import pytest

from repro.cluster import Cluster
from repro.mds.server import MDSConfig
from repro.sim.engine import AllOf


def make_cluster(num_mds, seed=0):
    return Cluster(
        mds_config=MDSConfig(materialize=False, journal_enabled=False),
        num_mds=num_mds,
        seed=seed,
    )


def test_single_mds_default_unchanged():
    cluster = Cluster()
    assert cluster.num_mds == 1
    assert cluster.mds is cluster.mds_list[0]
    assert cluster.mds_for("/anything") is cluster.mds


def test_num_mds_validation():
    with pytest.raises(ValueError):
        Cluster(num_mds=0)


def test_assignment_and_routing():
    cluster = make_cluster(3)
    cluster.assign_subtree_mds("/a", 1)
    cluster.assign_subtree_mds("/b/deep", 2)
    assert cluster.mds_for("/a/file").name == "mds1"
    assert cluster.mds_for("/a").name == "mds1"
    assert cluster.mds_for("/b/deep/x/y").name == "mds2"
    assert cluster.mds_for("/b/other").name == "mds0"  # unassigned -> rank 0
    assert cluster.mds_for("/").name == "mds0"


def test_assignment_validation():
    cluster = make_cluster(2)
    with pytest.raises(ValueError):
        cluster.assign_subtree_mds("/a", 5)
    with pytest.raises(ValueError):
        cluster.assign_subtree_mds("relative", 0)


def test_all_ranks_subscribe_to_monitor():
    cluster = make_cluster(3)
    for rank in range(3):
        assert f"mds{rank}" in cluster.mon.subscribers
        assert cluster.mds_list[rank].policy_resolver is not None


def test_clients_route_per_subtree():
    cluster = make_cluster(2)
    cluster.assign_subtree_mds("/east", 0)
    cluster.assign_subtree_mds("/west", 1)
    c = cluster.new_client()
    cluster.run(c.create_many("/east/dir", 50))
    cluster.run(c.create_many("/west/dir", 70))
    assert cluster.mds_list[0].stats.counter("creates").value == 50
    assert cluster.mds_list[1].stats.counter("creates").value == 70


def test_dedicated_mds_scales_aggregate_throughput():
    """Saturating client groups scale with MDS ranks until the clients
    themselves become the bottleneck (16 clients x 654/s ~= 10.5K/s)."""
    N_CLIENTS = 16

    def total_rate(num_mds):
        cluster = make_cluster(num_mds)
        for i in range(N_CLIENTS):
            cluster.assign_subtree_mds(f"/grp{i}", i % num_mds)
        clients = [cluster.new_client() for _ in range(N_CLIENTS)]

        def worker(i):
            resp = yield cluster.engine.process(
                clients[i].create_many(f"/grp{i}/dir", 3000)
            )
            assert resp.ok

        def job():
            yield AllOf(
                cluster.engine,
                [cluster.engine.process(worker(i)) for i in range(N_CLIENTS)],
            )

        t0 = cluster.now
        cluster.run(job())
        return N_CLIENTS * 3000 / (cluster.now - t0)

    one = total_rate(1)
    two = total_rate(2)
    four = total_rate(4)
    assert one == pytest.approx(3000, rel=0.05)   # single-MDS peak
    assert two == pytest.approx(2 * one, rel=0.1)  # 8 clients/rank saturate
    client_ceiling = N_CLIENTS * 654
    assert four == pytest.approx(client_ceiling, rel=0.1)
    assert four > 3 * one


def test_independent_jitter_streams_per_rank():
    cluster = Cluster(num_mds=2, mds_config=MDSConfig(materialize=False))
    s0 = cluster.mds_list[0].rng.lognormal_service(1.0, 0.1)
    s1 = cluster.mds_list[1].rng.lognormal_service(1.0, 0.1)
    assert s0 != s1


def test_caps_are_per_rank():
    """Interference only affects the rank that owns the shared subtree."""
    cluster = make_cluster(2)
    cluster.assign_subtree_mds("/shared", 1)
    c1, c2 = cluster.new_client(), cluster.new_client()
    cluster.run(c1.create_many("/shared/dir", 20))
    cluster.run(c2.create_many("/shared/dir", 20))
    assert cluster.mds_list[1].stats.counter("revocations").value == 1
    assert cluster.mds_list[0].stats.counter("revocations").value == 0


def test_cudele_decouples_on_authoritative_rank():
    """A decoupled subtree pinned to rank 1 provisions, merges and
    records its policy there — Cudele composes with partitioning."""
    from repro.core.namespace_api import Cudele
    from repro.core.policy import SubtreePolicy

    cluster = Cluster(
        mds_config=MDSConfig(materialize=True), num_mds=2
    )
    cluster.assign_subtree_mds("/west", 1)
    cudele = Cudele(cluster)
    ns = cluster.run(
        cudele.decouple(
            "/west/job",
            SubtreePolicy(
                consistency="append_client_journal+volatile_apply",
                durability="none",
                allocated_inodes=50,
            ),
        )
    )
    rank1 = cluster.mds_list[1]
    assert rank1.mdstore.inotable.owner_of(ns.dclient.ino_range.start) \
        == ns.dclient.client_id
    assert rank1.mdstore.resolve("/west/job").is_dir
    cluster.run(ns.create_many(["a", "b"]))
    cluster.run(ns.finalize())
    assert rank1.mdstore.exists("/west/job/a")
    assert not cluster.mds_list[0].mdstore.exists("/west/job/a")
