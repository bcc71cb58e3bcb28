"""Unit tests for live subtree migration (:mod:`repro.mds.migrate`).

The conformance/fault suites prove the protocol correct under crashes
and concurrent load; this file pins the mechanics — what moves, what
stays, what refuses — on quiet clusters where each effect is directly
inspectable.
"""

import pytest

from repro.cluster import Cluster
from repro.mds.caps import CapState
from repro.mds.migrate import HotspotDetector, migrate_subtree
from repro.mds.server import MDSConfig
from repro.obs import Observability

SUBTREE = "/job"


def _populated(num_files=8, **cluster_kw):
    cluster = Cluster(num_mds=2, seed=0, **cluster_kw)
    cluster.assign_subtree_mds(SUBTREE, 0)
    client = cluster.new_client()

    def boot():
        resp = yield cluster.engine.process(client.mkdir(SUBTREE))
        assert resp.ok
        resp = yield cluster.engine.process(
            client.create_many(SUBTREE, [f"f{i}" for i in range(num_files)])
        )
        assert resp.ok

    cluster.run(boot())
    return cluster, client


def test_migrate_moves_rows_and_flips_authority():
    cluster, _client = _populated()
    src, dst = cluster.mds_list
    assert src.mdstore.exists(SUBTREE)
    result = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
    assert result.status == "done" and result.ok
    assert result.src == "mds0" and result.dst == "mds1"
    assert result.rows == 1 + 8  # the root dir plus its files
    assert result.epoch > 0
    assert cluster.mon.authority_of(SUBTREE) == 1
    assert cluster.mds_for(f"{SUBTREE}/f0") is dst
    # Rows were detached, not copied: the old authority no longer sees
    # the subtree, the new one serves it whole.
    assert not src.mdstore.exists(SUBTREE)
    assert sorted(dst.mdstore.listdir(SUBTREE)) == \
        sorted(f"f{i}" for i in range(8))


def test_migrate_reports_frozen_window_and_timings():
    cluster, _client = _populated()
    result = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
    assert result.status == "done"
    assert result.frozen_s > 0
    assert result.timings["prep_s"] > 0
    # The fresh creates are still in the source's open journal segment,
    # so the handoff carried them to the destination's journal.
    assert result.moved_events > 0


def test_migrate_moves_capability_state():
    cluster, client = _populated()
    src, dst = cluster.mds_list
    result = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
    assert result.status == "done"
    assert result.caps >= 1
    dir_ino = dst.mdstore.resolve(SUBTREE).ino
    assert dst.caps.state_of(dir_ino) is not CapState.UNHELD
    assert dst.caps.holder_of(dir_ino) == client.client_id
    assert src.caps.state_of(dir_ino) is CapState.UNHELD


def test_migrate_round_trip_preserves_namespace():
    cluster, _client = _populated()
    src, dst = cluster.mds_list
    before = src.mdstore.export_subtree(SUBTREE)
    src.mdstore.import_subtree(before)
    listing = sorted(src.mdstore.listdir(SUBTREE))
    assert cluster.run(migrate_subtree(cluster, SUBTREE, 1)).status == "done"
    assert cluster.run(migrate_subtree(cluster, SUBTREE, 0)).status == "done"
    assert cluster.mon.authority_of(SUBTREE) == 0
    assert sorted(src.mdstore.listdir(SUBTREE)) == listing
    assert not dst.mdstore.exists(SUBTREE)


def test_migrate_to_current_authority_is_noop():
    cluster, _client = _populated()
    result = cluster.run(migrate_subtree(cluster, SUBTREE, 0))
    assert result.status == "noop" and result.ok
    assert cluster.mds_list[0].mdstore.exists(SUBTREE)
    assert cluster.mon.authority_of(SUBTREE) == 0


def test_migrate_validates_inputs():
    cluster, _client = _populated()
    with pytest.raises(ValueError, match="root"):
        cluster.run(migrate_subtree(cluster, "/", 1))
    with pytest.raises(ValueError, match="rank"):
        cluster.run(migrate_subtree(cluster, SUBTREE, 2))
    with pytest.raises(ValueError, match="absolute"):
        cluster.run(migrate_subtree(cluster, "job", 1))


def test_migrate_requires_materialized_stores():
    cluster = Cluster(
        num_mds=2, seed=0, mds_config=MDSConfig(materialize=False)
    )
    cluster.assign_subtree_mds(SUBTREE, 0)
    with pytest.raises(ValueError, match="materialized"):
        cluster.run(migrate_subtree(cluster, SUBTREE, 1))


def test_migrate_unmaterialized_subtree_moves_authority_only():
    """Migrating a subtree nothing has touched yet is legal: zero rows
    move, but the authority still flips."""
    cluster = Cluster(num_mds=2, seed=0)
    cluster.assign_subtree_mds(SUBTREE, 0)
    result = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
    assert result.status == "done"
    assert result.rows == 0 and result.moved_events == 0
    assert cluster.mon.authority_of(SUBTREE) == 1


def test_traffic_during_handoff_stalls_but_never_fails():
    cluster = Cluster(num_mds=2, seed=0)
    cluster.assign_subtree_mds(SUBTREE, 0)
    client = cluster.new_client()
    completed = []

    def driver():
        resp = yield cluster.engine.process(client.mkdir(SUBTREE))
        assert resp.ok
        for i in range(40):
            resp = yield cluster.engine.process(
                client.create(f"{SUBTREE}/f{i}")
            )
            assert resp.ok, resp.error
            completed.append(i)

    def migrator():
        while len(completed) < 8:
            yield cluster.engine.sleep(1e-3)
        result = yield from migrate_subtree(cluster, SUBTREE, 1)
        assert result.status == "done", result.reason

    cluster.engine.process(driver())
    cluster.engine.process(migrator())
    cluster.run()
    assert len(completed) == 40  # every op succeeded, none rejected
    assert client.stats.counter("redirects").value >= 1
    assert cluster.mds_list[1].mdstore.exists(f"{SUBTREE}/f39")


def test_hotspot_detector_proposes_the_hot_subtree():
    """Differential: attached next to ``Observability``, the detector
    counts exactly what the hub's ``subtree_ops`` counters hold, and
    proposes what the hub-fed detector it replaces proposed."""
    cluster = Cluster(num_mds=2, seed=0)
    detector = HotspotDetector(cluster, threshold_ops=10)
    cluster.attach_observer(detector)
    with Observability(cluster) as obs:
        cluster.assign_subtree_mds("/hot", 0)
        cluster.assign_subtree_mds("/cold", 0)
        client = cluster.new_client()

        def story():
            for path in ("/hot", "/cold"):
                resp = yield cluster.engine.process(client.mkdir(path))
                assert resp.ok
            resp = yield cluster.engine.process(
                client.create_many("/hot", [f"f{i}" for i in range(64)])
            )
            assert resp.ok

        cluster.run(story())
        # Park the cold subtree on rank 1 so both ranks carry traffic.
        assert cluster.run(
            migrate_subtree(cluster, "/cold", 1)
        ).status == "done"

        def trickle():
            resp = yield cluster.engine.process(client.create("/cold/one"))
            assert resp.ok

        cluster.run(trickle())
    cluster.detach_observer(detector)
    assert detector.ops == {
        (m.daemon, dict(m.tags)["subtree"]): m.value
        for m in obs.hub.metrics() if m.name == "subtree_ops"
    }
    assert detector.ops[("mds0", "/hot")] == 64
    assert detector.propose() == {
        "subtree": "/hot", "src_rank": 0, "dst_rank": 1, "ops": 64,
    }
    # Balanced-enough load proposes nothing.
    detector.threshold_ops = 10**6
    assert detector.propose() is None


def test_hotspot_detector_never_attached_is_silent():
    cluster = Cluster(num_mds=2, seed=0)
    detector = HotspotDetector(cluster)
    client = cluster.new_client()
    cluster.run(client.mkdir("/unseen"))
    assert cluster.tap is None
    assert detector.ops == {} and detector.propose() is None


def test_hotspot_proposal_closes_the_loop():
    """The detector's proposal is directly executable and rebalances."""
    cluster = Cluster(num_mds=2, seed=0)
    detector = HotspotDetector(cluster, threshold_ops=10)
    cluster.attach_observer(detector)
    cluster.assign_subtree_mds("/hot", 0)
    client = cluster.new_client()

    def story():
        resp = yield cluster.engine.process(client.mkdir("/hot"))
        assert resp.ok
        resp = yield cluster.engine.process(
            client.create_many("/hot", [f"f{i}" for i in range(32)])
        )
        assert resp.ok

    cluster.run(story())
    proposal = detector.propose()
    assert proposal is not None
    result = cluster.run(
        migrate_subtree(cluster, proposal["subtree"], proposal["dst_rank"])
    )
    assert result.status == "done"
    assert cluster.mon.authority_of("/hot") == proposal["dst_rank"]


def test_round_trip_never_reallocates_burned_inodes():
    """A number allocated then unlinked on one rank must stay burned
    after the subtree migrates back (found by the stateful machine:
    no surviving row re-marks the unlinked inode consumed on import,
    so only the carried allocation cursor keeps it out of reach)."""
    cluster, client = _populated(num_files=1)

    def story():
        resp = yield cluster.engine.process(client.mkdir(f"{SUBTREE}/d1"))
        assert resp.ok
        resp = yield cluster.engine.process(
            client.create_many(SUBTREE, ["f1"])
        )
        assert resp.ok
        burned = cluster.mds_for(SUBTREE).mdstore.resolve(f"{SUBTREE}/f1").ino
        resp = yield cluster.engine.process(client.unlink(f"{SUBTREE}/f1"))
        assert resp.ok
        result = yield cluster.engine.process(
            migrate_subtree(cluster, SUBTREE, 0)
        )
        assert result.status == "done"
        resp = yield cluster.engine.process(client.mkdir(f"{SUBTREE}/d2"))
        assert resp.ok
        fresh = cluster.mds_for(SUBTREE).mdstore.resolve(f"{SUBTREE}/d2").ino
        assert fresh != burned

    result = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
    assert result.status == "done"
    cluster.run(story())


def test_imported_subtree_ancestors_survive_a_crash_of_the_importer():
    """The importer makes the subtree's missing parent ``/a`` itself; a
    crash and journal replay on the importer must rebuild it, or the
    imported rows, and every later create under them, are lost."""
    cluster = Cluster(num_mds=2, seed=0)
    client = cluster.new_client()
    for path in ("/a", "/a/b"):
        assert cluster.run(client.mkdir(path)).ok
    assert cluster.run(client.create_many("/a/b", ["x"])).ok
    assert cluster.run(migrate_subtree(cluster, "/a/b", 1)).status == "done"
    assert cluster.run(client.create_many("/a/b", ["y"])).ok
    dst = cluster.mds_list[1]
    cluster.run(dst.journal.flush())
    dst.crash()
    cluster.run(dst.recover())
    assert dst.mdstore.listdir("/a/b") == ["x", "y"]
    assert cluster.run(client.create_many("/a/b", ["z"])).ok


def test_imported_rows_replay_as_the_inodes_that_arrived():
    """Regression: the importer journaled each row with the import's
    time as its mtime, so a crash and replay on the importer rebuilt a
    file with an mtime it never had; and with no size, so the file came
    back empty."""
    cluster = Cluster(num_mds=2, seed=0)
    client = cluster.new_client()
    assert cluster.run(client.mkdir("/a")).ok
    assert cluster.run(client.create_many("/a", ["f"])).ok
    assert cluster.run(
        client.setattr("/a/f", mode=0o600, uid=7, gid=8, mtime=5.0, size=4096)
    ).ok
    # Dispatched at the source, the SETATTR does not move with the
    # subtree: on the importer, only the row's own record rebuilds it.
    src, dst = cluster.mds_list
    cluster.run(src.journal.flush())
    assert cluster.run(migrate_subtree(cluster, "/a", 1)).status == "done"
    live = dst.mdstore.resolve("/a/f")
    want = (live.ino, live.mode, live.uid, live.gid, live.size, live.mtime)
    assert want[1:] == (0o100600, 7, 8, 4096, 5.0)
    cluster.run(dst.journal.flush())
    dst.crash()
    cluster.run(dst.recover())
    got = dst.mdstore.resolve("/a/f")
    assert (got.ino, got.mode, got.uid, got.gid, got.size, got.mtime) == want


def test_round_trip_keeps_each_rank_minting_from_its_own_space():
    """An import must not move the importer's allocation cursor into
    the exporter's number space: after ``/a`` goes to rank 1 and back,
    rank 0 and rank 1 would otherwise mint the same next number."""
    cluster = Cluster(num_mds=2, seed=0)
    client = cluster.new_client()
    for path in ("/a", "/b"):
        assert cluster.run(client.mkdir(path)).ok
    for path in ("/b", "/a"):
        assert cluster.run(migrate_subtree(cluster, path, 1)).status == "done"
    assert cluster.run(client.create_many("/a", ["x"])).ok
    assert cluster.run(migrate_subtree(cluster, "/a", 0)).status == "done"
    assert cluster.run(client.create_many("/a", ["y"])).ok
    assert cluster.run(client.create_many("/b", ["z"])).ok
    rank0, rank1 = cluster.mds_list
    y = rank0.mdstore.resolve("/a/y").ino
    z = rank1.mdstore.resolve("/b/z").ino
    assert y != z
    assert y < rank1.config.ino_base <= z
