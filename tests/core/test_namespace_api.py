"""Tests for the Cudele namespace API: decouple, finalize, retarget."""

import pytest

from repro.cluster import Cluster
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.core.semantics import Consistency, Durability
from repro.journal.events import WIRE_EVENT_BYTES
from repro.mds.server import Request
from repro.sim.disk import NVRam


@pytest.fixture
def cluster():
    return Cluster()


@pytest.fixture
def cudele(cluster):
    return Cudele(cluster)


def test_decouple_default_policy_behaves_like_cephfs(cluster, cudele):
    ns = cluster.run(cudele.decouple("/plain"))
    assert not ns.policy.is_decoupled
    assert ns.dclient is None
    # ops go via RPC and are immediately visible
    n = cluster.run(ns.create_many(["a", "b"]))
    assert n == 2
    assert cluster.mds.mdstore.exists("/plain/a")


def test_decouple_with_policies_file_text(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/hpc",
            'consistency: "append_client_journal+volatile_apply"\n'
            'durability: "local_persist"\n'
            "allocated_inodes: 500\n",
        )
    )
    assert ns.policy.is_decoupled
    assert ns.dclient is not None
    assert ns.dclient.ino_range.count == 500
    assert cudele.policy_of("/hpc/deep/path") is ns.policy


def test_decoupled_updates_invisible_until_finalize(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/batch",
            SubtreePolicy(
                consistency="append_client_journal+volatile_apply",
                durability="local_persist",
                allocated_inodes=100,
            ),
        )
    )
    cluster.run(ns.create_many(["x", "y"]))
    assert not cluster.mds.mdstore.exists("/batch/x")  # invisible
    assert ns.pending_updates() == 2
    timings = cluster.run(ns.finalize())
    assert cluster.mds.mdstore.exists("/batch/x")
    assert cluster.mds.mdstore.exists("/batch/y")
    assert ns.pending_updates() == 0
    assert "volatile_apply" in timings and "local_persist" in timings


def test_owner_client_set_on_decoupled_policy(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/mine",
            SubtreePolicy(consistency="append_client_journal", durability="none"),
        )
    )
    assert ns.policy.owner_client == ns.dclient.client_id


def test_interfere_block_enforced_via_monitor(cluster, cudele):
    cluster.run(
        cudele.decouple(
            "/locked",
            SubtreePolicy(
                consistency="append_client_journal",
                durability="none",
                interfere="block",
            ),
        )
    )
    done = cluster.mds.submit(Request("create", "/locked", 999, names=["intruder"]))
    cluster.run()
    assert done.value.error == "EBUSY"


def test_interfere_block_rejects_a_rename_into_the_subtree(cluster, cudele):
    cluster.run(
        cudele.decouple(
            "/job",
            SubtreePolicy(
                consistency="append_client_journal",
                durability="none",
                interfere="block",
            ),
        )
    )
    mds = cluster.mds
    for request in (Request("mkdir", "/", 999, names=["other"]),
                    Request("create", "/other", 999, names=["f"])):
        done = mds.submit(request)
        cluster.run()
        assert done.value.ok
    done = mds.submit(Request("rename", "/other/f", 999, payload="/job/g"))
    cluster.run()
    assert done.value.error == "EBUSY"
    assert mds.mdstore.listdir("/job") == []
    assert mds.mdstore.exists("/other/f")


def test_semantics_inference(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/weak_local",
            SubtreePolicy(
                consistency="append_client_journal+volatile_apply",
                durability="local_persist",
            ),
        )
    )
    assert ns.semantics == (Consistency.WEAK, Durability.LOCAL)
    ns2 = cluster.run(cudele.decouple("/posix", SubtreePolicy()))
    assert ns2.semantics == (Consistency.STRONG, Durability.GLOBAL)


def test_retarget_weak_to_strong_merges_pending(cluster, cudele):
    """§VII: dynamic semantics transitions merge outstanding updates."""
    ns = cluster.run(
        cudele.decouple(
            "/evolving",
            SubtreePolicy(consistency="append_client_journal", durability="none"),
        )
    )
    cluster.run(ns.create_many(["pending1", "pending2"]))
    assert not cluster.mds.mdstore.exists("/evolving/pending1")
    ns2 = cluster.run(cudele.retarget(ns, SubtreePolicy()))  # to strong/global
    assert cluster.mds.mdstore.exists("/evolving/pending1")
    assert ns2.policy.workload_mode == "rpc"
    assert cudele.policy_of("/evolving") is ns2.policy
    assert cluster.mon.version >= 2


def test_retarget_strengthen_durability_persists(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/vol",
            SubtreePolicy(consistency="append_client_journal", durability="none"),
        )
    )
    cluster.run(ns.create_many(["a"]))
    ns2 = cluster.run(
        cudele.retarget(
            ns,
            SubtreePolicy(
                consistency="append_client_journal", durability="global_persist"
            ),
        )
    )
    # journal pushed to the object store under the client's name
    names = cluster.objstore.list_objects("metadata")
    assert any(ns.dclient.name in n for n in names)
    assert ns2.policy.durability == "global_persist"


def test_recouple_clears_policy_and_releases_inodes(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/tmpjob",
            SubtreePolicy(
                consistency="append_client_journal+volatile_apply",
                durability="none",
                allocated_inodes=50,
            ),
        )
    )
    cluster.run(ns.create_many(["only"]))
    cluster.run(cudele.recouple(ns))
    assert cudele.policy_of("/tmpjob") is None
    assert cluster.mds.mdstore.exists("/tmpjob/only")
    assert cluster.mds.mdstore.inotable.ranges_for(ns.dclient.client_id) == []


def test_decouple_provisions_exact_inode_count(cluster, cudele):
    ns = cluster.run(
        cudele.decouple(
            "/contract",
            SubtreePolicy(
                consistency="append_client_journal",
                durability="none",
                allocated_inodes=3,
            ),
        )
    )
    cluster.run(ns.create_many(["a", "b", "c"]))
    with pytest.raises(RuntimeError):
        cluster.run(ns.create_many(["overflow"]))


def test_nested_subtrees_nearest_policy_wins(cluster, cudele):
    outer = cluster.run(cudele.decouple("/proj", SubtreePolicy()))
    inner = cluster.run(
        cudele.decouple(
            "/proj/scratch",
            SubtreePolicy(consistency="append_client_journal", durability="none"),
        )
    )
    assert cudele.policy_of("/proj/data") is outer.policy
    assert cudele.policy_of("/proj/scratch/tmp") is inner.policy


# -- mds_rank placement --------------------------------------------------------


def _two_ranks(populated):
    cluster = Cluster(seed=0, num_mds=2)
    if populated:
        admin = cluster.new_client()
        assert cluster.run(admin.mkdir("/job")).ok
        assert cluster.run(admin.create_many("/job", ["pre0", "pre1"])).ok
    return cluster, Cudele(cluster)


def _weak_local(**kw):
    return SubtreePolicy.from_semantics("weak", "local", **kw)


@pytest.mark.parametrize("populated", [False, True],
                         ids=["static-assign", "live-migration"])
def test_decouple_places_the_subtree_on_the_named_rank(populated):
    cluster, cudele = _two_ranks(populated)
    assert cluster.mon.authority_of("/job") == 0
    ns = cluster.run(cudele.decouple("/job", _weak_local(mds_rank=1)))
    assert cluster.mon.authority_of("/job") == 1
    assert cluster.mon.mds_epoch == 1
    cluster.run(ns.create_many(["a", "b", "c"]))
    cluster.run(ns.finalize())
    mds0, mds1 = cluster.mds_list
    # An unpopulated subtree is assigned statically: nothing ever exists
    # on rank 0.  A populated one moves its rows by live migration.
    pre = ["pre0", "pre1"] if populated else []
    assert mds1.mdstore.listdir("/job") == sorted(["a", "b", "c", *pre])
    assert not mds0.mdstore.exists("/job")
    assert mds1.stats.counters()["merged_events"] == 3
    assert "merged_events" not in mds0.stats.counters()


def test_decouple_rejects_a_rank_that_does_not_exist():
    cluster, cudele = _two_ranks(populated=False)
    with pytest.raises(ValueError, match="MDS rank 2"):
        cluster.run(cudele.decouple("/job", _weak_local(mds_rank=2)))
    assert cluster.mon.authority_of("/job") == 0


def test_retarget_with_a_new_rank_moves_the_live_subtree():
    cluster, cudele = _two_ranks(populated=False)
    ns = cluster.run(cudele.decouple("/job", _weak_local()))
    assert cluster.mon.authority_of("/job") == 0
    cluster.run(ns.create_many(["a", "b"]))
    ns = cluster.run(cudele.retarget(ns, _weak_local(mds_rank=1)))
    assert cluster.mon.authority_of("/job") == 1
    assert cudele.policy_of("/job") is ns.policy
    cluster.run(ns.finalize())
    mds0, mds1 = cluster.mds_list
    assert mds1.mdstore.listdir("/job") == ["a", "b"]
    assert not mds0.mdstore.exists("/job")


# -- persist_backend -----------------------------------------------------------


def _local_persist(backend, creates=1000):
    cluster = Cluster(seed=0)
    policy = SubtreePolicy.from_semantics(
        "invisible", "local", persist_backend=backend, allocated_inodes=creates
    )
    ns = cluster.run(Cudele(cluster).decouple("/job", policy))
    cluster.run(ns.create_many([f"f{i}" for i in range(creates)]))
    return cluster, ns.dclient, cluster.run(ns.finalize())["local_persist"]


def test_nvram_local_persist_pays_one_flush_barrier_per_write():
    _, on_disk, disk_s = _local_persist("disk")
    cluster, client, nvram_s = _local_persist("nvram")
    device = client.persist_device
    nbytes = 1000 * WIRE_EVENT_BYTES
    assert isinstance(device, NVRam) and client.disk.bytes_written == 0
    assert device.flushes == 1 and device.bytes_written == nbytes
    # The persist differs from the disk one only in the device write:
    # NVRAM access + transfer, plus the writeback/fence barrier.
    assert disk_s - nvram_s == pytest.approx(
        on_disk.persist_device.io_time(nbytes)
        - (device.io_time(nbytes) + device.flush_s)
    )
    assert client.crash() == 1000
    assert cluster.run(client.recover_local()) == 1000
    assert len(client.journal) == 1000


def test_admin_created_subtree_root_survives_an_mds_crash_and_replay(
    cluster, cudele
):
    """``decouple`` makes the missing ``/a`` and ``/a/b`` itself; with no
    checkpoint, only their journal records can rebuild them, and every
    create replayed under them needs them."""
    cluster.run(cudele.decouple(
        "/a/b", SubtreePolicy.from_semantics("strong", "global")
    ))
    client = cluster.new_client()
    assert cluster.run(client.create_many("/a/b", ["x", "y"])).ok
    mds = cluster.mds
    cluster.run(mds.journal.flush())
    mds.crash()
    cluster.run(mds.recover())
    assert mds.mdstore.listdir("/a/b") == ["x", "y"]


def test_strong_global_finalize_flushes_the_stream(cluster, cudele):
    """rpcs+stream is only global once Stream flushes its open segment."""
    ns = cluster.run(
        cudele.decouple("/job", SubtreePolicy.from_semantics("strong", "global"))
    )
    cluster.run(ns.create_many(["a", "b", "c"]))
    timings = cluster.run(ns.finalize())
    journal = cluster.mds.journal
    assert "stream" in timings
    assert journal._open_segment == []
    assert journal.segments_dispatched > 0
    scan = cluster.run(journal.read_scan())
    creates = [e.path for e in scan.events if e.op.name == "CREATE"]
    assert creates == ["/job/a", "/job/b", "/job/c"]


def test_retarget_from_strong_global_flushes_the_stream_first(cluster, cudele):
    """The old policy's Stream completes before a retarget lands: the
    new policy's completion (volatile_apply, global_persist) would not
    flush the MDS journal's open segment."""
    ns = cluster.run(
        cudele.decouple("/s", SubtreePolicy.from_semantics("strong", "global"))
    )
    cluster.run(ns.create_many(["a", "b", "c"]))
    journal = cluster.mds.journal
    assert journal._open_segment and journal.segments_dispatched == 0
    ns2 = cluster.run(
        cudele.retarget(ns, SubtreePolicy.from_semantics("weak", "global"))
    )
    assert journal._open_segment == []
    assert journal.segments_dispatched > 0
    cluster.run(ns2.finalize())
    scan = cluster.run(journal.read_scan())
    creates = [e.path for e in scan.events if e.op.name == "CREATE"]
    assert creates == ["/s/a", "/s/b", "/s/c"]
