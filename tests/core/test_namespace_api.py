"""Tests for the Cudele namespace API: decouple, finalize, retarget."""

import pytest

from repro.cluster import Cluster
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.core.semantics import Consistency, Durability
from repro.mds.server import Request


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


def test_policy_recorded_in_large_inode(cluster, cudele):
    cluster.run(cudele.decouple("/sub", SubtreePolicy()))
    blob = cluster.mds.mdstore.resolve("/sub").policy_blob
    assert blob and "consistency=rpcs" in blob


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
