"""Tests for embeddable policies (paper §VII future work)."""

import pytest

from repro.cluster import Cluster
from repro.core.namespace_api import Cudele, EmbeddingError
from repro.core.policy import SubtreePolicy


@pytest.fixture
def cluster():
    return Cluster()


@pytest.fixture
def cudele(cluster):
    return Cudele(cluster)


@pytest.fixture
def posix_home(cluster, cudele):
    return cluster.run(cudele.decouple("/home", SubtreePolicy()))


def test_ramdisk_under_posix_allowed(cluster, cudele, posix_home):
    """The paper's example: strong consistency, relaxed durability."""
    ramdisk = SubtreePolicy(consistency="rpcs", durability="none")
    ns = cluster.run(cudele.embed(posix_home, "/home/ramdisk", ramdisk))
    assert ns.policy.durability == "none"
    assert cudele.policy_of("/home/ramdisk/x") is ns.policy
    assert cudele.policy_of("/home/other") is posix_home.policy


def test_weaker_consistency_rejected(cluster, cudele, posix_home):
    batch = SubtreePolicy(
        consistency="append_client_journal+volatile_apply",
        durability="local_persist",
    )
    with pytest.raises(EmbeddingError):
        cluster.run(cudele.embed(posix_home, "/home/batch", batch))


def test_path_must_be_inside_parent(cluster, cudele, posix_home):
    with pytest.raises(EmbeddingError):
        cluster.run(
            cudele.embed(posix_home, "/elsewhere", SubtreePolicy())
        )
    # prefix trickery is not containment
    with pytest.raises(EmbeddingError):
        cluster.run(
            cudele.embed(posix_home, "/homestead", SubtreePolicy())
        )


def test_equal_consistency_allowed(cluster, cudele):
    weak_parent = cluster.run(
        cudele.decouple(
            "/proj",
            SubtreePolicy(
                consistency="append_client_journal+volatile_apply",
                durability="global_persist",
            ),
        )
    )
    child = SubtreePolicy(
        consistency="append_client_journal+volatile_apply",
        durability="none",
    )
    ns = cluster.run(cudele.embed(weak_parent, "/proj/scratch", child))
    assert ns.policy.durability == "none"


def test_stronger_child_allowed(cluster, cudele):
    invisible_parent = cluster.run(
        cudele.decouple(
            "/lab",
            SubtreePolicy(consistency="append_client_journal",
                          durability="none"),
        )
    )
    strong_child = SubtreePolicy()  # rpcs+stream
    ns = cluster.run(cudele.embed(invisible_parent, "/lab/safe", strong_child))
    assert not ns.policy.is_decoupled


def test_embed_accepts_policy_text(cluster, cudele, posix_home):
    ns = cluster.run(
        cudele.embed(
            posix_home, "/home/tmp",
            'consistency: "rpcs"\ndurability: "none"\n',
        )
    )
    assert ns.policy.durability == "none"


def test_allow_child_cannot_open_a_block_parent(cluster, cudele):
    """§VII: the child keeps the parent's guarantee of exclusive access."""
    weak_local = dict(
        consistency="append_client_journal+volatile_apply",
        durability="local_persist",
    )
    parent = cluster.run(
        cudele.decouple("/p", SubtreePolicy(interfere="block", **weak_local))
    )
    with pytest.raises(EmbeddingError, match="interfere=allow"):
        cluster.run(cudele.embed(parent, "/p/c", SubtreePolicy(**weak_local)))
    assert cudele.policy_of("/p/c/x") is parent.policy
    foreign = cluster.new_client()
    assert cluster.run(foreign.create("/p/c/x")).error == "EBUSY"
    child = cluster.run(
        cudele.embed(
            parent, "/p/d", SubtreePolicy(interfere="block", **weak_local)
        )
    )
    assert child.policy.interfere == "block"
