"""Tests for SubtreePolicy and the Table I matrix."""

import itertools

import pytest

from repro.core.policy import (
    SYSTEM_POLICIES,
    TABLE_I,
    SubtreePolicy,
    composition_for,
    composition_warnings,
)
from repro.core.semantics import Consistency, Durability


def test_table_covers_all_nine_cells():
    cells = set(itertools.product(Consistency, Durability))
    assert set(TABLE_I) == cells


def test_table_matches_paper_verbatim():
    C, D = Consistency, Durability
    assert TABLE_I[(C.INVISIBLE, D.NONE)] == "append_client_journal"
    assert TABLE_I[(C.WEAK, D.NONE)] == "append_client_journal+volatile_apply"
    assert TABLE_I[(C.STRONG, D.NONE)] == "rpcs"
    assert TABLE_I[(C.INVISIBLE, D.LOCAL)] == "append_client_journal+local_persist"
    assert (
        TABLE_I[(C.WEAK, D.LOCAL)]
        == "append_client_journal+local_persist+volatile_apply"
    )
    assert TABLE_I[(C.STRONG, D.LOCAL)] == "rpcs+local_persist"
    assert TABLE_I[(C.INVISIBLE, D.GLOBAL)] == "append_client_journal+global_persist"
    assert (
        TABLE_I[(C.WEAK, D.GLOBAL)]
        == "append_client_journal+global_persist+volatile_apply"
    )
    assert TABLE_I[(C.STRONG, D.GLOBAL)] == "rpcs+stream"


def test_composition_for_accepts_strings():
    assert composition_for("strong", "global") == "rpcs+stream"
    with pytest.raises(ValueError):
        composition_for("sorta", "global")
    with pytest.raises(ValueError):
        composition_for("strong", "forever")


def test_semantics_ordering():
    assert Consistency.INVISIBLE < Consistency.WEAK < Consistency.STRONG
    assert Durability.NONE < Durability.LOCAL < Durability.GLOBAL


def test_default_policy_is_cephfs_like():
    """An empty policies file behaves like the existing CephFS (§III-C)."""
    p = SubtreePolicy()
    assert p.consistency == "rpcs"
    assert p.durability == "stream"
    assert p.allocated_inodes == 100
    assert p.interfere == "allow"
    assert p.workload_mode == "rpc"
    assert not p.is_decoupled


def test_policy_validation():
    with pytest.raises(Exception):
        SubtreePolicy(consistency="not_a_mechanism")
    with pytest.raises(ValueError):
        SubtreePolicy(interfere="maybe")
    with pytest.raises(ValueError):
        SubtreePolicy(allocated_inodes=-1)


def test_combined_composition_dedupes():
    p = SubtreePolicy(
        consistency="append_client_journal+volatile_apply",
        durability="local_persist",
    )
    combined = p.combined_composition
    assert combined.count("append_client_journal") == 1
    assert set(p.plan.mechanisms) == {
        "append_client_journal", "volatile_apply", "local_persist"
    }


def test_durability_none_supported():
    p = SubtreePolicy(consistency="append_client_journal", durability="none")
    assert p.plan.mechanisms == ["append_client_journal"]
    assert p.is_decoupled


def test_from_semantics_builds_each_cell():
    for (c, d), comp in TABLE_I.items():
        p = SubtreePolicy.from_semantics(c, d)
        assert set(p.plan.mechanisms) == set(comp.split("+"))


def test_for_system_known_labels():
    batchfs = SubtreePolicy.for_system("BatchFS")
    assert set(batchfs.plan.mechanisms) == {
        "append_client_journal", "local_persist", "volatile_apply"
    }
    deltafs = SubtreePolicy.for_system("DeltaFS")
    assert set(deltafs.plan.mechanisms) == {
        "append_client_journal", "local_persist"
    }
    posix = SubtreePolicy.for_system("POSIX")
    assert set(posix.plan.mechanisms) == {"rpcs", "stream"}
    assert not posix.is_decoupled
    with pytest.raises(KeyError):
        SubtreePolicy.for_system("NotAFileSystem")


def test_system_labels_match_paper_assignments():
    C, D = Consistency, Durability
    assert SYSTEM_POLICIES["BatchFS"] == (C.WEAK, D.LOCAL)
    assert SYSTEM_POLICIES["DeltaFS"] == (C.INVISIBLE, D.LOCAL)
    assert SYSTEM_POLICIES["CephFS"] == (C.STRONG, D.GLOBAL)
    assert SYSTEM_POLICIES["IndexFS"] == (C.STRONG, D.GLOBAL)


def test_warnings_for_nonsensical_compositions():
    assert composition_warnings("append_client_journal+rpcs")
    assert composition_warnings("stream+local_persist")
    assert composition_warnings("stream+global_persist")
    assert composition_warnings("volatile_apply+nonvolatile_apply")
    assert composition_warnings("rpcs+stream") == []
    assert composition_warnings("append_client_journal+volatile_apply") == []
