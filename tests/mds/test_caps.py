"""Tests for the capability state machine."""

from repro.mds.caps import CapState, CapTracker


def test_first_writer_gets_exclusive_single_rpc():
    t = CapTracker()
    out = t.write_access(10, client_id=1)
    assert out.rpcs == 1 and not out.revoked
    assert t.state_of(10) is CapState.EXCLUSIVE
    assert t.holder_of(10) == 1
    assert t.grants == 1


def test_holder_keeps_single_rpc():
    t = CapTracker()
    t.write_access(10, 1)
    out = t.write_access(10, 1)
    assert out.rpcs == 1 and not out.revoked


def test_second_writer_revokes_and_pays_lookup():
    t = CapTracker()
    t.write_access(10, 1)
    out = t.write_access(10, 2)
    assert out.rpcs == 2 and out.revoked
    assert t.state_of(10) is CapState.SHARED
    assert t.revocations == 1


def test_shared_dir_costs_everyone_two_rpcs():
    t = CapTracker()
    t.write_access(10, 1)
    t.write_access(10, 2)
    out1 = t.write_access(10, 1)
    out2 = t.write_access(10, 2)
    assert out1.rpcs == 2 and not out1.revoked
    assert out2.rpcs == 2 and not out2.revoked
    assert t.revocations == 1  # only the transition revokes


def test_shared_is_sticky_while_writers_remain():
    t = CapTracker()
    t.write_access(10, 1)
    t.write_access(10, 2)
    for _ in range(5):
        assert t.write_access(10, 1).rpcs == 2


def test_only_the_exclusive_writer_holds_the_cap():
    t = CapTracker()
    t.write_access(10, 1)
    assert t.holder_of(10) == 1
    t.write_access(10, 2)
    assert t.holder_of(10) is None
    assert t.state_of(10) is CapState.SHARED


def test_tracked_dirs_counts():
    t = CapTracker()
    t.write_access(1, 1)
    t.write_access(2, 1)
    assert t.tracked_dirs == 2
