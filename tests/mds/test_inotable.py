"""Tests for inode allocation and client provisioning."""

import cProfile
import gc
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mds.inotable import InoRange, InoTable, _Runs


def test_range_validation():
    with pytest.raises(ValueError):
        InoRange(0, 5)
    with pytest.raises(ValueError):
        InoRange(5, 0)


def test_range_membership():
    r = InoRange(100, 10)
    assert 100 in r and 109 in r
    assert 99 not in r and 110 not in r
    assert r.end == 110


def test_table_first_free_validation():
    with pytest.raises(ValueError):
        InoTable(first_free=1)


def test_allocate_monotone_unique():
    t = InoTable()
    a, b, c = t.allocate(), t.allocate(), t.allocate()
    assert a < b < c
    assert t.is_consumed(a)


def test_provision_reserves_disjoint_ranges():
    t = InoTable()
    r1 = t.provision(client_id=1, count=100)
    r2 = t.provision(client_id=2, count=100)
    assert r1.end <= r2.start
    nxt = t.allocate()
    assert nxt >= r2.end


def test_provision_validation():
    t = InoTable()
    with pytest.raises(ValueError):
        t.provision(1, 0)


def test_owner_of():
    t = InoTable()
    r = t.provision(client_id=7, count=10)
    assert t.owner_of(r.start) == 7
    assert t.owner_of(r.start + 9) == 7
    assert t.owner_of(r.end) is None


def test_ranges_for_accumulates():
    t = InoTable()
    t.provision(1, 10)
    t.provision(1, 20)
    assert [r.count for r in t.ranges_for(1)] == [10, 20]
    assert t.ranges_for(99) == []


def test_mark_consumed_and_double_consume():
    t = InoTable()
    r = t.provision(1, 10)
    t.mark_consumed(r.start)
    assert t.is_consumed(r.start)
    with pytest.raises(ValueError):
        t.mark_consumed(r.start)


def test_release_unused_counts_leftovers():
    t = InoTable()
    r = t.provision(1, 10)
    for i in range(4):
        t.mark_consumed(r.start + i)
    assert t.release_unused(1) == 6
    assert t.ranges_for(1) == []
    # Released numbers are burned, not re-issued.
    assert t.allocate() >= r.end


def test_release_unused_unknown_client():
    t = InoTable()
    assert t.release_unused(42) == 0


def test_extract_install_round_trip_carries_the_marks():
    src, dst = InoTable(), InoTable(first_free=1 << 30)
    bystander = src.provision(2, 50)
    src.mark_consumed(bystander.start)
    r = src.provision(1, 100)
    for offset in (0, 1, 2, 40, 99):
        src.mark_consumed(r.start + offset)
    after = src.allocate()

    bundle = src.extract_client(1)
    assert src.ranges_for(1) == [] and src.owner_of(r.start) is None
    assert not any(src.is_consumed(r.start + o) for o in (0, 1, 2, 40, 99))
    assert src.is_consumed(bystander.start) and src.is_consumed(after)

    dst.install_client(bundle)
    assert dst.ranges_for(1) == [r] and dst.owner_of(r.start + 99) == 1
    assert [o for o in range(100) if dst.is_consumed(r.start + o)] == [
        0, 1, 2, 40, 99
    ]
    with pytest.raises(ValueError, match="consumed twice"):
        dst.mark_consumed(r.start + 40)
    assert dst.release_unused(1) == 95


def test_install_refuses_a_range_with_a_number_already_consumed_here():
    src, dst = InoTable(), InoTable()
    for _ in range(5):
        dst.allocate()  # the same numbers the source is about to provision
    src.provision(1, 100)
    with pytest.raises(
        ValueError, match=rf"inode {1 << 20} inside an incoming range"
    ):
        dst.install_client(src.extract_client(1))


def _handoff_calls(unrelated: int, range_size: int) -> int:
    """Python calls (as the call-budget test counts them) made by
    extract -> install -> release for a client that consumed 500
    scattered inodes of its ``range_size``, on a rank that also holds
    ``unrelated`` consumed inodes."""
    src, dst = InoTable(), InoTable(first_free=1 << 40)
    for _ in range(unrelated // 2):
        src.allocate()
    rng = src.provision(1, range_size)
    for _ in range(unrelated - unrelated // 2):
        src.allocate()
    for offset in range(0, 1000, 2):  # every other number: 500 runs
        src.mark_consumed(rng.start + offset)
    # A collection inside the profiled region would add the finalizers
    # of whatever garbage earlier tests left behind to the count.
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        dst.install_client(src.extract_client(1))
        reclaimed = dst.release_unused(1)
        profile.disable()
    finally:
        gc.enable()
    assert reclaimed == range_size - 500
    return pstats.Stats(profile).total_calls


def test_handoff_cost_follows_the_subtree_not_the_rank():
    # extract_client used to filter the rank's whole consumed set and
    # install / release walked every number of every range: a handoff
    # on a rank with 10^6 files, or of a 10^6-inode range, paid for all
    # of them.  A count, not a clock: exact on any runner.
    base = _handoff_calls(unrelated=10**3, range_size=10**3)
    assert _handoff_calls(unrelated=10**5, range_size=10**3) == base
    assert _handoff_calls(unrelated=10**3, range_size=10**6) == base


_span = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=12),
).map(lambda s: (s[0], s[0] + s[1]))


@settings(max_examples=300, deadline=None)
@given(script=st.lists(
    st.tuples(st.sampled_from(["add", "next", "remove", "within"]), _span),
    max_size=40,
))
def test_property_runs_agree_with_a_plain_set(script):
    runs, model, last_end = _Runs(), set(), 0
    for verb, (start, end) in script:
        if verb == "next":  # consume in order: the in-place path
            verb, start, end = "add", last_end, last_end + end - start
        span = set(range(start, end))
        if verb == "add":
            runs.add(start, end)
            model |= span
            last_end = end
        elif verb == "remove":
            runs.remove(start, end)
            model -= span
        else:
            inside = runs.within(start, end)
            assert all(start <= s < e <= end for s, e in inside)
            assert {
                ino for s, e in inside for ino in range(s, e)
            } == model & span
        # Sorted, disjoint, non-adjacent, non-empty — and the same set.
        bounds = runs.bounds
        assert len(bounds) % 2 == 0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert {
            ino for s, e in zip(bounds[::2], bounds[1::2])
            for ino in range(s, e)
        } == model
        assert all((ino in runs) == (ino in model) for ino in range(-1, 90))
        # The cursor names an end boundary whenever there is one.
        assert not bounds or (runs.at % 2 == 1 and runs.at < len(bounds))
