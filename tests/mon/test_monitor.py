"""Tests for the monitor's versioned policy map."""

import pytest

from repro.mon.monitor import Monitor

from tests.conftest import drive


@pytest.fixture
def mon(engine, network):
    return Monitor(engine, network)


def test_set_and_resolve(engine, mon):
    v = drive(engine, mon.set_subtree("/a/b", "policyB"))
    assert v == 1
    assert mon.resolve("/a/b") == "policyB"
    assert mon.resolve("/a/b/deep/child") == "policyB"
    assert mon.resolve("/a") is None
    assert mon.resolve("/other") is None


def test_nearest_ancestor_wins(engine, mon):
    drive(engine, mon.set_subtree("/a", "outer"))
    drive(engine, mon.set_subtree("/a/b", "inner"))
    assert mon.resolve("/a/x") == "outer"
    assert mon.resolve("/a/b") == "inner"
    assert mon.resolve("/a/b/c") == "inner"


def test_resolve_entry_returns_subtree_root(engine, mon):
    drive(engine, mon.set_subtree("/a", "p"))
    assert mon.resolve_entry("/a/deep/path") == ("/a", "p")
    assert mon.resolve_entry("/elsewhere") is None


def test_version_increments_and_history(engine, mon):
    drive(engine, mon.set_subtree("/a", "p1"))
    drive(engine, mon.set_subtree("/b", "p2"))
    drive(engine, mon.set_subtree("/a", "p3"))
    assert mon.version == 3
    assert [h.version for h in mon.history] == [1, 2, 3]
    assert mon.resolve("/a") == "p3"


def test_clear_subtree(engine, mon):
    drive(engine, mon.set_subtree("/a", "p"))
    v = drive(engine, mon.clear_subtree("/a"))
    assert v == 2
    assert mon.resolve("/a/x") is None


def test_clear_unassigned_is_explicit_noop(engine, mon, network):
    """Clearing a path with no assignment returns None, not a version."""
    drive(engine, mon.set_subtree("/a", "p"))
    mon.subscribe("mds0")
    before_msgs = network.total_messages
    v = drive(engine, mon.clear_subtree("/never"))
    assert v is None
    assert mon.version == 1  # no version minted
    assert mon.history[-1].path == "/a"  # no history entry appended
    # The submission pays one client->monitor message; the no-op is not
    # distributed to subscribers.
    assert network.total_messages == before_msgs + 1


def test_clear_then_clear_again_distinguishable(engine, mon):
    drive(engine, mon.set_subtree("/a", "p"))
    assert drive(engine, mon.clear_subtree("/a")) == 2
    assert drive(engine, mon.clear_subtree("/a")) is None


def test_resolve_entry_root_without_policy(engine, mon):
    assert mon.resolve_entry("/") is None
    assert mon.resolve("/") is None
    drive(engine, mon.set_subtree("/a", "p"))
    assert mon.resolve_entry("/") is None  # non-root policy doesn't leak up


def test_path_normalization(engine, mon):
    drive(engine, mon.set_subtree("/a/b/", "p"))
    assert mon.resolve("/a//b/c") == "p"
    assert mon.exact("/a/b") == "p"
    with pytest.raises(ValueError):
        mon.resolve("relative")


def test_root_policy_applies_everywhere(engine, mon):
    drive(engine, mon.set_subtree("/", "default"))
    assert mon.resolve("/any/path/at/all") == "default"


def test_distribution_reaches_subscribers(engine, mon, network):
    mon.subscribe("mds0")
    mon.subscribe("osd.0")
    mon.subscribe("mds0")  # duplicate ignored
    assert mon.subscribers == ["mds0", "osd.0"]
    before = network.total_messages
    drive(engine, mon.set_subtree("/a", "p"))
    # 1 client->mon submission + 2 daemon updates
    assert network.total_messages == before + 3
    mon.unsubscribe("osd.0")
    assert mon.subscribers == ["mds0"]


def test_distribution_waits_once_for_the_latest_arrival(engine, mon, network):
    """Each subscriber's link is reserved at once; the update is done when
    the last one arrives, here behind a transfer already on its link."""
    from repro.mon.monitor import POLICY_UPDATE_BYTES

    for daemon in ("a", "b"):
        mon.subscribe(daemon)
    seen = []
    engine.trace = lambda t, event: seen.append(t)
    busy = engine.process(network.send(mon.name, "b", 10**6))
    drive(engine, mon.set_subtree("/x", "p"))
    engine.trace = None
    assert busy.ok
    lat, bw = network.default_latency_s, network.default_bandwidth_bps
    submitted = POLICY_UPDATE_BYTES / bw + lat
    behind = 10**6 / bw + POLICY_UPDATE_BYTES / bw + lat
    assert engine.now == max(submitted + POLICY_UPDATE_BYTES / bw + lat, behind)
    # two starts, the submission, the busy transfer and its completion,
    # one wake for both updates (no process per subscriber) and the
    # driven body's completion
    assert len(seen) == 7 and seen[-2] == seen[-1] == engine.now


def test_a_partitioned_subscriber_fails_the_distribution(engine, mon, network):
    """The partitioned pair raises at the instant the update is sent,
    after every other subscriber's link was charged."""
    from repro.sim.network import PartitionError

    for daemon in ("a", "b", "c"):
        mon.subscribe(daemon)
    network.partition(mon.name, "b")
    failed_at = []

    def body():
        try:
            yield from mon.set_subtree("/x", "p")
        except PartitionError:
            failed_at.append(engine.now)

    drive(engine, body())
    lat, bw = network.default_latency_s, network.default_bandwidth_bps
    assert failed_at == [4096 / bw + lat]
    assert network.messages_dropped == 1
    assert [network.link(mon.name, d).messages_sent for d in "ac"] == [1, 1]
    assert network.link(mon.name, "c").free_at > failed_at[0]


def test_subtree_paths(engine, mon):
    drive(engine, mon.set_subtree("/b", "p"))
    drive(engine, mon.set_subtree("/a", "p"))
    assert mon.subtree_paths == ["/a", "/b"]


def test_authority_entry_returns_assigned_root(engine, mon):
    mon.assign_authority("/job", 1)
    assert mon.authority_entry("/job/deep/file") == ("/job", 1)
    assert mon.authority_entry("/elsewhere") is None
    assert mon.authority_entry("/") is None  # non-root pin doesn't leak up


def test_subtree_entry_prefers_policy_over_authority(engine, mon):
    mon.assign_authority("/job", 1)
    assert mon.subtree_entry("/job/f") == ("/job", 1)
    drive(engine, mon.set_subtree("/job", "decoupled"))
    assert mon.subtree_entry("/job/f") == ("/job", "decoupled")
    assert mon.subtree_entry("/neither") is None
