"""Tests for the RPC client."""

import pytest

from repro import calibration as cal
from repro.client.client import Client, RetryPolicy
from repro.cluster import Cluster
from repro.mds.server import MDSConfig, MetadataServer, Request
from repro.sim.engine import SimulationError

from tests.conftest import drive


@pytest.fixture
def client(engine, mds, network):
    return Client(engine, 1, mds, network)


def test_mkdir_create_stat_ls(engine, client):
    assert drive(engine, client.mkdir("/home")).ok
    assert drive(engine, client.create("/home/f")).ok
    st = drive(engine, client.stat("/home/f"))
    assert st.ok and st.value.is_file
    ls = drive(engine, client.ls("/home"))
    assert ls.value == ["f"]


def test_create_many_names(engine, client):
    drive(engine, client.mkdir("/d"))
    resp = drive(engine, client.create_many("/d", [f"f{i}" for i in range(25)], batch=10))
    assert resp.ok
    assert drive(engine, client.ls("/d")).value == sorted(f"f{i}" for i in range(25))


def test_create_many_reports_a_failed_earlier_batch(engine, client):
    # Regression: only the last batch's response came back, so a failed
    # first batch read as success.  Every batch is still sent.
    drive(engine, client.mkdir("/d"))
    resp = drive(engine, client.create_many("/d", ["a", "a", "b"], batch=2))
    assert not resp.ok
    assert resp.value == ["a"] and "EEXIST" in resp.error
    assert drive(engine, client.ls("/d")).value == ["a", "b"]


def test_create_many_count_mode(engine, objstore, network):
    mds = MetadataServer(engine, objstore, network, MDSConfig(materialize=False))
    c = Client(engine, 1, mds, network)
    resp = drive(engine, c.create_many("/dir", 500, batch=100))
    assert resp.ok
    assert mds.journal.events_logged == 500


def test_unlink_rename_setattr(engine, client):
    drive(engine, client.create("/f"))
    assert drive(engine, client.rename("/f", "/g")).ok
    assert drive(engine, client.setattr("/g", mode=0o600)).ok
    assert drive(engine, client.unlink("/g")).ok
    assert not drive(engine, client.stat("/g")).ok


def test_lookup(engine, client):
    drive(engine, client.create("/f"))
    assert drive(engine, client.lookup("/f")).value is True
    assert drive(engine, client.lookup("/zz")).value is False


def test_one_client_rate_matches_calibration(engine, objstore, network):
    """1 client, journal off: ~654 creates/s (paper §II / Figure 3a)."""
    mds = MetadataServer(
        engine, objstore, network,
        MDSConfig(journal_enabled=False, materialize=False, service_jitter_cv=0.0),
    )
    c = Client(engine, 1, mds, network)
    n = 2000
    t0 = engine.now
    drive(engine, c.create_many("/dir", n, batch=100))
    rate = n / (engine.now - t0)
    assert rate == pytest.approx(654, rel=0.05)


def test_one_client_rate_journal_on(engine, objstore, network):
    """1 client, journal on (d=40): ~513-549 creates/s."""
    mds = MetadataServer(
        engine, objstore, network,
        MDSConfig(materialize=False, service_jitter_cv=0.0),
    )
    c = Client(engine, 1, mds, network)
    n = 2000
    t0 = engine.now
    drive(engine, c.create_many("/dir", n, batch=100))
    rate = n / (engine.now - t0)
    assert 490 < rate < 580


def test_interference_doubles_rpcs(engine, objstore, network):
    mds = MetadataServer(
        engine, objstore, network, MDSConfig(materialize=False)
    )
    c1 = Client(engine, 1, mds, network)
    c2 = Client(engine, 2, mds, network)
    assert drive(engine, c1.create_many("/dir", 100)).rpcs == 1
    drive(engine, c2.create_many("/dir", 100))
    resp = drive(engine, c1.create_many("/dir", 100))
    assert resp.rpcs == 2
    assert mds.stats.counter("revocations").value == 1


def test_interference_slows_client(engine, objstore, network):
    """Post-revocation creates cost ~2x (extra lookup per create)."""
    mds = MetadataServer(
        engine, objstore, network,
        MDSConfig(materialize=False, service_jitter_cv=0.0,
                  journal_enabled=False),
    )
    c1 = Client(engine, 1, mds, network)
    c2 = Client(engine, 2, mds, network)
    n = 1000
    t0 = engine.now
    drive(engine, c1.create_many("/dir", n))
    solo = engine.now - t0
    drive(engine, c2.create_many("/dir", 10))  # trigger revocation
    t0 = engine.now
    drive(engine, c1.create_many("/dir", n))
    contended = engine.now - t0
    assert contended > 1.7 * solo


def test_rpc_counter(engine, client):
    drive(engine, client.mkdir("/d"))
    drive(engine, client.create_many("/d", ["a", "b"]))
    assert client.stats.counter("rpcs_sent").value >= 3


# -- driven from the host -----------------------------------------------------


def test_rename_setattr_unlink_through_stack(engine, client):
    for d in ("/a", "/a/b", "/a/b/c"):
        assert drive(engine, client.mkdir(d)).ok
    assert drive(engine, client.create("/a/b/c/file")).ok
    assert drive(engine, client.ls("/a/b/c")).value == ["file"]
    assert drive(engine, client.rename("/a/b/c/file", "/a/b/c/renamed")).ok
    assert drive(engine, client.setattr("/a/b/c/renamed", mode=0o600)).ok
    st = drive(engine, client.stat("/a/b/c/renamed"))
    assert st.ok and st.value.mode & 0o7777 == 0o600
    assert not drive(engine, client.stat("/a/b/c/file")).ok
    assert drive(engine, client.unlink("/a/b/c/renamed")).ok
    assert not drive(engine, client.stat("/a/b/c/renamed")).ok


def test_missing_parent_and_repeated_mkdir_through_stack(engine, client):
    resp = drive(engine, client.create("/missing/f"))
    assert not resp.ok and resp.error
    assert drive(engine, client.mkdir("/x")).ok
    again = drive(engine, client.mkdir("/x"))
    assert not again.ok and "EEXIST" in again.error
    assert drive(engine, client.create_many("/x", ["1", "2"])).ok
    assert drive(engine, client.ls("/x")).value == ["1", "2"]


def test_host_driver_names_a_body_that_can_never_finish(engine, client):
    never = engine.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="'stuck' did not finish"):
        engine._drive(stuck())


def test_rmdir_through_stack(engine, client):
    assert drive(engine, client.mkdir("/a")).ok
    assert drive(engine, client.mkdir("/a/b")).ok
    assert drive(engine, client.rmdir("/a/b")).ok
    assert not drive(engine, client.stat("/a/b")).ok
    assert not drive(engine, client.rmdir("/a/missing")).ok
    assert drive(engine, client.create("/a/f")).ok
    resp = drive(engine, client.rmdir("/a"))
    assert not resp.ok and "ENOTEMPTY" in resp.error


# -- reply timeouts -----------------------------------------------------------


def test_a_reply_that_beats_its_timeout_disarms_the_timer():
    """The timer raced against a reply must not stay on the schedule
    once the reply wins: every later drain would run the clock on to it
    (it used to leave ``now`` at 1.0012 s after a 1.8 ms mkdir)."""
    ends = []
    for retry in (None, RetryPolicy(reply_timeout_s=1.0)):
        cluster = Cluster(seed=0)
        client = cluster.new_client(retry=retry)
        assert cluster.run(client.mkdir("/a")).ok
        ends.append(cluster.engine.now)
    assert ends[0] < 0.01
    assert ends[1] == ends[0]


def test_a_reply_slower_than_its_timeout_raises_and_retries():
    cluster = Cluster(seed=0)
    admin = cluster.new_client()
    assert cluster.run(admin.mkdir("/busy")).ok

    # One attempt on its own: the reply is slower than the timeout.
    hasty = cluster.new_client(
        retry=RetryPolicy(reply_timeout_s=1e-6, max_retries=0)
    )
    resp = cluster.run(hasty.stat("/"))
    assert not resp.ok
    assert resp.error == (
        f"ETIMEDOUT: {hasty.name}: no reply from mds0 within 1e-06s"
    )
    assert hasty.stats.counters()["rpc_failures"] == 1

    # Through the retry loop: a 600-create batch holds the MDS for
    # ~0.2 s, so the first attempts time out and a later one succeeds.
    busy = cluster.mds.submit(
        Request("create", "/busy", admin.client_id, count=600)
    )
    client = cluster.new_client(
        retry=RetryPolicy(reply_timeout_s=0.05, max_retries=6)
    )
    t0 = cluster.engine.now
    resp = cluster.run(client.stat("/busy"))
    assert resp.ok and busy.value.ok
    counters = client.stats.counters()
    assert counters["rpc_retries"] == counters["rpc_failures"] >= 2
    assert "rpc_giveups" not in counters
    assert cluster.engine.now - t0 > 600 * cal.MDS_SERVICE_S

    # With no retry left, the timeout surfaces as the error response.
    spent = cluster.new_client(
        retry=RetryPolicy(reply_timeout_s=1e-6, max_retries=1)
    )
    resp = cluster.run(spent.stat("/busy"))
    assert not resp.ok
    assert resp.error.startswith("ETIMEDOUT: ") and "no reply" in resp.error
    assert spent.stats.counters()["rpc_giveups"] == 1


# -- input validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "names_or_count, batch",
    [([], 100), ((), 100), (iter(()), 100), (0, 100), (-3, 100),
     (["f"], 0), (5, -1)],
    ids=["no-names", "empty-tuple", "empty-iterator", "zero", "negative",
         "zero-batch", "negative-batch"],
)
def test_create_many_rejects_an_empty_request_before_any_wire_cost(
    names_or_count, batch
):
    """Nothing to create used to trip a bare ``assert`` (and, under
    ``python -O``, to return None for the caller's ``resp.ok`` to
    trip on); it is a ValueError now, raised before a message is sent
    or a simulated second passes."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    assert cluster.run(client.mkdir("/d")).ok
    before = (cluster.network.total_messages, cluster.engine.now,
              cluster.mds.stats.counter("creates").value)
    with pytest.raises(ValueError, match="create_many needs at least one file"):
        cluster.run(client.create_many("/d", names_or_count, batch=batch))
    after = (cluster.network.total_messages, cluster.engine.now,
             cluster.mds.stats.counter("creates").value)
    assert after == before
