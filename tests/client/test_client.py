"""Tests for the RPC client and the filesystem facade."""

import pytest

from repro import calibration as cal
from repro.client.client import Client, RetryPolicy, RpcTimeout
from repro.client.fs import PosixFileSystem
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
    drive(engine, c1.create_many("/dir", 100))
    assert c1.cache.can_cache("/dir")
    drive(engine, c2.create_many("/dir", 100))
    resp = drive(engine, c1.create_many("/dir", 100))
    assert resp.rpcs == 2
    assert not c1.cache.can_cache("/dir")
    assert c1.cache.revocations_seen == 0  # revocation hit c2's request
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


# -- facade ---------------------------------------------------------------


def test_posix_facade(engine, client):
    fs = PosixFileSystem(client)
    fs.makedirs("/a/b/c")
    fs.create("/a/b/c/file")
    assert fs.exists("/a/b/c/file")
    assert fs.ls("/a/b/c") == ["file"]
    fs.rename("/a/b/c/file", "/a/b/c/renamed")
    fs.setattr("/a/b/c/renamed", mode=0o600)
    assert fs.stat("/a/b/c/renamed").mode & 0o7777 == 0o600
    fs.unlink("/a/b/c/renamed")
    assert not fs.exists("/a/b/c/renamed")


def test_posix_facade_errors_raise(engine, client):
    fs = PosixFileSystem(client)
    with pytest.raises(OSError):
        fs.create("/missing/f")
    fs.makedirs("/x")
    fs.makedirs("/x")  # idempotent
    fs.create_many("/x", ["1", "2"])
    assert fs.ls("/x") == ["1", "2"]


def test_posix_facade_names_a_body_that_can_never_finish(engine, client):
    fs = PosixFileSystem(client)
    never = engine.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="'stuck' did not finish"):
        fs._run(stuck())


def test_rmdir_through_stack(engine, client):
    fs = PosixFileSystem(client)
    fs.makedirs("/a/b")
    fs.rmdir("/a/b")
    assert not fs.exists("/a/b")
    with pytest.raises(OSError):
        fs.rmdir("/a/missing")
    fs.create("/a/f")
    with pytest.raises(OSError):  # ENOTEMPTY
        fs.rmdir("/a")


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
    hasty = cluster.new_client(retry=RetryPolicy(reply_timeout_s=1e-6))
    with pytest.raises(RpcTimeout, match="no reply from mds0 within 1e-06s"):
        cluster.run(hasty._exchange(cluster.mds, Request("stat", "/", 2)))

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
