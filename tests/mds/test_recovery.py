"""MDS crash recovery: only streamed journal segments come back.

The MDS's memory (mdstore, caps, the journal's *open* segment) is lost
on a fail-stop crash; recovery replays exactly the segments that were
dispatched to the object store before the crash (plus any checkpointed
directory fragments).  Volatile Apply merges that were never streamed
are gone — that is the paper's 'memory' durability gap (§III-B).
"""

import pytest

from repro.client.client import RetryPolicy
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.mds.server import MDSConfig, MDSDownError, Request


def small_segment_cluster(**kwargs):
    return Cluster(
        mds_config=MDSConfig(segment_events=8, **kwargs), seed=0
    )


def test_recovery_replays_only_dispatched_segments():
    cluster = small_segment_cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    cluster.run(client.create_many("/d", [f"f{i}" for i in range(20)]))
    # 21 events, segment_events=8: two full segments (16 events) were
    # dispatched; 5 events sit in the open segment — MDS memory only.
    journaler = cluster.mds.journal._journaler
    assert journaler.segments_dispatched == 2
    assert journaler.open_events == 5

    summary = cluster.mds.crash()
    assert summary["journal_events_lost"] == 5
    replayed = cluster.run(cluster.mds.recover())
    assert replayed == 16

    # The streamed prefix (mkdir + f0..f14) survives; the open-segment
    # tail (f15..f19) does not.
    assert cluster.mds.mdstore.exists("/d/f14")
    assert not cluster.mds.mdstore.exists("/d/f15")
    assert not cluster.mds.mdstore.exists("/d/f19")


def test_recovered_namespace_is_a_prefix_of_acked_ops():
    cluster = small_segment_cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    names = [f"f{i}" for i in range(30)]
    cluster.run(client.create_many("/d", names))
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    flags = [cluster.mds.mdstore.exists(f"/d/{n}") for n in names]
    # Prefix consistency: once one create is missing, all later ones are.
    assert flags == sorted(flags, reverse=True)


def test_volatile_apply_updates_lost_unless_streamed():
    """Volatile Apply writes MDS memory without journaling; a crash
    before anything streams them loses the whole merge."""
    cluster = small_segment_cluster()
    d = cluster.new_decoupled_client()
    cluster.run(cluster.new_client().mkdir("/sub"))
    cluster.run(cluster.mds.journal.flush())
    cluster.run(d.create_many("/sub", [f"v{i}" for i in range(5)]))
    ctx = MechanismContext(cluster, "/sub", d)
    cluster.run(run_mechanism("volatile_apply", ctx))
    assert cluster.mds.mdstore.exists("/sub/v0")

    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert cluster.mds.mdstore.exists("/sub")  # streamed before the merge
    for i in range(5):
        assert not cluster.mds.mdstore.exists(f"/sub/v{i}")


def test_crash_fails_pending_requests_with_mds_down():
    cluster = Cluster(seed=0)
    dones = [
        cluster.mds.submit(Request("create", "/", 1, names=[f"q{i}"]))
        for i in range(3)
    ]
    cluster.engine.run(until=1e-6)  # first request mid-service
    summary = cluster.mds.crash()
    assert summary["requests_failed"] == 3
    cluster.engine.run()
    for done in dones:
        assert done.triggered and not done.ok
        assert isinstance(done.value, MDSDownError)


def test_crash_between_handoff_and_pickup_fails_the_request():
    """On an idle MDS ``submit`` hands the request straight to the
    parked serve loop; a crash before the loop picks it up must still
    fail the reply (regression: the request was neither current nor
    queued, so ``done`` never fired and the client hung forever)."""
    cluster = Cluster(seed=0)
    cluster.engine.run()  # the serve loop is parked on its queue
    done = cluster.mds.submit(Request("create", "/", 1, names=["f"]))
    summary = cluster.mds.crash()
    assert summary["requests_failed"] == 1
    cluster.engine.run()
    assert done.triggered and not done.ok
    assert isinstance(done.value, MDSDownError)


def test_client_retries_a_request_lost_in_the_handoff_window(monkeypatch):
    """The same window seen from a client: the default retry policy has
    no reply timeout, so only the failed ``done`` gets it to retry."""
    cluster = Cluster(seed=0)
    client = cluster.new_client(retry=RetryPolicy())
    cluster.run(client.mkdir("/d"))
    cluster.run(cluster.mds.journal.flush())
    mds, submit = cluster.mds, cluster.mds.submit

    def submit_then_crash(request):
        done = submit(request)
        if not mds.stats.counter("crashes").value:
            mds.crash()  # first attempt only; retries go through
            cluster.engine.process(recover_later())
        return done

    def recover_later():
        yield cluster.engine.timeout(0.015)
        yield cluster.engine.process(mds.recover())

    monkeypatch.setattr(mds, "submit", submit_then_crash)
    resp = cluster.run(client.create("/d/f"))
    assert resp.ok
    assert mds.mdstore.exists("/d/f")
    assert client.stats.counter("rpc_retries").value >= 1
    assert mds.stats.counter("requests_failed").value == 1


def test_submit_to_crashed_mds_fails_immediately():
    cluster = Cluster(seed=0)
    cluster.mds.crash()
    done = cluster.mds.submit(Request("create", "/", 1, names=["x"]))
    assert done.triggered and not done.ok
    assert isinstance(done.value, MDSDownError)


def test_client_retry_outlasts_mds_downtime():
    """An op issued during the outage retries with backoff and succeeds
    once the MDS recovers."""
    cluster = Cluster(seed=0)
    client = cluster.new_client(
        retry=RetryPolicy(max_retries=6, base_backoff_s=0.01)
    )
    cluster.run(client.mkdir("/d"))
    cluster.run(cluster.mds.journal.flush())
    cluster.mds.crash()

    def recover_later():
        from repro.sim.engine import Timeout

        yield Timeout(cluster.engine, 0.025)
        yield cluster.engine.process(cluster.mds.recover())

    cluster.engine.process(recover_later())
    resp = cluster.run(client.create("/d/after"))
    assert resp.ok
    assert cluster.mds.mdstore.exists("/d/after")
    assert client.stats.counter("rpc_retries").value >= 1


def test_client_retry_budget_exhausts_to_error_response():
    """If the MDS never comes back the op degrades to ETIMEDOUT instead
    of deadlocking the workload."""
    cluster = Cluster(seed=0)
    client = cluster.new_client(
        retry=RetryPolicy(max_retries=2, base_backoff_s=0.001)
    )
    cluster.mds.crash()
    resp = cluster.run(client.create("/never"))
    assert not resp.ok
    assert "ETIMEDOUT" in resp.error
    assert client.stats.counter("rpc_giveups").value == 1
    assert client.stats.counter("rpc_retries").value == 2


def test_mds_serves_again_after_recovery():
    cluster = small_segment_cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    cluster.run(client.create_many("/d", [f"f{i}" for i in range(16)]))
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    resp = cluster.run(client.create("/d/post-crash"))
    assert resp.ok
    assert cluster.mds.mdstore.exists("/d/post-crash")


def test_recovery_uses_checkpointed_fragments_and_journal_tail():
    """Checkpoint + stream compose: fragments load first, then the
    journal tail replays on top."""
    cluster = small_segment_cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    cluster.run(client.create_many("/d", ["a", "b"]))
    cluster.run(cluster.mds.checkpoint())
    cluster.run(client.create_many("/d", [f"t{i}" for i in range(8)]))
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert cluster.mds.mdstore.exists("/d/a")
    assert cluster.mds.mdstore.exists("/d/t7")


def test_crash_is_idempotent():
    cluster = Cluster(seed=0)
    cluster.mds.crash()
    second = cluster.mds.crash()
    assert second == {"journal_events_lost": 0, "requests_failed": 0}
    assert cluster.mds.stats.counter("crashes").value == 1
    with pytest.raises(RuntimeError):
        # recover() demands a crashed MDS
        cluster.run(cluster.mds.recover())
        cluster.run(cluster.mds.recover())
