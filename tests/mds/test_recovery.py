"""MDS crash recovery: only streamed journal segments come back.

The MDS's memory (mdstore, caps, the journal's *open* segment) is lost
on a fail-stop crash; recovery replays exactly the segments that were
dispatched to the object store before the crash (plus the rank's
checkpoint image, if it wrote one).  Volatile Apply merges that were never streamed
are gone — that is the paper's 'memory' durability gap (§III-B).
"""

import pytest

from repro.client.client import RetryPolicy
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.mds.inode import ROOT_INO
from repro.mds.inotable import InoTable
from repro.mds.mdstore import MetadataStore
from repro.mds.server import MDSConfig, MDSDownError, Request
from tests.mds.test_recovery_identity import _image


def small_segment_cluster(segment_events=8, **kwargs):
    return Cluster(
        mds_config=MDSConfig(segment_events=segment_events, **kwargs), seed=0
    )


def test_recovery_replays_only_dispatched_segments():
    cluster = small_segment_cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    cluster.run(client.create_many("/d", [f"f{i}" for i in range(20)]))
    # 21 events, segment_events=8: two full segments (16 events) were
    # dispatched; 5 events sit in the open segment — MDS memory only.
    journal = cluster.mds.journal
    assert journal.segments_dispatched == 2

    summary = cluster.mds.crash()
    assert summary["journal_events_lost"] == 5
    replayed = cluster.run(cluster.mds.recover())
    assert replayed == 16

    # The streamed prefix (mkdir + f0..f14) survives; the open-segment
    # tail (f15..f19) does not.
    assert cluster.mds.mdstore.exists("/d/f14")
    assert not cluster.mds.mdstore.exists("/d/f15")
    assert not cluster.mds.mdstore.exists("/d/f19")


def test_a_segment_waiting_for_a_window_slot_is_lost_and_counted():
    # One event per segment and one window slot: a three-name create
    # sends "/d/a" and leaves "/d/b" waiting for the slot ("/d/c" is
    # not journaled yet).  The waiting segment lives in MDS memory only.
    cluster = small_segment_cluster(segment_events=1, dispatch_size=1)
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    journal = cluster.mds.journal
    cluster.run(journal.flush())
    cluster.engine.process(client.create_many("/d", ["a", "b", "c"]))
    while journal.stalls == 0:
        cluster.run(until=cluster.now + 1e-4)

    summary = cluster.mds.crash()
    assert summary["journal_events_lost"] == 1
    assert journal.events_logged == 2  # mkdir /d and create /d/a
    cluster.run()  # the in-flight segment lands; the lost one is not sent
    assert cluster.run(cluster.mds.recover()) == journal.events_logged
    assert cluster.mds.mdstore.exists("/d/a")
    assert not cluster.mds.mdstore.exists("/d/b")


def test_a_flush_waiting_for_a_window_slot_sends_nothing_after_a_crash():
    # A flush outside the serve loop survives the crash: the segment it
    # took is lost with MDS memory, so the slot it gets later must not
    # send it.
    cluster = small_segment_cluster(dispatch_size=1)
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    journal = cluster.mds.journal
    cluster.run(journal.flush())
    cluster.engine.process(client.create_many("/d", [f"f{i}" for i in range(11)]))
    while journal.events_logged < 12:
        cluster.run(until=cluster.now + 1e-5)
    assert journal.segments_in_flight == 1  # f0..f7; f8..f10 are open
    cluster.engine.process(journal.flush())
    while journal.stalls == 0:
        cluster.run(until=cluster.now + 1e-4)

    assert cluster.mds.crash()["journal_events_lost"] == 3
    cluster.run()
    assert cluster.run(cluster.mds.recover()) == journal.events_logged == 9
    assert cluster.mds.mdstore.exists("/d/f7")
    assert not cluster.mds.mdstore.exists("/d/f8")


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


def test_setattr_replay_restores_the_live_inode():
    """Regression: a SETATTR record carried only the request's fields
    and the event defaults for the rest, so a uid-only setattr replayed
    mode 0o644 over an earlier chmod (and an mtime never set live)."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    cluster.run(client.mkdir("/a"))
    cluster.run(client.create("/a/f"))
    assert cluster.run(client.setattr("/a/f", mode=0o600)).ok
    assert cluster.run(client.setattr("/a/f", uid=7)).ok
    live = cluster.mds.mdstore.resolve("/a/f")
    want = (live.mode, live.uid, live.gid, live.mtime)
    assert want == (0o100600, 7, 0, 0.0)

    cluster.run(cluster.mds.journal.flush())  # Stream
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    got = cluster.mds.mdstore.resolve("/a/f")
    assert (got.mode, got.uid, got.gid, got.mtime) == want


def test_close_write_replay_keeps_the_mode():
    """The size flush of a closed write handle is journaled the same
    way: its record restores the inode's attributes, not defaults."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    cluster.run(client.mkdir("/a"))
    cluster.run(client.create("/a/f"))
    assert cluster.run(client.setattr("/a/f", mode=0o600, uid=7)).ok
    handle = cluster.run(client.open_write("/a/f"))
    handle.write(4096)
    assert cluster.run(client.close_write(handle)).ok

    cluster.run(cluster.mds.journal.flush())
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    got = cluster.mds.mdstore.resolve("/a/f")
    assert (got.mode, got.uid, got.mtime) == (0o100600, 7, 0.0)


def test_a_recalled_size_survives_replay():
    """Regression: a stat that recalls another client's write cap set
    the writer's buffered size in the store and journaled nothing, so
    a crash and replay brought the file back at size 0."""
    cluster = Cluster(seed=0)
    writer, reader = cluster.new_client(), cluster.new_client()
    handle = cluster.run(writer.open_write("/f"))
    handle.write(4096)
    resp = cluster.run(reader.stat("/f"))
    assert resp.ok and resp.value.size == 4096
    cluster.run(cluster.mds.journal.flush())
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert cluster.mds.mdstore.resolve("/f").size == 4096


def test_replayed_directory_keeps_its_mode():
    """Regression: MKDIR / CREATE records carried no mode, so replay
    rebuilt every directory at the event default, 0o40644."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    assert cluster.run(client.mkdir("/d")).ok
    assert cluster.mds.mdstore.resolve("/d").mode == 0o40755
    cluster.run(cluster.mds.journal.flush())
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert cluster.mds.mdstore.resolve("/d").mode == 0o40755


def test_recovery_after_a_checkpoint_mints_unused_inodes():
    """Regression: recovery loaded the checkpoint into a store and then
    swapped in an inode table that knew none of the loaded inodes, so
    the next create minted a number the tree already held (EEXIST)."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    assert cluster.run(client.mkdir("/d")).ok
    assert cluster.run(client.create_many("/d", ["a", "b"])).ok
    before = set(cluster.mds.mdstore.inodes)
    cluster.run(cluster.mds.checkpoint())
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert set(cluster.mds.mdstore.inodes) == before
    resp = cluster.run(client.create_many("/d", ["c"]))
    assert resp.ok, resp.error
    assert cluster.mds.mdstore.resolve("/d/c").ino not in before


def test_recovery_does_not_replay_what_the_checkpoint_holds():
    """Regression: recovery replayed the whole journal onto the loaded
    checkpoint, so a rename recorded before it moved the successor of
    its source over its target, and the checkpoint's fragments kept only
    number and mode, so a setattr before it came back as defaults."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()

    def image():
        md = cluster.mds.mdstore  # recover builds a new store
        return {path: md.resolve(path) for path in ("/a", "/b")}

    assert cluster.run(client.create("/a")).ok
    assert cluster.run(client.setattr("/a", uid=7, mtime=2.5)).ok
    assert cluster.run(client.rename("/a", "/b")).ok
    assert cluster.run(client.create("/a")).ok
    before = image()
    cluster.run(cluster.mds.checkpoint())
    cluster.mds.crash()
    assert cluster.run(cluster.mds.recover()) == 0
    assert image() == before
    assert (before["/b"].uid, before["/b"].mtime) == (7, 2.5)


def test_recovery_after_a_checkpoint_never_remints_a_trimmed_inode():
    """The checkpoint persists the inode table's cursor: a number minted
    and freed before it, whose record the trim retired, stays used."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    assert cluster.run(client.create("/gone")).ok
    gone = cluster.mds.mdstore.resolve("/gone").ino
    assert cluster.run(client.unlink("/gone")).ok
    cluster.run(cluster.mds.checkpoint())
    cluster.mds.crash()
    cluster.run(cluster.mds.recover())
    assert cluster.run(client.create("/new")).ok
    assert cluster.mds.mdstore.resolve("/new").ino > gone


def test_a_checkpoint_keeps_the_root_inode():
    """Regression: no checkpoint object held the root's own inode, and
    its SETATTR record sat under the watermark, so recovery rebuilt the
    root with default attributes."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    assert cluster.run(client.setattr("/", mode=0o700, uid=7)).ok
    cluster.run(cluster.mds.checkpoint())
    cluster.mds.crash()
    assert cluster.run(cluster.mds.recover()) == 0
    root = cluster.mds.mdstore.resolve("/")
    assert (root.mode, root.uid) == (0o40700, 7)


def test_each_rank_recovers_from_its_own_checkpoint():
    """Every rank's store has a root of its own, so the ranks' checkpoints
    must not share fragment objects: rank 1's empty root once overwrote
    rank 0's, and rank 0 recovered without its directories."""
    cluster = Cluster(num_mds=2, seed=0)
    rank0, rank1 = cluster.mds_list
    cluster.assign_subtree_mds("/r1", 1)
    rank1.ensure_dirs("/r1")
    client = cluster.new_client()
    assert cluster.run(client.mkdir("/r0")).ok
    assert cluster.run(client.mkdir("/r1/d")).ok
    before = (rank0.mdstore.listdir("/"), rank1.mdstore.listdir("/r1"))
    cluster.run(rank0.checkpoint())
    cluster.run(rank1.checkpoint())
    for rank in (rank0, rank1):
        rank.crash()
        cluster.run(rank.recover())
    assert (rank0.mdstore.listdir("/"), rank1.mdstore.listdir("/r1")) == before


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
    """Checkpoint + stream compose: the image loads first, then the
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


def _watermark(cluster, rank="mds0"):
    """The journal watermark of ``rank``'s checkpoint image."""
    data = cluster.objstore.peek("metadata", f"{rank}_checkpoint")
    return MetadataStore.decode_image(data, InoTable())[1]


def test_checkpoint_after_a_crash_holds_through_the_last_sequence_number():
    # Regression: checkpoint's watermark was ``events_logged``, which
    # drops by the events a crash loses while sequence numbers keep
    # counting, so the watermark fell short of what had been applied.
    cluster = Cluster(mds_config=MDSConfig(segment_events=16), seed=0)
    client = cluster.new_client()
    cluster.run(client.create_many("/", [f"a{i}" for i in range(10)]))
    assert cluster.mds.crash()["journal_events_lost"] == 10
    cluster.run(cluster.mds.recover())
    cluster.run(client.create_many("/", [f"b{i}" for i in range(5)]))
    cluster.run(cluster.mds.checkpoint())
    assert _watermark(cluster) == 15
    assert cluster.mds.journal.last_seq == 15


def test_a_removed_directory_does_not_come_back_from_an_older_checkpoint():
    """Regression: recovery loaded every fragment object in the pool,
    including one a directory removed since an earlier checkpoint left
    behind, so its file came back unreachable and still counted."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    mds = cluster.mds
    assert cluster.run(client.mkdir("/d")).ok
    assert cluster.run(client.create("/d/f")).ok
    cluster.run(mds.checkpoint())
    assert cluster.run(client.unlink("/d/f")).ok
    assert cluster.run(client.rmdir("/d")).ok
    cluster.run(mds.checkpoint())
    live = mds.namespace_size()
    mds.crash()
    cluster.run(mds.recover())
    assert set(mds.mdstore.inodes) == {ROOT_INO}
    assert mds.namespace_size() == live


@pytest.mark.parametrize("delay", [0.0, 1e-5, 1e-4, 3e-4])
def test_a_rename_during_a_checkpoint_is_linked_once(delay):
    """Regression: a checkpoint wrote one fragment object at a time
    while requests ran, so a rename landing between the source's and
    the target's writes left the file in both; the replayed rename was
    then refused and the file stayed linked twice."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    mds, engine = cluster.mds, cluster.engine
    assert cluster.run(client.mkdir("/a")).ok
    assert cluster.run(client.mkdir("/b")).ok
    siblings = [f"s{i}" for i in range(200)]
    assert cluster.run(client.create_many("/a", ["x"] + siblings)).ok
    ckpt = engine.process(mds.checkpoint())

    def rename_later():
        yield engine.timeout(delay)
        resp = yield engine.process(client.rename("/a/x", "/b/x"))
        assert resp.ok, resp.error

    renamed = engine.process(rename_later())
    cluster.run()
    assert ckpt.ok and renamed.ok
    cluster.run(mds.journal.flush())
    mds.crash()
    cluster.run(mds.recover())
    md = mds.mdstore
    x = md.resolve("/b/x").ino
    links = [
        (dir_ino, name)
        for dir_ino, frag in md.dirfrags.items()
        for name, ino in frag.entries.items()
        if ino == x
    ]
    assert links == [(md.resolve("/b").ino, "x")]


@pytest.mark.parametrize("damage", ["truncated", "wrong_magic"])
def test_an_unreadable_image_falls_back_to_full_journal_replay(damage):
    """A checkpoint image that does not decode is ignored: recovery
    replays the whole journal, which nothing trimmed, and rebuilds the
    live tree, every inode field included."""
    cluster = Cluster(seed=0)
    client = cluster.new_client()
    mds = cluster.mds
    assert cluster.run(client.mkdir("/d")).ok
    assert cluster.run(client.create_many("/d", ["a", "b", "c"])).ok
    assert cluster.run(client.setattr("/d/a", mode=0o600, uid=7)).ok
    handle = cluster.run(client.open_write("/d/a"))
    handle.write(512)
    assert cluster.run(client.close_write(handle)).ok
    assert cluster.run(client.rename("/d/b", "/e")).ok
    cluster.run(mds.checkpoint())
    assert cluster.run(client.unlink("/d/c")).ok
    cluster.run(mds.journal.flush())
    live = _image(mds.mdstore)
    image = cluster.objstore.peek("metadata", "mds0_checkpoint")
    if damage == "truncated":
        bad = image[: len(image) // 2]
    else:
        bad = b"NOTANIMG" + image[8:]
    cluster.run(cluster.objstore.put("metadata", "mds0_checkpoint", bad))
    mds.crash()
    assert cluster.run(mds.recover()) == mds.journal.last_seq
    assert _image(mds.mdstore) == live


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
