"""Tests for the metadata server daemon."""

import pytest

from repro import calibration as cal
from repro.journal.events import EventType, JournalEvent
from repro.mds.server import _MUTATING_OPS, MDSConfig, MetadataServer, Request

from tests.conftest import drive


def submit(engine, mds, request):
    done = mds.submit(request)
    engine.run()
    return done.value


def test_mkdir_and_create_materialize(engine, mds):
    assert submit(engine, mds, Request("mkdir", "/", 1, names=["home"])).ok
    resp = submit(engine, mds, Request("create", "/home", 1, names=["f1", "f2"]))
    assert resp.ok and resp.value == ["f1", "f2"]
    assert mds.mdstore.exists("/home/f1")
    assert mds.mdstore.exists("/home/f2")


def test_create_in_missing_dir_fails(engine, mds):
    resp = submit(engine, mds, Request("create", "/nope", 1, names=["f"]))
    assert not resp.ok and "ENOENT" in resp.error


def test_duplicate_create_reports_eexist(engine, mds):
    submit(engine, mds, Request("create", "/", 1, names=["f"]))
    resp = submit(engine, mds, Request("create", "/", 1, names=["f"]))
    assert not resp.ok and "EEXIST" in resp.error


def test_unknown_op_einval(engine, mds):
    resp = submit(engine, mds, Request("frobnicate", "/", 1))
    assert not resp.ok and "EINVAL" in resp.error


def test_request_count_validation():
    with pytest.raises(ValueError):
        Request("create", "/", 1, count=0)


def test_lookup_stat_ls(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    submit(engine, mds, Request("create", "/d", 1, names=["a", "b"]))
    assert submit(engine, mds, Request("lookup", "/d/a", 1)).value is True
    assert submit(engine, mds, Request("lookup", "/d/zz", 1)).value is False
    st = submit(engine, mds, Request("stat", "/d/a", 1))
    assert st.ok and st.value.is_file
    ls = submit(engine, mds, Request("ls", "/d", 1))
    assert ls.value == ["a", "b"]
    bad = submit(engine, mds, Request("ls", "/d/a", 1))
    assert not bad.ok


def test_unlink_and_rename(engine, mds):
    submit(engine, mds, Request("create", "/", 1, names=["f", "g"]))
    assert submit(engine, mds, Request("unlink", "/", 1, names=["f"])).ok
    assert not mds.mdstore.exists("/f")
    assert submit(engine, mds, Request("rename", "/g", 1, payload="/h")).ok
    assert mds.mdstore.exists("/h")
    bad = submit(engine, mds, Request("rename", "/nope", 1, payload="/x"))
    assert not bad.ok


def test_setattr(engine, mds):
    submit(engine, mds, Request("create", "/", 1, names=["f"]))
    resp = submit(engine, mds, Request("setattr", "/f", 1, payload={"mode": 0o600}))
    assert resp.ok
    assert mds.mdstore.resolve("/f").mode & 0o7777 == 0o600
    bad = submit(engine, mds, Request("setattr", "/zz", 1, payload={"mode": 0o600}))
    assert not bad.ok


def test_cap_single_rpc_for_sole_writer(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    resp = submit(engine, mds, Request("create", "/d", 1, names=["a"]))
    assert resp.rpcs == 1 and not resp.revoked


def test_cap_revocation_on_second_writer(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    submit(engine, mds, Request("create", "/d", 1, names=["a"]))
    resp = submit(engine, mds, Request("create", "/d", 2, names=["b"]))
    assert resp.rpcs == 2 and resp.revoked
    assert mds.stats.counter("revocations").value == 1
    # the original writer now also pays lookups
    resp = submit(engine, mds, Request("create", "/d", 1, names=["c"]))
    assert resp.rpcs == 2
    assert mds.stats.counter("lookups").value >= 2


def test_reads_never_revoke_a_dir_cap(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    submit(engine, mds, Request("create", "/d", 1, names=["a"]))
    for op, path in (("lookup", "/d/a"), ("stat", "/d/a"), ("ls", "/d")):
        assert submit(engine, mds, Request(op, path, 2)).ok
    assert mds.caps.holder_of(mds.mdstore.resolve("/d").ino) == 1
    assert submit(engine, mds, Request("create", "/d", 1, names=["b"])).rpcs == 1
    assert mds.stats.counter("revocations").value == 0


def test_journal_event_count_exact(engine, objstore, network):
    mds = MetadataServer(engine, objstore, network, MDSConfig())
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    submit(engine, mds, Request("create", "/d", 1, names=["a", "b", "c"]))
    assert mds.journal.events_logged == 4


def test_no_journal_config(engine, objstore, network):
    mds = MetadataServer(
        engine, objstore, network, MDSConfig(journal_enabled=False)
    )
    submit(engine, mds, Request("create", "/", 1, names=["f"]))
    assert mds.journal.events_logged == 0


def test_commit_latency_delays_reply_but_not_loop(engine, objstore, network):
    """With journaling on, replies arrive later but MDS throughput holds."""
    mds = MetadataServer(engine, objstore, network, MDSConfig())
    done1 = mds.submit(Request("create", "/", 1, count=1))
    done2 = mds.submit(Request("create", "/", 2, count=1))
    engine.run()
    assert done1.value.ok and done2.value.ok


def test_non_materialized_counts(engine, objstore, network):
    mds = MetadataServer(
        engine, objstore, network, MDSConfig(materialize=False)
    )
    resp = submit(engine, mds, Request("create", "/dir", 7, count=500))
    assert resp.ok and resp.value == 500
    assert mds.mdstore.file_count == 0  # nothing materialized
    assert mds.journal.events_logged == 500
    ls = submit(engine, mds, Request("ls", "/dir", 7))
    assert ls.value == 500  # synthetic size visible


def test_non_materialized_caps_still_apply(engine, objstore, network):
    mds = MetadataServer(
        engine, objstore, network, MDSConfig(materialize=False)
    )
    r1 = submit(engine, mds, Request("create", "/dir", 1, count=10))
    assert r1.rpcs == 1
    r2 = submit(engine, mds, Request("create", "/dir", 2, count=10))
    assert r2.rpcs == 2 and r2.revoked


def test_service_time_scales_with_count(engine, objstore, network):
    mds = MetadataServer(
        engine, objstore, network,
        MDSConfig(journal_enabled=False, service_jitter_cv=0.0),
    )
    t0 = engine.now
    submit(engine, mds, Request("create", "/", 1, count=300))
    elapsed = engine.now - t0
    assert elapsed == pytest.approx(300 * cal.MDS_SERVICE_S, rel=0.01)


def test_interfere_block_rejects_others(engine, mds):
    class Policy:
        interfere = "block"
        owner_client = 1

    submit(engine, mds, Request("mkdir", "/", 1, names=["locked"]))
    mds.policy_resolver = (
        lambda path: Policy() if path.startswith("/locked") else None
    )
    ok = submit(engine, mds, Request("create", "/locked", 1, names=["mine"]))
    assert ok.ok
    denied = submit(engine, mds, Request("create", "/locked", 2, names=["theirs"]))
    assert not denied.ok and denied.error == "EBUSY"
    assert mds.stats.counter("rejects").value == 1
    # reads are not blocked
    ls = submit(engine, mds, Request("ls", "/locked", 2))
    assert ls.ok


def test_interfere_allow_does_not_reject(engine, mds):
    class Policy:
        interfere = "allow"
        owner_client = 1

    submit(engine, mds, Request("mkdir", "/", 1, names=["open"]))
    mds.policy_resolver = (
        lambda path: Policy() if path.startswith("/open") else None
    )
    resp = submit(engine, mds, Request("create", "/open", 2, names=["theirs"]))
    assert resp.ok


#: Every op the server dispatches (``_op_<name>`` handlers).
SERVED_OPS = sorted(
    name[len("_op_"):] for name in dir(MetadataServer) if name.startswith("_op_")
)

OWNER, FOREIGN = 1, 2


def _blocked_request(op, client):
    """One request per served op, all under the ``/blk`` subtree."""
    return {
        "create": Request("create", "/blk", client, names=["new"]),
        "mkdir": Request("mkdir", "/blk", client, names=["newdir"]),
        "unlink": Request("unlink", "/blk", client, names=["f"]),
        "rmdir": Request("rmdir", "/blk", client, names=["d"]),
        "setattr": Request("setattr", "/blk/f", client, payload={"mode": 0o600}),
        "rename": Request("rename", "/blk/f", client, payload="/blk/g"),
        "open_write": Request(
            "open_write", "/blk/new", client, payload=lambda: 0
        ),
        "close_write": Request("close_write", "/blk/f", client, payload=7),
        "lookup": Request("lookup", "/blk/f", client),
        "stat": Request("stat", "/blk/f", client),
        "ls": Request("ls", "/blk", client),
        "export_prep": Request("export_prep", "/blk", client),
        "provision": Request("provision", "/blk", client, count=4),
        "volatile_apply": Request("volatile_apply", "/blk", client, payload=[
            JournalEvent(EventType.CREATE, f"/blk/m{client}", client_id=client)
        ]),
        "nonvolatile_apply": Request(
            "nonvolatile_apply", "/blk", client, payload=[JournalEvent(
                EventType.CREATE, f"/blk/n{client}", client_id=client
            )],
        ),
    }[op]


def _namespace(mds):
    store = mds.mdstore
    return (
        {ino: repr(inode) for ino, inode in store.inodes.items()},
        {ino: dict(frag.entries) for ino, frag in store.dirfrags.items()},
    )


@pytest.mark.parametrize("op", SERVED_OPS)
def test_block_refuses_exactly_the_ops_that_mutate(op, engine, mds):
    """``_MUTATING_OPS`` is the one list the ``interfere: block`` check
    reads: a foreign client gets EBUSY iff the op is on it, and the ops
    on it are the ones that change the namespace, each leaving one
    journal record when the owner issues it."""
    class Policy:
        interfere = "block"
        owner_client = OWNER

    submit(engine, mds, Request("mkdir", "/", OWNER, names=["blk"]))
    submit(engine, mds, Request("create", "/blk", OWNER, names=["f"]))
    submit(engine, mds, Request("mkdir", "/blk", OWNER, names=["d"]))
    mds.policy_resolver = (
        lambda path: Policy() if path.startswith("/blk") else None
    )

    foreign = submit(engine, mds, _blocked_request(op, FOREIGN))
    assert (foreign.error == "EBUSY") == (op in _MUTATING_OPS), foreign
    mds.unfreeze_subtree("/blk")  # a foreign export_prep froze it

    if op == "close_write":
        opened = Request("open_write", "/blk/f", OWNER, payload=lambda: 7)
        assert submit(engine, mds, opened).ok
    before, logged = _namespace(mds), mds.journal.events_logged
    owned = submit(engine, mds, _blocked_request(op, OWNER))
    assert owned.ok, owned
    changed = _namespace(mds) != before
    if op in _MUTATING_OPS:
        assert changed
        assert mds.journal.events_logged - logged == 1
    else:
        # Only the merges, which replay the owner's own client journal,
        # change the namespace without being mutating ops.
        assert changed == (op in ("volatile_apply", "nonvolatile_apply"))


def test_mutating_ops_are_served_ops():
    assert _MUTATING_OPS <= set(SERVED_OPS)


def test_provision_returns_range(engine, mds):
    resp = submit(engine, mds, Request("provision", "/", 5, count=100))
    assert resp.ok and resp.value.count == 100
    assert mds.mdstore.inotable.owner_of(resp.value.start) == 5


def test_volatile_apply_events(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["sub"]))
    rng = submit(engine, mds, Request("provision", "/", 5, count=10)).value
    events = [
        JournalEvent(EventType.CREATE, f"/sub/f{i}", ino=rng.start + i, client_id=5)
        for i in range(3)
    ]
    resp = submit(engine, mds, Request("volatile_apply", "/sub", 5, payload=events))
    assert resp.ok and resp.value["applied"] == 3
    assert mds.mdstore.exists("/sub/f0")
    assert mds.mdstore.inotable.is_consumed(rng.start)


def test_volatile_apply_counts_conflicts(engine, mds):
    """The MDS resolves a raw journal where it applies it: a CREATE over
    a file replaces the file (an unlink, then the create).  An event the
    store still refuses counts as a conflict."""
    submit(engine, mds, Request("create", "/", 1, names=["f"]))
    rng = submit(engine, mds, Request("provision", "/", 5, count=10)).value
    events = [JournalEvent(EventType.CREATE, "/f", ino=rng.start, client_id=5)]
    resp = submit(engine, mds, Request("volatile_apply", "/", 5, payload=events))
    assert resp.value == {"applied": 2, "conflicts": 0}
    assert mds.mdstore.resolve("/f").ino == rng.start
    events = [
        JournalEvent(EventType.CREATE, "/missing/g", ino=rng.start + 1,
                     client_id=5),
    ]
    resp = submit(engine, mds, Request("volatile_apply", "/", 5, payload=events))
    assert resp.value == {"applied": 0, "conflicts": 1}  # ENOENT
    assert not mds.mdstore.exists("/missing/g")


def test_volatile_apply_count_only(engine, mds):
    t0 = engine.now
    resp = submit(engine, mds, Request("volatile_apply", "/", 5, payload=10_000))
    assert resp.ok and resp.value["applied"] == 10_000
    assert engine.now - t0 >= 10_000 * cal.VOLATILE_APPLY_S * 0.99


def test_shutdown_and_restart_replays_journal(engine, mds):
    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    submit(engine, mds, Request("create", "/d", 1, names=["a", "b"]))
    drive(engine, mds.journal.flush())
    engine.run()
    done = mds.shutdown()
    engine.run()
    assert done.triggered and not mds.running
    # The restart drops memory and rebuilds from the journal.
    store = mds.mdstore
    replayed = drive(engine, mds.restart())
    assert replayed == 3
    assert mds.running and mds.mdstore is not store
    assert mds.mdstore.exists("/d/a")
    resp = submit(engine, mds, Request("create", "/d", 1, names=["c"]))
    assert resp.ok


@pytest.mark.parametrize("at_ms", [0.0, 0.1, 0.3])
def test_a_request_submitted_during_a_restart_fails_fast(engine, mds, at_ms):
    """Once the restart has drained the queue, a new request is refused
    with ``MDSDownError``: it is neither served by the stopped loop nor
    left waiting on a queue the recovery replaces.  The restart takes
    ~0.4 ms here: a flush up to ~0.15 ms, then the recovery."""
    from repro.mds.server import MDSDownError

    submit(engine, mds, Request("mkdir", "/", 1, names=["d"]))
    restart = engine.process(mds.restart())
    engine.run(until=engine.now + at_ms / 1e3)
    assert not restart.triggered and not mds.running
    late = mds.submit(Request("create", "/d", 1, names=["x"]))
    engine.run()
    assert restart.ok and mds.running
    assert late.triggered and not late.ok
    assert isinstance(late.value, MDSDownError)
    assert not mds.mdstore.exists("/d/x")
    assert submit(engine, mds, Request("create", "/d", 1, names=["y"])).ok


def test_cpu_utilization_tracked(engine, mds):
    t0 = engine.now
    submit(engine, mds, Request("create", "/", 1, count=1000))
    t1 = engine.now
    assert mds.cpu_utilization(t0, t1) > 0.5


def test_inode_cache_miss_model(engine, objstore, network):
    """Lookups slow down once the namespace outgrows the inode cache."""
    small_cache = MDSConfig(
        materialize=False, service_jitter_cv=0.0, journal_enabled=False,
        inode_cache_entries=1000,
    )
    mds = MetadataServer(engine, objstore, network, small_cache)
    # Grow the (synthetic) namespace past the cache.
    submit(engine, mds, Request("create", "/big", 1, count=10_000))
    t0 = engine.now
    submit(engine, mds, Request("lookup", "/big/x", 2, count=1000))
    crowded = engine.now - t0
    assert crowded > 1000 * cal.MDS_SERVICE_S * 1.5


def test_inode_cache_hit_free_when_fits(engine, objstore, network):
    cfg = MDSConfig(
        materialize=False, service_jitter_cv=0.0, journal_enabled=False,
        inode_cache_entries=100_000,
    )
    mds = MetadataServer(engine, objstore, network, cfg)
    submit(engine, mds, Request("create", "/small", 1, count=1000))
    t0 = engine.now
    submit(engine, mds, Request("lookup", "/small/x", 2, count=1000))
    assert engine.now - t0 == pytest.approx(1000 * cal.MDS_SERVICE_S, rel=0.01)


def test_namespace_size_materialized_and_synthetic(engine, objstore, network):
    mds_m = MetadataServer(engine, objstore, network, MDSConfig())
    submit(engine, mds_m, Request("create", "/", 1, names=["a", "b"]))
    assert mds_m.namespace_size() == 3  # root + 2 files
    mds_s = MetadataServer(
        engine, objstore, network, MDSConfig(materialize=False), name="mds1"
    )
    submit(engine, mds_s, Request("create", "/d", 1, count=50))
    assert mds_s.namespace_size() == 50


_HASHSEED_PROBE = """
import json
from repro.cluster import Cluster
from repro.mds.server import MDSConfig

cluster = Cluster(seed=5, mds_config=MDSConfig(materialize=False))
a, b = cluster.new_client(), cluster.new_client()
dirs = [f"/run/d{i}" for i in range(6)]
for d in dirs:
    cluster.run(a.create_many(d, 40))
    cluster.run(b.create_many(d, 3))  # revokes a's cap: per-dir state matters
    cluster.run(b.ls(d))
mds = cluster.mds
before = {d: mds._dir_ino(d) for d in dirs}
mds.crash()
cluster.run(mds.recover())
after = {d: mds._dir_ino(d) for d in dirs}
print(json.dumps({"before": before, "after": after, "end": cluster.now}))
"""


def test_non_materialized_dir_numbers_ignore_pythonhashseed():
    """Directory numbers of non-materialized runs come from an intern
    table, not ``hash(path)``: the same run under two hash seeds keys
    the same capability state and ends at the same simulated time."""
    import json
    import os
    import subprocess
    import sys

    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    numbers = outputs[0]["before"]
    assert len(set(numbers.values())) == len(numbers)  # no two dirs merged
    assert outputs[0]["after"] == numbers  # a crash keeps the numbering
