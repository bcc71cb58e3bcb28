"""Tests for the mechanism implementations against a live cluster."""

import pytest

from repro import calibration as cal
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.dsl import parse_composition
from repro.mds.server import MDSConfig


def make_ctx(materialize=True, names=None, count=None, subtree="/sub",
             persist_each=False, mds_config=None):
    cluster = Cluster(mds_config=mds_config or MDSConfig(materialize=materialize))
    dclient = cluster.new_decoupled_client(persist_each=persist_each)
    if materialize:
        # Journaled, as an admin's directories are: a restart rebuilds
        # the MDS from durable state only.
        mds = cluster.mds
        cluster.run(mds.journal.log_events(events=mds.ensure_dirs(subtree)))
        rng = cluster.mds.mdstore.inotable.provision(dclient.client_id, 100_000)
        dclient.assign_inodes(rng)
    if names:
        cluster.run(dclient.create_many(subtree, names))
    if count:
        cluster.run(dclient.create_many(subtree, count))
    return cluster, MechanismContext(cluster, subtree, dclient)


def test_unknown_mechanism_raises():
    cluster, ctx = make_ctx()
    with pytest.raises(KeyError):
        cluster.run(run_mechanism("teleport", ctx))


def test_workload_phase_mechanisms_are_noops():
    cluster, ctx = make_ctx(names=["a"])
    t0 = cluster.now
    cluster.run(run_mechanism("rpcs", ctx))
    cluster.run(run_mechanism("append_client_journal", ctx))
    assert cluster.now == t0


def test_volatile_apply_merges_into_mds(engine=None):
    cluster, ctx = make_ctx(names=["a", "b", "c"])
    cluster.run(run_mechanism("volatile_apply", ctx))
    assert cluster.mds.mdstore.exists("/sub/a")
    assert cluster.mds.mdstore.exists("/sub/c")


def test_volatile_apply_cost_scales():
    cluster, ctx = make_ctx(materialize=False, count=10_000)
    t0 = cluster.now
    cluster.run(run_mechanism("volatile_apply", ctx))
    elapsed = cluster.now - t0
    assert elapsed >= 10_000 * cal.VOLATILE_APPLY_S


def test_volatile_apply_empty_journal_noop():
    cluster, ctx = make_ctx()
    t0 = cluster.now
    cluster.run(run_mechanism("volatile_apply", ctx))
    assert cluster.now == t0


def test_local_persist_writes_journal_to_disk():
    cluster, ctx = make_ctx(names=["a", "b"])
    cluster.run(run_mechanism("local_persist", ctx))
    assert ctx.dclient.disk.bytes_written == 2 * 2560


def test_local_persist_counted():
    cluster, ctx = make_ctx(materialize=False, count=100)
    cluster.run(run_mechanism("local_persist", ctx))
    assert ctx.dclient.disk.bytes_written == 100 * 2560


def test_global_persist_lands_in_object_store():
    cluster, ctx = make_ctx(names=["a", "b"])
    cluster.run(run_mechanism("global_persist", ctx))
    names = cluster.objstore.list_objects("metadata")
    assert any(ctx.dclient.name in n for n in names)


def test_global_persist_journal_recoverable():
    from repro.journal.journaler import LocalJournal

    cluster, ctx = make_ctx(names=["a", "b"])
    cluster.run(run_mechanism("global_persist", ctx))
    striper = ctx.persist_striper()
    data = cluster.run(striper.read_all())
    recovered = LocalJournal.deserialize(cluster.engine, data)
    assert [e.path for e in recovered.events] == ["/sub/a", "/sub/b"]


def test_stream_requires_journal_enabled():
    cluster, ctx = make_ctx(
        mds_config=MDSConfig(journal_enabled=False, materialize=True)
    )
    with pytest.raises(RuntimeError):
        cluster.run(run_mechanism("stream", ctx))


def test_stream_flushes_open_segment():
    cluster, ctx = make_ctx()
    from repro.mds.server import Request

    done = cluster.mds.submit(Request("create", "/sub", 1, names=["via_rpc"]))
    cluster.run()
    assert done.value.ok
    cluster.run(run_mechanism("stream", ctx))
    assert cluster.mds.journal.segments_dispatched >= 1


def test_nonvolatile_apply_is_far_slower_than_volatile():
    n = 300
    cluster_v, ctx_v = make_ctx(materialize=False, count=n)
    t0 = cluster_v.now
    cluster_v.run(run_mechanism("volatile_apply", ctx_v))
    t_volatile = cluster_v.now - t0

    cluster_n, ctx_n = make_ctx(materialize=False, count=n)
    t0 = cluster_n.now
    cluster_n.run(run_mechanism("nonvolatile_apply", ctx_n))
    t_nonvolatile = cluster_n.now - t0
    assert t_nonvolatile > 20 * t_volatile


def test_nonvolatile_apply_extrapolates_long_journals():
    """Cost must stay ~linear across the real/extrapolated boundary."""
    def run(n):
        cluster, ctx = make_ctx(materialize=False, count=n)
        t0 = cluster.now
        cluster.run(run_mechanism("nonvolatile_apply", ctx))
        return cluster.now - t0

    t_400 = run(400)     # below NVA_REAL_EVENT_LIMIT
    t_4000 = run(4000)   # mostly extrapolated
    assert t_4000 / t_400 == pytest.approx(10, rel=0.15)


def test_nonvolatile_apply_restarts_mds_and_materializes():
    cluster, ctx = make_ctx(names=["a", "b"])
    cluster.run(run_mechanism("nonvolatile_apply", ctx))
    assert cluster.mds.running
    assert cluster.mds.mdstore.exists("/sub/a")
    assert cluster.mds.mdstore.exists("/sub/b")


def test_nonvolatile_apply_requires_journal_enabled():
    """Its restart rebuilds the store from the journal: with none, the
    merge and every earlier update would be lost, so it is refused
    before any work."""
    cluster, ctx = make_ctx(
        names=["a"],
        mds_config=MDSConfig(journal_enabled=False, materialize=True),
    )
    with pytest.raises(RuntimeError, match="journal_enabled=False"):
        cluster.run(run_mechanism("nonvolatile_apply", ctx))
    assert cluster.mds.stats.counter("crashes").value == 0
    assert cluster.mds.mdstore.exists("/sub")


def test_a_counted_nonvolatile_apply_keeps_every_directory_size():
    """A counted journal's placeholders cannot replay directory sizes,
    so the restart hands them over: an RPC client's and the merge's."""
    n = 10
    cluster, ctx = make_ctx(materialize=False, count=n)
    rpc = cluster.new_client()
    assert cluster.run(rpc.create_many("/d", 100)).ok
    cluster.run(run_mechanism("nonvolatile_apply", ctx))
    assert cluster.mds.stats.counter("crashes").value == 1
    assert cluster.run(rpc.ls("/d")).value == 100
    assert cluster.run(rpc.ls("/sub")).value == n
    assert cluster.mds.namespace_size() == 100 + n


def test_a_nonvolatile_apply_keeps_what_other_clients_hold():
    """Finalizing ``/a`` restarts the MDS.  ``/b``'s provisioned range
    survives it, so ``/c``'s range stays clear of it and ``/b``'s merge
    applies whole; an open write-buffering cap survives it too."""
    from repro.core.namespace_api import Cudele
    from repro.core.policy import SubtreePolicy

    cluster = Cluster(seed=0)
    cudele = Cudele(cluster)
    weak = SubtreePolicy.from_semantics("weak", "none", allocated_inodes=10)
    a = cluster.run(cudele.decouple("/a", SubtreePolicy(
        consistency="append_client_journal+nonvolatile_apply",
        durability="none", allocated_inodes=10,
    )))
    b = cluster.run(cudele.decouple("/b", weak))
    writer = cluster.new_client()
    assert cluster.run(writer.mkdir("/w")).ok
    handle = cluster.run(writer.open_write("/w/f"))
    cluster.run(a.dclient.create_many("/a", ["x"]))
    cluster.run(b.dclient.create_many("/b", ["y", "z"]))
    cluster.run(a.finalize())
    assert cluster.mds.stats.counter("crashes").value == 1
    c = cluster.run(cudele.decouple("/c", weak))
    held, fresh = b.dclient.ino_range, c.dclient.ino_range
    assert fresh.start >= held.end or held.start >= fresh.end
    cluster.run(b.finalize())
    assert [
        cluster.mds.mdstore.resolve(f"/b/{name}").ino for name in "yz"
    ] == [held.start, held.start + 1]
    handle.write(4096)
    assert cluster.run(writer.close_write(handle)).ok
    assert cluster.mds.mdstore.resolve("/w/f").size == 4096


def test_plan_execute_runs_stages_and_times_them():
    cluster, ctx = make_ctx(names=["a"])
    plan = parse_composition(
        "append_client_journal+local_persist+volatile_apply"
    )
    timings = cluster.run(plan.execute(ctx))
    assert set(timings) == {"local_persist", "volatile_apply"}
    assert all(t >= 0 for t in timings.values())
    assert cluster.mds.mdstore.exists("/sub/a")


def test_plan_parallel_stage_is_max_not_sum():
    n = 3000
    # Serial: local_persist then volatile_apply.
    cluster_s, ctx_s = make_ctx(materialize=False, count=n)
    t0 = cluster_s.now
    cluster_s.run(parse_composition("local_persist+volatile_apply").execute(ctx_s))
    serial = cluster_s.now - t0
    # Parallel: both at once.
    cluster_p, ctx_p = make_ctx(materialize=False, count=n)
    t0 = cluster_p.now
    cluster_p.run(parse_composition("local_persist||volatile_apply").execute(ctx_p))
    parallel = cluster_p.now - t0
    assert parallel < serial
