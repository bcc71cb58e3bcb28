"""Tests for merge conflict resolution and journal merging."""

import pytest

from repro.cluster import Cluster
from repro.conformance.checkers import check_history
from repro.conformance.recorder import HistoryRecorder
from repro.core.mechanisms import merge_journal
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.journal.events import EventType, JournalEvent
from repro.mds.mdstore import MetadataStore
from repro.sim.engine import Timeout


def ev(path, op=EventType.CREATE, **kw):
    return JournalEvent(op, path, **kw)


def test_no_conflicts_passthrough():
    md = MetadataStore()
    events = [ev("/a"), ev("/b")]
    assert md.resolve_conflicts(events) == events


def test_decoupled_priority_unlinks_existing_file():
    """'the computation from the decoupled namespace will take priority
    at merge time' (§III-C)."""
    md = MetadataStore()
    md.create("/f")  # written by an interfering client
    out = md.resolve_conflicts([ev("/f", ino=2_000_000)])
    assert [e.op for e in out] == [EventType.UNLINK, EventType.CREATE]
    # and replaying it yields the decoupled client's inode
    assert md.apply_events(out) == 0
    assert md.resolve("/f").ino == 2_000_000


def test_mkdir_conflict_with_existing_dir_is_skipped():
    md = MetadataStore()
    md.mkdir("/d")
    out = md.resolve_conflicts([ev("/d", op=EventType.MKDIR), ev("/d/f")])
    # the MKDIR is dropped (dir already there) but the create survives
    assert [e.op for e in out] == [EventType.CREATE]


def test_type_mismatch_conflict_dropped():
    md = MetadataStore()
    md.mkdir("/x")
    out = md.resolve_conflicts([ev("/x")])  # CREATE over a directory
    assert out == []


def test_journal_internal_duplicates_not_treated_as_conflicts():
    """Paths the journal itself creates must not trigger store lookups."""
    md = MetadataStore()
    events = [ev("/d", op=EventType.MKDIR), ev("/d/f")]
    assert md.resolve_conflicts(events) == events


def test_merge_journal_end_to_end():
    cluster = Cluster()
    cluster.mds.mdstore.mkdir("/sub")
    events = [ev("/sub/a", ino=2_000_000), ev("/sub/b", ino=2_000_001)]
    result = cluster.run(merge_journal(cluster.mds, "/sub", 5, events=events))
    assert result["applied"] == 2
    assert cluster.mds.mdstore.exists("/sub/a")


def test_merge_journal_with_conflict_overwrites():
    cluster = Cluster()
    cluster.mds.mdstore.mkdir("/sub")
    cluster.mds.mdstore.create("/sub/f")
    events = [ev("/sub/f", ino=2_000_000)]
    result = cluster.run(merge_journal(cluster.mds, "/sub", 5, events=events))
    assert result["conflicts"] == 0  # the MDS resolved it: the journal wins
    assert cluster.mds.mdstore.resolve("/sub/f").ino == 2_000_000


def test_merge_journal_count_mode():
    cluster = Cluster()
    result = cluster.run(merge_journal(cluster.mds, "/sub", 5, count=1000))
    assert result["applied"] == 1000


def test_merge_journal_needs_input():
    cluster = Cluster()
    with pytest.raises(ValueError):
        cluster.run(merge_journal(cluster.mds, "/sub", 5))


def test_a_path_the_journal_removed_is_not_judged_against_the_store():
    """The journal unlinks an entry the admin made, then re-creates the
    name: the create is the journal's own doing, not a conflict."""
    cluster = Cluster()
    cudele = Cudele(cluster)
    admin = cluster.new_client()
    assert cluster.run(admin.mkdir("/job")).ok
    assert cluster.run(admin.create_many("/job", ["x"])).ok
    ns = cluster.run(cudele.decouple(
        "/job", SubtreePolicy.from_semantics("weak", "none",
                                             allocated_inodes=10),
    ))
    dclient = ns.dclient
    cluster.run(dclient.unlink("/job/x"))
    cluster.run(dclient.create_many("/job", ["x"]))
    created = dclient.journal.events[-1]
    result = cluster.run(merge_journal(
        cluster.mds, "/job", dclient.client_id,
        events=list(dclient.journal.events),
    ))
    assert result == {"applied": 2, "conflicts": 0}
    assert cluster.mds.mdstore.listdir("/job") == ["x"]
    assert cluster.mds.mdstore.resolve("/job/x").ino == created.ino


@pytest.mark.parametrize("lead_ms", [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6])
def test_a_decoupled_create_wins_over_an_interferer_queued_ahead_of_the_merge(
    lead_ms,
):
    """An RPC client's create of the owner's journaled name starts, and
    the merge starts ``lead_ms`` later.  At leads 1.2-1.4 ms the
    interferer's request is still queued at the MDS when the merge is
    sent; it applies first, and the decoupled create must still win."""
    cluster = Cluster(seed=0)
    recorder = HistoryRecorder.attach(cluster)
    admin = cluster.new_client()
    assert cluster.run(admin.mkdir("/job")).ok
    ns = cluster.run(Cudele(cluster).decouple(
        "/job", SubtreePolicy.from_semantics("weak", "none",
                                             allocated_inodes=10),
    ))
    owner = ns.dclient
    cluster.run(owner.create_many("/job", ["x"]))
    created = owner.journal.events[-1]
    engine = cluster.engine
    engine.process(cluster.new_client().create_many("/job", ["x"]))

    def merge():
        yield Timeout(engine, lead_ms / 1e3)
        yield engine.process(ns.finalize())

    cluster.run(merge())
    history = recorder.history
    assert cluster.mds.mdstore.resolve("/job/x").ino == created.ino
    assert any(
        e.kind == "visible" and e.client == owner.client_id
        and e.path == "/job/x" and e.ino == created.ino
        for e in history
    )
    verdict = check_history(
        history, "weak", "none", subtree="/job", owner=owner.name,
        strict=True,
    )
    assert verdict["ok"], verdict["violations"]
