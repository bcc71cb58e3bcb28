"""Tests for merge conflict resolution and journal merging."""

import pytest

from repro.cluster import Cluster
from repro.core.merge import merge_journal, resolve_conflicts
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.journal.events import EventType, JournalEvent
from repro.mds.mdstore import MetadataStore


def ev(path, op=EventType.CREATE, **kw):
    return JournalEvent(op, path, **kw)


def test_no_conflicts_passthrough():
    md = MetadataStore()
    events = [ev("/a"), ev("/b")]
    assert resolve_conflicts(md, events) == events


def test_decoupled_priority_unlinks_existing_file():
    """'the computation from the decoupled namespace will take priority
    at merge time' (§III-C)."""
    md = MetadataStore()
    md.create("/f")  # written by an interfering client
    out = resolve_conflicts(md, [ev("/f", ino=2_000_000)])
    assert [e.op for e in out] == [EventType.UNLINK, EventType.CREATE]
    # and replaying it yields the decoupled client's inode
    assert md.apply_events(out) == 0
    assert md.resolve("/f").ino == 2_000_000


def test_existing_priority_drops_journal_event():
    md = MetadataStore()
    md.create("/f")
    before = md.resolve("/f").ino
    out = resolve_conflicts(md, [ev("/f", ino=2_000_000)], priority="existing")
    assert out == []
    assert md.resolve("/f").ino == before


def test_mkdir_conflict_with_existing_dir_is_skipped():
    md = MetadataStore()
    md.mkdir("/d")
    out = resolve_conflicts(md, [ev("/d", op=EventType.MKDIR), ev("/d/f")])
    # the MKDIR is dropped (dir already there) but the create survives
    assert [e.op for e in out] == [EventType.CREATE]


def test_type_mismatch_conflict_dropped():
    md = MetadataStore()
    md.mkdir("/x")
    out = resolve_conflicts(md, [ev("/x")])  # CREATE over a directory
    assert out == []


def test_journal_internal_duplicates_not_treated_as_conflicts():
    """Paths the journal itself creates must not trigger store lookups."""
    md = MetadataStore()
    events = [ev("/d", op=EventType.MKDIR), ev("/d/f")]
    assert resolve_conflicts(md, events) == events


def test_unknown_priority_rejected():
    md = MetadataStore()
    with pytest.raises(ValueError):
        resolve_conflicts(md, [], priority="coinflip")


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
    assert result["conflicts"] == 0  # pre-resolved by priority rules
    assert cluster.mds.mdstore.resolve("/sub/f").ino == 2_000_000


def test_merge_journal_count_mode():
    cluster = Cluster()
    result = cluster.run(merge_journal(cluster.mds, "/sub", 5, count=1000))
    assert result["applied"] == 1000


def test_merge_journal_needs_input():
    cluster = Cluster()
    with pytest.raises(ValueError):
        cluster.run(merge_journal(cluster.mds, "/sub", 5))


@pytest.mark.parametrize("priority", ["decoupled", "existing"])
def test_a_path_the_journal_removed_is_not_judged_against_the_store(priority):
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
        events=list(dclient.journal.events), priority=priority,
    ))
    assert result == {"applied": 2, "conflicts": 0}
    assert cluster.mds.mdstore.listdir("/job") == ["x"]
    assert cluster.mds.mdstore.resolve("/job/x").ino == created.ino
