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


@pytest.mark.parametrize("lead_ms,apply", [
    # The Volatile Apply rows keep the ids they had before the apply
    # was a parameter.
    pytest.param(lead_ms, apply, id=(
        str(lead_ms) if apply == "volatile_apply" else f"{lead_ms}-{apply}"
    ))
    for apply in ("volatile_apply", "nonvolatile_apply")
    for lead_ms in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6)
])
def test_a_decoupled_create_wins_over_an_interferer_queued_ahead_of_the_merge(
    lead_ms, apply,
):
    """An RPC client's create of the owner's journaled name starts, and
    the merge starts ``lead_ms`` later.  At leads 1.2-1.4 ms the
    interferer's request is still queued at the MDS when a Volatile
    Apply is sent; it applies first, and the decoupled create must
    still win.  Nonvolatile Apply submits after its object-store loop,
    so the interferer has always applied first; the same rule holds,
    through the MDS restart that follows."""
    cluster = Cluster(seed=0)
    recorder = HistoryRecorder.attach(cluster)
    admin = cluster.new_client()
    assert cluster.run(admin.mkdir("/job")).ok
    ns = cluster.run(Cudele(cluster).decouple("/job", SubtreePolicy(
        consistency=f"append_client_journal+{apply}", durability="none",
        allocated_inodes=10,
    )))
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


def test_a_decoupled_rename_wins_over_an_interferers_create():
    """The owner journals ``create /job/a`` and ``rename /job/a
    /job/b``; an RPC client's ``create /job/b`` is acknowledged first.
    The rename lands on the interferer's file, so the merge unlinks that
    file first: ``/job`` holds only ``b``, with the owner's inode."""
    cluster = Cluster(seed=0)
    recorder = HistoryRecorder.attach(cluster)
    admin = cluster.new_client()
    assert cluster.run(admin.mkdir("/job")).ok
    ns = cluster.run(Cudele(cluster).decouple(
        "/job", SubtreePolicy.from_semantics("weak", "none",
                                             allocated_inodes=10),
    ))
    owner = ns.dclient
    cluster.run(owner.create_many("/job", ["a"]))
    created = owner.journal.events[-1]
    cluster.run(owner.rename("/job/a", "/job/b"))
    assert cluster.run(cluster.new_client().create_many("/job", ["b"])).ok
    cluster.run(ns.finalize())
    assert cluster.mds.mdstore.listdir("/job") == ["b"]
    assert cluster.mds.mdstore.resolve("/job/b").ino == created.ino
    for strict in (False, True):
        verdict = check_history(
            recorder.history, "weak", "none", subtree="/job",
            owner=owner.name, strict=strict,
        )
        assert verdict["ok"], verdict["violations"]


def test_a_rename_onto_a_directory_is_dropped():
    md = MetadataStore()
    md.mkdir("/d")
    md.create("/f")
    out = md.resolve_conflicts(
        [ev("/f", op=EventType.RENAME, target_path="/d")]
    )
    assert out == []


def test_a_rename_onto_a_path_the_journal_settled_is_not_judged_again():
    """The journal replaced the store's ``/b`` itself, so a later rename
    onto ``/b`` is the journal's own conflict, left to replay."""
    md = MetadataStore()
    md.create("/b")
    out = md.resolve_conflicts([
        ev("/b", ino=2_000_000),
        ev("/a", op=EventType.RENAME, target_path="/b"),
    ])
    assert [e.op for e in out] == [
        EventType.UNLINK, EventType.CREATE, EventType.RENAME,
    ]


_A, _B = 2_000_000, 2_000_001


@pytest.mark.parametrize("store_b,journal,want", [
    # A rename onto the store's file replaces it.
    ("file", [ev("/a", ino=_A), ev("/a", op=EventType.RENAME,
                                   target_path="/b")],
     {"/b": _A}),
    # A rename onto the store's directory is dropped.
    ("dir", [ev("/a", ino=_A), ev("/a", op=EventType.RENAME,
                                  target_path="/b")],
     {"/a": _A, "/b": "dir"}),
    # The journal already replaced /b: its own rename onto it is refused.
    ("file", [ev("/b", ino=_B), ev("/a", ino=_A),
              ev("/a", op=EventType.RENAME, target_path="/b")],
     {"/a": _A, "/b": _B}),
])
def test_the_model_states_the_stores_rename_rule(store_b, journal, want):
    """``ReferenceModel.merge`` states the merge rule on its own; on a
    rename it must agree with ``MetadataStore.resolve_conflicts``."""
    from repro.conformance.model import ReferenceModel

    md, model = MetadataStore(), ReferenceModel()
    (md.mkdir if store_b == "dir" else md.create)("/b")
    (model.mkdir if store_b == "dir" else model.create)("/b")
    resolved = md.resolve_conflicts(journal)
    refused = md.apply_events(resolved)
    assert model.merge(journal) == {
        "applied": len(resolved) - refused, "conflicts": refused,
    }
    for path in ("/a", "/b"):
        node = model.nodes.get(path)
        got = None
        if md.exists(path):
            inode = md.resolve(path)
            got = "dir" if inode.is_dir else inode.ino
        assert got == want.get(path)
        assert (node and ("dir" if node.is_dir else node.ino)) == got
