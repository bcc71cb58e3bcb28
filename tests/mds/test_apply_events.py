"""Differential test: the batched Volatile Apply equals the per-event loop.

``MetadataStore.apply_events`` replays a run of CREATEs into one
directory in one pass.  Every generated journal runs two ways — through
the server's ``_op_volatile_apply`` and through the plain per-event loop
below over the journal as ``MetadataStore.resolve_conflicts`` rewrites
it (``apply_event`` per event, then the provisioned-inode probe and the
``visible`` mark) — and the two must agree on the summary, the
namespace, the fragment versions, the inode table and the marks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.journal.events import EventType, JournalEvent
from repro.mds.mdstore import FsError
from repro.mds.server import Request

OWNER = 7
PARENTS = ("", "/d", "/e", "/d/sub", "/file", "/missing")
NAMES = ("a", "b", "c", "f0", "sub")
OPS = ("run", "create", "mkdir", "unlink", "rmdir", "rename", "setattr")


def _cluster():
    """A store with files and directories in place, a file to use as a
    parent, and a range provisioned to ``OWNER``."""
    cluster = Cluster(seed=0)
    md = cluster.mds.mdstore
    for path in ("/d", "/e", "/d/sub"):
        md.mkdir(path)
    for path in ("/d/f0", "/file"):
        md.create(path)
    rng = md.inotable.provision(OWNER, 64)
    return cluster, rng


_RANGE = _cluster()[1]
_EXISTING = sorted(_cluster()[0].mds.mdstore.inodes)


@st.composite
def journals(draw):
    events = []
    fresh = _RANGE.start
    used = list(_EXISTING)

    def ino_for(kind):
        nonlocal fresh
        if kind == "zero":
            return 0
        if kind == "dup":
            return draw(st.sampled_from(used))
        fresh += draw(st.sampled_from((0, 0, 0, 1)))  # sometimes a gap
        ino, fresh = fresh, fresh + 1
        used.append(ino)
        return ino

    def path():
        parent = draw(st.sampled_from(PARENTS))
        return f"{parent}/{draw(st.sampled_from(NAMES))}"

    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(OPS))
        mode = draw(st.sampled_from((0o644, 0o644, 0o600)))
        if op == "run":
            parent = draw(st.sampled_from(PARENTS))
            for _ in range(draw(st.integers(1, 6))):
                name = draw(st.sampled_from(NAMES + ("x", "y", "z")))
                ino = ino_for(draw(st.sampled_from(("fresh",) * 4 + ("dup",))))
                events.append(JournalEvent(
                    EventType.CREATE, f"{parent}/{name}", ino=ino,
                    mode=mode, mtime=1.5, client_id=OWNER,
                ))
        elif op in ("create", "mkdir"):
            kind = draw(st.sampled_from(("fresh", "dup", "zero")))
            events.append(JournalEvent(
                EventType[op.upper()], path(), ino=ino_for(kind), mode=mode,
                client_id=OWNER,
            ))
        elif op == "rename":
            events.append(JournalEvent(
                EventType.RENAME, path(), target_path=path(), client_id=OWNER,
            ))
        else:
            # A removal may carry a provisioned inode it does not consume.
            kind = draw(st.sampled_from(("zero", "zero", "fresh")))
            events.append(JournalEvent(
                EventType[op.upper()], path(), ino=ino_for(kind), mode=mode,
                client_id=OWNER,
            ))
    return events


class _Marks:
    """Records the server's ``visible`` marks."""

    tap_sections = ()

    def __init__(self):
        self.seen = []
        self.tap_marks = {"visible": self._on_visible}

    def _on_visible(self, actor, d):
        self.seen.append(
            (d["op"], d["path"], d["ino"], d["client"], d["target"])
        )


def _per_event_loop(store, events, marks):
    """The Volatile Apply loop one event at a time."""
    applied = conflicts = 0
    inotable = store.inotable
    for ev in events:
        try:
            store.apply_event(ev)
        except FsError:
            conflicts += 1
            continue
        applied += 1
        ino = ev.ino
        if (
            ino
            and not inotable.is_consumed(ino)
            and inotable.owner_of(ino) is not None
        ):
            inotable.mark_consumed(ino)
        marks.append(
            (ev.op, ev.path, ev.ino, ev.client_id, ev.target_path)
        )
    return {"applied": applied, "conflicts": conflicts}


def _state(store):
    return (
        dict(store.inodes),
        {ino: dict(f.entries) for ino, f in store.dirfrags.items()},
        store.events_applied,
        list(store.inotable._consumed.bounds),
        store.inotable.next_free,
    )


@settings(max_examples=150, deadline=None)
@given(journals())
def test_batch_apply_equals_the_per_event_loop(events):
    batched, _ = _cluster()
    marks = _Marks()
    batched.attach_observer(marks)

    def merge():
        return (yield batched.mds.submit(
            Request("volatile_apply", "/", OWNER, payload=events)
        ))

    resp = batched.run(merge())
    assert resp.ok

    reference, _ = _cluster()
    store = reference.mds.mdstore
    expected_marks = []
    summary = _per_event_loop(
        store, store.resolve_conflicts(events), expected_marks
    )

    assert resp.value == summary
    assert marks.seen == expected_marks
    assert _state(batched.mds.mdstore) == _state(reference.mds.mdstore)
