"""Tests for journal event value objects."""

import copy
import pickle

import pytest

from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES


def test_wire_size_matches_paper():
    # "The storage per journal update is about 2.5KB" (Section V-A).
    assert WIRE_EVENT_BYTES == 2560


def test_event_requires_absolute_path():
    with pytest.raises(ValueError):
        JournalEvent(EventType.CREATE, "relative/path")


def test_rename_requires_target():
    with pytest.raises(ValueError):
        JournalEvent(EventType.RENAME, "/a")
    ev = JournalEvent(EventType.RENAME, "/a", target_path="/b")
    assert ev.target_path == "/b"


def test_negative_ino_rejected():
    with pytest.raises(ValueError):
        JournalEvent(EventType.CREATE, "/f", ino=-1)


def test_int_op_coerced_to_enum():
    ev = JournalEvent(1, "/f")  # type: ignore[arg-type]
    assert ev.op is EventType.CREATE


def test_with_seq_copies():
    ev = JournalEvent(EventType.CREATE, "/f", ino=5)
    stamped = ev.with_seq(9)
    assert stamped.seq == 9 and ev.seq == 0
    assert stamped.ino == 5


def test_is_mutation_flags():
    assert JournalEvent(EventType.CREATE, "/f").is_mutation
    assert JournalEvent(EventType.RENAME, "/f", target_path="/g").is_mutation
    assert not JournalEvent(EventType.NOOP, "/").is_mutation
    assert not JournalEvent(EventType.SUBTREE_POLICY, "/sub").is_mutation


def test_parent_path_and_name():
    ev = JournalEvent(EventType.CREATE, "/a/b/c.txt")
    assert ev.parent_path == "/a/b"
    assert ev.name == "c.txt"
    root_child = JournalEvent(EventType.MKDIR, "/top")
    assert root_child.parent_path == "/"
    assert root_child.name == "top"


def test_events_are_frozen():
    ev = JournalEvent(EventType.CREATE, "/f")
    with pytest.raises(AttributeError):
        ev.path = "/other"  # type: ignore[misc]


def test_events_hashable_and_equal():
    a = JournalEvent(EventType.CREATE, "/f", ino=1)
    b = JournalEvent(EventType.CREATE, "/f", ino=1)
    assert a == b
    assert hash(a) == hash(b)


def test_events_are_slot_backed_and_still_plain_values():
    # No per-instance __dict__ (the bulk of an event's weight), and the
    # change of representation shows nowhere else.
    ev = JournalEvent(EventType.RENAME, "/a", ino=7, target_path="/b",
                      mtime=1.5, seq=3, client_id=2)
    assert not hasattr(ev, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        ev.scratch = 1  # type: ignore[attr-defined]
    with pytest.raises(AttributeError):
        ev.seq = 9  # type: ignore[misc]
    assert repr(ev) == (
        "JournalEvent(op=<EventType.RENAME: 5>, path='/a', ino=7, mode=420, "
        "uid=0, gid=0, mtime=1.5, target_path='/b', seq=3, client_id=2)"
    )
    for clone in (
        pickle.loads(pickle.dumps(ev)),  # results cross processes (--jobs)
        copy.deepcopy(ev),
        copy.copy(ev),
        ev.with_seq(3),
        JournalEvent.trusted(EventType.RENAME, "/a", 7, 0o644, 0, 0, 1.5,
                             "/b", 3, 2),
    ):
        assert clone == ev and hash(clone) == hash(ev)
        assert type(clone) is JournalEvent
