"""Tests for journal event value objects."""

import copy
import dataclasses
import pickle
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES
from repro.journal.format import JournalCodec


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
    assert not JournalEvent(EventType.IMPORT_COMMIT, "/sub").is_mutation


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
                      mtime=1.5, seq=3, client_id=2, size=4096)
    assert not hasattr(ev, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        ev.scratch = 1  # type: ignore[attr-defined]
    with pytest.raises(AttributeError):
        ev.seq = 9  # type: ignore[misc]
    assert repr(ev) == (
        "JournalEvent(op=<EventType.RENAME: 5>, path='/a', ino=7, mode=420, "
        "uid=0, gid=0, mtime=1.5, target_path='/b', seq=3, client_id=2, "
        "size=4096)"
    )
    for clone in (
        pickle.loads(pickle.dumps(ev)),  # results cross processes (--jobs)
        copy.deepcopy(ev),
        copy.copy(ev),
        ev.with_seq(3),
        JournalEvent.trusted(EventType.RENAME, "/a", 7, 0o644, 0, 0, 1.5,
                             "/b", 3, 2, 4096),
    ):
        assert clone == ev and hash(clone) == hash(ev)
        assert type(clone) is JournalEvent


def test_every_builder_returns_exactly_a_journal_event():
    ev = JournalEvent(EventType.CREATE, "/f", ino=5, mtime=1.5, size=9)
    wire = JournalCodec.encode_event(ev.with_seq(4))
    for built in (
        JournalEvent.trusted(EventType.CREATE, "/f", 5, 0o644, 0, 0, 1.5,
                             None, 4, 0, 9),
        ev.with_seq(4),
        JournalCodec.decode_event(wire)[0],
    ):
        assert type(built) is JournalEvent
        assert built == ev.with_seq(4)


@dataclasses.dataclass(frozen=True, slots=True)
class _Twin:
    """The frozen, slotted dataclass ``JournalEvent`` used to be: the
    reference its value semantics are held to."""

    op: EventType
    path: str
    ino: int = 0
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    mtime: float = 0.0
    target_path: Optional[str] = None
    seq: int = 0
    client_id: int = 0
    size: int = 0

    def __post_init__(self) -> None:
        if self.op.__class__ is not EventType:
            object.__setattr__(self, "op", EventType(self.op))
        if self.path[:1] != "/":
            raise ValueError(f"event path must be absolute, got {self.path!r}")
        if self.op is EventType.RENAME and not self.target_path:
            raise ValueError("RENAME events require target_path")
        if self.ino < 0:
            raise ValueError("inode numbers are non-negative")


_FIELDS = tuple(f.name for f in dataclasses.fields(_Twin))
_INTS = st.integers(min_value=-2, max_value=2**40)
_TEXT = st.text(alphabet="/ab\u00e9", max_size=5)

_event_fields = st.fixed_dictionaries({
    "op": st.one_of(st.sampled_from(EventType), st.integers(0, 12)),
    "path": st.one_of(_TEXT, _TEXT.map(lambda s: "/" + s)),
}, optional={
    "ino": _INTS, "mode": _INTS, "uid": _INTS, "gid": _INTS,
    "mtime": st.floats(allow_nan=False),
    "target_path": st.one_of(st.none(), _TEXT),
    "seq": _INTS, "client_id": _INTS, "size": _INTS,
})


def _build(cls, fields):
    try:
        return cls(**fields), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(a=_event_fields, b=_event_fields, same=st.booleans())
def test_event_matches_the_dataclass_it_replaced(a, b, same):
    b = a if same else b
    ev, err = _build(JournalEvent, a)
    twin, twin_err = _build(_Twin, a)
    assert err == twin_err  # ValueError exactly where the twin raises
    if twin is None:
        return
    assert ev._fields == _FIELDS
    assert tuple(ev) == tuple(getattr(twin, f) for f in _FIELDS)
    assert hash(ev) == hash(twin)
    assert repr(ev) == "JournalEvent" + repr(twin)[len("_Twin"):]
    for clone, twin_clone in (
        (pickle.loads(pickle.dumps(ev)), pickle.loads(pickle.dumps(twin))),
        (copy.deepcopy(ev), copy.deepcopy(twin)),
    ):
        assert type(clone) is JournalEvent
        assert clone == ev and twin_clone == twin
        assert hash(clone) == hash(twin_clone)
    other, _ = _build(JournalEvent, b)
    other_twin, _ = _build(_Twin, b)
    if other_twin is not None:
        assert (ev == other) == (twin == other_twin)
        assert (ev != other) == (twin != other_twin)
