"""Recorded operation histories: the conformance oracle's input.

A :class:`History` is an append-only log of :class:`HistoryEvent`
records with simulated timestamps, produced by the
:class:`~repro.conformance.recorder.HistoryRecorder` while a scenario
runs.  The checkers in :mod:`repro.conformance.checkers` consume it;
nothing in here knows about the cluster.

Event kinds
-----------

``invoke`` / ``complete``
    A client submitted an operation / observed its acknowledgement.
    ``op_id`` correlates the pair; ``ok``/``error`` land on the
    completion.
``visible``
    The mutation became observable to *every* client: it landed in the
    MDS's authoritative metadata store (either synchronously under
    RPCs, or at merge time under Volatile Apply).
``persisted``
    The update reached stable storage; ``scope`` says which kind
    ("local" = the client's own disk, "global" = the object store).
``persist_fault``
    A persist landed damaged (torn/reordered/partial/bit-flipped, per
    :mod:`repro.faults.corrupt`): ``detail`` carries the fault ``mode``
    plus the ``valid_seq``/``valid_events`` of the longest
    checksummed-valid prefix — the most recovery may restore from this
    image, superseding the full claims recorded just before it.
``merge_begin`` / ``merge_end``
    A client journal is being replayed at the MDS (Volatile Apply).
``crash`` / ``recover``
    Component failure markers (driven by :mod:`repro.faults`).
``recovered``
    One update restored during recovery (from local disk, the object
    store, or an MDS journal replay).
``migrate``
    A live subtree migration changed phase; ``detail`` carries the
    phase (``begin``/``commit``/``abort``), the source and destination
    MDS names and the monitor's MDS-map epoch.  Exactly-one-authority
    is judged from these records.
``snapshot``
    A full listing of the authoritative namespace under the scenario's
    subtree, taken by the driver at a quiescent point.

The canonical serialization is JSON-lines with sorted keys, compact
separators and ``None`` / empty-``detail`` fields dropped — byte-identical
for identical runs, diffable, and safe to check into golden-history
regression tests.  :meth:`History.canonical` writes each line straight
from the event's fields (:func:`_render`); it is held byte-equal to
``json.JSONEncoder(sort_keys=True, separators=(",", ":"))`` over the
same fields by a differential test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _ascii
from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

__all__ = ["HistoryEvent", "History", "KINDS", "MUTATION_OPS"]

#: The canonical encoder, built once: ``json.dumps`` with non-default
#: arguments builds a new encoder on every call.  The line renderer
#: falls back to it for ``detail`` and for any value of an unusual type.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _CANONICAL_JSON.encode

#: Every event kind a history may carry.
KINDS = (
    "invoke",
    "complete",
    "visible",
    "persisted",
    "persist_fault",
    "merge_begin",
    "merge_end",
    "crash",
    "recover",
    "recovered",
    "migrate",
    "snapshot",
)
_KIND_SET = frozenset(KINDS)

#: Operations that mutate the namespace (the ops the consistency and
#: durability contracts constrain; reads ride along uninterpreted).
MUTATION_OPS = frozenset(
    {"create", "mkdir", "unlink", "rmdir", "rename", "setattr"}
)

#: The ``detail`` of every event that carries none: one shared,
#: read-only empty mapping instead of a ``dict`` per event.
_NO_DETAIL: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True, init=False)
class HistoryEvent:
    """One record in a history (``None`` fields and an empty ``detail``
    are not serialized).  Every field but ``t``, ``kind`` and ``actor``
    defaults to ``None``; ``detail`` defaults to a shared read-only
    empty mapping."""

    t: float
    kind: str
    actor: str
    op: Optional[str]
    path: Optional[str]
    ino: Optional[int]
    seq: Optional[int]
    op_id: Optional[int]
    client: Optional[int]
    scope: Optional[str]
    ok: Optional[bool]
    error: Optional[str]
    target: Optional[str]
    detail: Mapping[str, Any]

    def __init__(
        self,
        t: float,
        kind: str,
        actor: str,
        op: Optional[str] = None,
        path: Optional[str] = None,
        ino: Optional[int] = None,
        seq: Optional[int] = None,
        op_id: Optional[int] = None,
        client: Optional[int] = None,
        scope: Optional[str] = None,
        ok: Optional[bool] = None,
        error: Optional[str] = None,
        target: Optional[str] = None,
        detail: Mapping[str, Any] = _NO_DETAIL,
    ) -> None:
        if kind not in _KIND_SET:
            raise ValueError(
                f"unknown history event kind {kind!r}; known: {KINDS}"
            )
        self.t = t
        self.kind = kind
        self.actor = actor
        self.op = op
        self.path = path
        self.ino = ino
        self.seq = seq
        self.op_id = op_id
        self.client = client
        self.scope = scope
        self.ok = ok
        self.error = error
        self.target = target
        self.detail = detail

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistoryEvent":
        """Build an event from one parsed canonical line, checking every
        field's type (the renderer relies on them); raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(
                f"a history event must be a JSON object, not "
                f"{type(data).__name__}"
            )
        unknown = [k for k in data if k not in _FIELD_TYPES]
        if unknown:
            raise ValueError(f"unknown history event fields {sorted(unknown)}")
        for name in _REQUIRED:
            if name not in data:
                raise ValueError(f"history event is missing {name!r}")
        for name, value in data.items():
            want = _FIELD_TYPES[name]
            # bool is an int subclass: only ``ok`` may hold one.
            if not isinstance(value, want) or (
                value.__class__ is bool and bool not in want
            ):
                names = " or ".join(
                    "null" if t is _NULL else t.__name__ for t in want
                )
                raise ValueError(
                    f"history event field {name!r} holds {value!r}; "
                    f"expected {names}"
                )
        return cls(**data)


_NULL = type(None)
#: The JSON types a parsed event field may hold.
_FIELD_TYPES: Dict[str, tuple] = {
    "t": (int, float),
    "kind": (str,),
    "actor": (str,),
    "op": (str, _NULL),
    "path": (str, _NULL),
    "ino": (int, _NULL),
    "seq": (int, _NULL),
    "op_id": (int, _NULL),
    "client": (int, _NULL),
    "scope": (str, _NULL),
    "ok": (bool, _NULL),
    "error": (str, _NULL),
    "target": (str, _NULL),
    "detail": (dict,),
}
_REQUIRED = ("t", "kind", "actor")

_INF = float("inf")
#: Each kind's rendered ``"kind"`` member (kinds are plain ASCII names).
_KIND_MEMBER = {kind: f',"kind":"{kind}"' for kind in KINDS}


def _render(e: HistoryEvent) -> str:
    """One canonical line: the event's non-empty fields in sorted-key
    order, each written the way the canonical encoder writes it.

    Byte-identical to ``_CANONICAL_JSON.encode`` over the same fields:
    a plain ``str`` goes through json's own C escaper, a plain ``int``
    or finite plain ``float`` through an f-string, which writes its
    ``repr`` exactly as the encoder does, and anything else (``detail``,
    NaN, infinities, subclasses, an ``int`` time) through the encoder
    itself.
    """
    v = e.actor
    out = '{"actor":' + (_ascii(v) if v.__class__ is str else _encode(v))
    v = e.client
    if v is not None:
        out += f',"client":{v}' if v.__class__ is int else (
            ',"client":' + _encode(v))
    v = e.detail
    if v:
        out += ',"detail":' + _encode(v)
    v = e.error
    if v is not None:
        out += ',"error":' + (_ascii(v) if v.__class__ is str else _encode(v))
    v = e.ino
    if v is not None:
        out += f',"ino":{v}' if v.__class__ is int else (
            ',"ino":' + _encode(v))
    out += _KIND_MEMBER[e.kind]
    v = e.ok
    if v is not None:
        if v is True:
            out += ',"ok":true'
        elif v is False:
            out += ',"ok":false'
        else:
            out += ',"ok":' + _encode(v)
    v = e.op
    if v is not None:
        out += ',"op":' + (_ascii(v) if v.__class__ is str else _encode(v))
    v = e.op_id
    if v is not None:
        out += f',"op_id":{v}' if v.__class__ is int else (
            ',"op_id":' + _encode(v))
    v = e.path
    if v is not None:
        out += ',"path":' + (_ascii(v) if v.__class__ is str else _encode(v))
    v = e.scope
    if v is not None:
        out += ',"scope":' + (_ascii(v) if v.__class__ is str else _encode(v))
    v = e.seq
    if v is not None:
        out += f',"seq":{v}' if v.__class__ is int else (
            ',"seq":' + _encode(v))
    v = e.t
    out += f',"t":{v}' if v.__class__ is float and -_INF < v < _INF else (
        ',"t":' + _encode(v))
    v = e.target
    if v is not None:
        out += ',"target":' + (_ascii(v) if v.__class__ is str else _encode(v))
    return out + "}"


class History:
    """An append-only, serializable log of history events (a recorder
    appends to :attr:`events` directly)."""

    def __init__(self, events: Optional[Iterable[HistoryEvent]] = None):
        self.events: List[HistoryEvent] = list(events or [])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[HistoryEvent]:
        return iter(self.events)

    # -- queries ----------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[HistoryEvent]:
        return [e for e in self.events if e.kind in kinds]

    # -- serialization ----------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON-lines form (sorted keys, compact separators).

        Identical runs must produce identical bytes; the golden-history
        tests and the serial-vs-parallel identity guard depend on it.
        """
        events = self.events
        return "\n".join(map(_render, events)) + ("\n" if events else "")

    @classmethod
    def from_canonical(cls, text: str) -> "History":
        """Parse canonical JSON-lines (blank lines skipped); a line that
        does not hold a well-typed event raises ``ValueError`` naming
        its 1-based line number."""
        events = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                events.append(HistoryEvent.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"history line {lineno}: {exc}") from None
        return cls(events)

    @classmethod
    def load(cls, path) -> "History":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_canonical(fh.read())
