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

The canonical serialization is JSON-lines with sorted keys and ``None``
fields dropped — byte-identical for identical runs, diffable, and safe
to check into golden-history regression tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["HistoryEvent", "History", "KINDS", "MUTATION_OPS"]

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

#: Operations that mutate the namespace (the ops the consistency and
#: durability contracts constrain; reads ride along uninterpreted).
MUTATION_OPS = frozenset(
    {"create", "mkdir", "unlink", "rmdir", "rename", "setattr"}
)


@dataclass
class HistoryEvent:
    """One record in a history (``None`` fields are not serialized)."""

    t: float
    kind: str
    actor: str
    op: Optional[str] = None
    path: Optional[str] = None
    ino: Optional[int] = None
    seq: Optional[int] = None
    op_id: Optional[int] = None
    client: Optional[int] = None
    scope: Optional[str] = None
    ok: Optional[bool] = None
    error: Optional[str] = None
    target: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown history event kind {self.kind!r}; known: {KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Field name -> value, ``None`` / ``{}`` dropped.  ``detail`` is
        shared with the event, not copied."""
        out = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value is not None and value != {}:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistoryEvent":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown history event fields {sorted(unknown)}")
        return cls(**data)

    def __str__(self) -> str:
        bits = [f"[{self.t:.6f}] {self.kind} {self.actor}"]
        if self.op:
            bits.append(self.op)
        if self.path:
            bits.append(self.path)
        return " ".join(bits)


_FIELD_NAMES = tuple(f.name for f in fields(HistoryEvent))


class History:
    """An append-only, serializable log of history events."""

    def __init__(self, events: Optional[Iterable[HistoryEvent]] = None):
        self.events: List[HistoryEvent] = list(events or [])

    def append(self, event: HistoryEvent) -> HistoryEvent:
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[HistoryEvent]:
        return iter(self.events)

    # -- queries ----------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[HistoryEvent]:
        return [e for e in self.events if e.kind in kinds]

    def by_actor(self, actor: str) -> List[HistoryEvent]:
        return [e for e in self.events if e.actor == actor]

    # -- serialization ----------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON-lines form (sorted keys, compact separators).

        Identical runs must produce identical bytes; the golden-history
        tests and the serial-vs-parallel identity guard depend on it.
        """
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in self.events
        ) + ("\n" if self.events else "")

    @classmethod
    def from_canonical(cls, text: str) -> "History":
        events = [
            HistoryEvent.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(events)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical())

    @classmethod
    def load(cls, path) -> "History":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_canonical(fh.read())
