"""The observer tap: how a daemon tells an observer something happened.

Every daemon of a :class:`~repro.cluster.Cluster` (the cluster itself,
each MDS and its journal, each OSD, every client) carries one attribute,
``tap``: ``None`` while nothing observes the cluster, otherwise the
cluster's :class:`Tap`.  An instrumented site is one branch::

    tap = self.tap
    section = None
    if tap is not None:
        section = tap.begin("osd.write", self.name, "rados", obj=name)
    ...
    if section is not None:
        tap.end(section)

A daemon never imports this module and never knows who listens.  The
cluster owns the tap (``Cluster.attach_observer`` /
``detach_observer``) and rebuilds it whenever the set of observers
changes; :class:`~repro.obs.core.Observability`,
:class:`~repro.conformance.recorder.HistoryRecorder` and
:class:`~repro.mds.migrate.HotspotDetector` are the three subscribers.

Vocabulary
----------
Two kinds of record, with fixed names (12 :data:`SECTIONS`, 9
:data:`MARKS`); the fields each carries, the metrics a section feeds
and the history ``kind`` a mark becomes are tabulated once, in
``docs/OBSERVABILITY.md`` ("How observers attach").

* a **section** is a timed leg of work: ``begin(name, daemon,
  mechanism, **fields)`` opens it, ``end(section, **result)`` closes it;
* a **mark** is an instantaneous transition: ``mark(kind, actor,
  **detail)``.

A name outside the vocabulary raises ``KeyError`` — at the emitting
site, or at attach time when a subscriber asks for it — so the
vocabulary cannot drift silently.

Subscribers
-----------
A subscriber declares what it wants and is called for nothing else:

* ``tap_sections`` — the section names it handles, through
  ``begin(name, daemon, mechanism, fields) -> token`` and
  ``end(token, result)`` (``fields`` / ``result`` are the keyword
  dicts; ``token`` is the subscriber's own per-section state);
* ``tap_marks`` — ``{kind: handler(actor, detail)}``.

Observation is pure host-side bookkeeping: a subscriber schedules no
engine events, draws no randomness and touches no simulated state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["MARKS", "SECTIONS", "Tap"]

#: Every section name a daemon may open.
SECTIONS: Tuple[str, ...] = (
    "client.rpc", "client.append", "client.append_op",
    "mds.handle", "mds.apply", "mds.journal.append", "mds.migrate",
    "journal.dispatch", "osd.write", "osd.read", "recover.scan", "mech",
)

#: Every mark kind a daemon may emit.
MARKS: Tuple[str, ...] = (
    "submit", "visible", "persisted", "persist-fault", "object-written",
    "crash", "recover", "merge", "migrate",
)


class Tap:
    """Routes one cluster's sections and marks to its subscribers."""

    __slots__ = ("_sections", "_marks")

    def __init__(self, subscribers: Sequence[object]):
        #: Section name -> its subscribers; mark kind -> its handlers.
        self._sections: Dict[str, tuple] = dict.fromkeys(SECTIONS, ())
        self._marks: Dict[str, tuple] = dict.fromkeys(MARKS, ())
        for sub in subscribers:
            for name in sub.tap_sections:
                self._sections[name] += (sub,)
            for kind, handler in sub.tap_marks.items():
                self._marks[kind] += (handler,)

    def begin(self, name: str, daemon: str, mechanism: str,
              **fields) -> Optional[List[tuple]]:
        """Open section ``name`` at ``daemon``; returns the handle
        :meth:`end` takes, or None when no subscriber wants the section
        (nothing to close)."""
        subscribers = self._sections[name]
        if not subscribers:
            return None
        section = []
        for sub in subscribers:
            section.append((sub, sub.begin(name, daemon, mechanism, fields)))
        return section

    def end(self, section: List[tuple], **result) -> None:
        """Close a section opened by :meth:`begin`.  It reaches the
        subscribers that saw the begin, even if the set of observers
        changed in between."""
        for sub, token in section:
            sub.end(token, result)

    def mark(self, kind: str, actor: str, **detail) -> None:
        """Report an instantaneous transition at ``actor``."""
        for handler in self._marks[kind]:
            handler(actor, detail)
