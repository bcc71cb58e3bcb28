"""History recording: lightweight hooks over a live cluster.

``HistoryRecorder.attach(cluster)`` subscribes to the cluster's
observer tap (:mod:`repro.obs.tap`; vocabulary in
``docs/OBSERVABILITY.md``) and turns what the daemons report into
history events:

* the ``client.rpc`` / ``client.append`` / ``client.append_op``
  sections become operation invocations and completions;
* the ``journal.dispatch`` section hands over each MDS journal segment
  as it goes out to the object store;
* clients and the MDS mark crashes, recoveries, local persists and
  persist faults; the MDS marks the moment a mutation becomes globally
  visible (its authoritative store changed) and merge windows
  (Volatile Apply);
* each OSD marks bytes landing in an object, which the recorder
  interprets into *global* persistence events for client and MDS
  journals.

Recording is pure observation: no handler touches the DES engine, so an
instrumented run is simulation-identical to a bare one.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.conformance.history import History, HistoryEvent
from repro.journal.events import EventType, JournalEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["HistoryRecorder"]

#: Striped journal object names: "<owner>.journal.<hex stripe index>"
#: (see :meth:`repro.rados.striper.Striper.object_name`).
_JOURNAL_OBJECT = re.compile(r"^(?P<owner>[A-Za-z0-9_]+)\.journal\.[0-9a-f]+$")
#: History op names, by journal op code (an ``EventType`` or its int).
_OP_NAMES = {op: op.name.lower() for op in EventType}


class HistoryRecorder:
    """Builds a :class:`~repro.conformance.history.History` from what
    the cluster's daemons report through the observer tap."""

    #: The tap sections: client operations and MDS segment dispatch.
    tap_sections = (
        "client.rpc", "client.append", "client.append_op", "journal.dispatch"
    )

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.history = History()
        #: Events are built in one constructor call and appended
        #: straight to the history's list.
        self._append = self.history.events.append
        self._next_op_id = 1
        self._attached = False
        #: Highest journal seq already recorded as persisted, per
        #: (owner name, scope) — persists are idempotent snapshots, the
        #: history wants each update persisted once per scope.
        self._persist_marks: Dict[tuple, int] = {}
        #: Per MDS, the real segments it dispatched that no write to its
        #: journal objects has claimed yet, in dispatch order.
        self._mds_dispatched: Dict[str, List[List[JournalEvent]]] = {}
        #: Mutation-only persisted seq per MDS (protocol markers ride in
        #: the journal but carry no namespace update to persist).
        self._mds_persisted_muts: Dict[str, int] = {}
        self.tap_marks = {
            "visible": self._on_visible,
            "persisted": self._on_persisted,
            "persist-fault": self._on_persist_fault,
            "object-written": self._on_object_written,
            "crash": self._on_crash,
            "recover": self._on_recover,
            "merge": self._on_merge,
            "migrate": self._on_migrate,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, cluster: "Cluster") -> "HistoryRecorder":
        """Create a recorder and subscribe it to ``cluster``'s tap."""
        recorder = cls(cluster)
        cluster.attach_observer(recorder)
        recorder._attached = True
        return recorder

    def detach(self) -> None:
        """Unsubscribe (idempotent)."""
        if not self._attached:
            return
        self._attached = False
        self.cluster.detach_observer(self)

    # ------------------------------------------------------------------
    # sections: client operations (invocations and completions)
    # ------------------------------------------------------------------
    def begin(self, name: str, daemon: str, mechanism: str, fields: dict):
        """An operation was invoked: one ``invoke`` per affected path
        (an RPC names them through its request; counted appends name
        none).  Returns the actor and the op ids :meth:`end` completes.

        A ``journal.dispatch`` begin is an MDS segment going out: it
        waits for the next write to the rank's journal objects (a
        counted segment carries None and is not kept); its end, like an
        unwound section's, carries no ``ok``."""
        if name == "journal.dispatch":
            segment = fields["events"]
            if segment is not None:
                self._mds_dispatched.setdefault(daemon, []).append(segment)
            return None
        request = fields.get("request")
        if request is None:
            paths, client_id = fields["paths"] or (), fields["client"]
        else:
            client_id = request.client_id
            if request.names is not None:
                base = request.path.rstrip("/")
                paths = [f"{base}/{name}" for name in request.names]
            else:
                paths = [request.path]
        op = fields["op"]
        now, append = self.engine.now, self._append
        first = self._next_op_id
        self._next_op_id = first + len(paths)
        for op_id, path in enumerate(paths, first):
            append(HistoryEvent(
                now, "invoke", daemon, op=op, path=path,
                op_id=op_id, client=client_id,
            ))
        return daemon, range(first, self._next_op_id)

    def end(self, token, result: dict) -> None:
        """The operation was acknowledged (``ok`` in the result; a
        section unwound by an exception carries none and completes
        nothing).  ``events`` (decoupled appends) carries the journal
        records the acknowledgement covers, aligning seq/ino per op id.
        """
        if "ok" not in result:
            return
        actor, op_ids = token
        ok, error = result["ok"], result.get("error")
        events = result.get("events") or ()
        now, append = self.engine.now, self._append
        for i, op_id in enumerate(op_ids):
            seq = ino = None
            if i < len(events):
                ev = events[i]
                seq, ino = ev.seq, ev.ino or None
            append(HistoryEvent(
                now, "complete", actor, ino=ino, seq=seq, op_id=op_id,
                ok=ok, error=error,
            ))

    # ------------------------------------------------------------------
    # marks: MDS side (visibility, merges, migration)
    # ------------------------------------------------------------------
    def _on_visible(self, actor: str, d: dict) -> None:
        self._append(HistoryEvent(
            self.engine.now, "visible", actor,
            op=_OP_NAMES[d["op"]], path=d["path"],
            ino=d.get("ino") or None, client=d["client"],
            target=d.get("target"),
        ))

    def _on_merge(self, actor: str, d: dict) -> None:
        if d["phase"] == "begin":
            detail = {"count": d["count"]}
        else:
            detail = {"applied": d["applied"], "conflicts": d["conflicts"]}
        self._append(HistoryEvent(
            self.engine.now, f"merge_{d['phase']}", actor,
            path=d["subtree"], client=d["client"], detail=detail,
        ))

    def _on_migrate(self, actor: str, d: dict) -> None:
        """One phase transition of a live subtree migration, marked by
        the source rank: ``begin`` (source froze the subtree),
        ``commit`` (authority switched to the destination) or ``abort``
        (the handoff unwound; the source keeps authority)."""
        detail = dict(d, src=actor)
        subtree = detail.pop("subtree")
        self._append(HistoryEvent(
            self.engine.now, "migrate", actor, path=subtree, detail=detail,
        ))

    # ------------------------------------------------------------------
    # marks: crash / recovery (repro.faults drives these paths)
    # ------------------------------------------------------------------
    def _on_crash(self, actor: str, d: dict) -> None:
        self._append(HistoryEvent(
            self.engine.now, "crash", actor, detail=dict(d),
        ))

    def _on_recover(self, actor: str, d: dict) -> None:
        """A daemon finished recovery.  ``events`` is what came back: a
        decoupled client's journal (it names the ``client``; the events
        carry their own seq) or the MDS's replayed log, numbered by
        journal position over mutations (matching the global-persist
        records, which index the same log) — MDS-side JournalEvents
        carry no client-journal seq of their own.  An RPC client
        restores nothing."""
        events = d.get("events")
        if events is None:
            self._append(HistoryEvent(
                self.engine.now, "recover", actor, detail=dict(d),
            ))
            return
        if "client" in d:
            numbered = [(ev.seq, d["client"], ev) for ev in events]
        else:
            mutations = [ev for ev in events if ev.is_mutation]
            numbered = [
                (i, ev.client_id, ev) for i, ev in enumerate(mutations, 1)
            ]
        now, append = self.engine.now, self._append
        for seq, client_id, ev in numbered:
            append(HistoryEvent(
                now, "recovered", actor,
                op=_OP_NAMES[ev.op], path=ev.path,
                ino=ev.ino or None, seq=seq, client=client_id,
                target=ev.target_path,
            ))
        append(HistoryEvent(
            now, "recover", actor,
            detail={"mode": d["mode"], "restored": len(events)},
        ))

    # ------------------------------------------------------------------
    # marks: persistence
    # ------------------------------------------------------------------
    def _on_persisted(self, actor: str, d: dict) -> None:
        """Local Persist landed: the client's journal events up to the
        current tail are now safe on its own disk."""
        self._record_journal_persist(
            actor, d["events"], d["client"], d["scope"]
        )

    def _record_journal_persist(
        self, actor: str, events: Sequence[JournalEvent], client_id: int,
        scope: str,
    ) -> None:
        mark = self._persist_marks.get((actor, scope), 0)
        now, append = self.engine.now, self._append
        for ev in events:
            if ev.seq <= mark:
                continue
            append(HistoryEvent(
                now, "persisted", actor, scope=scope,
                op=_OP_NAMES[ev.op], path=ev.path,
                ino=ev.ino or None, seq=ev.seq, client=client_id,
            ))
            mark = ev.seq
        self._persist_marks[(actor, scope)] = mark

    def _on_persist_fault(self, actor: str, d: dict) -> None:
        """A persist landed damaged: the on-media image verifies only up
        to ``scan``'s valid prefix.  Caps the just-recorded persisted
        claims and rolls the scope's watermark back so a later *clean*
        persist re-claims the updates the damaged image lost."""
        scope, scan = d["scope"], d["scan"]
        events = scan.events
        valid_seq = events[-1].seq if events else 0
        self._append(HistoryEvent(
            self.engine.now, "persist_fault", actor, scope=scope,
            client=d["client"],
            detail={
                "damage": scan.damage,
                "mode": d["mode"],
                "valid_events": len(events),
                "valid_seq": valid_seq,
            },
        ))
        mark = self._persist_marks.get((actor, scope), 0)
        if valid_seq < mark:
            self._persist_marks[(actor, scope)] = valid_seq

    def _on_object_written(self, actor: str, d: dict) -> None:
        """Bytes landed in (OSD ``actor``'s copy of) an object.

        Journal objects are interpreted into per-update global-persist
        records; everything else is ignored (data-pool traffic carries
        no metadata semantics).  Every replica's OSD marks its own
        write; the per-owner watermark keeps records unique.  A write to
        an MDS's journal objects claims every segment the MDS dispatched
        before it, numbered over *mutations* only as journal replay
        numbers them (protocol markers carry no namespace update).
        """
        match = _JOURNAL_OBJECT.match(d["obj"])
        if match is None:
            return
        owner = match.group("owner")
        segments = self._mds_dispatched.get(owner)
        if segments is None:
            for dclient in self.cluster._dclients:
                if dclient.name == owner:
                    self._record_journal_persist(
                        owner, dclient.journal.events, dclient.client_id,
                        scope="global",
                    )
                    break
            return
        seq = self._mds_persisted_muts.get(owner, 0)
        now, append = self.engine.now, self._append
        for segment in segments:
            for ev in segment:
                if ev.is_mutation:
                    seq += 1
                    append(HistoryEvent(
                        now, "persisted", owner, scope="global",
                        op=_OP_NAMES[ev.op], path=ev.path,
                        ino=ev.ino or None, seq=seq, client=ev.client_id,
                    ))
        segments.clear()
        self._mds_persisted_muts[owner] = seq

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def record_snapshot(self, mds: "MetadataServer", subtree: str) -> None:
        """Record the authoritative namespace under ``subtree`` (sorted
        ``path:kind`` entries) as one snapshot event."""
        entries = []
        if mds.config.materialize:
            prefix = "/" + "/".join(p for p in subtree.split("/") if p)
            prefix = prefix.rstrip("/") + "/"
            for ino, frag in mds.mdstore.dirfrags.items():
                base = mds.mdstore.path_of(ino)
                if base is None:
                    continue
                for name, child in frag.entries.items():
                    path = base.rstrip("/") + "/" + name
                    if not path.startswith(prefix):
                        continue
                    kind = "dir" if mds.mdstore.inodes[child].is_dir else "file"
                    entries.append(f"{path}:{kind}")
        self._append(HistoryEvent(
            self.engine.now, "snapshot", mds.name, path=subtree,
            detail={"entries": sorted(entries)},
        ))
