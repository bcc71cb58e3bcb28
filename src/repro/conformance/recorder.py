"""History recording: lightweight hooks over a live cluster.

``HistoryRecorder.attach(cluster)`` subscribes to the cluster's
observer tap (:mod:`repro.obs.tap`; vocabulary in
``docs/OBSERVABILITY.md``) and turns what the daemons report into
history events:

* the ``client.rpc`` / ``client.append`` / ``client.append_op``
  sections become operation invocations and completions;
* clients and the MDS mark crashes, recoveries, local persists and
  persist faults; the MDS marks the moment a mutation becomes globally
  visible (its authoritative store changed), merge windows (Volatile
  Apply), what it journaled and what a migration lifted back out;
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
    from repro.mds.server import MetadataServer

__all__ = ["HistoryRecorder"]

#: Striped journal object names: "<owner>.journal.<hex stripe index>"
#: (see :meth:`repro.rados.striper.Striper.object_name`).
_JOURNAL_OBJECT = re.compile(r"^(?P<owner>[A-Za-z0-9_]+)\.journal\.[0-9a-f]+$")
#: History op names, by journal op code (an ``EventType`` or its int).
_OP_NAMES = {op: op.name.lower() for op in EventType}


class HistoryRecorder:
    """Builds a :class:`~repro.conformance.history.History` from what
    the cluster's daemons report through the observer tap."""

    #: The tap sections that are client operations.
    tap_sections = ("client.rpc", "client.append", "client.append_op")

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.history = History()
        self._next_op_id = 1
        self._attached = False
        #: Highest journal seq already recorded as persisted, per
        #: (owner name, scope) — persists are idempotent snapshots, the
        #: history wants each update persisted once per scope.
        self._persist_marks: Dict[tuple, int] = {}
        #: Real (materialized) events the MDS has journaled, per MDS
        #: name, in log order; object-store journal writes are resolved
        #: against it to emit global-persist records.
        self._mds_journaled: Dict[str, List[JournalEvent]] = {}
        self._mds_persisted: Dict[str, int] = {}
        #: Mutation-only persisted seq per MDS (protocol markers ride in
        #: the journal but carry no namespace update to persist).
        self._mds_persisted_muts: Dict[str, int] = {}
        self.tap_marks = {
            "visible": self._on_visible,
            "journaled": self._on_journaled,
            "exported": self._on_exported,
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

    def _emit(self, **kw) -> HistoryEvent:
        return self.history.append(HistoryEvent(t=self.engine.now, **kw))

    # ------------------------------------------------------------------
    # sections: client operations (invocations and completions)
    # ------------------------------------------------------------------
    def begin(self, name: str, daemon: str, mechanism: str, fields: dict):
        """An operation was invoked: one ``invoke`` per affected path
        (an RPC names them through its request; counted appends name
        none).  Returns the actor and the op ids :meth:`end` completes."""
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
        op_ids = []
        for path in paths:
            op_id = self._next_op_id
            self._next_op_id += 1
            self._emit(
                kind="invoke", actor=daemon, op=op, path=path,
                op_id=op_id, client=client_id,
            )
            op_ids.append(op_id)
        return daemon, op_ids

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
        events = result.get("events")
        for i, op_id in enumerate(op_ids):
            extra = {}
            if events is not None and i < len(events):
                extra = {"seq": events[i].seq, "ino": events[i].ino or None}
            self._emit(
                kind="complete", actor=actor, op_id=op_id,
                ok=ok, error=error, **extra,
            )

    # ------------------------------------------------------------------
    # marks: MDS side (visibility, merges, journal mirror, migration)
    # ------------------------------------------------------------------
    def _on_visible(self, actor: str, d: dict) -> None:
        self._emit(
            kind="visible", actor=actor,
            op=_OP_NAMES[d["op"]], path=d["path"],
            ino=d.get("ino") or None, client=d["client"],
            target=d.get("target"),
        )

    def _on_merge(self, actor: str, d: dict) -> None:
        if d["phase"] == "begin":
            detail = {"count": d["count"]}
        else:
            detail = {"applied": d["applied"], "conflicts": d["conflicts"]}
        self._emit(
            kind=f"merge_{d['phase']}", actor=actor, path=d["subtree"],
            client=d["client"], detail=detail,
        )

    def _on_journaled(self, actor: str, d: dict) -> None:
        """The MDS appended real events to its (segmented) journal; they
        become *globally persisted* when their segment's object write
        lands (seen through the OSD's ``object-written`` mark)."""
        self._mds_journaled.setdefault(actor, []).extend(d["events"])

    def _on_exported(self, actor: str, d: dict) -> None:
        """A subtree migration lifted undispatched events out of the
        MDS's open segment; drop their mirror entries.  Extraction
        only ever touches the open segment, which is the tail of the
        mirrored list — always beyond the persisted prefix, so earlier
        ``persisted`` records never referenced these entries."""
        pending = list(d["events"])
        if not pending:
            return
        journaled = self._mds_journaled.get(actor, [])
        idx = len(journaled) - 1
        while pending and idx >= 0:
            ev = journaled[idx]
            cand = pending[-1]
            if (
                ev.op == cand.op
                and ev.path == cand.path
                and ev.target_path == cand.target_path
                and ev.ino == cand.ino
                and ev.client_id == cand.client_id
            ):
                journaled.pop(idx)
                pending.pop()
            idx -= 1
        if pending:
            raise RuntimeError(
                f"{actor}: {len(pending)} exported journal events have "
                "no mirror entry; persist accounting would desynchronize"
            )

    def _on_migrate(self, actor: str, d: dict) -> None:
        """One phase transition of a live subtree migration, marked by
        the source rank: ``begin`` (source froze the subtree),
        ``commit`` (authority switched to the destination) or ``abort``
        (the handoff unwound; the source keeps authority)."""
        detail = dict(d, src=actor)
        subtree = detail.pop("subtree")
        self._emit(kind="migrate", actor=actor, path=subtree, detail=detail)

    # ------------------------------------------------------------------
    # marks: crash / recovery (repro.faults drives these paths)
    # ------------------------------------------------------------------
    def _on_crash(self, actor: str, d: dict) -> None:
        self._emit(kind="crash", actor=actor, detail=dict(d))
        # An MDS crash drops its open (undispatched) segment: trim the
        # same events off the journal mirror's tail so a later segment
        # land never claims the lost events were persisted.  In-flight
        # segments sit earlier in the mirror and are allowed to land.
        lost = d.get("journal_events_lost", 0)
        journaled = self._mds_journaled.get(actor)
        if journaled is not None and lost:
            del journaled[max(0, len(journaled) - lost):]

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
            self._emit(kind="recover", actor=actor, detail=dict(d))
            return
        if "client" in d:
            numbered = [(ev.seq, d["client"], ev) for ev in events]
        else:
            mutations = [ev for ev in events if ev.is_mutation]
            numbered = [
                (i, ev.client_id, ev) for i, ev in enumerate(mutations, 1)
            ]
        for seq, client_id, ev in numbered:
            self._emit(
                kind="recovered", actor=actor,
                op=_OP_NAMES[ev.op], path=ev.path,
                ino=ev.ino or None, seq=seq, client=client_id,
                target=ev.target_path,
            )
        self._emit(
            kind="recover", actor=actor,
            detail={"mode": d["mode"], "restored": len(events)},
        )

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
        for ev in events:
            if ev.seq <= mark:
                continue
            self._emit(
                kind="persisted", actor=actor, scope=scope,
                op=_OP_NAMES[ev.op], path=ev.path,
                ino=ev.ino or None, seq=ev.seq, client=client_id,
            )
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
        self._emit(
            kind="persist_fault", actor=actor, scope=scope,
            client=d["client"],
            detail={
                "damage": scan.damage,
                "mode": d["mode"],
                "valid_events": len(events),
                "valid_seq": valid_seq,
            },
        )
        mark = self._persist_marks.get((actor, scope), 0)
        if valid_seq < mark:
            self._persist_marks[(actor, scope)] = valid_seq

    def _on_object_written(self, actor: str, d: dict) -> None:
        """Bytes landed in (OSD ``actor``'s copy of) an object.

        Journal objects are interpreted into per-update global-persist
        records; everything else is ignored (data-pool traffic carries
        no metadata semantics).  Every replica's OSD marks its own
        write; the per-owner watermark keeps records unique.
        """
        match = _JOURNAL_OBJECT.match(d["obj"])
        if match is None:
            return
        owner = match.group("owner")
        for dclient in self.cluster._dclients:
            if dclient.name == owner:
                self._record_journal_persist(
                    owner, dclient.journal.events, dclient.client_id,
                    scope="global",
                )
                return
        for mds in self.cluster.mds_list:
            if mds.name == owner:
                self._record_mds_global_persist(mds)
                return

    def _record_mds_global_persist(self, mds: "MetadataServer") -> None:
        """A segment of the MDS journal landed in the object store: the
        journaled prefix minus the still-open segment is now durable."""
        journaled = self._mds_journaled.get(mds.name, [])
        durable = len(journaled) - mds.journal.open_real_events
        done = self._mds_persisted.get(mds.name, 0)
        if durable <= done:
            return
        # Persisted records are numbered over *mutations* only, matching
        # the numbering journal-replay recovery uses — migration protocol
        # markers are journaled but carry no namespace update.
        mut_seq = self._mds_persisted_muts.get(mds.name, 0)
        for idx in range(done, durable):
            ev = journaled[idx]
            if not ev.is_mutation:
                continue
            mut_seq += 1
            self._emit(
                kind="persisted", actor=mds.name, scope="global",
                op=_OP_NAMES[ev.op], path=ev.path,
                ino=ev.ino or None, seq=mut_seq, client=ev.client_id,
            )
        self._mds_persisted[mds.name] = durable
        self._mds_persisted_muts[mds.name] = mut_seq

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
        self._emit(
            kind="snapshot", actor=mds.name, path=subtree,
            detail={"entries": sorted(entries)},
        )
