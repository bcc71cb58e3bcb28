"""Live subtree migration between MDS ranks.

The paper scopes its evaluation to one metadata server and defers load
balancing to "something like Mantle".  This module supplies the missing
motion primitive: :func:`migrate_subtree` moves a subtree's metadata
rows, capability records, InoTable allocation ranges and undispatched
journal events from one rank to another **without stopping traffic**.

Protocol (two-phase, journaled on both ranks)
---------------------------------------------
1. **EXPORT_PREP** — the coordinator submits an ``export_prep`` request
   through the source's ordinary queue.  The single-threaded serve loop
   gives implicit quiescence (every earlier op has committed); the
   handler freezes the subtree and journals the EXPORT_PREP intent
   marker.  Requests arriving under the frozen subtree wait at the
   dispatch prologue — traffic stalls briefly, it is never rejected.
2. **Frozen-window transfer** — mdstore rows (parent-first), capability
   records for the moved directories, the owner client's InoTable
   ranges and the open segment's subtree events are detached from the
   source and shipped ``src -> dst`` over the simulated network.
3. **IMPORT_COMMIT** — the destination installs the bundles and
   journals the imported rows, the moved events and the IMPORT_COMMIT
   marker.  From this record on, the destination's own recovery replay
   rebuilds the subtree; the handoff survives a source crash.
4. **IMPORT_ACK + authority flip** — the destination acks, and the
   monitor's MDS authority map retargets the subtree (epoch bump,
   distributed to subscribers).  Stale-rank requests now get an
   ``EREDIRECT`` reply and retry against the new authority through the
   client's bounded-backoff path.
5. **EXPORT_COMMIT** — the source journals the release marker and
   unfreezes.

A crash on either rank before the authority flip aborts the migration
(authority stays with the source; extracted state is reinstalled when
the source survives, and is otherwise rebuilt by its recovery replay,
exactly as a plain crash would).  After IMPORT_COMMIT the migration
completes even if the source dies — the destination's journal holds the
subtree.  Either way exactly one rank serves the subtree, which the
conformance checkers verify from the recorded ``migrate`` phases.

:class:`HotspotDetector` closes the loop policy-side: attached to the
cluster's observer tap it counts the ops each rank handles per subtree
— the MDS's own load report, nothing of ``repro.obs`` involved — and
proposes moving the hottest subtree of the busiest rank to the
least-loaded rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import calibration as cal
from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES
from repro.mds.mdstore import FsError
from repro.mds.server import MDSDownError, Request
from repro.sim.engine import Event
from repro.sim.network import PartitionError

__all__ = ["MigrationResult", "migrate_subtree", "HotspotDetector"]

#: Serialized size of one exported metadata row on the wire (an inode
#: plus its dentry — the same order of magnitude as a journal event).
ROW_BYTES = cal.JOURNAL_EVENT_BYTES

#: Coordinator phases, in protocol order; ``phase_hook`` fires before
#: each one so fault tests can crash a rank at exact protocol points.
PHASES = ("export_prep", "transfer", "import", "flip", "commit")


@dataclass
class MigrationResult:
    """Outcome of one :func:`migrate_subtree` run."""

    subtree: str
    src: str
    dst: str
    status: str  # "done" | "aborted" | "noop"
    reason: str = ""
    epoch: int = 0
    rows: int = 0
    caps: int = 0
    ino_ranges: int = 0
    moved_events: int = 0
    frozen_s: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("done", "noop")


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"subtree paths must be absolute: {path!r}")
    return "/" + "/".join(p for p in path.split("/") if p)


def _ensure_ancestors(store, subtree: str) -> None:
    """Create the subtree root's ancestor chain (import-side, zero cost
    — mirrors ``Cudele._ensure_path``'s administration bookkeeping)."""
    parts = [p for p in subtree.split("/") if p]
    cur = ""
    for part in parts[:-1]:
        cur += "/" + part
        try:
            store.mkdir(cur)
        except FsError as exc:
            if exc.code != "EEXIST":
                raise


def _synthesize_rows(
    rows: Sequence[Tuple[str, object]], now: float
) -> List[JournalEvent]:
    """Journal events that rebuild the imported rows on replay
    (parent-first, matching the export walk)."""
    events: List[JournalEvent] = []
    for path, inode in rows:
        op = EventType.MKDIR if inode.is_dir else EventType.CREATE
        events.append(
            JournalEvent(
                op, path, ino=inode.ino, mode=inode.mode,
                uid=inode.uid, gid=inode.gid, mtime=now,
            )
        )
    return events


def migrate_subtree(
    cluster,
    subtree: str,
    dst_rank: int,
    phase_hook: Optional[Callable[[str], None]] = None,
) -> Generator[Event, None, MigrationResult]:
    """Migrate ``subtree`` to MDS rank ``dst_rank`` (process body).

    ``phase_hook(phase)`` is called immediately before each protocol
    phase (see :data:`PHASES`) — the crash-mid-migration fault matrix
    uses it to fail a rank at exact handoff points.  Returns a
    :class:`MigrationResult`; never raises for rank crashes — those
    abort (or, post-IMPORT_COMMIT, complete) the handoff as the
    protocol prescribes.
    """
    subtree = _normalize(subtree)
    if subtree == "/":
        raise ValueError("cannot migrate the root")
    if not 0 <= dst_rank < len(cluster.mds_list):
        raise ValueError(f"no MDS rank {dst_rank}")
    src = cluster.mds_for(subtree)
    dst = cluster.mds_list[dst_rank]
    tap = cluster.tap
    result = MigrationResult(
        subtree=subtree, src=src.name, dst=dst.name, status="noop"
    )
    if src is dst:
        return result
    if not (src.config.materialize and dst.config.materialize):
        raise ValueError(
            "subtree migration requires materialized metadata stores"
        )

    section = None
    if tap is not None:
        section = tap.begin(
            "mds.migrate", src.name, "migrate", subtree=subtree, dst=dst.name
        )

    def _mark_phase(phase: str, epoch: int, **extra) -> None:
        if tap is not None:
            tap.mark(
                "migrate", src.name, subtree=subtree, dst=dst.name,
                phase=phase, epoch=epoch, **extra,
            )

    def _finish(status: str, reason: str = "") -> MigrationResult:
        result.status = status
        result.reason = reason
        if section is not None:
            if status == "done":
                tap.end(
                    section, status=status, frozen_s=result.frozen_s,
                    rows=float(result.rows),
                    moved_events=float(result.moved_events),
                )
            else:
                tap.end(section, status=status)
        return result

    def _abort(reason: str) -> MigrationResult:
        _mark_phase("abort", cluster.mon.mds_epoch, reason=reason)
        return _finish("aborted", reason)

    # -- phase 1: EXPORT_PREP (freeze + intent marker at the source) -----
    if phase_hook is not None:
        phase_hook("export_prep")
    t0 = cluster.engine.now
    try:
        resp = yield src.submit(Request("export_prep", subtree, 0))
    except MDSDownError:
        return _finish("aborted", "src-down-at-prep")
    if not resp.ok:
        return _finish("aborted", f"prep-refused: {resp.error}")
    freeze_start = cluster.engine.now
    result.timings["prep_s"] = freeze_start - t0
    _mark_phase("begin", cluster.mon.mds_epoch)

    # -- phase 2: frozen-window state transfer ---------------------------
    if phase_hook is not None:
        phase_hook("transfer")
    if not src.up:
        # The crash released the freeze and wiped the source's memory;
        # its recovery replay rebuilds the subtree to the durable
        # boundary, so there is nothing to reinstall.
        return _abort("src-crashed-in-transfer")
    try:
        rows = src.mdstore.export_subtree(subtree)
    except FsError:
        rows = []  # nothing materialized under the subtree yet
    dir_inos = [inode.ino for _path, inode in rows if inode.is_dir]
    caps_bundle = src.caps.export_dirs(dir_inos)
    policy = cluster.mon.resolve(subtree)
    owner = getattr(policy, "owner_client", None) if policy is not None else None
    ino_bundle = (
        src.mdstore.inotable.extract_client(owner) if owner is not None
        else None
    )
    # The exporter's allocation cursor rides along: the importer must
    # never mint a number the source already handed out, including
    # burned ones (allocated then unlinked — no surviving row re-marks
    # them consumed on import).
    ino_floor = src.mdstore.inotable.next_free
    moved = src.journal.extract_open(subtree)
    if tap is not None:
        tap.mark("exported", src.name, events=moved)
    result.rows = len(rows)
    result.caps = len(caps_bundle)
    result.ino_ranges = len(ino_bundle["ranges"]) if ino_bundle else 0
    result.moved_events = len(moved)

    def _reinstall_src() -> None:
        # Abort with a live source: hand every bundle back.  InoTable
        # ranges first — import_subtree re-marks row inodes consumed,
        # which the range installer must not see as a collision.
        if ino_bundle is not None:
            src.mdstore.inotable.install_client(ino_bundle)
        if rows:
            src.mdstore.import_subtree(rows)
        if caps_bundle:
            src.caps.import_dirs(caps_bundle)

    nbytes = (
        cal.RPC_MESSAGE_BYTES
        + len(rows) * ROW_BYTES
        + len(moved) * WIRE_EVENT_BYTES
    )
    try:
        yield from cluster.network.send(src.name, dst.name, nbytes)
    except PartitionError:
        if src.up:
            _reinstall_src()
            yield from src.journal_events(moved)
            src.unfreeze_subtree(subtree)
        return _abort("partitioned-in-transfer")

    # -- phase 3: IMPORT_COMMIT at the destination -----------------------
    if phase_hook is not None:
        phase_hook("import")
    if not dst.up:
        if src.up:
            _reinstall_src()
            yield from src.journal_events(moved)
            src.unfreeze_subtree(subtree)
        return _abort("dst-crashed-before-import")
    if ino_bundle is not None:
        dst.mdstore.inotable.install_client(ino_bundle)
    dst.mdstore.inotable.reserve_floor(ino_floor)
    if rows:
        _ensure_ancestors(dst.mdstore, subtree)
        dst.mdstore.import_subtree(rows)
    if caps_bundle:
        dst.caps.import_dirs(caps_bundle)
    import_events = _synthesize_rows(rows, dst.engine.now) + list(moved) + [
        JournalEvent(EventType.IMPORT_COMMIT, subtree, ino=ino_floor,
                     mtime=dst.engine.now)
    ]
    yield from dst.journal_events(import_events)

    # -- phase 4: IMPORT_ACK + authority flip ----------------------------
    if phase_hook is not None:
        phase_hook("flip")
    if not dst.up:
        # The destination died after installing but before taking
        # authority: the map still names the source, so reinstall there
        # (the destination's stale copy is unreachable behind redirects
        # and is rebuilt foreign on its recovery).
        if src.up:
            _reinstall_src()
            yield from src.journal_events(moved)
            src.unfreeze_subtree(subtree)
        return _abort("dst-crashed-before-flip")
    try:
        yield from cluster.network.send(dst.name, src.name, cal.RPC_MESSAGE_BYTES)
    except PartitionError:
        pass  # the ack is advisory; the flip below is the commit point
    epoch = yield from cluster.mon.set_authority(subtree, dst_rank, src=dst.name)
    result.epoch = epoch
    result.frozen_s = cluster.engine.now - freeze_start
    # The flip is the linearization point: record the commit here, so
    # the checkers judge any later crash against the new authority.
    _mark_phase("commit", epoch, rows=result.rows, moved=result.moved_events)

    # -- phase 5: EXPORT_COMMIT + release --------------------------------
    if phase_hook is not None:
        phase_hook("commit")
    if src.up:
        yield from src.journal_events(
            [JournalEvent(EventType.EXPORT_COMMIT, subtree,
                          mtime=src.engine.now)]
        )
        src.unfreeze_subtree(subtree)
    return _finish("done")


class HotspotDetector:
    """Propose migrations from the ops each rank handles per subtree.

    A tap subscriber (``cluster.attach_observer(detector)``; see
    :mod:`repro.obs.tap`): every request an MDS finishes handling adds
    its ``count`` to ``(daemon, governing subtree)``.  Ops handled while
    the detector is not attached are not seen.  :meth:`propose`
    aggregates the counts per rank and proposes moving the hottest
    subtree of the busiest rank to the least-loaded rank.  Pure
    host-side bookkeeping — no engine events — and fully deterministic
    (lowest rank, then lowest path, wins ties).
    """

    tap_sections = ("mds.handle",)

    def __init__(self, cluster, threshold_ops: int = 100):
        self.cluster = cluster
        self.threshold_ops = threshold_ops
        self.tap_marks: Dict[str, Callable] = {}
        #: ``(MDS daemon name, subtree root or "/")`` -> ops handled.
        self.ops: Dict[Tuple[str, str], int] = {}

    def begin(self, name: str, daemon: str, mechanism: str, fields: dict):
        return daemon, fields

    def end(self, token, result: dict) -> None:
        daemon, fields = token
        entry = self.cluster.mon.subtree_entry(fields["path"])
        key = (daemon, entry[0] if entry is not None else "/")
        self.ops[key] = self.ops.get(key, 0) + fields["count"]

    def _scan(self) -> Tuple[Dict[int, int], Dict[Tuple[int, str], int]]:
        per_rank: Dict[int, int] = {
            rank: 0 for rank in range(len(self.cluster.mds_list))
        }
        per_subtree: Dict[Tuple[int, str], int] = {}
        names = {mds.name: rank
                 for rank, mds in enumerate(self.cluster.mds_list)}
        for (daemon, sub), ops in self.ops.items():
            rank = names[daemon]
            per_rank[rank] += ops
            if sub != "/":
                per_subtree[(rank, sub)] = ops
        return per_rank, per_subtree

    def propose(self) -> Optional[Dict[str, object]]:
        """The next migration to run, or None when load is balanced.

        Returns ``{"subtree", "src_rank", "dst_rank", "ops"}`` for the
        hottest migratable subtree when the busiest rank carries at
        least ``threshold_ops`` more traffic than the least loaded one.
        """
        per_rank, per_subtree = self._scan()
        if len(per_rank) < 2:
            return None
        busiest = min(per_rank, key=lambda r: (-per_rank[r], r))
        coolest = min(per_rank, key=lambda r: (per_rank[r], r))
        if busiest == coolest:
            return None
        if per_rank[busiest] - per_rank[coolest] < self.threshold_ops:
            return None
        candidates = sorted(
            (sub for (rank, sub) in per_subtree if rank == busiest),
            key=lambda sub: (-per_subtree[(busiest, sub)], sub),
        )
        if not candidates:
            return None
        sub = candidates[0]
        return {
            "subtree": sub,
            "src_rank": busiest,
            "dst_rank": coolest,
            "ops": per_subtree[(busiest, sub)],
        }
