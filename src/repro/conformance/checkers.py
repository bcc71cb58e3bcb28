"""The conformance checkers: history -> verdict.

:func:`check_history` decides whether one recorded history conforms to
a (consistency, durability) cell of the paper's Table I:

* **strong** — every acknowledged mutation was visible in the MDS's
  authoritative store no later than its acknowledgement;
* **weak** — the owner's updates stay invisible outside Volatile Apply
  merge windows, and every surviving update converges at merge time;
* **invisible** — the owner's updates never become globally visible;
* **none / local / global durability** — what recovery restores after a
  crash equals exactly the prefix the durability scope persisted;
* always — well-formedness (completions match invocations, time never
  runs backwards, inode allocations are unique, persists land in
  order) and a full replay of the visible history through the
  :class:`~repro.conformance.model.ReferenceModel`, compared against
  the driver's end-of-run snapshot.

Each distinct failure mode carries a distinct stable code (the
negative-path tests assert on them); verdicts serialize to canonical
JSON so golden runs are byte-comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.conformance.history import History, HistoryEvent, MUTATION_OPS
from repro.conformance.model import ReferenceModel

__all__ = ["Violation", "VIOLATION_CODES", "check_history", "verdict_json"]

#: Every code a checker can emit (documented contract; tests assert
#: distinctness of the negative-path injections against this set).
VIOLATION_CODES = (
    "complete-without-invoke",
    "time-reversed",
    "dup-ino-allocation",
    "persist-prefix-reorder",
    "strong-unseen-completion",
    "weak-early-visibility",
    "weak-not-converged",
    "invisible-cross-client-visibility",
    "durability-none-survivor",
    "durability-local-lost",
    "durability-local-phantom",
    "durability-global-lost",
    "durability-global-phantom",
    "corrupt-recovery-lost",
    "corrupt-recovery-overrun",
    "model-divergence",
    "strict-merge-unapplied",
    "strict-global-unflushed",
    "migrate-incomplete-handoff",
    "migrate-dual-authority",
)


@dataclass
class Violation:
    """One conformance failure, anchored to the history."""

    code: str
    message: str
    t: Optional[float] = None
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in VIOLATION_CODES:
            raise ValueError(f"unknown violation code {self.code!r}")

    def to_dict(self) -> Dict:
        out = {"code": self.code, "message": self.message}
        if self.t is not None:
            out["t"] = self.t
        if self.path is not None:
            out["path"] = self.path
        return out


def _mds_actors(history: History) -> set:
    """Actors that are metadata servers, inferred from the roles only an
    MDS plays in a history (merge windows, journal-replay recoveries,
    namespace snapshots, crashes that lose journal events)."""
    actors = set()
    for e in history:
        if e.kind in ("merge_begin", "merge_end", "snapshot"):
            actors.add(e.actor)
        elif e.kind == "recover" and e.detail.get("mode") == "journal-replay":
            actors.add(e.actor)
        elif e.kind == "crash" and "journal_events_lost" in e.detail:
            actors.add(e.actor)
        elif e.kind == "migrate":
            for role in ("src", "dst"):
                name = e.detail.get(role)
                if name:
                    actors.add(name)
    return actors


def _infer_owner(history: History) -> Optional[str]:
    for e in history:
        if e.kind == "invoke":
            return e.actor
    return None


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------


def _check_wellformed(history: History, out: List[Violation]) -> None:
    last_t = float("-inf")
    invokes: Dict[int, HistoryEvent] = {}
    alloc: Dict[int, str] = {}
    persist_marks: Dict[Tuple[str, str], int] = {}
    for e in history:
        if e.t < last_t:
            out.append(Violation(
                "time-reversed",
                f"{e.kind} by {e.actor} at t={e.t} after t={last_t}",
                t=e.t, path=e.path,
            ))
        last_t = max(last_t, e.t)
        if e.kind == "invoke" and e.op_id is not None:
            invokes[e.op_id] = e
        elif e.kind == "complete":
            inv = invokes.get(e.op_id)
            if inv is None:
                out.append(Violation(
                    "complete-without-invoke",
                    f"completion of op_id={e.op_id} by {e.actor} has no "
                    "matching invocation",
                    t=e.t,
                ))
            elif e.t < inv.t:
                out.append(Violation(
                    "time-reversed",
                    f"op_id={e.op_id} completed at t={e.t} before its "
                    f"invocation at t={inv.t}",
                    t=e.t, path=inv.path,
                ))
            if e.ok and e.ino:
                inv_op = inv.op if inv is not None else None
                inv_path = inv.path if inv is not None else None
                if inv_op in ("create", "mkdir") and inv_path is not None:
                    _note_alloc(alloc, e.ino, inv_path, e.t, out)
        elif e.kind == "visible" and e.op in ("create", "mkdir") and e.ino:
            _note_alloc(alloc, e.ino, e.path, e.t, out)
        elif e.kind == "persisted" and e.seq is not None:
            key = (e.actor, e.scope or "")
            mark = persist_marks.get(key, 0)
            if e.seq <= mark:
                out.append(Violation(
                    "persist-prefix-reorder",
                    f"{e.actor} persisted seq={e.seq} ({e.scope}) after "
                    f"seq={mark}; persisted prefixes must extend in order",
                    t=e.t, path=e.path,
                ))
            persist_marks[key] = max(mark, e.seq)
        elif e.kind == "persist_fault":
            # The damaged image supersedes the claims just recorded: a
            # later clean persist legitimately re-claims from the valid
            # prefix, so the in-order watermark rolls back with it.
            key = (e.actor, e.scope or "")
            valid_seq = e.detail.get("valid_seq", 0)
            if valid_seq < persist_marks.get(key, 0):
                persist_marks[key] = valid_seq


def _note_alloc(
    alloc: Dict[int, str], ino: int, path: str, t: float,
    out: List[Violation],
) -> None:
    seen = alloc.get(ino)
    if seen is not None and seen != path:
        out.append(Violation(
            "dup-ino-allocation",
            f"inode {ino} allocated for both {seen} and {path}",
            t=t, path=path,
        ))
    alloc.setdefault(ino, path)


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def _check_strong(
    history: History, owner: str, out: List[Violation]
) -> None:
    """Strong: an acknowledged mutation is already globally visible."""
    invokes = {
        e.op_id: e for e in history
        if e.kind == "invoke" and e.actor == owner and e.op_id is not None
    }
    visible = {}  # (op, path) -> earliest visible t
    for e in history:
        if e.kind == "visible":
            key = (e.op, e.path)
            if key not in visible:
                visible[key] = e.t
    for e in history:
        if e.kind != "complete" or e.actor != owner or not e.ok:
            continue
        inv = invokes.get(e.op_id)
        if inv is None or inv.op not in MUTATION_OPS:
            continue
        t_vis = visible.get((inv.op, inv.path))
        if t_vis is None or t_vis > e.t:
            out.append(Violation(
                "strong-unseen-completion",
                f"{inv.op} {inv.path} acknowledged at t={e.t} but not "
                "visible in the authoritative store by then",
                t=e.t, path=inv.path,
            ))


def _check_weak(
    history: History, owner: str, owner_client: Optional[int],
    out: List[Violation],
) -> None:
    """Weak: invisible until Volatile Apply, then fully merged."""
    depth = 0
    journal: Dict[int, str] = {}  # surviving journal: seq -> path
    pending_count: Optional[int] = None
    for e in history:
        if e.kind == "complete" and e.actor == owner and e.ok and e.seq:
            journal[e.seq] = e.path or ""
        elif e.kind == "crash" and e.actor == owner:
            journal.clear()
        elif e.kind == "recovered" and e.actor == owner and e.seq:
            journal[e.seq] = e.path or ""
        elif e.kind == "merge_begin":
            depth += 1
            if e.client == owner_client:
                # The shipped count may differ from the journal length:
                # conflict resolution rewrites the stream before it
                # ships.  Convergence is judged on what the MDS resolved.
                pending_count = e.detail.get("count")
        elif e.kind == "merge_end":
            depth = max(0, depth - 1)
            if e.client == owner_client:
                applied = e.detail.get("applied", 0)
                conflicts = e.detail.get("conflicts", 0)
                if pending_count is not None and \
                        applied + conflicts != pending_count:
                    out.append(Violation(
                        "weak-not-converged",
                        f"merge resolved {applied}+{conflicts} of "
                        f"{pending_count} shipped updates",
                        t=e.t, path=e.path,
                    ))
                journal.clear()
                pending_count = None
        elif e.kind == "visible" and e.client == owner_client and depth == 0:
            out.append(Violation(
                "weak-early-visibility",
                f"{e.op} {e.path} became visible outside any Volatile "
                "Apply merge window",
                t=e.t, path=e.path,
            ))
    if journal:
        out.append(Violation(
            "weak-not-converged",
            f"{len(journal)} surviving updates were never merged",
        ))


def _check_invisible(
    history: History, owner: str, owner_client: Optional[int],
    out: List[Violation],
) -> None:
    for e in history:
        if e.kind == "visible" and e.client == owner_client:
            out.append(Violation(
                "invisible-cross-client-visibility",
                f"{e.op} {e.path} by client {e.client} became globally "
                "visible under invisible consistency",
                t=e.t, path=e.path,
            ))
        elif e.kind == "merge_begin" and e.client == owner_client:
            out.append(Violation(
                "invisible-cross-client-visibility",
                f"client {e.client}'s journal was merged at the MDS "
                "under invisible consistency",
                t=e.t, path=e.path,
            ))


# ---------------------------------------------------------------------------
# durability
# ---------------------------------------------------------------------------


def _check_durability(
    history: History, durability: str, owner: str, mds_actors: set,
    out: List[Violation],
) -> None:
    """Recovery must restore exactly the persisted prefix.

    For the owner (decoupled) client the scope is the scenario's
    durability level; for an MDS the journal lives in the object store,
    so its replay is always held to the *global* prefix.

    A ``persist_fault`` record caps the scope's persisted set at the
    damaged image's checksummed-valid prefix: recovery from that image
    must restore exactly the prefix (``corrupt-recovery-lost`` /
    ``corrupt-recovery-overrun`` otherwise).  A later clean persist of
    anything beyond the valid prefix lifts the cap — the damaged image
    was overwritten by an intact one.
    """
    persisted: Dict[Tuple[str, str], Dict[int, str]] = {}
    recovered: Dict[str, List[HistoryEvent]] = {}
    crashed: Dict[str, Dict] = {}
    #: Active damage per (actor, scope): the fault's valid_seq cap.
    faulted: Dict[Tuple[str, str], int] = {}
    for e in history:
        if e.kind == "persisted" and e.seq is not None:
            key = (e.actor, e.scope or "")
            persisted.setdefault(key, {})[e.seq] = e.path or ""
            if key in faulted and e.seq > faulted[key]:
                del faulted[key]
        elif e.kind == "persist_fault":
            key = (e.actor, e.scope or "")
            valid_seq = e.detail.get("valid_seq", 0)
            faulted[key] = valid_seq
            claims = persisted.get(key)
            if claims is not None:
                for seq in [s for s in claims if s > valid_seq]:
                    del claims[seq]
        elif e.kind == "crash":
            crashed[e.actor] = e.detail
            recovered[e.actor] = []
            if e.detail.get("lose_disk"):
                persisted.pop((e.actor, "local"), None)
                faulted.pop((e.actor, "local"), None)
        elif e.kind == "recovered":
            recovered.setdefault(e.actor, []).append(e)
        elif e.kind == "recover":
            if e.actor not in crashed:
                # Plain restart (e.g. Nonvolatile Apply's MDS bounce):
                # nothing was lost, nothing to hold recovery to.
                recovered.pop(e.actor, None)
                continue
            got = {ev.seq: ev.path or "" for ev in recovered.get(e.actor, [])}
            if e.actor in mds_actors:
                _compare_recovery(
                    e, got, persisted.get((e.actor, "global"), {}),
                    "global", out,
                    corrupted=(e.actor, "global") in faulted,
                )
            elif e.actor == owner:
                if durability == "none":
                    if got:
                        out.append(Violation(
                            "durability-none-survivor",
                            f"{e.actor} recovered {len(got)} updates under "
                            "durability 'none' (nothing should survive)",
                            t=e.t,
                        ))
                else:
                    _compare_recovery(
                        e, got,
                        persisted.get((e.actor, durability), {}),
                        durability, out,
                        corrupted=(e.actor, durability) in faulted,
                    )
            crashed.pop(e.actor, None)
            recovered.pop(e.actor, None)


def _compare_recovery(
    marker: HistoryEvent, got: Dict[int, str], expected: Dict[int, str],
    scope: str, out: List[Violation],
    corrupted: bool = False,
) -> None:
    """Hold recovered updates to the persisted set.

    When the image recovery read was damaged (``corrupted``), the
    expected set is already capped at the checksummed-valid prefix and
    the mismatch codes change: losing part of the *valid* prefix is
    ``corrupt-recovery-lost``; restoring anything past it means recovery
    trusted bytes whose checksums cannot vouch for them
    (``corrupt-recovery-overrun``).
    """
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing:
        paths = ", ".join(expected[s] for s in missing[:3])
        if corrupted:
            out.append(Violation(
                "corrupt-recovery-lost",
                f"{marker.actor} recovery from a damaged {scope} image "
                f"lost {len(missing)} updates of the checksummed-valid "
                f"prefix (e.g. {paths})",
                t=marker.t,
            ))
        else:
            out.append(Violation(
                f"durability-{scope}-lost",
                f"{marker.actor} recovery lost {len(missing)} {scope}ly "
                f"persisted updates (e.g. {paths})",
                t=marker.t,
            ))
    if extra:
        paths = ", ".join(got[s] for s in extra[:3])
        if corrupted:
            out.append(Violation(
                "corrupt-recovery-overrun",
                f"{marker.actor} recovery from a damaged {scope} image "
                f"restored {len(extra)} updates past the checksummed-"
                f"valid prefix (e.g. {paths})",
                t=marker.t,
            ))
        else:
            out.append(Violation(
                f"durability-{scope}-phantom",
                f"{marker.actor} recovery produced {len(extra)} updates "
                f"never {scope}ly persisted (e.g. {paths})",
                t=marker.t,
            ))


# ---------------------------------------------------------------------------
# strict (opt-in) completeness checkers
# ---------------------------------------------------------------------------


def _check_strict_merge(
    history: History, owner: str, owner_client: Optional[int],
    out: List[Violation],
) -> None:
    """Strict merge convergence for weak rows (opt-in).

    Every acknowledged owner create/mkdir still in the journal when a
    merge window closes must have become *visible* with the owner's
    client id — the count bookkeeping in :func:`_check_weak` cannot see
    updates that conflict resolution silently dropped before applying
    (the ``merge-priority-flip`` mutant's keep-existing rule passes
    it), so the strict tier holds the merge to the actual journal
    contents.  Crashes clear the tracked journal exactly as they clear
    the real one, so losing unpersisted updates to a crash stays legal.

    Scenario caveat (why this is opt-in): conflict resolution may
    legitimately satisfy an owner MKDIR by keeping an existing
    directory, without an owner-attributed visible event.  The model
    checker's bounded workloads avoid that shape; free-form conformance
    scenarios may not, so :func:`check_history` only runs this under
    ``strict=True``.

    Cascading loss is excused: when a crash legitimately eats a journal
    entry (durability permitting), later acknowledged ops *under* the
    lost path are orphans the merge cannot apply — they surface only
    because their parent was lawfully lost, so they are not silent
    drops.  The lost set shrinks again when recovery restores an entry.
    """
    invokes: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    journal: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    visible = set()
    lost_paths: set = set()

    def _orphaned(path: Optional[str]) -> bool:
        if path is None:
            return False
        return any(
            path.startswith(lost.rstrip("/") + "/") for lost in lost_paths
            if lost
        )

    for e in history:
        if e.kind == "invoke" and e.actor == owner and e.op_id is not None:
            invokes[e.op_id] = (e.op, e.path)
        elif e.kind == "complete" and e.actor == owner and e.ok and e.seq:
            op, path = invokes.get(e.op_id, (None, None))
            journal[e.seq] = (op, path if path is not None else e.path)
        elif e.kind == "crash" and e.actor == owner:
            lost_paths.update(
                journal[seq][1] for seq in sorted(journal)
                if journal[seq][1]
            )
            journal.clear()
        elif e.kind == "recovered" and e.actor == owner and e.seq:
            journal[e.seq] = (e.op, e.path)
            lost_paths.discard(e.path)
        elif e.kind == "visible" and e.client == owner_client:
            visible.add((e.op, e.path))
        elif e.kind == "merge_end" and e.client == owner_client:
            for seq in sorted(journal):
                op, path = journal[seq]
                if op not in ("create", "mkdir"):
                    continue
                if (op, path) in visible or _orphaned(path):
                    continue
                out.append(Violation(
                    "strict-merge-unapplied",
                    f"acknowledged {op} {path} (seq={seq}) survived to "
                    "the merge but never became visible with the "
                    "owner's client id",
                    t=e.t, path=path,
                ))
            journal.clear()


def _check_strict_persist(
    history: History, owner: str, mds_actors: set, out: List[Violation],
) -> None:
    """Strict global-persist completeness for strong+global (opt-in).

    Under RPCs + Stream, every acknowledged owner mutation is journaled
    at the MDS and the completion flush must push it to the object
    store: by the end of the history each acked create/mkdir path must
    carry an MDS ``persisted`` record with global scope.  The prefix
    comparison in :func:`_check_durability` cannot see a dropped flush
    (a shorter persisted prefix is still a valid prefix); this tier
    can.  An MDS crash legitimately sheds acked-but-undispatched
    updates (strong+global only guarantees what Stream flushed), so
    the acked set resets at an MDS crash like the journal it mirrors.
    """
    invokes: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    acked: List[Tuple[str, str, float]] = []
    persisted_paths = set()
    for e in history:
        if e.kind == "invoke" and e.actor == owner and e.op_id is not None:
            invokes[e.op_id] = (e.op, e.path)
        elif e.kind == "complete" and e.actor == owner and e.ok:
            op, path = invokes.get(e.op_id, (None, None))
            if op in ("create", "mkdir") and path is not None:
                acked.append((op, path, e.t))
        elif e.kind == "crash" and e.actor in mds_actors:
            acked.clear()
        elif e.kind == "persisted" and e.actor in mds_actors and \
                (e.scope or "") == "global":
            persisted_paths.add(e.path or "")
    for op, path, t in acked:
        if path not in persisted_paths:
            out.append(Violation(
                "strict-global-unflushed",
                f"acknowledged {op} {path} never reached the object "
                "store (no global persisted record by any MDS)",
                t=t, path=path,
            ))


# ---------------------------------------------------------------------------
# migrations
# ---------------------------------------------------------------------------


def _covering_subtree(path: Optional[str], authority: Dict[str, str]):
    """The most specific migrated subtree covering ``path``, if any."""
    if not path:
        return None
    best = None
    for sub in authority:
        if path == sub or path.startswith(sub.rstrip("/") + "/"):
            if best is None or len(sub) > len(best):
                best = sub
    return best


def _foreign_to(path: Optional[str], actor: str,
                authority: Dict[str, str]) -> bool:
    """Whether ``path`` lies in a migrated subtree owned by another
    actor (``actor``'s copy of it is stale and unobservable)."""
    sub = _covering_subtree(path, authority)
    return sub is not None and authority[sub] != actor


def _track_authority(e: HistoryEvent, authority: Dict[str, str],
                     pending: Dict[str, HistoryEvent]) -> None:
    """Advance the subtree->authority map through one migrate record."""
    phase = e.detail.get("phase")
    if phase == "begin":
        # Before its first migration the subtree's authority is the
        # migration's source.
        authority.setdefault(e.path, e.detail.get("src"))
        pending[e.path] = e
    elif phase == "commit":
        pending.pop(e.path, None)
        authority[e.path] = e.detail.get("dst")
    elif phase == "abort":
        pending.pop(e.path, None)


def _check_migrations(
    history: History, mds_actors: set, out: List[Violation]
) -> None:
    """Exactly-one-authority over live subtree migrations.

    Every ``begin`` must be closed by a ``commit`` or an ``abort``
    (``migrate-incomplete-handoff`` — e.g. a dropped IMPORT_ACK leaves
    the handoff dangling), and once a migration commits, only the new
    authority may make updates under the subtree visible
    (``migrate-dual-authority``).
    """
    authority: Dict[str, str] = {}
    pending: Dict[str, HistoryEvent] = {}
    for e in history:
        if e.kind == "migrate":
            _track_authority(e, authority, pending)
        elif e.kind == "visible" and authority and e.actor in mds_actors:
            sub = _covering_subtree(e.path, authority)
            if sub is not None and authority[sub] != e.actor:
                out.append(Violation(
                    "migrate-dual-authority",
                    f"{e.actor} made {e.op} {e.path} visible but "
                    f"{authority[sub]} holds the authority for {sub}",
                    t=e.t, path=e.path,
                ))
    for sub in sorted(pending):
        e = pending[sub]
        out.append(Violation(
            "migrate-incomplete-handoff",
            f"migration of {sub} from {e.detail.get('src')} to "
            f"{e.detail.get('dst')} began at t={e.t} but never committed "
            "or aborted",
            t=e.t, path=sub,
        ))


# ---------------------------------------------------------------------------
# model replay
# ---------------------------------------------------------------------------


def _commits_next(history: History, idx: int, sub: str) -> bool:
    """Whether ``sub``'s in-flight migration goes on to commit — i.e.
    the next migrate record for ``sub`` after position ``idx`` is a
    commit.  Used at a mid-handoff source crash: a committing handoff
    means the subtree's state had already moved to the destination."""
    for e in history.events[idx + 1:]:
        if e.kind == "migrate" and e.path == sub:
            return e.detail.get("phase") == "commit"
    return False


def _carry_subtrees(old: ReferenceModel, subs: List[str]) -> ReferenceModel:
    """A fresh model seeded with ``old``'s entries under ``subs`` (the
    migrated subtrees an MDS crash did *not* wipe, because their
    authority — and their state — lives on another rank)."""
    fresh = ReferenceModel()
    for sub in sorted(subs):
        prefix = sub.rstrip("/") + "/"
        for path in sorted(old.nodes):
            if path != sub and not path.startswith(prefix):
                continue
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in fresh.nodes:
                fresh.ensure_dirs(parent)
            node = old.nodes[path]
            fresh.nodes[path] = node
            if node.ino:
                fresh.used_inos.add(node.ino)
    return fresh


def _check_model(
    history: History, subtree: str, mds_actors: set, out: List[Violation]
) -> None:
    """Replay the visible history through the reference model and hold
    the end-of-run snapshot to the model's namespace.

    Histories with ``migrate`` records get authority-aware crash
    semantics: a crash wipes only the state the crashed rank was
    authoritative for (migrated-away subtrees survive on their new
    rank), and journal-replay recovery applies only the updates the
    recovering rank still owns — its copy of a migrated-away subtree is
    stale and unobservable behind the redirect.  Histories without
    migrate records replay exactly as before.
    """
    model = ReferenceModel()
    # The subtree root is usually admin-created
    # (MetadataServer.ensure_dirs: its MKDIR records are never marked
    # visible, though they appear as persisted once flushed); seed it
    # unless the history itself records a visible mkdir of it.
    if not any(
        e.kind == "visible" and e.op == "mkdir" and e.path == subtree
        for e in history
    ):
        model.ensure_dirs(subtree)
    migrated = any(e.kind == "migrate" for e in history)
    authority: Dict[str, str] = {}
    pending: Dict[str, HistoryEvent] = {}
    if migrated:
        # Seed each migrated subtree's pre-handoff owner up front, so a
        # crash of some *other* rank before the begin record does not
        # wipe the subtree from the model.
        for e in history:
            if e.kind == "migrate":
                authority.setdefault(e.path, e.detail.get("src"))
    snapshot: Optional[HistoryEvent] = None
    for i, e in enumerate(history):
        if e.kind == "migrate":
            _track_authority(e, authority, pending)
        elif e.kind == "visible":
            ok, code = model.apply(
                e.op, e.path, ino=e.ino or 0, target=e.target
            )
            if not ok:
                out.append(Violation(
                    "model-divergence",
                    f"authoritative store accepted {e.op} {e.path} which "
                    f"the reference model rejects ({code})",
                    t=e.t, path=e.path,
                ))
        elif e.kind == "crash" and e.actor in mds_actors:
            # The MDS's in-memory store died; the model mirrors it —
            # except for migrated subtrees whose authority (and state)
            # lives on a rank that did not crash.
            if migrated and authority:
                preserved = {
                    sub for sub, owner in authority.items()
                    if owner != e.actor
                }
                # Mid-handoff crash of the source rank: if the handoff
                # goes on to commit, the subtree's state had already
                # been handed to the destination and survives.
                for sub in sorted(pending):
                    if (authority.get(sub) == e.actor
                            and _commits_next(history, i, sub)):
                        preserved.add(sub)
                model = _carry_subtrees(model, sorted(preserved))
            else:
                model = ReferenceModel()
        elif e.kind == "recovered" and e.actor in mds_actors:
            # Journal replay (MetadataStore.apply_events) skips each
            # event the store refuses; the model replays under the same
            # rule.  A rank's replayed copy of a subtree that migrated
            # away is stale and unobservable (requests redirect) — skip
            # it.
            if migrated and _foreign_to(e.path, e.actor, authority):
                continue
            model.apply(e.op, e.path, ino=e.ino or 0, target=e.target)
        elif e.kind == "snapshot":
            snapshot = e
    if snapshot is not None:
        want = sorted(snapshot.detail.get("entries", []))
        have = sorted(f"{p}:{k}" for p, k in model.paths_under(subtree))
        if want != have:
            missing = sorted(set(have) - set(want))[:3]
            extra = sorted(set(want) - set(have))[:3]
            out.append(Violation(
                "model-divergence",
                "final namespace differs from the model replay "
                f"(model-only: {missing}, store-only: {extra}, "
                f"sizes {len(have)} vs {len(want)})",
                t=snapshot.t, path=snapshot.path,
            ))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def check_history(
    history: History,
    consistency: str,
    durability: str,
    subtree: str = "/",
    owner: Optional[str] = None,
    strict: bool = False,
) -> Dict:
    """Check one history against a semantics cell; returns a verdict.

    The verdict is a plain JSON-able dict: the scenario coordinates,
    event count, the violation list (empty means conformant) and an
    ``ok`` flag.

    ``strict=True`` adds the completeness tier used by the model
    checker (:func:`_check_strict_merge` for weak rows,
    :func:`_check_strict_persist` for strong+global) and marks the
    verdict with ``"strict": true``.  Default verdicts are untouched so
    recorded goldens stay byte-identical.
    """
    if consistency not in ("invisible", "weak", "strong"):
        raise ValueError(f"unknown consistency {consistency!r}")
    if durability not in ("none", "local", "global"):
        raise ValueError(f"unknown durability {durability!r}")
    owner = owner or _infer_owner(history)
    owner_client = None
    for e in history:
        if e.kind == "invoke" and e.actor == owner:
            owner_client = e.client
            break
    mds_actors = _mds_actors(history)

    violations: List[Violation] = []
    _check_wellformed(history, violations)
    if owner is not None:
        if consistency == "strong":
            _check_strong(history, owner, violations)
        elif consistency == "weak":
            _check_weak(history, owner, owner_client, violations)
        else:
            _check_invisible(history, owner, owner_client, violations)
        _check_durability(history, durability, owner, mds_actors, violations)
        if strict:
            if consistency == "weak":
                _check_strict_merge(history, owner, owner_client, violations)
            if (consistency, durability) == ("strong", "global"):
                _check_strict_persist(history, owner, mds_actors, violations)
    _check_migrations(history, mds_actors, violations)
    _check_model(history, subtree, mds_actors, violations)

    verdict = {
        "consistency": consistency,
        "durability": durability,
        "subtree": subtree,
        "owner": owner,
        "events": len(history),
        "ok": not violations,
        "violations": [v.to_dict() for v in violations],
    }
    if strict:
        verdict["strict"] = True
    return verdict


def verdict_json(verdict: Dict) -> str:
    """Canonical (byte-comparable) JSON form of a verdict."""
    return json.dumps(verdict, sort_keys=True, indent=2) + "\n"
