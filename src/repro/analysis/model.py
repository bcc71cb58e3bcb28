"""Exhaustive small-scope model checker for the semantics spectrum.

Small-scope hypothesis, applied to Table I: most composition bugs in
the consistency/durability mechanisms show up already with two clients,
a handful of operations and one subtree — *if* every scheduler
interleaving and every crash point is actually tried.  This module
tries them all:

* the workload is bounded (one decoupled-or-RPC **owner** and one RPC
  **interferer**, ``depth`` owner ops from create/mkdir under one
  subtree, fixed interferer creates — including a same-path conflict
  that exercises merge resolution on weak rows);
* the scheduler is the engine's controlled ready-set hook driven by a
  :class:`~repro.analysis.schedule.ScheduleController`: a run is a
  *schedule* (tuple of choice indices), the DFS extends every decision
  point of every run until the schedule space (not just one lucky seq
  order) is covered;
* each persist-relevant step gets a crash branch: decoupled rows crash
  and recover the owner after each op ``k`` (persist → crash →
  recover, ``lose_disk`` under global durability), strong+global adds
  the MDS journal-replay drill;
* every explored history is judged by the conformance checkers with
  ``strict=True`` (the completeness tier that catches silently-dropped
  merges and flushes), and canonically fingerprinted so distinct
  schedules reaching the same final state dedup.

There is no partial-order reduction: the scope bound (only ties that
span two declared clients are decisions) keeps the full schedule space
small, so every alternative at every decision is run.

Mutation mode seeds a known bug and demands the checker catch it:
``merge-priority-flip`` makes conflict resolution prefer existing
entries (acknowledged owner updates silently vanish at merge time) and
``drop-journal-flush`` turns the MDS journal flush into a no-op
(acknowledged strong+global updates never reach the object store).
Both must produce a shrunk minimal counterexample.

CLI::

    python -m repro.analysis model --cell weak,local --depth 4 --budget 200
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.schedule import Decision, ScheduleController
from repro.cluster import Cluster
from repro.conformance.checkers import check_history
from repro.conformance.driver import CELLS, SEGMENT_EVENTS, SUBTREE
from repro.conformance.history import History
from repro.conformance.recorder import HistoryRecorder
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.journal.events import EventType
from repro.mds.mdstore import MetadataStore
from repro.mds.server import MDSConfig
from repro.rados.striper import Striper

__all__ = [
    "MUTATIONS", "Mutation", "RunResult",
    "run_schedule", "explore_cell", "explore_matrix",
    "state_fingerprint", "model_report_json",
]

#: Owner op scripts, truncated to ``depth``.  ``/job/x`` deliberately
#: collides with an interferer create on decoupled rows so merge-time
#: conflict resolution is always on the explored path.
_OWNER_DECOUPLED: Tuple[Tuple[str, str], ...] = (
    ("create", SUBTREE + "/a0"),
    ("create", SUBTREE + "/x"),
    ("mkdir", SUBTREE + "/d0"),
    ("create", SUBTREE + "/d0/b0"),
    ("create", SUBTREE + "/a1"),
    ("mkdir", SUBTREE + "/d1"),
)
_OWNER_STRONG: Tuple[Tuple[str, str], ...] = (
    ("create", SUBTREE + "/s0"),
    ("mkdir", SUBTREE + "/sd"),
    ("create", SUBTREE + "/sd/s1"),
    ("create", SUBTREE + "/s2"),
    ("create", SUBTREE + "/s3"),
    ("mkdir", SUBTREE + "/sd2"),
)
_INTF_DECOUPLED = (SUBTREE + "/x", SUBTREE + "/i0", SUBTREE + "/i1")
#: Strong rows keep the interferer disjoint: both clients go through
#: RPCs, so a same-path race is just a benign EEXIST.
_INTF_STRONG = (SUBTREE + "/i0", SUBTREE + "/i1", SUBTREE + "/i2")

MAX_DEPTH = len(_OWNER_DECOUPLED)


# ---------------------------------------------------------------------------
# seeded mutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """One seedable bug the model checker must be able to catch."""

    name: str
    description: str
    #: The cell whose drill demonstrates the catch fastest.
    drill_cell: Tuple[str, str]
    #: Install a module-level patch; returns the undo callable.
    patch_module: Optional[Callable[[], Callable[[], None]]] = None
    #: Per-run hook applied to each freshly built cluster.
    arm: Optional[Callable[[Any], None]] = None

    @contextlib.contextmanager
    def active(self):
        undo = self.patch_module() if self.patch_module is not None else None
        try:
            yield self
        finally:
            if undo is not None:
                undo()


def _patch_merge_priority_flip() -> Callable[[], None]:
    orig = MetadataStore.resolve_conflicts

    def keep_existing(store, events):
        """The store wins: drop a journal CREATE / MKDIR whose path the
        store holds, unless the journal itself removed it first."""
        out, settled = [], set()
        for ev in events:
            op, path = ev[0], ev[1]
            if op is EventType.CREATE or op is EventType.MKDIR:
                if path not in settled and store.exists(path):
                    continue
            elif op is EventType.UNLINK or op is EventType.RMDIR:
                settled.add(path)
            out.append(ev)
        return out

    MetadataStore.resolve_conflicts = keep_existing

    def undo():
        MetadataStore.resolve_conflicts = orig

    return undo


def _noop_flush():
    return iter(())


def _arm_drop_journal_flush(cluster) -> None:
    for mds in cluster.mds_list:
        mds.journal.flush = _noop_flush


MUTATIONS: Dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            name="merge-priority-flip",
            description=(
                "conflict resolution prefers existing entries, silently "
                "dropping acknowledged journal updates at merge time"
            ),
            drill_cell=("weak", "local"),
            patch_module=_patch_merge_priority_flip,
        ),
        Mutation(
            name="drop-journal-flush",
            description=(
                "the MDS journal flush becomes a no-op: acknowledged "
                "strong+global updates never reach the object store"
            ),
            drill_cell=("strong", "global"),
            arm=_arm_drop_journal_flush,
        ),
    )
}


# ---------------------------------------------------------------------------
# one controlled run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Everything the explorer needs from one controlled run."""

    verdict: Dict
    fingerprint: str
    decisions: List[Decision]
    taken: List[int]
    history: History

    @property
    def ok(self) -> bool:
        return bool(self.verdict["ok"])

    @property
    def history_text(self) -> str:
        """The run's canonical history, rendered on demand: only a
        counterexample reads it."""
        return self.history.canonical()


def variant_name(crash: Optional[Tuple]) -> str:
    if crash is None:
        return "no-crash"
    if crash[0] == "owner":
        return f"owner-crash@op{crash[1]}"
    return "mds-journal-replay"


def crash_variants(
    consistency: str, durability: str, depth: int
) -> List[Optional[Tuple]]:
    """The crash branches explored for one cell.

    Decoupled rows branch after every owner op (each is a persist-
    relevant step: persist → crash → recover runs inline there);
    strong rows have no decoupled journal to lose mid-run, but
    strong+global gets the post-finalize MDS journal-replay drill.
    """
    if consistency in ("invisible", "weak"):
        return [None] + [("owner", k) for k in range(1, depth + 1)]
    variants: List[Optional[Tuple]] = [None]
    if durability == "global":
        variants.append(("mds",))
    return variants


def state_fingerprint(history) -> str:
    """Canonical hash of the *final state* a history reached.

    Built only from order-insensitive, time-free facts — the closing
    namespace snapshot, which updates became visible/persisted/acked —
    so two schedules that merely permute same-instant ties fingerprint
    equal iff they converged.  (Timestamps are deliberately excluded:
    MDS queueing shifts them across schedules without changing state.)
    """
    snapshot: List[str] = []
    persisted: List[Tuple] = []
    visible: List[Tuple] = []
    acked: List[Tuple] = []
    for e in history:
        if e.kind == "snapshot":
            snapshot = list(e.detail.get("entries", []))
        elif e.kind == "persisted":
            persisted.append(
                (e.actor, e.scope or "", e.seq or 0, e.path or "")
            )
        elif e.kind == "visible":
            visible.append(
                (e.op or "", e.path or "",
                 -1 if e.client is None else e.client)
            )
        elif e.kind == "complete":
            acked.append((e.actor, e.op or "", e.path or "", bool(e.ok)))
    payload = {
        "snapshot": snapshot,
        "persisted": sorted(persisted),
        "visible": sorted(visible),
        "acked": sorted(acked),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _owner_crash_recover(cluster, ns, worker, durability: str):
    """Persist what the cell allows, crash the owner, recover it."""
    if durability != "none":
        yield from run_mechanism(
            ns.policy.durability, MechanismContext(cluster, SUBTREE, ns.dclient)
        )
    worker.crash(lose_disk=(durability == "global"))
    if durability == "global":
        striper = Striper(
            cluster.objstore, "metadata", f"{worker.name}.journal"
        )
        yield from worker.recover_global(striper)
    else:
        yield from worker.recover_local()


def run_schedule(
    consistency: str,
    durability: str,
    schedule: Sequence[int] = (),
    crash: Optional[Tuple] = None,
    depth: int = 4,
    mutation: Optional[Mutation] = None,
    seed: int = 0,
    expose: str = "tagged",
) -> RunResult:
    """Run the bounded workload once under one schedule + crash branch.

    Deterministic: the same arguments always produce the same history
    (the engine is seeded and simulated-time-only; the only freedom is
    the schedule, and the controller replays it exactly).  The
    controlled scheduler is attached only around the concurrent
    workload phase — setup and the finalize tail are single-threaded,
    so controlling them would only inflate the decision space.
    """
    depth = max(1, min(depth, MAX_DEPTH))
    cluster = Cluster(
        seed=seed, mds_config=MDSConfig(segment_events=SEGMENT_EVENTS)
    )
    if mutation is not None and mutation.arm is not None:
        mutation.arm(cluster)
    recorder = HistoryRecorder.attach(cluster)
    controller: Optional[ScheduleController] = None
    try:
        cudele = Cudele(cluster)
        boot = cluster.new_client()
        cluster.run(boot.mkdir(SUBTREE))
        policy = SubtreePolicy.from_semantics(
            consistency, durability, allocated_inodes=2048
        )
        ns = cluster.run(cudele.decouple(SUBTREE, policy))
        worker = ns.dclient if ns.dclient is not None else boot
        owner = worker.name
        decoupled = ns.dclient is not None
        intf = cluster.new_client()

        owner_ops = (
            _OWNER_DECOUPLED if decoupled else _OWNER_STRONG
        )[:depth]
        intf_paths = _INTF_DECOUPLED if decoupled else _INTF_STRONG

        controller = ScheduleController(
            cluster.engine, schedule, expose=expose
        ).attach()

        def owner_prog():
            for k, (op, path) in enumerate(owner_ops, start=1):
                controller.set_target("owner", path, rpc=not decoupled)
                if op == "create":
                    if decoupled:
                        dirname, name = path.rsplit("/", 1)
                        yield from worker.create_many(dirname, [name])
                    else:
                        yield from worker.create(path)
                else:
                    yield from worker.mkdir(path)
                if crash is not None and crash[0] == "owner" \
                        and crash[1] == k:
                    controller.set_target("owner", None)
                    yield from _owner_crash_recover(
                        cluster, ns, worker, durability
                    )
            controller.clear_target("owner")

        def intf_prog():
            for path in intf_paths:
                controller.set_target("intf", path, rpc=True)
                yield from intf.create(path)
            controller.clear_target("intf")

        p_owner = cluster.engine.process(owner_prog(), name="model-owner")
        controller.tag_process(p_owner, "owner")
        p_intf = cluster.engine.process(intf_prog(), name="model-intf")
        controller.tag_process(p_intf, "intf")

        def join():
            yield cluster.engine.all_of([p_owner, p_intf])

        cluster.run(join())
        decisions = controller.decisions
        taken = list(controller.taken)
        controller.detach()
        controller = None

        if crash is None or crash[0] != "owner":
            # The crash branches already persisted inline before the
            # crash; straight-line runs persist here like the driver.
            if decoupled and durability != "none":
                cluster.run(run_mechanism(
                    ns.policy.durability,
                    MechanismContext(cluster, SUBTREE, ns.dclient),
                ))
        cluster.run(ns.finalize())
        if crash is not None and crash[0] == "mds":
            from repro.conformance.driver import _crash_recover

            _crash_recover(cluster, cluster.mds.name, mode="local")
        recorder.record_snapshot(cluster.mds, SUBTREE)

        verdict = check_history(
            recorder.history, consistency, durability,
            subtree=SUBTREE, owner=owner, strict=True,
        )
        return RunResult(
            verdict=verdict,
            fingerprint=state_fingerprint(recorder.history),
            decisions=decisions,
            taken=taken,
            history=recorder.history,
        )
    finally:
        if controller is not None:
            controller.detach()
        recorder.detach()


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


def _shrink(
    consistency: str,
    durability: str,
    crash: Optional[Tuple],
    schedule: Tuple[int, ...],
    depth: int,
    mutation: Optional[Mutation],
) -> Tuple[Tuple[int, ...], RunResult, int]:
    """Minimize a violating schedule: shortest prefix, then delta-to-0.

    Returns ``(schedule, result, runs_spent)``.  Sound because each
    candidate is *re-run* and kept only if it still violates.
    """
    runs = 0

    def violates(cand: Tuple[int, ...]) -> Optional[RunResult]:
        nonlocal runs
        runs += 1
        res = run_schedule(
            consistency, durability, cand, crash, depth, mutation
        )
        return None if res.ok else res

    best_sched, best_res = schedule, None
    for n in range(len(schedule) + 1):
        res = violates(schedule[:n])
        if res is not None:
            best_sched, best_res = schedule[:n], res
            break
    if best_res is None:  # pragma: no cover - violation not replayable
        best_res = violates(schedule)
        return schedule, best_res, runs

    work = list(best_sched)
    changed = True
    while changed:
        changed = False
        for i, v in enumerate(work):
            if v == 0:
                continue
            trial = list(work)
            trial[i] = 0
            res = violates(tuple(trial))
            if res is not None:
                work, best_res, changed = trial, res, True
    while work and work[-1] == 0:
        work.pop()
    res = violates(tuple(work))
    if res is not None:
        best_res = res
    else:  # pragma: no cover - trailing zeros must be inert
        work = list(best_sched)
    return tuple(work), best_res, runs


def explore_cell(
    consistency: str,
    durability: str,
    depth: int = 4,
    budget: int = 400,
    mutation: Optional[Mutation] = None,
) -> Dict:
    """DFS over the schedule space of one Table I cell.

    Every crash variant starts from the empty schedule (the default
    order) and each run's decision points spawn sibling schedules for
    every untaken alternative; ``budget`` caps total runs across
    variants, and a cell is ``exhausted`` only when every variant's
    schedule space was run to the end.  Stops at the first violation,
    shrinks it, and reports the minimal counterexample.
    """
    depth = max(1, min(depth, MAX_DEPTH))
    variants = crash_variants(consistency, durability, depth)
    runs = 0
    fingerprints = set()
    counterexample: Optional[Dict] = None
    shrink_runs = 0
    exhausted = True
    explored_variants: List[str] = []

    with (mutation.active() if mutation is not None
          else contextlib.nullcontext()):
        for crash in variants:
            if runs >= budget:
                exhausted = False
                break
            explored_variants.append(variant_name(crash))
            stack: List[Tuple[int, ...]] = [()]
            while stack:
                if runs >= budget:
                    exhausted = False
                    break
                sched = stack.pop()
                res = run_schedule(
                    consistency, durability, sched, crash, depth, mutation
                )
                runs += 1
                fingerprints.add(res.fingerprint)
                if not res.ok:
                    min_sched, min_res, shrink_runs = _shrink(
                        consistency, durability, crash, sched, depth,
                        mutation,
                    )
                    counterexample = {
                        "variant": variant_name(crash),
                        "schedule": list(min_sched),
                        "decisions": [
                            d.render() for d in min_res.decisions
                        ],
                        "violations": min_res.verdict["violations"],
                        "history": min_res.history_text,
                    }
                    exhausted = False
                    break
                for j in range(len(sched), len(res.decisions)):
                    base = tuple(res.taken[:j])
                    for a in range(1, res.decisions[j].size):
                        stack.append(base + (a,))
            if counterexample is not None:
                break

    return {
        "cell": f"{consistency}/{durability}",
        "consistency": consistency,
        "durability": durability,
        "depth": depth,
        "budget": budget,
        "mutation": mutation.name if mutation is not None else None,
        "crash_variants": explored_variants,
        "runs": runs,
        "shrink_runs": shrink_runs,
        "distinct_states": len(fingerprints),
        "fingerprints": sorted(fingerprints),
        "exhausted": exhausted,
        "ok": counterexample is None,
        "counterexample": counterexample,
    }


def explore_matrix(
    cells: Sequence[Tuple[str, str]] = CELLS,
    depth: int = 4,
    budget: int = 400,
    mutation: Optional[Mutation] = None,
    reduction: bool = False,
) -> Dict:
    """Explore every requested cell; ``ok`` means zero counterexamples.

    With a mutation, only its drill cell is explored unless ``cells``
    was narrowed explicitly — exhausting unrelated cells against a bug
    they cannot observe is wasted budget.
    """
    # Accepted only because perf/workloads.py still passes reduction=False.
    if reduction:
        raise ValueError("explore_matrix has no reduction; pass False")
    if mutation is not None and tuple(cells) == tuple(CELLS):
        cells = [mutation.drill_cell]
    reports = [
        explore_cell(c, d, depth=depth, budget=budget, mutation=mutation)
        for (c, d) in cells
    ]
    return {
        "subtree": SUBTREE,
        "depth": depth,
        "budget": budget,
        "mutation": mutation.name if mutation is not None else None,
        "ok": all(r["ok"] for r in reports),
        "cells": reports,
    }


def model_report_json(report: Dict) -> str:
    """Canonical JSON artifact text for a model-checking report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
