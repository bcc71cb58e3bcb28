"""Seeded conformance exploration over the full semantics matrix.

One *cell run* builds a fresh cluster, attaches the history recorder,
decouples a subtree under one Table I (consistency, durability) policy
and drives a seeded workload through it:

1. a bootstrap RPC client creates the subtree root (journaled, so MDS
   recovery can rebuild under it);
2. burst one of seeded creates/mkdirs/unlinks by the owner;
3. the durability mechanism runs (Local/Global Persist for decoupled
   rows — 'none' persists nothing);
4. the owner crashes and recovers through :mod:`repro.faults`
   (``lose_disk`` for global rows: local durability must not be what
   saves them);
5. burst two, then ``finalize()`` runs the policy's completion
   mechanisms (merge windows for weak rows, journal flush for stream);
6. strong+global additionally crash-recovers the MDS itself — the full
   journal-replay drill;
7. a namespace snapshot closes the history and
   :func:`~repro.conformance.checkers.check_history` renders the
   verdict.

Everything is seeded and simulated-time-only, so a matrix run is
byte-identical across repeats and across ``--jobs`` fan-out
(:func:`repro.bench.harness.parallel_map` preserves task order).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import parallel_map
from repro.cluster import Cluster
from repro.conformance.checkers import check_history
from repro.conformance.recorder import HistoryRecorder
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.faults import PERSIST_FAULT_MODES, FaultInjector, FaultPlan
from repro.mds.server import MDSConfig
from repro.sim.rng import RngStream

__all__ = [
    "CELLS", "CONSISTENCIES", "DURABILITIES", "SUBTREE",
    "CORRUPTION_CELLS",
    "run_cell", "run_matrix", "report_json",
    "run_corruption_cell", "run_corruption_drill",
]

CONSISTENCIES = ("invisible", "weak", "strong")
DURABILITIES = ("none", "local", "global")
#: The nine Table I cells, row-major.
CELLS: Tuple[Tuple[str, str], ...] = tuple(
    (c, d) for c in CONSISTENCIES for d in DURABILITIES
)
SUBTREE = "/job"
#: Operations per workload burst (two bursts per cell).
BURST_OPS = 12
#: Small segments so MDS journal writes land mid-run, not only at flush.
SEGMENT_EVENTS = 16
#: The corruption drill: every durability scope crossed with every
#: persist fault mode (durability 'none' persists nothing — its row
#: proves the armed fault stays a no-op).
CORRUPTION_CELLS: Tuple[Tuple[str, str], ...] = tuple(
    (d, m) for d in DURABILITIES for m in PERSIST_FAULT_MODES
)


def _run_burst(cluster, worker, rng: RngStream, tracked: List[str],
               phase: int) -> None:
    """One seeded burst: a phase directory, then a create/unlink mix."""
    subdir = f"{SUBTREE}/d{phase}"
    cluster.run(worker.mkdir(subdir))
    for i in range(BURST_OPS):
        if rng.uniform() < 0.75 or not tracked:
            parent = SUBTREE if rng.uniform() < 0.5 else subdir
            name = f"f{phase}-{i}"
            cluster.run(worker.create_many(parent, [name]))
            tracked.append(f"{parent}/{name}")
        else:
            victim = tracked.pop(rng.integers(0, len(tracked)))
            cluster.run(worker.unlink(victim))


def _run_persist(cluster, ns, durability: str) -> None:
    """Make burst-one durable per the cell's scope (decoupled rows)."""
    if ns.dclient is None or durability == "none":
        return
    mech = "local_persist" if durability == "local" else "global_persist"
    ctx = MechanismContext(cluster, SUBTREE, ns.dclient)
    cluster.run(run_mechanism(mech, ctx))


def _crash_recover(cluster, target: str, mode: str,
                   lose_disk: bool = False) -> None:
    """Crash ``target`` 5 ms from now, recover it 45 ms later."""
    t = cluster.now
    plan = FaultPlan()
    if lose_disk:
        plan.crash(t + 0.005, target, lose_disk=True)
    else:
        plan.crash(t + 0.005, target)
    plan.recover(t + 0.050, target, mode=mode)
    FaultInjector(cluster, plan).start()
    cluster.run()


@contextmanager
def _observed(cluster, with_obs: bool):
    """Attach the history recorder — plus observability when the cell
    runs instrumented (``None`` otherwise) — for the duration of a cell."""
    recorder = HistoryRecorder.attach(cluster)
    obs = None
    if with_obs:
        from repro.obs import Observability

        obs = Observability(cluster).attach()
    try:
        yield recorder, obs
    finally:
        if obs is not None:
            obs.detach()
        recorder.detach()


def _cell_result(verdict: Dict, recorder, obs) -> Dict:
    """A cell's output: verdict, canonical history and — instrumented
    cells only — the ``obs`` summary."""
    result = {"verdict": verdict, "history": recorder.history.canonical()}
    if obs is not None:
        from repro.obs.report import breakdown_rows

        result["obs"] = {
            "breakdown": breakdown_rows(obs.hub),
            "span_count": len(obs.tracer.spans),
            "metric_count": len(obs.hub),
        }
    return result


def run_cell(task: Tuple) -> Dict:
    """Run one (consistency, durability, seed[, obs[, migrate]])
    scenario; returns a dict with the checker ``verdict`` and the
    canonical ``history`` text (plus an ``obs`` summary when the 4th
    task element is true).

    A true 5th task element runs the cell on a two-rank cluster and
    injects one live subtree migration (rank 0 -> 1) between the owner
    crash drill and burst two — the namespace moves mid-run, with the
    same workload, mechanisms and verdict machinery on top.  Without
    the flag the single-MDS path is character-for-character unchanged.

    Top-level and picklable so :func:`parallel_map` can fan the matrix
    out over processes; the output contains no wall-clock state, so
    serial and parallel runs are byte-identical.
    """
    consistency, durability, seed = task[:3]
    with_obs = bool(task[3]) if len(task) > 3 else False
    migrate = bool(task[4]) if len(task) > 4 else False
    cluster = Cluster(
        seed=seed, mds_config=MDSConfig(segment_events=SEGMENT_EVENTS),
        num_mds=2 if migrate else 1,
    )
    if migrate:
        cluster.assign_subtree_mds(SUBTREE, 0)
    with _observed(cluster, with_obs) as (recorder, obs):
        cudele = Cudele(cluster)
        boot = cluster.new_client()
        cluster.run(boot.mkdir(SUBTREE))
        policy = SubtreePolicy.from_semantics(
            consistency, durability, allocated_inodes=2048
        )
        ns = cluster.run(cudele.decouple(SUBTREE, policy))
        worker = ns.dclient if ns.dclient is not None else boot
        owner = worker.name

        rng = RngStream(seed, f"conformance/{consistency}/{durability}")
        tracked: List[str] = []
        _run_burst(cluster, worker, rng, tracked, 0)
        _run_persist(cluster, ns, durability)
        if ns.dclient is not None:
            _crash_recover(
                cluster, owner,
                mode="global" if durability == "global" else "local",
                lose_disk=(durability == "global"),
            )
        else:
            _crash_recover(cluster, owner, mode="local")
        if migrate:
            # The tentpole drill: hand the live subtree to rank 1 while
            # the workload is mid-run.  Burst two and every completion
            # mechanism below then lands on the new authority (clients
            # follow redirects; MechanismContext re-resolves per call).
            from repro.mds.migrate import migrate_subtree

            res = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
            if res.status != "done":
                raise RuntimeError(
                    f"mid-run migration failed: {res.status} {res.reason}"
                )
        _run_burst(cluster, worker, rng, tracked, 1)
        cluster.run(ns.finalize())
        if (consistency, durability) == ("strong", "global"):
            # The journal-replay drill: the MDS's memory dies after the
            # Stream flush; recovery must rebuild from the object store.
            target = cluster.mds_for(SUBTREE) if migrate else cluster.mds
            _crash_recover(cluster, target.name, mode="local")
        recorder.record_snapshot(
            cluster.mds_for(SUBTREE) if migrate else cluster.mds, SUBTREE
        )

        verdict = check_history(
            recorder.history, consistency, durability,
            subtree=SUBTREE, owner=owner,
        )
        verdict["seed"] = seed
        return _cell_result(verdict, recorder, obs)


def run_corruption_cell(task: Tuple) -> Dict:
    """One corrupted-recovery drill cell: ``(durability, mode, seed[,
    obs])`` under invisible consistency.

    The owner runs a seeded burst, the injector arms the cell's persist
    fault, the durability mechanism persists *through* the fault (the
    image lands damaged), the owner crashes and recovers — and the
    checkers hold the recovered state to exactly the damaged image's
    checksummed-valid prefix.  Like :func:`run_cell`, top-level and
    picklable, with no wall-clock state in the output.
    """
    durability, mode, seed = task[:3]
    with_obs = bool(task[3]) if len(task) > 3 else False
    cluster = Cluster(
        seed=seed, mds_config=MDSConfig(segment_events=SEGMENT_EVENTS)
    )
    with _observed(cluster, with_obs) as (recorder, obs):
        cudele = Cudele(cluster)
        boot = cluster.new_client()
        cluster.run(boot.mkdir(SUBTREE))
        policy = SubtreePolicy.from_semantics(
            "invisible", durability, allocated_inodes=2048
        )
        ns = cluster.run(cudele.decouple(SUBTREE, policy))
        worker = ns.dclient
        owner = worker.name

        rng = RngStream(seed, f"conformance/corrupt/{durability}/{mode}")
        tracked: List[str] = []
        _run_burst(cluster, worker, rng, tracked, 0)

        scope = "global" if durability == "global" else "local"
        plan = FaultPlan().persist_fault(
            cluster.now + 0.001, owner, mode, seed=seed, scope=scope
        )
        FaultInjector(cluster, plan).start()
        cluster.run()

        _run_persist(cluster, ns, durability)
        _crash_recover(
            cluster, owner,
            mode="global" if durability == "global" else "local",
            lose_disk=(durability == "global"),
        )
        recorder.record_snapshot(cluster.mds, SUBTREE)

        verdict = check_history(
            recorder.history, "invisible", durability,
            subtree=SUBTREE, owner=owner,
        )
        verdict["seed"] = seed
        verdict["fault_mode"] = mode
        return _cell_result(verdict, recorder, obs)


def run_corruption_drill(
    seed: int = 0,
    jobs: Optional[int] = None,
    cells: Sequence[Tuple[str, str]] = CORRUPTION_CELLS,
    obs: bool = False,
) -> Dict:
    """Run the corrupted-recovery drill (durability x fault mode) under
    one seed; byte-identical across repeats and ``--jobs`` fan-out."""
    tasks = [(d, m, seed, obs) for (d, m) in cells]
    results = parallel_map(run_corruption_cell, tasks, jobs=jobs)
    report = {
        "seed": seed,
        "subtree": SUBTREE,
        "drill": "corruption",
        "ok": all(r["verdict"]["ok"] for r in results),
        "cells": [r["verdict"] for r in results],
        "histories": {
            f"{d}/{m}": r["history"]
            for (d, m), r in zip(cells, results)
        },
    }
    if obs:
        report["obs"] = {
            f"{d}/{m}": r["obs"]
            for (d, m), r in zip(cells, results)
        }
    return report


def run_matrix(
    seed: int = 0,
    jobs: Optional[int] = None,
    cells: Sequence[Tuple[str, str]] = CELLS,
    obs: bool = False,
    migrate: bool = False,
) -> Dict:
    """Check every requested cell under one seed; returns the report.

    With ``obs=True`` each cell also runs instrumented (metrics + span
    tracing beside the history recorder) and the report gains a
    per-cell ``obs`` section.  Verdicts and histories are identical
    either way — observation is pure host-side bookkeeping.

    With ``migrate=True`` every cell runs on a two-rank cluster with
    one live subtree migration injected mid-run (the migration drill;
    see :func:`run_cell`).
    """
    tasks = [(c, d, seed, obs, migrate) for (c, d) in cells]
    results = parallel_map(run_cell, tasks, jobs=jobs)
    report = {
        "seed": seed,
        "subtree": SUBTREE,
        "ok": all(r["verdict"]["ok"] for r in results),
        "cells": [r["verdict"] for r in results],
        "histories": {
            f"{c}/{d}": r["history"]
            for (c, d), r in zip(cells, results)
        },
    }
    if migrate:
        report["drill"] = "migrate"
    if obs:
        report["obs"] = {
            f"{c}/{d}": r["obs"]
            for (c, d), r in zip(cells, results)
        }
    return report


def report_json(report: Dict, with_histories: bool = False) -> str:
    """Canonical JSON artifact text for a matrix report."""
    out = dict(report)
    if not with_histories:
        out.pop("histories", None)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"
