"""Execute one scenario: population -> session pool -> SLO numbers.

Open-loop multiplexing
----------------------
One *arrival source* process walks the population's arrival stream and
appends ``(t_offered, op, path)`` to a host-side FIFO; a bounded pool of
*session workers* (each owning a real RPC :class:`~repro.client.client.
Client`) drains it.  Arrivals never wait for service completions —
when every session is busy the backlog grows and the queueing delay
lands in the recorded latency, which is the whole point of an open-loop
model (closed-loop drivers silently throttle the offered load and hide
saturation).

Latency for an op is ``completion_time - arrival_time``: service time
plus however long the op sat in the backlog.

Auto-migration
--------------
With ``auto_migrate`` configured, a
:class:`~repro.mds.migrate.HotspotDetector` is attached to the
cluster's observer tap before any traffic (the setup ``mkdir``s count
as load) and a driver process periodically asks it for a proposal and
runs :func:`~repro.mds.migrate.migrate_subtree` on it — the full
detect -> decide -> move loop under live traffic.  Nothing else
observes the run: a scenario without ``auto_migrate`` runs with the tap
detached.

Determinism
-----------
Per-seed runs are self-contained and picklable, so ``--jobs N`` fans
them over :func:`~repro.bench.harness.parallel_map` with byte-identical
results (test-enforced).  Nothing here reads wall-clock time or iterates
an unordered container.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Tuple

from repro.bench.harness import parallel_map
from repro.cluster import Cluster
from repro.core.policy import SubtreePolicy
from repro.mds.migrate import HotspotDetector, migrate_subtree
from repro.mds.server import MDSConfig
from repro.obs.metrics import Histogram
from repro.scenario.population import PopulationModel
from repro.scenario.report import build_artifact
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import Event
from repro.sim.rng import RngStream

__all__ = ["run_seed", "run_scenario", "OPS"]

#: Op names a scenario can offer, in canonical order (report ordering).
OPS = ("create", "lookup", "stat", "ls")


def _setup_paths(spec: ScenarioSpec) -> List[str]:
    """Every directory the scenario touches, ancestors first."""
    ordered: List[str] = []
    seen: Dict[str, bool] = {}

    def add(path: str) -> None:
        if path not in seen:
            seen[path] = True
            ordered.append(path)

    for sub in spec.subtrees:
        parts = [p for p in sub.path.split("/") if p]
        cur = ""
        for part in parts:
            cur += "/" + part
            add(cur)
        for d in range(spec.population.dirs_per_subtree):
            add(f"{sub.path}/dir{d}")
    return ordered


def _dispatch(client, op: str, path: str):
    """The client generator for one offered op."""
    if op == "create":
        return client.create_many(path, 1)
    if op == "lookup":
        return client.lookup(path)
    if op == "stat":
        return client.stat(path)
    if op == "ls":
        return client.ls(path)
    raise ValueError(f"unknown scenario op {op!r}")


def _scenario_body(
    cluster: Cluster,
    spec: ScenarioSpec,
    detector: Optional[HotspotDetector],
    seed: int,
) -> Generator[Event, None, Dict]:
    engine = cluster.engine
    model = PopulationModel(spec)
    arrivals_rng = RngStream(seed, "scenario").child("arrivals")

    # -- subtree policies + rank assignment (before any traffic) --------
    admin = cluster.new_client()
    for sub in spec.subtrees:
        if spec.cluster.num_mds > 1:
            cluster.assign_subtree_mds(sub.path, sub.rank)
        if sub.policy is not None:
            policy = SubtreePolicy.from_semantics(
                sub.policy["consistency"], sub.policy["durability"]
            )
            yield from cluster.mon.set_subtree(sub.path, policy)
    for path in _setup_paths(spec):
        yield from admin.mkdir(path)

    sessions = [cluster.new_client() for _ in range(spec.sessions)]

    # -- shared open-loop state (host-side; engine order is the only
    # scheduler, so plain containers are deterministic) ------------------
    backlog: deque = deque()  # (t_offered, op, path)
    waiters: deque = deque()  # idle workers parked on events
    source_done = [False]
    offered = {op: 0 for op in OPS}
    completed = {op: 0 for op in OPS}
    errors = {op: 0 for op in OPS}
    peak_backlog = [0]
    latencies = {op: Histogram("scenario_latency_s") for op in OPS + ("all",)}
    migrations: List[Dict] = []
    stop_driver = [False]

    t_start = engine.now

    def source():
        for t, op, path in model.arrivals(arrivals_rng):
            due = t_start + t
            now = engine.now
            if due > now:
                yield engine.sleep(due - now)
            backlog.append((due, op, path))
            offered[op] += 1
            if len(backlog) > peak_backlog[0]:
                peak_backlog[0] = len(backlog)
            if waiters:
                waiters.popleft().succeed()
        source_done[0] = True
        while waiters:
            waiters.popleft().succeed()

    def worker(client):
        while True:
            if backlog:
                t_offered, op, path = backlog.popleft()
                resp = yield from _dispatch(client, op, path)
                completed[op] += 1
                if not resp.ok:
                    errors[op] += 1
                latency = engine.now - t_offered
                latencies[op].observe(latency)
                latencies["all"].observe(latency)
            elif source_done[0]:
                return
            else:
                park = Event(engine)
                waiters.append(park)
                yield park

    def migration_driver():
        am = spec.auto_migrate
        while not stop_driver[0]:
            yield engine.sleep(am.check_interval_s)
            if stop_driver[0]:
                return
            done_count = sum(1 for m in migrations if m["status"] == "done")
            if done_count >= am.max_migrations:
                return
            proposal = detector.propose()
            if proposal is None:
                continue
            result = yield from migrate_subtree(
                cluster, proposal["subtree"], proposal["dst_rank"]
            )
            migrations.append(
                {
                    "t": engine.now - t_start,
                    "subtree": proposal["subtree"],
                    "src": result.src,
                    "dst": result.dst,
                    "status": result.status,
                    "ops_at_decision": proposal["ops"],
                    "rows": result.rows,
                    "frozen_s": result.frozen_s,
                }
            )

    source_proc = engine.process(source(), name="scenario-source")
    worker_procs = [
        engine.process(worker(client), name=f"scenario-session{i}")
        for i, client in enumerate(sessions)
    ]
    driver_proc = (
        engine.process(migration_driver(), name="scenario-migrator")
        if detector is not None
        else None
    )
    yield engine.all_of([source_proc] + worker_procs)
    makespan = engine.now - t_start
    stop_driver[0] = True
    if driver_proc is not None:
        yield driver_proc

    # -- per-seed result -------------------------------------------------
    total_offered = sum(offered[op] for op in OPS)
    total_completed = sum(completed[op] for op in OPS)
    latency: Dict[str, Dict[str, float]] = {}
    for op, hist in latencies.items():
        if hist.count == 0:
            continue
        latency[op] = {
            "count": hist.count,
            "mean_s": hist.mean,
            "p50_s": hist.percentile(50),
            "p95_s": hist.percentile(95),
            "p99_s": hist.percentile(99),
            "max_s": hist.max,
        }
    redirects = sum(
        client.stats.counter("redirects").value for client in sessions
    )
    return {
        "seed": seed,
        "users": spec.population.users,
        "offered": offered,
        "completed": completed,
        "errors": errors,
        "offered_rate_hz": total_offered / spec.duration_s,
        "achieved_rate_hz": (
            total_completed / makespan if makespan > 0 else 0.0
        ),
        "makespan_s": makespan,
        "peak_backlog": peak_backlog[0],
        "latency": latency,
        "migrations": migrations,
        "migrations_done": sum(
            1 for m in migrations if m["status"] == "done"
        ),
        "redirects": redirects,
    }


def run_seed(task: Tuple[Dict, int]) -> Dict:
    """Run one ``(spec_dict, seed)`` task (module-level: picklable, so
    ``parallel_map`` can fan seeds over worker processes)."""
    spec_dict, seed = task
    spec = ScenarioSpec.from_dict(spec_dict)
    cluster = Cluster(
        num_osds=spec.cluster.num_osds,
        mds_config=MDSConfig(
            materialize=spec.cluster.materialize,
            journal_enabled=spec.cluster.journal,
        ),
        num_mds=spec.cluster.num_mds,
        seed=seed,
    )
    detector = None
    if spec.auto_migrate is not None:
        detector = HotspotDetector(
            cluster, threshold_ops=spec.auto_migrate.threshold_ops
        )
        cluster.attach_observer(detector)
    try:
        return cluster.run(_scenario_body(cluster, spec, detector, seed))
    finally:
        if detector is not None:
            cluster.detach_observer(detector)


def run_scenario(
    spec: ScenarioSpec,
    seeds: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Dict:
    """Run every seed of ``spec`` and build the artifact dict.

    ``seeds`` overrides the spec's seed count; ``jobs`` fans seeds over
    a process pool (results merge in seed order — byte-identical to a
    serial run).
    """
    n_seeds = spec.seeds if seeds is None else seeds
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    spec_dict = spec.to_dict()
    per_seed = parallel_map(
        run_seed, [(spec_dict, s) for s in range(n_seeds)], jobs=jobs
    )
    return build_artifact(spec, per_seed)
