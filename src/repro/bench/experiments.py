"""Experiments as data: one declaration per paper table/figure, one runner.

An :class:`Experiment` holds what a figure *is* — its labels, note,
series, the x-values it sweeps and the module-level task function that
runs one (config, seed) cell on fresh clusters.  Calling it is the one
runner they share: it flattens the ``configs x seeds`` sweep into
self-contained tasks, fans them out through
:func:`~repro.bench.harness.parallel_map` (serial by default;
``--jobs N`` / ``REPRO_JOBS`` runs them in a process pool), aggregates
each series over its seeds and assembles the
:class:`~repro.bench.harness.ExperimentResult`.  Task functions are
module-level so they pickle, and results are merged in task order — a
parallel run is byte-identical to a serial one (see docs/PERFORMANCE.md).
Normalizations follow the paper exactly; :mod:`repro.bench.paper` holds
the paper's numbers and each figure's shape claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult, Series, aggregate, parallel_map
from repro.bench.scales import Scale, get_scale
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.core.semantics import Consistency, Durability
from repro.core.sync import synced_workload
from repro.mds.server import MDSConfig, Response
from repro.workloads.compile_wl import run_compile
from repro.workloads.createheavy import (
    parallel_creates_decoupled,
    parallel_creates_rpc,
)
from repro.workloads.interference import run_interference

__all__ = [
    "Experiment",
    "fig2", "fig3a", "fig3b", "fig3c", "fig5", "fig6a", "fig6b", "fig6c",
    "table1", "faults", "migrate", "ALL_EXPERIMENTS",
]


@dataclass(frozen=True)
class Experiment:
    """One paper table/figure as data; calling it runs it.

    ``task`` gets ``(seed, scale)``, or ``(config, seed, scale)`` when
    ``configs`` is set, and returns its rows: one per series the config
    feeds (a bare row when that is one series).  ``rows`` reads them from
    a task output that carries more.  The series of config *i* take the
    next labels of ``series`` in order.
    """

    exp_id: str
    title: str
    x_label: str
    y_label: str
    note: str
    series: Tuple[str, ...]
    #: ``(scale, task outputs) -> x values`` shared by every series;
    #: longer rows are cut to it.
    x: Callable[[Scale, list], Sequence]
    task: Callable
    configs: Optional[Tuple] = None
    #: Runs per config when not ``scale.seeds``.
    seeds: Optional[int] = None
    rows: Optional[Callable[[Any], Sequence]] = None
    #: ``(scale, task outputs, series) -> meta`` entries after ``scale``.
    meta: Optional[Callable[[Scale, list, List[Series]], Dict]] = None

    def __call__(self, scale: Optional[Scale] = None) -> ExperimentResult:
        """The runner: fan the configs x seeds sweep out, aggregate each
        series over its seeds and assemble the result."""
        scale = scale or get_scale()
        configs = self.configs or (None,)
        seeds = self.seeds or scale.seeds
        outs = parallel_map(self.task, [
            (seed, scale) if config is None else (config, seed, scale)
            for config in configs
            for seed in range(seeds)
        ])
        x = list(self.x(scale, outs))
        width = len(self.series) // len(configs)
        rows = self.rows or (lambda out: [out] if width == 1 else out)
        labels = iter(self.series)
        series = []
        for idx in range(len(configs)):
            runs = [rows(out) for out in outs[idx * seeds:(idx + 1) * seeds]]
            for col in range(width):
                mean, std = aggregate([r[col][:len(x)] for r in runs])
                series.append(Series(next(labels), x, mean, std))
        meta = {"scale": scale.name}
        if self.meta is not None:
            meta.update(self.meta(scale, outs, series))
        return ExperimentResult(
            self.exp_id, self.title, self.x_label, self.y_label,
            series=series, notes=[self.note], meta=meta,
        )


def _ok(resp: Response) -> None:
    """Raise on a refused request, as the workload drivers do, so a
    failed reply is never timed as work."""
    if not resp.ok:
        raise RuntimeError(resp.error)


def _cluster(
    seed: int,
    journal: bool = True,
    dispatch: int = 40,
    materialize: bool = False,
) -> Cluster:
    return Cluster(
        mds_config=MDSConfig(
            journal_enabled=journal,
            dispatch_size=dispatch,
            materialize=materialize,
        ),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Figure 2: compile-phase resource utilization
# ---------------------------------------------------------------------------

_PHASE_NAMES = ["untar", "configure", "make"]


def _fig2_seed(task: Tuple[int, Scale]) -> Tuple[List[float], List[float], List[float]]:
    seed, scale = task
    cluster = _cluster(seed)
    res = cluster.run(
        run_compile(cluster, scale=scale.compile_files, batch=scale.batch)
    )
    cpu = [res.phase(p).mds_cpu_util for p in _PHASE_NAMES]
    net = [
        res.phase(p).net_bytes / max(res.phase(p).duration_s, 1e-9) / 1e6
        for p in _PHASE_NAMES
    ]
    disk = [res.phase(p).disk_util for p in _PHASE_NAMES]
    return cpu, net, disk


# The claim reproduced: the create-heavy *untar* phase has the highest
# combined resource usage on the metadata server.
fig2 = Experiment(
    "fig2", "MDS resource utilization during a compile (untar/configure/make)",
    "phase", "utilization (fraction) / network (MB/s)",
    note="paper: the untar (create-heavy) phase dominates MDS "
         "disk/network/CPU usage",
    series=("mds cpu", "network MB/s", "objstore disk"),
    x=lambda *_: _PHASE_NAMES,
    task=_fig2_seed,
)


# ---------------------------------------------------------------------------
# Figure 3a: journal dispatch-size slowdown vs clients
# ---------------------------------------------------------------------------


def _fig3a_seed(task: Tuple[Tuple[bool, int], int, Scale]) -> List[float]:
    """One config at one seed: slowdown over the sweep of client counts."""
    (journal, dispatch), seed, scale = task
    base_cluster = _cluster(seed, journal=False)
    base = base_cluster.run(
        parallel_creates_rpc(
            base_cluster, 1, scale.ops_per_client, batch=scale.batch
        )
    ).slowest_client_time
    row = []
    for n in scale.clients:
        cluster = _cluster(seed, journal=journal, dispatch=dispatch)
        res = cluster.run(
            parallel_creates_rpc(
                cluster, n, scale.ops_per_client, batch=scale.batch
            )
        )
        row.append(res.slowest_client_time / base)
    return row


# Slowdown of the slowest client vs #clients for journal configs,
# normalized to 1 client with journaling off (paper: ~654 creates/s).
fig3a = Experiment(
    "fig3a", "Effect of journaling: dispatch-size slowdown scaling clients",
    "clients", "slowdown vs 1 client, journal off",
    note="paper: mid dispatch sizes (10-30) degrade most under load; "
         "dispatch 1 tracks 'no journal'; 40 sits between",
    series=("no journal", "segments=1", "segments=10", "segments=30",
            "segments=40"),
    configs=((False, 40), (True, 1), (True, 10), (True, 30), (True, 40)),
    x=lambda scale, _: scale.clients,
    task=_fig3a_seed,
)


# ---------------------------------------------------------------------------
# Figures 3b and 6b: interference slowdown vs clients
# ---------------------------------------------------------------------------


def _interference_seed(task: Tuple[str, int, Scale]) -> List[float]:
    """One interference mode at one seed: slowdown over the client sweep."""
    mode, seed, scale = task
    base_cluster = _cluster(seed)
    base = base_cluster.run(
        run_interference(
            base_cluster, 1, scale.ops_per_client, mode="none",
            batch=scale.batch,
        )
    ).slowest_client_time
    row = []
    for n in scale.clients:
        cluster = _cluster(seed + 1000 * n)
        res = cluster.run(
            run_interference(
                cluster, n, scale.ops_per_client, mode=mode,
                interfere_ops=scale.interfere_ops, batch=scale.batch,
            )
        )
        row.append(res.slowest_client_time / base)
    return row


# Slowdown (and variability) with an interfering client, normalized to
# 1 client creating in isolation with the journal on (paper: ~513
# creates/s).
fig3b = Experiment(
    "fig3b", "Interference hurts throughput and variability",
    "clients", "slowdown of slowest client vs 1 isolated client",
    note="paper: interference raises both the slowdown and the "
         "run-to-run standard deviation",
    series=("no interference", "interference"),
    configs=("none", "allow"),
    x=lambda scale, _: scale.clients,
    task=_interference_seed,
)


def _fig6b_summary(_scale, _outs, series: List[Series]) -> Dict[str, float]:
    """Summary metrics in the spirit of the paper's "slowdown per client"
    / sigma quotes (exact definitions differ; see EXPERIMENTS.md): the
    mean slowdown across the sweep and the mean run-to-run standard
    deviation."""
    meta = {}
    for s in series:
        meta[f"mean_slowdown[{s.label}]"] = sum(s.y) / len(s.y)
        meta[f"sigma[{s.label}]"] = sum(s.yerr) / len(s.yerr)
    return meta


# Interference isolation via the allow/block API.
fig6b = Experiment(
    "fig6b", "Blocking interference isolates performance",
    "clients", "slowdown of slowest client vs 1 isolated client",
    note="paper: block tracks no-interference at scale (slowdown/client "
         "1.34x vs 1.42x; sigma 0.09 vs 0.06) while allow degrades "
         "(1.67x, sigma 0.44)",
    series=("no interference", "interference", "block interference"),
    configs=("none", "allow", "block"),
    x=lambda scale, _: scale.clients,
    task=_interference_seed,
    meta=_fig6b_summary,
)


# ---------------------------------------------------------------------------
# Figure 3c: cap revocation makes lookups go remote
# ---------------------------------------------------------------------------


def _fig3c_params(scale: Scale) -> Tuple[int, int, int, float]:
    """(ops, batch, interferer ops, sample interval) for one trace."""
    ops = max(scale.ops_per_client, 5_000)
    expected = ops / 520.0
    return (ops, min(scale.batch, 50), max(scale.interfere_ops, ops // 10),
            expected / 25.0)


def _fig3c_diff_rate(samples, sample_interval: float) -> List[float]:
    values = [v for _, v in samples]
    return [0.0] + [
        (values[i] - values[i - 1]) / sample_interval
        for i in range(1, len(values))
    ]


def _fig3c_run(task: Tuple[str, int, Scale]):
    mode, seed, scale = task
    ops, batch, interfere_ops, sample = _fig3c_params(scale)
    cluster = _cluster(seed)
    res = cluster.run(
        run_interference(
            cluster, 1, ops, mode=mode,
            interfere_ops=interfere_ops,
            batch=batch, sample_interval_s=sample,
        )
    )
    times = [t for t, _ in res.create_samples]
    return (
        times,
        _fig3c_diff_rate(res.create_samples, sample),
        _fig3c_diff_rate(res.lookup_samples, sample),
    )


def _fig3c_times(_scale, outs) -> List[float]:
    """The interference trace's sample times, cut to the shorter trace."""
    return outs[0][0][:min(len(times) for times, _, _ in outs)]


# Client behaviour around the interference point: one trace per mode
# with creates/s on y1 and remote lookups/s on y2 (cumulative lookups
# differenced).
fig3c = Experiment(
    "fig3c", "Interference revokes caps: lookups go remote",
    "time (s)", "ops/s (creates on y1, lookups on y2)",
    note="paper: after the interferer arrives, the client sends a "
         "lookup per create; MDS throughput (y1) rises while client "
         "goodput falls",
    series=("creates/s (interference)", "lookups/s (interference)",
            "creates/s (no interference)", "lookups/s (no interference)"),
    configs=("allow", "none"),
    seeds=1,
    x=_fig3c_times,
    task=_fig3c_run,
    rows=lambda out: out[1:],
    meta=lambda scale, *_: {"sample_interval_s": _fig3c_params(scale)[3]},
)


# ---------------------------------------------------------------------------
# Figure 5: per-mechanism overhead of 100K creates
# ---------------------------------------------------------------------------

_FIG5_LABELS = [
    "append_client_journal", "rpcs", "volatile_apply",
    "nonvolatile_apply", "stream", "local_persist", "global_persist",
    "POSIX", "BatchFS", "DeltaFS", "RAMDisk",
]


def _fig5_seed(task: Tuple[int, Scale]) -> List[float]:
    seed, scale = task
    ops = scale.fig5_ops
    times: Dict[str, float] = {}

    # Append Client Journal (the baseline).
    cluster = _cluster(seed)
    d = cluster.new_decoupled_client()
    t0 = cluster.now
    cluster.run(d.create_many("/sub", ops))
    times["append_client_journal"] = cluster.now - t0

    # RPCs in isolation (journal off).
    cluster = _cluster(seed, journal=False)
    c = cluster.new_client()
    t0 = cluster.now
    _ok(cluster.run(c.create_many("/sub", ops, batch=scale.batch)))
    times["rpcs"] = cluster.now - t0

    # Stream: the paper's approximation, journal-on minus journal-off.
    cluster = _cluster(seed, journal=True)
    c = cluster.new_client()
    t0 = cluster.now
    _ok(cluster.run(c.create_many("/sub", ops, batch=scale.batch)))
    times["stream"] = (cluster.now - t0) - times["rpcs"]

    # Completion mechanisms run over a prepared client journal.
    for mech in ("volatile_apply", "nonvolatile_apply",
                 "local_persist", "global_persist"):
        cluster = _cluster(seed)
        d = cluster.new_decoupled_client()
        cluster.run(d.create_many("/sub", ops))
        ctx = MechanismContext(cluster, "/sub", d)
        t0 = cluster.now
        cluster.run(run_mechanism(mech, ctx))
        times[mech] = cluster.now - t0

    # Real-world compositions (Figure 5, right panel).
    times["POSIX"] = times["rpcs"] + times["stream"]
    times["BatchFS"] = (
        times["append_client_journal"] + times["local_persist"]
        + times["volatile_apply"]
    )
    times["DeltaFS"] = times["append_client_journal"] + times["local_persist"]
    times["RAMDisk"] = times["append_client_journal"] + times["volatile_apply"]

    base = times["append_client_journal"]
    return [times[label] / base for label in _FIG5_LABELS]


# Overhead of each mechanism (and real-system compositions), normalized
# to Append Client Journal.
fig5 = Experiment(
    "fig5", "Overhead of processing create events per mechanism",
    "mechanism / system", "overhead (x append client journal)",
    note="paper anchors: rpcs ~17.9x, rpcs ~19.9x volatile_apply, "
         "nonvolatile_apply ~78x, stream ~2.4x, global ~0.2x over local",
    series=("overhead",),
    x=lambda *_: _FIG5_LABELS,
    task=_fig5_seed,
    meta=lambda scale, *_: {"ops": scale.fig5_ops},
)


# ---------------------------------------------------------------------------
# Figure 6a: parallel creates under three subtree semantics
# ---------------------------------------------------------------------------


def _fig6a_rpc_run(seed: int, n: int, scale: Scale) -> float:
    cluster = _cluster(seed)
    res = cluster.run(
        parallel_creates_rpc(cluster, n, scale.ops_per_client,
                             batch=scale.batch)
    )
    return res.job_throughput


def _fig6a_dec_run(seed: int, n: int, merge: bool, scale: Scale) -> float:
    cluster = _cluster(seed)
    res = cluster.run(
        parallel_creates_decoupled(
            cluster, n, scale.ops_per_client,
            persist_each=True, merge=merge,
        )
    )
    return res.job_throughput


def _fig6a_seed(task: Tuple[str, int, Scale]) -> List[float]:
    """One semantics config at one seed: speedup over the client sweep."""
    kind, seed, scale = task
    base = _fig6a_rpc_run(seed, 1, scale)
    if kind == "rpcs":
        return [_fig6a_rpc_run(seed, n, scale) / base for n in scale.clients]
    merge = kind == "decoupled: create+merge"
    return [
        _fig6a_dec_run(seed, n, merge, scale) / base for n in scale.clients
    ]


_FIG6A_KINDS = ("rpcs", "decoupled: create", "decoupled: create+merge")

# Total-job speedup over 1-client RPCs for the three subtrees.
fig6a = Experiment(
    "fig6a", "Parallel creates: decoupled namespaces scale past RPCs",
    "clients", "job-throughput speedup vs 1-client RPCs",
    note="paper: at 20 clients RPCs flattens ~4.5x, create+merge ~15x "
         "(3.37x over RPCs), decoupled create ~91.7x and linear",
    series=_FIG6A_KINDS,
    configs=_FIG6A_KINDS,
    x=lambda scale, _: scale.clients,
    task=_fig6a_seed,
)


# ---------------------------------------------------------------------------
# Figure 6c: namespace-sync interval sweep
# ---------------------------------------------------------------------------


def _fig6c_seed(task: Tuple[int, Scale]) -> Tuple[List[float], Dict[float, int]]:
    seed, scale = task
    row = []
    largest: Dict[float, int] = {}
    for interval in scale.sync_intervals:
        cluster = _cluster(seed)
        d = cluster.new_decoupled_client()
        stats = cluster.run(
            synced_workload(cluster, d, "/sub", scale.sync_updates, interval)
        )
        row.append(stats.overhead * 100.0)
        largest[interval] = stats.largest_batch
    return row, largest


def _fig6c_largest(_scale, outs, _series) -> Dict[str, Dict[float, int]]:
    largest: Dict[float, int] = {}
    for _row, seed_largest in outs:  # merge in seed order (last wins)
        largest.update(seed_largest)
    return {"largest_batch": largest}


# Overhead of syncing partial updates at different intervals.
fig6c = Experiment(
    "fig6c", "Namespace sync: overhead vs sync interval",
    "sync interval (s)", "overhead (%) vs never syncing",
    note="paper: ~9% at 1 s, ~2% minimum at 10 s, rising toward 25 s "
         "(each 25 s sync writes ~278K updates, ~678 MB)",
    series=("overhead %",),
    x=lambda scale, _outs: scale.sync_intervals,
    task=_fig6c_seed,
    rows=lambda out: out[:1],
    meta=_fig6c_largest,
)


# ---------------------------------------------------------------------------
# Faults: ops lost and recovery latency per durability policy
# ---------------------------------------------------------------------------

_FAULT_POLICIES = ["none", "local", "global"]
_FAULT_DOWNTIME_S = 0.05


def _fault_ops(scale: Scale) -> int:
    return max(64, min(scale.fig5_ops // 40, 1000))


def _faults_seed(task: Tuple[int, Scale]) -> Tuple[List[float], List[float]]:
    from repro.faults import FaultInjector, FaultPlan

    seed, scale = task
    ops = _fault_ops(scale)
    lost_row, latency_row = [], []
    for policy in _FAULT_POLICIES:
        cluster = _cluster(seed)
        d = cluster.new_decoupled_client(persist_each=(policy == "local"))
        names = [f"f{i}" for i in range(ops)]
        cluster.run(d.create_many("/burst", names))
        if policy == "global":
            ctx = MechanismContext(cluster, "/burst", d)
            cluster.run(run_mechanism("global_persist", ctx))
        t_crash = cluster.now + 0.01
        mode = "global" if policy == "global" else "local"
        plan = (
            FaultPlan()
            .crash(t_crash, d.name)
            .recover(t_crash + _FAULT_DOWNTIME_S, d.name, mode=mode)
        )
        injector = FaultInjector(cluster, plan)
        injector.start()
        cluster.run()
        lost_row.append(float(ops - d.pending_events))
        target, crashed_at, recovered_at = injector.recoveries[-1]
        latency_row.append(recovered_at - crashed_at)
    return lost_row, latency_row


# Crash a decoupled client after a create burst under each durability
# policy and measure what comes back: the paper's durability spectrum
# (§III-B) made measurable.  'none' loses the whole burst, 'local'
# recovers it from the client's disk, 'global' from the object store.
# Recovery latency is the simulated time from the crash to the component
# serving again (downtime plus the replay I/O), as recorded by the
# :class:`~repro.faults.injector.FaultInjector`.
faults = Experiment(
    "faults", "Durability spectrum under a client crash",
    "durability policy", "ops lost / recovery latency (s)",
    note="paper §III-B: none loses the burst; local recovers from the "
         "client's disk; global recovers from the object store",
    series=("ops lost", "recovery latency (s)"),
    x=lambda *_: _FAULT_POLICIES,
    task=_faults_seed,
    meta=lambda scale, *_: {"ops": _fault_ops(scale),
                            "downtime_s": _FAULT_DOWNTIME_S},
)


# ---------------------------------------------------------------------------
# Migration: client-observed latency through a live subtree handoff
# ---------------------------------------------------------------------------

_MIGRATE_WINDOWS = ["before", "during", "after"]
_MIGRATE_QUANTILES = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ranked = sorted(values)
    idx = min(len(ranked) - 1, max(0, int(round(q * len(ranked))) - 1))
    return ranked[idx]


def _migrate_seed(task: Tuple[int, Scale]) -> Tuple[List[List[float]], Dict]:
    """One seed: a closed-loop create stream while the subtree migrates.

    Returns per-quantile latency rows over the before/during/after
    windows (relative to the handoff) plus handoff detail for ``meta``.
    """
    seed, scale = task
    ops = max(160, min(scale.ops_per_client, 600))
    cluster = Cluster(
        num_mds=2, seed=seed, mds_config=MDSConfig(materialize=True)
    )
    cluster.assign_subtree_mds("/hot", 0)
    client = cluster.new_client()
    samples: List[Tuple[float, float]] = []  # (issue time, completion time)
    handoff: Dict = {}

    def driver():
        _ok((yield cluster.engine.process(client.mkdir("/hot"))))
        for i in range(ops):
            t0 = cluster.engine.now
            _ok((yield cluster.engine.process(client.create(f"/hot/f{i}"))))
            samples.append((t0, cluster.engine.now))

    def migrator():
        from repro.mds.migrate import migrate_subtree

        # Let roughly a third of the stream land on the source first.
        while len(samples) < ops // 3:
            yield cluster.engine.sleep(1e-3)
        handoff["t_start"] = cluster.engine.now
        result = yield cluster.engine.process(
            migrate_subtree(cluster, "/hot", 1)
        )
        assert result.status == "done", result.reason
        handoff["t_end"] = cluster.engine.now
        handoff["frozen_s"] = result.frozen_s
        handoff["rows"] = result.rows
        handoff["moved_events"] = result.moved_events

    cluster.engine.process(driver())
    cluster.engine.process(migrator())
    cluster.run()

    # An op is 'during' when its service interval overlaps the handoff
    # (the ops that stall at the freeze gate or chase a redirect —
    # exactly the latency the handoff is accountable for).
    windows: Dict[str, List[float]] = {w: [] for w in _MIGRATE_WINDOWS}
    for t_issue, t_done in samples:
        if t_done < handoff["t_start"]:
            windows["before"].append(t_done - t_issue)
        elif t_issue > handoff["t_end"]:
            windows["after"].append(t_done - t_issue)
        else:
            windows["during"].append(t_done - t_issue)
    assert all(windows.values()), "a handoff window saw no completions"
    rows = [
        [_percentile(windows[w], q) * 1e3 for w in _MIGRATE_WINDOWS]
        for _label, q in _MIGRATE_QUANTILES
    ]
    handoff["window_ops"] = {w: len(windows[w]) for w in _MIGRATE_WINDOWS}
    return rows, handoff


def _migrate_meta(_scale, outs, _series) -> Dict:
    handoffs = [h for _rows, h in outs]
    return {
        "frozen_s": [h["frozen_s"] for h in handoffs],
        "window_ops": handoffs[0]["window_ops"],
        "rows_transferred": handoffs[0]["rows"],
        "moved_journal_events": handoffs[0]["moved_events"],
    }


# Client-observed create latency before/during/after a live subtree
# migration between MDS ranks.  A closed-loop client streams creates
# into ``/hot`` on rank 0; a third of the way in, the subtree migrates
# to rank 1 while the stream keeps running.  The 'during' window
# (export freeze, state transfer, redirect-and-retry) pays a bounded
# latency spike; 'after' returns to the baseline on the new authority —
# traffic never stops.
migrate = Experiment(
    "migrate", "Create latency through a live subtree migration",
    "handoff window", "latency (ms)",
    note="the frozen window is bounded: p99 spikes only in 'during'; "
         "'after' matches 'before' on the destination rank",
    series=tuple(label for label, _q in _MIGRATE_QUANTILES),
    x=lambda *_: _MIGRATE_WINDOWS,
    task=_migrate_seed,
    rows=lambda out: out[0],
    meta=_migrate_meta,
)


# ---------------------------------------------------------------------------
# Table I: end-to-end cost of each semantics cell
# ---------------------------------------------------------------------------


def _table1_labels(*_) -> List[str]:
    return [f"{c.value}/{d.value}" for d in Durability for c in Consistency]


def _table1_seed(task: Tuple[int, Scale]) -> List[float]:
    seed, scale = task
    ops = scale.fig5_ops
    cells = [(c, d) for d in Durability for c in Consistency]
    row = []
    for c, d in cells:
        policy = SubtreePolicy.from_semantics(c, d, allocated_inodes=0)
        journal = "stream" in policy.plan.mechanisms
        cluster = _cluster(seed, journal=journal)
        cudele = Cudele(cluster)
        ns = cluster.run(cudele.decouple("/cell", policy))
        t0 = cluster.now
        cluster.run(ns.create_many(ops))
        cluster.run(ns.finalize())
        row.append(cluster.now - t0)
    base = row[_table1_labels().index("invisible/none")]
    return [t / base for t in row]


# Workload+completion time for all nine Table I cells, normalized to the
# weakest cell (invisible/none).
table1 = Experiment(
    "table1", "Table I: cost of each consistency/durability cell",
    "consistency/durability", "time normalized to invisible/none",
    note="stronger guarantees cost monotonically more along each axis",
    series=("relative cost",),
    x=_table1_labels,
    task=_table1_seed,
    meta=lambda scale, *_: {"ops": scale.fig5_ops},
)


ALL_EXPERIMENTS: Dict[str, Experiment] = {
    e.exp_id: e
    for e in (fig2, fig3a, fig3b, fig3c, fig5, fig6a, fig6b, fig6c, table1,
              faults, migrate)
}
