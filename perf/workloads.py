"""The four benchmark workloads.

Each workload builds its inputs from ``(seed, scale)`` in ``__init__``
(set-up, untimed), does its work in :meth:`run` (the timed region) and
checks its outputs in :meth:`result`.  The system is driven only through
public entry points; nothing here reads a clock — the harness in
``child.py`` owns host time, ``self.spans`` only marks where the driver
calls into a layer.

An *op* is one simulated namespace operation completed; for
``verify_sweep`` it is one verdict rendered.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from repro.analysis.model import explore_matrix
from repro.cluster import Cluster
from repro.conformance.driver import run_corruption_drill, run_matrix
from repro.conformance.recorder import HistoryRecorder
from repro.core import Cudele, MechanismContext, SubtreePolicy, run_mechanism
from repro.mds.server import MDSConfig
from repro.obs import Observability
from repro.scenario.runner import run_seed
from repro.sim.rng import RngStream

__all__ = ["WORKLOADS", "exact_p99"]


def exact_p99(samples: List[float]) -> float:
    """Nearest-rank p99 of raw samples."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _sized(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


class RpcClosed:
    """Closed loop: 8 RPC clients creating into private directories,
    plus an interferer whose creates revoke their capabilities."""

    CLIENTS = 8
    CREATES_PER_CLIENT = 3000
    INTERFERER_PERIOD_S = 0.05

    def __init__(self, seed: int, scale: float, spans, instrument=None):
        self.spans = spans
        self.per = _sized(self.CREATES_PER_CLIENT, scale, floor=4)
        self.cluster = Cluster(
            seed=seed, mds_config=MDSConfig(materialize=True)
        )
        # Attached before any client exists so every client inherits it.
        self.obs = self.recorder = None
        if instrument == "obs":
            self.obs = Observability(self.cluster).attach()
        elif instrument == "recorder":
            self.recorder = HistoryRecorder.attach(self.cluster)
        admin = self.cluster.new_client()
        self.cluster.run(admin.mkdir("/bench"))
        self.dirs = [f"/bench/o{i}" for i in range(self.CLIENTS)]
        for d in self.dirs:
            self.cluster.run(admin.mkdir(d))
        self.owners = [self.cluster.new_client() for _ in self.dirs]
        self.interferer = self.cluster.new_client()
        self.names = [
            [f"s{seed}c{i}f{k}" for k in range(self.per)]
            for i in range(self.CLIENTS)
        ]
        self.latencies: List[float] = []
        self.ops = self.failed = self.creates = 0

    def _owner(self, i: int, half_done, finished: List[int]):
        engine = self.cluster.engine
        client, d = self.owners[i], self.dirs[i]
        for k, name in enumerate(self.names[i]):
            t = engine.now
            resp = yield from client.create_many(d, [name], batch=1)
            self.latencies.append(engine.now - t)
            self.ops += 1
            self.creates += 1
            self.failed += not resp.ok
            if i == 0 and k == self.per // 2:
                half_done.succeed()
        finished[0] += 1

    def _interferer(self, half_done, finished: List[int]):
        engine = self.cluster.engine
        yield half_done
        rnd = 0
        while finished[0] < self.CLIENTS:
            for d in self.dirs:
                resp = yield from self.interferer.create_many(
                    d, [f"x{rnd}"], batch=1
                )
                self.creates += 1
                self.failed += not resp.ok
                resp = yield from self.interferer.ls(d)
                self.failed += not resp.ok
                self.ops += 2
            rnd += 1
            yield engine.sleep(self.INTERFERER_PERIOD_S)

    def run(self) -> None:
        engine = self.cluster.engine
        half_done, finished = engine.event(), [0]
        self.t_start = engine.now
        procs = [
            engine.process(self._owner(i, half_done, finished))
            for i in range(self.CLIENTS)
        ]
        procs.append(engine.process(self._interferer(half_done, finished)))
        with self.spans.span("mds+client.serve"):
            self.cluster.run()
        for proc in procs:
            if not proc.ok:
                raise proc.value

    def result(self) -> Dict:
        makespan = self.cluster.now - self.t_start
        out = {
            "ops": self.ops,
            "failed": self.failed,
            "sim_ops_per_s": self.ops / makespan,
            "sim_p99_ms": exact_p99(self.latencies) * 1e3,
            "p99_n": len(self.latencies),
            "checks": {
                "every_response_ok": self.failed == 0,
                "file_count_equals_creates": (
                    self.cluster.mds.mdstore.file_count == self.creates
                ),
            },
            "layer": {},
        }
        if self.obs is not None:
            out["layer"]["obs.spans_per_op"] = (
                len(self.obs.tracer.spans) / self.ops
            )
            self.obs.detach()
        if self.recorder is not None:
            out["layer"]["conformance.history_events_per_op"] = (
                len(self.recorder.history) / self.ops
            )
            self.recorder.detach()
        return out


class OpenloopLadder:
    """Open loop: 10^6 independent users offering a read-heavy mix at
    three fixed rates around the MDS's capacity."""

    RATES_HZ = (800, 1600, 3200)
    STEP_SIM_S = 3.2
    SLO_P99_MS = 20.0

    def __init__(self, seed: int, scale: float, spans):
        self.spans = spans
        self.seed = seed
        self.specs = [
            self.spec(rate, self.STEP_SIM_S * scale) for rate in self.RATES_HZ
        ]
        self.steps: List[Dict] = []

    @staticmethod
    def spec(rate_hz: float, duration_s: float) -> Dict:
        users = 1_000_000
        return {
            "name": f"ladder-r{rate_hz}",
            "duration_s": duration_s,
            "seeds": 1,
            "sessions": 6,
            "population": {
                "users": users,
                "rate_per_user_hz": rate_hz / users,
                "zipf_s": 1.0,
                "dirs_per_subtree": 4,
            },
            "mix": {"create": 2, "lookup": 1, "stat": 4, "ls": 1},
            "cluster": {
                "num_mds": 1, "num_osds": 3,
                "materialize": True, "journal": True,
            },
            "subtrees": [
                {"path": "/ladder/strong", "rank": 0,
                 "policy": {"consistency": "strong", "durability": "global"}},
                {"path": "/ladder/plain", "rank": 0},
            ],
        }

    def run(self) -> None:
        for i, spec in enumerate(self.specs):
            with self.spans.span(f"scenario.run_seed r{self.RATES_HZ[i]}"):
                self.steps.append(run_seed((spec, self.seed * 1000 + i)))

    def result(self) -> Dict:
        def total(step, key):
            return sum(step[key].values())

        def p99_ms(step):
            return step["latency"]["all"]["p99_s"] * 1e3

        r800, r1600, r3200 = self.steps
        ops = sum(total(s, "completed") for s in self.steps)
        failed = sum(total(s, "errors") for s in self.steps)
        knee = 0.0
        for rate, step in zip(self.RATES_HZ, self.steps):
            meets = (
                p99_ms(step) <= self.SLO_P99_MS
                and step["achieved_rate_hz"] >= 0.99 * step["offered_rate_hz"]
            )
            if meets:
                knee = float(rate)
        return {
            "ops": ops,
            "failed": failed,
            "sim_ops_per_s": r3200["achieved_rate_hz"],
            "sim_p99_ms": p99_ms(r1600),
            "p99_n": r1600["latency"]["all"]["count"],
            "checks": {
                "completed_equals_offered": all(
                    s["completed"] == s["offered"] for s in self.steps
                ),
                "zero_errors": failed == 0,
            },
            "layer": {
                "scenario.p99_ms_r800": p99_ms(r800),
                "scenario.p99_ms_r3200": p99_ms(r3200),
                "scenario.peak_backlog_r3200": r3200["peak_backlog"],
                "scenario.knee_hz": knee,
            },
        }


class DecoupledMerge:
    """Closed loop: 8 decoupled clients append locally, then persist,
    lose their node, recover from the object store and merge."""

    CLIENTS = 8
    CHUNKS_PER_CLIENT = 125
    CHUNK = 100

    def __init__(self, seed: int, scale: float, spans):
        self.spans = spans
        self.sizes = self._job_sizes(seed, _sized(self.CHUNKS_PER_CLIENT, scale))
        self.cluster = Cluster(
            seed=seed, mds_config=MDSConfig(materialize=True)
        )
        cudele = Cudele(self.cluster)
        self.namespaces = [
            self.cluster.run(cudele.decouple(
                f"/bench/d{i}",
                SubtreePolicy.from_semantics(
                    "weak", "global", allocated_inodes=size
                ),
            ))
            for i, size in enumerate(self.sizes)
        ]
        self.names = [
            [f"s{seed}c{i}f{k}" for k in range(size)]
            for i, size in enumerate(self.sizes)
        ]
        self.appended_at: List[List[float]] = [[] for _ in self.namespaces]
        self.visible_after: List[float] = []
        self.recovered_equals_persisted = True

    @classmethod
    def _job_sizes(cls, seed: int, chunks: int) -> List[int]:
        """Creates per client: the seed spreads the jobs +-10 % around
        ``chunks`` whole chunks each, keeping the total fixed so every
        seed does the same amount of work."""
        rng = RngStream(seed, "perf/decoupled_merge")
        jobs = [
            max(1, round(chunks * rng.uniform(0.9, 1.1)))
            for _ in range(cls.CLIENTS - 1)
        ]
        jobs.append(max(1, cls.CLIENTS * chunks - sum(jobs)))
        return [n * cls.CHUNK for n in jobs]

    def _appender(self, i: int):
        ns, names = self.namespaces[i], self.names[i]
        for lo in range(0, len(names), self.CHUNK):
            yield from ns.dclient.create_many(ns.path, names[lo:lo + self.CHUNK])
            self.appended_at[i].append(self.cluster.now)

    def run(self) -> None:
        cluster, engine = self.cluster, self.cluster.engine
        self.t_start = engine.now
        procs = [engine.process(self._appender(i)) for i in range(self.CLIENTS)]
        with self.spans.span("client.append"):
            cluster.run()
        for proc in procs:
            if not proc.ok:
                raise proc.value
        for i, ns in enumerate(self.namespaces):
            ctx = MechanismContext(cluster, ns.path, ns.dclient)
            with self.spans.span("core.local_persist", client=i):
                cluster.run(run_mechanism("local_persist", ctx))
            with self.spans.span("core.global_persist", client=i):
                cluster.run(run_mechanism("global_persist", ctx))
            persisted = len(ns.dclient.journal)
            with self.spans.span("journal.recover", client=i):
                ns.dclient.crash(lose_disk=True)
                recovered = cluster.run(
                    ns.dclient.recover_global(ctx.persist_striper())
                )
            if recovered != persisted or persisted != self.sizes[i]:
                self.recovered_equals_persisted = False
            with self.spans.span("core.merge", client=i):
                cluster.run(run_mechanism("volatile_apply", ctx))
            merged_at = cluster.now
            self.visible_after.extend(
                merged_at - t for t in self.appended_at[i]
            )

    def result(self) -> Dict:
        ops = sum(self.sizes)
        files = self.cluster.mds.mdstore.file_count
        return {
            "ops": ops,
            "failed": max(0, ops - files),
            "sim_ops_per_s": ops / (self.cluster.now - self.t_start),
            "sim_p99_ms": exact_p99(self.visible_after) * 1e3,
            "p99_n": len(self.visible_after),
            "checks": {
                "file_count_equals_creates": files == ops,
                "recovered_equals_persisted": self.recovered_equals_persisted,
            },
            "layer": {},
        }


class VerifySweep:
    """Hundreds of tiny instrumented runs: the conformance matrix, its
    migration and corruption drills, then a depth-4 model-check pass."""

    SEEDS = 10
    #: Runs per Table I cell; 80 or more exhausts every cell at depth 4.
    MODEL_BUDGET = 16

    def __init__(self, seed: int, scale: float, spans):
        self.spans = spans
        first = seed * 1000
        self.seeds = range(first, first + _sized(self.SEEDS, scale))
        self.budget = _sized(self.MODEL_BUDGET, scale)
        self.reports: List[Dict] = []
        self.model: Dict = {}

    def run(self) -> None:
        for s in self.seeds:
            with self.spans.span("conformance.run_matrix", seed=s):
                self.reports.append(run_matrix(s))
            with self.spans.span("conformance.run_matrix migrate", seed=s):
                self.reports.append(run_matrix(s, migrate=True))
            with self.spans.span("conformance.run_corruption_drill", seed=s):
                self.reports.append(run_corruption_drill(s))
        with self.spans.span("analysis.explore_matrix"):
            self.model = explore_matrix(
                depth=4, budget=self.budget, reduction=False
            )

    @property
    def model_runs(self) -> int:
        return sum(c["runs"] for c in self.model["cells"])

    def result(self) -> Dict:
        verdicts = [cell for rep in self.reports for cell in rep["cells"]]
        failed = sum(not v["ok"] for v in verdicts) + sum(
            not c["ok"] for c in self.model["cells"]
        )
        completes = recovers = events = 0
        sim_s = 0.0
        gaps: List[float] = []
        for rep in self.reports:
            for text in rep["histories"].values():
                invoked: Dict[int, float] = {}
                t = 0.0
                for line in text.splitlines():
                    ev = json.loads(line)
                    events += 1
                    t = ev["t"]
                    if ev["kind"] == "invoke":
                        invoked[ev["op_id"]] = t
                    elif ev["kind"] == "complete":
                        completes += 1
                        gaps.append(t - invoked[ev["op_id"]])
                    elif ev["kind"] == "recover":
                        recovers += 1
                sim_s += t
        return {
            "ops": len(verdicts) + self.model_runs,
            "failed": failed,
            "sim_ops_per_s": completes / sim_s,
            "sim_p99_ms": exact_p99(gaps) * 1e3,
            "p99_n": len(gaps),
            "checks": {"every_verdict_ok": failed == 0},
            "layer": {
                "conformance.history_events_per_op": events / completes,
                "faults.recoveries_per_verdict": recovers / len(verdicts),
                "analysis.model_states": sum(
                    c["distinct_states"] for c in self.model["cells"]
                ),
            },
        }


WORKLOADS = {
    "rpc_closed": RpcClosed,
    "openloop_ladder": OpenloopLadder,
    "decoupled_merge": DecoupledMerge,
    "verify_sweep": VerifySweep,
}
