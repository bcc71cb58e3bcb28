"""What the paper says about each figure, as data.

:data:`ANCHORS` holds every number the paper quotes that an experiment
reproduces, once, with a relative tolerance and — where this
reproduction knowingly deviates — a one-line reason.  An anchor applies
at any scale whose result contains its points, so one table serves
``tiny``, ``small`` and ``paper``.  :data:`CLAIMS` holds each figure's
shape claims (who wins, orderings, crossovers), which hold at every
scale.  Tier-1 judges the tiny goldens against both, the figure
benchmark a run at ``REPRO_SCALE``, and EXPERIMENTS.md's headline table
is rendered from the anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.bench.harness import ExperimentResult

__all__ = ["Anchor", "ANCHORS", "CLAIMS", "anchor", "check"]


@dataclass(frozen=True)
class Anchor:
    """One paper number and the measured point it is compared with."""

    name: str
    #: The row's wording in EXPERIMENTS.md's headline table.
    quantity: str
    exp: str
    series: str
    x: Any
    paper: float
    #: Allowed distance from ``paper``, relative to it.
    tol: float
    #: A second (series, x) point: the measure is ``point / ref`` for a
    #: ratio, ``point - ref`` for a gap (``op="-"``).
    ref: Optional[Tuple[str, Any]] = None
    op: str = "/"
    unit: str = "×"
    #: Why this reproduction knowingly deviates, where it does.
    reason: str = ""

    def points(self):
        return [(self.series, self.x)] + ([self.ref] if self.ref else [])

    def applies(self, result: ExperimentResult) -> bool:
        xs = {s.label: s.x for s in result.series}
        return result.exp_id == self.exp and all(
            label in xs and x in xs[label] for label, x in self.points()
        )

    def measured(self, result: ExperimentResult) -> float:
        value, *ref = (result.get(label).at(x) for label, x in self.points())
        if not ref:
            return value
        return value / ref[0] if self.op == "/" else value - ref[0]

    def check(self, value: float) -> None:
        if not abs(value - self.paper) <= self.tol * abs(self.paper):
            raise AssertionError(
                f"{self.name}: measured {value:.4g}, paper "
                f"{self.paper:.4g} ± {self.tol:.0%}"
            )


_MERGE = ("within the spread of the paper's own run-to-run anchors "
          "(Known deviations, 3)")

ANCHORS: Tuple[Anchor, ...] = (
    Anchor("fig3a_one_client_journal_rate",
           "1 client, RPCs: journal on (d=40) vs off",
           "fig3a", "segments=40", 1, paper=654 / 549, tol=0.05,
           reason="calibrated to 547 creates/s, inside the paper's "
                  "513–549"),
    Anchor("fig5_rpcs_slowdown", "RPCs vs append (Fig 5)",
           "fig5", "overhead", "rpcs", paper=17.9, tol=0.1,
           reason="the paper's own rates imply 11,000/654 = 16.8×; we "
                  "match the rates"),
    Anchor("fig5_rpcs_vs_volatile_apply", "RPCs vs Volatile Apply",
           "fig5", "overhead", "rpcs", ref=("overhead", "volatile_apply"),
           paper=19.9, tol=0.1),
    Anchor("fig5_nonvolatile_apply_78x", "Nonvolatile Apply vs append",
           "fig5", "overhead", "nonvolatile_apply", paper=78, tol=0.15),
    Anchor("fig5_stream_overhead", "Stream overhead (journal on − off)",
           "fig5", "overhead", "stream", paper=2.4, tol=0.3,
           reason="journal-on pinned to 547 creates/s; the paper's own "
                  "journal-on rates (513–549/s) imply 2.0–4.6×"),
    Anchor("fig5_global_persist_slightly_over_local",
           "Global vs Local Persist gap",
           "fig5", "overhead", "global_persist",
           ref=("overhead", "local_persist"), op="-", paper=0.2, tol=0.5),
    Anchor("fig6a_decoupled_create_per_client",
           "decoupled create, 1 client (~2.5K creates/s over 549)",
           "fig6a", "decoupled: create", 1, paper=2500 / 549, tol=0.1),
    Anchor("fig6a_rpc_ceiling", "RPC speedup ceiling, 20 clients",
           "fig6a", "rpcs", 20, paper=4.5, tol=0.25),
    Anchor("fig6a_decoupled_create_20", "decoupled create, 20 clients",
           "fig6a", "decoupled: create", 20, paper=91.7, tol=0.1),
    Anchor("fig6a_create_merge_20", "create+merge, 20 clients",
           "fig6a", "decoupled: create+merge", 20, paper=15, tol=0.3,
           reason=_MERGE),
    Anchor("fig6a_create_merge_over_rpcs_20",
           "create+merge over RPCs, 20 clients",
           "fig6a", "decoupled: create+merge", 20, ref=("rpcs", 20),
           paper=3.37, tol=0.5, reason=_MERGE),
    Anchor("fig6c_sync_1s", "Sync overhead @1 s",
           "fig6c", "overhead %", 1.0, paper=9, tol=0.17, unit="%"),
    Anchor("fig6c_sync_10s", "Sync overhead @10 s (optimum)",
           "fig6c", "overhead %", 10.0, paper=2, tol=0.5, unit="%"),
)


def anchor(name: str) -> Anchor:
    return next(a for a in ANCHORS if a.name == name)


#: (experiment id, claim) pairs; a claim asserts on a result and is
#: named by its function.
CLAIMS: List[Tuple[str, Callable[[ExperimentResult], None]]] = []


def _claim(exp_id: str):
    def register(fn):
        CLAIMS.append((exp_id, fn))
        return fn
    return register


def check(result: ExperimentResult) -> None:
    """Assert ``result``'s shape claims and every anchor it contains."""
    for exp_id, claim in CLAIMS:
        if exp_id == result.exp_id:
            claim(result)
    for a in ANCHORS:
        if a.applies(result):
            a.check(a.measured(result))


@_claim("fig2")
def fig2_untar_hottest_phase(r):
    cpu, net = r.get("mds cpu"), r.get("network MB/s")
    assert cpu.at("untar") > cpu.at("configure")
    assert cpu.at("untar") > cpu.at("make")
    assert net.at("untar") > net.at("configure")


@_claim("fig3a")
def fig3a_orderings(r):
    top = max(r.series[0].x)
    nojournal, seg1, seg10, seg30, seg40 = (
        r.get(label).at(top) for label in (
            "no journal", "segments=1", "segments=10", "segments=30",
            "segments=40")
    )
    # journal off is the cheapest; dispatch 1 tracks it closely
    assert nojournal <= seg1 <= seg40 * 1.05
    assert nojournal <= seg40
    # mid sizes are the worst, 30 at least as bad as 10 at scale
    assert seg30 >= seg10 * 0.97
    assert seg10 > seg1 and seg30 > seg1
    assert seg30 > seg40


@_claim("fig3a")
def fig3a_slowdown_grows_with_clients(r):
    s = r.get("segments=40")
    assert s.y[-1] > s.y[0]


@_claim("fig3b")
def fig3b_interference_slower_everywhere(r):
    none_s, allow_s = r.get("no interference"), r.get("interference")
    for n in none_s.x:
        assert allow_s.at(n) > none_s.at(n)


@_claim("fig3c")
def fig3c_lookups_appear_after_interference(r):
    lk = r.get("lookups/s (interference)")
    third = len(lk.y) // 3
    assert sum(lk.y[third:]) > sum(lk.y[:third])
    # without interference, no remote lookups at all
    assert sum(r.get("lookups/s (no interference)").y) == 0


@_claim("fig3c")
def fig3c_goodput_drops_after_interference(r):
    creates = r.get("creates/s (interference)")
    baseline = r.get("creates/s (no interference)")
    tail = len(creates.y) * 2 // 3
    mean_tail = sum(creates.y[tail:]) / len(creates.y[tail:])
    mean_base = sum(baseline.y[tail:]) / len(baseline.y[tail:])
    assert mean_tail < 0.8 * mean_base


@_claim("fig5")
def fig5_system_compositions_ordering(r):
    s = r.get("overhead")
    assert math.isclose(s.at("append_client_journal"), 1.0, abs_tol=0.01)
    assert s.at("local_persist") < 1.5
    # POSIX (strong/global) costs the most; DeltaFS < BatchFS (no merge)
    assert s.at("POSIX") > s.at("BatchFS") > s.at("DeltaFS")
    assert s.at("RAMDisk") < s.at("BatchFS")
    assert math.isclose(s.at("POSIX"), s.at("rpcs") + s.at("stream"),
                        rel_tol=0.01)


@_claim("fig6a")
def fig6a_decoupled_create_scales_linearly(r):
    s = r.get("decoupled: create")
    top = max(s.x)
    assert math.isclose(s.at(top), top * s.at(1), rel_tol=0.05)


@_claim("fig6a")
def fig6a_rpc_flattens(r):
    s = r.get("rpcs")
    top = max(s.x)
    assert s.at(top) < 0.75 * top  # sublinear
    ceiling = anchor("fig6a_rpc_ceiling")
    assert max(s.y) <= ceiling.paper * (1 + ceiling.tol)


@_claim("fig6a")
def fig6a_merge_between_rpc_and_pure_create(r):
    top = max(r.series[0].x)
    rpc, create, merge = (r.get(label).at(top) for label in (
        "rpcs", "decoupled: create", "decoupled: create+merge"))
    assert rpc < merge < create
    assert merge / rpc > 2.0


@_claim("fig6a")
def fig6a_projected_91x_at_20_clients(r):
    """Linear extrapolation of the decoupled curve meets the 20-client
    anchor, at any scale."""
    s = r.get("decoupled: create")
    at_20 = anchor("fig6a_decoupled_create_20")
    at_20.check(s.at(max(s.x)) / max(s.x) * at_20.x)


@_claim("fig6b")
def fig6b_block_tracks_no_interference(r):
    top = max(r.series[0].x)
    none_v, allow_v, block_v = (r.get(label).at(top) for label in (
        "no interference", "interference", "block interference"))
    assert allow_v > none_v
    assert abs(block_v - none_v) < 0.35 * (allow_v - none_v)


@_claim("fig6b")
def fig6b_variability_summary(r):
    assert r.meta["sigma[interference]"] >= r.meta["sigma[no interference]"]


@_claim("fig6c")
def fig6c_u_shape(r):
    s = r.get("overhead %")
    # falls to the paper's optimum, then rises again toward 25 s
    assert min(s.x, key=s.at) == anchor("fig6c_sync_10s").x < s.x[-1]


@_claim("table1")
def table1_monotone_costs(r):
    s = r.get("relative cost")

    def v(c, d):
        return s.at(f"{c}/{d}")

    for d in ("none", "local", "global"):
        assert v("invisible", d) <= v("weak", d) <= v("strong", d)
    for c in ("invisible", "weak"):
        assert v(c, "none") <= v(c, "local") <= v(c, "global")
    assert v("strong", "none") <= v("strong", "global")
    assert math.isclose(v("invisible", "none"), 1.0)


@_claim("faults")
def faults_durability_spectrum(r):
    lost, latency = r.get("ops lost"), r.get("recovery latency (s)")
    # 'none' loses the burst, the persisted policies lose nothing
    assert lost.at("none") == r.meta["ops"]
    assert lost.at("local") == 0.0
    assert lost.at("global") == 0.0
    # recovery costs at least the downtime; the persisted policies pay
    # replay I/O on top
    for policy in lost.x:
        assert latency.at(policy) >= r.meta["downtime_s"]
    assert latency.at("local") > latency.at("none")
    assert latency.at("global") > latency.at("none")


@_claim("migrate")
def migrate_handoff_is_bounded(r):
    p50, p99 = r.get("p50"), r.get("p99")
    # The handoff costs latency only inside its own window, and the
    # spike is bounded (a freeze + transfer + one redirect round trip,
    # not seconds of unavailability).
    assert p99.at("during") > 2 * p99.at("before")
    assert p99.at("during") < 100.0  # ms
    # Traffic never stops, and the new authority serves at the old
    # baseline.
    assert math.isclose(p50.at("after"), p50.at("before"), rel_tol=0.05)
    assert all(n > 0 for n in r.meta["window_ops"].values())
