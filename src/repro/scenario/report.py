"""Scenario SLO reports: per-seed aggregation, artifacts, regression gate.

Aggregation across seeds reports mean, sample standard deviation and a
95% confidence interval built from Student's t distribution (critical
values baked in — no scipy dependency; seed counts are small, so the
normal approximation would understate the interval).  The artifact is
``json.dumps(..., indent=2, sort_keys=True)`` of plain numbers — no
wall-clock stamps, no host info — so serial and ``--jobs N`` runs emit
byte-identical files.

:func:`compare_artifacts` is ``repro.bench compare``'s diff
(:func:`repro.bench.compare.compare_flat`) over the aggregate means of
two artifacts of the same scenario: any metric whose relative change
exceeds the tolerance, or that the candidate lacks, fails the gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Union

from repro.bench.compare import ComparisonReport, compare_flat

__all__ = [
    "SCHEMA",
    "aggregate_seeds",
    "build_artifact",
    "compare_artifacts",
    "format_report",
    "t_critical_95",
]

SCHEMA = "repro.scenario/v1"

#: Two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: beyond 30 the normal-approximation value is close enough.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)
_Z_95 = 1.960


def t_critical_95(df: int) -> float:
    """Two-sided 95% critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= len(_T_95):
        return _T_95[df - 1]
    return _Z_95


def _summary(values: List[float]) -> Dict[str, float]:
    """mean / sample std / 95% CI half-width for one metric's seeds."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return {"mean": mean, "std": 0.0, "ci95": 0.0, "n": n}
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    ci95 = t_critical_95(n - 1) * std / math.sqrt(n)
    return {"mean": mean, "std": std, "ci95": ci95, "n": n}


def _latency_ops(per_seed: List[Dict]) -> List[str]:
    ops: Dict[str, bool] = {}
    for seed_result in per_seed:
        for op in sorted(seed_result["latency"]):
            ops[op] = True
    return sorted(ops)


def aggregate_seeds(per_seed: List[Dict]) -> Dict:
    """Cross-seed summary of the scalar SLO metrics."""
    if not per_seed:
        raise ValueError("need at least one per-seed result")
    agg: Dict = {
        "seeds": len(per_seed),
        "offered_rate_hz": _summary(
            [s["offered_rate_hz"] for s in per_seed]
        ),
        "achieved_rate_hz": _summary(
            [s["achieved_rate_hz"] for s in per_seed]
        ),
        "makespan_s": _summary([s["makespan_s"] for s in per_seed]),
        "peak_backlog": _summary(
            [float(s["peak_backlog"]) for s in per_seed]
        ),
        "errors_total": _summary(
            [float(sum(s["errors"][op] for op in sorted(s["errors"])))
             for s in per_seed]
        ),
        "migrations_done": _summary(
            [float(s["migrations_done"]) for s in per_seed]
        ),
        "redirects": _summary([float(s["redirects"]) for s in per_seed]),
        "latency": {},
    }
    for op in _latency_ops(per_seed):
        present = [s for s in per_seed if op in s["latency"]]
        agg["latency"][op] = {
            quantile: _summary(
                [s["latency"][op][quantile] for s in present]
            )
            for quantile in ("p50_s", "p95_s", "p99_s", "mean_s")
        }
    return agg


def build_artifact(spec, per_seed: List[Dict]) -> Dict:
    """The run's JSON-ready artifact (spec provenance + data)."""
    return {
        "schema": SCHEMA,
        "scenario": spec.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate_seeds(per_seed),
    }


def dump_artifact(artifact: Dict, path: Union[str, Path]) -> None:
    """Write the canonical (byte-stable) JSON form."""
    Path(path).write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def load_artifact(path: Union[str, Path]) -> Dict:
    artifact = json.loads(Path(path).read_text())
    schema = artifact.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return artifact


# -- human-readable report -------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}"


def format_report(artifact: Dict) -> str:
    """Render the per-scenario SLO report (plain text)."""
    spec = artifact["scenario"]
    agg = artifact["aggregate"]
    pop = spec["population"]
    lines = [
        f"scenario {spec['name']}: {pop['users']:,} users over "
        f"{spec['sessions']} sessions, {spec['duration_s']:g} s, "
        f"{agg['seeds']} seed(s)",
        (
            "  offered  {mean:9.2f} ops/s  (±{ci95:.2f} CI95)".format(
                **agg["offered_rate_hz"]
            )
        ),
        (
            "  achieved {mean:9.2f} ops/s  (±{ci95:.2f} CI95)".format(
                **agg["achieved_rate_hz"]
            )
        ),
        (
            f"  peak backlog {agg['peak_backlog']['mean']:.1f} ops, "
            f"errors {agg['errors_total']['mean']:.1f}, "
            f"redirects {agg['redirects']['mean']:.1f}"
        ),
    ]
    if spec.get("auto_migrate") is not None:
        lines.append(
            f"  auto-migrations {agg['migrations_done']['mean']:.1f} "
            "completed per seed"
        )
    lines.append(
        "  latency (ms)       p50       p95       p99      mean"
    )
    for op in sorted(agg["latency"]):
        quantiles = agg["latency"][op]
        lines.append(
            f"    {op:<12}"
            + _fmt_ms(quantiles["p50_s"]["mean"]) + "  "
            + _fmt_ms(quantiles["p95_s"]["mean"]) + "  "
            + _fmt_ms(quantiles["p99_s"]["mean"]) + "  "
            + _fmt_ms(quantiles["mean_s"]["mean"])
        )
    return "\n".join(lines)


# -- regression gate -------------------------------------------------------


def _flatten_aggregate(agg: Dict) -> Dict[str, float]:
    """Aggregate means as a flat ``metric-path -> value`` mapping,
    sorted by metric path."""
    flat: Dict[str, float] = {}
    for key in (
        "offered_rate_hz", "achieved_rate_hz", "makespan_s",
        "peak_backlog", "errors_total", "migrations_done", "redirects",
    ):
        flat[key] = agg[key]["mean"]
    for op in sorted(agg["latency"]):
        for quantile in ("p50_s", "p95_s", "p99_s", "mean_s"):
            flat[f"latency.{op}.{quantile}"] = (
                agg["latency"][op][quantile]["mean"]
            )
    return dict(sorted(flat.items()))


def compare_artifacts(
    baseline: Dict, candidate: Dict, tolerance: float = 0.05
) -> ComparisonReport:
    """Diff the aggregate means of two runs of the same scenario."""
    base_name = baseline["scenario"]["name"]
    cand_name = candidate["scenario"]["name"]
    if base_name != cand_name:
        raise ValueError(
            f"different scenarios: {base_name!r} vs {cand_name!r}"
        )
    return compare_flat(
        f"scenario {base_name}",
        _flatten_aggregate(baseline["aggregate"]),
        _flatten_aggregate(candidate["aggregate"]),
        tolerance,
    )


def compare_files(
    baseline_path: Union[str, Path],
    candidate_path: Union[str, Path],
    tolerance: float = 0.05,
) -> ComparisonReport:
    """Diff two scenario artifacts on disk."""
    return compare_artifacts(
        load_artifact(baseline_path), load_artifact(candidate_path),
        tolerance,
    )
