"""Compare two artifacts of the same run (regression detection).

One relative-tolerance diff over a flat ``{metric: value}`` map,
:func:`compare_flat`, serves every artifact kind; a kind contributes
only how it flattens and its same-run name check.  Experiment
artifacts (``python -m repro.bench --json``) flatten to one
``"<series> @ <x>"`` entry per data point here; scenario artifacts
flatten in :mod:`repro.scenario.report`.

A metric of the baseline that the candidate lacks fails the comparison
just as a moved one does: a run that lost data points has not been
shown to be unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.bench.harness import ExperimentResult
from repro.bench.report import load_json

__all__ = [
    "Divergence", "ComparisonReport", "compare_flat", "compare_results",
    "compare_files",
]


@dataclass(frozen=True)
class Divergence:
    """One metric that moved more than the tolerance."""

    metric: str
    baseline: float
    candidate: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate else 0.0
        return self.candidate / self.baseline - 1.0

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.baseline:.4g} -> "
            f"{self.candidate:.4g} ({self.rel_change:+.1%})"
        )


@dataclass
class ComparisonReport:
    """Outcome of diffing two runs of ``subject``."""

    subject: str
    tolerance: float
    divergences: List[Divergence] = field(default_factory=list)
    #: Baseline metrics the candidate does not have.
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.missing

    def __str__(self) -> str:
        lines = [
            f"compare {self.subject} (tolerance {self.tolerance:.0%}): "
            + ("OK" if self.ok else "DIVERGED")
        ]
        lines.extend(f"  missing: {m}" for m in self.missing)
        lines.extend(f"  {d}" for d in self.divergences)
        return "\n".join(lines)


def compare_flat(
    subject: str,
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    tolerance: float = 0.05,
) -> ComparisonReport:
    """Diff ``candidate`` against every metric of ``baseline``, in the
    baseline's order; a zero baseline is judged on the absolute change."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    report = ComparisonReport(subject, tolerance)
    for metric, base in baseline.items():
        if metric not in candidate:
            report.missing.append(metric)
            continue
        cand = candidate[metric]
        if abs(cand - base) / (abs(base) or 1.0) > tolerance:
            report.divergences.append(Divergence(metric, base, cand))
    return report


def _flatten_result(result: ExperimentResult) -> Dict[str, float]:
    return {
        f"{series.label} @ {x}": y
        for series in result.series
        for x, y in zip(series.x, series.y)
    }


def compare_results(
    baseline: ExperimentResult,
    candidate: ExperimentResult,
    tolerance: float = 0.05,
) -> ComparisonReport:
    """Diff two results of the same experiment."""
    if baseline.exp_id != candidate.exp_id:
        raise ValueError(
            f"different experiments: {baseline.exp_id} vs {candidate.exp_id}"
        )
    return compare_flat(
        baseline.exp_id, _flatten_result(baseline),
        _flatten_result(candidate), tolerance,
    )


def compare_files(
    baseline_path: Union[str, Path],
    candidate_path: Union[str, Path],
    tolerance: float = 0.05,
) -> ComparisonReport:
    """Diff two JSON artifacts on disk."""
    return compare_results(
        load_json(baseline_path), load_json(candidate_path), tolerance
    )
