"""Static-analysis gates for the reproduction.

Two analyzers keep the simulation's correctness invariants
machine-checked (see ``docs/ANALYSIS.md``):

* :mod:`repro.analysis.simlint` — AST determinism lint over the source
  tree (wall clocks, global RNGs, hash-order iteration, yieldless
  process bodies, shared mutable state),
* :mod:`repro.analysis.model` — exhaustive small-scope model checker
  over Table I cells: every cross-client interleaving (plus a
  crash/recover branch per persist-relevant step) of a bounded
  workload is replayed through :mod:`repro.sim` under
  :class:`repro.analysis.schedule.ScheduleController` and judged by
  the conformance checkers.

CLI: ``python -m repro.analysis src/`` (lint),
``python -m repro.analysis check ...`` (compositions, through the
runtime's own gate :func:`repro.core.policy.check_plan`) and
``python -m repro.analysis model ...`` (interleaving exploration).
"""

from repro.analysis.findings import Finding, Suppression
from repro.analysis.model import (
    MUTATIONS,
    Mutation,
    RunResult,
    crash_variants,
    explore_cell,
    explore_matrix,
    model_report_json,
    run_schedule,
    state_fingerprint,
)
from repro.analysis.rules import RULES, register_rule, rule_catalog
from repro.analysis.schedule import Alternative, Decision, ScheduleController
from repro.analysis.simlint import LintReport, lint_paths, lint_source

__all__ = [
    "Alternative",
    "Decision",
    "Finding",
    "LintReport",
    "MUTATIONS",
    "Mutation",
    "RULES",
    "RunResult",
    "ScheduleController",
    "Suppression",
    "crash_variants",
    "explore_cell",
    "explore_matrix",
    "lint_paths",
    "lint_source",
    "model_report_json",
    "register_rule",
    "rule_catalog",
    "run_schedule",
    "state_fingerprint",
]
