"""Static-analysis gates for the reproduction.

Three analyzers keep the simulation's correctness invariants
machine-checked (see ``docs/ANALYSIS.md``):

* :mod:`repro.analysis.simlint` — AST determinism lint over the source
  tree (wall clocks, global RNGs, hash-order iteration, yieldless
  process bodies, shared mutable state),
* :mod:`repro.analysis.checker` — composition/policy static checking
  against the mechanism dependency DAG before anything executes,
* :mod:`repro.analysis.model` — exhaustive small-scope model checker
  over Table I cells: every cross-client interleaving (plus a
  crash/recover branch per persist-relevant step) of a bounded
  workload is replayed through :mod:`repro.sim` under
  :class:`repro.analysis.schedule.ScheduleController` and judged by
  the conformance checkers.

CLI: ``python -m repro.analysis src/`` (lint),
``python -m repro.analysis check ...`` (compositions / policy sets)
and ``python -m repro.analysis model ...`` (interleaving exploration).
"""

from repro.analysis.checker import (
    CheckError,
    CompositionError,
    MECHANISM_DEPENDENCIES,
    PolicySet,
    PolicySetError,
    check_inotable,
    check_plan,
    check_policy_set,
    parse_policy_set,
    policy_set_warnings,
)
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
    "CheckError",
    "CompositionError",
    "Decision",
    "Finding",
    "LintReport",
    "MECHANISM_DEPENDENCIES",
    "MUTATIONS",
    "Mutation",
    "PolicySet",
    "PolicySetError",
    "RULES",
    "RunResult",
    "ScheduleController",
    "Suppression",
    "check_inotable",
    "check_plan",
    "check_policy_set",
    "crash_variants",
    "explore_cell",
    "explore_matrix",
    "lint_paths",
    "lint_source",
    "model_report_json",
    "parse_policy_set",
    "policy_set_warnings",
    "register_rule",
    "rule_catalog",
    "run_schedule",
    "state_fingerprint",
]
