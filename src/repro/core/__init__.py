"""Cudele: programmable consistency and durability for subtrees.

This package is the paper's primary contribution:

* :mod:`~repro.core.semantics` — the consistency (invisible/weak/strong)
  and durability (none/local/global) spectra.
* :mod:`~repro.core.mechanisms` — the composable building blocks
  (RPCs, Append Client Journal, Volatile/Nonvolatile Apply, Stream,
  Local/Global Persist).
* :mod:`~repro.core.dsl` — the composition language: ``+`` sequences
  mechanisms, ``||`` runs them in parallel.
* :mod:`~repro.core.policy` — subtree policies, Table I (the
  semantics matrix mapping each (consistency, durability) cell to a
  mechanism composition) and the composition gate ``check_plan``.
* :mod:`~repro.core.policyfile` — the ``policies.yml`` format.
* :mod:`~repro.core.namespace_api` — the user-facing API: decouple a
  path with a policies file, retarget semantics dynamically.
* :mod:`~repro.core.sync` — namespace sync (partial updates for
  read-while-writing).
"""

from repro.core.semantics import Consistency, Durability
from repro.core.dsl import CompositionPlan, DslError, parse_composition
from repro.core.policy import (
    CompositionError,
    SubtreePolicy,
    TABLE_I,
    SYSTEM_POLICIES,
    check_plan,
    composition_for,
    composition_warnings,
)
from repro.core.policyfile import PolicyFileError, parse_policies
from repro.core.mechanisms import MechanismContext, MECHANISMS, run_mechanism
from repro.core.namespace_api import Cudele, DecoupledNamespace, EmbeddingError
from repro.core.sync import NamespaceSyncStats, synced_workload

__all__ = [
    "Consistency",
    "Durability",
    "CompositionPlan",
    "DslError",
    "parse_composition",
    "SubtreePolicy",
    "TABLE_I",
    "SYSTEM_POLICIES",
    "CompositionError",
    "check_plan",
    "composition_for",
    "composition_warnings",
    "PolicyFileError",
    "parse_policies",
    "MechanismContext",
    "MECHANISMS",
    "run_mechanism",
    "Cudele",
    "DecoupledNamespace",
    "EmbeddingError",
    "NamespaceSyncStats",
    "synced_workload",
]
