"""The composition language: ``+`` sequences, ``||`` parallelizes.

"To compose the mechanisms administrators inject which mechanisms to
run and which to use in parallel using a domain specific language ...
they can be serialized (+) or run in parallel (||)." (paper §III)

Grammar::

    composition := stage ("+" stage)*
    stage       := mech ("||" mech)*
    mech        := identifier

A :class:`CompositionPlan` is a list of stages; each stage is a list of
mechanism names that run concurrently; stages run in order.  Execution
against a cluster lives here too (:meth:`CompositionPlan.execute`), with
the mechanism implementations supplied by :mod:`repro.core.mechanisms`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List

from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mechanisms import MechanismContext

__all__ = ["DslError", "CompositionPlan", "parse_composition"]

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Mechanisms that act while the workload runs rather than at completion.
WORKLOAD_PHASE = {"rpcs", "append_client_journal", "stream"}


class DslError(ValueError):
    """Malformed or unknown composition."""


@dataclass(frozen=True)
class CompositionPlan:
    """Parsed composition: serial stages of parallel mechanism groups."""

    stages: tuple

    @property
    def mechanisms(self) -> List[str]:
        """All mechanism names in order of first appearance."""
        seen: List[str] = []
        for stage in self.stages:
            for mech in stage:
                if mech not in seen:
                    seen.append(mech)
        return seen

    @property
    def completion_stages(self) -> List[List[str]]:
        """Stages left to run at job completion (workload-phase
        mechanisms like RPCs/Append Client Journal removed)."""
        out = []
        for stage in self.stages:
            remaining = [m for m in stage if m not in WORKLOAD_PHASE]
            if remaining:
                out.append(remaining)
        return out

    @property
    def workload_mode(self) -> str:
        """How operations are performed during the job: ``rpc`` when the
        composition includes RPCs, else ``decoupled``."""
        return "rpc" if "rpcs" in self.mechanisms else "decoupled"

    def canonical(self) -> str:
        return "+".join("||".join(stage) for stage in self.stages)

    def execute(
        self, ctx: "MechanismContext"
    ) -> Generator[Event, None, dict]:
        """Run the completion stages against ``ctx`` (process body).

        Mechanisms within a stage run in parallel (wall time = max);
        stages run serially.  Returns per-mechanism durations.
        """
        from repro.core.mechanisms import run_mechanism

        timings: dict = {}
        for stage in self.completion_stages:
            start = ctx.engine.now
            yield from ctx.engine.gather(
                (run_mechanism(mech, ctx), f"mech:{mech}") for mech in stage
            )
            for mech in stage:
                timings[mech] = ctx.engine.now - start
        return timings


def parse_composition(text: str, known: set | None = None) -> CompositionPlan:
    """Parse ``"a+b||c"`` into a plan, validating mechanism names.

    ``known`` defaults to the registered mechanism set.
    """
    if known is None:
        from repro.core.mechanisms import MECHANISMS

        known = set(MECHANISMS)
    if not text or not text.strip():
        raise DslError("empty composition")
    stages = []
    for stage_text in text.split("+"):
        group = []
        for mech_text in stage_text.split("||"):
            name = mech_text.strip().lower().replace(" ", "_")
            if not name:
                raise DslError(f"empty mechanism in composition {text!r}")
            if not _NAME_RE.match(name):
                raise DslError(f"invalid mechanism name {name!r}")
            if name not in known:
                raise DslError(
                    f"unknown mechanism {name!r}; known: {sorted(known)}"
                )
            group.append(name)
        stages.append(tuple(group))
    return CompositionPlan(stages=tuple(stages))
