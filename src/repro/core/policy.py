"""Subtree policies, the Table I semantics matrix and the composition gate.

A :class:`SubtreePolicy` is what the policies file (and the monitor's
policy map) carries for one subtree: a consistency composition, a
durability composition, the Allocated Inodes contract and the interfere
policy.  :data:`TABLE_I` reproduces the paper's Table I exactly: the
canonical mechanism composition for every (consistency, durability)
cell.

:func:`check_plan` is the gate ``Cudele.decouple`` and ``retarget`` run
before any simulated work: a composition is only meaningful when every
mechanism's upstream needs (:data:`~repro.core.mechanisms.MECHANISMS`)
hold and no hard pair of :data:`MECHANISM_PAIRS` shares it (e.g.
``nonvolatile_apply`` without a client journal to replay is nonsense
the runtime would otherwise discover mid-run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.dsl import CompositionPlan, DslError, parse_composition
from repro.core.mechanisms import MECHANISMS
from repro.core.semantics import Consistency, Durability, PersistBackend

__all__ = [
    "SubtreePolicy",
    "TABLE_I",
    "SYSTEM_POLICIES",
    "MECHANISM_PAIRS",
    "CheckError",
    "CompositionError",
    "check_plan",
    "composition_for",
    "composition_warnings",
    "DEFAULT_ALLOCATED_INODES",
]

#: Policies-file default (paper §III-C): 100 inodes.
DEFAULT_ALLOCATED_INODES = 100

#: Table I, verbatim: (consistency, durability) -> composition.
TABLE_I: Dict[Tuple[Consistency, Durability], str] = {
    (Consistency.INVISIBLE, Durability.NONE): "append_client_journal",
    (Consistency.WEAK, Durability.NONE): "append_client_journal+volatile_apply",
    (Consistency.STRONG, Durability.NONE): "rpcs",
    (Consistency.INVISIBLE, Durability.LOCAL): "append_client_journal+local_persist",
    (Consistency.WEAK, Durability.LOCAL): (
        "append_client_journal+local_persist+volatile_apply"
    ),
    (Consistency.STRONG, Durability.LOCAL): "rpcs+local_persist",
    (Consistency.INVISIBLE, Durability.GLOBAL): (
        "append_client_journal+global_persist"
    ),
    (Consistency.WEAK, Durability.GLOBAL): (
        "append_client_journal+global_persist+volatile_apply"
    ),
    (Consistency.STRONG, Durability.GLOBAL): "rpcs+stream",
}

#: The semantics of existing systems, as the paper labels them (§III-B,
#: Figure 5 right panel).
SYSTEM_POLICIES: Dict[str, Tuple[Consistency, Durability]] = {
    "POSIX": (Consistency.STRONG, Durability.GLOBAL),
    "CephFS": (Consistency.STRONG, Durability.GLOBAL),
    "IndexFS": (Consistency.STRONG, Durability.GLOBAL),
    "BatchFS": (Consistency.WEAK, Durability.LOCAL),
    "DeltaFS": (Consistency.INVISIBLE, Durability.LOCAL),
    "RAMDisk": (Consistency.WEAK, Durability.NONE),
}


def composition_for(
    consistency: Consistency | str, durability: Durability | str
) -> str:
    """Table I lookup (accepts enum members or their string names)."""
    if isinstance(consistency, str):
        consistency = Consistency.parse(consistency)
    if isinstance(durability, str):
        durability = Durability.parse(durability)
    return TABLE_I[(consistency, durability)]


#: Every rule about a pair of mechanisms, as ``(a, b, hard, why)``.  A
#: hard pair cannot share a composition (:func:`check_plan` rejects
#: it).  An advisory pair stays legal, but the paper says it makes
#: "little sense ... since both mechanisms do the same thing or ...
#: since 'global' durability is stronger and has more overhead than
#: 'local'" (§III-B); :func:`composition_warnings` reports it.
MECHANISM_PAIRS: List[Tuple[str, str, bool, str]] = [
    (
        "stream", "append_client_journal", True,
        "stream persists the MDS journal but append_client_journal "
        "diverts updates into the decoupled client journal; the streamed "
        "journal would never contain them",
    ),
    (
        "append_client_journal", "rpcs", False,
        "both mechanisms record the same updates; pick one",
    ),
    (
        "stream", "local_persist", False,
        "stream already provides global durability, which is stronger "
        "than local",
    ),
    ("stream", "global_persist", False, "both persist the journal globally"),
    ("volatile_apply", "nonvolatile_apply", False,
     "both merge the same journal"),
]


@dataclass(frozen=True)
class CheckError:
    """One composition-check diagnostic with its location."""

    code: str
    where: str  # e.g. "stage 2 (volatile_apply)"
    message: str

    def render(self) -> str:
        return f"{self.where}: {self.code}: {self.message}"


class CompositionError(ValueError):
    """A composition failed :func:`check_plan`."""

    def __init__(self, errors: List[CheckError]):
        self.errors = errors
        super().__init__(
            "; ".join(e.render() for e in errors) or "composition check failed"
        )


def check_plan(
    plan: Union[CompositionPlan, str], raise_on_error: bool = False
) -> List[CheckError]:
    """Validate one composition against the mechanism dependency DAG.

    Checks, per the paper's mechanism semantics (§III-A):

    * journal-consuming mechanisms need an upstream producer
      (``append_client_journal`` for the apply mechanisms; a recording
      mechanism for the persists; an MDS-routing one for ``stream``),
    * no hard pair of :data:`MECHANISM_PAIRS` shares the composition,
    * a stage may not repeat a mechanism (running one mechanism twice in
      parallel against the same journal is never meaningful).
    """
    if isinstance(plan, str):
        try:
            plan = parse_composition(plan)
        except DslError as exc:
            errors = [CheckError("parse-error", "composition", str(exc))]
            if raise_on_error:
                raise CompositionError(errors) from exc
            return errors
    errors: List[CheckError] = []
    positions: Dict[str, int] = {}
    for idx, stage in enumerate(plan.stages):
        seen_in_stage = set()
        for mech in stage:
            if mech in seen_in_stage:
                errors.append(
                    CheckError(
                        "duplicate-mechanism",
                        f"stage {idx + 1} ({'||'.join(stage)})",
                        f"mechanism {mech!r} appears twice in one parallel "
                        "group; it would run against the same journal twice",
                    )
                )
            seen_in_stage.add(mech)
            positions.setdefault(mech, idx)
    # A provider that acts during the workload satisfies a need from any
    # position; one that acts only at completion must run in an earlier
    # stage.
    for mech, spec in MECHANISMS.items():
        if mech not in positions or not spec.needs:
            continue
        satisfied = any(
            p in positions
            and (MECHANISMS[p].workload or positions[p] < positions[mech])
            for p in spec.needs
        )
        if not satisfied:
            errors.append(
                CheckError(
                    "missing-dependency",
                    f"stage {positions[mech] + 1} ({mech})",
                    f"{mech} requires one of "
                    f"{sorted(spec.needs)} upstream: {spec.why}",
                )
            )
    for a, b, hard, why in MECHANISM_PAIRS:
        if hard and a in positions and b in positions:
            errors.append(
                CheckError(
                    "conflicting-mechanisms",
                    f"stage {positions[a] + 1} ({a}) vs "
                    f"stage {positions[b] + 1} ({b})",
                    why,
                )
            )
    if raise_on_error and errors:
        raise CompositionError(errors)
    return errors


def composition_warnings(plan: Union[CompositionPlan, str]) -> List[str]:
    """The advisory pairs of :data:`MECHANISM_PAIRS` in ``plan``.

    All permutations remain *legal*: these are warnings, not errors.
    """
    if isinstance(plan, str):
        plan = parse_composition(plan)
    mechs = set(plan.mechanisms)
    return [
        f"{a}+{b}: {why}"
        for a, b, hard, why in MECHANISM_PAIRS
        if not hard and a in mechs and b in mechs
    ]


@dataclass
class SubtreePolicy:
    """The policies-file contents for one subtree (paper §III-C).

    Defaults match the paper: "decoupling the namespace with an empty
    policies file would give the application 100 inodes but the subtree
    would behave like the existing CephFS implementation."
    """

    consistency: str = "rpcs"
    durability: str = "stream"
    allocated_inodes: int = DEFAULT_ALLOCATED_INODES
    interfere: str = "allow"
    #: Figure 1's HDFS subtree semantics: "weaker than strong consistency
    #: because it lets clients read files opened for writing".  When set,
    #: readers see the last committed file size without recalling the
    #: writer's buffering capability (fast but possibly stale).
    read_lazy: bool = False
    #: Device Local Persist writes through: "disk" (the node's SSD, the
    #: default) or "nvram" (DurableFS-style persistent memory — see
    #: :class:`~repro.core.semantics.PersistBackend`).  Global Persist
    #: always targets the object store regardless of this field.
    persist_backend: str = "disk"
    #: The client that decoupled this subtree (set by the namespace API).
    owner_client: Optional[int] = None
    #: Preferred MDS rank for this subtree (a Mantle-style placement
    #: hint).  When a policy installation names a rank other than the
    #: current authority, the namespace API triggers a live subtree
    #: migration (:func:`repro.mds.migrate.migrate_subtree`) instead of
    #: stopping traffic.  ``None`` leaves placement alone.
    mds_rank: Optional[int] = None

    def __post_init__(self) -> None:
        # Validate compositions and the interfere policy eagerly.
        parse_composition(self.consistency)
        if self.durability != "none":
            parse_composition(self.durability)
        if self.interfere not in ("allow", "block"):
            raise ValueError(
                f"interfere policy must be 'allow' or 'block', "
                f"got {self.interfere!r}"
            )
        if self.allocated_inodes < 0:
            raise ValueError("allocated_inodes must be >= 0")
        if self.mds_rank is not None and self.mds_rank < 0:
            raise ValueError("mds_rank must be >= 0")
        PersistBackend.parse(self.persist_backend)

    # -- derived views -----------------------------------------------------
    @property
    def combined_composition(self) -> str:
        """Consistency and durability compositions merged, duplicates
        dropped (e.g. both sides naming append_client_journal)."""
        parts: List[str] = []
        seen = set()
        for comp in (self.consistency, self.durability):
            if comp == "none":
                continue
            for stage in comp.split("+"):
                key = stage.strip()
                if key not in seen:
                    seen.add(key)
                    parts.append(key)
        return "+".join(parts)

    @property
    def plan(self):
        return parse_composition(self.combined_composition)

    @property
    def workload_mode(self) -> str:
        return self.plan.workload_mode

    @property
    def is_decoupled(self) -> bool:
        return self.workload_mode == "decoupled"

    @classmethod
    def from_semantics(
        cls,
        consistency: Consistency | str,
        durability: Durability | str,
        **kw,
    ) -> "SubtreePolicy":
        """Build the Table I policy for a semantics cell."""
        comp = composition_for(consistency, durability)
        # Split the canonical composition by mechanism role for the
        # policy file's two fields.
        mechs = comp.split("+")
        dur = [m for m in mechs if MECHANISMS[m].role == "durability"]
        con = [m for m in mechs if m not in dur]
        return cls(
            consistency="+".join(con) if con else "rpcs",
            durability="+".join(dur) if dur else "none",
            **kw,
        )

    @classmethod
    def for_system(cls, system: str, **kw) -> "SubtreePolicy":
        """Policy mirroring a named real-world system (Figure 1 / 5)."""
        try:
            consistency, durability = SYSTEM_POLICIES[system]
        except KeyError:
            raise KeyError(
                f"unknown system {system!r}; known: {sorted(SYSTEM_POLICIES)}"
            ) from None
        return cls.from_semantics(consistency, durability, **kw)
