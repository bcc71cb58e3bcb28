"""Static checker for mechanism compositions and subtree policy sets.

A Cudele composition (``+`` / ``||`` over the seven mechanisms, paper
§III) is only meaningful when mechanism dependencies hold — e.g.
``nonvolatile_apply`` without a client journal to replay is nonsense the
runtime would otherwise discover mid-run.  :func:`check_plan` validates
a parsed :class:`~repro.core.dsl.CompositionPlan` against the mechanism
dependency DAG before execution; :func:`check_policy_set` validates a
versioned multi-subtree policies file (nested-subtree conflicts,
overlapping allocated-inode ranges, contradictory interfere policies).

Errors are :class:`CheckError` records naming the offending stage or
subtree; :class:`CompositionError` / :class:`PolicySetError` carry the
full list when raising is requested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.dsl import CompositionPlan, DslError, parse_composition
from repro.core.policy import SubtreePolicy, composition_warnings
from repro.core.policyfile import PolicyFileError, parse_policies

__all__ = [
    "CheckError",
    "CompositionError",
    "PolicySetError",
    "MECHANISM_DEPENDENCIES",
    "check_plan",
    "PolicySet",
    "SubtreeEntry",
    "parse_policy_set",
    "check_policy_set",
    "policy_set_warnings",
    "check_inotable",
]

#: Workload-phase producers act for the whole job, so they satisfy a
#: dependency from any position in the composition.
_WORKLOAD_PRODUCERS = {"rpcs", "append_client_journal"}

#: mechanism -> (set of acceptable upstream providers, why it needs one).
MECHANISM_DEPENDENCIES: Dict[str, Tuple[frozenset, str]] = {
    "volatile_apply": (
        frozenset({"append_client_journal"}),
        "it replays the client journal onto the MDS's in-memory store",
    ),
    "nonvolatile_apply": (
        frozenset({"append_client_journal"}),
        "it replays the client journal through the object store",
    ),
    "local_persist": (
        frozenset({"append_client_journal", "rpcs"}),
        "it writes recorded updates to the client's disk",
    ),
    "global_persist": (
        frozenset({"append_client_journal", "rpcs"}),
        "it pushes recorded updates into the object store",
    ),
    "stream": (
        frozenset({"rpcs", "volatile_apply"}),
        "it streams the MDS journal, so updates must reach the MDS",
    ),
}

#: Mechanism pairs that cannot share a composition (hard conflicts, as
#: opposed to the advisory pairings in ``composition_warnings``).
MECHANISM_CONFLICTS: List[Tuple[str, str, str]] = [
    (
        "stream", "append_client_journal",
        "stream persists the MDS journal but append_client_journal "
        "diverts updates into the decoupled client journal; the streamed "
        "journal would never contain them",
    ),
]


@dataclass(frozen=True)
class CheckError:
    """One static-checker diagnostic with its location."""

    code: str
    where: str  # e.g. "stage 2 (volatile_apply)" or "subtree /a vs /a/b"
    message: str

    def render(self) -> str:
        return f"{self.where}: {self.code}: {self.message}"


class CompositionError(ValueError):
    """A composition failed static checking."""

    def __init__(self, errors: List[CheckError]):
        self.errors = errors
        super().__init__(
            "; ".join(e.render() for e in errors) or "composition check failed"
        )


class PolicySetError(ValueError):
    """A policy set failed parsing or static checking."""

    def __init__(self, errors: List[CheckError]):
        self.errors = errors
        super().__init__(
            "; ".join(e.render() for e in errors) or "policy set check failed"
        )


# --------------------------------------------------------------------------
# composition checking
# --------------------------------------------------------------------------


def check_plan(
    plan: Union[CompositionPlan, str], raise_on_error: bool = False
) -> List[CheckError]:
    """Validate one composition against the mechanism dependency DAG.

    Checks, per the paper's mechanism semantics (§III-A):

    * journal-consuming mechanisms need an upstream producer
      (``append_client_journal`` for the apply mechanisms; a recording
      mechanism for the persists; an MDS-routing one for ``stream``),
    * ``stream`` is exclusive with the decoupled client journal,
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
    mechs = set(positions)
    for mech, (providers, why) in MECHANISM_DEPENDENCIES.items():
        if mech not in mechs:
            continue
        satisfied = any(
            p in mechs
            and (p in _WORKLOAD_PRODUCERS or positions[p] < positions[mech])
            for p in providers
        )
        if not satisfied:
            errors.append(
                CheckError(
                    "missing-dependency",
                    f"stage {positions[mech] + 1} ({mech})",
                    f"{mech} requires one of "
                    f"{sorted(providers)} upstream: {why}",
                )
            )
    for a, b, why in MECHANISM_CONFLICTS:
        if a in mechs and b in mechs:
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


# --------------------------------------------------------------------------
# versioned policy sets
# --------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[(?P<path>/[^\]]*)\]\s*$")
SUPPORTED_VERSIONS = (1,)


@dataclass
class SubtreeEntry:
    """One subtree's parsed policy plus checker-only extras."""

    path: str
    policy: SubtreePolicy
    lineno: int
    #: First inode of the subtree's allocated range; with the policy's
    #: ``allocated_inodes`` count this fixes ``[base, base + count)``.
    inode_base: Optional[int] = None

    @property
    def inode_range(self) -> Optional[Tuple[int, int]]:
        if self.inode_base is None or self.policy.allocated_inodes <= 0:
            return None
        return (self.inode_base, self.inode_base + self.policy.allocated_inodes)


@dataclass
class PolicySet:
    """A parsed versioned policies file covering several subtrees."""

    version: int
    subtrees: Dict[str, SubtreeEntry] = field(default_factory=dict)

    def ancestors_of(self, path: str) -> List[SubtreeEntry]:
        """Entries for proper ancestors of ``path``, outermost first."""
        out = []
        for other, entry in self.subtrees.items():
            if path != other and (path + "/").startswith(other.rstrip("/") + "/"):
                out.append(entry)
        out.sort(key=lambda e: len(e.path))
        return out


def parse_policy_set(text: str) -> PolicySet:
    """Parse a versioned multi-subtree policies file.

    Format: a ``version: N`` header, then one ``[/subtree/path]``
    section per subtree whose body is the flat single-subtree format of
    :mod:`repro.core.policyfile`, plus the checker-only ``inode_base``
    key.  Raises :class:`PolicySetError` naming every problem found.
    """
    errors: List[CheckError] = []
    version: Optional[int] = None
    sections: List[Tuple[str, int, List[str]]] = []
    current: Optional[List[str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        m = _SECTION_RE.match(stripped)
        if m:
            path = "/" + "/".join(p for p in m.group("path").split("/") if p)
            if any(path == s[0] for s in sections):
                errors.append(
                    CheckError(
                        "duplicate-subtree", f"subtree {path}",
                        f"line {lineno}: subtree declared twice",
                    )
                )
            current = []
            sections.append((path, lineno, current))
            continue
        if not stripped:
            continue
        if version is None and current is None:
            key, _, value = stripped.partition(":")
            if key.strip().lower() == "version":
                try:
                    version = int(value)
                except ValueError:
                    errors.append(
                        CheckError(
                            "bad-version", "header",
                            f"line {lineno}: version must be an integer, "
                            f"got {value.strip()!r}",
                        )
                    )
                    version = -1
                continue
        if current is None:
            errors.append(
                CheckError(
                    "stray-line", "header",
                    f"line {lineno}: expected 'version: N' or a "
                    f"'[/subtree]' section before {stripped!r}",
                )
            )
            continue
        current.append(stripped)
    if version is None:
        errors.append(
            CheckError("missing-version", "header",
                       "policy sets must declare 'version: N'")
        )
    elif version not in SUPPORTED_VERSIONS and version != -1:
        errors.append(
            CheckError(
                "unsupported-version", "header",
                f"version {version} not supported "
                f"(supported: {list(SUPPORTED_VERSIONS)})",
            )
        )
    ps = PolicySet(version=version or 0)
    for path, lineno, body in sections:
        inode_base: Optional[int] = None
        policy_lines: List[str] = []
        for line in body:
            key, _, value = line.partition(":")
            if key.strip().lower() == "inode_base":
                try:
                    inode_base = int(value)
                    if inode_base <= 0:
                        raise ValueError
                except ValueError:
                    errors.append(
                        CheckError(
                            "bad-inode-base", f"subtree {path}",
                            f"inode_base must be a positive integer, "
                            f"got {value.strip()!r}",
                        )
                    )
            else:
                policy_lines.append(line)
        try:
            policy = parse_policies("\n".join(policy_lines))
        except PolicyFileError as exc:
            errors.append(
                CheckError("bad-policy", f"subtree {path}", str(exc))
            )
            continue
        if path not in ps.subtrees:
            ps.subtrees[path] = SubtreeEntry(
                path=path, policy=policy, lineno=lineno, inode_base=inode_base
            )
    if errors:
        raise PolicySetError(errors)
    return ps


def _consistency_rank(policy: SubtreePolicy) -> int:
    """0 = invisible, 1 = weak, 2 = strong (cf. paper Figure 1)."""
    mechs = set(policy.plan.mechanisms)
    if "rpcs" in mechs:
        return 2
    if {"volatile_apply", "nonvolatile_apply"} & mechs:
        return 1
    return 0


def check_policy_set(
    ps: PolicySet, raise_on_error: bool = False
) -> List[CheckError]:
    """Cross-subtree validation of a parsed policy set.

    * every subtree's composition passes :func:`check_plan`,
    * allocated-inode ranges (``[inode_base, inode_base +
      allocated_inodes)``) of distinct subtrees must not overlap — two
      decoupled clients minting the same inode numbers collide at merge,
    * a subtree nested under an ``interfere: block`` subtree cannot
      relax it to ``allow`` (the parent promised its client exclusive
      access to the whole subtree),
    * a nested subtree cannot weaken its ancestor's consistency
      (the embeddable-policies rule, paper §VII).
    """
    errors: List[CheckError] = []
    entries = sorted(ps.subtrees.values(), key=lambda e: e.path)
    for entry in entries:
        for err in check_plan(entry.policy.plan):
            errors.append(
                CheckError(
                    err.code, f"subtree {entry.path}, {err.where}", err.message
                )
            )
    for i, a in enumerate(entries):
        ra = a.inode_range
        if ra is None:
            continue
        for b in entries[i + 1:]:
            rb = b.inode_range
            if rb is None:
                continue
            if ra[0] < rb[1] and rb[0] < ra[1]:
                lo, hi = max(ra[0], rb[0]), min(ra[1], rb[1])
                errors.append(
                    CheckError(
                        "inode-overlap",
                        f"subtree {a.path} vs {b.path}",
                        f"allocated-inode ranges [{ra[0]}, {ra[1]}) and "
                        f"[{rb[0]}, {rb[1]}) overlap on [{lo}, {hi}); "
                        "decoupled creates would collide at merge time",
                    )
                )
    for entry in entries:
        for ancestor in ps.ancestors_of(entry.path):
            if (
                ancestor.policy.interfere == "block"
                and entry.policy.interfere == "allow"
            ):
                errors.append(
                    CheckError(
                        "interfere-conflict",
                        f"subtree {entry.path} under {ancestor.path}",
                        f"{entry.path} sets interfere=allow inside "
                        f"{ancestor.path} which blocks interference; the "
                        "outer contract promised exclusive access",
                    )
                )
            if _consistency_rank(entry.policy) < _consistency_rank(
                ancestor.policy
            ):
                errors.append(
                    CheckError(
                        "embedding-violation",
                        f"subtree {entry.path} under {ancestor.path}",
                        f"{entry.path} weakens the consistency of "
                        f"{ancestor.path}; embedded subtrees must maintain "
                        "the parent's consistency guarantee (paper §VII)",
                    )
                )
    if raise_on_error and errors:
        raise PolicySetError(errors)
    return errors


def policy_set_warnings(ps: PolicySet) -> List[str]:
    """Advisory composition pairings (paper §III-B) per subtree."""
    out: List[str] = []
    for path in sorted(ps.subtrees):
        policy = ps.subtrees[path].policy
        out.extend(
            f"subtree {path}: {w}"
            for w in composition_warnings(policy.combined_composition)
        )
    return out


def check_inotable(inotable, raise_on_error: bool = False) -> List[CheckError]:
    """Runtime defense-in-depth: provisioned ranges must be disjoint.

    ``InoTable.provision`` allocates disjoint ranges by construction;
    this guards against hand-assembled tables and future refactors.
    """
    flat = []
    for client_id in sorted(inotable._ranges):
        for rng in inotable._ranges[client_id]:
            flat.append((client_id, rng))
    errors: List[CheckError] = []
    for i, (ca, ra) in enumerate(flat):
        for cb, rb in flat[i + 1:]:
            if ra.start < rb.end and rb.start < ra.end:
                errors.append(
                    CheckError(
                        "inode-overlap",
                        f"client {ca} vs client {cb}",
                        f"provisioned ranges [{ra.start}, {ra.end}) and "
                        f"[{rb.start}, {rb.end}) overlap",
                    )
                )
    if raise_on_error and errors:
        raise PolicySetError(errors)
    return errors
