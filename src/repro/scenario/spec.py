"""The scenario DSL: declarative traffic + policy + cluster specs.

A scenario file is JSON (always supported) or TOML (when the host's
Python ships :mod:`tomllib`, 3.11+; the checked-in CI scenarios are JSON
so the 3.10 matrix leg needs no gate).  Top-level shape::

    {
      "name": "flash-crowd",
      "duration_s": 30.0,
      "seeds": 3,
      "sessions": 8,
      "population": {
        "users": 100000,
        "rate_per_user_hz": 0.0005,
        "zipf_s": 1.1,
        "dirs_per_subtree": 4,
        "diurnal": {"period_s": 60.0, "amplitude": 0.3},
        "bursts": [{"at_s": 10.0, "duration_s": 5.0, "multiplier": 4.0}],
        "drift": {"period_s": 8.0, "stride": 0}
      },
      "mix": {"create": 2, "lookup": 1, "stat": 4, "ls": 1},
      "cluster": {"num_mds": 2, "num_osds": 3, "materialize": true},
      "subtrees": [
        {"path": "/scn/sub0", "rank": 0,
         "policy": {"consistency": "strong", "durability": "global"}},
        {"path": "/scn/sub1", "rank": 1}
      ],
      "auto_migrate": {"check_interval_s": 2.0, "threshold_ops": 200,
                       "max_migrations": 3}
    }

``drift.stride`` 0 (or omitted) means "one subtree's worth of
directories" — the hotspot jumps subtree-to-subtree each period.
Everything validates eagerly so a bad file fails at load, not minutes
into a run, and :meth:`ScenarioSpec.to_dict` round-trips the parsed
spec into the artifact for provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.semantics import Consistency, Durability
from repro.workloads.generators import OpMix

__all__ = [
    "BurstSpec",
    "DiurnalSpec",
    "DriftSpec",
    "AutoMigrateSpec",
    "ClusterSpec",
    "SubtreeSpec",
    "PopulationSpec",
    "ScenarioSpec",
    "load_spec",
]


class ScenarioError(ValueError):
    """A scenario file failed validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _is_int(value) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DiurnalSpec:
    """Sinusoidal day/night rate modulation."""

    period_s: float
    amplitude: float

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "diurnal.period_s must be positive")
        _require(
            0 <= self.amplitude < 1,
            "diurnal.amplitude must be in [0, 1) so the rate stays positive",
        )


@dataclass(frozen=True)
class BurstSpec:
    """One flash crowd: a rate multiplier over a time window."""

    at_s: float
    duration_s: float
    multiplier: float

    def __post_init__(self) -> None:
        _require(self.at_s >= 0, "burst.at_s must be >= 0")
        _require(self.duration_s > 0, "burst.duration_s must be positive")
        _require(self.multiplier > 0, "burst.multiplier must be positive")


@dataclass(frozen=True)
class DriftSpec:
    """Hotspot drift: shift the Zipf rank mapping every period."""

    period_s: float
    #: Directories to shift per period; 0 means one subtree's worth.
    stride: int = 0

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "drift.period_s must be positive")
        _require(self.stride >= 0, "drift.stride must be >= 0")


@dataclass(frozen=True)
class PopulationSpec:
    """Who is offering load, and with what shape."""

    users: int
    rate_per_user_hz: float
    zipf_s: float = 1.0
    dirs_per_subtree: int = 4
    diurnal: Optional[DiurnalSpec] = None
    bursts: List[BurstSpec] = field(default_factory=list)
    drift: Optional[DriftSpec] = None

    def __post_init__(self) -> None:
        _require(self.users >= 1, "population.users must be >= 1")
        _require(
            self.rate_per_user_hz > 0,
            "population.rate_per_user_hz must be positive",
        )
        _require(self.zipf_s >= 0, "population.zipf_s must be >= 0")
        _require(
            self.dirs_per_subtree >= 1,
            "population.dirs_per_subtree must be >= 1",
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster shape the scenario runs against."""

    num_mds: int = 1
    num_osds: int = 3
    materialize: bool = False
    journal: bool = True

    def __post_init__(self) -> None:
        _require(self.num_mds >= 1, "cluster.num_mds must be >= 1")
        _require(self.num_osds >= 1, "cluster.num_osds must be >= 1")


#: A subtree policy's keys and the spectrum each names a point on.
_POLICY_AXES = {"consistency": Consistency, "durability": Durability}


@dataclass(frozen=True)
class SubtreeSpec:
    """One policy-carrying subtree and its initial MDS rank."""

    path: str
    rank: int = 0
    #: ``{"consistency": ..., "durability": ...}`` per the Cudele
    #: semantics table; None leaves the subtree on plain POSIX.
    policy: Optional[Dict[str, str]] = None

    def __post_init__(self) -> None:
        _require(
            self.path.startswith("/") and self.path != "/",
            f"subtree path must be absolute and not the root: {self.path!r}",
        )
        _require(self.rank >= 0, "subtree rank must be >= 0")
        if self.policy is None:
            return
        _require(
            isinstance(self.policy, dict),
            f"subtree {self.path}: policy must be an object, "
            f"not {self.policy!r}",
        )
        unknown = sorted(k for k in self.policy if k not in _POLICY_AXES)
        _require(
            not unknown, f"subtree {self.path}: unknown policy key(s): {unknown}"
        )
        _require(
            "consistency" in self.policy and "durability" in self.policy,
            f"subtree {self.path}: policy needs consistency + durability",
        )
        for key, spectrum in _POLICY_AXES.items():
            value = self.policy[key]
            _require(
                isinstance(value, str),
                f"subtree {self.path}: policy {key} must be a string, "
                f"not {value!r}",
            )
            try:
                spectrum.parse(value)
            except ValueError as exc:
                raise ScenarioError(f"subtree {self.path}: {exc}") from None


@dataclass(frozen=True)
class AutoMigrateSpec:
    """Close the loop: hotspot detection driving live migration."""

    check_interval_s: float = 2.0
    threshold_ops: int = 100
    max_migrations: int = 4

    def __post_init__(self) -> None:
        _require(
            self.check_interval_s > 0,
            "auto_migrate.check_interval_s must be positive",
        )
        _require(
            self.threshold_ops >= 1, "auto_migrate.threshold_ops must be >= 1"
        )
        _require(
            self.max_migrations >= 1,
            "auto_migrate.max_migrations must be >= 1",
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-validated scenario."""

    name: str
    duration_s: float
    population: PopulationSpec
    mix: OpMix
    subtrees: List[SubtreeSpec]
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    sessions: int = 8
    seeds: int = 3
    auto_migrate: Optional[AutoMigrateSpec] = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        _require(
            0 < self.duration_s < math.inf,
            "duration_s must be positive and finite",
        )
        _require(self.sessions >= 1, "sessions must be >= 1")
        _require(self.seeds >= 1, "seeds must be >= 1")
        _require(bool(self.subtrees), "at least one subtree is required")
        seen: Dict[str, bool] = {}
        for sub in self.subtrees:
            _require(
                sub.path not in seen, f"duplicate subtree {sub.path!r}"
            )
            seen[sub.path] = True
            _require(
                sub.rank < self.cluster.num_mds,
                f"subtree {sub.path}: rank {sub.rank} but cluster has "
                f"{self.cluster.num_mds} MDS rank(s)",
            )
        if self.auto_migrate is not None:
            _require(
                self.cluster.num_mds >= 2,
                "auto_migrate needs cluster.num_mds >= 2",
            )
            _require(
                self.cluster.materialize,
                "auto_migrate needs cluster.materialize (live migration "
                "moves materialized subtree rows)",
            )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict) -> "ScenarioSpec":
        _require(isinstance(raw, dict), "scenario must be a mapping")
        known = {
            "name", "duration_s", "population", "mix", "subtrees",
            "cluster", "sessions", "seeds", "auto_migrate",
        }
        unknown = sorted(k for k in raw if k not in known)
        _require(not unknown, f"unknown scenario key(s): {unknown}")
        for key in ("name", "duration_s", "population", "mix", "subtrees"):
            _require(key in raw, f"scenario is missing required key {key!r}")

        pop_raw = dict(raw["population"])
        diurnal = pop_raw.pop("diurnal", None)
        bursts = pop_raw.pop("bursts", [])
        drift = pop_raw.pop("drift", None)
        try:
            population = PopulationSpec(
                diurnal=DiurnalSpec(**diurnal) if diurnal else None,
                bursts=[BurstSpec(**b) for b in bursts],
                drift=DriftSpec(**drift) if drift else None,
                **pop_raw,
            )
            mix = OpMix(**raw["mix"])
            cluster = ClusterSpec(**raw.get("cluster", {}))
            subtrees = [SubtreeSpec(**s) for s in raw["subtrees"]]
            auto = raw.get("auto_migrate")
            auto_migrate = AutoMigrateSpec(**auto) if auto else None
        except TypeError as exc:
            # Unknown field names inside a section surface as TypeError
            # from the dataclass constructor; rewrap with context.
            raise ScenarioError(f"bad scenario section: {exc}") from exc
        duration_s = raw["duration_s"]
        _require(
            _is_int(duration_s) or isinstance(duration_s, float),
            f"duration_s must be a number, not {duration_s!r}",
        )
        sessions, seeds = raw.get("sessions", 8), raw.get("seeds", 3)
        _require(
            _is_int(sessions), f"sessions must be an integer, not {sessions!r}"
        )
        _require(_is_int(seeds), f"seeds must be an integer, not {seeds!r}")
        return cls(
            name=raw["name"],
            duration_s=float(duration_s),
            population=population,
            mix=mix,
            subtrees=subtrees,
            cluster=cluster,
            sessions=sessions,
            seeds=seeds,
            auto_migrate=auto_migrate,
        )

    def to_dict(self) -> Dict:
        """Canonical JSON-ready form (embedded in artifacts verbatim)."""
        pop = self.population
        out: Dict = {
            "name": self.name,
            "duration_s": self.duration_s,
            "sessions": self.sessions,
            "seeds": self.seeds,
            "population": {
                "users": pop.users,
                "rate_per_user_hz": pop.rate_per_user_hz,
                "zipf_s": pop.zipf_s,
                "dirs_per_subtree": pop.dirs_per_subtree,
                "diurnal": (
                    {"period_s": pop.diurnal.period_s,
                     "amplitude": pop.diurnal.amplitude}
                    if pop.diurnal is not None else None
                ),
                "bursts": [
                    {"at_s": b.at_s, "duration_s": b.duration_s,
                     "multiplier": b.multiplier}
                    for b in pop.bursts
                ],
                "drift": (
                    {"period_s": pop.drift.period_s,
                     "stride": pop.drift.stride}
                    if pop.drift is not None else None
                ),
            },
            "mix": {
                "create": self.mix.create,
                "lookup": self.mix.lookup,
                "stat": self.mix.stat,
                "ls": self.mix.ls,
            },
            "cluster": {
                "num_mds": self.cluster.num_mds,
                "num_osds": self.cluster.num_osds,
                "materialize": self.cluster.materialize,
                "journal": self.cluster.journal,
            },
            "subtrees": [
                {"path": s.path, "rank": s.rank, "policy": s.policy}
                for s in self.subtrees
            ],
            "auto_migrate": (
                {"check_interval_s": self.auto_migrate.check_interval_s,
                 "threshold_ops": self.auto_migrate.threshold_ops,
                 "max_migrations": self.auto_migrate.max_migrations}
                if self.auto_migrate is not None else None
            ),
        }
        return out


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a scenario file (JSON; TOML on 3.11+)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # 3.10: no stdlib TOML parser
            raise ScenarioError(
                f"{path}: TOML scenarios need Python 3.11+ (tomllib); "
                "use the JSON form"
            ) from exc
        raw = tomllib.loads(text)
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return ScenarioSpec.from_dict(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
