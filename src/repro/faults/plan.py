"""Fault schedules: *what* fails, *when*, and *how*.

A :class:`FaultPlan` is a plain, inspectable list of :class:`Fault`
records ordered by simulated time.  Plans are built either explicitly
(the builder methods, one call per event) or pseudo-randomly from a
seed via :meth:`FaultPlan.random` — the draws come from a named
:class:`~repro.sim.rng.RngStream`, so the same seed always produces the
same schedule regardless of what else the scenario does.

The plan itself knows nothing about the cluster; the
:class:`~repro.faults.injector.FaultInjector` resolves target names and
executes the schedule on the DES engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.faults.corrupt import PERSIST_FAULT_MODES
from repro.sim.rng import RngStream

__all__ = ["Fault", "FaultPlan"]

#: Actions an injector knows how to execute.
ACTIONS = ("crash", "recover", "partition", "heal", "persist_fault")

#: Scopes a persist fault can arm (which durability backend it hits).
PERSIST_FAULT_SCOPES = ("local", "global")


@dataclass(frozen=True)
class Fault:
    """One scheduled failure (or repair) event.

    ``target`` names a component the injector can resolve ("osd.1",
    "mds0", "client1", "dclient1001") or, for partition/heal, the pair
    is carried in ``params`` as ``a``/``b``.  ``params`` tunes the
    action: ``lose_volatile`` for OSDs, ``lose_disk`` for decoupled
    clients, ``mode`` ("local"/"global") for decoupled-client recovery.
    """

    time: float
    action: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0  # insertion order; ties at equal times break by it

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {ACTIONS}"
            )
        if self.time < 0:
            raise ValueError("fault time cannot be negative")

    def describe(self) -> str:
        extra = ""
        if self.params:
            parts = ", ".join(
                f"{k}={self.params[k]}" for k in sorted(self.params)
            )
            extra = f" [{parts}]"
        return f"t={self.time:.6f} {self.action} {self.target}{extra}"


class FaultPlan:
    """An ordered schedule of faults to inject into one cluster run."""

    def __init__(self) -> None:
        self.faults: List[Fault] = []

    def __len__(self) -> int:
        return len(self.faults)

    def _add(self, time: float, action: str, target: str, **params) -> "FaultPlan":
        self.faults.append(
            Fault(time, action, target, dict(params), seq=len(self.faults))
        )
        return self

    # -- builders (chainable) --------------------------------------------
    def crash(self, time: float, target: str, **params) -> "FaultPlan":
        """Fail-stop the component at ``time``."""
        return self._add(time, "crash", target, **params)

    def recover(self, time: float, target: str, **params) -> "FaultPlan":
        """Bring the component back at ``time``."""
        return self._add(time, "recover", target, **params)

    def partition(self, time: float, a: str, b: str) -> "FaultPlan":
        """Sever the network pair ``a``<->``b`` at ``time``."""
        return self._add(time, "partition", f"{a}|{b}", a=a, b=b)

    def heal(self, time: float, a: str, b: str) -> "FaultPlan":
        """Repair the network pair ``a``<->``b`` at ``time``."""
        return self._add(time, "heal", f"{a}|{b}", a=a, b=b)

    def persist_fault(
        self,
        time: float,
        target: str,
        mode: str,
        seed: int = 0,
        scope: str = "local",
    ) -> "FaultPlan":
        """Arm the *next* persist by ``target`` (a decoupled client) to
        land corrupted: ``mode`` picks the physical damage (see
        :data:`~repro.faults.corrupt.PERSIST_FAULT_MODES`), ``scope``
        picks the backend it hits ("local" = the client's own persist
        device, "global" = the striped journal write on every OSD
        replica), and ``seed`` makes the damage bytes deterministic."""
        if mode not in PERSIST_FAULT_MODES:
            raise ValueError(
                f"unknown persist fault mode {mode!r}; "
                f"known: {PERSIST_FAULT_MODES}"
            )
        if scope not in PERSIST_FAULT_SCOPES:
            raise ValueError(
                f"unknown persist fault scope {scope!r}; "
                f"known: {PERSIST_FAULT_SCOPES}"
            )
        return self._add(
            time, "persist_fault", target, mode=mode, seed=seed, scope=scope
        )

    def sorted_faults(self) -> List[Fault]:
        """The schedule in execution order (time, then insertion order)."""
        return sorted(self.faults, key=lambda f: (f.time, f.seq))

    def describe(self) -> str:
        return "\n".join(f.describe() for f in self.sorted_faults())

    # -- seeded generation ------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        targets: Sequence[str],
        horizon_s: float,
        n_faults: int = 3,
        mean_downtime_s: float = 0.5,
        **recover_params,
    ) -> "FaultPlan":
        """A deterministic crash/recover schedule drawn from ``seed``.

        Each fault picks a target uniformly, crashes it at a uniform
        time in ``[0, horizon_s)`` and recovers it after an
        exponentially distributed downtime (clipped so recovery still
        lands inside the run).  Same seed + same arguments = identical
        schedule, byte for byte.
        """
        if not targets:
            raise ValueError("need at least one target")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        rng = RngStream(seed, "faultplan")
        plan = cls()
        for _ in range(n_faults):
            target = rng.choice(list(targets))
            t_crash = rng.uniform(0.0, horizon_s * 0.8)
            downtime = min(rng.exponential(mean_downtime_s),
                           horizon_s - t_crash - 1e-6)
            plan.crash(t_crash, target)
            plan.recover(t_crash + downtime, target, **recover_params)
        return plan
