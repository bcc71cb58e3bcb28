"""Measurement primitives used by the benchmark harness.

Figure 2 of the paper plots MDS CPU/network/disk utilization over the
phases of a kernel compile; Figures 3 and 6 plot throughputs, slowdowns
and standard deviations.  These recorders collect the per-daemon side of
that: counters and windowed utilization.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.engine import Engine

__all__ = ["Counter", "UtilizationTracker", "StatsRegistry"]


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class UtilizationTracker:
    """Integrates a busy/idle signal to report utilization per window.

    ``set_level`` records the instantaneous busy level (e.g. number of
    busy CPU cores); utilization over a window is the time integral of
    the level divided by ``window * capacity``.
    """

    def __init__(self, engine: Engine, capacity: float = 1.0, name: str = "util"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._level = 0.0
        self._last_t = engine.now
        self._breakpoints: List[Tuple[float, float]] = [(engine.now, 0.0)]

    def set_level(self, level: float) -> None:
        if level < 0:
            raise ValueError("busy level cannot be negative")
        now = self.engine._now
        if self._breakpoints and self._breakpoints[-1][0] == now:
            self._breakpoints[-1] = (now, level)
        else:
            self._breakpoints.append((now, level))
        self._level = level

    def add(self, delta: float) -> None:
        self.set_level(self._level + delta)

    def utilization(self, t0: float, t1: float) -> float:
        """Mean busy fraction over the window ``[t0, t1)``.

        The level signal is a right-continuous step function: a level
        set at time ``t`` holds on ``[t, next breakpoint)``.  The
        integral clips each step to the window; a breakpoint exactly at
        ``t1`` starts a level that contributes nothing, breakpoints at
        or before ``t0`` only establish the entry level, and a window
        opening before the first breakpoint integrates level 0 (the
        tracker seeds an idle breakpoint at construction time).
        """
        if t1 <= t0:
            return 0.0
        area = 0.0
        level = 0.0  # level in force at seg_start
        seg_start = t0
        for t, lv in self._breakpoints:
            if t <= t0:
                level = lv  # last breakpoint at/before t0 wins
                continue
            if t >= t1:
                break
            area += level * (t - seg_start)
            seg_start = t
            level = lv
        area += level * (t1 - seg_start)
        return area / ((t1 - t0) * self.capacity)


class StatsRegistry:
    """Namespace of counters and utilization trackers owned by a
    simulated daemon."""

    def __init__(self, engine: Engine, owner: str):
        self.engine = engine
        self.owner = owner
        self._counters: Dict[str, Counter] = {}
        self._utils: Dict[str, UtilizationTracker] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(f"{self.owner}.{name}")
        return counter

    def utilization(self, name: str, capacity: float = 1.0) -> UtilizationTracker:
        if name not in self._utils:
            self._utils[name] = UtilizationTracker(
                self.engine, capacity=capacity, name=f"{self.owner}.{name}"
            )
        return self._utils[name]

    def counters(self) -> Dict[str, int]:
        return {k: c.value for k, c in self._counters.items()}

    def snapshot(self) -> Dict[str, float]:
        """Deterministic flat dump of this registry's state.

        Counters by value, sorted by name so two identically-seeded runs
        render byte-identical output (the fault injector's
        reproducibility contract leans on this).
        """
        out: Dict[str, float] = {}
        for name in sorted(self._counters):
            out[f"counter.{name}"] = float(self._counters[name].value)
        return out

    def render(self) -> str:
        """One canonical line per snapshot entry (``owner.key=value``)."""
        snap = self.snapshot()
        return "\n".join(f"{self.owner}.{k}={v!r}" for k, v in snap.items())
