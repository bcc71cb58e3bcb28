"""The open-loop population: N users as one seeded arrival process.

A million simulated users never exist as per-user objects.  The
population is a non-homogeneous Poisson process whose rate is the
product of three factors:

* **base** — ``users * rate_per_user_hz`` (each user issues metadata
  ops at a small independent rate; their superposition is Poisson);
* **diurnal** — ``1 + amplitude * sin(2*pi*t/period)``, the day/night
  swing every production trace shows;
* **bursts** — flash crowds: each burst multiplies the rate inside its
  ``[at_s, at_s + duration_s)`` window.

Arrival times are sampled by thinning (Lewis & Shedler): draw candidate
interarrivals at the envelope rate ``max_rate()`` and accept each with
probability ``rate_at(t)/max_rate()``.  Exact for any bounded rate
function, and deterministic given the :class:`~repro.sim.rng.RngStream`.

Each accepted arrival picks an op from the configured mix and a
directory from a Zipf popularity distribution whose rank-to-directory
mapping *drifts*: every ``drift.period_s`` the hotspot shifts by
``drift.stride`` directories (one subtree's worth by default), so the
hot subtree moves rank-to-rank over the run — the load pattern the
hotspot detector plus live migration is meant to chase.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.scenario.spec import ScenarioSpec
from repro.sim.rng import RngStream

__all__ = ["Arrival", "PopulationModel"]


class Arrival(NamedTuple):
    """One offered operation: when, what, where.  A named tuple, the
    cheapest immutable record to build once per offered op."""

    t: float
    op: str
    path: str


class PopulationModel:
    """Samples the scenario's arrival process (pure host-side math)."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        pop = spec.population
        self.base_rate_hz = pop.users * pop.rate_per_user_hz
        self.dirs_per_subtree = pop.dirs_per_subtree
        self.subtrees: List[str] = [s.path for s in spec.subtrees]
        self.total_dirs = len(self.subtrees) * pop.dirs_per_subtree
        self._weights = self._zipf_weights(pop.zipf_s, self.total_dirs)
        # Cumulative weights as Python floats: a pick is one bisect_right
        # over the same doubles, without numpy's per-call dispatch.
        self._cum_weights = np.cumsum(self._weights).tolist()
        mix = spec.mix.probabilities()
        self._op_names = [name for name, _p in mix]
        self._cum_ops = np.cumsum([p for _name, p in mix]).tolist()

    @staticmethod
    def _zipf_weights(zipf_s: float, total_dirs: int) -> np.ndarray:
        # Ranks over every directory of every subtree; the drift offset
        # later rotates which *directory* holds which rank.
        ranks = np.arange(1, total_dirs + 1, dtype=float)
        if zipf_s == 0:
            weights = np.ones_like(ranks)
        else:
            weights = ranks ** (-zipf_s)
        return weights / weights.sum()

    # -- rate function ---------------------------------------------------
    def diurnal_factor(self, t: float) -> float:
        d = self.spec.population.diurnal
        if d is None or d.amplitude == 0:
            return 1.0
        return 1.0 + d.amplitude * float(np.sin(2.0 * np.pi * t / d.period_s))

    def burst_factor(self, t: float) -> float:
        factor = 1.0
        for b in self.spec.population.bursts:
            if b.at_s <= t < b.at_s + b.duration_s:
                factor *= b.multiplier
        return factor

    def rate_at(self, t: float) -> float:
        """Offered rate (ops/s) at simulated time ``t``."""
        return self.base_rate_hz * self.diurnal_factor(t) * self.burst_factor(t)

    def max_rate(self) -> float:
        """A tight upper bound on ``rate_at`` over the whole run.

        The diurnal peak is ``1 + amplitude``; the burst envelope is the
        largest product of simultaneously-active bursts, found exactly by
        sweeping the burst boundary points (the product is piecewise
        constant between them).
        """
        pop = self.spec.population
        amp = pop.diurnal.amplitude if pop.diurnal is not None else 0.0
        boundaries = [0.0]
        for b in pop.bursts:
            boundaries.extend((b.at_s, b.at_s + b.duration_s))
        peak = 1.0
        for t in sorted(boundaries):
            product = 1.0
            for b in pop.bursts:
                if b.at_s <= t < b.at_s + b.duration_s:
                    product *= b.multiplier
            peak = max(peak, product)
        return self.base_rate_hz * (1.0 + amp) * peak

    # -- drift -----------------------------------------------------------
    def hotspot_offset(self, t: float) -> int:
        """Directory shift of the Zipf rank mapping at time ``t``."""
        drift = self.spec.population.drift
        if drift is None:
            return 0
        period = drift.period_s
        stride = drift.stride or self.dirs_per_subtree
        return (int(t // period) * stride) % self.total_dirs

    def dir_path(self, rank: int, t: float) -> str:
        """The directory currently holding popularity ``rank``."""
        idx = (rank + self.hotspot_offset(t)) % self.total_dirs
        subtree = self.subtrees[idx // self.dirs_per_subtree]
        return f"{subtree}/dir{idx % self.dirs_per_subtree}"

    def hot_subtree(self, t: float) -> str:
        """The subtree holding rank 0 at time ``t`` (test convenience)."""
        return self.dir_path(0, t).rsplit("/", 1)[0]

    # -- sampling --------------------------------------------------------
    def arrivals(self, rng: RngStream) -> Iterator[Arrival]:
        """Yield the run's arrivals in time order (thinning sampler).

        Each candidate draws, in this order: its gap, its thinning
        uniform, then (if accepted) an op uniform and a directory
        uniform, each picked by ``bisect_right`` over the cumulative
        weights.
        """
        lam_max = self.max_rate()
        if lam_max <= 0:
            return
        duration = self.spec.duration_s
        mean_gap = 1.0 / lam_max
        pop = self.spec.population
        # With no diurnal swing and no burst, rate_at(t) is the base
        # rate at every t (times 1.0, twice), so thinning needs no call.
        flat = (pop.diurnal is None or pop.diurnal.amplitude == 0) and not pop.bursts
        base = self.base_rate_hz
        cum_ops, op_names = self._cum_ops, self._op_names
        last_op = len(op_names) - 1
        cum_weights, last_rank = self._cum_weights, self.total_dirs - 1
        # Without drift a rank names the same directory all run long.
        dirs = (
            [self.dir_path(rank, 0.0) for rank in range(self.total_dirs)]
            if pop.drift is None else None
        )
        t = 0.0
        while True:
            t += rng.exponential(mean_gap)
            if t >= duration:
                return
            if rng.uniform(0.0, lam_max) > (base if flat else self.rate_at(t)):
                continue  # thinned: candidate rejected
            op = op_names[min(bisect_right(cum_ops, rng.uniform(0.0, 1.0)), last_op)]
            rank = min(bisect_right(cum_weights, rng.uniform(0.0, 1.0)), last_rank)
            yield Arrival(
                t, op, self.dir_path(rank, t) if dirs is None else dirs[rank]
            )

    # -- introspection ---------------------------------------------------
    def expected_ops(self) -> float:
        """Rough offered-op count (base rate x duration; bursts extra)."""
        return self.base_rate_hz * self.spec.duration_s

    def weights(self) -> Tuple[float, ...]:
        return tuple(float(w) for w in self._weights)
