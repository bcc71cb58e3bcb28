"""Discrete-event simulation (DES) kernel.

This package is the substrate on which the whole CephFS-like stack is
simulated.  It provides a minimal but complete process-based DES in the
style of SimPy, written from scratch:

* :class:`~repro.sim.engine.Engine` — the event loop and virtual clock.
* :class:`~repro.sim.engine.Process` — generator-based simulated
  processes that ``yield`` events.
* :mod:`~repro.sim.resources` — contended resources (server CPU slots),
  FIFO stores and semaphores.
* :mod:`~repro.sim.network` — latency/bandwidth links between daemons.
* :mod:`~repro.sim.disk` — a simple bandwidth/seek disk model.
* :mod:`~repro.sim.stats` — time-series and utilization recorders used by
  the benchmark harness.
* :mod:`~repro.sim.rng` — deterministic per-component random streams.

All results reported by the reproduction are in *simulated seconds*; the
paper's normalized slowdowns/speedups are ratios of simulated durations.
"""

from repro.sim.engine import Engine, Process, Timeout, Event, Interrupt, AllOf, AnyOf
from repro.sim.resources import Resource, Store, Semaphore
from repro.sim.network import Network, Link
from repro.sim.disk import Disk
from repro.sim.stats import Counter, TimeSeries, UtilizationTracker, StatsRegistry
from repro.sim.rng import RngStream

__all__ = [
    "Engine",
    "Process",
    "Timeout",
    "Event",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "Semaphore",
    "Network",
    "Link",
    "Disk",
    "Counter",
    "TimeSeries",
    "UtilizationTracker",
    "StatsRegistry",
    "RngStream",
]
