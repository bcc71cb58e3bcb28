"""Result containers, seed aggregation and parallel fan-out for the
experiment runners.

Seeded runs are embarrassingly parallel: every seed builds its own
cluster, its own RNG streams and its own engine, and never shares state
with a sibling.  :func:`parallel_map` exploits that — it fans a list of
self-contained tasks out over a ``ProcessPoolExecutor`` and returns the
results *in submission order*, so a parallel run is byte-identical to a
serial one (guarded by ``tests/bench/test_parallel.py``).  Serial
execution remains the default (``jobs=1``) and the automatic fallback
whenever the task is not picklable or worker processes cannot be
spawned.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "Series",
    "ExperimentResult",
    "aggregate",
    "parallel_map",
    "get_default_jobs",
    "set_default_jobs",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Process-wide default worker count for :func:`parallel_map`; set by
#: the ``--jobs`` CLI flag (or the ``REPRO_JOBS`` environment variable).
_default_jobs: Optional[int] = None


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (min 1)."""
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def get_default_jobs() -> int:
    """The worker count used when a call site does not pass ``jobs``.

    Resolution order: :func:`set_default_jobs` override, then the
    ``REPRO_JOBS`` environment variable, then 1 (serial).
    """
    if _default_jobs is not None:
        return _default_jobs
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def parallel_map(
    fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: Optional[int] = None
) -> List[_R]:
    """``[fn(t) for t in tasks]``, optionally fanned out over processes.

    Results always come back in task order, so output is byte-identical
    to the serial list comprehension.  Falls back to serial execution
    when ``jobs`` resolves to 1, when there is at most one task, when
    ``fn``/``tasks`` cannot be pickled (e.g. a closure), or when worker
    processes cannot be started on this host.  Exceptions raised by
    ``fn`` propagate unchanged in either mode.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = get_default_jobs()
    jobs = min(max(1, int(jobs)), len(tasks))
    if jobs <= 1:
        return [fn(task) for task in tasks]
    try:
        pickle.dumps((fn, tasks))
    except Exception:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    except (OSError, BrokenProcessPool):
        # Spawn failure (resource limits, sandboxed host, dead worker):
        # degrade to serial rather than failing the experiment.
        return [fn(task) for task in tasks]


@dataclass
class Series:
    """One labeled curve: x values, y means, y standard deviations."""

    label: str
    x: List[Any]
    y: List[float]
    yerr: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if self.yerr and len(self.yerr) != len(self.y):
            raise ValueError("yerr must match y length")
        if not self.yerr:
            self.yerr = [0.0] * len(self.y)
        self._reindex()

    def _reindex(self) -> None:
        """(Re)build the x -> index map used by :meth:`at`.

        First occurrence wins, matching ``list.index``.  Call again if
        ``x`` is mutated in place after construction.
        """
        index: Dict[Any, int] = {}
        try:
            for i, x_value in enumerate(self.x):
                index.setdefault(x_value, i)
        except TypeError:  # unhashable x values: fall back to list.index
            index = {}
        self._index = index

    def _position(self, x_value: Any) -> int:
        try:
            pos = self._index.get(x_value)
        except TypeError:  # unhashable lookup value
            pos = None
        if pos is not None:
            return pos
        # Miss: defer to list.index, which handles post-construction
        # mutation of ``x`` and raises the canonical ValueError.
        return self.x.index(x_value)

    def at(self, x_value: Any) -> float:
        return self.y[self._position(x_value)]


@dataclass
class ExperimentResult:
    """A reproduced table/figure: several series plus provenance notes."""

    exp_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"no series {label!r} in {self.exp_id}; "
            f"have {[s.label for s in self.series]}"
        )


def aggregate(per_seed: Sequence[Sequence[float]]) -> Tuple[List[float], List[float]]:
    """Mean and population standard deviation across seeds.

    ``per_seed[s][i]`` is seed ``s``'s measurement at x-index ``i``.
    """
    arr = np.asarray(per_seed, dtype=float)
    if arr.ndim != 2:
        raise ValueError("per_seed must be a 2-D [seed][x] array")
    return list(arr.mean(axis=0)), list(arr.std(axis=0))

