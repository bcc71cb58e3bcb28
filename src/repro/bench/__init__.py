"""Benchmark harness: regenerates every table and figure in the paper.

* :mod:`~repro.bench.scales` — experiment sizing presets (``tiny`` for
  tests, ``small`` for quick benches, ``paper`` for full-scale runs).
* :mod:`~repro.bench.harness` — result containers and seed aggregation.
* :mod:`~repro.bench.experiments` — one runner per experiment:
  ``fig2``, ``fig3a``, ``fig3b``, ``fig3c``, ``fig5``, ``fig6a``,
  ``fig6b``, ``fig6c``, ``table1``.
* :mod:`~repro.bench.report` — ASCII rendering of results.
* :mod:`~repro.bench.compare` — the relative-tolerance regression diff
  behind ``python -m repro.bench compare`` and
  ``python -m repro.scenario compare``.

Host-side performance (how fast the simulator itself runs) is measured
by the ledger under ``perf/``, not here (see docs/PERFORMANCE.md).

Run from the command line::

    python -m repro.bench fig5
    python -m repro.bench --jobs 4            # parallel seeded runs
    REPRO_SCALE=paper python -m repro.bench fig6a
    python -m repro.bench compare base/fig5.json cand/fig5.json
"""

from repro.bench.harness import (
    ExperimentResult,
    Series,
    aggregate,
    parallel_map,
    run_seeds,
    set_default_jobs,
)
from repro.bench.scales import PAPER, SMALL, TINY, Scale, get_scale
from repro.bench import experiments
from repro.bench.compare import ComparisonReport, compare_files, compare_results
from repro.bench.report import dump_json, format_result, format_table, load_json

__all__ = [
    "ExperimentResult",
    "Series",
    "aggregate",
    "parallel_map",
    "run_seeds",
    "set_default_jobs",
    "Scale",
    "TINY",
    "SMALL",
    "PAPER",
    "get_scale",
    "experiments",
    "format_result",
    "format_table",
    "dump_json",
    "load_json",
    "ComparisonReport",
    "compare_results",
    "compare_files",
]
