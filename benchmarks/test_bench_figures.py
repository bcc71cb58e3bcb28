"""Every paper table and figure at ``REPRO_SCALE``: run, print, judge.

One benchmark per experiment in ``ALL_EXPERIMENTS``: it times the run,
prints the table, records the series in the benchmark JSON and asserts
the figure's shape claims plus every paper anchor whose points the
sweep contains (:mod:`repro.bench.paper`).
"""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.paper import check
from repro.bench.report import format_result

from benchmarks.conftest import record


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_bench_figure(benchmark, scale, exp_id):
    result = benchmark.pedantic(
        lambda: ALL_EXPERIMENTS[exp_id](scale), rounds=1, iterations=1
    )
    print("\n" + format_result(result))
    record(benchmark, result)
    check(result)
