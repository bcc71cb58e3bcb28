"""Shared fixtures for the benchmark suite.

``test_bench_figures.py`` regenerates every one of the paper's tables
and figures; each ``test_bench_ablation_*`` file runs one ablation.
``REPRO_SCALE`` picks the sizing preset (default ``small``; ``paper``
for full-scale runs).  Benchmarks print their result tables — run with
``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

import pytest

from repro.bench.scales import get_scale


@pytest.fixture(scope="session")
def scale():
    return get_scale()


def record(benchmark, result):
    """Attach an ExperimentResult's numbers to the benchmark JSON."""
    benchmark.extra_info["exp_id"] = result.exp_id
    benchmark.extra_info["scale"] = result.meta.get("scale")
    for s in result.series:
        benchmark.extra_info[s.label] = list(zip(s.x, s.y))
