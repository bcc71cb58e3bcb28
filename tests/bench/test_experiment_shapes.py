"""Every figure's shape claims and paper anchors, judged at ``tiny``.

The claims and anchors live in :mod:`repro.bench.paper`.  This module
makes one test per claim, and one per anchor whose points the ``tiny``
sweep contains, and judges them on the tiny goldens, which
``test_golden.py`` holds a fresh run to byte for byte.  The figure
benchmark (``benchmarks/test_bench_figures.py``) judges the same table
on a fresh run at ``REPRO_SCALE``.
"""

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.paper import ANCHORS, CLAIMS
from repro.bench.report import load_json
from repro.bench.scales import SMALL

from tests.bench.test_golden import GOLDEN_DIR

TINY = {name: load_json(GOLDEN_DIR / f"{name}.json") for name in ALL_EXPERIMENTS}


def _claim_test(exp_id, claim):
    def test():
        claim(TINY[exp_id])
    return test


def _anchor_test(anchor):
    def test():
        anchor.check(anchor.measured(TINY[anchor.exp]))
    return test


_NAMES = [claim.__name__ for _, claim in CLAIMS] + [a.name for a in ANCHORS]
assert len(set(_NAMES)) == len(_NAMES), "two claims or anchors share a name"
for _exp_id, _claim in CLAIMS:
    globals()[f"test_{_claim.__name__}"] = _claim_test(_exp_id, _claim)
for _anchor in ANCHORS:
    if _anchor.applies(TINY[_anchor.exp]):
        globals()[f"test_{_anchor.name}"] = _anchor_test(_anchor)


def test_every_experiment_has_a_claim():
    assert {exp_id for exp_id, _ in CLAIMS} == set(ALL_EXPERIMENTS)


def test_every_anchor_reads_a_point_the_small_sweep_has():
    """So the figure benchmark at ``small`` judges every anchor, and
    EXPERIMENTS.md's headline table can render every row."""
    for anchor in ANCHORS:
        exp = ALL_EXPERIMENTS[anchor.exp]
        for label, x in anchor.points():
            assert label in exp.series, anchor.name
            assert x in exp.x(SMALL, None), anchor.name
