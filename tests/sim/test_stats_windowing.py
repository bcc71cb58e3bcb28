"""Windowing semantics of the measurement primitives.

Property-tests ``UtilizationTracker.utilization`` against a brute-force
step-function integrator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Timeout
from repro.sim.stats import UtilizationTracker


# ---------------------------------------------------------------------------
# UtilizationTracker vs a brute-force step-function integrator
# ---------------------------------------------------------------------------

def _brute_force(breakpoints, t0, t1, capacity):
    """Integrate the right-continuous step function the slow, obvious way."""
    if t1 <= t0:
        return 0.0

    def level_at(t):
        lv = 0.0
        for bt, blv in breakpoints:
            if bt <= t:
                lv = blv
            else:
                break
        return lv

    cuts = sorted({t0, t1, *(t for t, _ in breakpoints if t0 < t < t1)})
    area = sum(level_at(a) * (b - a) for a, b in zip(cuts, cuts[1:]))
    return area / ((t1 - t0) * capacity)


def _tracked(steps):
    """Drive a tracker through (delay, level) steps; returns it."""
    eng = Engine()
    util = UtilizationTracker(eng, capacity=2.0)

    def body():
        for dt, lv in steps:
            if dt:
                yield Timeout(eng, dt)
            util.set_level(lv)

    if steps:
        eng.process(body())
        eng.run()
    return util


def test_breakpoint_exactly_at_window_end():
    # Level rises to 3.0 exactly at t1: it must contribute nothing.
    util = _tracked([(0.0, 1.0), (4.0, 3.0)])
    assert util.utilization(0.0, 4.0) == pytest.approx(
        _brute_force(util._breakpoints, 0.0, 4.0, 2.0)
    )
    assert util.utilization(0.0, 4.0) == pytest.approx(1.0 * 4.0 / (4.0 * 2.0))


def test_all_breakpoints_at_or_before_window_start():
    util = _tracked([(0.0, 1.0), (2.0, 1.5)])
    # Window opens after the last breakpoint: the final level holds.
    assert util.utilization(5.0, 9.0) == pytest.approx(1.5 / 2.0)
    assert util.utilization(5.0, 9.0) == pytest.approx(
        _brute_force(util._breakpoints, 5.0, 9.0, 2.0)
    )
    # Window opening exactly at the last breakpoint behaves the same.
    assert util.utilization(2.0, 4.0) == pytest.approx(1.5 / 2.0)


def test_window_before_first_breakpoint():
    eng = Engine()

    def advance():
        yield Timeout(eng, 10.0)

    eng.process(advance())
    eng.run()
    util = UtilizationTracker(eng, capacity=1.0)  # first breakpoint at t=10

    def busy():
        util.set_level(1.0)
        yield Timeout(eng, 5.0)

    eng.process(busy())
    eng.run()
    # Entirely before the tracker existed: idle by definition.
    assert util.utilization(0.0, 8.0) == 0.0
    # Straddling the first breakpoint: only the tail is busy.
    assert util.utilization(8.0, 12.0) == pytest.approx(2.0 / 4.0)
    assert util.utilization(8.0, 12.0) == pytest.approx(
        _brute_force(util._breakpoints, 8.0, 12.0, 1.0)
    )


_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=32),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    steps=_steps,
    t0=st.floats(min_value=-2.0, max_value=60.0, allow_nan=False, width=32),
    width=st.floats(min_value=0.0, max_value=30.0, allow_nan=False, width=32),
)
def test_utilization_matches_brute_force(steps, t0, width):
    util = _tracked(steps)
    t1 = t0 + width
    expected = _brute_force(util._breakpoints, t0, t1, util.capacity)
    assert util.utilization(t0, t1) == pytest.approx(expected, abs=1e-9)
