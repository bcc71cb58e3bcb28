"""Tests for the stats recorders and deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.engine import Engine, Timeout
from repro.sim.rng import RngStream
from repro.sim.stats import Counter, StatsRegistry, UtilizationTracker


def test_counter_increments():
    c = Counter("ops")
    c.incr()
    c.incr(4)
    assert int(c) == 5


def test_counter_rejects_negative():
    c = Counter("ops")
    with pytest.raises(ValueError):
        c.incr(-1)


def test_utilization_tracker_half_busy():
    eng = Engine()
    util = UtilizationTracker(eng, capacity=1.0)

    def body():
        util.set_level(1.0)
        yield Timeout(eng, 5)
        util.set_level(0.0)
        yield Timeout(eng, 5)

    eng.process(body())
    eng.run()
    assert util.utilization(0, 10) == pytest.approx(0.5)


def test_utilization_tracker_window_subset():
    eng = Engine()
    util = UtilizationTracker(eng, capacity=2.0)

    def body():
        yield Timeout(eng, 2)
        util.set_level(2.0)
        yield Timeout(eng, 2)
        util.set_level(0.0)
        yield Timeout(eng, 2)

    eng.process(body())
    eng.run()
    # busy 2 cores over [2,4] of a capacity-2 tracker
    assert util.utilization(2, 4) == pytest.approx(1.0)
    assert util.utilization(0, 6) == pytest.approx(1 / 3)
    assert util.utilization(4, 6) == pytest.approx(0.0)


def test_utilization_add_is_relative():
    eng = Engine()
    util = UtilizationTracker(eng, capacity=4.0)

    def body():
        util.add(2)
        yield Timeout(eng, 1)
        util.add(-1)
        yield Timeout(eng, 1)

    eng.process(body())
    eng.run()
    assert util.utilization(0, 2) == pytest.approx((2 + 1) / (2 * 4))


def test_utilization_negative_level_rejected():
    eng = Engine()
    util = UtilizationTracker(eng)
    with pytest.raises(ValueError):
        util.set_level(-1)


def test_utilization_zero_window():
    eng = Engine()
    util = UtilizationTracker(eng)
    assert util.utilization(1, 1) == 0.0


def test_registry_reuses_named_objects():
    eng = Engine()
    reg = StatsRegistry(eng, "mds0")
    assert reg.counter("rpcs") is reg.counter("rpcs")
    assert reg.utilization("cpu") is reg.utilization("cpu")
    reg.counter("rpcs").incr(3)
    assert reg.counters() == {"rpcs": 3}


def test_rng_deterministic_per_name():
    a1 = RngStream(7, "client0")
    a2 = RngStream(7, "client0")
    b = RngStream(7, "client1")
    seq1 = [a1.uniform() for _ in range(5)]
    seq2 = [a2.uniform() for _ in range(5)]
    seqb = [b.uniform() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seqb


def test_rng_different_seed_differs():
    x = RngStream(1, "c")
    y = RngStream(2, "c")
    assert [x.uniform() for _ in range(3)] != [y.uniform() for _ in range(3)]


def test_rng_child_streams_independent():
    root = RngStream(5, "mds")
    c1 = root.child("journal")
    c2 = root.child("cache")
    assert c1.name == "mds/journal"
    assert [c1.uniform() for _ in range(3)] != [c2.uniform() for _ in range(3)]


def test_lognormal_service_mean_and_validation():
    r = RngStream(3, "svc")
    samples = [r.lognormal_service(0.01, cv=0.1) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(0.01, rel=0.05)
    assert r.lognormal_service(2.0, cv=0.0) == 2.0
    with pytest.raises(ValueError):
        r.lognormal_service(-1.0)
    with pytest.raises(ValueError):
        r.lognormal_service(1.0, cv=-0.5)


def test_exponential_validation():
    r = RngStream(3, "svc")
    with pytest.raises(ValueError):
        r.exponential(0)
    assert r.exponential(1.0) > 0


def test_rng_helpers():
    r = RngStream(11, "misc")
    v = r.integers(0, 10)
    assert 0 <= v < 10
    assert r.choice(["only"]) == "only"
    seq = list(range(20))
    shuffled = list(seq)
    r.shuffle(shuffled)
    assert sorted(shuffled) == seq


# -- RngStream is numpy's Generator, draw for draw ---------------------------

DIFFERENTIAL_SEEDS = range(20)
DRAWS_PER_SEED = 10_000


def _twin(stream: RngStream) -> np.random.Generator:
    """A fresh ``numpy.random.Generator`` at the stream's exact state."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = stream._gen.bit_generator.state
    return twin


def _numpy_lognormal(twin, mean, cv):
    # The expressions RngStream.lognormal_service evaluated through
    # numpy before it drew from the primitives.
    if cv == 0:
        return mean
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(twin.lognormal(mu, np.sqrt(sigma2)))


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_scalar_draws_equal_numpy_bit_for_bit(seed):
    """Every scalar draw equals the matching Generator method on a twin
    generator, over interleaved calls with varied arguments (integer
    bounds included); the list/shuffle helpers interleave too, so both
    streams must also stay in lockstep."""
    stream = RngStream(seed, "differential")
    twin = _twin(stream)
    plan = np.random.default_rng(10_000 + seed)
    kinds = plan.integers(0, 8, DRAWS_PER_SEED).tolist()
    a = (plan.standard_normal(DRAWS_PER_SEED) * 10.0 ** plan.integers(
        -6, 7, DRAWS_PER_SEED)).tolist()
    b = plan.exponential(1.0, DRAWS_PER_SEED).tolist()
    cvs = plan.uniform(0.0, 2.0, DRAWS_PER_SEED).tolist()
    ours, theirs = [], []
    for kind, x, y, cv in zip(kinds, a, b, cvs):
        if kind == 0:
            ours.append(stream.uniform())
            theirs.append(float(twin.uniform()))
        elif kind == 1:
            ours.append(stream.uniform(x, x + y))
            theirs.append(float(twin.uniform(x, x + y)))
        elif kind == 2:
            # Integer bounds, some past 2**53: numpy converts each bound
            # to a double before subtracting, and so must the stream.
            lo = int(x) << (40 if y > 1.0 else 0)
            hi = lo + 1 + int(y * 100)
            ours.append(stream.uniform(lo, hi))
            theirs.append(float(twin.uniform(lo, hi)))
        elif kind == 3:
            ours.append(stream.exponential(y + 1e-9))
            theirs.append(float(twin.exponential(y + 1e-9)))
        elif kind == 4:
            ours.append(stream.normal(x, y))
            theirs.append(float(twin.normal(x, y)))
        elif kind == 5:
            mean = y + 1e-9
            ours.append(stream.lognormal_service(mean, cv))
            theirs.append(_numpy_lognormal(twin, mean, cv))
        elif kind == 6:
            # The MDS's own parameters, a zero CV among them.
            cv = (0.1, 0.1 / 10 ** 0.5, 0.0)[int(y) % 3]
            ours.append(stream.lognormal_service(1.0 / 3_000, cv))
            theirs.append(_numpy_lognormal(twin, 1.0 / 3_000, cv))
        else:
            ours.append(float(stream.integers(0, 1000)))
            theirs.append(float(twin.integers(0, 1000)))
    assert all(type(v) is float for v in ours)
    got = np.array(ours).view(np.int64)
    want = np.array(theirs).view(np.int64)
    mismatches = np.flatnonzero(got != want)
    assert mismatches.size == 0, (
        f"first mismatch at draw {mismatches[:1]}: "
        f"{ours[mismatches[0]]!r} != {theirs[mismatches[0]]!r}"
    )
    assert stream._gen.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("call, exc", [
    (lambda r: r.uniform(1.0, 0.0), ValueError),
    (lambda r: r.uniform(0.0, -0.0), ValueError),
    (lambda r: r.uniform(0.0, float("inf")), OverflowError),
    (lambda r: r.uniform(-1e308, 1e308), OverflowError),
    (lambda r: r.uniform(float("nan"), 0.0), OverflowError),
])
def test_argument_errors_match_numpy_and_draw_nothing(call, exc):
    stream = RngStream(5, "errors")
    twin = _twin(stream)
    with pytest.raises(exc):
        call(stream)
    with pytest.raises(exc):
        call(twin)
    assert stream.uniform() == float(twin.uniform())


@pytest.mark.parametrize("call", [
    lambda r: r.exponential(0.0),
    lambda r: r.exponential(-1.0),
    lambda r: r.lognormal_service(0.0),
    lambda r: r.lognormal_service(-1.0),
    lambda r: r.lognormal_service(1.0, cv=-0.5),
])
def test_parameter_errors_are_value_errors_and_draw_nothing(call):
    stream = RngStream(5, "errors")
    twin = _twin(stream)
    with pytest.raises(ValueError):
        call(stream)
    assert stream.uniform() == float(twin.uniform())
