"""Behavioral contracts of the zero-delay fast path and timeout pooling.

The engine may route an immediate event through the FIFO "now" queue
instead of the heap, but only when that cannot change the documented
``(time, priority, seq)`` dispatch order.  These tests pin the
observable consequences; docs/PERFORMANCE.md explains the argument.
"""

import pytest

from repro.analysis.races import RaceDetector
from repro.sim.engine import Engine, Event, SimulationError, Timeout


def test_zero_delay_chain_runs_in_fifo_order():
    eng = Engine()
    order = []

    def chain(name, n):
        for i in range(n):
            yield eng.sleep(0.0)
            order.append((name, i))

    eng.process(chain("a", 3))
    eng.process(chain("b", 3))
    eng.run()
    # Round-robin interleaving: each wake re-queues behind the sibling,
    # exactly what the seq tie-breaker on a heap would produce.
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert eng.now == 0.0


def test_fastpath_event_never_jumps_a_same_instant_heap_entry():
    eng = Engine()
    order = []
    ev = Event(eng)

    def waiter():
        yield ev
        order.append("ev-waiter")

    def a():
        yield Timeout(eng, 1.0)
        order.append("a")
        # Succeeds at t=1.0 while b's timeout (smaller seq) is still on
        # the heap, due now: ev must sort *after* b, not jump the queue.
        ev.succeed()

    def b():
        yield Timeout(eng, 1.0)
        order.append("b")

    eng.process(waiter())
    eng.process(a())
    eng.process(b())
    eng.run()
    assert order == ["a", "b", "ev-waiter"]


def test_higher_priority_heap_entry_beats_the_fifo():
    eng = Engine()
    order = []
    first, second = Event(eng), Event(eng)
    first.add_callback(lambda _e: order.append("fifo"))
    second.add_callback(lambda _e: order.append("priority0"))
    first.succeed()  # heap empty -> rides the now-queue
    # Host-scheduled urgent event: same instant, priority 0.
    second._state = 1  # _TRIGGERED, as succeed() would set
    eng._schedule(second, 0.0, priority=0)
    eng.run()
    assert order == ["priority0", "fifo"]


def test_peek_sees_immediate_events():
    eng = Engine()
    assert eng.peek() == float("inf")
    Timeout(eng, 2.5)
    assert eng.peek() == 2.5
    Event(eng).succeed()  # immediate, via the now-queue
    assert eng.peek() == 0.0


def test_run_until_drains_immediates_at_the_horizon():
    eng = Engine()
    order = []

    def proc():
        yield eng.sleep(2.0)
        yield eng.sleep(0.0)
        yield eng.sleep(0.0)
        order.append("done")

    eng.process(proc())
    eng.run(until=1.0)
    assert order == [] and eng.now == 1.0
    eng.run(until=2.0)
    assert order == ["done"] and eng.now == 2.0


def test_sleep_value_and_negative_delay():
    eng = Engine()
    got = []

    def proc():
        got.append((yield eng.sleep(0.5, "tick")))

    eng.process(proc())
    eng.run()
    assert got == ["tick"]
    with pytest.raises(ValueError):
        eng.sleep(-0.1)


def test_sleep_recycles_timeouts():
    eng = Engine()
    seen = []

    def proc():
        for _ in range(4):
            t = eng.sleep(0.1)
            seen.append(id(t))
            yield t

    eng.process(proc())
    eng.run()
    # A fired sleep returns to the pool right after its callbacks run —
    # one step after the resumed process grabbed its next sleep — so a
    # single sleeper alternates between exactly two recycled objects.
    assert len(set(seen)) == 2
    assert seen[0] == seen[2] and seen[1] == seen[3]
    assert len(eng._timeout_pool) == 2  # both back on the free list at the end


def test_pool_limit_zero_disables_recycling():
    eng = Engine()
    eng.pool_limit = 0
    seen = []

    def proc():
        for _ in range(3):
            t = eng.sleep(0.1)
            seen.append(t)  # hold the object so id() cannot be reused
            yield t

    eng.process(proc())
    eng.run()
    assert len({id(t) for t in seen}) == 3
    assert eng._timeout_pool == []


def test_trace_hook_suppresses_recycling_and_sees_fastpath_events():
    eng = Engine()
    traced = []
    eng.trace = lambda t, event: traced.append((t, event))
    fired = []

    def proc():
        t1 = eng.sleep(0.0)
        yield t1
        t2 = eng.sleep(0.0)
        fired.append(t2 is t1)
        yield t2

    eng.process(proc())
    eng.run()
    eng.trace = None
    assert fired == [False]  # not recycled while tracing
    # The trace saw the fast-path (now-queue) events too, not just
    # heap-dispatched ones: process init + two sleeps at minimum.
    assert len(traced) >= 3


def test_race_detector_disables_pooling():
    eng = Engine()
    assert eng.pool_limit > 0
    RaceDetector(eng)
    assert eng.pool_limit == 0

    def proc():
        yield eng.sleep(0.1)
        yield eng.sleep(0.1)

    eng.process(proc())
    eng.run()
    assert eng._timeout_pool == []


def test_pooled_timeout_keeps_causality_breadcrumbs_until_reuse():
    eng = Engine()
    resumed_by = []

    def proc():
        yield eng.sleep(0.1)

    p = eng.process(proc())
    eng.run()
    resumed_by.append(p.last_resumed_by)
    # The recycled event cleared its own triggered_by on return to the
    # pool; the process breadcrumb still points at the event object.
    assert resumed_by[0] is not None
    assert resumed_by[0].triggered_by is None


def test_mixed_delay_workload_is_deterministic():
    def build():
        eng = Engine()
        log = []

        def worker(name, delays):
            for d in delays:
                yield eng.sleep(d)
                log.append((eng.now, name))

        eng.process(worker("w1", [0.0, 0.2, 0.0, 0.1]))
        eng.process(worker("w2", [0.1, 0.0, 0.0, 0.2]))
        eng.process(worker("w3", [0.0, 0.0, 0.3, 0.0]))
        eng.run()
        return log

    assert build() == build()


def test_callback_overflow_and_discard_preserve_order():
    eng = Engine()
    ev = Event(eng)
    order = []
    cbs = [lambda _e, i=i: order.append(i) for i in range(4)]
    for cb in cbs:
        ev.add_callback(cb)
    assert ev.callbacks == cbs
    ev._discard_callback(cbs[0])  # inline slot: overflow head promoted
    ev._discard_callback(cbs[2])  # overflow middle
    assert ev.callbacks == [cbs[1], cbs[3]]
    ev.succeed()
    eng.run()
    assert order == [1, 3]
    with pytest.raises(SimulationError):
        ev.succeed()
