"""The pluggable ready-set scheduler: off by default, identity at 0.

The model checker drives the engine through ``Engine.scheduler``; the
contract that keeps it sound (and keeps everyone else unaffected) is
twofold: with no scheduler attached nothing changed at all, and a
scheduler that returns 0 at every decision reproduces the default
seq-order run event-for-event.
"""

import pytest

from repro.cluster import Cluster
from repro.conformance.recorder import HistoryRecorder
from repro.sim.engine import Engine, SimulationError, Timeout


def _workload(eng, log):
    """A mixed workload exercising heap ties, zero-delay chains and
    event wakeups."""
    gate = eng.event()

    def ticker(tag, delays):
        for d in delays:
            yield eng.sleep(d)
            log.append((eng.now, tag))

    def setter():
        yield Timeout(eng, 1.0)
        log.append((eng.now, "set"))
        gate.succeed()
        # A same-instant priority-0 heap entry: outranks the now-queue.
        urgent = eng.event()
        urgent.add_callback(lambda _e: log.append((eng.now, "urgent")))
        urgent._state = 1  # _TRIGGERED, as succeed() would set
        eng._schedule(urgent, 0.0, priority=0)

    def waiter():
        yield gate
        yield eng.sleep(0.0)
        log.append((eng.now, "woke"))

    eng.process(ticker("a", [1.0, 0.0, 0.5]), name="a")
    eng.process(ticker("b", [1.0, 0.5, 0.0]), name="b")
    eng.process(setter(), name="setter")
    eng.process(waiter(), name="waiter")


def _run_in_slices(eng):
    # 1.0 and 1.5 land exactly on event times (the bound is inclusive);
    # 0.5 and 1.25 fall between events.
    for until in (0.5, 1.0, 1.25, 1.5):
        eng.run(until=until)
        assert eng.now == until
    assert eng.peek() == float("inf")


def _step_to_end(eng):
    while eng.peek() != float("inf"):
        eng.step()


def _trace_run(scheduler, drive=Engine.run):
    eng = Engine()
    log = []
    trace = []
    eng.trace = lambda t, ev: trace.append((t, type(ev).__name__))
    _workload(eng, log)
    eng.scheduler = scheduler
    drive(eng)
    return log, trace, eng.now


def test_scheduler_defaults_to_none():
    assert Engine().scheduler is None


@pytest.mark.parametrize("scheduler", [None, lambda events: 0],
                         ids=["default", "zero-scheduler"])
@pytest.mark.parametrize("drive", [Engine.run, _run_in_slices, _step_to_end])
def test_every_kernel_entry_point_dispatches_the_same_run(scheduler, drive):
    base_log, base_trace, base_now = _trace_run(None)
    assert (base_now, base_log[-1][0]) == (1.5, 1.5)
    assert (1.0, "urgent") in base_log
    log, trace, now = _trace_run(scheduler, drive)
    assert log == base_log
    assert trace == base_trace
    assert now == base_now


def test_scheduler_sees_only_genuine_ties():
    sizes = []

    def spy(events):
        sizes.append(len(events))
        return 0

    log, _, _ = _trace_run(spy)
    assert log  # the workload ran to completion
    # Every offered ready set has at least one event; ties (>= 2) occur
    # at the shared instants this workload engineers.
    assert all(n >= 1 for n in sizes)
    assert any(n >= 2 for n in sizes)


def test_last_index_scheduler_still_fires_everything():
    base_log, _, _ = _trace_run(None)
    alt_log, _, alt_now = _trace_run(lambda events: len(events) - 1)
    # Same multiset of observations (nothing lost, nothing invented),
    # possibly in a different same-instant order.
    assert sorted(alt_log) == sorted(base_log)


def test_out_of_range_scheduler_choice_is_a_typed_error():
    eng = Engine()
    Timeout(eng, 1.0)
    Timeout(eng, 1.0)
    eng.scheduler = lambda events: 5
    with pytest.raises(SimulationError,
                       match="scheduler chose index 5 of 2 tied events"):
        eng.run()


def test_controlled_step_from_an_empty_schedule_is_a_typed_error():
    eng = Engine()
    eng.scheduler = lambda events: 0
    with pytest.raises(SimulationError, match="step from an empty schedule"):
        eng.step()


def test_controlled_run_respects_until():
    eng = Engine()
    log = []
    _workload(eng, log)
    eng.scheduler = lambda events: 0
    eng.run(until=1.0)
    assert eng.now == 1.0
    assert all(t <= 1.0 for t, _ in log)


def test_zero_scheduler_cluster_history_is_byte_identical():
    def history(scheduler):
        cluster = Cluster(seed=7)
        cluster.engine.scheduler = scheduler
        recorder = HistoryRecorder.attach(cluster)
        try:
            client = cluster.new_client()
            cluster.run(client.mkdir("/job"))

            def ops(c, names):
                for n in names:
                    yield from c.create(f"/job/{n}")

            a = cluster.new_client()
            b = cluster.new_client()
            pa = cluster.engine.process(ops(a, ["f0", "f1"]))
            pb = cluster.engine.process(ops(b, ["g0", "g1"]))

            def join():
                yield cluster.engine.all_of([pa, pb])

            cluster.run(join())
            recorder.record_snapshot(cluster.mds, "/job")
            return recorder.history.canonical()
        finally:
            recorder.detach()

    assert history(lambda events: 0) == history(None)
