"""The host is not a process: a body driven by ``Cluster.run`` starts
and finishes without engine events, in exactly the order the public
``engine.process(gen); engine.run()`` would have run it.

The start is inline only when it would be the next dispatch anyway —
nothing queued, nothing on the heap due at this instant at default or
better priority — and the finish marks the body processed, because
only the driver holds a reference to it.
"""

import pytest

from repro.cluster import Cluster
from repro.conformance.driver import run_matrix
from repro.sim.engine import Engine, Event, Process
from tests.sim.test_event_budget import _traced


def _idle_cluster():
    cluster = Cluster(seed=0)
    cluster.run()  # the daemon loops start and park
    return cluster


def _reference_drive(engine, generator, until=None):
    """The host loop as it was: the body is an ordinary process."""
    proc = engine.process(generator)
    engine.run(until=until)
    if proc.triggered and not proc.ok:
        raise proc.value
    return proc.value if proc.triggered else None


def test_an_idle_engine_dispatches_nothing_for_either_end():
    cluster = _idle_cluster()
    t0 = cluster.now

    def body():
        yield cluster.engine.timeout(1.0)
        return "done"

    def at_once():
        return "now"
        yield  # pragma: no cover - makes this a generator

    seen = _traced(cluster.engine)
    assert cluster.run(body()) == "done"
    assert cluster.run(at_once()) == "now"
    assert seen == [(t0 + 1.0, Event, ["body"])]


def _drive_behind_a_wakeup(drive):
    """A waiter is woken from the host at this instant, then a body is
    driven: the body's start must stay behind the wake-up."""
    cluster = _idle_cluster()
    engine = cluster.engine
    gate = engine.event()
    log = []

    def waiter():
        yield gate
        log.append("waiter")
        yield engine.timeout(0.5)
        log.append("waiter done")

    def body():
        log.append("body")
        yield engine.timeout(0.5)
        log.append("body done")
        return len(log)

    engine.process(waiter(), name="waiter")
    engine.run()
    seen = _traced(engine)
    gate.succeed()
    value = drive(cluster, body())
    return value, log, seen


def test_a_start_behind_something_due_now_is_queued_as_a_spawn_is():
    value, log, seen = _drive_behind_a_wakeup(
        lambda cluster, gen: cluster.run(gen)
    )
    ref_value, ref_log, ref_seen = _drive_behind_a_wakeup(
        lambda cluster, gen: _reference_drive(cluster.engine, gen)
    )
    assert log == ref_log == ["waiter", "body", "waiter done", "body done"]
    assert value == ref_value == 4
    # The reference pays one more dispatch: the body's own completion,
    # which nobody waits on.  Everything before it is identical — the
    # start included, queued behind the wake-up.
    *ref_rest, completion = ref_seen
    assert completion[1] is Process and completion[2] == []
    assert seen == ref_rest
    assert [names for _t, _k, names in seen[:2]] == [["waiter"], ["body"]]


def _drive_behind_a_tied_timer(drive):
    """Two timers fire at one instant; after the first is dispatched the
    second is still on the heap, due now — a body driven then must start
    after it."""
    cluster = _idle_cluster()
    engine = cluster.engine
    log = []

    def sleeper(tag):
        yield engine.timeout(1.0)
        log.append(tag)

    engine.process(sleeper("a"), name="a")
    engine.process(sleeper("b"), name="b")
    engine.run(until=engine.now + 0.5)
    engine.step()  # `a` wakes; `b`'s timer is still on the heap, due now
    assert log == ["a"]

    def body():
        log.append("body")
        return "ok"
        yield  # pragma: no cover - makes this a generator

    seen = _traced(engine)
    assert drive(cluster, body()) == "ok"
    return log, seen


def test_a_start_behind_a_heap_entry_due_now_is_queued_as_a_spawn_is():
    log, seen = _drive_behind_a_tied_timer(lambda cluster, gen: cluster.run(gen))
    ref_log, ref_seen = _drive_behind_a_tied_timer(
        lambda cluster, gen: _reference_drive(cluster.engine, gen)
    )
    assert log == ref_log == ["a", "b", "body"]
    assert seen == ref_seen[:-1] and ref_seen[-1][1] is Process


def test_failure_propagates_with_the_original_exception():
    cluster = _idle_cluster()
    late, early = RuntimeError("late"), ValueError("early")

    def fails_later():
        yield cluster.engine.timeout(0.5)
        raise late

    def fails_at_once():
        raise early
        yield  # pragma: no cover - makes this a generator

    with pytest.raises(RuntimeError) as info:
        cluster.run(fails_later())
    assert info.value is late
    with pytest.raises(ValueError) as info:
        cluster.run(fails_at_once())
    assert info.value is early


def test_a_body_stopped_by_until_finishes_later_without_a_completion():
    cluster = _idle_cluster()
    t0 = cluster.now
    done = []

    def body():
        yield cluster.engine.timeout(10.0)
        done.append(cluster.now)

    assert cluster.run(body(), until=t0 + 1.0) is None
    assert cluster.now == t0 + 1.0 and not done
    seen = _traced(cluster.engine)
    cluster.run()
    assert done == [t0 + 10.0]
    assert seen == [(t0 + 10.0, Event, ["body"])]


def test_the_driven_body_is_still_a_started_process():
    cluster = _idle_cluster()
    before = cluster.engine.processes_started

    def body():
        yield cluster.engine.timeout(1.0)

    cluster.run(body())
    assert cluster.engine.processes_started == before + 1


@pytest.mark.parametrize("seed", range(5))
def test_matrix_histories_match_the_process_drive(seed, monkeypatch):
    got = run_matrix(seed=seed, jobs=1)
    monkeypatch.setattr(Engine, "_drive", _reference_drive)
    want = run_matrix(seed=seed, jobs=1)
    assert len(got["histories"]) == 9
    assert got == want
