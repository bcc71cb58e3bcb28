"""Unit tests for the DES engine: clock, events, processes, combinators."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def body():
        yield Timeout(eng, 2.5)

    eng.process(body())
    eng.run()
    assert eng.now == pytest.approx(2.5)


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        Timeout(eng, -1.0)


def test_timeout_carries_value():
    eng = Engine()
    seen = []

    def body():
        v = yield Timeout(eng, 1.0, value="payload")
        seen.append(v)

    eng.process(body())
    eng.run()
    assert seen == ["payload"]


def test_run_until_stops_clock_exactly():
    eng = Engine()

    def body():
        yield Timeout(eng, 100.0)

    eng.process(body())
    eng.run(until=10.0)
    assert eng.now == 10.0
    eng.run()
    assert eng.now == 100.0


def test_run_until_past_raises():
    eng = Engine()
    eng.run(until=5.0)
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def sleeper(delay, tag):
        yield Timeout(eng, delay)
        order.append(tag)

    eng.process(sleeper(3, "c"))
    eng.process(sleeper(1, "a"))
    eng.process(sleeper(2, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_deterministic():
    eng = Engine()
    order = []

    def sleeper(tag):
        yield Timeout(eng, 1.0)
        order.append(tag)

    for tag in "abcde":
        eng.process(sleeper(tag))
    eng.run()
    assert order == list("abcde")


def test_process_return_value_becomes_event_value():
    eng = Engine()

    def body():
        yield Timeout(eng, 1)
        return 42

    p = eng.process(body())
    eng.run()
    assert p.ok and p.value == 42


def test_process_waits_on_process():
    eng = Engine()

    def child():
        yield Timeout(eng, 5)
        return "done"

    def parent():
        result = yield eng.process(child())
        return result

    p = eng.process(parent())
    eng.run()
    assert p.value == "done"
    assert eng.now == pytest.approx(5)


def test_process_exception_propagates_to_waiter():
    eng = Engine()

    def child():
        yield Timeout(eng, 1)
        raise ValueError("boom")

    def parent():
        try:
            yield eng.process(child())
        except ValueError as e:
            return f"caught {e}"

    p = eng.process(parent())
    eng.run()
    assert p.value == "caught boom"


def test_unwaited_failing_process_marks_event_failed():
    eng = Engine()

    def child():
        yield Timeout(eng, 1)
        raise RuntimeError("unseen")

    p = eng.process(child())
    eng.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, RuntimeError)


def test_yielding_non_event_fails_process():
    eng = Engine()

    def body():
        yield 123  # type: ignore[misc]

    p = eng.process(body())
    eng.run()
    assert not p.ok
    assert isinstance(p.value, TypeError)


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = Event(eng)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_trigger_rejected():
    eng = Engine()
    ev = Event(eng)
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception_instance():
    eng = Engine()
    ev = Event(eng)
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_callback_after_processing_runs_immediately():
    eng = Engine()
    ev = Event(eng)
    ev.succeed("v")
    eng.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_yielding_processed_events_continues_iteratively():
    """A wait that is already over continues inline, in a loop: ten
    thousand in a row must not recurse once per yield (regression:
    ``RecursionError`` escaped ``engine.run()`` after a few thousand)."""
    eng = Engine()
    fired = Event(eng)
    fired.succeed("v")
    eng.run()
    assert fired.processed
    seen = []

    def body():
        for _ in range(10_000):
            seen.append((yield fired))
        return len(seen)

    dispatched = []
    eng.trace = lambda t, ev: dispatched.append(ev)
    proc = eng.process(body())
    eng.run()
    assert proc.ok and proc.value == 10_000
    assert seen == ["v"] * 10_000
    assert len(dispatched) == 2  # the process's start and completion


def test_failed_processed_event_still_raises_in_the_generator():
    eng = Engine()
    failed = Event(eng)
    failed.fail(ValueError("long gone"))
    eng.run()
    assert failed.processed
    caught = []

    def body():
        try:
            yield failed
        except ValueError as exc:
            caught.append(str(exc))
        return (yield Timeout(eng, 1.0, value="then carries on"))

    proc = eng.process(body())
    eng.run()
    assert caught == ["long gone"]
    assert proc.value == "then carries on"


def test_allof_collects_values_in_order():
    eng = Engine()

    def body():
        t1 = Timeout(eng, 3, value="slow")
        t2 = Timeout(eng, 1, value="fast")
        values = yield AllOf(eng, [t1, t2])
        return values

    p = eng.process(body())
    eng.run()
    assert p.value == ["slow", "fast"]
    assert eng.now == pytest.approx(3)


def test_allof_empty_fires_immediately():
    eng = Engine()

    def body():
        values = yield AllOf(eng, [])
        return values

    p = eng.process(body())
    eng.run()
    assert p.value == []


def test_allof_fails_on_first_child_failure():
    eng = Engine()

    def failing():
        yield Timeout(eng, 1)
        raise KeyError("k")

    def body():
        try:
            yield AllOf(eng, [eng.process(failing()), Timeout(eng, 10)])
        except KeyError:
            return eng.now

    p = eng.process(body())
    eng.run()
    assert p.value == pytest.approx(1)


def test_gather_runs_a_lone_body_inline_and_several_as_processes():
    eng = Engine()

    def leg(delay, value):
        yield Timeout(eng, delay)
        return value

    def body():
        lone = yield from eng.gather([(leg(2, "a"), "lone")])
        started = eng.processes_started
        both = yield from eng.gather([(leg(3, "b"), "x"), (leg(1, "c"), "y")])
        none = yield from eng.gather([])
        return lone, started, both, none, eng.processes_started

    lone, started, both, none, after = eng._drive(body())
    assert (lone, both, none) == (["a"], ["b", "c"], [])
    # Only the two-member fan-out started processes (the host's body
    # counts as one).
    assert (started, after) == (1, 3)
    assert eng.now == pytest.approx(5)


@pytest.mark.parametrize("members", [1, 2])
def test_gather_fails_with_the_first_failure(members):
    eng = Engine()

    def failing():
        yield Timeout(eng, 1)
        raise KeyError("boom")

    def slow():
        yield Timeout(eng, 10)

    bodies = [(failing(), "f"), (slow(), "s")][:members]

    def body():
        try:
            yield from eng.gather(bodies)
        except KeyError:
            return eng.now

    assert eng._drive(body()) == pytest.approx(1)


def test_anyof_returns_first_index_and_value():
    eng = Engine()

    def body():
        winner = yield AnyOf(eng, [Timeout(eng, 5, "a"), Timeout(eng, 2, "b")])
        return winner

    p = eng.process(body())
    eng.run()
    assert p.value == (1, "b")


def test_anyof_requires_children():
    eng = Engine()
    with pytest.raises(ValueError):
        AnyOf(eng, [])


def test_interrupt_wakes_sleeping_process():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield Timeout(eng, 100)
        except Interrupt as i:
            log.append((eng.now, i.cause))

    def interrupter(target):
        yield Timeout(eng, 7)
        target.interrupt("revoke")

    p = eng.process(sleeper())
    eng.process(interrupter(p))
    eng.run()
    assert log == [(7.0, "revoke")]


def test_interrupt_finished_process_raises():
    eng = Engine()

    def body():
        yield Timeout(eng, 1)

    p = eng.process(body())
    eng.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_cancelled_timeout_leaves_the_schedule():
    """A cancelled timer never fires and never carries the clock on to
    its instant, whether it sat on the heap or in the zero-delay queue;
    cancelling one that already fired does nothing."""
    eng = Engine()
    fired = []
    later = Timeout(eng, 5.0)
    later.add_callback(lambda ev: fired.append("later"))
    now = Timeout(eng, 0.0)
    now.add_callback(lambda ev: fired.append("now"))
    other = Timeout(eng, 2.0)
    other.add_callback(lambda ev: fired.append("other"))
    later.cancel()
    now.cancel()
    eng.run()
    assert fired == ["other"] and eng.now == 2.0
    assert later.triggered and not later.processed
    other.cancel()
    assert other.processed and other.ok


def test_peek_reports_next_event_time():
    eng = Engine()

    def body():
        yield Timeout(eng, 9.0)

    eng.process(body())
    # Process kick-start event is at t=0.
    assert eng.peek() == 0.0
    eng.step()
    assert eng.peek() == pytest.approx(9.0)


def test_step_from_an_empty_schedule_is_a_typed_error():
    with pytest.raises(SimulationError, match="step from an empty schedule"):
        Engine().step()


def test_engine_helpers_build_objects():
    eng = Engine()
    assert isinstance(eng.timeout(1.0), Timeout)
    assert isinstance(eng.event(), Event)
    combo = eng.all_of([eng.timeout(0.0)])
    assert isinstance(combo, AllOf)
    any_combo = eng.any_of([eng.timeout(0.0)])
    assert isinstance(any_combo, AnyOf)


def test_process_body_must_be_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_nested_processes_complete_in_order():
    eng = Engine()
    trace = []

    def leaf(tag, d):
        yield Timeout(eng, d)
        trace.append(tag)
        return tag

    def root():
        a = yield eng.process(leaf("a", 1))
        b = yield eng.process(leaf("b", 1))
        return a + b

    p = eng.process(root())
    eng.run()
    assert p.value == "ab"
    assert trace == ["a", "b"]
    assert eng.now == pytest.approx(2)


def test_interrupt_cancels_queued_resource_request():
    """A process interrupted while queued on a slot must not leak the
    slot when it would later have been granted."""
    from repro.sim.resources import Slots

    eng = Engine()
    slots = Slots(eng, capacity=1)
    order = []

    def holder():
        assert slots.acquire() is None
        yield Timeout(eng, 10)
        slots.release()
        order.append("holder-done")

    def waiter():
        try:
            yield slots.acquire()
            order.append("waiter-granted")
            slots.release()
        except Interrupt:
            order.append("waiter-interrupted")

    def late():
        yield Timeout(eng, 20)
        assert slots.acquire() is None
        order.append("late-granted")
        slots.release()

    eng.process(holder())
    w = eng.process(waiter())
    eng.process(late())

    def interrupter():
        yield Timeout(eng, 5)
        w.interrupt("revoked")

    eng.process(interrupter())
    eng.run()
    assert order == ["waiter-interrupted", "holder-done", "late-granted"]
    assert slots.held == 0
    assert len(slots._waiters) == 0


def test_interrupt_while_holding_resource_is_callers_problem():
    """Interrupting a slot *holder* does not auto-release; the process
    body's finally block must do it (documented behaviour)."""
    from repro.sim.resources import Slots

    eng = Engine()
    slots = Slots(eng, capacity=1)
    log = []

    def holder():
        assert slots.acquire() is None
        try:
            yield Timeout(eng, 100)
        except Interrupt:
            log.append("interrupted")
        finally:
            slots.release()

    p = eng.process(holder())

    def interrupter():
        yield Timeout(eng, 1)
        p.interrupt()

    eng.process(interrupter())
    eng.run()
    assert log == ["interrupted"]
    assert slots.held == 0


# ---------------------------------------------------------------------------
# interrupts racing failures (the fault-injection path)
# ---------------------------------------------------------------------------


def test_interrupt_does_not_mask_already_failed_event():
    """A process waiting on an event that has already *failed* must see
    the original failure, not a later Interrupt delivered in the same
    step (regression: the interrupt used to overwrite the resume and
    the real error was silently replaced)."""
    eng = Engine()
    evt = eng.event()
    outcome = []

    def waiter():
        try:
            yield evt
        except ValueError as exc:
            outcome.append(("failure", str(exc)))
        except Interrupt:
            outcome.append(("interrupt", None))

    proc = eng.process(waiter())

    def killer():
        yield Timeout(eng, 1.0)
        evt.fail(ValueError("disk died"))
        proc.interrupt("crash")  # arrives after the failure: discarded

    eng.process(killer())
    eng.run()
    assert outcome == [("failure", "disk died")]


def test_interrupt_still_lands_while_waiting_on_timeout():
    """Timeouts trigger (successfully) at construction; interrupting a
    process sleeping on one must still deliver the Interrupt."""
    eng = Engine()
    outcome = []

    def sleeper():
        try:
            yield Timeout(eng, 10.0)
            outcome.append("slept")
        except Interrupt as exc:
            outcome.append(("interrupt", exc.cause))

    proc = eng.process(sleeper())

    def killer():
        yield Timeout(eng, 1.0)
        proc.interrupt("wake up")

    eng.process(killer())
    eng.run()
    assert outcome == [("interrupt", "wake up")]


def test_interrupt_delivers_its_cause_object_through_a_failed_wake():
    """The Interrupt carries the very ``cause`` object passed to
    ``interrupt``, and the abandoned wait never resumes the process."""
    eng = Engine()
    cause = object()
    seen = {}

    def sleeper():
        try:
            yield Timeout(eng, 10.0)
        except Interrupt as exc:
            seen["exc"] = exc
        yield Timeout(eng, 1.0)
        return "finished"

    proc = eng.process(sleeper())

    def killer():
        yield Timeout(eng, 2.0)
        proc.interrupt(cause)

    eng.process(killer())
    eng.run()
    assert seen["exc"].cause is cause
    # The abandoned 10 s timeout did not resume it a second time.
    assert proc.value == "finished" and eng.now == 10.0


def test_interrupt_at_an_already_failed_event_leaves_no_wake_behind():
    """The discarded interrupt schedules nothing: after handling the
    original failure the process sleeps on, undisturbed."""
    eng = Engine()
    evt = eng.event()
    outcome = []

    def waiter():
        try:
            yield evt
        except ValueError as exc:
            outcome.append(str(exc))
        yield Timeout(eng, 5.0)
        outcome.append(eng.now)

    proc = eng.process(waiter())

    def killer():
        yield Timeout(eng, 1.0)
        evt.fail(ValueError("disk died"))
        proc.interrupt("crash")

    eng.process(killer())
    eng.run()
    assert outcome == ["disk died", 6.0]
    assert proc.ok


def test_interrupted_store_get_does_not_swallow_next_put():
    """Interrupting a process blocked on Store.get must remove its
    queued getter; the next put belongs to the next live consumer."""
    from repro.sim.resources import Store

    eng = Engine()
    store = Store(eng)
    got = []

    def getter(name):
        try:
            item = yield store.get()
            got.append((name, item))
        except Interrupt:
            return

    first = eng.process(getter("dead"))
    eng.process(getter("live"))

    def driver():
        yield Timeout(eng, 1.0)
        first.interrupt("crash")
        store.put("item")

    eng.process(driver())
    eng.run()
    assert got == [("live", "item")]
