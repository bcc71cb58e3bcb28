"""Vector clocks and the engine-attached causality tracker."""

from repro.analysis.causality import CausalityTracker, VectorClock
from repro.sim.engine import AllOf, Engine, Event, Interrupt, Timeout
from repro.sim.resources import Store


# -- VectorClock algebra ----------------------------------------------------


def test_tick_is_pure_and_monotone():
    c0 = VectorClock()
    c1 = c0.tick(1)
    c2 = c1.tick(1)
    assert c0.get(1) == 0
    assert c1.get(1) == 1
    assert c2.get(1) == 2
    # The originals are untouched (frozen value semantics).
    assert c1.get(1) == 1


def test_merge_takes_componentwise_max():
    a = VectorClock().tick(1).tick(1)      # {1: 2}
    b = VectorClock().tick(2)              # {2: 1}
    m = a.merge(b)
    assert m.get(1) == 2 and m.get(2) == 1
    # Merge is commutative.
    assert b.merge(a) == m


def test_precedes_is_strict_happens_before():
    a = VectorClock().tick(1)
    b = a.merge(VectorClock().tick(2)).tick(2)
    assert a.precedes(b)
    assert not b.precedes(a)
    # Not reflexive: equal clocks do not strictly precede.
    assert not a.precedes(a)
    assert a.leq(a)


def test_concurrent_iff_neither_precedes():
    a = VectorClock().tick(1)
    b = VectorClock().tick(2)
    assert a.concurrent(b) and b.concurrent(a)
    merged = a.merge(b).tick(2)
    assert not a.concurrent(merged)


def test_equality_and_hash_ignore_zero_entries():
    a = VectorClock({1: 1})
    b = VectorClock({1: 1, 2: 0})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- CausalityTracker over the engine ---------------------------------------


def test_sequential_steps_of_one_process_are_ordered():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = []

    def prog():
        stamps.append(tracker.observe(eng.active_process))
        yield Timeout(eng, 1.0)
        stamps.append(tracker.observe(eng.active_process))

    eng.process(prog(), name="p")
    eng.run()
    tracker.detach()
    assert stamps[0].precedes(stamps[1])


def test_independent_processes_are_concurrent():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def prog(tag):
        yield Timeout(eng, 1.0)
        stamps[tag] = tracker.observe(eng.active_process)

    eng.process(prog("a"), name="a")
    eng.process(prog("b"), name="b")
    eng.run()
    tracker.detach()
    assert stamps["a"].concurrent(stamps["b"])


def test_event_wakeup_merges_triggerer_into_waiter():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    gate = Event(eng)
    stamps = {}

    def setter():
        yield Timeout(eng, 1.0)
        stamps["before-set"] = tracker.observe(eng.active_process)
        gate.succeed()

    def waiter():
        yield gate
        stamps["after-wait"] = tracker.observe(eng.active_process)

    eng.process(waiter(), name="waiter")
    eng.process(setter(), name="setter")
    eng.run()
    tracker.detach()
    assert stamps["before-set"].precedes(stamps["after-wait"])


def test_spawned_child_inherits_parent_clock():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def child():
        stamps["child"] = tracker.observe(eng.active_process)
        yield Timeout(eng, 0.5)

    def parent():
        yield Timeout(eng, 1.0)
        stamps["parent"] = tracker.observe(eng.active_process)
        eng.process(child(), name="child")
        yield Timeout(eng, 1.0)

    eng.process(parent(), name="parent")
    eng.run()
    tracker.detach()
    assert stamps["parent"].precedes(stamps["child"])


def test_event_clock_stamped_on_succeed():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    gate = Event(eng)
    seen = {}
    setter_proc = {}

    def setter():
        setter_proc["p"] = eng.active_process
        yield Timeout(eng, 1.0)
        gate.succeed()
        seen["clock"] = tracker.event_clock(gate)

    eng.process(setter(), name="setter")
    eng.run()
    tracker.detach()
    assert seen["clock"] is not None
    # The stamp carries the setter's component.
    assert seen["clock"].get(tracker.pid_of(setter_proc["p"])) >= 1


def test_detach_restores_engine_hooks():
    eng = Engine()
    before_trace = eng.trace
    before_succeed = Event.succeed
    before_trigger = Event._trigger
    tracker = CausalityTracker(eng).attach()
    assert Event._trigger is not before_trigger
    tracker.detach()
    assert eng.trace is before_trace
    assert Event.succeed is before_succeed
    assert Event._trigger is before_trigger

    # The engine still runs normally after detach.
    done = []

    def prog():
        yield Timeout(eng, 1.0)
        done.append(True)

    eng.process(prog(), name="p")
    eng.run()
    assert done == [True]


def test_every_traced_event_carries_a_stamp():
    """The tracker stamps events by wrapping ``Event._trigger`` at class
    level, so a scheduling path that went around it would dispatch an
    unstamped event.  Sleeps (pooled and plain), a Store hand-off to a
    parked getter, an AllOf over two children and an interrupt all go
    through it."""
    eng = Engine()
    store = Store(eng)
    traced = []
    eng.trace = lambda t, ev: traced.append(ev)
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def consumer():
        item = yield store.get()  # parked: the put hands it over
        stamps["consumed"] = (item, tracker.observe(eng.active_process))

    def producer():
        yield eng.sleep(1.0)
        yield Timeout(eng, 0.5)
        stamps["produced"] = tracker.observe(eng.active_process)
        store.put("x")

    def child(delay):
        yield eng.sleep(delay)
        return delay

    def joiner():
        values = yield AllOf(eng, [eng.process(child(1.0)),
                                   eng.process(child(2.0))])
        stamps["joined"] = values

    def sleeper():
        try:
            yield Timeout(eng, 100.0)
        except Interrupt:
            stamps["woken"] = tracker.observe(eng.active_process)
        yield eng.sleep(1.0)

    eng.process(consumer(), name="consumer")
    eng.process(producer(), name="producer")
    eng.process(joiner(), name="joiner")
    target = eng.process(sleeper(), name="sleeper")

    def interrupter():
        yield eng.sleep(3.0)
        stamps["interrupting"] = tracker.observe(eng.active_process)
        target.interrupt("revoke")

    eng.process(interrupter(), name="interrupter")
    eng.run()
    tracker.detach()

    assert stamps["joined"] == [1.0, 2.0]
    item, consumed = stamps["consumed"]
    assert item == "x" and stamps["produced"].precedes(consumed)
    assert stamps["interrupting"].precedes(stamps["woken"])
    assert len(traced) >= 12
    unstamped = [ev for ev in traced if tracker.event_clock(ev) is None]
    assert unstamped == []
