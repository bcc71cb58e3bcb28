"""Vector clocks and the engine-attached causality tracker."""

from repro.analysis.causality import CausalityTracker, VectorClock
from repro.sim.engine import AllOf, Engine, Event, Interrupt, Timeout
from repro.sim.resources import Store


def precedes(a, b):
    """Strict happens-before: ``a <= b`` pointwise and not ``b <= a``."""
    return a.leq(b) and not b.leq(a)


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
    n = b.merge(a)
    assert n.leq(m) and m.leq(n)


def test_leq_is_pointwise_and_reflexive():
    a = VectorClock().tick(1)
    b = a.merge(VectorClock().tick(2)).tick(2)
    assert a.leq(b)
    assert not b.leq(a)
    # Reflexive: equal clocks are ordered, and neither strictly precedes.
    assert a.leq(a)
    assert not precedes(a, a)


def test_concurrent_iff_neither_precedes():
    a = VectorClock().tick(1)
    b = VectorClock().tick(2)
    assert a.concurrent(b) and b.concurrent(a)
    merged = a.merge(b).tick(2)
    assert not a.concurrent(merged)


# -- CausalityTracker over the engine ---------------------------------------


def test_sequential_steps_of_one_process_are_ordered():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = []

    def prog():
        stamps.append(tracker.clock_of(eng.active_process))
        yield Timeout(eng, 1.0)
        stamps.append(tracker.clock_of(eng.active_process))
        yield eng.sleep(0.0)  # a zero-delay step orders the same way
        stamps.append(tracker.clock_of(eng.active_process))

    eng.process(prog(), name="p")
    eng.run()
    tracker.detach()
    assert precedes(stamps[0], stamps[1])
    assert precedes(stamps[1], stamps[2])


def test_independent_processes_are_concurrent():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def prog(tag):
        yield Timeout(eng, 1.0)
        stamps[tag] = tracker.clock_of(eng.active_process)

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
        stamps["before-set"] = tracker.clock_of(eng.active_process)
        gate.succeed()

    def waiter():
        yield gate
        stamps["after-wait"] = tracker.clock_of(eng.active_process)

    eng.process(waiter(), name="waiter")
    eng.process(setter(), name="setter")
    eng.run()
    tracker.detach()
    assert precedes(stamps["before-set"], stamps["after-wait"])


def test_happens_before_is_transitive_through_chained_events():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    first, second = Event(eng), Event(eng)
    stamps = {}

    def head():
        yield Timeout(eng, 1.0)
        stamps["head"] = tracker.clock_of(eng.active_process)
        first.succeed()

    def middle():
        yield first
        second.succeed()

    def tail():
        yield second
        stamps["tail"] = tracker.clock_of(eng.active_process)

    eng.process(head(), name="head")
    eng.process(middle(), name="middle")
    eng.process(tail(), name="tail")
    eng.run()
    tracker.detach()
    assert precedes(stamps["head"], stamps["tail"])


def test_zero_delay_chains_stay_concurrent():
    """Two processes meet at one instant, one of them after riding the
    zero-delay queue: only seq tie-breaking orders them, so no edge may
    appear between them."""
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def toucher(hops):
        yield Timeout(eng, 0.5)
        yield Timeout(eng, 0.5)
        for _ in range(hops):
            yield eng.sleep(0.0)
        stamps[hops] = tracker.clock_of(eng.active_process)

    eng.process(toucher(0), name="direct")
    eng.process(toucher(2), name="hopping")
    eng.run()
    tracker.detach()
    assert stamps[0].concurrent(stamps[2])


def test_spawned_child_inherits_parent_clock():
    eng = Engine()
    tracker = CausalityTracker(eng).attach()
    stamps = {}

    def child():
        stamps["child"] = tracker.clock_of(eng.active_process)
        yield Timeout(eng, 0.5)

    def parent():
        yield Timeout(eng, 1.0)
        stamps["parent"] = tracker.clock_of(eng.active_process)
        eng.process(child(), name="child")
        yield Timeout(eng, 1.0)

    eng.process(parent(), name="parent")
    eng.run()
    tracker.detach()
    assert precedes(stamps["parent"], stamps["child"])


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
        stamps["consumed"] = (item, tracker.clock_of(eng.active_process))

    def producer():
        yield eng.sleep(1.0)
        yield Timeout(eng, 0.5)
        stamps["produced"] = tracker.clock_of(eng.active_process)
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
            stamps["woken"] = tracker.clock_of(eng.active_process)
        yield eng.sleep(1.0)

    eng.process(consumer(), name="consumer")
    eng.process(producer(), name="producer")
    eng.process(joiner(), name="joiner")
    target = eng.process(sleeper(), name="sleeper")

    def interrupter():
        yield eng.sleep(3.0)
        stamps["interrupting"] = tracker.clock_of(eng.active_process)
        target.interrupt("revoke")

    eng.process(interrupter(), name="interrupter")
    eng.run()
    tracker.detach()

    assert stamps["joined"] == [1.0, 2.0]
    item, consumed = stamps["consumed"]
    assert item == "x" and precedes(stamps["produced"], consumed)
    assert precedes(stamps["interrupting"], stamps["woken"])
    assert len(traced) >= 12
    unstamped = [ev for ev in traced if tracker.event_clock(ev) is None]
    assert unstamped == []
