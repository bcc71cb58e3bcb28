"""Tests for Resource / Store / Semaphore queueing semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Interrupt, SimulationError, Timeout
from repro.sim.resources import Request, Resource, Semaphore, Store


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_resource_serializes_beyond_capacity():
    eng = Engine()
    res = Resource(eng, capacity=1)
    finish = []

    def worker(tag):
        req = res.request()
        yield req
        try:
            yield Timeout(eng, 2.0)
        finally:
            res.release(req)
        finish.append((tag, eng.now))

    for t in ("a", "b", "c"):
        eng.process(worker(t))
    eng.run()
    assert finish == [("a", 2.0), ("b", 4.0), ("c", 6.0)]


def test_resource_parallel_within_capacity():
    eng = Engine()
    res = Resource(eng, capacity=3)
    finish = []

    def worker(tag):
        req = res.request()
        yield req
        try:
            yield Timeout(eng, 2.0)
        finally:
            res.release(req)
        finish.append((tag, eng.now))

    for t in "abc":
        eng.process(worker(t))
    eng.run()
    assert [t for t, _ in finish] == ["a", "b", "c"]
    assert all(when == 2.0 for _, when in finish)


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def worker(tag, arrive):
        yield Timeout(eng, arrive)
        req = res.request()
        yield req
        order.append(tag)
        yield Timeout(eng, 5)
        res.release(req)

    eng.process(worker("first", 0.0))
    eng.process(worker("second", 0.1))
    eng.process(worker("third", 0.2))
    eng.run()
    assert order == ["first", "second", "third"]


def test_resource_queue_length_and_in_use():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield Timeout(eng, 10)
        res.release(req)

    def waiter():
        req = res.request()
        yield req
        res.release(req)

    eng.process(holder())
    eng.process(waiter())
    eng.run(until=5)
    assert res.in_use == 1
    assert res.queue_length == 1
    eng.run()
    assert res.in_use == 0
    assert res.queue_length == 0


def test_resource_utilization_integral():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield Timeout(eng, 4)
        res.release(req)
        yield Timeout(eng, 6)  # idle tail

    eng.process(holder())
    eng.run()
    assert eng.now == pytest.approx(10)
    assert res.utilization() == pytest.approx(0.4)


def test_release_unrequested_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    req = res.request()  # immediately granted
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_release_queued_request_cancels():
    eng = Engine()
    res = Resource(eng, capacity=1)
    first = res.request()
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel while waiting
    assert res.queue_length == 0
    res.release(first)
    assert res.in_use == 0


def test_store_put_then_get():
    eng = Engine()
    st = Store(eng)
    st.put("x")
    got = []

    def getter():
        v = yield st.get()
        got.append(v)

    eng.process(getter())
    eng.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    eng = Engine()
    st = Store(eng)
    got = []

    def getter():
        v = yield st.get()
        got.append((eng.now, v))

    def putter():
        yield Timeout(eng, 3)
        st.put("late")

    eng.process(getter())
    eng.process(putter())
    eng.run()
    assert got == [(3.0, "late")]


def test_store_fifo_items_and_getters():
    eng = Engine()
    st = Store(eng)
    got = []

    def getter(tag):
        v = yield st.get()
        got.append((tag, v))

    eng.process(getter("g1"))
    eng.process(getter("g2"))

    def putter():
        yield Timeout(eng, 1)
        st.put("first")
        st.put("second")

    eng.process(putter())
    eng.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_try_get():
    eng = Engine()
    st = Store(eng)
    assert st.try_get() is None
    st.put(7)
    assert len(st) == 1
    assert st.try_get() == 7
    assert st.try_get() is None


def test_semaphore_tokens_and_blocking():
    eng = Engine()
    sem = Semaphore(eng, tokens=2)
    order = []

    def worker(tag):
        yield sem.acquire()
        order.append((tag, eng.now))
        yield Timeout(eng, 1)
        sem.release()

    for t in "abc":
        eng.process(worker(t))
    eng.run()
    assert order == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_semaphore_negative_tokens_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        Semaphore(eng, tokens=-1)


def test_semaphore_release_restores_token():
    eng = Engine()
    sem = Semaphore(eng, tokens=1)

    def body():
        yield sem.acquire()
        sem.release()

    eng.process(body())
    eng.run()
    assert sem.tokens == 1


# ---------------------------------------------------------------------------
# granted but not yet delivered: an interrupt in the hand-off window
# ---------------------------------------------------------------------------


def test_interrupt_between_grant_and_delivery_passes_the_slot_on():
    """``release`` grants the slot to the next waiter by scheduling its
    request event; a waiter interrupted before that event is dispatched
    must not keep the slot (regression: ``in_use`` stayed 1 for good and
    every later requester parked forever)."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def holder():
        req = res.request()
        yield req
        yield Timeout(eng, 1.0)
        res.release(req)  # grants the slot to `doomed` ...
        doomed.interrupt("revoked")  # ... who dies before the grant lands

    def waiter(tag):
        req = res.request()
        try:
            yield req
        except Interrupt:
            log.append((tag, "interrupted", eng.now))
            return
        log.append((tag, "granted", eng.now))
        res.release(req)

    def late():
        yield Timeout(eng, 2.0)
        yield from waiter("late")

    eng.process(holder())
    doomed = eng.process(waiter("doomed"))
    eng.process(waiter("next"))
    eng.process(late())
    eng.run()
    assert log == [
        ("next", "granted", 1.0),
        ("doomed", "interrupted", 1.0),
        ("late", "granted", 2.0),
    ]
    assert res.in_use == 0 and res.queue_length == 0


def test_interrupt_between_put_and_delivery_returns_the_item():
    """``put`` pops the parked getter before its event is dispatched; a
    getter interrupted in that window gives the item back at the *head*
    of the queue (regression: the item vanished with the dead getter)."""
    eng = Engine()
    store = Store(eng)
    got = []

    def getter():
        try:
            got.append((yield store.get()))
        except Interrupt:
            return

    dead = eng.process(getter())

    def driver():
        yield Timeout(eng, 1.0)
        store.put("first")  # handed to the parked getter
        store.put("second")  # queued behind it
        dead.interrupt("crash")
        assert len(store) == 2
        got.append((yield store.get()))
        got.append(store.try_get())

    drv = eng.process(driver())
    eng.run()
    assert drv.ok, drv.value
    assert got == ["first", "second"]


def test_abandoned_store_item_goes_to_the_next_parked_getter():
    eng = Engine()
    store = Store(eng)
    got = []

    def getter(tag):
        try:
            got.append((tag, (yield store.get())))
        except Interrupt:
            return

    dead = eng.process(getter("dead"))
    eng.process(getter("live"))

    def driver():
        yield Timeout(eng, 1.0)
        store.put("item")
        dead.interrupt("crash")

    eng.process(driver())
    eng.run()
    assert got == [("live", "item")]
    assert len(store) == 0


def test_interrupted_semaphore_waiter_returns_its_token():
    """Both halves of the window: a waiter interrupted while parked
    leaves the wait queue, and one interrupted after ``release`` handed
    it the token (but before delivery) puts the token back (regression:
    either way the token went to a dead process and ``tokens`` stayed 0)."""
    eng = Engine()
    sem = Semaphore(eng, tokens=1)
    log = []

    def waiter(tag):
        try:
            yield sem.acquire()
        except Interrupt:
            log.append((tag, "interrupted", eng.now))
            return
        log.append((tag, "acquired", eng.now))

    def holder():
        yield sem.acquire()
        yield Timeout(eng, 1.0)
        parked.interrupt("crash")  # still queued
        sem.release()  # hands the token to `granted` ...
        granted.interrupt("crash")  # ... who dies before it lands

    eng.process(holder())
    parked = eng.process(waiter("parked"))
    granted = eng.process(waiter("granted"))

    def late():
        yield Timeout(eng, 2.0)
        yield from waiter("late")

    eng.process(late())
    eng.run()
    assert log == [
        ("parked", "interrupted", 1.0),
        ("granted", "interrupted", 1.0),
        ("late", "acquired", 2.0),
    ]
    assert sem.tokens == 0  # `late` holds the only token


# ---------------------------------------------------------------------------
# differential: a free slot continues inline vs. "always schedule the grant"
# ---------------------------------------------------------------------------


class GrantEventResource(Resource):
    """The reference model: every acquisition, contended or not, is
    delivered by a zero-delay grant event (what ``request`` did before a
    free slot continued inline)."""

    def request(self):
        req = Request(self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req.succeed(self)  # same slot, same instant, delivered later
        else:
            self._queue.append(req)
        return req


def _run_script(resource_cls, capacity, script):
    """Play ``script`` — per process ``(arrive, hold, interrupt_at)`` —
    over one resource; returns per-process finish times and the busy
    integral."""
    eng = Engine()
    res = resource_cls(eng, capacity=capacity)
    finished = {}

    def body(pid, arrive, hold):
        try:
            yield Timeout(eng, arrive)
            req = res.request()
            yield req
            try:
                yield Timeout(eng, hold)
            finally:
                res.release(req)
        except Interrupt:
            pass
        finished[pid] = eng.now

    def interrupter(proc, at):
        yield Timeout(eng, at)
        if proc.is_alive:
            proc.interrupt("scripted")

    for pid, (arrive, hold, interrupt_at) in enumerate(script):
        proc = eng.process(body(pid, arrive, hold))
        if interrupt_at is not None:
            eng.process(interrupter(proc, interrupt_at))
    eng.run()
    assert res.in_use == 0 and res.queue_length == 0
    return finished, res.busy_seconds()


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 3),
    script=st.lists(
        st.tuples(
            st.integers(0, 6),  # arrival instant
            st.integers(0, 4),  # hold time (0: released in the same instant)
            st.none() | st.integers(0, 12),  # interrupt instant
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_inline_grant_matches_the_grant_event_model(capacity, script):
    """Integer instants on purpose: arrivals, releases and interrupts
    pile up at the same simulated time, which is where eliding the grant
    event could change who gets the slot."""
    assert _run_script(Resource, capacity, script) == _run_script(
        GrantEventResource, capacity, script
    )
