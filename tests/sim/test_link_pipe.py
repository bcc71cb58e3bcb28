"""The contract of a link's pipe, through :meth:`Network.send`.

The serialization portion of a message holds the link's pipe; senders
that find it busy wait in FIFO order and are handed it, at the instant
its holder lets go.  An interrupted waiter must not strand the pipe:
one still queued leaves the queue, and one whose grant was already
scheduled but not yet delivered hands the pipe straight on.  A
partitioned send is dropped before it touches the pipe.

The link computes those hand-overs instead of dispatching them
(:mod:`repro.sim.network`); the last test runs it against a pipe built
from :class:`~repro.sim.resources.Slots` and ``engine.sleep``, the way
the link used to be, and requires the same logs to the bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Interrupt, Timeout
from repro.sim.network import Network, PartitionError
from repro.sim.resources import Slots


def _net(eng, latency_s=0.0):
    # 100 B/s: a 100-byte message holds the pipe for exactly 1 s.
    return Network(eng, latency_s=latency_s, bandwidth_bps=100.0)


def _sender(eng, net, tag, log, start=0.0, nbytes=100):
    def body():
        if start:
            yield Timeout(eng, start)
        try:
            yield from net.send("a", "b", nbytes)
        except Interrupt:
            log.append((tag, "interrupted", eng.now))
            return
        log.append((tag, "done", eng.now))

    return eng.process(body(), name=tag)


def test_three_senders_on_one_link_are_served_in_fifo_order():
    eng = Engine()
    net = _net(eng, latency_s=0.5)
    log = []
    # Arrival order b, c, a — not the order the processes were made.
    _sender(eng, net, "a", log, start=0.2)
    _sender(eng, net, "b", log)
    _sender(eng, net, "c", log, start=0.1)
    eng.run()
    # Each holds the pipe 1 s; the 0.5 s latency overlaps the next.
    assert log == [
        ("b", "done", 1.5), ("c", "done", 2.5), ("a", "done", 3.5),
    ]
    assert net.link("a", "b").messages_sent == 3


def test_an_interrupted_queued_sender_leaves_the_queue():
    eng = Engine()
    net = _net(eng)
    log = []
    _sender(eng, net, "a", log)
    queued = _sender(eng, net, "b", log)
    _sender(eng, net, "c", log, start=0.1)
    _sender(eng, net, "d", log, start=3.0)

    def interrupter():
        yield Timeout(eng, 0.5)
        queued.interrupt("gone")

    eng.process(interrupter())
    eng.run()
    # `c` is next after `a`; `d` finds the pipe free: nothing leaked.
    assert log == [
        ("b", "interrupted", 0.5), ("a", "done", 1.0),
        ("c", "done", 2.0), ("d", "done", 4.0),
    ]
    link = net.link("a", "b")
    assert link.free_at <= eng.now


def test_a_sender_interrupted_between_grant_and_delivery_hands_the_pipe_on():
    eng = Engine()
    net = _net(eng)
    log = []
    _sender(eng, net, "a", log)
    granted = _sender(eng, net, "b", log)
    _sender(eng, net, "c", log)

    def interrupter():
        # Due at t=1 just after `a`'s serialization wait (made later,
        # so dispatched later): `a` has released and `b`'s grant is
        # scheduled, but not delivered, when this runs.
        yield Timeout(eng, 1.0)
        granted.interrupt("gone")

    eng.process(interrupter())
    eng.run()
    # `c` takes the pipe over at the same instant, so ends at 2 s.
    assert log == [
        ("a", "done", 1.0), ("b", "interrupted", 1.0), ("c", "done", 2.0),
    ]
    # The pipe is free again afterwards.
    after = []
    _sender(eng, net, "d", after)
    eng.run()
    assert after == [("d", "done", 3.0)]


def test_a_partitioned_send_is_dropped_without_taking_the_pipe():
    eng = Engine()
    net = _net(eng)
    net.partition("a", "b")

    def body():
        with pytest.raises(PartitionError):
            yield from net.send("a", "b", 100)
        net.heal("a", "b")
        yield from net.send("a", "b", 100)
        return eng.now

    proc = eng.process(body())
    eng.run()
    # The retry at t=0 found the pipe free: one second on it, no wait.
    assert proc.value == 1.0
    assert net.messages_dropped == 1
    assert net.total_messages == 1


# ---------------------------------------------------------------------------
# the computed link against the pipe it replaces
# ---------------------------------------------------------------------------

#: 128 B/s with whole-byte messages, arrivals on eighths and latencies
#: on quarters: every departure and arrival lands on a 1/128 s grid.
#: Interrupts land half a step off it, so none ties with an arrival
#: (whichever of two same-instant events the schedule orders first is
#: not part of the contract).
_BANDWIDTH = 128.0


def _reference_send(eng, pipe, latency_s, nbytes):
    """A send the way the link used to make it: hold a one-slot pipe
    for the transmit sleep, then sleep the latency."""
    grant = pipe.acquire()
    if grant is not None:
        yield grant
    try:
        yield eng.sleep(nbytes / _BANDWIDTH)
    finally:
        pipe.release()
    if latency_s > 0:
        yield eng.sleep(latency_s)


def _run_link_script(latency_s, script, reference):
    """Run ``script`` (arrival, size, interrupt instant or None per
    sender) on one link; returns the log and each finished sender's
    ``sleep_hook`` deltas."""
    eng = Engine()
    net = Network(eng, latency_s=latency_s, bandwidth_bps=_BANDWIDTH)
    pipe = Slots(eng, 1, "reference.pipe")
    log, hooked = [], {}
    eng.sleep_hook = lambda delay: hooked.setdefault(
        eng.active_process.name, []
    ).append(delay)

    def sender(tag, arrive, nbytes):
        yield Timeout(eng, arrive / 8)
        try:
            if reference:
                yield from _reference_send(eng, pipe, latency_s, nbytes)
            else:
                yield from net.send("a", "b", nbytes)
        except Interrupt:
            log.append((tag, "interrupted", eng.now))
            return
        log.append((tag, "done", eng.now))

    def interrupter(proc, at):
        yield Timeout(eng, at / 128 + 1 / 256)
        if proc.is_alive:
            proc.interrupt("scripted")

    for i, (arrive, nbytes, interrupt_at) in enumerate(script):
        proc = eng.process(sender(f"s{i}", arrive, nbytes), name=f"s{i}")
        if interrupt_at is not None:
            eng.process(interrupter(proc, interrupt_at), name=f"i{i}")
    eng.run()
    if reference:
        assert pipe.held == 0 and not pipe._waiters
    else:
        link = net.link("a", "b")
        assert link.free_at <= eng.now
    done = {tag for tag, outcome, _ in log if outcome == "done"}
    return log, {tag: hooked.get(tag, []) for tag in sorted(done)}


@settings(max_examples=200, deadline=None)
@given(
    latency=st.sampled_from([0, 1, 4]),
    script=st.lists(
        st.tuples(
            st.integers(0, 24),  # arrival, in eighths of a second
            st.integers(1, 300),  # bytes: up to ~2.3 s on the wire
            st.none() | st.integers(0, 1200),  # interrupt, 1/128 s steps
        ),
        min_size=1,
        max_size=7,
    ),
)
def test_the_computed_link_matches_the_pipe_it_replaces(latency, script):
    latency_s = latency / 4
    assert _run_link_script(latency_s, script, reference=False) == (
        _run_link_script(latency_s, script, reference=True)
    )
