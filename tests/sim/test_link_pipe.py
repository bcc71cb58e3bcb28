"""The contract of a link's pipe, through :meth:`Network.send`.

The serialization portion of a message holds the link's pipe; senders
that find it busy wait in FIFO order and are handed it, at the instant
its holder lets go.  An interrupted waiter must not strand the pipe:
one still queued leaves the queue, and one whose grant was already
scheduled but not yet delivered hands the pipe straight on.  A
partitioned send is dropped before it touches the pipe.
"""

import pytest

from repro.sim.engine import Engine, Interrupt, Timeout
from repro.sim.network import Network, PartitionError


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
    pipe = net.link("a", "b").pipe
    assert pipe.held == 0 and not pipe._waiters


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
