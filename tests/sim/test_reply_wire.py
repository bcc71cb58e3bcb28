"""An MDS reply is one wake: the MDS puts it on the wire, the client
waits once for it to arrive (:meth:`repro.sim.network.Network.reply`).

The reference is the path it replaced, built here: the MDS fires the
client's event when the reply is issued (``done.succeed(response,
delay=latency)``, what an in-process submitter still gets), and the
woken client sends the reply over ``mds -> client`` itself.  Both run
the real :class:`~repro.mds.server.MetadataServer` serve loop with a
scripted handler, so the service time and the commit latency of each
request are drawn; everything the test reads must match to the bit.

Times live on a 1/16 s grid (client overhead, serialisation, service,
latencies, timers), so a reply timer can tie with a reply's issue
instant exactly; faults land half a step off the grid, so none ties
with anything (which of two same-instant events goes first is the
engine's business, pinned separately below).
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import calibration as cal
from repro.client.client import TRANSIENT_ERRORS, Client, RetryPolicy, RpcTimeout
from repro.mds.server import MDSConfig, MetadataServer, Request, Response
from repro.rados.cluster import ObjectStore
from repro.sim.engine import AnyOf, Engine, Timeout
from repro.sim.network import Network

STEP = 1 / 16


class _ReferenceClient(Client):
    """The client before replies went on the wire by themselves: woken
    when the MDS issues the reply, it sends it from ``mds`` to itself.
    One attempt, resolved as :class:`Client` resolves its last one."""

    def _call(self, request, op_count=1):
        mds, network = self.mds, self.network
        yield self.engine.sleep(op_count * cal.CLIENT_OP_OVERHEAD_S)
        try:
            yield from network.send(self.name, mds.name, cal.RPC_MESSAGE_BYTES)
            done = mds.submit(request)
            timeout_s = self.retry.reply_timeout_s
            if timeout_s is None:
                response = yield done
            else:
                timer = Timeout(self.engine, timeout_s)
                try:
                    idx, response = yield AnyOf(self.engine, [done, timer])
                finally:
                    timer.cancel()
                if idx == 1:
                    raise RpcTimeout(
                        f"{self.name}: no reply from {mds.name} "
                        f"within {timeout_s}s"
                    )
            yield from network.send(mds.name, self.name, cal.RPC_MESSAGE_BYTES)
        except TRANSIENT_ERRORS as exc:
            return Response(ok=False, error=f"ETIMEDOUT: {exc}", rpcs=1)
        return response


def _run(requests, timeout, faults, reference):
    """Run one client's concurrent ``requests`` (start, count, service,
    latency, in steps) against a scripted MDS, with ``faults`` (time in
    half steps, action) on the ``mds0 <-> client1`` pair; returns what
    the two paths must agree on."""
    eng = Engine()
    # One RPC message is on the wire for exactly one step.
    net = Network(eng, latency_s=0.0, bandwidth_bps=cal.RPC_MESSAGE_BYTES / STEP)
    mds = MetadataServer(
        eng, ObjectStore(eng, net, num_osds=1, replication=1), net,
        MDSConfig(journal_enabled=False),
    )

    def handle(request):
        service, latency = request.payload
        yield eng.sleep(service * STEP)
        return Response(ok=True, value=request.path), latency * STEP

    mds._handle = handle
    retry = RetryPolicy(
        max_retries=0,
        reply_timeout_s=None if timeout is None else timeout * STEP,
    )
    cls = _ReferenceClient if reference else Client
    client = cls(eng, 1, mds, net, retry=retry)
    hooked = {}
    eng.sleep_hook = lambda delay: hooked.setdefault(
        eng.active_process.name, []
    ).append(delay)
    ends = {}

    def caller(tag, start, count, service, latency):
        yield Timeout(eng, start * STEP)
        request = Request(
            "stat", f"/{tag}", client.client_id, count=count,
            payload=(service, latency),
        )
        resp = yield from client._call(request, op_count=count)
        ends[tag] = (eng.now, resp)

    def fault(at, action):
        yield Timeout(eng, at * STEP / 2)
        if action == "crash":
            mds.crash()
        else:
            getattr(net, action)(mds.name, client.name)

    for i, spec in enumerate(requests):
        eng.process(caller(f"r{i}", *spec), name=f"r{i}")
    for at, action in faults:
        eng.process(fault(at, action), name=f"{action}@{at}")
    with mock.patch.object(cal, "CLIENT_OP_OVERHEAD_S", STEP):
        eng.run()
    links = {
        key: (link.messages_sent, link.bytes_sent)
        for key, link in sorted(net._links.items())
    }
    return {
        "ends": ends,
        "dropped": net.messages_dropped,
        "links": links,
        "hooks": {k: hooked[k] for k in sorted(hooked)},
        "requests_failed": mds.stats.counters().get("requests_failed", 0),
    }


def _agree(requests, timeout=None, faults=()):
    new = _run(requests, timeout, faults, reference=False)
    assert new == _run(requests, timeout, faults, reference=True)
    return new


_request = st.tuples(
    st.integers(0, 4),  # start
    st.integers(1, 3),  # count: client overhead steps
    st.integers(0, 3),  # service
    st.integers(0, 10),  # commit latency
)

_fault = st.tuples(
    st.integers(0, 30).map(lambda k: 2 * k + 1),  # half steps, off grid
    st.sampled_from(["partition", "heal", "crash"]),
)


# r1 is served second but issued first; r0's reply goes behind it.
@example(requests=[(0, 1, 1, 8), (0, 1, 1, 0)], timeout=None, faults=[])
# A partition between r0's serve end (3) and its issue (7), then a heal
# before it is due, and one between its issue and its arrival (8).
@example(requests=[(0, 1, 1, 4)], timeout=None, faults=[(11, "partition")])
@example(requests=[(0, 1, 1, 4)], timeout=None,
         faults=[(11, "partition"), (13, "heal")])
@example(requests=[(0, 1, 1, 4)], timeout=None, faults=[(15, "partition")])
# Both replies dropped and put back at once: the link must be free
# from r0's issue instant again, not from r1's.
@example(requests=[(0, 1, 0, 2), (0, 1, 0, 2)], timeout=None,
         faults=[(7, "partition"), (7, "heal")])
# r2 is dropped and put back while r1, due with r0 at 4, waits behind
# it: r2 may leave only when r1 has (6), not at its issue instant (5).
@example(requests=[(0, 1, 0, 2), (0, 1, 0, 1), (0, 1, 0, 1)], timeout=None,
         faults=[(9, "partition"), (9, "heal")])
# Timers from the submit (2): before, at and after the issue (7), and
# one due with the arrival (8).
@example(requests=[(0, 1, 1, 4)], timeout=4, faults=[])
@example(requests=[(0, 1, 1, 4)], timeout=5, faults=[])
@example(requests=[(0, 1, 1, 4)], timeout=6, faults=[])
@example(requests=[(0, 1, 1, 4), (0, 1, 1, 0)], timeout=5, faults=[])
# A crash after r0's reply is issued, and one before r1's.
@example(requests=[(0, 1, 1, 4), (0, 1, 2, 3)], timeout=None,
         faults=[(9, "crash")])
@settings(max_examples=150, deadline=None)
@given(
    requests=st.lists(_request, min_size=1, max_size=3),
    timeout=st.none() | st.integers(0, 14),
    faults=st.lists(_fault, max_size=3),
)
def test_the_wire_reply_matches_the_client_side_send(requests, timeout, faults):
    _agree(requests, timeout, faults)


def test_an_inverted_issue_goes_in_front_and_the_reply_behind_is_retimed():
    got = _agree([(0, 1, 1, 8), (0, 1, 1, 0), (0, 1, 1, 0)])
    ends = {tag: t / STEP for tag, (t, _) in got["ends"].items()}
    # Served at 2-3, 3-4 and 4-5; issued at 11, 4 and 5.
    assert ends == {"r0": 12.0, "r1": 5.0, "r2": 6.0}


def test_a_change_exactly_at_the_issue_instant_lands_first():
    """Which of a fault and a reply's issue due at one instant goes
    first was the dispatch order of the fault's event and the reply's.
    A fault scheduled before the request was served (the common case:
    a fault plan armed up front) went first, so a partition at the
    issue instant drops the reply and a heal there sends it; the link
    keeps that rule whatever the order was (a reply not yet issued is
    one due at or after now)."""
    # Served 2-3, issued at 7, arrives at 8; faults armed at time 0.
    def at_issue(action, extra=()):
        eng_faults = [*extra, (14, action)]
        return _agree([(0, 1, 1, 4)], faults=eng_faults)

    # ``_run`` takes half steps: 14 is the issue instant itself.
    dropped = at_issue("partition")
    assert dropped["dropped"] == 1
    assert dropped["ends"]["r0"][1].error.startswith(
        "ETIMEDOUT: network partition"
    )
    healed = at_issue("heal", extra=[(5, "partition")])
    assert healed["dropped"] == 0
    assert healed["ends"]["r0"][0] == 8 * STEP and healed["ends"]["r0"][1].ok
