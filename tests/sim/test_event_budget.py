"""A deterministic cost gate on the RPC path: engine events per create.

Host seconds drift with the machine; the number of events the engine
dispatches does not.  The kernel's rule is that an event exists only
where simulated time passes or another process hands something over —
a free slot, a queued item, a spare token and a zero-length delay all
continue inline, and the host is not a process, so a body driven by
``Cluster.run`` starts and finishes without a dispatch.  These tests
count dispatches through the public ``engine.trace`` hook (the one the
perf ledger's ``events_per_op`` uses)
and pin the count, the order and the timestamps, so a satisfied wait
creeping back onto the queue fails here, exactly, on any runner — and
so does an "optimisation" that drops an event contention still needs.
"""

from repro.cluster import Cluster
from repro.mds.server import MDSConfig
from repro.sim.disk import Disk
from repro.sim.engine import Engine, Event, Interrupt, Process, Timeout
from repro.sim.network import Link
from repro.sim.resources import Request, Resource, StoreGet


def _traced(engine):
    """Attach a recording trace hook; returns the list it fills with
    ``(time, event class, names of the processes waiting on it)``.  The
    class is the public one: a pooled ``engine.sleep`` timeout reads as
    a plain :class:`Event`."""
    seen = []

    def hook(t, event):
        waiters = [getattr(cb, "__self__", None) for cb in event.callbacks]
        names = [w.name for w in waiters if isinstance(w, Process)]
        kind = next(
            (k for k in (Process, Request, StoreGet) if isinstance(event, k)),
            Event,
        )
        seen.append((t, kind, names))

    engine.trace = hook
    return seen


# ---------------------------------------------------------------------------
# (i) one create on an idle cluster: what is left, in order, and when
# ---------------------------------------------------------------------------

#: Dispatch times of the six waits of one create (seed 0, after one
#: ``mkdir``).  These are the times the same six waits had when the
#: round trip still cost fifteen dispatches: only zero-delay events and
#: the host's two ends went away, so no clock reading could move.
T_OVERHEAD = 0.0030044651004963053
T_REQUEST_ON_WIRE = 0.0030048747004963053
T_CPU_DONE = 0.00334486798229639
T_REPLY_DUE = 0.003619438642895289
T_REPLY_ON_WIRE = 0.003619848242895289


def test_one_create_on_an_idle_cluster_is_six_events():
    cluster = Cluster(seed=0, mds_config=MDSConfig(materialize=True))
    client = cluster.new_client()
    cluster.run(client.mkdir("/d"))
    seen = _traced(cluster.engine)
    resp = cluster.run(client.create("/d/f"))
    cluster.engine.trace = None
    assert resp.ok

    # 15 before satisfied waits continued inline, 8 while the host still
    # drove the body as a process: a start and a completion event.
    assert len(seen) == 6
    assert seen == [
        (T_OVERHEAD, Event, ["create"]),  # client overhead
        (T_REQUEST_ON_WIRE, Event, ["create"]),  # request serialisation
        (T_REQUEST_ON_WIRE, StoreGet, ["mds0.loop"]),  # queue hand-off
        (T_CPU_DONE, Event, ["mds0.loop"]),  # MDS CPU
        (T_REPLY_DUE, Event, ["create"]),  # done, due after commit latency
        (T_REPLY_ON_WIRE, Event, ["create"]),  # reply serialisation
    ]


# ---------------------------------------------------------------------------
# (ii) closed loop: the queue hand-off goes too once the MDS stays busy
# ---------------------------------------------------------------------------

#: Achieved: 5.02 (13.03 before).  A saturated MDS finds its next
#: request already queued, so even the hand-off event disappears; the
#: budget leaves room for the idle stretches at the start and the end.
EVENTS_PER_CREATE_BUDGET = 5.6


def test_closed_loop_creates_stay_within_the_event_budget():
    clients, creates = 8, 200
    cluster = Cluster(seed=0, mds_config=MDSConfig(materialize=True))
    sessions = [cluster.new_client() for _ in range(clients)]
    for i, client in enumerate(sessions):
        cluster.run(client.mkdir(f"/d{i}"))

    def closed_loop(i, client):
        for k in range(creates):
            resp = yield from client.create(f"/d{i}/f{k}")
            assert resp.ok

    seen = _traced(cluster.engine)
    procs = [
        cluster.engine.process(closed_loop(i, client))
        for i, client in enumerate(sessions)
    ]
    cluster.engine.run()
    cluster.engine.trace = None
    assert all(proc.ok for proc in procs)
    assert cluster.mds.mdstore.file_count == clients * creates
    per_create = len(seen) / (clients * creates)
    assert per_create <= EVENTS_PER_CREATE_BUDGET, per_create


# ---------------------------------------------------------------------------
# (iii) contention is unchanged: the loser still waits for a grant event
# ---------------------------------------------------------------------------


def _grants(seen):
    return [(t, names) for t, kind, names in seen if kind is Request]


def test_two_transmits_on_one_link_still_serialize_with_one_grant():
    eng = Engine()
    link = Link(eng, latency_s=1.0, bandwidth_bps=100.0)
    done = []

    def sender(tag):
        yield from link.transmit(200)  # 2 s on the pipe + 1 s latency
        done.append((tag, eng.now))

    seen = _traced(eng)
    eng.process(sender("a"), name="a")
    eng.process(sender("b"), name="b")
    eng.run()
    assert done == [("a", 3.0), ("b", 5.0)]
    # `a` found the pipe free (no event); `b` was granted it when `a`
    # released, by an event, at that instant.
    assert _grants(seen) == [(2.0, ["b"])]


def test_zero_latency_link_schedules_no_propagation_wait():
    eng = Engine()
    link = Link(eng, latency_s=0.0, bandwidth_bps=100.0)
    seen = _traced(eng)
    proc = eng.process(link.transmit(200), name="tx")
    eng.run()
    assert proc.ok and eng.now == 2.0
    # start, the serialisation wait, completion
    assert [t for t, _, _ in seen] == [0.0, 2.0, 2.0]


def test_disk_holders_beyond_capacity_complete_fifo_with_grant_events():
    eng = Engine()
    disk = Disk(eng, bandwidth_bps=100.0, seek_s=0.5)
    done = []

    def writer(tag):
        yield from disk.write(100)  # 1.5 s each
        done.append((tag, eng.now))

    seen = _traced(eng)
    for tag in "abc":
        eng.process(writer(tag), name=tag)
    eng.run()
    assert done == [("a", 1.5), ("b", 3.0), ("c", 4.5)]
    assert _grants(seen) == [(1.5, ["b"]), (3.0, ["c"])]
    assert disk.busy_seconds() == 4.5


def test_interrupt_while_holding_an_inline_slot_releases_it():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def holder():
        req = res.request()
        yield req  # free slot: continues inline, now holding
        try:
            yield Timeout(eng, 100)
        except Interrupt:
            log.append(("interrupted", eng.now))
        finally:
            res.release(req)

    def waiter():
        req = res.request()
        yield req
        log.append(("granted", eng.now))
        res.release(req)

    held = eng.process(holder())
    eng.process(waiter())

    def interrupter():
        yield Timeout(eng, 1)
        held.interrupt()

    eng.process(interrupter())
    eng.run()
    assert log == [("interrupted", 1), ("granted", 1)]
    assert res.in_use == 0 and res.busy_seconds() == 1.0
