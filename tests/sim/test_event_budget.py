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
from repro.sim.network import Network
from repro.sim.resources import SlotGrant, StoreGet


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
            (k for k in (Process, SlotGrant, StoreGet)
             if isinstance(event, k)),
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
    return [(t, names) for t, kind, names in seen if kind is SlotGrant]


def test_two_transmits_on_one_link_still_serialize_with_one_grant():
    eng = Engine()
    net = Network(eng, latency_s=1.0, bandwidth_bps=100.0)
    done = []

    def sender(tag):
        yield from net.send("x", "y", 200)  # 2 s on the pipe + 1 s latency
        done.append((tag, eng.now))

    seen = _traced(eng)
    eng.process(sender("a"), name="a")
    eng.process(sender("b"), name="b")
    eng.run()
    assert done == [("a", 3.0), ("b", 5.0)]
    # `a` found the pipe free (no event); `b` was granted it when `a`
    # released, by the pipe's grant event, at that instant.
    assert _grants(seen) == [(2.0, ["b"])]


def test_zero_latency_link_schedules_no_propagation_wait():
    eng = Engine()
    net = Network(eng, latency_s=0.0, bandwidth_bps=100.0)
    seen = _traced(eng)
    proc = eng.process(net.send("x", "y", 200), name="tx")
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
    disk = Disk(eng, bandwidth_bps=100.0, seek_s=0.0)
    log = []

    def holder():
        try:
            yield from disk.write(10_000)  # free queue: taken inline; 100 s
        except Interrupt:
            log.append(("interrupted", eng.now))

    def waiter():
        yield from disk.write(100)  # 1 s once the queue is handed over
        log.append(("written", eng.now))

    held = eng.process(holder())
    eng.process(waiter())

    def interrupter():
        yield Timeout(eng, 1)
        held.interrupt()

    eng.process(interrupter())
    eng.run()
    assert log == [("interrupted", 1), ("written", 2)]
    assert disk.busy_seconds() == 2.0


# ---------------------------------------------------------------------------
# (iv) the Cudele path on an idle cluster: a body awaited at once is no
# process (repro.sim.engine design notes), so it costs no start and no
# completion dispatch; every wait keeps its timestamp
# ---------------------------------------------------------------------------

T_SUBMIT_DONE = 3.2768e-06  # client -> monitor: serialisation
T_SUBMIT_ON_WIRE = 5.3276800000000005e-05  # ... and propagation
T_UPDATE_SERIALISED = 5.655360000000001e-05
T_UPDATE_ON_WIRE = 0.00010655360000000001
T_PROVISIONED = 0.0004441915310289044
T_PERSIST_FORMAT = 0.001046918803756177
T_PERSIST_SENT = 0.001053062803756177
T_PERSIST_ON_WIRE = 0.001103062803756177
T_REPLICAS_WRITTEN = 0.0012184228037561769
T_READ = 0.0013188968037561768
T_READ_SENT = 0.0013190864037561768
T_READ_ON_WIRE = 0.0013690864037561768

_SUBSCRIBERS = ("mds0", "osd.0", "osd.1", "osd.2")


def _decoupled_namespace():
    """An idle materialised cluster and one traced ``Cudele.decouple``
    of ``/job`` (weak / global); returns ``(cluster, ns, dispatches)``."""
    from repro.core import Cudele, SubtreePolicy

    cluster = Cluster(seed=0, mds_config=MDSConfig(materialize=True))
    seen = _traced(cluster.engine)
    ns = cluster.run(Cudele(cluster).decouple(
        "/job",
        SubtreePolicy.from_semantics("weak", "global", allocated_inodes=8),
    ))
    cluster.engine.trace = None
    return cluster, ns, seen


def test_one_decouple_on_an_idle_cluster_is_twenty_four_events():
    _, ns, seen = _decoupled_namespace()
    assert ns.dclient.client_id == 1001

    # 26 while the monitor's set_subtree ran as a process: its start and
    # its completion.  The map distribution fans out to four
    # subscribers, so those stay processes joined by one AllOf.
    def each_subscriber(t):
        return [(t, Event, [f"policy-update:{d}"]) for d in _SUBSCRIBERS]

    assert len(seen) == 24
    assert seen == [
        (0.0, Event, ["mds0.loop"]),  # serve loop start (first call)
        (0.0, Event, ["decouple"]),  # the driven body's start
        (T_SUBMIT_DONE, Event, ["decouple"]),
        (T_SUBMIT_ON_WIRE, Event, ["decouple"]),
        *each_subscriber(T_SUBMIT_ON_WIRE),  # distribution starts
        *each_subscriber(T_UPDATE_SERIALISED),
        *each_subscriber(T_UPDATE_ON_WIRE),
        *[(T_UPDATE_ON_WIRE, Process, [])] * 4,  # completions -> AllOf
        (T_UPDATE_ON_WIRE, Event, ["decouple"]),  # the AllOf
        (T_UPDATE_ON_WIRE, StoreGet, ["mds0.loop"]),  # provision request
        (T_PROVISIONED, Event, ["mds0.loop"]),  # MDS CPU
        (T_PROVISIONED, Event, ["decouple"]),  # reply
    ]


def _one_stripe_persist():
    from repro.core import MechanismContext, run_mechanism

    cluster, ns, _ = _decoupled_namespace()
    dclient = ns.dclient
    cluster.run(dclient.create_many(ns.path, ["a", "b", "c"]))
    ctx = MechanismContext(cluster, ns.path, dclient)
    striper = ctx.persist_striper()
    seen = _traced(cluster.engine)
    cluster.run(run_mechanism("global_persist", ctx))
    cluster.engine.trace = None
    assert striper.layout(0, striper.size()) == [(0, 0, striper.size())]
    return cluster, dclient, striper, seen


def test_one_stripe_global_persist_is_thirteen_events():
    _, _, _, seen = _one_stripe_persist()
    puts = [f"put:dclient1001.journal.00000000@osd.{i}" for i in (2, 0, 1)]

    # 16 while the lone stripe was a process joined by an AllOf: its
    # start, its completion and the AllOf.  The three replicas still
    # write in parallel.
    assert len(seen) == 13
    assert seen == [
        (T_PERSIST_FORMAT, Event, ["run_mechanism"]),  # format cost
        (T_PERSIST_SENT, Event, ["run_mechanism"]),  # to the primary
        (T_PERSIST_ON_WIRE, Event, ["run_mechanism"]),
        *[(T_PERSIST_ON_WIRE, Event, [p]) for p in puts],  # replica starts
        *[(T_REPLICAS_WRITTEN, Event, [p]) for p in puts],  # disk writes
        *[(T_REPLICAS_WRITTEN, Process, [])] * 3,  # completions -> AllOf
        (T_REPLICAS_WRITTEN, Event, ["run_mechanism"]),  # the AllOf
    ]


def test_recover_global_is_three_events():
    cluster, dclient, striper, _ = _one_stripe_persist()
    dclient.crash(lose_disk=True)
    seen = _traced(cluster.engine)
    restored = cluster.run(dclient.recover_global(striper))
    cluster.engine.trace = None
    assert restored == 3

    # 11 while read_all, read, the stripe get and the OSD read were
    # four nested processes, each awaited at once.
    assert seen == [
        (T_READ, Event, ["recover_global"]),  # OSD read
        (T_READ_SENT, Event, ["recover_global"]),  # back to the client
        (T_READ_ON_WIRE, Event, ["recover_global"]),
    ]
