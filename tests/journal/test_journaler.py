"""Tests for LocalJournal and the MDS's striped journal (MDSJournal)."""

import pytest

from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES
from repro.journal.journaler import LocalJournal
from repro.mds.journal import MDSJournal
from repro.rados.cluster import ObjectStore
from repro.rados.striper import Striper
from repro.sim.disk import Disk
from repro.sim.engine import Engine
from repro.sim.network import Network


def make_env(num_osds=3):
    engine = Engine()
    net = Network(engine, latency_s=1e-5, bandwidth_bps=1.25e9)
    store = ObjectStore(engine, net, num_osds=num_osds, replication=min(3, num_osds))
    return engine, store


def drive(engine, gen):
    p = engine.process(gen)
    engine.run()
    if not p.ok:
        raise p.value
    return p.value


def ev(path, **kw):
    return JournalEvent(EventType.CREATE, path, **kw)


# ---- LocalJournal ------------------------------------------------------


def test_local_append_assigns_sequence():
    eng = Engine()
    j = LocalJournal(eng)
    a = j.append(ev("/a"))
    b = j.append(ev("/b"))
    assert (a.seq, b.seq) == (1, 2)
    assert len(j) == 2


def test_local_append_never_validates():
    eng = Engine()
    j = LocalJournal(eng)
    j.append(ev("/same"))
    j.append(ev("/same"))  # duplicate create is accepted by design
    assert len(j) == 2


def test_local_extend_and_clear():
    eng = Engine()
    j = LocalJournal(eng)
    batch = j.extend_creates(["/a", "/b"], [7, 8], 1.5)
    assert len(j) == 2 and j.events == batch
    assert [(e.op, e.path, e.ino, e.seq, e.mtime) for e in batch] == [
        (EventType.CREATE, "/a", 7, 1, 1.5),
        (EventType.CREATE, "/b", 8, 2, 1.5),
    ]
    j.clear()
    assert len(j) == 0


def test_local_drain_resets_buffer_but_not_seq():
    eng = Engine()
    j = LocalJournal(eng)
    j.append(ev("/a"))
    batch = j.drain()
    assert [e.path for e in batch] == ["/a"]
    assert len(j) == 0
    nxt = j.append(ev("/b"))
    assert nxt.seq == 2


def test_local_wire_bytes():
    eng = Engine()
    j = LocalJournal(eng)
    for i in range(10):
        j.append(ev(f"/f{i}"))
    assert j.wire_bytes == 10 * WIRE_EVENT_BYTES


def test_local_serialize_round_trip():
    eng = Engine()
    j = LocalJournal(eng, client_id=4)
    j.append(ev("/x", ino=10))
    j.append(ev("/y", ino=11))
    data = j.serialize()
    j2 = LocalJournal.deserialize(eng, data, client_id=4)
    assert [e.path for e in j2.events] == ["/x", "/y"]
    assert j2.append(ev("/z")).seq == 3


def test_local_deserialize_round_trips_every_field():
    eng = Engine()
    j = LocalJournal(eng, client_id=4)
    j.append(JournalEvent(EventType.MKDIR, "/d", ino=10, mode=0o40700,
                          uid=7, gid=8, mtime=2.5, client_id=4))
    j.append(JournalEvent(EventType.RENAME, "/d", target_path="/e",
                          client_id=4))
    j2 = LocalJournal.deserialize(eng, j.serialize(), client_id=4)
    assert j2.events == j.events


def test_local_deserialize_keeps_valid_prefix_of_damaged_stream():
    eng = Engine()
    j = LocalJournal(eng)
    j.append(ev("/a"))
    j.append(ev("/b"))
    j2 = LocalJournal.deserialize(eng, j.serialize()[:-3])
    assert [e.path for e in j2.events] == ["/a"]
    assert j2.append(ev("/c")).seq == 2


def test_local_persist_local_charges_wire_size():
    eng = Engine()
    disk = Disk(eng, bandwidth_bps=100e6, seek_s=0.0)
    j = LocalJournal(eng)
    for i in range(100):
        j.append(ev(f"/f{i}"))
    nbytes = drive(eng, j.persist_local(disk))
    assert nbytes == 100 * WIRE_EVENT_BYTES
    assert eng.now == pytest.approx(nbytes / 100e6)


def test_local_persist_global_round_trips_and_charges():
    eng, store = make_env()
    striper = Striper(store, "metadata", "client0-journal", object_size=1 << 20)
    j = LocalJournal(eng)
    for i in range(50):
        j.append(ev(f"/f{i}"))
    t0 = eng.now
    nbytes = drive(eng, j.persist_global(striper))
    assert nbytes == 50 * WIRE_EVENT_BYTES
    assert eng.now > t0
    # The journal is recoverable from the object store.
    recovered = LocalJournal.deserialize(eng, drive(eng, striper.read_all()))
    assert [e.path for e in recovered.events] == [f"/f{i}" for i in range(50)]


def test_global_persist_uses_aggregate_bandwidth():
    """With more OSDs and striping, Global Persist gets faster."""
    def run(num_osds, object_size):
        eng, store = make_env(num_osds=num_osds)
        striper = Striper(store, "metadata", "j", object_size=object_size)
        j = LocalJournal(eng)
        for i in range(2000):
            j.append(ev(f"/f{i}"))
        drive(eng, j.persist_global(striper))
        return eng.now

    slow = run(num_osds=1, object_size=1 << 30)
    fast = run(num_osds=8, object_size=16 << 10)
    assert fast < slow


# ---- the MDS's striped journal (Stream) -----------------------------------


def mds_journal(store, prefix="j", **kw):
    return MDSJournal(store.engine, Striper(store, "metadata", prefix), **kw)


def test_journaler_segment_fills():
    eng, store = make_env()
    jr = mds_journal(store, "mds0-journal", segment_events=3)
    drive(eng, jr.log_events(events=[ev("/f0"), ev("/f1")]))
    assert (jr.open_real_events, jr.segments_dispatched) == (2, 0)
    drive(eng, jr.log_events(events=[ev("/f2")]))  # fills the segment
    assert (jr.open_real_events, jr.segments_dispatched) == (0, 1)


def test_journaler_validation():
    eng, store = make_env()
    with pytest.raises(ValueError):
        mds_journal(store, segment_events=0)


def test_journaler_dispatch_and_readback():
    eng, store = make_env()
    jr = mds_journal(store, "mds0-journal", segment_events=4)
    drive(eng, jr.log_events(events=[ev(f"/f{i}") for i in range(4)]))
    assert jr.segments_dispatched == 1
    events = drive(eng, jr.read_scan()).events
    assert [e.path for e in events] == [f"/f{i}" for i in range(4)]
    assert [e.seq for e in events] == [1, 2, 3, 4]


def test_journaler_multiple_segments_concatenate():
    eng, store = make_env()
    jr = mds_journal(store, "mds0-journal", segment_events=2)
    drive(eng, jr.log_events(events=[ev(f"/f{i}") for i in range(6)]))
    events = drive(eng, jr.read_scan()).events
    assert len(events) == 6
    assert jr.segments_dispatched == 3


def test_journaler_read_scan_verifies_every_dispatched_segment():
    # MDS recovery reads back one wire segment per dispatch; the scan
    # must verify each in place (see test_format's segmentation test),
    # also when the window had 40 segment writes in flight at once.
    eng, store = make_env()
    jr = mds_journal(store, "mds0-journal", segment_events=64)
    events = [ev(f"/d/f{i}", ino=i + 1) for i in range(64 * 40 + 5)]
    drive(eng, jr.log_events(events=events))
    drive(eng, jr.flush())
    scan = drive(eng, jr.read_scan())
    assert scan.ok and scan.valid_segments == 41
    assert scan.events == [e.with_seq(i) for i, e in enumerate(events, 1)]


def test_journaler_flush_partial_segment():
    eng, store = make_env()
    jr = mds_journal(store, segment_events=100)
    drive(eng, jr.log_events(events=[ev("/only")]))
    drive(eng, jr.flush())
    assert jr.segments_dispatched == 1
    assert drive(eng, jr.read_scan()).events[0].path == "/only"


def test_journaler_empty_dispatch_noop():
    eng, store = make_env()
    jr = mds_journal(store)
    drive(eng, jr.flush())
    assert jr.segments_dispatched == 0
    assert jr.striper.size() == 0


def test_journaler_read_empty():
    eng, store = make_env()
    jr = mds_journal(store)
    assert drive(eng, jr.read_scan()).events == []


def test_journaler_events_counted():
    eng, store = make_env()
    jr = mds_journal(store, segment_events=2)
    drive(eng, jr.log_events(events=[ev(f"/f{i}") for i in range(5)]))
    assert jr.events_logged == 5 and jr.last_seq == 5
