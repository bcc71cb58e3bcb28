"""Tests for MDS-side journaling: segments, window, cost model."""

import pytest

from repro import calibration as cal
from repro.journal.events import EventType, JournalEvent
from repro.mds.journal import MDSJournal
from repro.rados.striper import Striper
from repro.sim.engine import SimulationError

from tests.conftest import drive


def make_journal(engine, objstore, **kw):
    striper = Striper(objstore, "metadata", "mds0.journal")
    return MDSJournal(engine, striper, **kw)


def ev(path):
    return JournalEvent(EventType.CREATE, path)


def test_dispatch_size_validation(engine, objstore):
    with pytest.raises(ValueError):
        make_journal(engine, objstore, dispatch_size=0)


def test_disabled_journal_is_free(engine, objstore):
    j = make_journal(engine, objstore, enabled=False)
    assert j.commit_latency_s() == 0.0
    assert j.management_cpu_s(100) == 0.0
    drive(engine, j.log_events(events=[ev("/f")]))
    assert j.events_logged == 0


def test_commit_latency_matches_calibration(engine, objstore):
    j = make_journal(engine, objstore, dispatch_size=40)
    expected = cal.JLAT_BASE_S + cal.JLAT_UNIT_S * cal.dispatch_factor(40)
    assert j.commit_latency_s() == pytest.approx(expected)


def test_dispatch1_has_no_management_overhead(engine, objstore):
    j = make_journal(engine, objstore, dispatch_size=1)
    assert j.management_cpu_s(queue_depth=50) == 0.0
    assert j.commit_latency_s() == pytest.approx(cal.JLAT_BASE_S)


def test_management_cpu_grows_with_queue(engine, objstore):
    j = make_journal(engine, objstore, dispatch_size=30)
    assert j.management_cpu_s(0) == 0.0
    assert j.management_cpu_s(20) > j.management_cpu_s(5) > 0


def test_dispatch_factor_shape():
    # Figure 3a ordering: 1 best; 10 and 30 worst; 40 better; huge ~ 1.
    f = {d: cal.dispatch_factor(d) for d in (1, 10, 30, 40, 200)}
    assert f[1] == 0.0
    assert f[30] > f[10] > f[40] > f[200]
    assert f[200] < 0.02
    with pytest.raises(ValueError):
        cal.dispatch_factor(0)


def test_real_events_dispatch_on_segment_fill(engine, objstore):
    j = make_journal(engine, objstore, segment_events=4)
    drive(engine, j.log_events(events=[ev(f"/f{i}") for i in range(9)]))
    engine.run()
    assert j.segments_dispatched == 2  # 2 full segments, 1 open
    drive(engine, j.flush())
    engine.run()
    assert j.segments_dispatched == 3
    events = drive(engine, j.read_scan()).events
    assert len(events) == 9


def test_counted_events_dispatch_and_charge(engine, objstore):
    j = make_journal(engine, objstore, segment_events=100)
    drive(engine, j.log_events(count=250))
    engine.run()
    assert j.segments_dispatched == 2
    assert j.events_logged == 250
    # The flush charged object-store time for 200 events' wire bytes.
    total_written = sum(o.disk.bytes_written for o in objstore.osds)
    assert total_written >= 200 * 2560  # replicated, so at least this


def test_counted_flush_drains_remainder(engine, objstore):
    j = make_journal(engine, objstore, segment_events=100)
    drive(engine, j.log_events(count=50))
    drive(engine, j.flush())
    engine.run()
    assert j.segments_dispatched == 1


def test_window_stall_accounting(engine, objstore):
    # Tiny segments + window of 1 + slow disks force stalls.
    for osd in objstore.osds:
        osd.disk.bandwidth_bps = 1e4  # pathological slowness
    j = make_journal(engine, objstore, segment_events=1, dispatch_size=1)
    drive(engine, j.log_events(count=5))
    engine.run()
    assert j.stalls > 0
    assert j.segments_dispatched == 5


def test_mixed_real_and_counted(engine, objstore):
    j = make_journal(engine, objstore, segment_events=10)
    drive(engine, j.log_events(events=[ev("/a")], count=3))
    assert j.events_logged == 4


def test_concurrent_flushers_both_wait_for_the_write_to_land(engine, objstore):
    # Regression: the first flusher took the in-flight list with it, so
    # a second one started at the same instant found nothing to wait
    # for and returned before the segment was in the object store.
    j = make_journal(engine, objstore)
    drive(engine, j.log_events(events=[ev(f"/f{i}") for i in range(10)]))
    returned = {}

    def flusher(tag):
        yield from j.flush()
        returned[tag] = (engine.now, j.segments_dispatched)

    engine.process(flusher("first"))
    engine.process(flusher("second"))
    engine.run()
    assert returned["first"][0] > 0.0
    assert returned["second"] == returned["first"]
    assert returned["second"][1] == 1


def test_a_double_release_of_the_dispatch_window_raises(engine, objstore):
    # The window never widens past dispatch_size: a release with no
    # segment in flight is a bug, not a spare slot.
    j = make_journal(engine, objstore, segment_events=1, dispatch_size=1)
    drive(engine, j.log_events(count=1))
    engine.run()
    assert j.segments_dispatched == 1 and j.segments_in_flight == 0
    with pytest.raises(SimulationError):
        j._window.release()
