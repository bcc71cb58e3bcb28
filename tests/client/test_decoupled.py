"""Tests for the decoupled (Append Client Journal) client."""

import pytest

from repro.client.decoupled import DecoupledClient
from repro.journal.events import EventType
from repro.mds.inotable import InoRange

from tests.conftest import drive


def test_append_rate_matches_paper(engine):
    """Append Client Journal: ~11K creates/s (paper §V-A)."""
    c = DecoupledClient(engine, 1)
    n = 5000
    t0 = engine.now
    drive(engine, c.create_many("/sub", n))
    rate = n / (engine.now - t0)
    assert rate == pytest.approx(11_000, rel=0.01)


def test_persist_each_rate_near_2500(engine):
    """'decoupled: create' in Figure 6a: ~2.5K creates/s per client."""
    c = DecoupledClient(engine, 1, persist_each=True)
    n = 2000
    t0 = engine.now
    drive(engine, c.create_many("/sub", n))
    rate = n / (engine.now - t0)
    assert rate == pytest.approx(2500, rel=0.1)


def test_materialized_creates_recorded(engine):
    c = DecoupledClient(engine, 3)
    c.assign_inodes(InoRange(5000, 100))
    drive(engine, c.create_many("/sub", ["a", "b", "c"]))
    assert len(c.journal) == 3
    paths = [e.path for e in c.journal.events]
    assert paths == ["/sub/a", "/sub/b", "/sub/c"]
    inos = [e.ino for e in c.journal.events]
    assert inos == [5000, 5001, 5002]
    assert all(e.client_id == 3 for e in c.journal.events)


def test_no_validation_duplicate_creates_allowed(engine):
    c = DecoupledClient(engine, 1)
    drive(engine, c.create_many("/sub", ["same"]))
    drive(engine, c.create_many("/sub", ["same"]))
    assert len(c.journal) == 2  # by design: no consistency checks


def test_inode_exhaustion_raises(engine):
    c = DecoupledClient(engine, 1)
    c.assign_inodes(InoRange(5000, 2))
    drive(engine, c.create_many("/sub", ["a", "b"]))
    with pytest.raises(RuntimeError):
        drive(engine, c.create_many("/sub", ["c"]))


def test_inode_exhaustion_mid_batch_keeps_what_fitted(engine):
    c = DecoupledClient(engine, 1)
    c.assign_inodes(InoRange(5000, 2))
    with pytest.raises(RuntimeError, match="exhausted"):
        drive(engine, c.create_many("/sub", ["a", "b", "c"]))
    assert [(e.path, e.ino, e.seq) for e in c.journal.events] == [
        ("/sub/a", 5000, 1), ("/sub/b", 5001, 2),
    ]
    with pytest.raises(RuntimeError, match="exhausted"):
        drive(engine, c.mkdir("/sub/d"))


def test_without_provision_ino_zero(engine):
    c = DecoupledClient(engine, 1)
    drive(engine, c.create_many("/sub", ["a"]))
    assert c.journal.events[0].ino == 0


def test_mkdir_unlink_rename_events(engine):
    c = DecoupledClient(engine, 1)
    c.assign_inodes(InoRange(5000, 10))
    drive(engine, c.mkdir("/sub/d"))
    drive(engine, c.unlink("/sub/f"))
    drive(engine, c.rename("/sub/a", "/sub/b"))
    ops = [e.op for e in c.journal.events]
    assert ops == [EventType.MKDIR, EventType.UNLINK, EventType.RENAME]
    assert c.journal.events[2].target_path == "/sub/b"


def test_counted_mode_tracks_pending(engine):
    c = DecoupledClient(engine, 1)
    drive(engine, c.create_many("/sub", 500))
    assert c.counted_ops == 500
    assert c.pending_events == 500


def test_crash_loses_unpersisted_updates(engine):
    """'if the client fails and stays down then computation must be done
    again' (paper §II-A)."""
    c = DecoupledClient(engine, 1)
    drive(engine, c.create_many("/sub", ["a", "b"]))
    drive(engine, c.create_many("/sub", 100))
    lost = c.crash()
    assert lost == 102
    assert c.pending_events == 0


def test_persist_each_charges_disk(engine):
    c = DecoupledClient(engine, 1, persist_each=True)
    drive(engine, c.create_many("/sub", 100))
    assert c.disk.bytes_written == 100 * 2560


def test_stats_counter(engine):
    c = DecoupledClient(engine, 1)
    drive(engine, c.create_many("/sub", ["a"]))
    drive(engine, c.create_many("/sub", 9))
    assert c.stats.counter("ops").value == 10
