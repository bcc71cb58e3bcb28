"""Write-buffering capabilities and Figure 1's HDFS subtree.

"the HDFS subtree has weaker than strong consistency because it lets
clients read files opened for writing, which means that not all updates
are immediately seen by all clients" (paper §I / Figure 1).

Under a strong subtree a reader's ``stat`` of an open file triggers a
cap recall (correct size, one extra round trip); under a ``read_lazy``
subtree the reader gets the committed — possibly stale — size at full
speed.
"""

import pytest

from repro import calibration as cal
from repro.cluster import Cluster
from repro.conformance.recorder import HistoryRecorder
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy


def make(read_lazy):
    cluster = Cluster()
    cudele = Cudele(cluster)
    cluster.run(
        cudele.decouple(
            "/data", SubtreePolicy(read_lazy=read_lazy)
        )
    )
    writer = cluster.new_client()
    reader = cluster.new_client()
    return cluster, writer, reader


def test_open_write_buffers_and_close_flushes():
    cluster, writer, reader = make(read_lazy=False)
    handle = cluster.run(writer.open_write("/data/out.log"))
    handle.write(4096)
    handle.write(4096)
    assert handle.size == 8192
    resp = cluster.run(writer.close_write(handle))
    assert resp.ok and resp.value == 8192
    st = cluster.run(reader.stat("/data/out.log"))
    assert st.value.size == 8192
    assert handle.closed
    with pytest.raises(ValueError):
        handle.write(1)


def test_double_open_by_other_client_rejected():
    cluster, writer, reader = make(read_lazy=False)
    cluster.run(writer.open_write("/data/f"))
    with pytest.raises(OSError, match="EBUSY"):
        cluster.run(reader.open_write("/data/f"))


def test_reopen_by_same_client_allowed():
    cluster, writer, _ = make(read_lazy=False)
    cluster.run(writer.open_write("/data/f"))
    h2 = cluster.run(writer.open_write("/data/f"))
    assert h2.size == 0


def test_close_unopened_rejected():
    from repro.client.client import WriteHandle

    cluster, writer, _ = make(read_lazy=False)
    cluster.mds.mdstore.create("/data/ghost")
    resp = cluster.run(writer.close_write(WriteHandle("/data/ghost")))
    assert not resp.ok and "EBADF" in resp.error


def test_strong_reader_sees_buffered_size_via_recall():
    cluster, writer, reader = make(read_lazy=False)
    handle = cluster.run(writer.open_write("/data/live"))
    handle.write(1_000_000)
    st = cluster.run(reader.stat("/data/live"))
    assert st.ok and st.value.size == 1_000_000  # recalled, exact
    assert cluster.mds.stats.counter("wb_recalls").value == 1
    assert cluster.mds.stats.counter("lazy_reads").value == 0


def test_lazy_reader_sees_stale_size_without_recall():
    cluster, writer, reader = make(read_lazy=True)
    handle = cluster.run(writer.open_write("/data/live"))
    handle.write(1_000_000)
    st = cluster.run(reader.stat("/data/live"))
    assert st.ok and st.value.size == 0  # committed (stale) metadata
    assert cluster.mds.stats.counter("wb_recalls").value == 0
    assert cluster.mds.stats.counter("lazy_reads").value == 1


def test_recall_costs_a_round_trip():
    def stat_time(read_lazy):
        cluster, writer, reader = make(read_lazy=read_lazy)
        handle = cluster.run(writer.open_write("/data/live"))
        handle.write(10)
        t0 = cluster.now
        cluster.run(reader.stat("/data/live"))
        return cluster.now - t0

    assert stat_time(False) - stat_time(True) == pytest.approx(
        cal.CAP_RECALL_S, rel=0.05
    )


def test_writers_own_stat_never_recalls():
    cluster, writer, _ = make(read_lazy=False)
    handle = cluster.run(writer.open_write("/data/mine"))
    handle.write(55)
    st = cluster.run(writer.stat("/data/mine"))
    assert st.ok
    assert cluster.mds.stats.counter("wb_recalls").value == 0


def test_open_write_cannot_create_under_a_foreign_block():
    """Opening a missing file creates it, so an ``interfere: block``
    subtree refuses it to every client but its owner, like a create."""
    cluster = Cluster()
    cluster.run(Cudele(cluster).decouple(
        "/job",
        SubtreePolicy(
            consistency="append_client_journal", durability="none",
            interfere="block",
        ),
    ))
    intruder = cluster.new_client()
    with pytest.raises(OSError, match="EBUSY"):
        cluster.run(intruder.open_write("/job/intruder.log"))
    assert not cluster.mds.mdstore.exists("/job/intruder.log")


def test_file_created_by_open_survives_an_mds_crash():
    """The create an open makes is journaled and visible: once the
    journal is flushed, a crash and replay keep the file."""
    cluster = Cluster()
    writer = cluster.new_client()
    assert cluster.run(writer.mkdir("/data")).ok
    recorder = HistoryRecorder.attach(cluster)
    handle = cluster.run(writer.open_write("/data/out.log"))
    handle.write(4096)
    assert cluster.run(writer.close_write(handle)).ok
    mds = cluster.mds
    cluster.run(mds.journal.flush())
    mds.crash()
    cluster.run(mds.recover())
    assert mds.mdstore.exists("/data/out.log")
    visible = [
        (e.op, e.client) for e in recorder.history.of_kind("visible")
        if e.path == "/data/out.log"
    ]
    assert visible == [("create", writer.client_id)]


def test_policy_file_read_lazy_key():
    from repro.core.policyfile import parse_policies

    assert parse_policies("read_lazy: true\n").read_lazy
    assert not parse_policies("read_lazy: no\n").read_lazy
    assert not parse_policies("").read_lazy
    with pytest.raises(Exception):
        parse_policies("read_lazy: maybe\n")
