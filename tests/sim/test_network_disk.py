"""Tests for the network link and disk models."""

import pytest

from repro.sim.disk import Disk
from repro.sim.engine import Engine
from repro.sim.network import Link, Network


def test_link_transfer_time_formula():
    eng = Engine()
    lk = Link(eng, latency_s=0.001, bandwidth_bps=1000.0)
    assert lk.transfer_time(500) == pytest.approx(0.001 + 0.5)


def test_link_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Link(eng, latency_s=-1)
    with pytest.raises(ValueError):
        Link(eng, bandwidth_bps=0)


def test_link_single_transfer_duration():
    eng = Engine()
    net = Network(eng, latency_s=0.01, bandwidth_bps=100.0)
    lk = net.link("a", "b")

    def body():
        yield from net.send("a", "b", 50)

    p = eng.process(body())
    eng.run()
    assert p.ok
    assert eng.now == pytest.approx(0.01 + 0.5)
    assert lk.bytes_sent == 50
    assert lk.messages_sent == 1


def test_link_serializes_bandwidth_overlaps_latency():
    eng = Engine()
    net = Network(eng, latency_s=0.01, bandwidth_bps=100.0)
    done = []

    def body(tag):
        yield from net.send("a", "b", 100)  # 1s serialization each
        done.append((tag, eng.now))

    eng.process(body("a"))
    eng.process(body("b"))
    eng.run()
    # Serialization: a finishes pipe at 1s (+latency), b at 2s (+latency).
    assert done[0] == ("a", pytest.approx(1.01))
    assert done[1] == ("b", pytest.approx(2.01))


def test_link_negative_bytes_rejected():
    eng = Engine()
    net = Network(eng)

    def body():
        yield from net.send("a", "b", -1)

    p = eng.process(body())
    eng.run()
    assert not p.ok and isinstance(p.value, ValueError)
    assert net.total_messages == 0


def test_network_link_identity_and_direction():
    eng = Engine()
    net = Network(eng)
    ab = net.link("a", "b")
    assert net.link("a", "b") is ab
    assert net.link("b", "a") is not ab


def test_network_totals():
    eng = Engine()
    net = Network(eng, latency_s=0.0, bandwidth_bps=1e6)

    def body():
        yield from net.send("c", "mds", 1000)
        yield from net.send("mds", "c", 500)

    eng.process(body())
    eng.run()
    assert net.total_bytes == 1500
    assert net.total_messages == 2


def test_disk_io_time_formula():
    eng = Engine()
    d = Disk(eng, bandwidth_bps=1000.0, seek_s=0.005)
    assert d.io_time(100) == pytest.approx(0.005 + 0.1)


def test_disk_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Disk(eng, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Disk(eng, seek_s=-0.1)


def test_disk_serializes_requests():
    eng = Engine()
    d = Disk(eng, bandwidth_bps=100.0, seek_s=0.0)
    done = []

    def writer(tag):
        yield from d.write(100)
        done.append((tag, eng.now))

    eng.process(writer("a"))
    eng.process(writer("b"))
    eng.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]
    assert d.bytes_written == 200
    assert d.requests == 2


def test_disk_read_write_accounting():
    eng = Engine()
    d = Disk(eng)

    def body():
        yield from d.write(10)
        yield from d.read(20)

    eng.process(body())
    eng.run()
    assert d.bytes_written == 10
    assert d.bytes_read == 20


def test_disk_small_random_io_dominated_by_seek():
    """Many small I/Os should cost far more than one large sequential I/O
    of the same total size — the effect behind Nonvolatile Apply's 78x."""
    eng = Engine()
    d = Disk(eng, bandwidth_bps=500e6, seek_s=100e-6)
    total = 1_000_000

    def small():
        for _ in range(1000):
            yield from d.write(total // 1000)

    eng.process(small())
    eng.run()
    t_small = eng.now

    eng2 = Engine()
    d2 = Disk(eng2, bandwidth_bps=500e6, seek_s=100e-6)

    def big():
        yield from d2.write(total)

    eng2.process(big())
    eng2.run()
    assert t_small > 10 * eng2.now
