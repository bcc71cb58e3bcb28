"""Tests for the compile-phase workload (Figure 2 substrate)."""

import pytest

from repro.cluster import Cluster
from repro.mds.server import MDSConfig
from repro.workloads.compile_wl import run_compile


def run(scale=800):
    cluster = Cluster(mds_config=MDSConfig(materialize=False))
    res = cluster.run(run_compile(cluster, scale=scale))
    return res


def test_three_phases_in_order():
    res = run()
    assert [p.name for p in res.phases] == ["untar", "configure", "make"]


def test_unknown_phase_lookup():
    res = run()
    with pytest.raises(KeyError):
        res.phase("link")


def test_untar_dominates_mds_cpu():
    """Figure 2's headline: the create-heavy phase is the hottest."""
    res = run()
    untar = res.phase("untar")
    assert untar.mds_cpu_util > res.phase("configure").mds_cpu_util
    assert untar.mds_cpu_util > res.phase("make").mds_cpu_util
    make = res.phase("make")
    assert untar.mds_cpu_util + untar.disk_util >= make.mds_cpu_util + make.disk_util


def test_untar_dominates_network_rate():
    res = run()

    def rate(name):
        phase = res.phase(name)
        return phase.net_bytes / phase.duration_s

    assert rate("untar") > rate("configure")
    assert rate("untar") > rate("make")


def test_phase_durations_positive():
    res = run()
    for p in res.phases:
        assert p.duration_s > 0
        assert p.ops > 0
        assert 0 <= p.mds_cpu_util <= 1.0
        assert p.disk_util >= 0
