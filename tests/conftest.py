"""Shared fixtures and helpers for the whole suite."""

import pytest

from repro.mds.server import MDSConfig, MetadataServer
from repro.rados.cluster import ObjectStore
from repro.sim.engine import Engine
from repro.sim.network import Network


def drive(engine, gen):
    """Run one process body to completion; raise its failure if any."""
    proc = engine.process(gen)
    engine.run()
    if not proc.ok:
        raise proc.value
    return proc.value


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def network(engine):
    return Network(engine, latency_s=50e-6, bandwidth_bps=1.25e9)


@pytest.fixture
def objstore(engine, network):
    return ObjectStore(engine, network, num_osds=3, replication=3)


@pytest.fixture
def mds(engine, objstore, network):
    return MetadataServer(engine, objstore, network, MDSConfig())


@pytest.fixture
def mds_nojournal(engine, objstore, network):
    return MetadataServer(
        engine, objstore, network, MDSConfig(journal_enabled=False)
    )


def tap_holders(cluster):
    """Everything in ``cluster`` that reports to an observer tap."""
    yield cluster
    for mds in cluster.mds_list:
        yield mds
        yield mds.journal
    yield from cluster.objstore.osds
    yield from cluster._clients
    yield from cluster._dclients
