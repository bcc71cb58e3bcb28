"""Namespace sync: partial updates for read-while-writing (Figure 6c).

"Cudele clients have a 'namespace sync' that sends batches of updates
back to the global namespace at regular intervals ... The client only
pauses to fork off a background process, which is expensive as the
address space needs to be copied."  (paper §V-B3)

Cost model per sync (constants in :mod:`repro.calibration`):

* ``FORK_BASE_S`` — fork/COW setup of the client address space;
* ``batch_bytes / FORK_COPY_BPS`` — copying the dirty pages the batch
  touched since the previous sync;
* ``SYNC_CONTENTION_PER_S2 * interval^2`` — foreground slowdown while
  the background writer drains the batch to network/disk (the longer
  the interval, the larger the batch, and the longer the writer
  competes for memory bandwidth and page cache).

The batch itself ships to the MDS asynchronously (an idle core does
the logging and transfer), making partial results visible to ``ls``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro import calibration as cal
from repro.client.decoupled import DecoupledClient
from repro.cluster import Cluster
from repro.journal.events import WIRE_EVENT_BYTES
from repro.mds.server import Request
from repro.sim.engine import Event, Timeout

__all__ = ["NamespaceSyncStats", "synced_workload", "sync_pause_s"]


def sync_pause_s(batch_events: int, interval_s: float) -> float:
    """Foreground pause charged for one namespace sync."""
    batch_bytes = batch_events * WIRE_EVENT_BYTES
    return (
        cal.FORK_BASE_S
        + batch_bytes / cal.FORK_COPY_BPS
        + cal.SYNC_CONTENTION_PER_S2 * interval_s * interval_s
    )


@dataclass
class NamespaceSyncStats:
    """Outcome of one synced run."""

    total_updates: int
    interval_s: float
    syncs: int = 0
    run_time_s: float = 0.0
    baseline_time_s: float = 0.0
    largest_batch: int = 0
    synced_updates: int = 0

    @property
    def overhead(self) -> float:
        """Fractional slowdown vs. the never-syncing baseline."""
        if self.baseline_time_s == 0:
            return 0.0
        return self.run_time_s / self.baseline_time_s - 1.0

    @property
    def largest_batch_bytes(self) -> int:
        return self.largest_batch * WIRE_EVENT_BYTES


def synced_workload(
    cluster: Cluster,
    dclient: DecoupledClient,
    subtree: str,
    total_updates: int,
    interval_s: Optional[float],
) -> Generator[Event, None, NamespaceSyncStats]:
    """Write ``total_updates`` to a decoupled subtree, syncing every
    ``interval_s`` seconds (``None`` disables syncing: the baseline).

    Process body; returns the run's :class:`NamespaceSyncStats`.
    """
    if total_updates < 1:
        raise ValueError("need at least one update")
    if interval_s is not None and interval_s <= 0:
        raise ValueError("sync interval must be positive")
    engine = cluster.engine
    rate = 1.0 / cal.CLIENT_APPEND_S
    baseline = total_updates * cal.CLIENT_APPEND_S
    stats = NamespaceSyncStats(
        total_updates=total_updates,
        interval_s=interval_s if interval_s is not None else 0.0,
        baseline_time_s=baseline,
    )
    start = engine.now
    per_batch = (
        total_updates
        if interval_s is None
        else max(1, int(interval_s * rate))
    )
    done = 0
    background: List[Event] = []
    while done < total_updates:
        batch = min(per_batch, total_updates - done)
        yield from dclient.create_many(subtree, batch)
        done += batch
        if interval_s is not None and done < total_updates:
            stats.syncs += 1
            stats.largest_batch = max(stats.largest_batch, batch)
            yield Timeout(engine, sync_pause_s(batch, interval_s))
            background.append(
                engine.process(
                    _ship_batch(cluster, dclient, subtree, batch),
                    name=f"namespace-sync:{stats.syncs}",
                )
            )
            stats.synced_updates += batch
    # The job completes when the client's appends finish; background
    # syncs keep draining on the idle core (the paper measures the
    # client's slowdown, not the merge tail).
    stats.run_time_s = engine.now - start
    return stats


def _ship_batch(
    cluster: Cluster,
    dclient: DecoupledClient,
    subtree: str,
    batch: int,
) -> Generator[Event, None, None]:
    """Background half of a sync: move the batch to the MDS."""
    yield from cluster.network.send(
        dclient.name, cluster.mds.name, batch * WIRE_EVENT_BYTES
    )
    events = dclient.journal.drain() or None
    payload = events if events else batch
    resp = yield cluster.mds.submit(
        Request("volatile_apply", subtree, dclient.client_id, payload=payload)
    )
    if not resp.ok:  # pragma: no cover - defensive
        raise RuntimeError(f"namespace sync failed: {resp.error}")
    if isinstance(payload, int):
        dclient.counted_ops = max(0, dclient.counted_ops - batch)
