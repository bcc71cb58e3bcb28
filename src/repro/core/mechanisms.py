"""The Cudele mechanisms (paper Figure 4 / Section III-A).

Each mechanism is a process body ``mech(ctx)`` operating on a
:class:`MechanismContext`.  Workload-phase mechanisms (RPCs, Append
Client Journal, Stream) shape how operations execute while the job runs
and are no-ops at completion time; the others move or merge the client's
journal when invoked.

===================  ======================================================
rpcs                 per-op client->MDS round trips (strong consistency)
append_client_journal  updates buffered in the client's in-memory journal
volatile_apply       replay the client journal onto the MDS's in-memory
                     metadata store
nonvolatile_apply    replay the client journal through the object store
                     (pull/update/push of affected dir objects), then
                     restart the MDS so it re-reads the journal
stream               MDS streams its metadata journal into the object
                     store (flushes any open segment here)
local_persist        write the serialized journal to the client's disk
global_persist       push the serialized journal into the object store
===================  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro import calibration as cal
from repro.journal.events import JournalEvent, WIRE_EVENT_BYTES
from repro.mds.server import MetadataServer, Request
from repro.rados.striper import Striper
from repro.sim.engine import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.decoupled import DecoupledClient
    from repro.cluster import Cluster

__all__ = ["MechanismContext", "MECHANISMS", "run_mechanism", "merge_journal"]

#: Nonvolatile Apply does real per-event object round trips up to this
#: many events; longer journals extrapolate from a measured prefix (the
#: per-event cost is constant, so this only bounds simulator host work).
NVA_REAL_EVENT_LIMIT = 512


@dataclass
class MechanismContext:
    """Everything a mechanism needs to run."""

    cluster: "Cluster"
    subtree: str
    dclient: Optional["DecoupledClient"] = None

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def mds(self):
        """The MDS authoritative for this subtree (rank 0 unless the
        cluster partitions subtrees across ranks)."""
        return self.cluster.mds_for(self.subtree)

    @property
    def objstore(self):
        return self.cluster.objstore

    @property
    def network(self):
        return self.cluster.network

    @property
    def client_id(self) -> int:
        return self.dclient.client_id if self.dclient else 0

    @property
    def events(self) -> Optional[List[JournalEvent]]:
        """Materialized journal events, if any."""
        if self.dclient is not None and len(self.dclient.journal):
            return list(self.dclient.journal.events)
        return None

    @property
    def counted(self) -> int:
        return self.dclient.counted_ops if self.dclient else 0

    @property
    def n_events(self) -> int:
        return (len(self.dclient.journal) if self.dclient else 0) + self.counted

    def persist_striper(self) -> Striper:
        name = self.dclient.name if self.dclient else "client"
        return Striper(self.objstore, "metadata", f"{name}.journal")


# --------------------------------------------------------------------------
# workload-phase markers
# --------------------------------------------------------------------------


def mech_rpcs(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Strong consistency: operations already went through the MDS
    during the workload; nothing to do at completion."""
    return
    yield  # pragma: no cover - makes this a generator


def mech_append_client_journal(
    ctx: MechanismContext,
) -> Generator[Event, None, None]:
    """Updates were appended to the client journal during the workload."""
    return
    yield  # pragma: no cover


def mech_stream(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Stream runs continuously on the MDS; flush the open segment so
    'global durability' holds at the completion point."""
    if not ctx.mds.journal.enabled:
        raise RuntimeError(
            "policy requires the Stream mechanism but the MDS journal is "
            "disabled (MDSConfig.journal_enabled=False)"
        )
    yield from ctx.mds.journal.flush()


# --------------------------------------------------------------------------
# apply mechanisms
# --------------------------------------------------------------------------


def merge_journal(
    mds: MetadataServer,
    subtree: str,
    client_id: int,
    events: Optional[List[JournalEvent]] = None,
    count: Optional[int] = None,
) -> Generator[Event, None, dict]:
    """Merge a client journal at the MDS (process body).

    Submits the events, or the count, as one Volatile Apply request; the
    MDS resolves conflicts where it applies them.  Returns the server's
    ``{applied, conflicts}`` summary and raises on a refused reply.
    """
    payload = events if events is not None else count
    if payload is None:
        raise ValueError("merge_journal needs events or a count")
    response = yield mds.submit(
        Request("volatile_apply", subtree, client_id, payload=payload)
    )
    if not response.ok:
        raise RuntimeError(f"merge failed: {response.error}")
    return response.value


def mech_volatile_apply(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Ship the client journal to the MDS and replay it onto the
    in-memory metadata store.  No durability until something persists."""
    n = ctx.n_events
    if n == 0:
        return
    src = ctx.dclient.name if ctx.dclient else "client"
    yield from ctx.network.send(src, ctx.mds.name, n * WIRE_EVENT_BYTES)
    events = ctx.events
    if events is not None:
        yield from merge_journal(
            ctx.mds, ctx.subtree, ctx.client_id, events=events
        )
    if ctx.counted:
        yield from merge_journal(
            ctx.mds, ctx.subtree, ctx.client_id, count=ctx.counted,
        )


def mech_nonvolatile_apply(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Replay the journal through the object store, then restart the MDS.

    "It works by iterating over the updates in the journal and pulling
    all objects that may be affected ... two objects are repeatedly
    pulled, updated, and pushed: the object that houses the experiment
    directory and the object that contains the root directory." (§V-A)
    """
    n = ctx.n_events
    if n == 0:
        return
    src = ctx.dclient.name if ctx.dclient else "client"
    store = ctx.objstore
    dir_obj = f"nva:{ctx.subtree}"
    root_obj = "nva:/"
    payload = b"\x00"

    real = min(n, NVA_REAL_EVENT_LIMIT)
    sample_start = ctx.engine.now
    for _ in range(real):
        for obj in (dir_obj, root_obj):
            yield from store.read_modify_write(
                "metadata", obj, payload, src=src,
                charge_bytes=cal.NVA_RMW_BYTES,
            )
    if n > real:
        # The per-event cost is constant (same two objects each cycle),
        # so extrapolate the measured prefix instead of looping 100K
        # times in the host simulator.
        per_event = (ctx.engine.now - sample_start) / max(1, real)
        yield Timeout(ctx.engine, per_event * (n - real))

    # The metadata-store objects now reflect the journal; the MDS must
    # restart to notice them.  Persist the journal where the recovering
    # MDS will read it, then restart.
    events = ctx.events
    if events is not None:
        yield from ctx.mds.journal.log_events(events=events)
    if ctx.counted:
        yield from ctx.mds.journal.log_events(count=ctx.counted)
    yield from ctx.mds.journal.flush()
    done = ctx.mds.shutdown()
    yield done
    yield from ctx.mds.restart()


# --------------------------------------------------------------------------
# persist mechanisms
# --------------------------------------------------------------------------


def mech_local_persist(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Write serialized log events to a file on local disk (§III-A)."""
    n = ctx.n_events
    if n == 0 or ctx.dclient is None:
        return
    yield Timeout(ctx.engine, n * cal.PERSIST_FORMAT_S)
    if len(ctx.dclient.journal):
        yield from ctx.dclient.journal.persist_local(ctx.dclient.persist_device)
    if ctx.counted:
        yield from ctx.dclient.persist_device.write(ctx.counted * WIRE_EVENT_BYTES)
    # The image is on disk now: a plain client crash can no longer lose
    # these updates (crash recovery reads them back via recover_local).
    ctx.dclient.note_local_persist()


def mech_global_persist(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Push the journal into the object store (§III-A).

    The striper spreads the write over the OSDs, so the cost rides the
    aggregate bandwidth of the cluster rather than one disk.
    """
    n = ctx.n_events
    if n == 0 or ctx.dclient is None:
        return
    yield Timeout(
        ctx.engine, n * (cal.PERSIST_FORMAT_S + cal.GLOBAL_PERSIST_EVENT_S)
    )
    striper = ctx.persist_striper()
    src = ctx.dclient.name
    if len(ctx.dclient.journal):
        yield from ctx.dclient.journal.persist_global(striper, src=src)
    if ctx.counted:
        yield from striper.append(
            b"\x00", src=src,
            charge_factor=float(ctx.counted * WIRE_EVENT_BYTES),
        )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

MECHANISMS: Dict[str, Callable[[MechanismContext], Generator]] = {
    "rpcs": mech_rpcs,
    "append_client_journal": mech_append_client_journal,
    "stream": mech_stream,
    "volatile_apply": mech_volatile_apply,
    "nonvolatile_apply": mech_nonvolatile_apply,
    "local_persist": mech_local_persist,
    "global_persist": mech_global_persist,
}


def run_mechanism(
    name: str, ctx: MechanismContext
) -> Generator[Event, None, None]:
    """Dispatch one mechanism by name (process body).

    Every run is one ``mech`` section on the cluster's observer tap
    (a ``mech.<name>`` span and a ``mechanism_latency_s`` sample under
    ``repro.obs``) — all completion paths (``CompositionPlan.execute``,
    retarget, recouple) flow through here, so this one site covers
    them all.
    """
    try:
        impl = MECHANISMS[name]
    except KeyError:
        raise KeyError(
            f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}"
        ) from None
    tap = ctx.cluster.tap
    section = None
    if tap is not None:
        section = tap.begin("mech", "cudele", name, subtree=ctx.subtree)
    try:
        yield from impl(ctx)
    finally:
        if section is not None:
            tap.end(section)
