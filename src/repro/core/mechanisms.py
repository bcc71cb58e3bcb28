"""The Cudele mechanisms (paper Figure 4 / Section III-A).

:data:`MECHANISMS` is the paper's mechanism table: each entry is one
:class:`Mechanism` record stating its role (consistency or durability),
the Table I level it lands a policy in, whether it acts while the
workload runs, the process body it runs at completion and the upstream
mechanisms it needs.  The DSL, the composition gate, the policy cell
inference and the namespace API all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Generator, List, Optional, Union,
)

from repro import calibration as cal
from repro.core.semantics import Consistency, Durability
from repro.journal.events import JournalEvent, WIRE_EVENT_BYTES
from repro.mds.server import MetadataServer, Request
from repro.rados.striper import Striper
from repro.sim.engine import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.decoupled import DecoupledClient
    from repro.cluster import Cluster

__all__ = [
    "Mechanism", "MechanismContext", "MECHANISMS", "run_mechanism",
    "merge_journal",
]

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
# stream
# --------------------------------------------------------------------------


def _require_journal(ctx: MechanismContext, mechanism: str) -> None:
    if not ctx.mds.journal.enabled:
        raise RuntimeError(
            f"policy requires the {mechanism} mechanism but the MDS journal "
            "is disabled (MDSConfig.journal_enabled=False)"
        )


def mech_stream(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Stream runs continuously on the MDS; flush the open segment so
    'global durability' holds at the completion point."""
    _require_journal(ctx, "Stream")
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
    op: str = "volatile_apply",
) -> Generator[Event, None, dict]:
    """Merge a client journal at the MDS (process body).

    Submits the events, or the count, as one Volatile or Nonvolatile
    Apply request (``op``); the MDS resolves conflicts where it applies
    them.  Returns ``{applied, conflicts}``; raises on a refused reply.
    """
    payload = events if events is not None else count
    if payload is None:
        raise ValueError("merge_journal needs events or a count")
    response = yield mds.submit(
        Request(op, subtree, client_id, payload=payload)
    )
    if not response.ok:
        raise RuntimeError(f"merge failed: {response.error}")
    return response.value


def _merge_client_journal(
    ctx: MechanismContext, op: str
) -> Generator[Event, None, None]:
    """Submit the client journal as ``op`` requests (process body)."""
    mds, subtree, client, events = ctx.mds, ctx.subtree, ctx.client_id, ctx.events
    if events is not None:
        yield from merge_journal(mds, subtree, client, events=events, op=op)
    if ctx.counted:
        yield from merge_journal(mds, subtree, client, count=ctx.counted, op=op)


def mech_volatile_apply(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Ship the client journal to the MDS and replay it onto the
    in-memory metadata store.  No durability until something persists."""
    n = ctx.n_events
    if n == 0:
        return
    src = ctx.dclient.name if ctx.dclient else "client"
    yield from ctx.network.send(src, ctx.mds.name, n * WIRE_EVENT_BYTES)
    yield from _merge_client_journal(ctx, "volatile_apply")


def mech_nonvolatile_apply(ctx: MechanismContext) -> Generator[Event, None, None]:
    """Replay the journal through the object store, then restart the MDS.

    "It works by iterating over the updates in the journal and pulling
    all objects that may be affected ... two objects are repeatedly
    pulled, updated, and pushed: the object that houses the experiment
    directory and the object that contains the root directory." (§V-A)
    The restart rebuilds the store from the journal, so it needs one.
    """
    _require_journal(ctx, "Nonvolatile Apply")
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

    # The MDS merges under the one rule, then restarts from durable state.
    yield from _merge_client_journal(ctx, "nonvolatile_apply")
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

@dataclass(frozen=True)
class Mechanism:
    """One row of the mechanism table."""

    #: The Table I level a policy holding this mechanism reaches; its
    #: type is the mechanism's role.
    level: Union[Consistency, Durability]
    #: Acts while the workload runs (as opposed to only at completion).
    workload: bool = False
    #: Process body run when the policy completes; ``None`` when the
    #: mechanism's work is all done during the workload.
    complete: Optional[Callable[[MechanismContext], Generator]] = None
    #: Upstream providers, any one of which satisfies the mechanism,
    #: and why it needs one.
    needs: FrozenSet[str] = frozenset()
    why: str = ""

    @property
    def role(self) -> str:
        return "consistency" if isinstance(self.level, Consistency) else "durability"


#: The mechanism table, in the order the composition gate reports.
MECHANISMS: Dict[str, Mechanism] = {
    # Per-op client->MDS round trips.
    "rpcs": Mechanism(Consistency.STRONG, workload=True),
    # Updates buffered in the client's in-memory journal.
    "append_client_journal": Mechanism(Consistency.INVISIBLE, workload=True),
    "volatile_apply": Mechanism(
        Consistency.WEAK, complete=mech_volatile_apply,
        needs=frozenset({"append_client_journal"}),
        why="it replays the client journal onto the MDS's in-memory store",
    ),
    "nonvolatile_apply": Mechanism(
        Consistency.WEAK, complete=mech_nonvolatile_apply,
        needs=frozenset({"append_client_journal"}),
        why="it replays the client journal through the object store",
    ),
    "local_persist": Mechanism(
        Durability.LOCAL, complete=mech_local_persist,
        needs=frozenset({"append_client_journal", "rpcs"}),
        why="it writes recorded updates to the client's disk",
    ),
    "global_persist": Mechanism(
        Durability.GLOBAL, complete=mech_global_persist,
        needs=frozenset({"append_client_journal", "rpcs"}),
        why="it pushes recorded updates into the object store",
    ),
    # The MDS streams journal segments as they fill; completion flushes
    # the open one.
    "stream": Mechanism(
        Durability.GLOBAL, workload=True, complete=mech_stream,
        needs=frozenset({"rpcs", "volatile_apply"}),
        why="it streams the MDS journal, so updates must reach the MDS",
    ),
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
        impl = MECHANISMS[name].complete
    except KeyError:
        raise KeyError(
            f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}"
        ) from None
    tap = ctx.cluster.tap
    section = None
    if tap is not None:
        section = tap.begin("mech", "cudele", name, subtree=ctx.subtree)
    try:
        if impl is not None:
            yield from impl(ctx)
    finally:
        if section is not None:
            tap.end(section)
