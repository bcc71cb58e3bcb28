"""The metadata server daemon.

A single-threaded request loop (the paper evaluates exactly one MDS and
finds its peak at ~3000 ops/s) in front of the in-memory metadata store,
the capability tracker and the segmented journal.  Requests arrive via
:meth:`MetadataServer.submit`; the completion event fires when the op's
reply would reach the wire.

Cost model per request (constants in :mod:`repro.calibration`):

* ``count * rpcs * MDS_SERVICE_S`` CPU — ``rpcs`` is 2 when the client
  lacks the directory capability (extra ``lookup`` per create);
* journaling management CPU that grows with queue depth (Figure 3a);
* commit latency added to the *reply*, without holding the CPU
  (journal acks are pipelined);
* ``REVOKE_CPU_S`` when an access revokes another client's capability;
* ``REJECT_CPU_S`` for -EBUSY rejections under ``interfere=block``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro import calibration as cal
from repro.journal.events import EventType, JournalEvent
from repro.mds.caps import CapTracker
from repro.mds.inode import ROOT_INO
from repro.mds.inotable import InoTable
from repro.mds.journal import MDSJournal
from repro.mds.mdstore import FsError, MetadataStore
from repro.rados.cluster import ObjectStore
from repro.rados.striper import Striper
from repro.sim.engine import Engine, Event, Interrupt
from repro.sim.network import Network, Reply
from repro.sim.resources import Store
from repro.sim.rng import RngStream
from repro.sim.stats import StatsRegistry

__all__ = [
    "MDSConfig", "MDSDownError", "Request", "Response", "MetadataServer",
]


class MDSDownError(ConnectionError):
    """A request reached (or was queued at) a crashed metadata server."""

#: Per-directory-entry CPU cost of an ``ls`` scan — readdir is
#: "notoriously heavy-weight" (§V-B3) and scales with directory size.
LS_ENTRY_S = 2e-6

#: The ops that mutate the namespace, which an ``interfere: block``
#: subtree refuses to every client but its owner.
_MUTATING_OPS = frozenset((
    "create", "mkdir", "unlink", "rmdir", "setattr", "rename",
    "open_write", "close_write",
))

#: The batched name ops: each name's journal record type and the store
#: method that applies it, read by ``_mutate_batch`` from ``request.op``.
_NAME_OPS = {
    "create": (EventType.CREATE, MetadataStore.create),
    "mkdir": (EventType.MKDIR, MetadataStore.mkdir),
    "unlink": (EventType.UNLINK, MetadataStore.unlink),
    "rmdir": (EventType.RMDIR, MetadataStore.rmdir),
}


@dataclass
class MDSConfig:
    """Tunables for one metadata server."""

    journal_enabled: bool = True
    dispatch_size: int = 40
    segment_events: int = 1024
    #: Mutate the real namespace tree.  Large-scale performance runs set
    #: this False: the simulated costs are identical but per-file Python
    #: objects are not allocated (2M files would swamp host memory).
    materialize: bool = True
    service_jitter_cv: float = cal.SERVICE_JITTER_CV
    seed: int = 0
    #: Auto-apply the journal to the object-store metadata store every
    #: N dispatched segments ("the metadata server applies the updates
    #: in the journal to the metadata store when the journal reaches a
    #: certain size", §II-A).  None disables the background applier.
    checkpoint_every_segments: Optional[int] = None
    #: MDS inode-cache capacity in entries.  When the namespace outgrows
    #: it, a fraction of operations must fetch metadata from the object
    #: store (paper §VI: "for random workloads larger than the cache
    #: extra RPCs hurt performance").
    inode_cache_entries: int = cal.INODE_CACHE_DEFAULT
    #: First inode number this rank's table may mint; the table mints
    #: only from its own space, ``INO_SPACE`` numbers up from here.
    #: Multi-rank clusters give each rank a disjoint space so subtree
    #: migration can never collide allocations; None keeps the table
    #: default.
    ino_base: Optional[int] = None


@dataclass(slots=True)
class Request:
    """One client->MDS message (possibly batching ``count`` like ops)."""

    op: str
    path: str
    client_id: int
    names: Optional[List[str]] = None
    count: int = 1
    payload: Any = None
    #: Trace context carried across the client->MDS queue hop (the
    #: simulated RPC header); stamped by :meth:`MetadataServer.submit`
    #: when observability is attached, None otherwise.
    span: Any = None

    def __post_init__(self) -> None:
        if self.names is not None:
            self.count = len(self.names)
        if self.count < 1:
            raise ValueError("request count must be >= 1")


@dataclass(slots=True)
class Response:
    """Reply to one request."""

    ok: bool
    value: Any = None
    error: Optional[str] = None
    rpcs: int = 1
    revoked: bool = False
    #: Set on an ``EREDIRECT`` reply: the MDS rank now authoritative for
    #: the request's path (the subtree migrated away from this rank).
    redirect: Optional[int] = None


class MetadataServer:
    """The simulated CephFS metadata server."""

    def __init__(
        self,
        engine: Engine,
        objstore: ObjectStore,
        network: Network,
        config: Optional[MDSConfig] = None,
        name: str = "mds0",
    ):
        self.engine = engine
        self.objstore = objstore
        self.network = network
        self.config = config or MDSConfig()
        self.name = name
        #: MDS rank number (set by the Cluster for multi-rank
        #: deployments; rank 0 matches the paper's single-MDS testbed).
        self.rank = 0
        #: Resolves a path to the authoritative MDS rank (the monitor's
        #: MDS map; wired by the Cluster only for multi-rank clusters).
        #: None disables authority checks entirely — the single-MDS
        #: request path is untouched.
        self.authority_resolver: Optional[Callable[[str], int]] = None
        #: Subtrees frozen for export: path -> release event.  Requests
        #: under a frozen subtree wait at the dispatch prologue until
        #: the migration window closes.
        self._frozen: Dict[str, Event] = {}
        self.mdstore = self._fresh_store()
        self.caps = CapTracker()
        self.journal = MDSJournal(
            engine,
            Striper(objstore, "metadata", f"{name}.journal"),
            segment_events=self.config.segment_events,
            dispatch_size=self.config.dispatch_size,
            enabled=self.config.journal_enabled,
            src=name,
        )
        self.stats = StatsRegistry(engine, name)
        self._rpcs = self.stats.counter("rpcs")
        self._lookups = self.stats.counter("lookups")
        self._creates = self.stats.counter("creates")
        self.rng = RngStream(self.config.seed, f"{name}/service")
        self._queue: Store = Store(engine, name=f"{name}.queue")
        #: Resolves a path to the governing subtree policy (wired by the
        #: Cudele namespace API); returns None for plain POSIX subtrees.
        self.policy_resolver: Optional[Callable[[str], Any]] = None
        #: Directory numbers for non-materialized runs, interned in
        #: first-seen order; like the paths they name, they survive a
        #: crash.
        self._synthetic_inos: Dict[str, int] = {}
        #: Synthetic per-directory entry counts for non-materialized runs.
        self._synthetic_sizes: Dict[int, int] = {}
        #: Files currently open for writing: path -> (client_id, size_getter).
        #: The getter reads the writer's *buffered* size (its write-
        #: buffering capability); recalls consult it (paper §II-B).
        self._open_writers: Dict[str, tuple] = {}
        self._cpu_util = self.stats.utilization("cpu", capacity=1.0)
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps the request loop unobserved.
        self.tap = None
        self._loop = engine.process(self._serve_loop(), name=f"{name}.loop")
        self.running = True
        self.up = True
        #: Request currently being handled, so a crash can fail its reply.
        self._current: Optional[tuple] = None
        self._last_ckpt_segments = 0
        self._ckpt_in_progress = False

    # ------------------------------------------------------------------
    # client entry point
    # ------------------------------------------------------------------
    def submit(self, request: Request, reply_to: Optional[str] = None) -> Event:
        """Queue a request; returns the event that fires with a Response.

        With ``reply_to`` (a client's network name) the reply crosses
        the wire: the event is a :class:`~repro.sim.network.Reply`, due
        when the reply arrives at ``reply_to``.  Without it the
        submitter runs in process and the event fires when the reply is
        issued.

        Submitting to a crashed MDS fails the event immediately with
        :class:`MDSDownError` (the connection-refused path) — callers
        with a :class:`~repro.client.client.RetryPolicy` back off and
        retry instead of deadlocking.
        """
        if reply_to is None:
            done = Event(self.engine)
        else:
            done = Reply(
                self.network, self.name, reply_to, cal.RPC_MESSAGE_BYTES
            )
        if not self.up:
            done.fail(MDSDownError(f"{self.name} is down"))
            return done
        if self.tap is not None:
            self.tap.mark("submit", self.name, request=request)
        self._queue.put((request, done))
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _fresh_table(self) -> InoTable:
        """An empty inode table minting from this rank's own space."""
        base = self.config.ino_base
        return InoTable() if base is None else InoTable(base)

    def _fresh_store(self) -> MetadataStore:
        return MetadataStore(self._fresh_table())

    @property
    def _image_object(self) -> str:
        """The metadata-pool object holding this rank's checkpoint image
        (the ranks share the pool, and each has a root of its own)."""
        return f"{self.name}_checkpoint"

    # ------------------------------------------------------------------
    # request loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> Generator[Event, None, None]:
        try:
            while True:
                request, done = yield self._queue.get()
                if request is None:  # shutdown sentinel
                    self.running = False
                    if done is not None:
                        done.succeed(None)
                    return
                self._current = (request, done)
                self._cpu_util.set_level(1.0)
                tap = self.tap
                section = None
                if tap is not None:
                    section = tap.begin(
                        "mds.handle", self.name, "rpc",
                        op=request.op, count=request.count,
                        path=request.path, parent=request.span,
                    )
                try:
                    response, commit_latency = yield from self._handle(request)
                except Interrupt:  # crash mid-request; crash() failed done
                    return
                except Exception as exc:  # defensive: never kill the loop
                    response, commit_latency = (
                        Response(ok=False, error=f"EIO: {exc}"),
                        0.0,
                    )
                finally:
                    self._cpu_util.set_level(0.0)
                    if section is not None:
                        tap.end(section)
                self._current = None
                if not self.up:
                    # Crashed while the handler was unwinding: the reply
                    # event was already failed by crash(); the loop dies.
                    return
                self._reply(done, response, commit_latency)
                if self.config.checkpoint_every_segments:
                    self._maybe_auto_checkpoint()
        except Interrupt:  # crash while idle on the queue
            return

    def _reply(self, done: Event, response: Response, latency: float) -> None:
        if done.triggered:  # crashed and already failed by crash()
            return
        # The journal-commit latency is pipelined (it delays the reply,
        # not the CPU): the reply is issued when the commit is done.
        due = self.engine._now + latency
        if done.__class__ is Reply:
            self.network.reply(done, response, due)
        else:
            done._trigger(response, True, due)

    def shutdown(self) -> Event:
        """Stop the serve loop after the queue drains."""
        done = self.engine.event()
        self._queue.put((None, done))
        return done

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self) -> dict:
        """Fail-stop crash: everything in MDS memory is lost.

        That is: the in-memory metadata store, the capability tracker,
        the journal's open segment, and every queued/in-flight request
        (their reply events fail with :class:`MDSDownError`).  Durable
        state — streamed journal segments and the rank's checkpoint
        image in the object store — survives and is what :meth:`recover`
        rebuilds from.  Returns a summary of the losses.
        """
        if not self.up:
            return {"journal_events_lost": 0, "requests_failed": 0}
        self.up = False
        self.stats.counter("crashes").incr()
        lost_open = self.journal.crash()
        failed = 0
        if self._current is not None:
            _, done = self._current
            self._current = None
            if done is not None and not done.triggered:
                done.fail(MDSDownError(f"{self.name} crashed"))
                failed += 1
        # Interrupt before draining: a request the queue already handed
        # to the parked loop, but that the loop has not picked up yet,
        # comes back to the head of the queue and is failed with the rest.
        if self._loop.is_alive:
            self._loop.interrupt("mds-crash")
        while True:
            item = self._queue.try_get()
            if item is None:
                break
            _, done = item
            if done is not None and not done.triggered:
                done.fail(MDSDownError(f"{self.name} crashed"))
                failed += 1
        self.running = False
        # Release any export freeze: the frozen-window state lived in
        # MDS memory, and a crashed source's migration aborts anyway.
        for path in sorted(self._frozen):
            self.unfreeze_subtree(path)
        self.mdstore = self._fresh_store()
        self.caps = CapTracker()
        self._open_writers.clear()
        self._synthetic_sizes.clear()
        self._cpu_util.set_level(0.0)
        self.stats.counter("requests_failed").incr(failed)
        if self.tap is not None:
            self.tap.mark(
                "crash", self.name, journal_events_lost=lost_open,
                requests_failed=failed,
            )
        return {"journal_events_lost": lost_open, "requests_failed": failed}

    def recover(self) -> Generator[Event, None, int]:
        """Crash recovery from durable state only (process body).

        Loads the rank's checkpoint image from the object store (if one
        was written), then replays the streamed journal segments past the
        image's watermark on top — exactly the updates that were
        dispatched before the crash.  Updates that only ever lived in
        memory (the open segment, or Volatile Apply merges that were
        never streamed) do not come back.  This is the one journal
        replay: Volatile Apply's loop, :meth:`MetadataStore.apply_events`,
        which skips what the store refuses.  Restarts the serve loop;
        returns events replayed.
        """
        if self.up:
            raise RuntimeError(f"{self.name} is not crashed")
        # The image holds every event through its own watermark;
        # replaying those again on top of the loaded tree would apply
        # them twice.  An image that cannot be read leaves the whole
        # journal to replay, which is still complete: nothing trims it.
        applied = 0
        if self.config.materialize:
            try:
                if self.objstore.exists("metadata", self._image_object):
                    data = yield from self.objstore.get(
                        "metadata", self._image_object, dst=self.name
                    )
                    self.mdstore, applied = MetadataStore.decode_image(
                        data, self._fresh_table()
                    )
            except (OSError, KeyError, ValueError):  # lost or damaged
                self.mdstore = self._fresh_store()
        # The verifying scan salvages the checksummed-valid prefix.
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "recover.scan", self.name, "recovery", source="mds-journal"
            )
        scan = yield from self.journal.read_scan(dst=self.name)
        events = scan.events
        if section is not None:
            tap.end(section, events=len(events), damage=scan.damage)
        if applied:
            events = [ev for ev in events if ev.seq > applied]
        cpu = len(events) * cal.VOLATILE_APPLY_S
        if cpu > 0:
            yield self.engine.sleep(cpu)
        if self.config.materialize:
            self.mdstore.apply_events(events)
        if tap is not None:
            tap.mark("recover", self.name, mode="journal-replay", events=events)
        self.up = True
        self._queue = Store(self.engine, name=f"{self.name}.queue")
        self._loop = self.engine.process(
            self._serve_loop(), name=f"{self.name}.loop"
        )
        self.running = True
        self.stats.counter("recoveries").incr()
        return len(events)

    def _maybe_auto_checkpoint(self) -> None:
        """Start a background checkpoint once another
        ``checkpoint_every_segments`` segments were dispatched (the serve
        loop calls this only when that is set)."""
        if self._ckpt_in_progress:
            return
        every = self.config.checkpoint_every_segments
        if self.journal.segments_dispatched - self._last_ckpt_segments < every:
            return
        self._ckpt_in_progress = True
        self._last_ckpt_segments = self.journal.segments_dispatched
        self.engine.process(self._auto_checkpoint(), name=f"{self.name}.ckpt")

    def _auto_checkpoint(self) -> Generator[Event, None, None]:
        try:
            yield from self.checkpoint()
        finally:
            self._ckpt_in_progress = False

    def checkpoint(self) -> Generator[Event, None, int]:
        """Apply the journal to the metadata store in the object store.

        "The metadata server applies the updates in the journal to the
        metadata store when the journal reaches a certain size" (§II-A):
        flush the journal, then write the store as this rank's one image
        object, with the last sequence number stamped as its watermark.
        The image is encoded without yielding, so it is the store at
        that one instant; it is charged as the directory fragments it
        holds.  Returns the number of fragments it holds.
        """
        yield from self.journal.flush()
        frags = list(self.mdstore.dirfrags.values())
        data = self.mdstore.encode_image(self.journal.last_seq)
        charge = sum(frag.serialized_bytes() for frag in frags)
        yield from self.objstore.put(
            "metadata", self._image_object, data, src=self.name,
            charge_bytes=charge,
        )
        self.stats.counter("checkpoints").incr()
        return len(frags)

    def restart(self) -> Generator[Event, None, int]:
        """MDS restart (Nonvolatile Apply's second half): a drain (a
        request submitted after it fails with :class:`MDSDownError`), a
        journal flush, :meth:`crash` and :meth:`recover`.  What clients
        hold outlives it, as CephFS's InoTable, session map and client
        reconnect keep it: the inode table with its provisioned ranges,
        the caps, the write-buffering caps, and the counted sizes, which
        a counted journal's placeholders cannot replay."""
        if self.running:
            yield self.shutdown()
        yield from self.journal.flush()
        table, caps = self.mdstore.inotable, self.caps
        writers, sizes = self._open_writers.copy(), self._synthetic_sizes.copy()
        self.crash()
        replayed = yield from self.recover()
        self.mdstore.inotable, self.caps = table, caps
        self._open_writers.update(writers)
        self._synthetic_sizes.update(sizes)
        return replayed

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------
    def _service_time(self, ops: int) -> float:
        """Jittered CPU time for ``ops`` back-to-back operations."""
        if ops <= 0:
            return 0.0
        cv = self.config.service_jitter_cv / (ops ** 0.5)
        return ops * self.rng.lognormal_service(cal.MDS_SERVICE_S, cv)

    def namespace_size(self) -> int:
        """Inodes the namespace holds (materialized or synthetic)."""
        if self.config.materialize:
            return len(self.mdstore.inodes)
        # simlint: ignore[float-accum] integer sizes; order cannot reach output
        return sum(self._synthetic_sizes.values())

    def _cache_miss_time(self, ops: int) -> float:
        """Expected metadata-store fetch time for ``ops`` operations.

        Miss probability is the fraction of the namespace that does not
        fit in the inode cache; each miss reads a dirfrag chunk from the
        object store (expected-value charging keeps runs deterministic).
        """
        size = self.namespace_size()
        cache = self.config.inode_cache_entries
        if size <= cache:
            return 0.0
        miss_p = 1.0 - cache / size
        return ops * miss_p * cal.INODE_MISS_FETCH_S

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _handle(self, request: Request):
        handler = getattr(self, f"_op_{request.op}", None)
        if handler is None:
            cpu = cal.MDS_SERVICE_S
            if cpu > 0:
                yield self.engine.sleep(cpu)
            return Response(ok=False, error=f"EINVAL: unknown op {request.op}"), 0.0
        if self.authority_resolver is not None and request.op != "export_prep":
            # Migration prologue.  First wait out any export freeze
            # covering the path (the frozen window is the handoff's
            # state-transfer phase), then check the monitor's MDS map:
            # if authority moved, answer with a redirect so the client
            # retries against the new rank.
            while True:
                gate = self._frozen_gate(request.path)
                if gate is None:
                    break
                yield gate
            target = self.authority_resolver(request.path)
            if target != self.rank:
                self.stats.counter("redirects").incr(request.count)
                cpu = cal.REDIRECT_CPU_S
                if cpu > 0:
                    yield self.engine.sleep(cpu)
                return (
                    Response(
                        ok=False, error="EREDIRECT", rpcs=1, redirect=target
                    ),
                    0.0,
                )
        if request.op in _MUTATING_OPS and self._interfere_blocked(request):
            self.stats.counter("rejects").incr(request.count)
            cpu = cal.REJECT_CPU_S * request.count
            if cpu > 0:
                yield self.engine.sleep(cpu)
            return Response(ok=False, error="EBUSY", rpcs=1), 0.0
        result = yield from handler(request)
        return result

    def _interfere_blocked(self, request: Request) -> bool:
        """Whether an ``interfere: block`` subtree refuses this mutating
        request (:data:`_MUTATING_OPS`; reads are never judged)."""
        if self.policy_resolver is None:
            return False
        # A rename mutates both ends: its target may lie in a blocked
        # subtree its source does not.
        paths = [request.path]
        if request.op == "rename":
            paths.append(request.payload)
        for path in paths:
            policy = self.policy_resolver(path)
            if policy is None:
                continue
            interfere = getattr(policy, "interfere", "allow")
            owner = getattr(policy, "owner_client", None)
            if (interfere == "block" and owner is not None
                    and owner != request.client_id):
                return True
        return False

    def _dir_ino(self, path: str) -> int:
        if self.config.materialize:
            return self.mdstore.resolve(path).ino
        # Non-materialized runs key capability state by interned path.
        inos = self._synthetic_inos
        ino = inos.get(path)
        if ino is None:
            ino = inos[path] = ROOT_INO + 1 + len(inos)
        return ino

    def ensure_dirs(self, path: str) -> List[JournalEvent]:
        """Create every missing directory on ``path``, ``path`` included
        (administration-side, so no CPU is charged); returns a MKDIR
        record for each one made, for the caller to journal so that a
        crash and a journal replay rebuild them.  The records are not
        marked visible: no client asked for these directories."""
        made: List[JournalEvent] = []
        if not self.config.materialize:
            return made
        cur = ""
        for part in path.split("/"):
            if not part:
                continue
            cur += "/" + part
            try:
                inode = self.mdstore.mkdir(cur)
            except FsError as exc:
                if exc.code != "EEXIST":
                    raise
                continue
            made.append(
                self._record(EventType.MKDIR, cur, 0, inode, visible=False)
            )
        return made

    # -- mutations --------------------------------------------------------
    def _mutate_batch(self, request: Request):
        """Apply one name op (a :data:`_NAME_OPS` row) to every name in
        the request's directory, journaling a record per name applied."""
        op, apply = _NAME_OPS[request.op]
        try:
            dir_ino = self._dir_ino(request.path)
        except FsError as exc:
            cpu = cal.MDS_SERVICE_S
            if cpu > 0:
                yield self.engine.sleep(cpu)
            return Response(ok=False, error=str(exc)), 0.0
        outcome = self.caps.write_access(dir_ino, request.client_id)
        self._rpcs.incr(request.count * outcome.rpcs)
        if outcome.rpcs > 1:
            self._lookups.incr(request.count)
        self._creates.incr(request.count)

        cpu = self._service_time(request.count * outcome.rpcs)
        cpu += request.count * self.journal.management_cpu_s(self.queue_depth)
        cpu += self._cache_miss_time(request.count * (outcome.rpcs - 1))
        if outcome.revoked:
            self.stats.counter("revocations").incr()
            cpu += cal.REVOKE_CPU_S
        if cpu > 0:
            yield self.engine.sleep(cpu)

        created, errors = [], []
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "mds.apply", self.name, "volatile_apply",
                count=request.count,
            )
        events: Optional[List[JournalEvent]] = None
        if self.config.materialize and request.names is not None:
            events = []
            store = self.mdstore
            for name in request.names:
                path = request.path.rstrip("/") + "/" + name
                try:
                    inode = apply(store, path)
                except FsError as exc:
                    errors.append(f"{name}: {exc}")
                    continue
                created.append(name)
                events.append(self._record(op, path, request.client_id, inode))
        else:
            self._synthetic_sizes[dir_ino] = (
                self._synthetic_sizes.get(dir_ino, 0) + request.count
            )
        if section is not None:
            tap.end(section)
        if tap is not None:
            section = tap.begin("mds.journal.append", self.name, "stream")
        try:
            if events is not None:
                yield from self.journal.log_events(events=events)
            else:
                yield from self.journal.log_events(count=request.count)
        finally:
            if section is not None:
                tap.end(section)

        latency = request.count * self.journal.commit_latency_s()
        return (
            Response(
                ok=not errors,
                value=created if request.names is not None else request.count,
                error="; ".join(errors) if errors else None,
                rpcs=outcome.rpcs,
                revoked=outcome.revoked,
            ),
            latency,
        )

    # Aliases, not wrappers: dispatch stays ``getattr(self, f"_op_{op}")``,
    # so a handler patched on the class or the instance still takes effect.
    _op_create = _op_mkdir = _op_unlink = _op_rmdir = _mutate_batch

    def _record(
        self, op: EventType, path: str, client: int, inode=None,
        target: Optional[str] = None, visible: bool = True,
    ) -> JournalEvent:
        """The journal record of ``op`` just applied at ``path``, marked
        visible to observers first when ``visible``.

        A record that names an inode carries that inode's state (ino,
        mode, uid, gid, mtime, size), not the request's, so replay rebuilds
        exactly what the live store holds; one that names none carries
        only the path, target and client."""
        if inode is None:
            event = JournalEvent(
                op, path, target_path=target, client_id=client
            )
        else:
            event = JournalEvent(
                op, path, inode.ino, inode.mode, inode.uid, inode.gid,
                inode.mtime, target, 0, client, inode.size,
            )
        if visible and self.tap is not None:
            self.tap.mark(
                "visible", self.name, op=op, path=path, ino=event.ino,
                client=client, target=target,
            )
        return event

    def _commit(
        self, request: Request, op: EventType, change=None,
        target: Optional[str] = None, visible: bool = True, value: Any = None,
    ):
        """Apply one change at ``request.path`` and journal its
        :meth:`_record` (process body); the reply carries ``value``.
        ``change()`` applies the change to the store and returns the
        inode it touched, if any; nothing is journaled when the store
        refuses it or is not materialized."""
        inode = None
        if change is not None:
            if not self.config.materialize:
                return Response(ok=True, value=value), self.journal.commit_latency_s()
            try:
                inode = change()
            except FsError as exc:
                return Response(ok=False, error=str(exc)), 0.0
        yield from self.journal.log_events(events=[self._record(
            op, request.path, request.client_id, inode, target, visible
        )])
        return Response(ok=True, value=value), self.journal.commit_latency_s()

    def _op_setattr(self, request: Request):
        cpu = self._service_time(1)
        if cpu > 0:
            yield self.engine.sleep(cpu)
        attrs = dict(request.payload or {})
        return (yield from self._commit(
            request, EventType.SETATTR,
            lambda: self.mdstore.setattr(request.path, **attrs),
        ))

    def _op_rename(self, request: Request):
        cpu = self._service_time(2)  # two directories touched
        if cpu > 0:
            yield self.engine.sleep(cpu)
        return (yield from self._commit(
            request, EventType.RENAME,
            lambda: self.mdstore.rename(request.path, request.payload),
            target=request.payload,
        ))

    # -- write-buffering capabilities (open files) -------------------------
    def _op_open_write(self, request: Request):
        """Grant a write-buffering capability on a file.

        ``payload`` is a zero-argument callable returning the writer's
        current buffered size (the simulation's stand-in for the cap
        state held client-side).  On a materialized store, opening a
        missing file creates it: journaled and visible like a one-name
        ``create``, and the reply waits for that record's commit; a
        directory is refused with ``EISDIR``.
        """
        cpu = self._service_time(1)
        if cpu > 0:
            yield self.engine.sleep(cpu)
        latency = 0.0
        if self.config.materialize:
            if not self.mdstore.exists(request.path):
                response, latency = yield from self._commit(
                    request, EventType.CREATE,
                    lambda: self.mdstore.create(request.path),
                )
                if not response.ok:
                    return response, latency
            elif self.mdstore.resolve(request.path).is_dir:
                return Response(ok=False, error=f"EISDIR: {request.path}"), 0.0
        if request.path in self._open_writers:
            holder, _ = self._open_writers[request.path]
            if holder != request.client_id:
                return Response(ok=False, error="EBUSY: file open for write"), 0.0
        self._open_writers[request.path] = (request.client_id, request.payload)
        self.stats.counter("wb_caps_granted").incr()
        return Response(ok=True), latency

    def _op_close_write(self, request: Request):
        """Flush and drop a write-buffering capability.

        ``payload`` carries the final file size.
        """
        cpu = self._service_time(1)
        if cpu > 0:
            yield self.engine.sleep(cpu)
        entry = self._open_writers.pop(request.path, None)
        if entry is None:
            return Response(ok=False, error="EBADF: not open for write"), 0.0
        size = int(request.payload or 0)
        return (yield from self._commit(
            request, EventType.SETATTR,
            lambda: self.mdstore.setattr(request.path, size=size),
            visible=False, value=size,
        ))

    def _recall_writer(self, path: str):
        """Recall the writer's buffering cap (process body): one round
        trip, then the flushed size is visible, and journaled as the
        writer's SETATTR so that a crash and replay keep it.  Returns the
        reply latency."""
        client_id, getter = self._open_writers[path]
        size = int(getter()) if callable(getter) else 0
        self.stats.counter("wb_recalls").incr()
        if self.config.materialize:
            try:
                inode = self.mdstore.setattr(path, size=size)
            except FsError:
                return cal.CAP_RECALL_S
            yield from self.journal.log_events(events=[self._record(
                EventType.SETATTR, path, client_id, inode, visible=False
            )])
        return cal.CAP_RECALL_S

    # -- reads -------------------------------------------------------------
    def _op_lookup(self, request: Request):
        self._rpcs.incr(request.count)
        self._lookups.incr(request.count)
        cpu = (
            self._service_time(request.count)
            + self._cache_miss_time(request.count)
        )
        if cpu > 0:
            yield self.engine.sleep(cpu)
        if not self.config.materialize:
            return Response(ok=True, value=True), 0.0
        exists = self.mdstore.exists(request.path)
        return Response(ok=True, value=exists), 0.0

    def _op_stat(self, request: Request):
        # Batched stats (``count > 1``, e.g. a coalesced trace-replay
        # run) pay per-op service like the lookup path; a recall, when
        # one is needed, happens once per batch — every op in the batch
        # targets the same path.
        self._rpcs.incr(request.count)
        cpu = (
            self._service_time(request.count)
            + self._cache_miss_time(request.count)
        )
        if cpu > 0:
            yield self.engine.sleep(cpu)
        latency = 0.0
        entry = self._open_writers.get(request.path)
        if entry is not None and entry[0] != request.client_id:
            # Someone else has the file open for writing.  Under strong
            # consistency the MDS recalls the write-buffering cap so the
            # reader sees the true size; a read_lazy subtree (Figure 1's
            # HDFS semantics) answers immediately with the committed —
            # possibly stale — metadata.
            policy = self.policy_resolver(request.path) if self.policy_resolver else None
            if policy is not None and getattr(policy, "read_lazy", False):
                self.stats.counter("lazy_reads").incr()
            else:
                latency = yield from self._recall_writer(request.path)
        if not self.config.materialize:
            return Response(ok=True, value=None), latency
        try:
            inode = self.mdstore.resolve(request.path)
        except FsError as exc:
            return Response(ok=False, error=str(exc)), 0.0
        return Response(ok=True, value=inode), latency

    def _op_ls(self, request: Request):
        # ``count > 1`` is a coalesced run of identical listings: each
        # one walks the directory, so the per-entry cost scales with the
        # batch like the service time does.
        self._rpcs.incr(request.count)
        if self.config.materialize:
            try:
                entries = self.mdstore.listdir(request.path)
            except FsError as exc:
                cpu = self._service_time(request.count)
                if cpu > 0:
                    yield self.engine.sleep(cpu)
                return Response(ok=False, error=str(exc)), 0.0
            n = len(entries)
        else:
            n = self._synthetic_sizes.get(self._dir_ino(request.path), 0)
            entries = n
        cpu = self._service_time(request.count) + request.count * n * LS_ENTRY_S
        if cpu > 0:
            yield self.engine.sleep(cpu)
        return Response(ok=True, value=entries), 0.0

    # -- subtree migration ---------------------------------------------------
    def _frozen_gate(self, path: str) -> Optional[Event]:
        """The release event of the frozen subtree covering ``path``."""
        if not self._frozen:
            return None
        for sub in sorted(self._frozen):
            if path == sub or path.startswith(sub.rstrip("/") + "/"):
                return self._frozen[sub]
        return None

    def unfreeze_subtree(self, path: str) -> None:
        """Release the export freeze on ``path`` (commit or abort)."""
        release = self._frozen.pop(path, None)
        if release is not None and not release.triggered:
            release.succeed(None)

    def _op_export_prep(self, request: Request):
        """Migration phase 1 on the source rank: freeze the subtree and
        journal the EXPORT_PREP intent marker.

        Routed through the ordinary request queue on purpose — the serve
        loop is single-threaded, so by the time this handler runs every
        earlier operation has fully committed, and the freeze needs no
        separate quiescence step.  Later requests under the subtree wait
        at the dispatch prologue until the coordinator unfreezes.
        """
        cpu = self._service_time(1)
        if cpu > 0:
            yield self.engine.sleep(cpu)
        path = request.path
        if path in self._frozen:
            return Response(ok=False, error="EBUSY: subtree already frozen"), 0.0
        self._frozen[path] = self.engine.event()
        return (yield from self._commit(
            request, EventType.EXPORT_PREP, visible=False
        ))

    # -- Cudele support ------------------------------------------------------
    def _op_provision(self, request: Request):
        """Reserve ``count`` inodes for a decoupled client."""
        cpu = self._service_time(1)
        if cpu > 0:
            yield self.engine.sleep(cpu)
        rng = self.mdstore.inotable.provision(request.client_id, request.count)
        return Response(ok=True, value=rng), 0.0

    def _op_volatile_apply(self, request: Request):
        """Replay a client journal onto the in-memory metadata store.

        ``payload`` is either a list of JournalEvents or an int count
        (non-materialized bulk merges).  A materialized store resolves
        the journal's conflicts here, at dequeue and before the CPU
        charge (:meth:`MetadataStore.resolve_conflicts`, the decoupled
        namespace wins): the serve loop runs one request at a time, so
        the resolution sees the state the journal lands on.

        Nonvolatile Apply is this handler too: its object-store loop
        prices it, so no CPU is charged, and it journals what applied.
        """
        payload = request.payload
        if isinstance(payload, int):
            events = None
        elif self.config.materialize:
            events = self.mdstore.resolve_conflicts(payload)
        else:
            events = list(payload)
        n = payload if events is None else len(events)
        nonvolatile = request.op == "nonvolatile_apply"
        cpu = 0.0 if nonvolatile else n * cal.VOLATILE_APPLY_S
        if cpu > 0:
            yield self.engine.sleep(cpu)
        tap = self.tap
        if tap is not None:
            tap.mark(
                "merge", self.name, phase="begin", subtree=request.path,
                client=request.client_id, count=n,
            )
        applied = n
        conflicts = 0
        merged = None
        counted = events is None or not self.config.materialize
        if counted:
            # Counted merges still grow the (synthetic) directory so that
            # progress checks (ls) observe partial results.
            try:
                dir_ino = self._dir_ino(request.path)
                self._synthetic_sizes[dir_ino] = (
                    self._synthetic_sizes.get(dir_ino, 0) + n
                )
            except FsError:
                pass
        else:
            merged = [] if tap is not None or nonvolatile else None
            conflicts = self.mdstore.apply_events(events, merged)
            applied = n - conflicts
            if tap is not None:
                name = self.name
                for op, path, ino, _, _, _, _, target, _, client, _ in merged:
                    tap.mark(
                        "visible", name, op=op, path=path, ino=ino,
                        client=client, target=target,
                    )
        if nonvolatile:  # what applied, or the count
            yield from self.journal.log_events(merged, n if counted else 0)
        self.stats.counter("merged_events").incr(n)
        if tap is not None:
            tap.mark(
                "merge", self.name, phase="end", subtree=request.path,
                client=request.client_id, applied=applied,
                conflicts=conflicts,
            )
        return Response(ok=True, value={"applied": applied, "conflicts": conflicts}), 0.0

    _op_nonvolatile_apply = _op_volatile_apply  # reads ``request.op``

    # ------------------------------------------------------------------
    def cpu_utilization(self, t0: float, t1: float) -> float:
        return self._cpu_util.utilization(t0, t1)
