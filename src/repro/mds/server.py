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
from repro.journal.tool import JournalTool
from repro.mds.caps import CapTracker
from repro.mds.inode import ROOT_INO
from repro.mds.journal import MDSJournal
from repro.mds.mdstore import FsError, MetadataStore
from repro.rados.cluster import ObjectStore
from repro.rados.striper import Striper
from repro.sim.engine import Engine, Event, Interrupt
from repro.sim.network import Network
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
    #: First inode number this rank's table may mint.  Multi-rank
    #: clusters give each rank a disjoint base so subtree migration can
    #: never collide allocations; None keeps the table default.
    ino_base: Optional[int] = None


@dataclass
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


@dataclass
class Response:
    """Reply to one request."""

    ok: bool
    value: Any = None
    error: Optional[str] = None
    rpcs: int = 1
    revoked: bool = False
    cached: bool = False  # client may serve lookups locally afterwards
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
    def submit(self, request: Request) -> Event:
        """Queue a request; returns the event that fires with a Response.

        Submitting to a crashed MDS fails the event immediately with
        :class:`MDSDownError` (the connection-refused path) — callers
        with a :class:`~repro.client.client.RetryPolicy` back off and
        retry instead of deadlocking.
        """
        done = self.engine.event()
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

    def _fresh_store(self) -> MetadataStore:
        store = MetadataStore()
        if self.config.ino_base is not None:
            store.inotable.reserve_floor(self.config.ino_base)
        return store

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
                self._maybe_auto_checkpoint()
        except Interrupt:  # crash while idle on the queue
            return

    def _reply(self, done: Event, response: Response, latency: float) -> None:
        if done.triggered:  # crashed and already failed by crash()
            return
        # The journal-commit latency is pipelined (it delays the reply,
        # not the CPU), so it is the reply event's own delay.
        done.succeed(response, delay=latency)

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
        state — streamed journal segments and checkpointed directory
        fragments in the object store — survives and is what
        :meth:`recover` rebuilds from.  Returns a summary of the losses.
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

    def _recover_scan(self) -> Generator[Event, None, list]:
        """Read the streamed journal back through the verifying scan
        (process body).  Returns the salvaged events — the
        checksummed-valid prefix of what is in the object store."""
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "recover.scan", self.name, "recovery", source="mds-journal"
            )
        scan = yield self.engine.process(self.journal.read_scan(dst=self.name))
        if section is not None:
            tap.end(section, events=len(scan.events), damage=scan.damage)
        return scan.events

    def recover(self) -> Generator[Event, None, int]:
        """Crash recovery from durable state only (process body).

        Loads checkpointed directory fragments from the object store (if
        any were written), then replays the streamed journal segments on
        top — exactly the updates that were dispatched before the crash.
        Updates that only ever lived in memory (the open segment, or
        Volatile Apply merges that were never streamed) do not come
        back.  Restarts the serve loop; returns events replayed.
        """
        if self.up:
            raise RuntimeError(f"{self.name} is not crashed")
        if self.config.materialize:
            try:
                self.mdstore = yield self.engine.process(
                    MetadataStore.load_all(self.objstore, dst=self.name)
                )
                if self.config.ino_base is not None:
                    self.mdstore.inotable.reserve_floor(self.config.ino_base)
            except Exception:
                self.mdstore = self._fresh_store()
        events = yield from self._recover_scan()
        yield from self._cpu(len(events) * cal.VOLATILE_APPLY_S)
        if self.config.materialize:
            JournalTool.apply(events, self.mdstore, skip_errors=True)
        self.up = True
        self._queue = Store(self.engine, name=f"{self.name}.queue")
        self._loop = self.engine.process(
            self._serve_loop(), name=f"{self.name}.loop"
        )
        self.running = True
        self.stats.counter("recoveries").incr()
        if self.tap is not None:
            self.tap.mark(
                "recover", self.name, mode="journal-replay", events=events
            )
        return len(events)

    def _maybe_auto_checkpoint(self) -> None:
        every = self.config.checkpoint_every_segments
        if not every or self._ckpt_in_progress:
            return
        if self.journal.segments_dispatched - self._last_ckpt_segments < every:
            return
        self._ckpt_in_progress = True
        self._last_ckpt_segments = self.journal.segments_dispatched
        self.engine.process(self._auto_checkpoint(), name=f"{self.name}.ckpt")

    def _auto_checkpoint(self) -> Generator[Event, None, None]:
        try:
            yield self.engine.process(self.checkpoint())
        finally:
            self._ckpt_in_progress = False

    def checkpoint(self) -> Generator[Event, None, int]:
        """Apply the journal to the metadata store in the object store.

        "The metadata server applies the updates in the journal to the
        metadata store when the journal reaches a certain size" (§II-A):
        flush the journal, write every directory fragment as an object,
        and trim the journal up to the applied watermark.  Returns the
        number of fragments persisted.
        """
        yield from self.journal.flush()
        frags = yield self.engine.process(
            self.mdstore.save_all(self.objstore, src=self.name)
        )
        self.journal.trim(self.journal.events_logged)
        self.stats.counter("checkpoints").incr()
        return frags

    def restart(self) -> Generator[Event, None, int]:
        """MDS restart: re-read the journal from the object store and
        replay it onto the in-memory store (Nonvolatile Apply's second
        half; also the recovery path).  Returns events replayed."""
        events = yield from self._recover_scan()
        yield from self._cpu(len(events) * cal.VOLATILE_APPLY_S)
        if self.config.materialize:
            JournalTool.apply(events, self.mdstore, skip_errors=True)
        if self.tap is not None:
            self.tap.mark(
                "recover", self.name, mode="journal-replay", events=events
            )
        self.up = True
        if not self.running:
            self._loop = self.engine.process(
                self._serve_loop(), name=f"{self.name}.loop"
            )
            self.running = True
        return len(events)

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

    def _cpu(self, seconds: float) -> Generator[Event, None, None]:
        if seconds > 0:
            yield self.engine.sleep(seconds)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _handle(self, request: Request):
        handler = getattr(self, f"_op_{request.op}", None)
        if handler is None:
            yield from self._cpu(cal.MDS_SERVICE_S)
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
                yield from self._cpu(cal.REDIRECT_CPU_S)
                return (
                    Response(
                        ok=False, error="EREDIRECT", rpcs=1, redirect=target
                    ),
                    0.0,
                )
        blocked = self._interfere_blocked(request)
        if blocked:
            self.stats.counter("rejects").incr(request.count)
            yield from self._cpu(cal.REJECT_CPU_S * request.count)
            return Response(ok=False, error="EBUSY", rpcs=1), 0.0
        result = yield from handler(request)
        return result

    def _interfere_blocked(self, request: Request) -> bool:
        if self.policy_resolver is None:
            return False
        policy = self.policy_resolver(request.path)
        if policy is None:
            return False
        interfere = getattr(policy, "interfere", "allow")
        owner = getattr(policy, "owner_client", None)
        if interfere == "block" and owner is not None and owner != request.client_id:
            return request.op in (
                "create", "mkdir", "unlink", "rmdir", "setattr", "rename"
            )
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

    def journal_events(
        self, events: List[JournalEvent]
    ) -> Generator[Event, None, None]:
        """Journal real ``events`` (process body), marking them for
        observers first — the recorder's persist accounting mirrors
        every real event that enters the journal."""
        if self.tap is not None and self.journal.enabled:
            self.tap.mark("journaled", self.name, events=events)
        yield from self.journal.log_events(events=events)

    # -- mutations --------------------------------------------------------
    def _op_create(self, request: Request):
        return (yield from self._mutate_batch(request, EventType.CREATE))

    def _op_mkdir(self, request: Request):
        return (yield from self._mutate_batch(request, EventType.MKDIR))

    def _op_unlink(self, request: Request):
        return (yield from self._mutate_batch(request, EventType.UNLINK))

    def _op_rmdir(self, request: Request):
        return (yield from self._mutate_batch(request, EventType.RMDIR))

    def _mutate_batch(self, request: Request, op: EventType):
        try:
            dir_ino = self._dir_ino(request.path)
        except FsError as exc:
            yield from self._cpu(cal.MDS_SERVICE_S)
            return Response(ok=False, error=str(exc)), 0.0
        outcome = self.caps.write_access(dir_ino, request.client_id)
        self.stats.counter("rpcs").incr(request.count * outcome.rpcs)
        if outcome.rpcs > 1:
            self.stats.counter("lookups").incr(request.count)
        self.stats.counter("creates").incr(request.count)

        cpu = self._service_time(request.count * outcome.rpcs)
        cpu += request.count * self.journal.management_cpu_s(self.queue_depth)
        cpu += self._cache_miss_time(request.count * (outcome.rpcs - 1))
        if outcome.revoked:
            self.stats.counter("revocations").incr()
            cpu += cal.REVOKE_CPU_S
        yield from self._cpu(cpu)

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
            for name in request.names:
                path = request.path.rstrip("/") + "/" + name
                try:
                    if op == EventType.CREATE:
                        inode = self.mdstore.create(path)
                    elif op == EventType.MKDIR:
                        inode = self.mdstore.mkdir(path)
                    elif op == EventType.RMDIR:
                        self.mdstore.rmdir(path)
                        inode = None
                    else:
                        self.mdstore.unlink(path)
                        inode = None
                    created.append(name)
                    events.append(
                        JournalEvent(
                            op,
                            path,
                            ino=inode.ino if inode else 0,
                            mtime=self.engine.now,
                            client_id=request.client_id,
                        )
                    )
                    if tap is not None:
                        tap.mark(
                            "visible", self.name, op=op, path=path,
                            ino=inode.ino if inode else 0,
                            client=request.client_id,
                        )
                except FsError as exc:
                    errors.append(f"{name}: {exc}")
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
                if tap is not None and self.journal.enabled:
                    tap.mark("journaled", self.name, events=events)
                yield from self.journal.log_events(events=events)
            else:
                yield from self.journal.log_events(count=request.count)
        finally:
            if section is not None:
                tap.end(section)

        latency = request.count * self.journal.commit_latency_s()
        ok = not errors
        return (
            Response(
                ok=ok,
                value=created if request.names is not None else request.count,
                error="; ".join(errors) if errors else None,
                rpcs=outcome.rpcs,
                revoked=outcome.revoked,
                cached=self.caps.can_cache(dir_ino, request.client_id),
            ),
            latency,
        )

    def _op_setattr(self, request: Request):
        yield from self._cpu(self._service_time(1))
        if not self.config.materialize:
            return Response(ok=True), self.journal.commit_latency_s()
        try:
            attrs = dict(request.payload or {})
            self.mdstore.setattr(request.path, **attrs)
        except FsError as exc:
            return Response(ok=False, error=str(exc)), 0.0
        events = [
            JournalEvent(
                EventType.SETATTR,
                request.path,
                mtime=self.engine.now,
                client_id=request.client_id,
                **{k: v for k, v in (request.payload or {}).items()
                   if k in ("mode", "uid", "gid")},
            )
        ]
        if self.tap is not None:
            self.tap.mark(
                "visible", self.name, op=EventType.SETATTR,
                path=request.path, client=request.client_id,
            )
        yield from self.journal_events(events)
        return Response(ok=True), self.journal.commit_latency_s()

    def _op_rename(self, request: Request):
        yield from self._cpu(self._service_time(2))  # two directories touched
        if not self.config.materialize:
            return Response(ok=True), self.journal.commit_latency_s()
        try:
            self.mdstore.rename(request.path, request.payload)
        except FsError as exc:
            return Response(ok=False, error=str(exc)), 0.0
        events = [
            JournalEvent(
                EventType.RENAME,
                request.path,
                target_path=request.payload,
                mtime=self.engine.now,
                client_id=request.client_id,
            )
        ]
        if self.tap is not None:
            self.tap.mark(
                "visible", self.name, op=EventType.RENAME,
                path=request.path, client=request.client_id,
                target=request.payload,
            )
        yield from self.journal_events(events)
        return Response(ok=True), self.journal.commit_latency_s()

    # -- write-buffering capabilities (open files) -------------------------
    def _op_open_write(self, request: Request):
        """Grant a write-buffering capability on a file.

        ``payload`` is a zero-argument callable returning the writer's
        current buffered size (the simulation's stand-in for the cap
        state held client-side).
        """
        yield from self._cpu(self._service_time(1))
        if self.config.materialize and not self.mdstore.exists(request.path):
            try:
                self.mdstore.create(request.path)
            except FsError as exc:
                return Response(ok=False, error=str(exc)), 0.0
        if request.path in self._open_writers:
            holder, _ = self._open_writers[request.path]
            if holder != request.client_id:
                return Response(ok=False, error="EBUSY: file open for write"), 0.0
        self._open_writers[request.path] = (request.client_id, request.payload)
        self.stats.counter("wb_caps_granted").incr()
        return Response(ok=True, cached=True), 0.0

    def _op_close_write(self, request: Request):
        """Flush and drop a write-buffering capability.

        ``payload`` carries the final file size.
        """
        yield from self._cpu(self._service_time(1))
        entry = self._open_writers.pop(request.path, None)
        if entry is None:
            return Response(ok=False, error="EBADF: not open for write"), 0.0
        size = int(request.payload or 0)
        if self.config.materialize:
            try:
                self.mdstore.setattr(request.path, size=size)
            except FsError as exc:
                return Response(ok=False, error=str(exc)), 0.0
            yield from self.journal_events([
                JournalEvent(
                    EventType.SETATTR, request.path,
                    mtime=self.engine.now, client_id=request.client_id,
                )
            ])
        return Response(ok=True, value=size), self.journal.commit_latency_s()

    def _recall_writer(self, path: str):
        """Recall the writer's buffering cap: one round trip, then the
        flushed size is visible.  Returns (latency, size)."""
        client_id, getter = self._open_writers[path]
        size = int(getter()) if callable(getter) else 0
        if self.config.materialize:
            try:
                self.mdstore.setattr(path, size=size)
            except FsError:
                pass
        self.stats.counter("wb_recalls").incr()
        return cal.CAP_RECALL_S, size

    # -- reads -------------------------------------------------------------
    def _op_lookup(self, request: Request):
        self.stats.counter("rpcs").incr(request.count)
        self.stats.counter("lookups").incr(request.count)
        yield from self._cpu(
            self._service_time(request.count)
            + self._cache_miss_time(request.count)
        )
        if not self.config.materialize:
            return Response(ok=True, value=True), 0.0
        exists = self.mdstore.exists(request.path)
        return Response(ok=True, value=exists), 0.0

    def _op_stat(self, request: Request):
        # Batched stats (``count > 1``, e.g. a coalesced trace-replay
        # run) pay per-op service like the lookup path; a recall, when
        # one is needed, happens once per batch — every op in the batch
        # targets the same path.
        self.stats.counter("rpcs").incr(request.count)
        yield from self._cpu(
            self._service_time(request.count)
            + self._cache_miss_time(request.count)
        )
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
                latency, _ = self._recall_writer(request.path)
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
        self.stats.counter("rpcs").incr(request.count)
        if self.config.materialize:
            try:
                entries = self.mdstore.listdir(request.path)
            except FsError as exc:
                yield from self._cpu(self._service_time(request.count))
                return Response(ok=False, error=str(exc)), 0.0
            n = len(entries)
        else:
            n = self._synthetic_sizes.get(self._dir_ino(request.path), 0)
            entries = n
        yield from self._cpu(
            self._service_time(request.count) + request.count * n * LS_ENTRY_S
        )
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
        yield from self._cpu(self._service_time(1))
        path = request.path
        if path in self._frozen:
            return Response(ok=False, error="EBUSY: subtree already frozen"), 0.0
        self._frozen[path] = self.engine.event()
        yield from self.journal_events([
            JournalEvent(EventType.EXPORT_PREP, path, mtime=self.engine.now)
        ])
        return Response(ok=True), self.journal.commit_latency_s()

    # -- Cudele support ------------------------------------------------------
    def _op_provision(self, request: Request):
        """Reserve ``count`` inodes for a decoupled client."""
        yield from self._cpu(self._service_time(1))
        rng = self.mdstore.inotable.provision(request.client_id, request.count)
        return Response(ok=True, value=rng), 0.0

    def _op_volatile_apply(self, request: Request):
        """Replay a client journal onto the in-memory metadata store.

        ``payload`` is either a list of JournalEvents, encoded journal
        bytes, or an int count (non-materialized bulk merges).
        ``names=None``; conflict handling per the subtree's merge
        priority is the caller's concern (see repro.core.merge).
        """
        payload = request.payload
        if isinstance(payload, int):
            n = payload
            events = None
        elif isinstance(payload, (bytes, bytearray)):
            events = JournalTool.inspect(bytes(payload))
            n = len(events)
        else:
            events = list(payload)
            n = len(events)
        yield from self._cpu(n * cal.VOLATILE_APPLY_S)
        tap = self.tap
        if tap is not None:
            tap.mark(
                "merge", self.name, phase="begin", subtree=request.path,
                client=request.client_id, count=n,
            )
        applied = n
        conflicts = 0
        if events is None or not self.config.materialize:
            # Counted merges still grow the (synthetic) directory so that
            # progress checks (ls) observe partial results.
            try:
                dir_ino = self._dir_ino(request.path)
                self._synthetic_sizes[dir_ino] = (
                    self._synthetic_sizes.get(dir_ino, 0) + n
                )
            except FsError:
                pass
        if events is not None and self.config.materialize:
            applied = 0
            apply_event = self.mdstore.apply_event
            inotable = self.mdstore.inotable
            is_consumed = inotable.is_consumed
            for ev in events:
                try:
                    apply_event(ev)
                    applied += 1
                    # Replaying a CREATE/MKDIR already consumed its
                    # inode, so the range lookup is the rare case.
                    if (
                        ev.ino
                        and not is_consumed(ev.ino)
                        and inotable.owner_of(ev.ino) is not None
                    ):
                        inotable.mark_consumed(ev.ino)
                    if tap is not None:
                        tap.mark(
                            "visible", self.name, op=ev.op, path=ev.path,
                            ino=ev.ino, client=ev.client_id,
                            target=ev.target_path,
                        )
                except FsError:
                    conflicts += 1
        self.stats.counter("merged_events").incr(n)
        if tap is not None:
            tap.mark(
                "merge", self.name, phase="end", subtree=request.path,
                client=request.client_id, applied=applied,
                conflicts=conflicts,
            )
        return Response(ok=True, value={"applied": applied, "conflicts": conflicts}), 0.0

    # ------------------------------------------------------------------
    def cpu_utilization(self, t0: float, t1: float) -> float:
        return self._cpu_util.utilization(t0, t1)
