"""The RPC (strong consistency) client.

Every metadata operation is a synchronous round trip: client CPU +
wire + MDS service.  ``create_many`` batches *simulator events* — the
simulated per-op cost is identical to op-at-a-time submission (the
per-op client overhead constant folds in propagation), which keeps
20-client x 100K-create runs tractable on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Union

from repro import calibration as cal
from repro.mds.server import MDSDownError, MetadataServer, Request, Response
from repro.rados.osd import OSDCrashError, OSDDownError
from repro.sim.engine import AnyOf, Engine, Event, Timeout
from repro.sim.network import Network, PartitionError
from repro.sim.stats import StatsRegistry

__all__ = ["Client", "RetryPolicy", "RpcTimeout", "WriteHandle"]


class RpcTimeout(TimeoutError):
    """The reply did not arrive within the retry policy's timeout."""


#: Failures a retry can plausibly outlast: a crashed/recovering MDS, a
#: severed network pair, or an OSD dying under the MDS mid-journal-write.
TRANSIENT_ERRORS = (
    MDSDownError, PartitionError, RpcTimeout, OSDDownError, OSDCrashError,
)


@dataclass
class RetryPolicy:
    """Timeout/backoff knobs for the failure-aware RPC path.

    Retries are deterministic (no jitter): bounded exponential backoff
    starting at ``base_backoff_s``, doubling by ``multiplier`` up to
    ``max_backoff_s``, at most ``max_retries`` retries.  When
    ``reply_timeout_s`` is set, a reply slower than that counts as a
    failure too (covers a peer that silently stops responding); a reply
    is in time once the MDS has issued it, before the timer fires, even
    if it arrives after.  After
    the budget is exhausted the op completes with an ``ETIMEDOUT``
    error response — workloads degrade instead of deadlocking.
    """

    max_retries: int = 4
    base_backoff_s: float = 0.010
    multiplier: float = 2.0
    max_backoff_s: float = 1.0
    reply_timeout_s: Optional[float] = None


class WriteHandle:
    """A file open for writing with a buffered (client-side) size.

    Data writes buffer under the write-buffering capability — they cost
    nothing at the MDS until the size is flushed by a close or a cap
    recall (paper §II-B).
    """

    __slots__ = ("path", "size", "closed")

    def __init__(self, path: str):
        self.path = path
        self.size = 0
        self.closed = False

    def write(self, nbytes: int) -> None:
        if self.closed:
            raise ValueError(f"{self.path} is closed")
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        self.size += nbytes


class Client:
    """A synchronous POSIX-IO metadata client."""

    def __init__(
        self,
        engine: Engine,
        client_id: int,
        mds: MetadataServer,
        network: Network,
        router=None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.engine = engine
        self.client_id = client_id
        self.mds = mds
        self.network = network
        self.name = f"client{client_id}"
        self.stats = StatsRegistry(engine, self.name)
        self._rpcs_sent = self.stats.counter("rpcs_sent")
        self.retry = retry or RetryPolicy()
        self.up = True
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps the hot path unobserved.
        self.tap = None
        #: Optional per-path MDS routing (multi-MDS subtree partitioning);
        #: ``router(path) -> MetadataServer``.  None pins to ``mds``.
        self.router = router
        # Per-op propagation latency is folded into CLIENT_OP_OVERHEAD_S
        # (see calibration) so that the simulated per-op cost is the same
        # at every request batch size; the RPC links therefore carry only
        # serialization cost.
        self._zero_latency_links(self.mds)

    def _zero_latency_links(self, mds: MetadataServer) -> None:
        self.network.link(self.name, mds.name).latency_s = 0.0
        self.network.link(mds.name, self.name).latency_s = 0.0

    def _target(self, path: str) -> MetadataServer:
        if self.router is None:
            return self.mds
        mds = self.router(path)
        self._zero_latency_links(mds)
        return mds

    # -- fault injection ----------------------------------------------------
    def crash(self) -> None:
        """Client crash.

        The RPC client is synchronous — every acknowledged op already
        reached the MDS — so unlike the decoupled client nothing queued
        is lost.
        """
        self.up = False
        self.stats.counter("crashes").incr()
        if self.tap is not None:
            self.tap.mark("crash", self.name)

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        self.stats.counter("recoveries").incr()
        if self.tap is not None:
            self.tap.mark("recover", self.name, mode="rpc")

    # -- plumbing -----------------------------------------------------------
    def _call(
        self, request: Request, op_count: int = 1
    ) -> Generator[Event, None, Response]:
        """One RPC exchange covering ``op_count`` synchronous operations.

        The client sends the request and waits once more, for the reply
        to arrive: the MDS puts it on the wire itself when its journal
        commit is done (:meth:`~repro.sim.network.Network.reply`).

        Transient failures (dead MDS, network partition, reply timeout)
        are retried with bounded exponential backoff; once the budget is
        spent the call resolves to an error :class:`Response` so the
        workload can carry on degraded.
        """
        if not self.up:
            raise OSError(f"{self.name} is crashed")
        mds = self.mds if self.router is None else self._target(request.path)
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "client.rpc", self.name, "rpc",
                op=request.op, count=op_count, request=request,
            )
        response = None
        try:
            yield self.engine.sleep(op_count * cal.CLIENT_OP_OVERHEAD_S)
            send = self.network.send
            attempt = 0
            backoff = self.retry.base_backoff_s
            while True:
                # One attempt: request wire -> MDS -> reply wire.
                try:
                    yield from send(self.name, mds.name, cal.RPC_MESSAGE_BYTES)
                    reply = mds.submit(request, self.name)
                    timeout_s = self.retry.reply_timeout_s
                    if timeout_s is None:
                        response = yield reply
                    else:
                        timer = Timeout(self.engine, timeout_s)
                        try:
                            idx, response = yield AnyOf(
                                self.engine, [reply, timer]
                            )
                        finally:
                            # Whatever won, the timer must not stay
                            # armed: every later drain would run the
                            # clock on to it.
                            timer.cancel()
                        if idx == 1:
                            if reply.withdraw():
                                raise RpcTimeout(
                                    f"{self.name}: no reply from "
                                    f"{mds.name} within {timeout_s}s"
                                )
                            # Issued before the timer fired: in time.
                            response = yield reply
                    reply.received()
                except TRANSIENT_ERRORS as exc:
                    self.stats.counter("rpc_failures").incr()
                    if attempt >= self.retry.max_retries:
                        self.stats.counter("rpc_giveups").incr()
                        response = Response(
                            ok=False, error=f"ETIMEDOUT: {exc}", rpcs=1
                        )
                        return response
                    attempt += 1
                    self.stats.counter("rpc_retries").incr()
                    yield self.engine.sleep(backoff)
                    backoff = min(
                        backoff * self.retry.multiplier, self.retry.max_backoff_s
                    )
                else:
                    if response.redirect is None:
                        break
                    # Stale rank: the subtree migrated while we were
                    # talking to its old authority.  Re-resolve the
                    # target and retry on the same bounded-backoff
                    # budget as transient failures.
                    self.stats.counter("redirects").incr()
                    if attempt >= self.retry.max_retries:
                        self.stats.counter("rpc_giveups").incr()
                        return response
                    attempt += 1
                    yield self.engine.sleep(backoff)
                    backoff = min(
                        backoff * self.retry.multiplier, self.retry.max_backoff_s
                    )
                    mds = self._target(request.path)
            self._rpcs_sent.incr(op_count * max(1, response.rpcs))
            if response.rpcs > 1:
                # The MDS made us look up remotely before each create; pay the
                # client-side cost of those extra round trips.
                extra = op_count * (response.rpcs - 1)
                yield self.engine.sleep(extra * cal.CLIENT_OP_OVERHEAD_S)
            return response
        except BaseException:
            response = None  # unwound, maybe mid-retry: nothing was acked
            raise
        finally:
            if section is not None:
                if response is None:
                    tap.end(section)
                else:
                    tap.end(section, ok=response.ok, error=response.error)

    # -- operations ------------------------------------------------------------
    def mkdir(self, path: str) -> Generator[Event, None, Response]:
        name = path.rstrip("/").rsplit("/", 1)[-1]
        parent = path.rstrip("/")[: -len(name) - 1] or "/"
        resp = yield from self._call(
            Request("mkdir", parent, self.client_id, names=[name])
        )
        return resp

    def create(self, path: str) -> Generator[Event, None, Response]:
        name = path.rstrip("/").rsplit("/", 1)[-1]
        parent = path.rstrip("/")[: -len(name) - 1] or "/"
        resp = yield from self.create_many(parent, [name])
        return resp

    def create_many(
        self,
        dir_path: str,
        names_or_count: Union[int, Sequence[str]],
        batch: int = 100,
    ) -> Generator[Event, None, Response]:
        """Create many files in ``dir_path``, in batches of ``batch``.

        Every batch is sent; the result is the first failed batch's
        response, or the last response when none failed.

        ``names_or_count`` may be explicit names (materialized runs) or a
        plain count (large performance runs); it must name at least one
        file, else :class:`ValueError` is raised before anything is sent.
        """
        if isinstance(names_or_count, int):
            names, total = None, names_or_count
        else:
            names = list(names_or_count)
            total = len(names)
        if total < 1 or batch < 1:
            raise ValueError(
                "create_many needs at least one file and a positive batch, "
                f"got {total} file(s) in batches of {batch}"
            )
        failed: Optional[Response] = None
        for start in range(0, total, batch):
            if names is None:
                request = Request(
                    "create", dir_path, self.client_id,
                    count=min(batch, total - start),
                )
            else:
                request = Request(
                    "create", dir_path, self.client_id,
                    names=names[start : start + batch],
                )
            resp = yield from self._call(request, op_count=request.count)
            if failed is None and not resp.ok:
                failed = resp
        return resp if failed is None else failed

    def rmdir(self, path: str) -> Generator[Event, None, Response]:
        name = path.rstrip("/").rsplit("/", 1)[-1]
        parent = path.rstrip("/")[: -len(name) - 1] or "/"
        resp = yield from self._call(
            Request("rmdir", parent, self.client_id, names=[name])
        )
        return resp

    def unlink(self, path: str) -> Generator[Event, None, Response]:
        name = path.rstrip("/").rsplit("/", 1)[-1]
        parent = path.rstrip("/")[: -len(name) - 1] or "/"
        resp = yield from self._call(
            Request("unlink", parent, self.client_id, names=[name])
        )
        return resp

    def rename(self, src: str, dst: str) -> Generator[Event, None, Response]:
        resp = yield from self._call(
            Request("rename", src, self.client_id, payload=dst)
        )
        return resp

    def setattr(self, path: str, **attrs) -> Generator[Event, None, Response]:
        resp = yield from self._call(
            Request("setattr", path, self.client_id, payload=attrs)
        )
        return resp

    def open_write(self, path: str) -> Generator[Event, None, WriteHandle]:
        """Open a file for writing (acquires the write-buffering cap)."""
        handle = WriteHandle(path)
        resp = yield from self._call(
            Request("open_write", path, self.client_id,
                    payload=lambda: handle.size)
        )
        if not resp.ok:
            raise OSError(resp.error)
        return handle

    def close_write(self, handle: WriteHandle) -> Generator[Event, None, Response]:
        """Close the handle, flushing the buffered size to the MDS."""
        resp = yield from self._call(
            Request("close_write", handle.path, self.client_id,
                    payload=handle.size)
        )
        handle.closed = True
        return resp

    def stat(self, path: str) -> Generator[Event, None, Response]:
        resp = yield from self._call(Request("stat", path, self.client_id))
        return resp

    def lookup(self, path: str) -> Generator[Event, None, Response]:
        resp = yield from self._call(Request("lookup", path, self.client_id))
        return resp

    def ls(self, path: str) -> Generator[Event, None, Response]:
        resp = yield from self._call(Request("ls", path, self.client_id))
        return resp
