"""The decoupled-namespace client (Append Client Journal).

"Decoupled clients use the Append Client Journal mechanism to append
metadata updates to a local, in-memory journal.  Clients do not need to
check for consistency when writing events" (paper Section III-A).

Appends run at ~11K creates/s.  With ``persist_each`` the client also
writes each serialized record to its local disk (Local Persist at
per-record granularity — the configuration behind Figure 6a's
"decoupled: create" curve at ~2.5K creates/s/client).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Union

from repro import calibration as cal
from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES
from repro.journal.journaler import LocalJournal
from repro.sim.disk import Disk, NVRam
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatsRegistry

__all__ = ["DecoupledClient"]


class DecoupledClient:
    """A client whose subtree operations stay local until merged."""

    def __init__(
        self,
        engine: Engine,
        client_id: int,
        persist_each: bool = False,
        disk: Optional[Disk] = None,
        persist_backend: str = "disk",
    ):
        self.engine = engine
        self.client_id = client_id
        self.name = f"dclient{client_id}"
        self.journal = LocalJournal(engine, client_id=client_id)
        self.persist_each = persist_each
        self.disk = disk or Disk(
            engine,
            bandwidth_bps=cal.DISK_BANDWIDTH_BPS,
            seek_s=cal.DISK_SEEK_S,
            name=f"{self.name}.disk",
        )
        #: The device Local Persist (and persist_each) writes through;
        #: "nvram" swaps in a DurableFS-style persistent-memory profile,
        #: "disk" (the default) aliases the node's SSD.
        self.persist_backend = persist_backend
        if persist_backend == "nvram":
            self.persist_device: Disk = NVRam(
                engine,
                bandwidth_bps=cal.NVRAM_BANDWIDTH_BPS,
                access_s=cal.NVRAM_ACCESS_S,
                flush_s=cal.NVRAM_FLUSH_S,
                name=f"{self.name}.nvram",
            )
        elif persist_backend == "disk":
            self.persist_device = self.disk
        else:
            raise ValueError(
                f"unknown persist backend {persist_backend!r}; "
                "expected 'disk' or 'nvram'"
            )
        self.stats = StatsRegistry(engine, self.name)
        #: Inode range provisioned by the MDS (Allocated Inodes contract).
        self.ino_range = None
        self._next_ino_offset = 0
        #: Counted-only ops (non-materialized performance runs).
        self.counted_ops = 0
        #: What Local Persist has written to this client's disk: a
        #: snapshot of the journal (and counted-op tally) at the last
        #: persist point.  Survives a crash; lost only when the node's
        #: disk dies with it (``crash(lose_disk=True)``).
        self._persisted_events: list = []
        self._persisted_counted = 0
        #: When a persist fault fired, the damaged bytes Local Persist
        #: actually left on disk; None means the last persist was clean
        #: (the common path stays a plain list snapshot — no encoding).
        self._persisted_image: Optional[bytes] = None
        #: One-shot armed corruption for the next local persist:
        #: ``(mode, seed)`` per :mod:`repro.faults.corrupt`.
        self._armed_persist_fault: Optional[tuple] = None
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps the append path unobserved.
        self.tap = None

    # -- inode provisioning -------------------------------------------------
    def assign_inodes(self, ino_range) -> None:
        self.ino_range = ino_range
        self._next_ino_offset = 0

    def _take_inos(self, n: int) -> Sequence[int]:
        """Inode numbers for the next ``n`` creates: fewer than ``n``
        when the provisioned range runs out first."""
        if self.ino_range is None:
            return [0] * n
        first = self.ino_range.start + self._next_ino_offset
        n = min(n, self.ino_range.count - self._next_ino_offset)
        self._next_ino_offset += n
        return range(first, first + n)

    def _range_exhausted(self) -> RuntimeError:
        return RuntimeError(
            f"{self.name} exhausted its provisioned inode range "
            f"({self.ino_range.count} inodes) — the Allocated Inodes "
            "contract was undersized"
        )

    def _next_ino(self) -> int:
        inos = self._take_inos(1)
        if not inos:
            raise self._range_exhausted()
        return inos[0]

    # -- per-op cost -----------------------------------------------------------
    def _op_time(self, n: int) -> float:
        per_op = cal.CLIENT_APPEND_S
        if self.persist_each:
            per_op += cal.LOCAL_PERSIST_RECORD_S
        return n * per_op

    # -- operations (process bodies) ---------------------------------------
    def create_many(
        self,
        dir_path: str,
        names_or_count: Union[int, Sequence[str]],
    ) -> Generator[Event, None, int]:
        """Append creates for many files; returns ops recorded."""
        if isinstance(names_or_count, int):
            n, paths = names_or_count, None
        else:
            # Every path of the batch starts with the directory's: it is
            # validated here, once, not per event.
            base = dir_path.rstrip("/")
            if base[:1] not in ("", "/"):
                raise ValueError(f"event path must be absolute, got {base!r}")
            paths = [f"{base}/{name}" for name in names_or_count]
            n = len(paths)
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "client.append", self.name, "append_client_journal",
                op="create", count=n, paths=paths, client=self.client_id,
            )
        appended = None
        try:
            yield self.engine.sleep(self._op_time(n))
            if paths is None:
                self.counted_ops += n
            else:
                appended = self.journal.extend_creates(
                    paths, self._take_inos(n), self.engine.now
                )
                if len(appended) < n:
                    raise self._range_exhausted()
            if self.persist_each:
                yield from self.persist_device.write(n * WIRE_EVENT_BYTES)
                self.note_local_persist()
            self.stats.counter("ops").incr(n)
        except BaseException:
            if section is not None:
                tap.end(section)
            raise
        if section is not None:
            tap.end(section, ok=True, events=appended)
        return n

    def _append_one(
        self, op: EventType, path: str, new_ino: bool = False, **attrs
    ) -> Generator[Event, None, JournalEvent]:
        """Append one ``op`` record for ``path`` (``attrs`` are further
        :class:`JournalEvent` fields; ``new_ino`` draws the next
        provisioned inode once the append cost is paid)."""
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "client.append_op", self.name, "append_client_journal",
                op=op.name.lower(), count=1, paths=[path],
                client=self.client_id,
            )
        yield self.engine.sleep(self._op_time(1))
        if new_ino:
            attrs["ino"] = self._next_ino()
        ev = self.journal.append(
            JournalEvent(
                op, path, mtime=self.engine.now, client_id=self.client_id,
                **attrs,
            )
        )
        if self.persist_each:
            yield from self.persist_device.write(WIRE_EVENT_BYTES)
            self.note_local_persist()
        self.stats.counter("ops").incr(1)
        if section is not None:
            tap.end(section, ok=True, events=[ev])
        return ev

    def mkdir(self, path: str) -> Generator[Event, None, JournalEvent]:
        return (yield from self._append_one(
            EventType.MKDIR, path, new_ino=True, mode=0o755
        ))

    def unlink(self, path: str) -> Generator[Event, None, JournalEvent]:
        return (yield from self._append_one(EventType.UNLINK, path))

    def rename(self, src: str, dst: str) -> Generator[Event, None, JournalEvent]:
        return (yield from self._append_one(
            EventType.RENAME, src, target_path=dst
        ))

    # -- bookkeeping --------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events buffered locally and not yet merged/persisted."""
        return len(self.journal) + self.counted_ops

    @property
    def persisted_events(self) -> int:
        """Updates currently safe on this client's local disk."""
        return len(self._persisted_events) + self._persisted_counted

    def arm_persist_fault(self, mode: str, seed: int) -> None:
        """Arm the next local persist to land corrupted (one-shot).

        The fault injector calls this; :mod:`repro.faults.corrupt`
        defines what each ``mode`` does to the on-disk bytes.
        """
        self._armed_persist_fault = (mode, seed)

    def note_local_persist(self) -> None:
        """Record that Local Persist just wrote the journal to disk.

        Called by the mechanism (and by ``persist_each`` ops) after the
        simulated disk write lands; from here on a plain crash can no
        longer lose these updates.
        """
        self._persisted_events = list(self.journal.events)
        self._persisted_counted = self.counted_ops
        self._persisted_image = None
        self.stats.counter("local_persists").incr()
        if self.tap is not None:
            self.tap.mark(
                "persisted", self.name, scope="local",
                events=self.journal.events, client=self.client_id,
            )
        if self._armed_persist_fault is not None:
            mode, seed = self._armed_persist_fault
            self._armed_persist_fault = None
            self._apply_persist_fault(mode, seed)

    def _apply_persist_fault(self, mode: str, seed: int) -> None:
        """The armed crash fired mid-persist: what reached the disk is a
        damaged image, and only its checksummed-valid prefix survives."""
        if not self.journal.events:
            return
        from repro.faults.corrupt import corrupt_stream
        from repro.journal.format import JournalCodec

        damaged = corrupt_stream(self.journal.serialize(), mode, seed)
        scan = JournalCodec.scan_stream(damaged)
        self._persisted_image = damaged
        self._persisted_events = list(scan.events)
        self.stats.counter("persist_faults").incr()
        if self.tap is not None:
            self.tap.mark(
                "persist-fault", self.name, scope="local", mode=mode,
                scan=scan, client=self.client_id,
            )

    def crash(self, lose_disk: bool = False) -> int:
        """Simulate a client crash: the in-memory journal is lost.

        Updates Local Persist put on disk survive and can be read back
        with :meth:`recover_local` — unless ``lose_disk`` says the whole
        node (disk included) is gone, the failure that separates 'local'
        from 'global' durability in §III-B.

        Returns the number of updates lost for good if the client never
        recovers its disk — the paper's warning about 'none'/'local'
        durability (§II-A): "if the client fails and stays down then
        computation must be done again".
        """
        lost = self.pending_events
        self.journal.clear()
        self.counted_ops = 0
        if lose_disk:
            self._persisted_events = []
            self._persisted_counted = 0
            self._persisted_image = None
        self.stats.counter("crashes").incr()
        if self.tap is not None:
            self.tap.mark("crash", self.name, lose_disk=lose_disk, lost=lost)
        return lost

    # -- recovery (process bodies) ------------------------------------------
    def _scan_image(self, data: bytes, source: str):
        """Run the verifying recovery scan over a persisted image (the
        only thing recovery may trust)."""
        from repro.journal.format import JournalCodec

        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "recover.scan", self.name, "recovery", source=source
            )
        scan = JournalCodec.scan_stream(data)
        if section is not None:
            tap.end(section, events=len(scan.events), damage=scan.damage)
        return scan

    def _mark_recovered(self, mode: str) -> None:
        """Recovery finished: the journal now holds exactly what the
        recovery source gave back."""
        if self.tap is not None:
            self.tap.mark(
                "recover", self.name, mode=mode,
                events=self.journal.events, client=self.client_id,
            )

    def recover_local(self) -> Generator[Event, None, int]:
        """Re-read the locally persisted journal image from disk.

        The 'local' durability recovery path: "updates survive if the
        client node recovers and reads local storage".  Returns the
        number of updates restored into the in-memory journal.  When the
        last persist was damaged, recovery trusts only what the
        verifying scan salvages from the on-disk image.
        """
        if self._persisted_image is not None:
            scan = self._scan_image(self._persisted_image, source="local-disk")
            self._persisted_events = list(scan.events)
        n = self.persisted_events
        yield from self.persist_device.read(n * WIRE_EVENT_BYTES)
        self.journal.restore(self._persisted_events)
        self.counted_ops = self._persisted_counted
        self.stats.counter("recoveries").incr()
        self._mark_recovered("local")
        return n

    def recover_global(self, striper) -> Generator[Event, None, int]:
        """Restore the journal from its Global Persist copy.

        Reads the striped journal object back from the object store —
        works even after the client node (disk included) and the MDS's
        memory are both gone, which is exactly the 'global' guarantee.
        The read-back bytes go through the verifying scan: a corrupted
        object yields only its checksummed-valid prefix.
        """
        data = yield self.engine.process(striper.read_all(dst=self.name))
        scan = self._scan_image(data, source="object-store")
        recovered = LocalJournal(self.engine, client_id=self.client_id)
        recovered.restore(scan.events)
        self.journal = recovered
        self.stats.counter("recoveries").incr()
        self._mark_recovered("global")
        return len(recovered)
