"""Object storage daemon: a disk plus an object map.

Each OSD owns a simulated :class:`~repro.sim.disk.Disk`.  Writes and
reads charge the disk for the object payload; replication fan-out is
driven by the cluster (primary-copy: the primary charges its disk, then
replicas write in parallel).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.faults.corrupt import corrupt_stream
from repro.sim.disk import Disk
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatsRegistry
from repro.rados.objects import RadosObject

__all__ = ["OSD", "OSDDownError", "OSDCrashError"]


class OSDDownError(ConnectionError):
    """I/O submitted to an OSD that is marked down."""


class OSDCrashError(IOError):
    """The OSD crashed while this I/O was in flight."""


class OSD:
    """One object storage daemon."""

    def __init__(
        self,
        engine: Engine,
        osd_id: int,
        disk_bandwidth_bps: float = 500e6,
        disk_seek_s: float = 100e-6,
    ):
        self.engine = engine
        self.osd_id = osd_id
        self.name = f"osd.{osd_id}"
        self.disk = Disk(
            engine,
            bandwidth_bps=disk_bandwidth_bps,
            seek_s=disk_seek_s,
            name=f"{self.name}.disk",
        )
        self.objects: Dict[str, RadosObject] = {}
        self.stats = StatsRegistry(engine, self.name)
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps I/O unobserved.
        self.tap = None
        self.up = True
        #: Bumped on every crash; an I/O that started under an older
        #: epoch fails even if the OSD recovered while it was in flight.
        self._epoch = 0
        #: One-shot armed write corruption: (mode, seed, match, notify).
        self._write_fault = None

    # -- write-fault arming ----------------------------------------------
    def arm_write_fault(self, mode: str, seed: int, match: str,
                        notify=None) -> None:
        """Arm the next write of an object whose name starts with
        ``match`` to land corrupted (see :mod:`repro.faults.corrupt`).

        The corruption is a pure function of the written bytes, ``mode``
        and ``seed``, so arming every replica's OSD identically keeps
        replicas byte-identical.  ``notify(name, stored)`` fires after
        the damaged bytes are stored; the fault disarms after one hit.
        """
        self._write_fault = (mode, seed, match, notify)

    # -- failure injection ----------------------------------------------
    def crash(self, lose_volatile: bool = False) -> None:
        """Fail-stop crash: the daemon dies, in-flight I/O fails.

        Durable object contents survive (they are on disk) unless
        ``lose_volatile`` is set, which models losing the device along
        with the daemon — the volatile object map AND the backing store
        are gone, as after a node replacement.
        """
        if not self.up:
            return
        self.up = False
        self._epoch += 1
        self.stats.counter("crashes").incr()
        if lose_volatile:
            self.objects.clear()
            self.stats.counter("objects_lost").incr()

    def fail(self) -> None:
        """Mark the OSD down; subsequent I/O raises (alias of crash)."""
        self.crash()

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        self.stats.counter("recoveries").incr()

    def _check_up(self) -> None:
        if not self.up:
            raise OSDDownError(f"{self.name} is down")

    def _check_survived(self, started_epoch: int, op: str, name: str) -> None:
        """In-flight I/O dies with the daemon, even across a recovery."""
        if not self.up or self._epoch != started_epoch:
            self.stats.counter("failed_ios").incr()
            raise OSDCrashError(
                f"{self.name} crashed during {op} of {name!r}"
            )

    # -- object I/O (process bodies) --------------------------------------
    def write_object(
        self,
        name: str,
        data: bytes,
        append: bool = False,
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, RadosObject]:
        """Write (or append to) an object, charging the disk.

        ``charge_bytes`` overrides the simulated I/O size: journal events
        are stored compactly here but cost ~2.5 KB each in real CephFS,
        so journal writers charge the calibrated wire size.
        """
        self._check_up()
        epoch = self._epoch
        self.stats.counter("writes").incr()
        charged = len(data) if charge_bytes is None else charge_bytes
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "osd.write", self.name, "rados",
                obj=name, op="write", nbytes=int(charged),
            )
        try:
            yield from self.disk.write(charged)
            self._check_survived(epoch, "write", name)
        finally:
            if section is not None:
                tap.end(section)
        if self._write_fault is not None and name.startswith(self._write_fault[2]):
            mode, fault_seed, _match, fault_notify = self._write_fault
            self._write_fault = None
            # The disk was charged for the attempted write above; what
            # *lands* below is the damaged image the crash left behind.
            data = corrupt_stream(data, mode, fault_seed)
            self.stats.counter("write_faults").incr()
        else:
            fault_notify = None
        obj = self.objects.get(name)
        if obj is None:
            obj = RadosObject(name)
            self.objects[name] = obj
        if append:
            obj.append(data)
        else:
            obj.write_full(data)
        if self.tap is not None:
            self.tap.mark(
                "object-written", self.name, obj=name,
                action="append" if append else "write_full",
                nbytes=len(data),
            )
        if fault_notify is not None:
            fault_notify(name, data)
        return obj

    def read_object(
        self,
        name: str,
        offset: int = 0,
        length: Optional[int] = None,
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, bytes]:
        """Read an object's bytes, charging the disk."""
        self._check_up()
        epoch = self._epoch
        obj = self.objects.get(name)
        if obj is None:
            raise KeyError(f"{self.name}: no such object {name!r}")
        data = obj.read(offset, length)
        self.stats.counter("reads").incr()
        charged = len(data) if charge_bytes is None else charge_bytes
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "osd.read", self.name, "rados",
                obj=name, op="read", nbytes=int(charged),
            )
        try:
            yield from self.disk.read(charged)
            self._check_survived(epoch, "read", name)
        finally:
            if section is not None:
                tap.end(section)
        return data

    def remove_object(self, name: str) -> None:
        self._check_up()
        self.objects.pop(name, None)
        self.stats.counter("removes").incr()

    def has_object(self, name: str) -> bool:
        return name in self.objects

    @property
    def stored_bytes(self) -> int:
        # simlint: ignore[float-accum] integer byte counts; hot path, order-free
        return sum(len(o) for o in self.objects.values())
