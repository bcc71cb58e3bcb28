"""Disk model: seek latency plus serialized bandwidth.

Models the 400 GB SSDs from the paper's CloudLab nodes.  Sequential
journal writes see near-full bandwidth; the per-request ``seek`` term
penalizes small random I/O, which is what makes Nonvolatile Apply's
read-modify-write loop expensive.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Engine, Event
from repro.sim.resources import Slots

__all__ = ["Disk", "NVRam"]


class Disk:
    """A single device with a serialized queue.

    Parameters mirror a modest SATA SSD by default: 500 MB/s bandwidth
    and 100 µs access latency.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_bps: float = 500e6,
        seek_s: float = 100e-6,
        name: str = "disk",
    ):
        if bandwidth_bps <= 0 or seek_s < 0:
            raise ValueError("bandwidth must be > 0 and seek >= 0")
        self.engine = engine
        self.bandwidth_bps = bandwidth_bps
        self.seek_s = seek_s
        self.name = name
        self._queue = Slots(engine, 1, f"{name}.queue")
        # Busy integral for utilization (Fig. 2).  It is advanced when a
        # free slot is taken, on every release and on every read, and
        # at no other instant: each one is a float rounding step.
        self._busy_time = 0.0
        self._last_change = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.requests = 0

    def io_time(self, nbytes: int) -> float:
        """Unloaded service time for one request of ``nbytes``."""
        return self.seek_s + nbytes / self.bandwidth_bps

    def _io(self, nbytes: int, extra_s: float = 0.0) -> Generator[Event, None, None]:
        if nbytes < 0:
            raise ValueError("negative I/O size")
        self.requests += 1
        queue = self._queue
        grant = queue.acquire()
        if grant is None:
            self._account(queue.held - 1)
        else:
            yield grant
        try:
            yield self.engine.sleep(self.io_time(nbytes) + extra_s)
        finally:
            self._account(queue.held)
            queue.release()

    def _account(self, held: int) -> None:
        """Close the busy integral's interval since the last change, in
        which ``held`` slots were busy."""
        now = self.engine._now
        self._busy_time += held * (now - self._last_change)
        self._last_change = now

    def write(self, nbytes: int) -> Generator[Event, None, None]:
        """Process body for a write of ``nbytes``."""
        self.bytes_written += nbytes
        yield from self._io(nbytes)

    def read(self, nbytes: int) -> Generator[Event, None, None]:
        """Process body for a read of ``nbytes``."""
        self.bytes_read += nbytes
        yield from self._io(nbytes)

    def busy_seconds(self) -> float:
        """Cumulative busy integral (for windowed utilization deltas)."""
        self._account(self._queue.held)
        return self._busy_time


class NVRam(Disk):
    """Byte-addressable persistent memory (DurableFS-style NVRAM).

    Same serialized-queue interface as :class:`Disk`, but with the
    latency/ordering profile of persistent memory rather than a block
    device: microsecond access instead of a 100 µs seek, several GB/s of
    bandwidth, and — the ordering difference — an explicit *flush
    barrier* charged per write (the cache-line writeback + fence a PM
    store sequence needs before the data is actually durable).  Reads
    pay only the access latency.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_bps: float = 2e9,
        access_s: float = 2e-6,
        flush_s: float = 5e-6,
        name: str = "nvram",
    ):
        super().__init__(engine, bandwidth_bps=bandwidth_bps,
                         seek_s=access_s, name=name)
        if flush_s < 0:
            raise ValueError("flush barrier cost must be >= 0")
        self.flush_s = flush_s
        self.flushes = 0

    def write(self, nbytes: int) -> Generator[Event, None, None]:
        """Write + persist barrier: the store is durable only after the
        writeback/fence sequence, so every write pays ``flush_s``."""
        self.flushes += 1
        self.bytes_written += nbytes
        yield from self._io(nbytes, extra_s=self.flush_s)
