"""Striping a logical byte stream over fixed-size objects.

CephFS's metadata journal is "striped over objects where multiple
journal updates can reside on the same object".  The striper maps a
logical byte range onto ``<prefix>.<n>`` objects of ``object_size``
bytes, writing stripes **in parallel** — that parallelism is how Global
Persist harvests the aggregate bandwidth of the OSD cluster.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.sim.engine import Engine, Event
from repro.sim.resources import Slots
from repro.rados.cluster import ObjectStore

__all__ = ["Striper"]


class Striper:
    """Reads/writes a logical stream as striped objects in one pool."""

    def __init__(
        self,
        store: ObjectStore,
        pool: str,
        prefix: str,
        object_size: int = 4 * 1024 * 1024,
    ):
        if object_size < 1:
            raise ValueError("object size must be >= 1 byte")
        self.store = store
        self.engine: Engine = store.engine
        self.pool = pool
        self.prefix = prefix
        self.object_size = object_size
        # Concurrent writes touching the same stripe object are
        # read-modify-write; serialize them per object (RADOS likewise
        # orders ops per object).
        self._object_locks: dict[str, Slots] = {}

    def object_name(self, index: int) -> str:
        return f"{self.prefix}.{index:08x}"

    def layout(self, offset: int, length: int) -> List[Tuple[int, int, int]]:
        """Split ``[offset, offset+length)`` into ``(obj_index, obj_off, len)``."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        pieces: List[Tuple[int, int, int]] = []
        pos = offset
        end = offset + length
        while pos < end:
            idx = pos // self.object_size
            obj_off = pos % self.object_size
            take = min(self.object_size - obj_off, end - pos)
            pieces.append((idx, obj_off, take))
            pos += take
        return pieces

    def write(
        self,
        offset: int,
        data: bytes,
        src: str = "client",
        charge_factor: float = 1.0,
    ) -> Generator[Event, None, None]:
        """Write ``data`` at logical ``offset``, stripes in parallel.

        ``charge_factor`` scales the simulated I/O cost relative to the
        stored byte count (journal events are stored compactly but cost
        their real ~2.5 KB wire size; the journaler passes the ratio).
        """
        pieces = self.layout(offset, len(data))
        writers = []
        consumed = 0
        for idx, obj_off, length in pieces:
            chunk = data[consumed : consumed + length]
            consumed += length
            name = self.object_name(idx)
            writers.append((
                self._write_piece(name, obj_off, chunk, src, charge_factor),
                f"stripe:{name}",
            ))
        yield from self.engine.gather(writers)

    def _write_piece(
        self, name: str, obj_off: int, chunk: bytes, src: str, charge_factor: float
    ) -> Generator[Event, None, None]:
        lock = self._object_locks.get(name)
        if lock is None:
            lock = Slots(self.engine, 1, f"stripe-lock:{name}")
            self._object_locks[name] = lock
        grant = lock.acquire()
        if grant is not None:
            yield grant
        try:
            existing = b""
            if self.store.exists(self.pool, name):
                existing = self.store.peek(self.pool, name)
            if len(existing) < obj_off:
                existing = existing + b"\x00" * (obj_off - len(existing))
            new_data = existing[:obj_off] + chunk + existing[obj_off + len(chunk) :]
            yield from self.store.put(
                self.pool,
                name,
                new_data,
                src=src,
                charge_bytes=max(1, int(len(chunk) * charge_factor)),
            )
        finally:
            lock.release()

    def append(
        self, data: bytes, src: str = "client", charge_factor: float = 1.0
    ) -> Generator[Event, None, int]:
        """Append at the current logical end; returns the new end offset."""
        end = self.size()
        yield from self.write(end, data, src=src, charge_factor=charge_factor)
        return end + len(data)

    def read(
        self, offset: int, length: int, dst: str = "client"
    ) -> Generator[Event, None, bytes]:
        """Read a logical byte range (sequential over stripes).

        Missing stripe objects (holes from sparse writes) read as zeros;
        the range is truncated at the logical size.
        """
        end = min(offset + length, self.size())
        out = bytearray()
        for idx, obj_off, take in self.layout(offset, max(0, end - offset)):
            name = self.object_name(idx)
            if self.store.exists(self.pool, name):
                chunk = yield from self.store.get(
                    self.pool, name, dst=dst, offset=obj_off, length=take
                )
            else:
                chunk = b""
            if len(chunk) < take:
                chunk = chunk + b"\x00" * (take - len(chunk))
            out.extend(chunk)
        return bytes(out)

    def read_all(self, dst: str = "client") -> Generator[Event, None, bytes]:
        size = self.size()
        return (yield from self.read(0, size, dst=dst))

    def _existing_indices(self) -> List[int]:
        pref = self.prefix + "."
        indices = []
        for name in self.store.list_objects(self.pool):
            if name.startswith(pref):
                try:
                    indices.append(int(name[len(pref):], 16))
                except ValueError:
                    continue
        return sorted(indices)

    def size(self) -> int:
        """Current logical size (zero-cost metadata scan).

        Holes below the highest existing stripe count as zero-filled.
        """
        indices = self._existing_indices()
        if not indices:
            return 0
        last = indices[-1]
        return last * self.object_size + self.store.stat(
            self.pool, self.object_name(last)
        )

    def object_count(self) -> int:
        """Number of stripe objects that exist (holes excluded)."""
        return len(self._existing_indices())
