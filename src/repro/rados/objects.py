"""Objects stored by the simulated RADOS cluster.

Objects carry real ``bytes`` payloads: the journal codec round-trips
through them, so merge/replay paths operate on genuinely serialized
data rather than in-memory references.
"""

from __future__ import annotations

__all__ = ["RadosObject"]


class RadosObject:
    """A named, versioned blob.

    Versions increase on every mutation; replication copies carry the
    version so tests can check replica convergence.
    """

    __slots__ = ("name", "data", "version")

    def __init__(self, name: str, data: bytes = b""):
        if not name:
            raise ValueError("object name must be non-empty")
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("object data must be bytes")
        self.name = name
        self.data = bytes(data)
        self.version = 1

    def __len__(self) -> int:
        return len(self.data)

    def write_full(self, data: bytes) -> None:
        """Replace the object's contents."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("object data must be bytes")
        self.data = bytes(data)
        self.version += 1

    def append(self, data: bytes) -> None:
        """Append to the object (journal tail writes)."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("object data must be bytes")
        self.data += bytes(data)
        self.version += 1

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes from ``offset`` (to the end if None)."""
        if offset < 0:
            raise ValueError("negative read offset")
        if length is None:
            return self.data[offset:]
        if length < 0:
            raise ValueError("negative read length")
        return self.data[offset : offset + length]

    def clone(self) -> "RadosObject":
        obj = RadosObject(self.name, self.data)
        obj.version = self.version
        return obj

    def __repr__(self) -> str:
        return f"RadosObject({self.name!r}, {len(self.data)}B, v{self.version})"
