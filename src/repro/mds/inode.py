"""Inodes, dentries and directory fragments.

CephFS inodes are "about 1400 bytes" (paper Section IV-C) and are
*large*: beyond POSIX attributes they embed policies — striping layout,
load-balancing hints, and (in Cudele) the subtree's consistency and
durability policy.  Here the size is modelled by :data:`INODE_BYTES`
alone; the policy lives in the monitor's versioned subtree map, which
is what the MDS enforces.  Directory entries live in directory
fragments that are serialized together with their inodes into
object-store objects "to improve the performance of scans".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Inode", "DirFragment", "INODE_BYTES", "ROOT_INO", "S_IFDIR", "S_IFREG",
    "typed_mode",
]

#: Approximate in-memory/serialized size of one CephFS inode (paper §IV-C,
#: citing the Ceph Jewel documentation).  Used for cache sizing and for
#: the simulated size of directory objects.
INODE_BYTES = 1400

#: The root directory's inode number (CephFS uses 1 for the root).
ROOT_INO = 1

#: Type bits of a directory's and a regular file's mode.
S_IFDIR = 0o040000
S_IFREG = 0o100000

#: The typed modes this code base itself mints (file and directory
#: defaults): an inode takes the shared object, not one ``int`` each.
#: A literal, never written to.
_MODES = {0o100644: 0o100644, 0o040755: 0o040755}


def typed_mode(mode: int, kind: int) -> int:
    """The stored mode of an inode of type ``kind`` (:data:`S_IFDIR` or
    :data:`S_IFREG`) with the permission bits of ``mode``."""
    mode = (mode & 0o7777) | kind
    if mode in _MODES:
        return _MODES[mode]
    return mode


@dataclass(slots=True)
class Inode:
    """One file or directory."""

    ino: int
    mode: int = 0o644 | S_IFREG
    uid: int = 0
    gid: int = 0
    size: int = 0
    mtime: float = 0.0
    nlink: int = 1

    def __post_init__(self) -> None:
        if self.ino <= 0:
            raise ValueError("inode numbers are positive")

    @property
    def is_dir(self) -> bool:
        return bool(self.mode & S_IFDIR)

    @property
    def is_file(self) -> bool:
        return bool(self.mode & S_IFREG)

    @classmethod
    def directory(
        cls, ino: int, mode: int = 0o755, uid: int = 0, gid: int = 0,
        mtime: float = 0.0,
    ) -> "Inode":
        return cls(ino, typed_mode(mode, S_IFDIR), uid, gid, 0, mtime)

    @classmethod
    def regular(
        cls, ino: int, mode: int = 0o644, uid: int = 0, gid: int = 0,
        mtime: float = 0.0,
    ) -> "Inode":
        return cls(ino, typed_mode(mode, S_IFREG), uid, gid, 0, mtime)


class DirFragment:
    """A directory's dentry map (one fragment per directory here).

    CephFS fragments directories for load balancing; a single fragment
    suffices for the paper's single-MDS evaluation, but the class keeps
    the fragment identity so multi-frag support can be layered on.
    """

    __slots__ = ("dir_ino", "frag_id", "entries", "version")

    # ino, mode, uid, gid, size, mtime, nlink, name length
    _ENTRY_FIXED = struct.Struct("<QIIIQdIH")

    def __init__(self, dir_ino: int, frag_id: int = 0):
        self.dir_ino = dir_ino
        self.frag_id = frag_id
        self.entries: Dict[str, int] = {}
        self.version = 1

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def link(self, name: str, ino: int) -> None:
        """Add a dentry; the caller has already checked for conflicts."""
        if not name or "/" in name:
            raise ValueError(f"invalid dentry name {name!r}")
        if name in self.entries:
            raise FileExistsError(name)
        self.entries[name] = ino
        self.version += 1

    def unlink(self, name: str) -> int:
        """Remove a dentry, returning the inode it pointed to."""
        try:
            ino = self.entries.pop(name)
        except KeyError:
            raise FileNotFoundError(name) from None
        self.version += 1
        return ino

    def lookup(self, name: str) -> Optional[int]:
        return self.entries.get(name)

    def items(self) -> Iterator[Tuple[str, int]]:
        """Dentries in name order (names are unique, so no pair compare)."""
        entries = self.entries
        return ((name, entries[name]) for name in sorted(entries))

    # -- object-store representation ----------------------------------------
    def object_name(self) -> str:
        """Name of the RADOS object housing this fragment (CephFS style)."""
        return f"{self.dir_ino:x}.{self.frag_id:08x}"

    def serialized_bytes(self) -> int:
        """Simulated on-disk size: dentries plus their embedded inodes,
        :data:`INODE_BYTES` each."""
        total = 64  # fragment header
        for name in self.entries:
            total += len(name.encode()) + INODE_BYTES
        return total

    def encode(self, inodes: Dict[int, "Inode"]) -> bytes:
        """Real compact encoding of the fragment: its dentries, each with
        its inode's every field."""
        parts = [struct.pack("<QIH", self.dir_ino, self.frag_id, 0)]
        for name, ino in sorted(self.entries.items()):
            inode = inodes[ino]
            name_b = name.encode("utf-8")
            parts.append(self._ENTRY_FIXED.pack(
                ino, inode.mode, inode.uid, inode.gid, inode.size,
                inode.mtime, inode.nlink, len(name_b),
            ))
            parts.append(name_b)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["DirFragment", Dict[int, "Inode"]]:
        """Inverse of :meth:`encode`; returns the fragment and its inodes."""
        dir_ino, frag_id, _ = struct.unpack_from("<QIH", data, 0)
        frag = cls(dir_ino, frag_id)
        inodes: Dict[int, Inode] = {}
        pos = struct.calcsize("<QIH")
        while pos < len(data):
            ino, mode, uid, gid, size, mtime, nlink, name_len = (
                cls._ENTRY_FIXED.unpack_from(data, pos)
            )
            pos += cls._ENTRY_FIXED.size
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            frag.entries[name] = ino
            inodes[ino] = Inode(ino, mode, uid, gid, size, mtime, nlink)
        return frag, inodes
