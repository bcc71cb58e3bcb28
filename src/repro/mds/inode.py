"""Inodes, dentries and directory fragments.

CephFS inodes are "about 1400 bytes" (paper Section IV-C) and are
*large*: beyond POSIX attributes they embed policies — striping layout,
load-balancing hints, and (in Cudele) the subtree's consistency and
durability policy.  Here the size is modelled by :data:`INODE_BYTES`
alone; the policy lives in the monitor's versioned subtree map, which
is what the MDS enforces.  Directory entries live in directory
fragments, which CephFS serializes together with their inodes into
object-store objects "to improve the performance of scans"; here a
checkpoint writes them all, each entry with its inode, as one image
object per rank (:meth:`repro.mds.mdstore.MetadataStore.encode_image`).
"""

from __future__ import annotations

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
    """A directory's dentry map (one fragment per directory here)."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: Dict[str, int] = {}

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

    def unlink(self, name: str) -> int:
        """Remove a dentry, returning the inode it pointed to."""
        try:
            return self.entries.pop(name)
        except KeyError:
            raise FileNotFoundError(name) from None

    def lookup(self, name: str) -> Optional[int]:
        return self.entries.get(name)

    def items(self) -> Iterator[Tuple[str, int]]:
        """Dentries in name order (names are unique, so no pair compare)."""
        entries = self.entries
        return ((name, entries[name]) for name in sorted(entries))

    def serialized_bytes(self) -> int:
        """Simulated on-disk size: dentries plus their embedded inodes,
        :data:`INODE_BYTES` each."""
        total = 64  # fragment header
        for name in self.entries:
            total += len(name.encode()) + INODE_BYTES
        return total
