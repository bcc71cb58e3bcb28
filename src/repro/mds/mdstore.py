"""The metadata store: the namespace tree and its two homes.

"In CephFS, the metadata store is a data structure that represents the
file system namespace.  This data structure is stored in two places: in
memory ... and as objects in the object store."  (paper Section IV-A)

:class:`MetadataStore` is the in-memory form: inodes plus directory
fragments, with POSIX-shaped mutation methods and strict validation.
It also implements ``apply_event`` so the journal tool can replay client
journals onto it (Volatile Apply), and it can serialize directory
fragments to/from object-store objects (Nonvolatile Apply, recovery).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.journal.events import EventType, JournalEvent
from repro.mds.inode import DirFragment, Inode, ROOT_INO
from repro.mds.inotable import InoTable
from repro.rados.cluster import ObjectStore
from repro.sim.engine import Event

__all__ = ["MetadataStore", "FsError"]


class FsError(OSError):
    """A POSIX-style failure (carries an errno-like short code)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FsError("EINVAL", f"path must be absolute: {path!r}")
    return [p for p in path.split("/") if p]


class MetadataStore:
    """In-memory namespace tree with journal replay and serialization."""

    def __init__(self, inotable: Optional[InoTable] = None):
        self.inodes: Dict[int, Inode] = {}
        self.dirfrags: Dict[int, DirFragment] = {}
        self.inotable = inotable or InoTable()
        root = Inode.directory(ROOT_INO)
        self.inodes[ROOT_INO] = root
        self.dirfrags[ROOT_INO] = DirFragment(ROOT_INO)
        self.events_applied = 0
        #: Directory cursor: the spelling (up to and including the last
        #: ``/``) and inode of the parent directory :meth:`resolve_parent`
        #: resolved last, so a run of operations on siblings walks from
        #: ``/`` once.  Dropped (None) by every operation that can unlink
        #: or move a directory: rmdir, rename, export_subtree.
        self._cursor: Optional[Tuple[str, Inode]] = None

    # -- path resolution -----------------------------------------------------
    def resolve(self, path: str) -> Inode:
        """Walk ``path`` to its inode, raising ENOENT/ENOTDIR."""
        ino = ROOT_INO
        for name in _split(path):
            inode = self.inodes[ino]
            if not inode.is_dir:
                raise FsError("ENOTDIR", path)
            child = self.dirfrags[ino].lookup(name)
            if child is None:
                raise FsError("ENOENT", path)
            ino = child
        return self.inodes[ino]

    def resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns (inode, name)."""
        cut = path.rfind("/") + 1
        head, name = path[:cut], path[cut:]
        cursor = self._cursor
        if name and cursor is not None and cursor[0] == head:
            return cursor[1], name
        parts = _split(path)
        if not parts:
            raise FsError("EINVAL", "cannot operate on /")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise FsError("ENOTDIR", parent_path)
        if name:  # no trailing slash, so `head` spells the parent
            self._cursor = (head, parent)
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        try:
            parent, name = self.resolve_parent(path)
        except FsError:
            # No parent to look in: "/" itself, or a broken ancestor chain.
            return path.startswith("/") and not path.strip("/")
        return name in self.dirfrags[parent.ino].entries

    def path_of(self, ino: int) -> Optional[str]:
        """Reverse lookup (test/debug helper; O(tree))."""
        if ino == ROOT_INO:
            return "/"
        for dir_ino, frag in self.dirfrags.items():
            for name, child in frag.entries.items():
                if child == ino:
                    parent = self.path_of(dir_ino)
                    if parent is None:
                        return None
                    return (parent.rstrip("/") + "/" + name)
        return None

    # -- mutations ---------------------------------------------------------
    def mkdir(
        self, path: str, mode: int = 0o755, ino: Optional[int] = None, **attrs
    ) -> Inode:
        parent, name = self.resolve_parent(path)
        frag = self.dirfrags[parent.ino]
        if name in frag.entries:
            raise FsError("EEXIST", path)
        new_ino = ino if ino is not None else self.inotable.allocate()
        if new_ino in self.inodes:
            raise FsError("EEXIST", f"inode {new_ino} already in use")
        if ino is not None:
            self.inotable.note_external(new_ino)
        inode = Inode.directory(new_ino, mode=mode, **attrs)
        self.inodes[new_ino] = inode
        self.dirfrags[new_ino] = DirFragment(new_ino)
        frag.link(name, new_ino)
        return inode

    def create(
        self, path: str, mode: int = 0o644, ino: Optional[int] = None, **attrs
    ) -> Inode:
        parent, name = self.resolve_parent(path)
        frag = self.dirfrags[parent.ino]
        if name in frag.entries:
            raise FsError("EEXIST", path)
        new_ino = ino if ino is not None else self.inotable.allocate()
        if new_ino in self.inodes:
            raise FsError("EEXIST", f"inode {new_ino} already in use")
        if ino is not None:
            self.inotable.note_external(new_ino)
        inode = Inode.regular(new_ino, mode=mode, **attrs)
        self.inodes[new_ino] = inode
        frag.link(name, new_ino)
        return inode

    def unlink(self, path: str) -> None:
        parent, name = self.resolve_parent(path)
        frag = self.dirfrags[parent.ino]
        child_ino = frag.lookup(name)
        if child_ino is None:
            raise FsError("ENOENT", path)
        if self.inodes[child_ino].is_dir:
            raise FsError("EISDIR", path)
        frag.unlink(name)
        del self.inodes[child_ino]

    def rmdir(self, path: str) -> None:
        parent, name = self.resolve_parent(path)
        frag = self.dirfrags[parent.ino]
        child_ino = frag.lookup(name)
        if child_ino is None:
            raise FsError("ENOENT", path)
        child = self.inodes[child_ino]
        if not child.is_dir:
            raise FsError("ENOTDIR", path)
        if len(self.dirfrags[child_ino]) > 0:
            raise FsError("ENOTEMPTY", path)
        frag.unlink(name)
        del self.dirfrags[child_ino]
        del self.inodes[child_ino]
        self._cursor = None

    def rename(self, src: str, dst: str) -> None:
        src_parent, src_name = self.resolve_parent(src)
        dst_parent, dst_name = self.resolve_parent(dst)
        src_frag = self.dirfrags[src_parent.ino]
        dst_frag = self.dirfrags[dst_parent.ino]
        moving = src_frag.lookup(src_name)
        if moving is None:
            raise FsError("ENOENT", src)
        if dst_name in dst_frag:
            raise FsError("EEXIST", dst)
        # A directory cannot be moved under itself.
        if self.inodes[moving].is_dir:
            probe = dst_parent.ino
            while probe != ROOT_INO:
                if probe == moving:
                    raise FsError("EINVAL", f"cannot move {src} into itself")
                probe_path = self.path_of(probe)
                assert probe_path is not None
                probe = self.resolve_parent(probe_path)[0].ino
        src_frag.unlink(src_name)
        dst_frag.link(dst_name, moving)
        self._cursor = None

    def setattr(self, path: str, **attrs) -> Inode:
        inode = self.resolve(path)
        for key in ("mode", "uid", "gid", "mtime", "size"):
            if key in attrs:
                if key == "mode":
                    inode.mode = (inode.mode & ~0o7777) | (attrs[key] & 0o7777)
                else:
                    setattr(inode, key, attrs[key])
        unknown = set(attrs) - {"mode", "uid", "gid", "mtime", "size"}
        if unknown:
            raise FsError("EINVAL", f"unknown attributes {sorted(unknown)}")
        return inode

    def listdir(self, path: str) -> List[str]:
        inode = self.resolve(path)
        if not inode.is_dir:
            raise FsError("ENOTDIR", path)
        return [name for name, _ in self.dirfrags[inode.ino].items()]

    def set_policy(self, path: str, policy_blob: Optional[str]) -> Inode:
        """Store a Cudele policy in the subtree root's (large) inode."""
        inode = self.resolve(path)
        inode.policy_blob = policy_blob
        return inode

    # -- journal replay ---------------------------------------------------
    def apply_event(self, event: JournalEvent) -> None:
        """Replay one journal event (the journal tool's applier hook)."""
        ino = event.ino if event.ino else None
        if event.op == EventType.CREATE:
            self.create(event.path, mode=event.mode, ino=ino,
                        uid=event.uid, gid=event.gid, mtime=event.mtime)
        elif event.op == EventType.MKDIR:
            self.mkdir(event.path, mode=event.mode, ino=ino,
                       uid=event.uid, gid=event.gid, mtime=event.mtime)
        elif event.op == EventType.UNLINK:
            self.unlink(event.path)
        elif event.op == EventType.RMDIR:
            self.rmdir(event.path)
        elif event.op == EventType.RENAME:
            assert event.target_path is not None
            self.rename(event.path, event.target_path)
        elif event.op == EventType.SETATTR:
            self.setattr(event.path, mode=event.mode, uid=event.uid,
                         gid=event.gid, mtime=event.mtime)
        elif event.op == EventType.SUBTREE_POLICY:
            self.set_policy(event.path, event.target_path)
        elif event.op == EventType.NOOP:
            return
        elif event.op == EventType.IMPORT_COMMIT:
            # Protocol marker, but it carries the exporter's allocation
            # cursor — restoring it on replay keeps recovery from
            # re-minting numbers the exporter burned before the handoff.
            if event.ino:
                self.inotable.reserve_floor(event.ino)
            return
        elif event.op in (EventType.EXPORT_PREP, EventType.EXPORT_COMMIT):
            return  # migration protocol markers; no namespace effect
        else:  # pragma: no cover - EventType is closed
            raise FsError("EINVAL", f"unknown event {event.op}")
        self.events_applied += 1

    # -- subtree migration --------------------------------------------------
    def export_subtree(self, subtree: str) -> List[Tuple[str, Inode]]:
        """Detach every row under ``subtree`` (inclusive), parent-first.

        Returns ``[(path, inode), ...]`` ordered so that replaying the
        list through :meth:`import_subtree` rebuilds the tree without
        dangling parents.  The subtree root's dentry is unlinked from
        its parent so a snapshot of this store no longer sees the moved
        rows.
        """
        root_inode = self.resolve(subtree)
        if not root_inode.is_dir:
            raise FsError("ENOTDIR", subtree)
        norm = "/" + "/".join(_split(subtree))
        rows: List[Tuple[str, Inode]] = []

        def walk(path: str, ino: int) -> None:
            inode = self.inodes[ino]
            rows.append((path, inode))
            if inode.is_dir:
                for name, child in self.dirfrags[ino].items():
                    walk(path.rstrip("/") + "/" + name, child)

        walk(norm, root_inode.ino)
        parent, name = self.resolve_parent(norm)
        self.dirfrags[parent.ino].unlink(name)
        self._cursor = None
        for _path, inode in rows:
            self.inodes.pop(inode.ino, None)
            if inode.is_dir:
                self.dirfrags.pop(inode.ino, None)
        return rows

    def import_subtree(self, rows: List[Tuple[str, Inode]]) -> int:
        """Install rows detached by :meth:`export_subtree` (parent-first).

        The original :class:`Inode` objects are installed verbatim
        (sizes, ownership and policy blobs survive the move) and every
        inode number is recorded in this store's :class:`InoTable` so
        local allocation can never collide with an imported number.
        Raises EEXIST rather than silently double-installing.
        """
        for path, inode in rows:
            parent, name = self.resolve_parent(path)
            frag = self.dirfrags[parent.ino]
            if name in frag:
                raise FsError("EEXIST", path)
            if inode.ino in self.inodes:
                raise FsError("EEXIST", f"inode {inode.ino} already in use")
            self.inodes[inode.ino] = inode
            if inode.is_dir:
                self.dirfrags.setdefault(inode.ino, DirFragment(inode.ino))
            frag.link(name, inode.ino)
            self.inotable.note_external(inode.ino)
        return len(rows)

    # -- object-store serialization -------------------------------------------
    def save_dirfrag(
        self, store: ObjectStore, dir_ino: int, pool: str = "metadata",
        src: str = "mds",
    ) -> Generator[Event, None, None]:
        """Write one directory fragment (and its inodes) as an object."""
        frag = self.dirfrags[dir_ino]
        data = frag.encode(self.inodes)
        charge = frag.serialized_bytes(self.inodes)
        yield from store.put(pool, frag.object_name(), data, src=src,
                             charge_bytes=max(1, charge))

    def save_all(
        self, store: ObjectStore, pool: str = "metadata", src: str = "mds"
    ) -> Generator[Event, None, int]:
        """Persist every directory fragment; returns fragment count."""
        count = 0
        for dir_ino in sorted(self.dirfrags):
            yield from self.save_dirfrag(store, dir_ino, pool=pool, src=src)
            count += 1
        return count

    @classmethod
    def load_all(
        cls, store: ObjectStore, pool: str = "metadata", dst: str = "mds"
    ) -> Generator[Event, None, "MetadataStore"]:
        """Rebuild a store from directory objects (recovery read path).

        Inode attributes beyond mode are not embedded in the compact
        fragment encoding; recovery restores structure + modes, which is
        all the evaluation workloads observe.
        """
        md = cls()
        names = store.list_objects(pool)
        for name in names:
            if "." not in name:
                continue
            data = yield store.engine.process(store.get(pool, name, dst=dst))
            try:
                frag, inodes = DirFragment.decode(data)
            except Exception:
                continue  # not a dirfrag object (journals share the pool)
            md.dirfrags[frag.dir_ino] = frag
            for ino, inode in inodes.items():
                md.inodes.setdefault(ino, inode)
                if inode.is_dir and ino not in md.dirfrags:
                    md.dirfrags[ino] = DirFragment(ino)
        return md

    # -- stats ------------------------------------------------------------------
    @property
    def file_count(self) -> int:
        # simlint: ignore[float-accum] integer count; order cannot reach output
        return sum(1 for i in self.inodes.values() if i.is_file)

    @property
    def dir_count(self) -> int:
        # simlint: ignore[float-accum] integer count; order cannot reach output
        return sum(1 for i in self.inodes.values() if i.is_dir)

    def memory_bytes(self) -> int:
        """Simulated resident size of the in-memory metadata store."""
        return sum(self.inodes[ino].footprint_bytes for ino in sorted(self.inodes))
