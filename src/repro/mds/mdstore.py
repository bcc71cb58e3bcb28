"""The metadata store: the namespace tree and its two homes.

"In CephFS, the metadata store is a data structure that represents the
file system namespace.  This data structure is stored in two places: in
memory ... and as objects in the object store."  (paper Section IV-A)

:class:`MetadataStore` is the in-memory form: inodes plus directory
fragments, with POSIX-shaped mutation methods and strict validation.
Its one replay loop, :meth:`MetadataStore.apply_events`, applies client
journals (Volatile Apply) and the MDS's own journal (recovery) alike,
and it can serialize directory fragments to/from object-store objects
(Nonvolatile Apply, checkpoints).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.journal.events import EventType, JournalEvent
from repro.mds.inode import DirFragment, Inode, ROOT_INO, S_IFREG, typed_mode
from repro.mds.inotable import InoTable
from repro.rados.cluster import ObjectStore
from repro.sim.engine import Event

__all__ = ["MetadataStore", "FsError"]


class FsError(OSError):
    """A POSIX-style failure (carries an errno-like short code)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


#: The attributes :meth:`MetadataStore.setattr` accepts.
_ATTRS = ("mode", "uid", "gid", "mtime", "size")


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
        #: Directory map: head spelling (a path's text up to and
        #: including its last ``/``) -> the directory inode it resolved
        #: to, so each directory is walked from ``/`` once however
        #: requests interleave.  Only directories are entered.  Cleared
        #: by every operation that can unlink or move a directory:
        #: rmdir, rename, export_subtree.
        self._dirs: Dict[str, Inode] = {}

    # -- path resolution -----------------------------------------------------
    def resolve(self, path: str) -> Inode:
        """Walk ``path`` to its inode, raising ENOENT/ENOTDIR."""
        cut = path.rfind("/") + 1
        head, name = path[:cut], path[cut:]
        parent = self._dirs.get(head)
        if parent is not None:
            if not name:
                return parent
            child = self.dirfrags[parent.ino].entries.get(name)
            if child is None:
                raise FsError("ENOENT", path)
            return self.inodes[child]
        ino = parent_ino = ROOT_INO
        for part in _split(path):
            inode = self.inodes[ino]
            if not inode.is_dir:
                raise FsError("ENOTDIR", path)
            child = self.dirfrags[ino].lookup(part)
            if child is None:
                raise FsError("ENOENT", path)
            parent_ino, ino = ino, child
        if name:  # no trailing slash, so `head` spells the last parent
            self._dirs[head] = self.inodes[parent_ino]
        return self.inodes[ino]

    def resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns (inode, name)."""
        cut = path.rfind("/") + 1
        head, name = path[:cut], path[cut:]
        if name:
            parent = self._dirs.get(head)
            if parent is not None:
                return parent, name
        parts = _split(path)
        if not parts:
            raise FsError("EINVAL", "cannot operate on /")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise FsError("ENOTDIR", parent_path)
        if name:  # no trailing slash, so `head` spells the parent
            self._dirs[head] = parent
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
        self, path: str, mode: int = 0o755, ino: Optional[int] = None,
        uid: int = 0, gid: int = 0, mtime: float = 0.0,
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
        inode = Inode.directory(new_ino, mode, uid, gid, mtime)
        self.inodes[new_ino] = inode
        self.dirfrags[new_ino] = DirFragment(new_ino)
        frag.link(name, new_ino)
        return inode

    def create(
        self, path: str, mode: int = 0o644, ino: Optional[int] = None,
        uid: int = 0, gid: int = 0, mtime: float = 0.0,
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
        inode = Inode.regular(new_ino, mode, uid, gid, mtime)
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
        self._dirs.clear()

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
        self._dirs.clear()

    def setattr(self, path: str, **attrs) -> Inode:
        inode = self.resolve(path)
        unknown = set(attrs).difference(_ATTRS)
        if unknown:  # refused before anything changes
            raise FsError("EINVAL", f"unknown attributes {sorted(unknown)}")
        for key in _ATTRS:
            if key in attrs:
                if key == "mode":
                    inode.mode = (inode.mode & ~0o7777) | (attrs[key] & 0o7777)
                else:
                    setattr(inode, key, attrs[key])
        return inode

    def listdir(self, path: str) -> List[str]:
        inode = self.resolve(path)
        if not inode.is_dir:
            raise FsError("ENOTDIR", path)
        return sorted(self.dirfrags[inode.ino].entries)

    # -- journal replay ---------------------------------------------------
    def apply_event(self, event: JournalEvent) -> None:
        """Replay one journal event; a refusal raises :class:`FsError`."""
        # One unpack: a field read by name costs a descriptor call each.
        op, path, ino, mode, uid, gid, mtime, target, _, _ = event
        if op is EventType.CREATE:
            self.create(path, mode, ino if ino else None, uid, gid, mtime)
        elif op is EventType.MKDIR:
            self.mkdir(path, mode, ino if ino else None, uid, gid, mtime)
        elif op is EventType.UNLINK:
            self.unlink(path)
        elif op is EventType.RMDIR:
            self.rmdir(path)
        elif op is EventType.RENAME:
            assert target is not None
            self.rename(path, target)
        elif op is EventType.SETATTR:
            self.setattr(path, mode=mode, uid=uid, gid=gid, mtime=mtime)
        elif op is EventType.NOOP:
            return
        elif (
            op is EventType.IMPORT_COMMIT or op is EventType.EXPORT_PREP
            or op is EventType.EXPORT_COMMIT
        ):
            return  # migration protocol markers; no namespace effect
        else:  # pragma: no cover - EventType is closed
            raise FsError("EINVAL", f"unknown event {op}")
        self.events_applied += 1

    def apply_events(
        self,
        events: Sequence[JournalEvent],
        applied: Optional[List[JournalEvent]] = None,
    ) -> int:
        """Replay a client journal in order (Volatile Apply); returns how
        many events the store refused.

        Each event gets :meth:`apply_event`'s outcome, and a refused
        event (an :class:`FsError`) is skipped.  ``applied``, when
        given, receives every event that applied, in order.  An applied
        event naming a provisioned inode it did not consume (an unlink
        of one, say) marks that inode consumed.  Runs of CREATEs go
        through :meth:`_create_run`.
        """
        create = EventType.CREATE
        inotable = self.inotable
        apply_event = self.apply_event
        refused = 0
        i, n = 0, len(events)
        while i < n:
            ev = events[i]
            if ev[0] is create and ev[2]:
                j = self._create_run(events, i)
                if j > i:
                    if applied is not None:
                        applied += events[i:j]
                    i = j
                    continue
            try:
                apply_event(ev)
            except FsError:
                refused += 1
            else:
                ino = ev[2]
                if (
                    ino
                    and not inotable.is_consumed(ino)
                    and inotable.owner_of(ino) is not None
                ):
                    inotable.mark_consumed(ino)
                if applied is not None:
                    applied.append(ev)
            i += 1
        return refused

    def _create_run(self, events: Sequence[JournalEvent], i: int) -> int:
        """Apply the run of CREATEs from ``events[i]`` on that name their
        inodes, into ``events[i]``'s directory, in one pass; returns the
        index after the run.

        The directory is resolved once; each create is two dict probes
        (name, inode) and an :class:`Inode`; the run's inodes are noted
        as runs of consecutive numbers.  The run ends before the first
        event it cannot take that way (another op or directory, or a
        refusal), which :meth:`apply_event` then judges; so does a
        first event whose directory does not resolve (``i`` returned).
        """
        path = events[i][1]
        cut = path.rfind("/") + 1
        head = path[:cut]
        parent = self._dirs.get(head)
        if parent is None:
            try:
                parent = self.resolve_parent(path)[0]
            except FsError:
                return i
        create = EventType.CREATE
        inodes, inotable = self.inodes, self.inotable
        frag = self.dirfrags[parent.ino]
        entries = frag.entries
        raw = typed = None
        start = end = 0
        j, n = i, len(events)
        while j < n:
            op, path, ino, mode, uid, gid, mtime, _, _, _ = events[j]
            name = path[cut:]
            if (
                op is not create or not ino
                or path[:cut] != head or not name or "/" in name
                or name in entries or ino in inodes
            ):
                break
            if mode != raw:
                raw, typed = mode, typed_mode(mode, S_IFREG)
            inodes[ino] = Inode(ino, typed, uid, gid, 0, mtime)
            entries[name] = ino
            if ino != end:
                if end:
                    inotable.note_external(start, end)
                start = ino
            end = ino + 1
            j += 1
        if j > i:
            inotable.note_external(start, end)
            frag.version += j - i
            self.events_applied += j - i
        return j

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
        self._dirs.clear()
        for _path, inode in rows:
            self.inodes.pop(inode.ino, None)
            if inode.is_dir:
                self.dirfrags.pop(inode.ino, None)
        return rows

    def import_subtree(self, rows: List[Tuple[str, Inode]]) -> int:
        """Install rows detached by :meth:`export_subtree` (parent-first).

        The original :class:`Inode` objects are installed verbatim
        (sizes and ownership survive the move) and every
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
        src: str = "mds", prefix: str = "",
    ) -> Generator[Event, None, None]:
        """Write one directory fragment (and its inodes) as the object
        ``prefix`` + its object name."""
        frag = self.dirfrags[dir_ino]
        data = frag.encode(self.inodes)
        charge = frag.serialized_bytes()
        yield from store.put(pool, prefix + frag.object_name(), data,
                             src=src, charge_bytes=max(1, charge))

    def save_all(
        self, store: ObjectStore, pool: str = "metadata", src: str = "mds",
        prefix: str = "",
    ) -> Generator[Event, None, int]:
        """Persist every directory fragment under ``prefix`` (each rank
        keeps its own: every rank's store has a root of its own);
        returns fragment count."""
        count = 0
        for dir_ino in sorted(self.dirfrags):
            yield from self.save_dirfrag(
                store, dir_ino, pool=pool, src=src, prefix=prefix
            )
            count += 1
        return count

    @classmethod
    def load_all(
        cls, store: ObjectStore, inotable: InoTable, pool: str = "metadata",
        dst: str = "mds", prefix: str = "",
    ) -> Generator[Event, None, "MetadataStore"]:
        """Rebuild a store on ``inotable`` from the directory objects
        :meth:`save_all` wrote under ``prefix`` (the recovery read path).

        A checkpoint restores the tree: every dentry and every field of
        each inode (number, mode, uid, gid, size, mtime, nlink).  Every
        loaded inode is noted in ``inotable``, so the table never mints
        a number the tree holds; the numbers the tree no longer holds
        are kept clear by the cursor the MDS checkpoints beside it.
        """
        md = cls(inotable)
        names = store.list_objects(pool)
        for name in names:
            if not name.startswith(prefix) or "." not in name[len(prefix):]:
                continue
            data = yield store.engine.process(store.get(pool, name, dst=dst))
            try:
                frag, inodes = DirFragment.decode(data)
            except Exception:
                continue  # not a dirfrag object (journals share the pool)
            md.dirfrags[frag.dir_ino] = frag
            for ino, inode in inodes.items():
                md.inodes.setdefault(ino, inode)
                inotable.note_external(ino)
                if inode.is_dir and ino not in md.dirfrags:
                    md.dirfrags[ino] = DirFragment(ino)
        return md

    # -- stats ------------------------------------------------------------------
    @property
    def file_count(self) -> int:
        # simlint: ignore[float-accum] integer count; order cannot reach output
        return sum(1 for i in self.inodes.values() if i.is_file)
