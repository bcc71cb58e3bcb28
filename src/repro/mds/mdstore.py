"""The metadata store: the namespace tree and its two homes.

"In CephFS, the metadata store is a data structure that represents the
file system namespace.  This data structure is stored in two places: in
memory ... and as objects in the object store."  (paper Section IV-A)

:class:`MetadataStore` is the in-memory form: inodes plus directory
fragments, with POSIX-shaped mutation methods and strict validation.
Its one replay loop, :meth:`MetadataStore.apply_events`, applies client
journals (Volatile Apply) and the MDS's own journal (recovery) alike,
and it encodes the whole tree as one checkpoint image and rebuilds a
store from one (:meth:`MetadataStore.encode_image`, the MDS checkpoint).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.journal.events import EventType, JournalEvent
from repro.journal.format import IMAGE_ROW
from repro.mds.inode import DirFragment, Inode, ROOT_INO, S_IFREG, typed_mode
from repro.mds.inotable import InoTable

__all__ = ["MetadataStore", "FsError"]


class FsError(OSError):
    """A POSIX-style failure (carries an errno-like short code)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


#: A checkpoint image's header: magic, the journal sequence number it
#: holds every event through, the inode table's next free number and the
#: row count; then its rows (:data:`repro.journal.format.IMAGE_ROW`,
#: each followed by its name).
_IMAGE_MAGIC = b"CDLMDSI2"
_IMAGE_HEAD = struct.Struct("<8sQQQ")

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
        self.dirfrags[ROOT_INO] = DirFragment()
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
        uid: int = 0, gid: int = 0, mtime: float = 0.0, size: int = 0,
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
        inode = Inode.directory(new_ino, mode, uid, gid, mtime, size)
        self.inodes[new_ino] = inode
        self.dirfrags[new_ino] = DirFragment()
        frag.link(name, new_ino)
        return inode

    def create(
        self, path: str, mode: int = 0o644, ino: Optional[int] = None,
        uid: int = 0, gid: int = 0, mtime: float = 0.0, size: int = 0,
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
        inode = Inode.regular(new_ino, mode, uid, gid, mtime, size)
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
        op, path, ino, mode, uid, gid, mtime, target, _, _, size = event
        if op is EventType.CREATE:
            self.create(path, mode, ino if ino else None, uid, gid, mtime, size)
        elif op is EventType.MKDIR:
            self.mkdir(path, mode, ino if ino else None, uid, gid, mtime, size)
        elif op is EventType.UNLINK:
            self.unlink(path)
        elif op is EventType.RMDIR:
            self.rmdir(path)
        elif op is EventType.RENAME:
            assert target is not None
            self.rename(path, target)
        elif op is EventType.SETATTR:
            self.setattr(
                path, mode=mode, uid=uid, gid=gid, mtime=mtime, size=size
            )
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

    def resolve_conflicts(
        self, events: Sequence[JournalEvent]
    ) -> List[JournalEvent]:
        """Rewrite a client journal so the decoupled namespace wins over
        this store at merge time (the paper's ``allow`` rule, §III-C).

        A CREATE over a file unlinks the file first; a MKDIR over a
        directory keeps it and is dropped; a CREATE or MKDIR over an
        entry of the other type is dropped.  Other ops are left to
        replay.  A path the journal itself created over an entry or
        removed (UNLINK / RMDIR) is the journal's own doing and is never
        judged against the store again.
        """
        create, mkdir = EventType.CREATE, EventType.MKDIR
        unlink, rmdir = EventType.UNLINK, EventType.RMDIR
        exists, resolve = self.exists, self.resolve
        out: List[JournalEvent] = []
        append = out.append
        # A path the journal created where the store had nothing needs
        # no entry here: the store still has nothing.
        settled = set()
        for ev in events:
            op = ev[0]
            if op is create or op is mkdir:
                path = ev[1]
                if path not in settled and exists(path):
                    existing = resolve(path)
                    if op is create and existing.is_file:
                        append(JournalEvent(unlink, path, client_id=ev[9]))
                    elif not (op is mkdir and existing.is_dir):
                        continue
                    settled.add(path)
                    if op is mkdir:
                        continue
            elif op is unlink or op is rmdir:
                settled.add(ev[1])
            append(ev)
        return out

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
            op, path, ino, mode, uid, gid, mtime, _, _, _, size = events[j]
            name = path[cut:]
            if (
                op is not create or not ino
                or path[:cut] != head or not name or "/" in name
                or name in entries or ino in inodes
            ):
                break
            if mode != raw:
                raw, typed = mode, typed_mode(mode, S_IFREG)
            inodes[ino] = Inode(ino, typed, uid, gid, size, mtime)
            entries[name] = ino
            if ino != end:
                if end:
                    inotable.note_external(start, end)
                start = ino
            end = ino + 1
            j += 1
        if j > i:
            inotable.note_external(start, end)
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
                self.dirfrags.setdefault(inode.ino, DirFragment())
            frag.link(name, inode.ino)
            self.inotable.note_external(inode.ino)
        return len(rows)

    # -- checkpoint image ------------------------------------------------------
    def encode_image(self, through_seq: int) -> bytes:
        """The checkpoint image of this store (one object per rank).

        In order: :data:`_IMAGE_MAGIC`; ``through_seq``, the journal
        sequence number the store holds every event through; the inode
        table's next free number; the row count; then one row per inode
        reachable from ``/``, parent first — the root's (parent 0, no
        name), then one per dentry — with every :class:`Inode` field and
        the name.  Built without yielding, so it is the store at one
        instant.
        """
        rows = []
        stack = [(0, "", ROOT_INO)]
        while stack:
            parent, name, ino = stack.pop()
            inode = self.inodes[ino]
            name_b = name.encode("utf-8")
            rows.append(IMAGE_ROW.pack(
                parent, ino, inode.mode, inode.uid, inode.gid, inode.size,
                inode.mtime, len(name_b),
            ) + name_b)
            if inode.is_dir:
                stack.extend(
                    (ino, child_name, child)
                    for child_name, child in self.dirfrags[ino].items()
                )
        head = _IMAGE_HEAD.pack(
            _IMAGE_MAGIC, through_seq, self.inotable.next_free, len(rows)
        )
        return head + b"".join(rows)

    @classmethod
    def decode_image(
        cls, data: bytes, inotable: InoTable
    ) -> Tuple["MetadataStore", int]:
        """Rebuild a store on ``inotable`` from :meth:`encode_image`'s
        bytes; returns it and the image's journal watermark.

        Every loaded inode is noted in ``inotable`` and its cursor moves
        to the image's next free number, so the table never mints a
        number the checkpointed table had.  Bytes that are not a whole
        image (a wrong magic, too few or too many bytes, a row that does
        not link) raise :class:`ValueError`, :class:`OSError` or
        :class:`KeyError`.
        """
        if len(data) < _IMAGE_HEAD.size:
            raise ValueError("checkpoint image shorter than its header")
        magic, through_seq, next_free, count = _IMAGE_HEAD.unpack_from(data)
        if magic != _IMAGE_MAGIC:
            raise ValueError(f"not a checkpoint image: magic {magic!r}")
        md = cls(inotable)
        inodes, dirfrags = md.inodes, md.dirfrags
        pos, end = _IMAGE_HEAD.size, len(data)
        for _ in range(count):
            if pos + IMAGE_ROW.size > end:
                raise ValueError("checkpoint image truncated")
            parent, ino, mode, uid, gid, size, mtime, name_len = (
                IMAGE_ROW.unpack_from(data, pos)
            )
            pos += IMAGE_ROW.size + name_len
            if pos > end:
                raise ValueError("checkpoint image truncated")
            inode = Inode(ino, mode, uid, gid, size, mtime)
            if parent:
                dirfrags[parent].link(
                    data[pos - name_len : pos].decode("utf-8"), ino
                )
                inotable.note_external(ino)
            inodes[ino] = inode
            if inode.is_dir:
                dirfrags[ino] = DirFragment()
        if pos != end:
            raise ValueError("checkpoint image has trailing bytes")
        inotable.skip_to(next_free)
        return md, through_seq

    # -- stats ------------------------------------------------------------------
    @property
    def file_count(self) -> int:
        # simlint: ignore[float-accum] integer count; order cannot reach output
        return sum(1 for i in self.inodes.values() if i.is_file)
