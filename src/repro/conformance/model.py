"""A sequential reference model of the namespace.

A pure-python specification of what create/mkdir/unlink/rmdir/rename/
setattr/stat/readdir *mean*, independent of the simulated MDS: the
conformance checkers replay recorded histories against it and the
stateful tests drive it in lock-step with a live cluster.

Journal merges follow the paper's conflict priority (the decoupled
namespace wins, §III-C), stated in :meth:`ReferenceModel.merge` itself
rather than borrowed from the MDS, so the spec can disagree with the
implementation it judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.journal.events import EventType, JournalEvent

__all__ = ["ModelNode", "ModelError", "ReferenceModel"]


class ModelError(Exception):
    """A rejected operation (carries a POSIX-ish code)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class ModelNode:
    """One namespace entry in the model."""

    ino: int
    is_dir: bool
    mode: int = 0o644

    @property
    def is_file(self) -> bool:
        return not self.is_dir


def _norm(path: str) -> str:
    if not path.startswith("/"):
        raise ModelError("EINVAL", f"path must be absolute: {path!r}")
    return "/" + "/".join(p for p in path.split("/") if p)


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


class ReferenceModel:
    """The namespace spec: a path-indexed tree with POSIX-shaped rules."""

    def __init__(self) -> None:
        self.nodes: Dict[str, ModelNode] = {
            "/": ModelNode(ino=1, is_dir=True, mode=0o755)
        }
        self.used_inos: Set[int] = set()

    def resolve(self, path: str) -> ModelNode:
        node = self.nodes.get(_norm(path))
        if node is None:
            raise ModelError("ENOENT", path)
        return node

    # -- mutations --------------------------------------------------------
    def _check_new(self, path: str, ino: int) -> str:
        path = _norm(path)
        if path == "/":
            raise ModelError("EINVAL", "cannot create /")
        parent = self.nodes.get(_parent(path))
        if parent is None:
            raise ModelError("ENOENT", _parent(path))
        if not parent.is_dir:
            raise ModelError("ENOTDIR", _parent(path))
        if path in self.nodes:
            raise ModelError("EEXIST", path)
        if ino and ino in self.used_inos:
            raise ModelError(
                "EDUPINO", f"inode {ino} already allocated in this namespace"
            )
        return path

    def create(self, path: str, ino: int = 0, mode: int = 0o644) -> ModelNode:
        path = self._check_new(path, ino)
        node = ModelNode(ino=ino, is_dir=False, mode=mode)
        self.nodes[path] = node
        if ino:
            self.used_inos.add(ino)
        return node

    def mkdir(self, path: str, ino: int = 0, mode: int = 0o755) -> ModelNode:
        path = self._check_new(path, ino)
        node = ModelNode(ino=ino, is_dir=True, mode=mode)
        self.nodes[path] = node
        if ino:
            self.used_inos.add(ino)
        return node

    def _children(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        return [
            p for p in self.nodes
            if p.startswith(prefix) and "/" not in p[len(prefix):]
        ]

    def unlink(self, path: str) -> None:
        node = self.resolve(path)
        if node.is_dir:
            raise ModelError("EISDIR", path)
        del self.nodes[_norm(path)]

    def rmdir(self, path: str) -> None:
        path = _norm(path)
        node = self.resolve(path)
        if not node.is_dir:
            raise ModelError("ENOTDIR", path)
        if self._children(path):
            raise ModelError("ENOTEMPTY", path)
        del self.nodes[path]

    def rename(self, src: str, dst: str) -> None:
        src, dst = _norm(src), _norm(dst)
        node = self.resolve(src)
        if dst in self.nodes:
            raise ModelError("EEXIST", dst)
        dst_parent = self.nodes.get(_parent(dst))
        if dst_parent is None:
            raise ModelError("ENOENT", _parent(dst))
        if not dst_parent.is_dir:
            raise ModelError("ENOTDIR", _parent(dst))
        if node.is_dir and (dst + "/").startswith(src + "/"):
            raise ModelError("EINVAL", f"cannot move {src} into itself")
        moved = {src: node}
        if node.is_dir:
            for p in list(self.nodes):
                if p.startswith(src + "/"):
                    moved[p] = self.nodes[p]
        for p, n in moved.items():
            del self.nodes[p]
            self.nodes[dst + p[len(src):]] = n

    def setattr(self, path: str, mode: Optional[int] = None) -> ModelNode:
        node = self.resolve(path)
        if mode is not None:
            node.mode = (node.mode & ~0o7777) | (mode & 0o7777)
        return node

    # -- reads ------------------------------------------------------------
    def stat(self, path: str) -> ModelNode:
        return self.resolve(path)

    def readdir(self, path: str) -> List[str]:
        node = self.resolve(path)
        if not node.is_dir:
            raise ModelError("ENOTDIR", path)
        prefix = _norm(path).rstrip("/") + "/"
        return sorted(p[len(prefix):] for p in self._children(_norm(path)))

    def ensure_dirs(self, path: str) -> None:
        """Create every missing ancestor of ``path`` plus ``path`` itself
        (mirrors ``MetadataServer.ensure_dirs``, which is
        administration-side and free)."""
        cur = ""
        for part in [p for p in _norm(path).split("/") if p]:
            cur += "/" + part
            if cur not in self.nodes:
                self.mkdir(cur)

    # -- replay -----------------------------------------------------------
    def apply(
        self,
        op: str,
        path: str,
        ino: int = 0,
        target: Optional[str] = None,
        mode: Optional[int] = None,
    ) -> Tuple[bool, Optional[str]]:
        """Apply one operation; returns ``(ok, error_code)``.

        The op vocabulary matches recorded histories (and journal event
        types lower-cased).  Illegal operations leave the model
        untouched and report their rejection code.
        """
        try:
            if op == "create":
                self.create(path, ino=ino)
            elif op == "mkdir":
                self.mkdir(path, ino=ino)
            elif op == "unlink":
                self.unlink(path)
            elif op == "rmdir":
                self.rmdir(path)
            elif op == "rename":
                if target is None:
                    raise ModelError("EINVAL", "rename needs a target")
                self.rename(path, target)
            elif op == "setattr":
                self.setattr(path, mode=mode)
            elif op in ("stat", "lookup"):
                self.stat(path)
            elif op in ("ls", "readdir"):
                self.readdir(path)
            else:
                raise ModelError("EINVAL", f"unknown op {op!r}")
        except ModelError as exc:
            return False, exc.code
        return True, None

    def apply_journal_event(self, event: JournalEvent) -> Tuple[bool, Optional[str]]:
        op = EventType(event.op).name.lower()
        if op in ("noop", "subtree_policy"):
            return True, None
        return self.apply(
            op, event.path, ino=event.ino, target=event.target_path
        )

    def merge(self, events: List[JournalEvent]) -> Dict[str, int]:
        """Merge a client journal; the decoupled namespace wins (§III-C).

        A journal CREATE over a model file replaces it (an applied
        unlink, then the create); a CREATE over a directory, or a MKDIR
        over a file, is dropped; a MKDIR over a directory is skipped.  A
        path the journal itself created or removed is never judged
        against the model.  Every other event applies or, when the model
        refuses it, counts as a conflict.  Returns
        ``{"applied": n, "conflicts": m}``.
        """
        applied = conflicts = 0
        own: Set[str] = set()
        for ev in events:
            op, path = EventType(ev.op), _norm(ev.path)
            node = None if path in own else self.nodes.get(path)
            if node is not None and op in (EventType.CREATE, EventType.MKDIR):
                if op is EventType.MKDIR and node.is_dir:
                    own.add(path)  # the directory is already there
                if node.is_dir or op is EventType.MKDIR:
                    continue  # skipped, or dropped on a type mismatch
                del self.nodes[path]  # replaced: an applied unlink
                applied += 1
            if op in (EventType.CREATE, EventType.MKDIR, EventType.UNLINK,
                      EventType.RMDIR):
                own.add(path)
            ok, _ = self.apply_journal_event(ev)
            applied += ok
            conflicts += not ok
        return {"applied": applied, "conflicts": conflicts}

    # -- comparison views -------------------------------------------------
    def paths_under(self, subtree: str) -> List[Tuple[str, str]]:
        """Sorted ``(path, kind)`` entries strictly below ``subtree``."""
        prefix = _norm(subtree).rstrip("/") + "/"
        return sorted(
            (p, "dir" if n.is_dir else "file")
            for p, n in self.nodes.items()
            if p.startswith(prefix)
        )

    def __len__(self) -> int:
        return len(self.nodes)
