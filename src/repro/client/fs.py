"""A small blocking-style facade over :class:`~repro.client.client.Client`.

Examples and tests often want "make this namespace, check it" without
writing generator plumbing.  ``PosixFileSystem`` drives one client
operation to completion per call by running the engine — convenient for
scripts; simulation scenarios with concurrent actors should use the
client process bodies directly.
"""

from __future__ import annotations

from typing import List

from repro.client.client import Client
from repro.mds.server import Response

__all__ = ["PosixFileSystem"]


class PosixFileSystem:
    """Synchronous wrapper: each call runs the simulation to completion."""

    def __init__(self, client: Client):
        self.client = client
        self.engine = client.engine

    def _run(self, gen) -> Response:
        return self.engine._drive(gen)

    def _check(self, resp: Response) -> Response:
        if not resp.ok:
            raise OSError(resp.error)
        return resp

    # -- operations -----------------------------------------------------
    def mkdir(self, path: str) -> None:
        self._check(self._run(self.client.mkdir(path)))

    def makedirs(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        cur = ""
        for part in parts:
            cur += "/" + part
            resp = self._run(self.client.mkdir(cur))
            if not resp.ok and "EEXIST" not in (resp.error or ""):
                raise OSError(resp.error)

    def create(self, path: str) -> None:
        self._check(self._run(self.client.create(path)))

    def create_many(self, dir_path: str, names: List[str], batch: int = 100) -> None:
        self._check(self._run(self.client.create_many(dir_path, names, batch=batch)))

    def unlink(self, path: str) -> None:
        self._check(self._run(self.client.unlink(path)))

    def rmdir(self, path: str) -> None:
        self._check(self._run(self.client.rmdir(path)))

    def rename(self, src: str, dst: str) -> None:
        self._check(self._run(self.client.rename(src, dst)))

    def setattr(self, path: str, **attrs) -> None:
        self._check(self._run(self.client.setattr(path, **attrs)))

    def stat(self, path: str):
        return self._check(self._run(self.client.stat(path))).value

    def exists(self, path: str) -> bool:
        resp = self._run(self.client.stat(path))
        return resp.ok

    def ls(self, path: str) -> List[str]:
        return self._check(self._run(self.client.ls(path))).value
