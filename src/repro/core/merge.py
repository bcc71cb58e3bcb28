"""Merge machinery: replaying decoupled journals into the namespace.

Conflict priority implements the paper's ``allow`` semantics: "metadata
from the interfering client will be written and the computation from the
decoupled namespace will take priority at merge time because the results
are more accurate" (§III-C).  Concretely, when a decoupled CREATE
collides with an entry an interfering client produced, the decoupled
event wins: the stale entry is unlinked first.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.journal.events import EventType, JournalEvent
from repro.mds.mdstore import MetadataStore
from repro.mds.server import MetadataServer, Request
from repro.sim.engine import Event

__all__ = ["resolve_conflicts", "merge_journal"]


def resolve_conflicts(
    mdstore: MetadataStore,
    events: List[JournalEvent],
    priority: str = "decoupled",
) -> List[JournalEvent]:
    """Rewrite ``events`` so replay succeeds under the given priority.

    * ``decoupled`` — the journal wins: conflicting existing entries are
      unlinked before the journal's create replays.
    * ``existing`` — the namespace wins: conflicting journal events are
      dropped.

    Only CREATE/MKDIR conflicts need resolution; other ops fail loudly
    at replay if inconsistent.  A CREATE/MKDIR conflicts only with an
    entry the journal found in place: a path the journal itself already
    created or removed (UNLINK/RMDIR) is the journal's own doing.
    ``mdstore`` is read through ``exists`` and ``resolve`` alone.
    """
    if priority not in ("decoupled", "existing"):
        raise ValueError(f"unknown merge priority {priority!r}")
    keep_existing = priority == "existing"
    create, mkdir = EventType.CREATE, EventType.MKDIR
    unlink, rmdir = EventType.UNLINK, EventType.RMDIR
    exists, resolve = mdstore.exists, mdstore.resolve
    out: List[JournalEvent] = []
    append = out.append
    # Paths the journal created over a store entry or removed: their
    # state at replay is the journal's, so they are never judged
    # against the store again.  (A path the journal created where the
    # store had nothing needs no entry: the store still has nothing.)
    settled = set()
    for ev in events:
        op = ev[0]
        if op is create or op is mkdir:
            path = ev[1]
            if path not in settled and exists(path):
                if keep_existing:
                    continue
                existing = resolve(path)
                if op is create and existing.is_file:
                    append(JournalEvent(unlink, path, client_id=ev[9]))
                elif not (op is mkdir and existing.is_dir):
                    # Type mismatch: drop the conflicting journal event.
                    continue
                settled.add(path)
                if op is mkdir:
                    # Directory already exists: keep it, skip the MKDIR.
                    continue
        elif op is unlink or op is rmdir:
            settled.add(ev[1])
        append(ev)
    return out


def merge_journal(
    mds: MetadataServer,
    subtree: str,
    client_id: int,
    events: Optional[List[JournalEvent]] = None,
    count: Optional[int] = None,
    priority: str = "decoupled",
) -> Generator[Event, None, dict]:
    """Merge a client journal at the MDS (process body).

    Resolves conflicts per ``priority``, then submits a Volatile Apply
    request.  Returns the server's ``{applied, conflicts}`` summary.
    """
    if events is not None and mds.config.materialize:
        payload: object = resolve_conflicts(mds.mdstore, events, priority)
    elif events is not None:
        payload = events
    elif count is not None:
        payload = count
    else:
        raise ValueError("merge_journal needs events or a count")
    response = yield mds.submit(
        Request("volatile_apply", subtree, client_id, payload=payload)
    )
    if not response.ok:
        raise RuntimeError(f"merge failed: {response.error}")
    return response.value
