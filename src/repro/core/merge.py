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
    at replay if inconsistent.
    """
    if priority not in ("decoupled", "existing"):
        raise ValueError(f"unknown merge priority {priority!r}")
    out: List[JournalEvent] = []
    # Track paths the journal itself creates so we only consult the
    # store for pre-existing (interferer-written) entries.
    journal_creates = set()
    for ev in events:
        op = ev.op
        if op is EventType.CREATE or op is EventType.MKDIR:
            path = ev.path
            conflict = path not in journal_creates and mdstore.exists(path)
            if conflict:
                existing = mdstore.resolve(path)
                if priority == "existing":
                    continue
                if op is EventType.CREATE and existing.is_file:
                    out.append(
                        JournalEvent(
                            EventType.UNLINK, path, client_id=ev.client_id
                        )
                    )
                elif op is EventType.MKDIR and existing.is_dir:
                    # Directory already exists: keep it, skip the MKDIR.
                    journal_creates.add(path)
                    continue
                else:
                    # Type mismatch: drop the conflicting journal event.
                    continue
            journal_creates.add(path)
        out.append(ev)
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
