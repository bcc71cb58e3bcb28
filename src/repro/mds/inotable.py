"""Inode number allocation and client pre-allocation.

CephFS's inode cache "has code for manipulating inode numbers, such as
pre-allocating inodes to clients" (paper Section IV-C).  Cudele uses it
to honor the policy file's ``allocated_inodes`` contract: a decoupled
client is provisioned a private inode range it may use anywhere in its
subtree, and the merge skips inodes the client consumed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["InoRange", "InoTable", "INO_SPACE"]

_NO_LIMIT = float("inf")

#: How many numbers one table owns from its first free number on.  The
#: ranks of a cluster start their tables this far apart
#: (``Cluster._rank_config``), so each mints from a space of its own.
INO_SPACE = 1 << 40


@dataclass(frozen=True)
class InoRange:
    """A half-open inode number range ``[start, start + count)``."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start <= 0 or self.count <= 0:
            raise ValueError("inode ranges must be positive and non-empty")

    def __contains__(self, ino: int) -> bool:
        return self.start <= ino < self.start + self.count

    @property
    def end(self) -> int:
        return self.start + self.count


class _Runs:
    """A set of inode numbers kept as sorted, disjoint, non-adjacent
    half-open runs.

    Allocation and journal replay consume numbers in order, so a
    million marks are a handful of runs, and everything a handoff asks
    (which marks lie inside a range?) is a bisect, not a walk.

    ``bounds`` is the runs flattened — ``[s0, e0, s1, e1, ...]``,
    strictly increasing — so a number is in the set iff an odd count of
    boundaries lies at or below it.  ``at`` indexes the end of the run
    :meth:`add` touched last (always an end boundary while there are
    any): consuming in order grows that run in place, without a search,
    for as long as it stays below ``_limit``, the start of the next run.
    """

    __slots__ = ("bounds", "at", "_limit")

    def __init__(self) -> None:
        self.bounds: List[int] = []
        self.at = -1
        self._limit = 0  # nothing is below it: the first add searches

    def __contains__(self, ino: int) -> bool:
        return bisect_right(self.bounds, ino) & 1 == 1

    def add(self, start: int, end: int) -> None:
        """Mark ``[start, end)``; already-marked numbers stay marked."""
        bounds = self.bounds
        if end < self._limit and bounds[self.at] == start:
            bounds[self.at] = end
            return
        lo = bisect_left(bounds, start)
        hi = bisect_right(bounds, end)
        # An even index lies outside every run: the new boundary is
        # real there, and swallowed by an existing run otherwise.
        bounds[lo:hi] = (
            ([] if lo & 1 else [start]) + ([] if hi & 1 else [end])
        )
        self.at = at = lo | 1
        self._limit = bounds[at + 1] if at + 1 < len(bounds) else _NO_LIMIT

    def remove(self, start: int, end: int) -> None:
        """Unmark ``[start, end)``."""
        bounds = self.bounds
        lo = bisect_left(bounds, start)
        hi = bisect_right(bounds, end)
        bounds[lo:hi] = (
            ([start] if lo & 1 else []) + ([end] if hi & 1 else [])
        )
        self.at = -1
        self._limit = 0

    def within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The marked runs inside ``[start, end)``, clipped to it."""
        bounds = self.bounds
        lo = bisect_right(bounds, start)
        hi = bisect_left(bounds, end)
        cut = (
            ([start] if lo & 1 else []) + bounds[lo:hi]
            + ([end] if hi & 1 else [])
        )
        return list(zip(cut[::2], cut[1::2]))


class InoTable:
    """Allocates inode numbers; supports client range provisioning.

    The table mints from its own space, ``[first_free, first_free +
    INO_SPACE)``.  A number from outside it (another rank's, arriving
    with a migrated subtree) is marked consumed and never moves the
    allocation cursor: were it to, two ranks would mint from one space.
    """

    def __init__(self, first_free: int = 1 << 20):
        if first_free <= 1:
            raise ValueError("first_free must leave room for system inodes")
        self._next = first_free
        self._space_end = first_free + INO_SPACE
        self._ranges: Dict[int, List[InoRange]] = {}
        #: ``(starts, [(end, client_id), ...])`` over every provisioned
        #: range, sorted by start (ranges never overlap); built on demand
        #: by :meth:`owner_of`, dropped by whatever changes ``_ranges``.
        self._owner_index: Optional[
            Tuple[List[int], List[Tuple[int, int]]]
        ] = None
        self._consumed = _Runs()

    # -- direct allocation (MDS-side create path) -----------------------
    def allocate(self) -> int:
        ino = self._next
        self._next += 1
        self._consumed.add(ino, ino + 1)
        return ino

    # -- client provisioning (decoupled namespaces) -----------------------
    def provision(self, client_id: int, count: int) -> InoRange:
        """Reserve ``count`` inodes for ``client_id``.

        This is the 'Allocated Inodes' contract: the range is withheld
        from other allocations so the decoupled client's local creates
        cannot collide at merge time.
        """
        if count <= 0:
            raise ValueError("must provision at least one inode")
        rng = InoRange(self._next, count)
        self._next += count
        self._ranges.setdefault(client_id, []).append(rng)
        self._owner_index = None
        return rng

    def ranges_for(self, client_id: int) -> List[InoRange]:
        return list(self._ranges.get(client_id, []))

    def owner_of(self, ino: int) -> int | None:
        """Which client (if any) holds the range containing ``ino``."""
        index = self._owner_index
        if index is None:
            spans = sorted(
                (rng.start, rng.end, client_id)
                for client_id, ranges in self._ranges.items()
                for rng in ranges
            )
            index = self._owner_index = (
                [start for start, _, _ in spans],
                [(end, client_id) for _, end, client_id in spans],
            )
        starts, owners = index
        at = bisect_right(starts, ino) - 1
        if at >= 0:
            end, client_id = owners[at]
            if ino < end:
                return client_id
        return None

    # -- merge bookkeeping -----------------------------------------------
    def mark_consumed(self, ino: int) -> None:
        """Record that a provisioned inode was actually used by a client.

        Replaying a client journal calls this so the table can 'skip
        inodes used by the client at merge time' (Section IV-C).
        """
        if ino in self._consumed:
            raise ValueError(f"inode {ino} consumed twice")
        self._consumed.add(ino, ino + 1)

    def is_consumed(self, ino: int) -> bool:
        # A merge asks about the inode it has just replayed, which sits
        # in the run marked last: answer that without a search.
        runs = self._consumed
        bounds, at = runs.bounds, runs.at
        if bounds and bounds[at - 1] <= ino < bounds[at]:
            return True
        return ino in runs

    def note_external(self, ino: int, end: int = 0) -> None:
        """Record an inode minted elsewhere (journal replay, recovery,
        migration): ``ino``, or the run ``[ino, end)`` when ``end`` is
        given.

        Keeps future allocations clear of the numbers; idempotent.
        """
        if end <= ino:
            end = ino + 1
        self._consumed.add(ino, end)
        space_end = self._space_end
        if end > self._next and ino < space_end:
            self._next = end if end <= space_end else space_end

    def skip_to(self, ino: int) -> None:
        """Move the allocation cursor up to ``ino`` (a checkpointed
        table's next free number), inside this table's own space; a
        number at or below the cursor leaves it where it is."""
        if self._next < ino <= self._space_end:
            self._next = ino

    def release_unused(self, client_id: int) -> int:
        """Return a client's unconsumed provisioned inodes; count reclaimed.

        Reclaimed numbers are not re-issued (CephFS also burns them);
        this just clears the reservation bookkeeping.
        """
        ranges = self._ranges.pop(client_id, [])
        self._owner_index = None
        reclaimed = 0
        for rng in ranges:
            reclaimed += rng.count - sum(
                end - start
                for start, end in self._consumed.within(rng.start, rng.end)
            )
        return reclaimed

    # -- migration ---------------------------------------------------------
    def extract_client(self, client_id: int) -> Dict:
        """Detach ``client_id``'s provisioned ranges (plus the consumed
        marks inside them) for a subtree handoff.  The bundle round-trips
        through :meth:`install_client` on the destination table."""
        ranges = self._ranges.pop(client_id, [])
        self._owner_index = None
        consumed: List[Tuple[int, int]] = []
        for rng in ranges:
            consumed += self._consumed.within(rng.start, rng.end)
            self._consumed.remove(rng.start, rng.end)
        return {
            "client_id": client_id,
            "ranges": list(ranges),
            "consumed": consumed,
        }

    def install_client(self, bundle: Dict) -> None:
        """Install a bundle from :meth:`extract_client`.

        Refuses overlap with any range already provisioned here and any
        already-consumed number inside the incoming ranges — two tables
        must never both believe they own an inode range.
        """
        client_id = bundle["client_id"]
        incoming: List[InoRange] = list(bundle["ranges"])
        for rng in incoming:
            for other_id in sorted(self._ranges):
                for held in self._ranges[other_id]:
                    if rng.start < held.end and held.start < rng.end:
                        raise ValueError(
                            f"incoming range [{rng.start},{rng.end}) overlaps "
                            f"range [{held.start},{held.end}) held by client "
                            f"{other_id}"
                        )
            taken = self._consumed.within(rng.start, rng.end)
            if taken:
                raise ValueError(
                    f"inode {taken[0][0]} inside an incoming range is "
                    "already consumed on this rank"
                )
        if incoming:
            self._ranges.setdefault(client_id, []).extend(incoming)
            self._owner_index = None
        for start, end in bundle["consumed"]:
            self._consumed.add(start, end)
        # The ranges' top raises the cursor only inside this table's own
        # space: a top at the space's end or past it is another rank's.
        top = max((rng.end for rng in incoming), default=0)
        if self._next < top < self._space_end:
            self._next = top

    @property
    def next_free(self) -> int:
        return self._next
