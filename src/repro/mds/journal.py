"""MDS-side journaling: segments, the dispatch window, trimming.

This is the Stream mechanism's engine-room.  Metadata updates buffer in
the open segment; full segments are dispatched (written to the striped
journal in the object store) subject to the *dispatch window* — at most
``dispatch_size`` segments in flight at once, the tunable swept in
Figure 3a.

The journaling cost model (constants in :mod:`repro.calibration`):

* every journaled op adds commit **latency** (pipelined ack) of
  ``JLAT_BASE_S + JLAT_UNIT_S * dispatch_factor(d)``;
* under load, managing the dispatch list costs extra MDS **CPU** of
  ``JCPU_UNIT_S * dispatch_factor(d) * queue_depth / JQUEUE_SCALE``;
* when the window is full and a segment must go out, the MDS stalls
  until a slot frees.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro import calibration as cal
from repro.journal.events import JournalEvent, WIRE_EVENT_BYTES
from repro.journal.journaler import Journaler
from repro.rados.striper import Striper
from repro.sim.engine import Engine, Event
from repro.sim.resources import Semaphore

__all__ = ["MDSJournal"]


class MDSJournal:
    """Segmented, windowed journaling for the metadata server."""

    def __init__(
        self,
        engine: Engine,
        striper: Striper,
        segment_events: int = 1024,
        dispatch_size: int = 40,
        enabled: bool = True,
        src: str = "mds",
    ):
        if dispatch_size < 1:
            raise ValueError("dispatch size must be >= 1")
        self.engine = engine
        self.enabled = enabled
        self.dispatch_size = dispatch_size
        self.segment_events = segment_events
        self.src = src
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps dispatch unobserved.
        self.tap = None
        self._journaler = Journaler(
            engine, striper, segment_events=segment_events, src=src
        )
        self._window = Semaphore(engine, dispatch_size, name="journal.window")
        self._factor = cal.dispatch_factor(dispatch_size)
        self._pending_count = 0  # counted-only events (perf mode)
        self._inflight: list = []
        self.segments_in_flight = 0
        self.stalls = 0
        self.events_logged = 0

    # -- cost model -------------------------------------------------------
    def commit_latency_s(self) -> float:
        """Per-op latency added by journaling (0 when disabled)."""
        if not self.enabled:
            return 0.0
        return cal.JLAT_BASE_S + cal.JLAT_UNIT_S * self._factor

    def management_cpu_s(self, queue_depth: int) -> float:
        """Per-op MDS CPU for managing the dispatch window under load."""
        if not self.enabled:
            return 0.0
        return cal.JCPU_UNIT_S * self._factor * (queue_depth / cal.JQUEUE_SCALE)

    # -- logging -----------------------------------------------------------
    def log_events(
        self,
        events: Optional[List[JournalEvent]] = None,
        count: Optional[int] = None,
    ) -> Generator[Event, None, None]:
        """Record events (process body; may stall on a full window).

        ``events`` carries real journal events (correctness paths);
        ``count`` logs that many *counted-only* events (large-scale
        performance runs, where per-event objects would swamp the
        simulator's host memory without changing any simulated cost).
        """
        if not self.enabled:
            return
        if events is not None:
            for ev in events:
                _, full = self._journaler.append(ev)
                self.events_logged += 1
                if full:
                    yield from self._dispatch_real()
        if count:
            self._pending_count += count
            self.events_logged += count
            while self._pending_count >= self.segment_events:
                self._pending_count -= self.segment_events
                yield from self._dispatch_counted(self.segment_events)

    def _acquire_slot(self) -> Generator[Event, None, None]:
        if self._window.tokens == 0:
            self.stalls += 1
        yield self._window.acquire()

    def _dispatch_real(self) -> Generator[Event, None, None]:
        segment = self._journaler.take_segment()
        yield from self._acquire_slot()
        self.segments_in_flight += 1
        self._track(
            self.engine.process(self._flush_real(segment), name="mds-journal-flush")
        )

    def _flush_real(self, segment) -> Generator[Event, None, None]:
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin("journal.dispatch", self.src, "stream")
        try:
            yield self.engine.process(self._journaler.dispatch_segment(segment))
        finally:
            self.segments_in_flight -= 1
            self._window.release()
            if section is not None:
                tap.end(section)

    def _dispatch_counted(self, n: int) -> Generator[Event, None, None]:
        yield from self._acquire_slot()
        self.segments_in_flight += 1
        self._track(
            self.engine.process(self._flush_counted(n), name="mds-journal-flush")
        )

    def _track(self, proc) -> None:
        self._inflight = [p for p in self._inflight if not p.triggered]
        self._inflight.append(proc)

    def _flush_counted(self, n: int) -> Generator[Event, None, None]:
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin("journal.dispatch", self.src, "stream")
        try:
            # One placeholder byte carries the full simulated wire cost.
            yield self.engine.process(
                self._journaler.striper.append(
                    b"\x00",
                    src=self._journaler.src,
                    charge_factor=float(n * WIRE_EVENT_BYTES),
                )
            )
            self._journaler.segments_dispatched += 1
        finally:
            self.segments_in_flight -= 1
            self._window.release()
            if section is not None:
                tap.end(section)

    def flush(self) -> Generator[Event, None, None]:
        """Flush any partial segment and wait for every in-flight
        segment write to land (shutdown / policy transition / the Stream
        mechanism's completion point — durability is only guaranteed
        once the journal is safe in the object store)."""
        if not self.enabled:
            return
        if self._journaler.open_events:
            yield from self._dispatch_real()
        if self._pending_count:
            n, self._pending_count = self._pending_count, 0
            yield from self._dispatch_counted(n)
        pending = [p for p in self._inflight if not p.triggered]
        self._inflight = []
        if pending:
            yield self.engine.all_of(pending)

    def crash(self) -> int:
        """Drop volatile journaling state on an MDS crash.

        The open (not yet dispatched) segment and any counted-only
        pending events lived in MDS memory and are lost; returns how
        many.  Segment writes already in flight were submitted to the
        object store before the crash and are allowed to land — recovery
        replays whatever the striped journal holds.
        """
        lost = self._journaler.open_events + self._pending_count
        self._journaler.take_segment()
        self._pending_count = 0
        self.events_logged -= lost
        return lost

    def extract_open(self, subtree: str) -> List[JournalEvent]:
        """Remove and return the open segment's undispatched events that
        touch ``subtree`` (a subtree migration lifts them out of the
        source's journal; the destination re-journals them).  Dispatched
        segments are not touched — their events are already durable on
        the source's striped journal and stay there."""
        if not self.enabled:
            return []
        prefix = subtree.rstrip("/") + "/"

        def _touches(ev: JournalEvent) -> bool:
            # Only mutations move: protocol markers (EXPORT_PREP itself)
            # and policy records are this rank's own bookkeeping.
            if not ev.is_mutation:
                return False
            if ev.path == subtree or ev.path.startswith(prefix):
                return True
            tgt = ev.target_path
            return bool(
                tgt and (tgt == subtree or tgt.startswith(prefix))
            )

        removed = self._journaler.extract_open(_touches)
        self.events_logged -= len(removed)
        return removed

    @property
    def open_real_events(self) -> int:
        """Real (materialized) events still buffered in the open segment
        — journaled but not yet handed to the object store.  Counted-only
        events are excluded; the conformance recorder uses this to tell
        which journaled updates a landed segment write made durable."""
        return self._journaler.open_events

    # -- recovery / inspection ----------------------------------------------
    def read_all(self, dst: str = "mds") -> Generator[Event, None, list]:
        events = yield self.engine.process(self._journaler.read_all(dst=dst))
        return events

    def read_scan(self, dst: str = "mds"):
        """Verifying read-back: the full :class:`~repro.journal.format.
        JournalScan` (events plus damage classification), for recovery
        paths that must distinguish a clean journal from a damaged one."""
        scan = yield self.engine.process(self._journaler.read_scan(dst=dst))
        return scan

    @property
    def segments_dispatched(self) -> int:
        return self._journaler.segments_dispatched

    def trim(self, through_seq: int) -> None:
        self._journaler.trim(through_seq)
