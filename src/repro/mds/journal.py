"""MDS-side journaling: segments, the dispatch window, read-back.

This is the Stream mechanism's engine-room.  Metadata updates are
stamped with sequence numbers into the open segment; full segments are
dispatched — appended to the MDS's striped journal in the object store
— subject to the *dispatch window*: at most ``dispatch_size`` segments
in flight at once, the tunable swept in Figure 3a.  Recovery reads the
striped journal back through the verifying scan.

The journaling cost model (constants in :mod:`repro.calibration`):

* every journaled op adds commit **latency** (pipelined ack) of
  ``JLAT_BASE_S + JLAT_UNIT_S * dispatch_factor(d)``;
* under load, managing the dispatch list costs extra MDS **CPU** of
  ``JCPU_UNIT_S * dispatch_factor(d) * queue_depth / JQUEUE_SCALE``;
* when the window is full and a segment must go out, the MDS stalls
  until a slot frees.

Segments are charged at :data:`~repro.journal.events.WIRE_EVENT_BYTES`
per event while the compact real encoding is what is stored.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro import calibration as cal
from repro.journal.events import JournalEvent, WIRE_EVENT_BYTES
from repro.journal.format import JournalCodec, JournalScan
from repro.rados.striper import Striper
from repro.sim.engine import Engine, Event
from repro.sim.resources import Slots

__all__ = ["MDSJournal"]


class MDSJournal:
    """The MDS's segmented, windowed journal in the object store.

    ``count`` logging (large-scale performance runs) keeps counted-only
    events: they cost their full wire size when dispatched but are not
    materialized, and their segments carry placeholder bytes.
    """

    def __init__(
        self,
        engine: Engine,
        striper: Striper,
        segment_events: int = 1024,
        dispatch_size: int = 40,
        enabled: bool = True,
        src: str = "mds",
    ):
        if segment_events < 1:
            raise ValueError("segment size must be >= 1 event")
        self.engine = engine
        self.striper = striper
        self.enabled = enabled
        self.dispatch_size = dispatch_size
        self.segment_events = segment_events
        self.src = src
        #: Observer tap (set by the Cluster; see ``repro.obs.tap``);
        #: None keeps dispatch unobserved.
        self.tap = None
        self._window = Slots(engine, dispatch_size, "journal.window")
        self._factor = cal.dispatch_factor(dispatch_size)
        self._open_segment: List[JournalEvent] = []
        self._pending_count = 0  # counted-only events (perf mode)
        self._next_seq = 1
        self._next_segment_seq = 1
        self._write_offset = 0
        #: Segment writes not yet known to have landed.
        self._inflight: list = []
        #: Events in closed segments still waiting for a window slot:
        #: they live only in MDS memory, so a crash loses them.
        self._stalled_events = 0
        self._crashes = 0
        self.segments_in_flight = 0
        self.segments_dispatched = 0
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

        ``events`` carries real journal events (correctness paths), each
        stamped with the next sequence number; ``count`` logs that many
        *counted-only* events (large-scale performance runs, where
        per-event objects would swamp the simulator's host memory
        without changing any simulated cost).
        """
        if not self.enabled:
            return
        if events is not None:
            for ev in events:
                self._open_segment.append(ev.with_seq(self._next_seq))
                self._next_seq += 1
                self.events_logged += 1
                if len(self._open_segment) >= self.segment_events:
                    yield from self._dispatch(self._take_segment())
        if count:
            self._pending_count += count
            self.events_logged += count
            while self._pending_count >= self.segment_events:
                self._pending_count -= self.segment_events
                yield from self._dispatch(None, self.segment_events)

    def _take_segment(self) -> List[JournalEvent]:
        seg, self._open_segment = self._open_segment, []
        return seg

    def _dispatch(
        self, segment: Optional[List[JournalEvent]], count: int = 0
    ) -> Generator[Event, None, None]:
        """Send one closed segment — ``segment``'s real events, or
        ``count`` counted-only ones — once a window slot is free."""
        grant = self._window.acquire()
        if grant is not None:
            self.stalls += 1
            held = count if segment is None else len(segment)
            crashes = self._crashes
            self._stalled_events += held
            yield grant
            if self._crashes != crashes:
                # A crash took the segment (and counted it lost) while
                # it waited; a waiter the crash did not stop hands its
                # slot on and sends nothing.
                self._window.release()
                return
            self._stalled_events -= held
        self.segments_in_flight += 1
        self._inflight = [p for p in self._inflight if not p.triggered]
        self._inflight.append(
            self.engine.process(
                self._flush_segment(segment, count), name="mds-journal-flush"
            )
        )

    def _flush_segment(
        self, segment: Optional[List[JournalEvent]], count: int
    ) -> Generator[Event, None, None]:
        tap = self.tap
        section = None
        if tap is not None:
            section = tap.begin(
                "journal.dispatch", self.src, "stream", events=segment
            )
        try:
            yield from self._write_segment(segment, count)
        finally:
            self.segments_in_flight -= 1
            self._window.release()
            if section is not None:
                tap.end(section)

    def _write_segment(
        self, segment: Optional[List[JournalEvent]], count: int
    ) -> Generator[Event, None, None]:
        """Append one segment to the striped journal (process body),
        charged at the wire size."""
        if segment is None:
            # One placeholder byte carries the full simulated wire cost.
            yield from self.striper.append(
                b"\x00", src=self.src,
                charge_factor=float(count * WIRE_EVENT_BYTES),
            )
        else:
            # One checksummed wire segment; the first also carries the
            # stream header.  The segment number and the byte offset are
            # claimed before yielding, so concurrent writes (the window)
            # number segments in the order of their offsets — recovery
            # checks that order — and never write over each other.
            seg_seq = self._next_segment_seq
            self._next_segment_seq += 1
            if seg_seq == 1:
                data = JournalCodec.encode_stream(segment, first_seq=seg_seq)
            else:
                data = JournalCodec.encode_segment(seg_seq, segment)
            offset = self._write_offset
            self._write_offset += len(data)
            factor = (len(segment) * WIRE_EVENT_BYTES) / max(1, len(data))
            yield from self.striper.write(
                offset, data, src=self.src, charge_factor=factor
            )
        self.segments_dispatched += 1

    def flush(self) -> Generator[Event, None, None]:
        """Flush any partial segment and wait for every in-flight
        segment write to land (shutdown / policy transition / the Stream
        mechanism's completion point — durability is only guaranteed
        once the journal is safe in the object store).  Writes another
        flusher started stay visible here until they land, so every
        concurrent flusher waits for them."""
        if not self.enabled:
            return
        if self._open_segment:
            yield from self._dispatch(self._take_segment())
        if self._pending_count:
            n, self._pending_count = self._pending_count, 0
            yield from self._dispatch(None, n)
        self._inflight = [p for p in self._inflight if not p.triggered]
        if self._inflight:
            yield self.engine.all_of(self._inflight)

    def crash(self) -> int:
        """Drop volatile journaling state on an MDS crash.

        The open (not yet dispatched) segment, closed segments still
        waiting for a window slot and any counted-only pending events
        lived in MDS memory and are lost; returns how many.  Segment
        writes already in flight were submitted to the object store
        before the crash and are allowed to land — recovery replays
        whatever the striped journal holds.
        """
        lost = (
            len(self._take_segment()) + self._pending_count
            + self._stalled_events
        )
        self._pending_count = self._stalled_events = 0
        self._crashes += 1
        self.events_logged -= lost
        return lost

    def extract_open(self, subtree: str) -> List[JournalEvent]:
        """Remove and return the open segment's undispatched events that
        touch ``subtree`` (a subtree migration lifts them out of the
        source's journal; the destination re-journals them), keeping the
        rest buffered in order with their sequence numbers.  Dispatched
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

        kept: List[JournalEvent] = []
        removed: List[JournalEvent] = []
        for ev in self._open_segment:
            (removed if _touches(ev) else kept).append(ev)
        self._open_segment = kept
        self.events_logged -= len(removed)
        return removed

    @property
    def last_seq(self) -> int:
        """The sequence number stamped last (0 before any event).  It
        keeps counting across events a crash or a migration took out."""
        return self._next_seq - 1

    # -- recovery -----------------------------------------------------------
    def read_scan(self, dst: str = "mds") -> Generator[Event, None, JournalScan]:
        """Verifying read-back (process body): fetch the striped journal
        and scan it, returning the full :class:`~repro.journal.format.
        JournalScan` (the valid-prefix events plus the damage
        classification) so recovery can tell a clean journal from a
        damaged one.  A journal written in counted-only mode holds
        placeholder bytes and scans as damaged with no events."""
        data = yield from self.striper.read_all(dst=dst)
        return JournalCodec.scan_stream(data)
