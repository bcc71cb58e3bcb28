"""Attach/detach observability to a simulated cluster.

:class:`Observability` bundles a :class:`~repro.obs.metrics.MetricsHub`
and a :class:`~repro.obs.spans.Tracer` and subscribes them to one
:class:`~repro.cluster.Cluster`'s observer tap
(:mod:`repro.obs.tap`): every section a daemon opens becomes a span
and feeds the metrics :data:`SECTION_TABLE` lists for it.

Zero-cost when detached
-----------------------
Every instrumented hot path guards on ``self.tap is not None`` — the
same single-branch pattern as the engine trace hook.  Observation is
pure host-side bookkeeping: it schedules no engine events, draws no
randomness, and never touches simulated state, so an instrumented run
is *simulation-identical* to a bare one (the bench suite enforces
byte-identical artifacts with obs off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from repro.obs.metrics import MetricsHub
from repro.obs.spans import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["Observability", "SECTION_TABLE", "observe", "policy_tag"]


def policy_tag(policy) -> str:
    """Deterministic tag for the subtree policy in force.

    ``"<consistency>/<durability>"`` for a
    :class:`~repro.core.policy.SubtreePolicy`, ``"posix"`` for plain
    (un-decoupled) subtrees, ``"custom"`` for policy-like objects
    without the two composition fields.  Never ``str(policy)`` — a
    default repr would leak memory addresses into artifacts.
    """
    if policy is None:
        return "posix"
    consistency = getattr(policy, "consistency", None)
    durability = getattr(policy, "durability", None)
    if isinstance(consistency, str) and isinstance(durability, str):
        return f"{consistency}/{durability}"
    return "custom"


class _Section(NamedTuple):
    """What one tap section becomes here."""

    #: Fields copied onto the span as tags; None = metered, not traced.
    span_tags: Optional[Tuple[str, ...]]
    #: ``(kind, metric, tag fields, amount)``: ``amount`` names the
    #: begin/end field observed or added (``duration_s`` is the
    #: section's simulated duration) or is a constant.  A feed whose
    #: amount or any tag is absent (or None) is skipped.
    feeds: Tuple[tuple, ...]


_H, _C = "histogram", "counter"
_OP_FEEDS = (
    (_H, "op_latency_s", ("op",), "duration_s"),
    (_C, "ops", ("op",), "count"),
)

#: Section name -> span tags and the metrics the section feeds.  Every
#: metric is identified by ``(name, daemon, mechanism=…, <tag fields>)``
#: with daemon and mechanism taken from the section.  ``mds.handle``
#: additionally derives ``policy`` and ``subtree`` from its ``path``
#: field through the monitor's maps; ``mech`` spans are named
#: ``mech.<mechanism>``.
SECTION_TABLE = {
    "client.rpc": _Section(("op",), _OP_FEEDS),
    "client.append": _Section(("op",), _OP_FEEDS),
    "client.append_op": _Section(None, _OP_FEEDS),
    "mds.handle": _Section(("op",), (
        (_H, "handle_latency_s", ("op", "policy"), "duration_s"),
        (_C, "requests", ("op",), "count"),
        (_C, "subtree_ops", ("subtree",), "count"),
    )),
    "mds.apply": _Section((), ((_C, "applied_events", (), "count"),)),
    "mds.journal.append": _Section((), (
        (_H, "journal_append_latency_s", (), "duration_s"),
    )),
    "mds.migrate": _Section(("subtree", "dst"), (
        (_C, "mds.migrate.count", ("status",), 1),
        (_H, "migrate_latency_s", (), "duration_s"),
        (_H, "mds.migrate.frozen_s", (), "frozen_s"),
        (_H, "mds.migrate.rows", (), "rows"),
        (_H, "mds.migrate.moved_events", (), "moved_events"),
    )),
    "journal.dispatch": _Section((), (
        (_H, "dispatch_latency_s", (), "duration_s"),
        (_C, "segments_dispatched", (), 1),
    )),
    "osd.write": _Section(("obj",), (
        (_H, "io_latency_s", ("op",), "duration_s"),
        (_C, "bytes_written", (), "nbytes"),
    )),
    "osd.read": _Section(("obj",), (
        (_H, "io_latency_s", ("op",), "duration_s"),
        (_C, "bytes_read", (), "nbytes"),
    )),
    "recover.scan": _Section(("source",), (
        (_H, "recovery_scan_events", ("source",), "events"),
        (_C, "recovery_scan_damage", ("damage",), 1),
    )),
    "mech": _Section(("subtree",), (
        (_H, "mechanism_latency_s", (), "duration_s"),
        (_C, "mechanism_runs", (), 1),
    )),
}
#: Per section: the span tag fields in span order (sorted by key).
_SPAN_TAGS = {
    name: None if row.span_tags is None else tuple(sorted(row.span_tags))
    for name, row in SECTION_TABLE.items()
}
#: Per section: every field some feed uses as a tag — the fields that
#: pick which metrics the section feeds.
_TAG_FIELDS = {
    name: tuple(dict.fromkeys(f for feed in row.feeds for f in feed[2]))
    for name, row in SECTION_TABLE.items()
}


class Observability:
    """Metrics + tracing for one cluster; attach to start observing."""

    tap_sections = tuple(SECTION_TABLE)

    def __init__(self, cluster: "Cluster", profile: bool = False):
        self.cluster = cluster
        self.engine = cluster.engine
        self.hub = MetricsHub()
        self.tracer = Tracer(cluster.engine)
        #: When set, the engine's sleep hook attributes simulated busy
        #: time (every ``Engine.sleep`` — the CPU/cost-model delays) to
        #: the span in force when the sleep was issued.
        self.profile = profile
        self.attached = False
        self._prev_sleep_hook = None
        #: Metrics already looked up, per (section, daemon, mechanism,
        #: tag values): the hub's get-or-create sorts tags on every
        #: call, too slow to repeat for each section.
        self._feeds: dict = {}
        self.tap_marks = {
            "submit": self._on_submit,
            "persisted": self._on_persisted,
            "object-written": self._on_object_written,
        }

    # -- wiring ----------------------------------------------------------
    def attach(self) -> "Observability":
        if self.attached:
            raise RuntimeError("observability is already attached")
        self.cluster.attach_observer(self)
        if self.profile:
            self._prev_sleep_hook = self.engine.sleep_hook
            self.engine.sleep_hook = self._on_sleep
        self.attached = True
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        self.cluster.detach_observer(self)
        if self.profile:
            self.engine.sleep_hook = self._prev_sleep_hook
            self._prev_sleep_hook = None
        self.attached = False

    def __enter__(self) -> "Observability":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- sections --------------------------------------------------------
    def begin(self, name: str, daemon: str, mechanism: str, fields: dict):
        tag_fields = _SPAN_TAGS[name]
        if tag_fields is None:  # metered only: remember when it began
            return name, daemon, mechanism, fields, None, self.engine.now
        tags = ()
        for field in tag_fields:
            tags += ((field, str(fields[field])),)
        span_name = name if name != "mech" else f"mech.{mechanism}"
        if "parent" in fields:  # cross-queue hop: explicit parent
            span = self.tracer.open(
                span_name, daemon, mechanism, tags, fields["parent"]
            )
        else:
            span = self.tracer.open(span_name, daemon, mechanism, tags)
        return name, daemon, mechanism, fields, span, span.t_start

    def end(self, token, result: dict) -> None:
        name, daemon, mechanism, fields, span, t_begin = token
        if span is None:
            duration_s = self.engine.now - t_begin
        else:
            self.tracer.end(span)
            duration_s = span.t_end - t_begin
        ctx = {**fields, **result} if result else fields
        if name == "mds.handle":
            mon, path = self.cluster.mon, ctx["path"]
            entry = mon.subtree_entry(path)
            ctx = dict(
                ctx, policy=policy_tag(mon.resolve(path)),
                subtree=entry[0] if entry is not None else "/",
            )
        key = (name, daemon, mechanism, *map(ctx.get, _TAG_FIELDS[name]))
        feeds = self._feeds.get(key)
        if feeds is None:
            feeds = self._feeds[key] = self._resolve_feeds(*key)
        for feed, amount in feeds:
            if amount == "duration_s":
                amount = duration_s
            elif amount.__class__ is str:
                amount = ctx.get(amount)
            if amount is not None:
                feed(amount)

    def _resolve_feeds(self, name, daemon, mechanism, *tag_values) -> list:
        """The ``(observe-or-incr, amount)`` pairs section ``name`` feeds
        at ``daemon`` under these tag values, in table order."""
        values = dict(zip(_TAG_FIELDS[name], tag_values))
        feeds = []
        for kind, metric, tag_fields, amount in SECTION_TABLE[name].feeds:
            tags = {field: values[field] for field in tag_fields}
            if None in tags.values():
                continue
            found = getattr(self.hub, kind)(
                metric, daemon=daemon, mechanism=mechanism, **tags
            )
            feeds.append((found.observe if kind == _H else found.incr, amount))
        return feeds

    # -- marks -----------------------------------------------------------
    def _on_submit(self, actor: str, detail: dict) -> None:
        # Stamp the submitter's span onto the request — trace context
        # in the RPC header, carried across the MDS queue hop.
        request = detail["request"]
        if request.span is None:
            request.span = self.tracer.current()

    def _on_persisted(self, actor: str, detail: dict) -> None:
        self.hub.counter(
            "local_persists", daemon=actor, mechanism="local_persist"
        ).incr()

    def _on_object_written(self, actor: str, detail: dict) -> None:
        action = detail["action"]
        self.hub.counter(
            "object_mutations", daemon="objstore", mechanism="rados",
            action=action,
        ).incr()
        self.hub.counter(
            "object_bytes", daemon="objstore", mechanism="rados",
            action=action,
        ).incr(detail["nbytes"])

    # -- profiling -------------------------------------------------------
    def _on_sleep(self, delay: float) -> None:
        prev = self._prev_sleep_hook
        if prev is not None:
            prev(delay)
        span = self.tracer.current()
        if span is not None:
            span.busy_s += delay


def observe(cluster: "Cluster", profile: bool = False) -> Observability:
    """Build and attach an :class:`Observability` in one call."""
    return Observability(cluster, profile=profile).attach()
