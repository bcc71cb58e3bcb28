"""Attach/detach observability to a simulated cluster.

:class:`Observability` bundles a :class:`~repro.obs.metrics.MetricsHub`
and a :class:`~repro.obs.spans.Tracer` and wires them into every daemon
of one :class:`~repro.cluster.Cluster` (clients created later inherit
via the cluster's factories, mirroring the conformance recorder).

Zero-cost when detached
-----------------------
Every instrumented hot path guards on ``self.obs is not None`` — the
same single-branch pattern as the conformance recorder and the engine
trace hook.  Observation is pure host-side bookkeeping: it schedules no
engine events, draws no randomness, and never touches simulated state,
so an instrumented run is *simulation-identical* to a bare one (the
bench suite enforces byte-identical artifacts with obs off).

The object-store hook chains: if a conformance recorder already owns
``RadosObject.on_mutate``, obs calls it first and restores it on
detach — attach the recorder before obs, detach obs before the
recorder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsHub
from repro.obs.spans import Tracer
from repro.rados.objects import RadosObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["Observability", "observe", "policy_tag"]


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


class Observability:
    """Metrics + tracing for one cluster; attach to start observing."""

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
        self._prev_mutate = None
        self._prev_sleep_hook = None

    # -- wiring ----------------------------------------------------------
    def _daemons(self):
        cluster = self.cluster
        yield cluster
        for mds in cluster.mds_list:
            yield mds
            yield mds.journal
        for osd in cluster.objstore.osds:
            yield osd
        for client in cluster._clients:
            yield client
        for dclient in cluster._dclients:
            yield dclient

    def attach(self) -> "Observability":
        if self.attached:
            raise RuntimeError("observability is already attached")
        for daemon in self._daemons():
            daemon.obs = self
        # Chain (don't clobber) the object-store mutation hook so the
        # conformance recorder keeps witnessing persistence.
        self._prev_mutate = RadosObject.on_mutate
        RadosObject.on_mutate = self._on_mutate
        if self.profile:
            self._prev_sleep_hook = self.engine.sleep_hook
            self.engine.sleep_hook = self._on_sleep
        self.attached = True
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        for daemon in self._daemons():
            daemon.obs = None
        RadosObject.on_mutate = self._prev_mutate
        self._prev_mutate = None
        if self.profile:
            self.engine.sleep_hook = self._prev_sleep_hook
            self._prev_sleep_hook = None
        self.attached = False

    def __enter__(self) -> "Observability":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- hooks -----------------------------------------------------------
    def _on_mutate(self, obj, action: str, nbytes: int) -> None:
        prev = self._prev_mutate
        if prev is not None:
            prev(obj, action, nbytes)
        self.hub.counter(
            "object_mutations", daemon="objstore", mechanism="rados",
            action=action,
        ).incr()
        self.hub.counter(
            "object_bytes", daemon="objstore", mechanism="rados",
            action=action,
        ).incr(nbytes)

    def _on_sleep(self, delay: float) -> None:
        prev = self._prev_sleep_hook
        if prev is not None:
            prev(delay)
        span = self.tracer.current()
        if span is not None:
            span.busy_s += delay

    # -- convenience -----------------------------------------------------
    def mds_policy_tag(self, mds, path: str) -> str:
        """Tag for the policy governing ``path`` at ``mds`` (see
        :func:`policy_tag`)."""
        resolver = mds.policy_resolver
        return policy_tag(resolver(path) if resolver is not None else None)


def observe(cluster: "Cluster", profile: bool = False) -> Observability:
    """Build and attach an :class:`Observability` in one call."""
    return Observability(cluster, profile=profile).attach()
