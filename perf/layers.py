"""Per-layer attribution, measured from outside the program.

Three instruments, none of which touches ``src/``:

* :func:`bucket_profile` buckets a ``cProfile`` run's self time by the
  package of ``src/repro`` each function lives in, charging builtin and
  library time to the calling layer;
* :class:`SpanLog` records driver-level spans around the calls the
  benchmark makes into a layer;
* :class:`ClusterCounters` counts engine events through the public
  ``engine.trace`` hook of every cluster built while it is installed
  and reads the daemons' public counters afterwards.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster import Cluster

__all__ = [
    "LAYERS", "HOT_MODULES", "layer_of", "bucket_profile",
    "SpanLog", "NullSpans", "ClusterCounters",
]

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: The packages of ``src/repro`` a host second can be charged to;
#: ``other`` is the rest of this repository (``repro.cluster``,
#: ``repro.bench``, this benchmark) plus whatever no layer called.
LAYERS = (
    "sim", "rados", "mds", "journal", "client", "core", "mon", "obs",
    "conformance", "scenario", "faults", "analysis", "other",
)

HOT_MODULES = (
    "sim.engine", "sim.network", "sim.resources",
    "mds.server", "mds.mdstore", "mds.journal", "mds.caps",
    "journal.format", "journal.journaler",
    "client.client", "client.decoupled",
    "obs.metrics", "obs.spans",
    "conformance.recorder", "conformance.checkers",
    "scenario.runner", "scenario.population",
)


def layer_of(filename: str) -> tuple:
    """``(layer, "layer.module")`` for a source file; ``("other", None)``
    outside the layered packages."""
    try:
        parts = Path(filename).relative_to(SRC_ROOT).parts
    except ValueError:
        return "other", None
    if len(parts) < 2 or parts[0] not in LAYERS:
        return "other", None
    return parts[0], f"{parts[0]}.{Path(parts[1]).stem}"


def _owner(code) -> Optional[tuple]:
    """The ``(layer, module)`` a profiled function's self time belongs
    to, or None for code this repository does not own — C builtins,
    generated code (``<string>``: dataclass methods) and libraries —
    whose time is charged to whoever called it."""
    if isinstance(code, str):
        return None
    filename = code.co_filename
    if filename.startswith("<") or not filename.startswith(str(REPO_ROOT)):
        return None
    return layer_of(filename)


def bucket_profile(entries) -> Dict:
    """Bucket ``cProfile.Profile.getstats()`` entries by layer.

    A function of this repository keeps its self time in the layer of
    its file.  Builtins, generated code and library functions have no
    layer of their own: their self time is charged to the layers that
    called them, through the profile's caller edges (each ``calls``
    sub-entry carries the callee's self time under that caller), passed
    on through unowned callers (``asdict`` -> ``deepcopy``) by a few
    rounds of propagation.  Unowned time no layer reaches is the
    remainder, charged to ``other`` — so the buckets always sum to the
    profiled total.
    """
    entries = list(entries)
    owners = {e.code: _owner(e.code) for e in entries}
    callers = defaultdict(list)  # unowned callee -> [(caller, self time)]
    for e in entries:
        for sub in e.calls or ():
            if owners.get(sub.code) is None and sub.code is not e.code:
                callers[sub.code].append((e.code, sub.inlinetime))
    weights: Dict = {}  # unowned callee -> {(layer, module): seconds}
    for _ in range(8):
        updated = {}
        for callee, edges in callers.items():
            acc = defaultdict(float)
            for caller, seconds in edges:
                if owners[caller] is not None:
                    acc[owners[caller]] += seconds
                    continue
                via = weights.get(caller)
                if via:
                    scale = seconds / sum(via.values())
                    for key, w in via.items():
                        acc[key] += w * scale
            updated[callee] = acc
        weights = updated

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    module_s = {module: 0.0 for module in HOT_MODULES}
    total_s = unreached_s = 0.0

    def charge(key: tuple, seconds: float) -> None:
        self_s[key[0]] += seconds
        if key[1] in module_s:
            module_s[key[1]] += seconds

    for e in entries:
        total_s += e.inlinetime
        owner = owners[e.code]
        if owner is not None:
            charge(owner, e.inlinetime)
            calls[owner[0]] += e.callcount
            continue
        calls["other"] += e.callcount
        reached = weights.get(e.code)
        norm = sum(reached.values()) if reached else 0.0
        if norm <= 0.0:
            unreached_s += e.inlinetime
            continue
        for key, w in reached.items():
            charge(key, e.inlinetime * w / norm)
    self_s["other"] += unreached_s
    return {
        "total_s": total_s,
        "self_s": self_s,
        "calls": calls,
        "module_s": module_s,
        "unreached_s": unreached_s,
    }


class SpanLog:
    """In-memory driver-level spans: name, start, end, parent."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        record = {
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **tags,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total host seconds of every span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )


class NullSpans:
    """Tracing off: the timed passes record nothing."""

    @contextmanager
    def span(self, name: str, **tags):
        yield None


class ClusterCounters:
    """Count engine events of every :class:`Cluster` built while
    installed, and sum the daemons' public counters afterwards.

    ``Cluster.__init__`` is wrapped so clusters built inside
    ``run_seed`` / ``run_cell`` / ``run_schedule`` are covered.  The
    hook suppresses timeout pooling, so a counting pass is never timed.
    """

    def __init__(self):
        self.events = 0
        self.clusters: List[Cluster] = []
        self._orig_init: Optional[object] = None

    def _hook(self, t, event) -> None:
        self.events += 1

    def install(self) -> "ClusterCounters":
        orig = self._orig_init = Cluster.__init__
        counters = self

        def counted_init(cluster, *args, **kw):
            orig(cluster, *args, **kw)
            cluster.engine.trace = counters._hook
            counters.clusters.append(cluster)

        Cluster.__init__ = counted_init
        return self

    def uninstall(self) -> None:
        Cluster.__init__ = self._orig_init

    def totals(self) -> Dict[str, float]:
        """Public counters summed over every cluster seen."""
        out = dict.fromkeys((
            "processes", "net_msgs", "net_bytes", "rpcs", "lookups",
            "revocations", "journal_segments", "journal_stalls",
            "journal_events", "stored_bytes", "osd_writes",
            "rpc_retries", "redirects", "mds_busy_s", "sim_s",
        ), 0.0)
        for cluster in self.clusters:
            out["processes"] += cluster.engine.processes_started
            out["net_msgs"] += cluster.network.total_messages
            out["net_bytes"] += cluster.network.total_bytes
            out["sim_s"] += cluster.now
            for mds in cluster.mds_list:
                counts = mds.stats.counters()
                out["rpcs"] += counts.get("rpcs", 0)
                out["lookups"] += counts.get("lookups", 0)
                out["revocations"] += mds.caps.revocations
                out["journal_segments"] += mds.journal.segments_dispatched
                out["journal_stalls"] += mds.journal.stalls
                out["journal_events"] += mds.journal.events_logged
                out["mds_busy_s"] += (
                    mds.cpu_utilization(0.0, cluster.now) * cluster.now
                )
            for osd in cluster.objstore.osds:
                out["stored_bytes"] += osd.stored_bytes
                out["osd_writes"] += osd.stats.counters().get("writes", 0)
            for client in cluster.clients:
                counts = client.stats.counters()
                out["rpc_retries"] += counts.get("rpc_retries", 0)
                out["redirects"] += counts.get("redirects", 0)
        return out
