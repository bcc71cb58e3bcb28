"""Deterministic fault injection on top of the DES engine.

The :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a :class:`~repro.cluster.Cluster`: it resolves each fault's target
name to the live component, runs as an engine process that sleeps until
each fault's simulated time, and executes the action (``crash`` /
``recover`` / ``partition`` / ``heal``).

Everything it does is deterministic: faults fire at exact simulated
times, recovery work (journal replays, disk re-reads) runs through the
same simulated resources as regular traffic, and :meth:`report`
renders a canonical text record — repeating a run with the same seed
must reproduce it byte for byte (the determinism tests diff it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.faults.plan import Fault, FaultPlan
from repro.sim.engine import Event, Timeout
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a fault plan against a cluster (one engine process)."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.engine = cluster.engine
        self.stats = StatsRegistry(self.engine, "faults")
        #: Canonical record of executed faults: (time, description).
        self.log: List[Tuple[float, str]] = []
        #: Completed recoveries: (target, crash_time, recover_done_time).
        self.recoveries: List[Tuple[str, float, float]] = []
        self._down_since = {}

    # -- target resolution ------------------------------------------------
    def resolve(self, target: str):
        """Map a target name to the live component it names."""
        if target.startswith("osd."):
            idx = int(target.split(".", 1)[1])
            osds = self.cluster.objstore.osds
            if not 0 <= idx < len(osds):
                raise KeyError(f"no such OSD {target!r}")
            return osds[idx]
        for mds in self.cluster.mds_list:
            if mds.name == target:
                return mds
        for client in self.cluster._clients:
            if client.name == target:
                return client
        for dclient in self.cluster._dclients:
            if dclient.name == target:
                return dclient
        raise KeyError(f"unknown fault target {target!r}")

    # -- driving ----------------------------------------------------------
    def start(self):
        """Launch the injection driver; returns its Process.

        Resolves every target up front: a typo'd name must fail here,
        not kill the driver process mid-run where nothing observes it.
        """
        for fault in self.plan.sorted_faults():
            if fault.action in ("partition", "heal"):
                self.resolve(fault.params["a"])
                self.resolve(fault.params["b"])
            else:
                self.resolve(fault.target)
        return self.engine.process(self._driver(), name="fault-injector")

    def _driver(self) -> Generator[Event, None, int]:
        executed = 0
        for fault in self.plan.sorted_faults():
            if fault.time > self.engine.now:
                yield Timeout(self.engine, fault.time - self.engine.now)
            yield from self._execute(fault)
            executed += 1
        return executed

    def inject(self, fault: Fault) -> Generator[Event, None, None]:
        """Execute one fault immediately (process body) — lets tests and
        workloads interleave faults with their own steps."""
        yield from self._execute(fault)

    # -- execution --------------------------------------------------------
    def _execute(self, fault: Fault) -> Generator[Event, None, None]:
        if fault.action == "partition":
            self.cluster.network.partition(fault.params["a"], fault.params["b"])
            self.stats.counter("partitions").incr()
            self._log(fault, "severed")
            return
        if fault.action == "heal":
            self.cluster.network.heal(fault.params["a"], fault.params["b"])
            self.stats.counter("heals").incr()
            self._log(fault, "healed")
            return

        component = self.resolve(fault.target)
        if fault.action == "persist_fault":
            detail = self._arm_persist_fault(component, fault)
            self.stats.counter("persist_faults").incr()
            self._log(fault, detail)
            return
        if fault.action == "crash":
            detail = self._crash(component, fault)
            self.stats.counter("crashes").incr()
            self._down_since[fault.target] = self.engine.now
            self._log(fault, detail)
            return
        # recover: may consume simulated time (journal replay, disk read)
        t0 = self.engine.now
        detail = yield from self._recover(component, fault)
        self.stats.counter("recoveries").incr()
        crashed_at = self._down_since.pop(fault.target, t0)
        latency = self.engine.now - crashed_at
        self.stats.series("recovery_latency_s").record(self.engine.now, latency)
        self.recoveries.append((fault.target, crashed_at, self.engine.now))
        self._log(fault, f"{detail} latency={latency:.6f}")

    def _crash(self, component, fault: Fault) -> str:
        kind = type(component).__name__
        if kind == "OSD":
            component.crash(lose_volatile=fault.params.get("lose_volatile", False))
            return "osd down"
        if kind == "MetadataServer":
            summary = component.crash()
            return (
                f"journal_events_lost={summary['journal_events_lost']} "
                f"requests_failed={summary['requests_failed']}"
            )
        if kind == "DecoupledClient":
            lost = component.crash(lose_disk=fault.params.get("lose_disk", False))
            return f"journal_events_lost={lost}"
        component.crash()  # rpc Client: soft state only
        return "client down"

    def _arm_persist_fault(self, component, fault: Fault) -> str:
        """Arm the next persist by ``component`` to land corrupted.

        Local scope arms the decoupled client's own persist path; global
        scope arms every OSD so the client's striped-journal write is
        corrupted identically on each replica (same mode+seed => same
        bytes, so replicas never diverge).
        """
        if type(component).__name__ != "DecoupledClient":
            raise ValueError(
                f"persist_fault targets decoupled clients, not "
                f"{fault.target!r}"
            )
        mode = fault.params["mode"]
        seed = fault.params.get("seed", 0)
        scope = fault.params.get("scope", "local")
        if scope == "local":
            component.arm_persist_fault(mode, seed)
            return f"armed mode={mode} scope=local"
        notify = self._persist_fault_notifier(component, mode)
        prefix = f"{component.name}.journal."
        osds = self.cluster.objstore.osds
        for osd in osds:
            osd.arm_write_fault(mode, seed, match=prefix, notify=notify)
        return f"armed mode={mode} scope=global osds={len(osds)}"

    def _persist_fault_notifier(self, dclient, mode: str):
        """Callback the OSD write path fires after storing the corrupted
        object.  Every replica stores the same damaged bytes and fires
        it; the *last* replica's call scans what landed and reports the
        surviving valid prefix to the cluster's observers — after every
        replica's ``object-written`` mark has produced its (idempotent)
        persisted claims, so the fault record lands once, at the end."""
        calls: List[str] = []

        def notify(name: str, stored: bytes) -> None:
            calls.append(name)
            if len(calls) != len(
                self.cluster.objstore.placement("metadata", name)
            ):
                return
            tap = self.cluster.tap
            if tap is None:
                return
            from repro.journal.format import JournalCodec

            tap.mark(
                "persist-fault", dclient.name, scope="global", mode=mode,
                scan=JournalCodec.scan_stream(stored),
                client=dclient.client_id,
            )

        return notify

    def _recover(self, component, fault: Fault) -> Generator[Event, None, str]:
        kind = type(component).__name__
        if kind == "OSD":
            component.recover()
            return "osd up"
        if kind == "MetadataServer":
            replayed = yield self.engine.process(component.recover())
            return f"replayed={replayed}"
        if kind == "DecoupledClient":
            mode = fault.params.get("mode", "local")
            if mode == "global":
                striper = fault.params.get("striper")
                if striper is None:
                    from repro.rados.striper import Striper

                    striper = Striper(
                        self.cluster.objstore, "metadata",
                        f"{component.name}.journal",
                    )
                restored = yield self.engine.process(
                    component.recover_global(striper)
                )
            else:
                restored = yield self.engine.process(component.recover_local())
            return f"mode={mode} restored={restored}"
        component.recover()  # rpc Client
        return "client up"

    # -- reporting --------------------------------------------------------
    def _log(self, fault: Fault, detail: str) -> None:
        self.log.append(
            (self.engine.now,
             f"t={self.engine.now:.6f} {fault.action} {fault.target} {detail}")
        )

    def report(self, components: Optional[List] = None) -> str:
        """Canonical text record of the run: the executed fault log plus
        the injector's (and optionally each component's) stats.  Same
        seed + same schedule must reproduce this byte for byte."""
        lines = ["# fault log"]
        lines.extend(entry for _, entry in self.log)
        lines.append("# injector stats")
        lines.append(self.stats.render())
        for comp in components or []:
            stats = getattr(comp, "stats", None)
            if stats is not None:
                lines.append(f"# {comp.name}")
                lines.append(stats.render())
        return "\n".join(line for line in lines if line) + "\n"
