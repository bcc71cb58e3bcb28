"""The Cudele namespace API.

"Users control consistency and durability for subtrees by contacting a
daemon in the system called a monitor ... For example,
(msevilla/mydir, policies.yml) would decouple the path 'msevilla/mydir'
and would apply the policies in 'policies.yml'."  (paper §III-C)

:class:`Cudele` is the administrator's handle: ``decouple`` assigns a
policy to a subtree (returning a :class:`DecoupledNamespace` the
application works through), ``retarget`` changes a subtree's semantics
dynamically (paper §VII future work: "dynamically changing semantics of
a subtree from stronger to weaker guarantees (or vice versa)").
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Union

from repro.client.decoupled import DecoupledClient
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext
from repro.core.policy import SubtreePolicy, check_plan
from repro.core.policyfile import parse_policies
from repro.core.semantics import Consistency, Durability
from repro.mds.mdstore import FsError
from repro.mds.migrate import migrate_subtree
from repro.mds.server import Request
from repro.sim.engine import Event

__all__ = ["Cudele", "DecoupledNamespace", "EmbeddingError"]


class EmbeddingError(ValueError):
    """A child policy would weaken its parent subtree's guarantees."""


def _policy_semantics(policy: SubtreePolicy) -> tuple:
    """Infer the (Consistency, Durability) cell a policy lands in."""
    mechs = set(policy.plan.mechanisms)
    if "rpcs" in mechs:
        consistency = Consistency.STRONG
    elif {"volatile_apply", "nonvolatile_apply"} & mechs:
        consistency = Consistency.WEAK
    else:
        consistency = Consistency.INVISIBLE
    if {"stream", "global_persist"} & mechs:
        durability = Durability.GLOBAL
    elif "local_persist" in mechs:
        durability = Durability.LOCAL
    else:
        durability = Durability.NONE
    return consistency, durability


class DecoupledNamespace:
    """An application's handle on one policy-governed subtree."""

    def __init__(
        self,
        cudele: "Cudele",
        path: str,
        policy: SubtreePolicy,
        dclient: Optional[DecoupledClient],
    ):
        self.cudele = cudele
        self.cluster: Cluster = cudele.cluster
        self.path = path
        self.policy = policy
        self.dclient = dclient
        self.finalized = False
        self.last_timings: dict = {}

    @property
    def semantics(self) -> tuple:
        return _policy_semantics(self.policy)

    # -- operations -----------------------------------------------------------
    def create_many(
        self, names_or_count: Union[int, Sequence[str]], subdir: str = ""
    ) -> Generator[Event, None, int]:
        """Create files under the subtree per the policy's workload mode."""
        target = self.path.rstrip("/") + ("/" + subdir.strip("/") if subdir else "")
        if self.policy.is_decoupled:
            assert self.dclient is not None
            return (yield from self.dclient.create_many(target, names_or_count))
        client = self.cudele.rpc_client_for(self)
        resp = yield from client.create_many(target, names_or_count)
        if not resp.ok:
            raise OSError(resp.error)
        return resp.value if isinstance(resp.value, int) else len(resp.value)

    # -- completion -------------------------------------------------------------
    def finalize(self) -> Generator[Event, None, dict]:
        """Run the policy's completion mechanisms (merge/persist).

        "the consistency and durability properties in Table I are not
        guaranteed until all mechanisms in the cell are complete" — the
        returned dict maps each completion mechanism to its duration.
        """
        ctx = MechanismContext(
            cluster=self.cluster,
            subtree=self.path,
            dclient=self.dclient,
        )
        timings = yield from self.policy.plan.execute(ctx)
        if self.dclient is not None:
            merged = {"volatile_apply", "nonvolatile_apply"} & set(
                self.policy.plan.mechanisms
            )
            if merged:
                self.dclient.journal.clear()
                self.dclient.counted_ops = 0
        self.finalized = True
        self.last_timings = timings
        return timings

    def pending_updates(self) -> int:
        return self.dclient.pending_events if self.dclient else 0


class Cudele:
    """Administrator API over one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._rpc_clients: dict = {}

    # -- helpers ---------------------------------------------------------------
    def rpc_client_for(self, ns: DecoupledNamespace):
        client = self._rpc_clients.get(ns.path)
        if client is None:
            client = self.cluster.new_client()
            self._rpc_clients[ns.path] = client
        return client

    def _place(self, path: str, rank: int) -> Generator[Event, None, None]:
        """Honor a policy's ``mds_rank`` placement hint (process body).

        A subtree with no materialized rows is assigned statically via
        the monitor's authority map; a populated subtree is moved by a
        live migration so in-flight traffic keeps being served.
        """
        cluster = self.cluster
        if not 0 <= rank < len(cluster.mds_list):
            raise ValueError(f"policy names MDS rank {rank}, which does not exist")
        if cluster.mon.authority_of(path) == rank:
            return
        src = cluster.mds_for(path)
        populated = False
        if src.config.materialize:
            try:
                src.mdstore.resolve(path)
                populated = True
            except FsError:
                populated = False
        if not populated:
            yield from cluster.mon.set_authority(path, rank, src="cudele")
            return
        result = yield from migrate_subtree(cluster, path, rank)
        if not result.ok:
            raise RuntimeError(
                f"placement migration of {path} to rank {rank} failed: "
                f"{result.reason}"
            )

    # -- the API ---------------------------------------------------------------
    def decouple(
        self,
        path: str,
        policy: Union[SubtreePolicy, str, None] = None,
        dclient: Optional[DecoupledClient] = None,
        persist_each: bool = False,
    ) -> Generator[Event, None, DecoupledNamespace]:
        """Assign ``policy`` to ``path`` (process body).

        ``policy`` may be a :class:`SubtreePolicy`, the text of a
        policies file, or ``None`` for the defaults.  For decoupled
        policies a :class:`~repro.client.decoupled.DecoupledClient` is
        created (or the one supplied is used) and provisioned with the
        policy's allocated inodes.
        """
        if policy is None:
            policy = SubtreePolicy()
        elif isinstance(policy, str):
            policy = parse_policies(policy)
        # Static gate: reject compositions whose mechanism dependencies
        # cannot hold (e.g. nonvolatile_apply with no journal upstream)
        # before any simulated work happens.
        check_plan(policy.plan, raise_on_error=True)
        if policy.mds_rank is not None and len(self.cluster.mds_list) > 1:
            yield from self._place(path, policy.mds_rank)
        mds = self.cluster.mds_for(path)
        made = mds.ensure_dirs(path)
        if made:
            yield from mds.journal.log_events(events=made)
        if policy.is_decoupled and dclient is None:
            dclient = self.cluster.new_decoupled_client(
                persist_each=persist_each,
                persist_backend=policy.persist_backend,
            )
        if dclient is not None:
            policy.owner_client = dclient.client_id
        # The monitor's versioned map is where the policy lives; the MDS
        # enforces it from there.
        yield from self.cluster.mon.set_subtree(path, policy)
        mds = self.cluster.mds_for(path)
        # Provision the Allocated Inodes contract.
        if dclient is not None and policy.allocated_inodes > 0:
            resp = yield mds.submit(
                Request(
                    "provision", path, dclient.client_id,
                    count=policy.allocated_inodes,
                )
            )
            if not resp.ok:
                raise RuntimeError(f"inode provisioning failed: {resp.error}")
            dclient.assign_inodes(resp.value)
        return DecoupledNamespace(self, path, policy, dclient)

    def embed(
        self,
        parent: DecoupledNamespace,
        path: str,
        policy: Union[SubtreePolicy, str],
        dclient: Optional[DecoupledClient] = None,
        persist_each: bool = False,
    ) -> Generator[Event, None, DecoupledNamespace]:
        """Embeddable policies (paper §VII future work).

        "child subtrees have specialized features but still maintain
        guarantees of their parent subtrees.  For example, a RAMDisk
        subtree is POSIX IO-compliant but relaxes durability
        constraints, so it can reside under a POSIX IO subtree."

        The maintained guarantees are *consistency* and *exclusive
        access*: a child may relax durability (the RAMDisk example) but
        may not weaken the parent's consistency, nor open an
        ``interfere: block`` parent to other clients with ``allow``;
        violations raise :class:`EmbeddingError`.
        """
        if isinstance(policy, str):
            policy = parse_policies(policy)
        norm_parent = parent.path.rstrip("/")
        if not (path.rstrip("/") + "/").startswith(norm_parent + "/"):
            raise EmbeddingError(
                f"{path!r} is not inside the parent subtree {parent.path!r}"
            )
        parent_c, _ = _policy_semantics(parent.policy)
        child_c, _ = _policy_semantics(policy)
        if child_c < parent_c:
            raise EmbeddingError(
                f"child consistency {child_c.value!r} weakens the parent's "
                f"{parent_c.value!r}; embedded subtrees must maintain the "
                "parent's consistency guarantee"
            )
        if parent.policy.interfere == "block" and policy.interfere == "allow":
            raise EmbeddingError(
                f"{path!r} sets interfere=allow inside {parent.path!r}, "
                "which blocks interference; the parent promised its client "
                "exclusive access"
            )
        return (yield from self.decouple(
            path, policy, dclient=dclient, persist_each=persist_each
        ))

    def retarget(
        self, ns: DecoupledNamespace, new_policy: Union[SubtreePolicy, str]
    ) -> Generator[Event, None, DecoupledNamespace]:
        """Dynamically change a subtree's semantics (paper §VII).

        Strengthening consistency merges outstanding updates;
        strengthening durability persists them.  "Cudele makes no
        guarantee until the mechanisms are complete."
        """
        if isinstance(new_policy, str):
            new_policy = parse_policies(new_policy)
        check_plan(new_policy.plan, raise_on_error=True)
        old_c, old_d = _policy_semantics(ns.policy)
        new_c, new_d = _policy_semantics(new_policy)
        ctx = MechanismContext(
            cluster=self.cluster, subtree=ns.path, dclient=ns.dclient
        )
        if ns.dclient is not None and ns.pending_updates():
            from repro.core.mechanisms import run_mechanism

            if new_c > old_c or new_c is Consistency.STRONG:
                yield from run_mechanism("volatile_apply", ctx)
                ns.dclient.journal.clear()
                ns.dclient.counted_ops = 0
            elif new_d > old_d:
                mech = (
                    "global_persist"
                    if new_d is Durability.GLOBAL
                    else "local_persist"
                )
                yield from run_mechanism(mech, ctx)
        if new_policy.is_decoupled:
            new_policy.owner_client = (
                ns.dclient.client_id if ns.dclient else None
            )
        if new_policy.mds_rank is not None and len(self.cluster.mds_list) > 1:
            # Placement retarget: move the live subtree to the rank the
            # new policy names before the policy itself lands there.
            yield from self._place(ns.path, new_policy.mds_rank)
        yield from self.cluster.mon.set_subtree(ns.path, new_policy)
        return DecoupledNamespace(self, ns.path, new_policy, ns.dclient)

    def recouple(self, ns: DecoupledNamespace) -> Generator[Event, None, dict]:
        """Finalize the subtree and remove its policy (back to inherited)."""
        timings = yield from ns.finalize()
        yield from self.cluster.mon.clear_subtree(ns.path)
        if ns.dclient is not None:
            self.cluster.mds_for(ns.path).mdstore.inotable.release_unused(
                ns.dclient.client_id
            )
        return timings

    def policy_of(self, path: str) -> Optional[SubtreePolicy]:
        return self.cluster.mon.resolve(path)
