"""General metadata-workload generation.

The evaluation's synthetic workloads (create-heavy, interference,
compile phases) are hand-shaped; this module generates *parameterized*
traces for exploring beyond the paper: a directory-popularity
distribution (uniform or Zipf — metadata traces are notoriously
skewed [Abad et al., UCC'12, cited as paper ref 28]) combined with an
operation mix, replayable against any client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Tuple

import numpy as np

from repro.client.client import Client
from repro.sim.engine import Event
from repro.sim.rng import RngStream

__all__ = ["OpMix", "TraceConfig", "generate_trace", "replay_trace"]


@dataclass(frozen=True)
class OpMix:
    """Relative weights of metadata operation types."""

    create: float = 1.0
    lookup: float = 0.0
    stat: float = 0.0
    ls: float = 0.0

    def __post_init__(self) -> None:
        if min(self.create, self.lookup, self.stat, self.ls) < 0:
            raise ValueError("op weights must be non-negative")
        if self.total == 0:
            raise ValueError("at least one op weight must be positive")

    @property
    def total(self) -> float:
        return self.create + self.lookup + self.stat + self.ls

    def probabilities(self) -> List[Tuple[str, float]]:
        return [
            (name, weight / self.total)
            for name, weight in (
                ("create", self.create),
                ("lookup", self.lookup),
                ("stat", self.stat),
                ("ls", self.ls),
            )
            if weight > 0
        ]


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a generated trace."""

    ops: int
    dirs: int = 16
    #: 0.0 = uniform directory popularity; >0 = Zipf exponent (1.0 is
    #: the classic heavy skew seen in big-storage metadata traces).
    zipf_s: float = 0.0
    mix: OpMix = field(default_factory=OpMix)
    root: str = "/trace"

    def __post_init__(self) -> None:
        if self.ops < 1 or self.dirs < 1:
            raise ValueError("ops and dirs must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf exponent must be >= 0")


def _dir_weights(config: TraceConfig) -> np.ndarray:
    ranks = np.arange(1, config.dirs + 1, dtype=float)
    if config.zipf_s == 0:
        weights = np.ones_like(ranks)
    else:
        weights = ranks ** (-config.zipf_s)
    return weights / weights.sum()


def generate_trace(
    config: TraceConfig, rng: RngStream
) -> Iterator[Tuple[str, str]]:
    """Yield ``(op, dir_path)`` pairs per the configured distributions."""
    weights = _dir_weights(config)
    ops_probs = config.mix.probabilities()
    op_names = [n for n, _ in ops_probs]
    op_p = np.array([p for _, p in ops_probs])
    # The child seed comes from an *integer* draw: truncating a float
    # uniform to int(·) collapses the 2**31 seed space onto the ~2**31
    # representable products of a 53-bit mantissa, so nearby RngStream
    # states could collide on the same numpy seed (and a float-rounding
    # change would silently reshuffle every trace).
    gen = np.random.default_rng(rng.integers(0, 2**63))
    dir_idx = gen.choice(config.dirs, size=config.ops, p=weights)
    op_idx = gen.choice(len(op_names), size=config.ops, p=op_p)
    for d, o in zip(dir_idx, op_idx):
        yield op_names[o], f"{config.root}/dir{d}"


def replay_trace(
    client: Client, config: TraceConfig, rng: RngStream, batch: int = 50
) -> Generator[Event, None, Dict[str, int]]:
    """Replay a generated trace through a client (process body).

    Consecutive same-op/same-dir entries are batched; returns op counts.
    The counts are the accounting contract: every counted op corresponds
    to an op actually issued to (and serviced by) the MDS — a coalesced
    run of ``n`` stat/ls entries goes out as one ``count=n`` request,
    exactly like the lookup path, never as one count-1 request recorded
    as ``n`` ops.
    """
    counts: Dict[str, int] = {}
    pending: List[Tuple[str, str]] = []

    def flush():
        if not pending:
            return
        op, path = pending[0]
        n = len(pending)
        pending.clear()
        counts[op] = counts.get(op, 0) + n
        if op == "create":
            return client.create_many(path, n, batch=batch)
        from repro.mds.server import Request

        if op == "lookup":
            return client._call(
                Request("lookup", path + "/probe", client.client_id, count=n),
                op_count=n,
            )
        if op == "stat":
            return client._call(
                Request("stat", path, client.client_id, count=n), op_count=n
            )
        return client._call(
            Request("ls", path, client.client_id, count=n), op_count=n
        )

    for entry in generate_trace(config, rng):
        if pending and (entry != pending[0] or len(pending) >= batch):
            gen = flush()
            if gen is not None:
                yield from gen
        pending.append(entry)
    gen = flush()
    if gen is not None:
        yield from gen
    return counts
