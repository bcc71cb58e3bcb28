"""Deterministic per-component random streams.

Every simulated daemon owns its own :class:`RngStream` derived from a
root seed plus the component's name, so adding a client to a scenario
never perturbs the random draws of existing components — runs stay
reproducible under configuration changes, which the paper's
normalized-comparison methodology (and our regression tests) rely on.

The scalar draws on the per-op path (``uniform``, ``exponential``,
``lognormal_service``) call the generator's bare primitives (``random``,
``standard_exponential``, ``standard_normal``) and apply numpy's own
arithmetic in Python, which skips numpy's per-call argument dispatch
without changing a bit of any draw: numpy computes
``low + (high - low) * u``, ``scale * e`` and ``exp(mu + sigma * z)``
in doubles, and so does this module (see
docs/PERFORMANCE.md §10; ``tests/sim/test_stats_rng.py`` holds the
differential against a twin ``numpy.random.Generator``).
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

__all__ = ["RngStream"]


@functools.lru_cache(maxsize=256)
def _lognormal_params(mean: float, cv: float) -> tuple:
    """``(mu, sigma)`` of the lognormal with this mean and CV, by the
    numpy expressions every draw used to evaluate."""
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(mu), float(np.sqrt(sigma2))


class RngStream:
    """A named, seeded wrapper around :class:`numpy.random.Generator`."""

    def __init__(self, root_seed: int, name: str):
        self.root_seed = int(root_seed)
        self.name = name
        digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
        self._gen = gen = np.random.default_rng(
            int.from_bytes(digest[:8], "little")
        )
        self._random = gen.random
        self._standard_exponential = gen.standard_exponential
        self._standard_normal = gen.standard_normal

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent stream for a sub-component."""
        return RngStream(self.root_seed, f"{self.name}/{suffix}")

    # Scalar draws used by the workloads -------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        low = float(low)
        span = float(high) - low
        if not 0.0 < span < math.inf:  # numpy's checks, in numpy's order
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if math.copysign(1.0, span) < 0.0:
                raise ValueError("high - low < 0")
        return low + span * self._random()

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError("mean must be positive")
        return float(mean) * self._standard_exponential()

    def normal(self, mean: float, std: float) -> float:
        return float(self._gen.normal(mean, std))

    def lognormal_service(self, mean: float, cv: float = 0.1) -> float:
        """A service time with the given mean and coefficient of variation.

        Used to jitter per-operation costs: real metadata servers show
        small variance around the mean service time, and this is what
        produces the non-zero error bars in Figures 3b and 6b.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cv < 0:
            raise ValueError("cv must be >= 0")
        if cv == 0:
            return mean
        mu, sigma = _lognormal_params(mean, cv)
        try:
            return math.exp(mu + sigma * self._standard_normal())
        except OverflowError:  # C's exp saturates where math.exp raises
            return math.inf

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        self._gen.shuffle(seq)
