"""Experiment tasks judge the replies they time."""

import pytest

from repro.bench import experiments
from repro.bench.scales import TINY


def test_fig5_raises_on_a_refused_create(monkeypatch):
    # Regression: on a materialized MDS the RPC runs were answered
    # ``ENOENT: /sub`` (the workload never makes the directory), and the
    # task timed the refusals as an RPC overhead instead of failing.
    real = experiments._cluster

    def materialized(seed, **kwargs):
        return real(seed, **{**kwargs, "materialize": True})

    monkeypatch.setattr(experiments, "_cluster", materialized)
    with pytest.raises(RuntimeError, match="ENOENT"):
        experiments._fig5_seed((0, TINY))
