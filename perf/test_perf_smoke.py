"""Smoke test of the perf ledger: every workload at ``--scale 0.02``,
in-process.  Run with ``python3 -m pytest perf/`` — deliberately outside
tier-1's ``testpaths``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import re
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF), str(PERF.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, bucket_profile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = run.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = 0.02


@pytest.fixture(autouse=True)
def in_process(monkeypatch, tmp_path):
    """Children become function calls; traces land in a temp dir."""

    def spawn(workload, seed, scale, mode):
        # A real child starts with an empty heap: collect the previous
        # run's clusters now, not in the middle of a profiled region.
        gc.collect()
        record = child.run_once(workload, seed, scale, mode)
        return json.loads(json.dumps(record))

    monkeypatch.setattr(run, "spawn", spawn)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _assert_metrics(result, declared):
    names = [d["name"] for d in declared]
    assert sorted(result["metrics"]) == sorted(names)
    for name, value in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(value), (name, value)
    bad = sorted(k for k, ok in result["checks"].items() if not ok)
    assert result["correct"], bad
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_benchmark_names_the_workloads():
    names = [w["name"] for w in BENCH["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_both_passes_emit_the_declared_metrics(workload, tmp_path):
    # The timed pass first: it also finishes every lazy import, so the
    # two profiled runs of the traced pass see identical call counts.
    e2e = run.end_to_end(workload, 0, SCALE, seconds=0.0, repeats=2)
    _assert_metrics(e2e, BENCH["end_to_end"])
    assert all(v > 0 for v in e2e["metrics"].values())

    names = [d["name"] for d in BENCH["per_layer"]]
    layers = run.per_layer(workload, 0, SCALE / run.TRACE_SCALE, names)
    _assert_metrics(layers, BENCH["per_layer"])
    shares = [layers["metrics"][f"{layer}.self_share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    spans = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    assert spans["spans"] and all(
        s["end"] >= s["start"] and s["workload"] == workload
        for s in spans["spans"]
    )


def test_profile_buckets_sum_to_the_profiled_total():
    record = child.run_once("decoupled_merge", 0, SCALE, "profile")
    profile = record["profile"]
    assert set(profile["self_s"]) == set(LAYERS)
    assert all(v >= 0 for v in profile["self_s"].values())
    assert sum(profile["self_s"].values()) == pytest.approx(profile["total_s"])
    # Library time reached from a layer is charged to it, not to other.
    assert 0 <= profile["unreached_s"] <= profile["self_s"]["other"]
    assert profile["self_s"]["journal"] > profile["self_s"]["other"]


def test_library_time_no_layer_called_stays_in_other():
    profiler = cProfile.Profile()
    profiler.enable()
    json.dumps({"a": list(range(1000))})
    profiler.disable()
    profile = bucket_profile(profiler.getstats())
    assert profile["self_s"]["other"] == pytest.approx(profile["total_s"])


def test_compare_flags_regression_unresolved_and_fail_share(capsys):
    def doc(host, repeats, failed=0):
        cells = {
            d["name"]: {"value": 1.0, "unit": d["unit"]}
            for d in BENCH["end_to_end"]
        }
        cells["host_ops_per_s"]["value"] = host
        return {
            "seed": 0, "scale": 1.0,
            "workloads": {"rpc_closed": {
                "end_to_end": cells, "per_repeat": {"host_ops_per_s": repeats},
                "attempted": 100, "failed": failed, "correct": True,
            }},
        }

    base = doc(1000.0, [990.0, 1000.0, 1010.0])
    assert run.compare(base, doc(995.0, [995.0]), BENCH) == 0
    assert run.compare(base, doc(500.0, [500.0]), BENCH) == 1
    assert "REGRESSION" in capsys.readouterr().out
    noisy = doc(1000.0, [500.0, 600.0, 1000.0])
    assert run.compare(noisy, doc(500.0, [500.0]), BENCH) == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare(base, doc(1000.0, [1000.0], failed=1), BENCH) == 1
