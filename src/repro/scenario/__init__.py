"""Open-loop stochastic traffic: million-user populations over a
bounded pool of real client sessions.

The paper's evaluation drives closed-loop workloads (each client issues
its next op when the previous one completes).  Production metadata
traffic is open-loop: arrival times are set by an external population,
not by service completions, so queueing delay shows up in latency
instead of silently throttling the offered load.  This package models
that population — seeded arrival processes with diurnal modulation,
flash-crowd bursts and a *drifting* Zipf hotspot — multiplexed over a
small pool of simulated RPC sessions, declared in scenario files and
run by ``python -m repro.scenario run <file>``.
"""

from repro.scenario.population import Arrival, PopulationModel
from repro.scenario.report import (
    aggregate_seeds,
    build_artifact,
    compare_artifacts,
    dump_artifact,
    format_report,
    load_artifact,
)
from repro.scenario.runner import run_scenario, run_seed
from repro.scenario.spec import ScenarioSpec, load_spec

__all__ = [
    "Arrival",
    "PopulationModel",
    "ScenarioSpec",
    "aggregate_seeds",
    "build_artifact",
    "compare_artifacts",
    "dump_artifact",
    "format_report",
    "load_artifact",
    "load_spec",
    "run_scenario",
    "run_seed",
]
