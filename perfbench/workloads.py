"""The benchmark's three workloads: scenario files, commands and seeds.

Scenario files are fixed, so every seed costs the same work; the seed
argument picks each command's Monte Carlo seed (see ``command_seed``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# Linear families with unequal collapse times: dt_min < dt_max, so each
# window scenario here sits in the regime where the two-term window
# formula and the exact mixture differ.
SCENARIOS = {
    "truncexp3": {
        "p0": [0.2, 0.3, 0.5],
        "family": {"kind": "linear", "dt": [0.25, 0.5, 1.0]},
        "window": {"dt_window": 1.0, "g": {"kind": "truncexp", "rate": 0.5}},
    },
    "truncexp4": {
        "p0": [0.1, 0.2, 0.3, 0.4],
        "family": {"kind": "linear", "dt": [0.2, 0.4, 0.6, 0.8]},
        "window": {"dt_window": 1.0, "g": {"kind": "truncexp", "rate": 0.5}},
    },
    "table2": {
        "p0": [0.4, 0.6],
        "family": {"kind": "linear", "dt": [0.3, 0.8]},
        "window": {"dt_window": 1.0,
                   "g": {"kind": "table", "times": [0.0, 0.5, 1.0],
                         "values": [0.5, 1.5, 0.5]}},
    },
    "schedule3": {
        "p0": [0.2, 0.3, 0.5],
        "family": {"kind": "linear", "dt": [0.25, 0.5, 1.0]},
        "schedule": {"tA": 0.0, "tB": 0.3, "x": 1},
    },
    "uniform3": {
        "p0": [0.2, 0.3, 0.5],
        "family": {"kind": "linear", "dt": [0.25, 0.5, 1.0]},
        "window": {"dt_window": 1.0, "g": {"kind": "uniform"}},
    },
    "witness3": {
        "p0": [0.25, 0.35, 0.4],
        "family": {"kind": "linear", "dt": [0.2, 0.6, 1.0]},
    },
    "family8": {
        "p0": [0.05, 0.1, 0.15, 0.2, 0.1, 0.15, 0.1, 0.15],
        "family": {"kind": "linear", "dt": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]},
    },
    # skewed prior: at 24 replicas some expected counts are below 5, so the
    # goodness-of-fit test enumerates all C(27, 3) = 2925 compositions
    "skewed4": {
        "p0": [0.7, 0.2, 0.07, 0.03],
        "family": {"kind": "linear", "dt": [0.2, 0.4, 0.6, 0.8]},
        "schedule": {"tA": 0.0, "tB": 0.3, "x": 1},
    },
}


@dataclass(frozen=True)
class Command:
    """One ``collapse-box`` invocation of a workload."""

    name: str
    verb: str
    scenario: str
    n: int | None = None
    grid: str | None = None
    exact_gof: bool = False        # the p-value must come from the exact path
    analytic_target: bool = False  # also check the library's window_marginal

    @property
    def writes_csv(self) -> bool:
        return self.verb != "validate"

    def argv(self, scenario_path: str, seed: int, out_dir: str | None) -> list:
        args = [self.verb, "--scenario", scenario_path]
        if self.writes_csv:
            args += ["--out", out_dir, "--seed", str(seed)]
        if self.n is not None:
            args += ["--n", str(self.n)]
        if self.grid is not None:
            args += ["--grid", self.grid]
        return args


WORKLOADS = {
    "window-analytic": (
        Command("simulate-truncexp3", "simulate", "truncexp3", n=20_000, analytic_target=True),
        Command("simulate-truncexp4", "simulate", "truncexp4", n=20_000, analytic_target=True),
        Command("simulate-table2", "simulate", "table2", n=20_000, analytic_target=True),
    ),
    "mc-throughput": (
        Command("simulate-schedule3", "simulate", "schedule3", n=4_000_000),
        Command("simulate-uniform3", "simulate", "uniform3", n=4_000_000),
    ),
    "witness-sweep": (
        Command("witness-grid11", "witness", "witness3", n=100_000, grid="0:1:11"),
        Command("sweep-dt-window", "sweep", "uniform3", n=20_000,
                grid="dt=0.25,0.5;dt_window=1.0,2.0"),
        Command("validate-family8", "validate", "family8"),
        Command("simulate-exact-gof", "simulate", "skewed4", n=24, exact_gof=True),
    ),
}


def command_seed(seed: int, workload: str, command: str) -> int:
    """Master seed of one command: the first 4 bytes of sha256("workload/command/seed")."""
    digest = hashlib.sha256(f"{workload}/{command}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def write_scenarios(workload: str, directory: str) -> dict:
    """Write the workload's scenario files; returns {scenario key: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for cmd in WORKLOADS[workload]:
        path = os.path.join(directory, f"{cmd.scenario}.json")
        with open(path, "w") as fh:
            json.dump(SCENARIOS[cmd.scenario], fh, indent=1)
        paths[cmd.scenario] = path
    return paths
