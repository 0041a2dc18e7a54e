"""Finite-time collapse dynamics for device-independent black boxes.

Analytic probability evaluators for single- and two-box collapse
scenarios, a seeded Monte Carlo engine that cross-checks every evaluator,
and signaling quantification (witness sweeps, induced-channel capacity).
"""

__version__ = "0.3.0"

from .behaviors import (
    BoxBehavior,
    Distribution,
    chsh_value,
    is_local,
    is_nonsignaling,
    make_distribution,
    pr_box,
    tv_distance,
    uniform_box,
)
from .collapse import CollapseFamily, make_family, marginal_at, validate_family
from .mc import EmpiricalDist, SimConfig, gof_test, simulate_single, simulate_twobox, simulate_window
from .scenarios import (
    Schedule,
    TimeDensity,
    bob_marginal,
    omega,
    theta,
    window_marginal,
)
from .signaling import InducedChannel, WitnessReport, channel_capacity, induced_channel, witness, witness_sweep
