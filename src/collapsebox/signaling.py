"""Signaling quantification for the correlated-pair scenario.

The witness compares Bob's output distribution under Alice's two input
choices (total variation distance, corroborated by seeded simulation);
the induced classical channel from Alice's binary choice to Bob's output
is summarized by its Shannon capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behaviors import make_distribution, tv_distance
from .collapse import CollapseFamily
from .errors import EmptyGrid, InvalidSpec
from .mc import SimConfig, gof_test, simulate_single
from .scenarios import bob_marginal

_HALVINGS = 80  # bisection steps: past float resolution on [0, 1]

# analytic TV at or below this is quadrature or rounding residue, never a signal
_DETECTION_FLOOR = 1e-9


@dataclass(frozen=True)
class WitnessReport:
    elapsed: float
    tv_analytic: float
    tv_empirical: float | None
    ci_lo: float | None
    ci_hi: float | None
    pvalue: float | None
    signaling: bool

    @property
    def verdict(self) -> str:
        return "signaling" if self.signaling else "non-signaling"


@dataclass(frozen=True)
class InducedChannel:
    """Rows: Bob's output distribution under x = 0 and x = 1."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] != 2:
            raise InvalidSpec("induced channel needs exactly two rows")
        for row in r:
            make_distribution(row)  # validates
        object.__setattr__(self, "rows", r)
        r.setflags(write=False)


def induced_channel(f: CollapseFamily, elapsed: float) -> InducedChannel:
    p0 = bob_marginal(f, 0, elapsed)
    p1 = bob_marginal(f, 1, elapsed)
    return InducedChannel(np.vstack([p0.weights, p1.weights]))


def witness(f: CollapseFamily, elapsed: float, cfg: SimConfig | None = None,
            alpha: float = 0.01) -> WitnessReport:
    """Analytic signaling witness at one elapsed time, with MC corroboration:
    the one-point `witness_sweep`, whose point 0 runs at cfg.seed."""
    return witness_sweep(f, [elapsed], cfg, alpha)[0]


def witness_sweep(f: CollapseFamily, grid, cfg: SimConfig | None = None,
                  alpha: float = 0.01):
    """One WitnessReport per grid point, in grid order, with MC corroboration
    if `cfg` is given. Bob's x = 1 marginals are P0 @ profile(grid), one call
    of m k^2 doubles for m points and k outcomes, so a negative or NaN point
    fails before any Monte Carlo run. One `simulate_single` call draws Bob's
    x = 1 outputs, point i from its own PCG64DXSM stream,
    SeedSequence(cfg.seed, spawn_key=(i,)), in two multinomial calls
    whatever n; an infinite time, where every row is a delta, is valid too. A signaling verdict needs an analytic TV
    above _DETECTION_FLOOR and a goodness-of-fit rejection, so neither
    quadrature residue nor sampling noise alone can trigger a detection.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise EmptyGrid("witness sweep needs a non-empty time grid")
    p_off = f.p0  # x = 0: Alice's input triggers nothing
    ons = p_off.weights @ f.profile(grid)
    emps = [None] * len(grid) if cfg is None else simulate_single(f, grid, cfg)
    reports = []
    for t, on, emp in zip(grid, ons, emps):
        tv_a = tv_distance(p_off, make_distribution(on, atol=1e-9))
        if emp is None:
            reports.append(WitnessReport(t, tv_a, None, None, None, None, tv_a > _DETECTION_FLOOR))
            continue
        tv_e = 0.5 * float(np.abs(emp.freqs - p_off.weights).sum())
        half = 0.5 * float(emp.wilson_halfwidth().sum())  # conservative propagation
        gof = gof_test(emp, p_off, alpha=alpha)
        reports.append(WitnessReport(t, tv_a, tv_e, max(tv_e - half, 0.0), min(tv_e + half, 1.0),
                                     gof.pvalue, tv_a > _DETECTION_FLOOR and gof.reject))
    return reports


def summarize(f: CollapseFamily, reports):
    """The report of largest analytic TV, the channel capacity at its time,
    and the verdict over all reports."""
    best = max(reports, key=lambda r: r.tv_analytic)
    cap = channel_capacity(induced_channel(f, best.elapsed))
    verdict = "signaling" if any(r.signaling for r in reports) else "non-signaling"
    return best, cap, verdict


def channel_capacity(c: InducedChannel) -> float:
    """Shannon capacity in bits of the two-row channel, by bisection.

    With input weights (1 - r, r) the output law is m_r = p0 + r (p1 - p0)
    and the information I(r) = (1 - r) D(p0||m_r) + r D(p1||m_r) is
    concave; its slope D(p1||m_r) - D(p0||m_r) decreases in r. A fixed
    number of halvings of [0, 1] finds the slope's root to float
    resolution, so there is no tolerance to choose and nothing that can
    fail to converge. Equal rows give exactly 0.

    Each x log(x / m) term takes the C library's log through `math.log`, as
    scipy's xlogy does, and the terms add up output by output.
    """
    cols = c.rows.T.tolist()  # (p0, p1) of each output

    def divergences(r):
        # an output of neither row adds nothing; m > 0 on every other one
        d0 = d1 = 0.0
        for a, b in cols:
            m = a + r * (b - a)
            if a > 0:
                d0 += a * math.log(a / m)
            if b > 0:
                d1 += b * math.log(b / m)
        return d0, d1

    lo, hi = 0.0, 1.0
    for _ in range(_HALVINGS):
        r = 0.5 * (lo + hi)
        d0, d1 = divergences(r)
        lo, hi = (r, hi) if d1 > d0 else (lo, r)
    # two inputs carry at most one bit; the clip removes rounding only
    return float(np.clip(((1.0 - r) * d0 + r * d1) / np.log(2.0), 0.0, 1.0))
