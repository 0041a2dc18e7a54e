"""Analytic evaluators for the timed one- and two-box experiment layouts.

Covers the fixed-schedule correlated pair (Bob's marginal under Alice's
two choices) and the randomized window experiment. The pair is fully
described by one `CollapseFamily`, which carries the shared prior P0.
Input 0 on either side is non collapse triggering with deterministic
output 0; input 1 triggers the collapse with first-output prior P0.
Perfect correlation: the (1,1) joint is P0(a,b) = delta_{a,b} P0(b).
The window is one input-time density g (a `TimeDensity`) on
[0, W], W = g.width.

The window layer is built on the density h of D = t_B - t_A at u >= 0,
for i.i.d. input times with density g. D and -D have the same law, so h
has mass 1/2 and Theta = P(|D| <= dt_min) is twice Omega = P(0 <= D <= dt_min).
If Bob acts first (D < 0), his input triggers the collapse and he reads
the latent, whose law is P0. If D = u >= 0, he reads P0 . f(u), which is
P0 again once u >= dt_a for every latent a. The exact marginal is thus

    P0 + integral over [0, min(dt_max, W)] of (P0 . f(u) - P0) h(u) du.

With Theta = 2 Omega, the paper's two-term formula
(1 - Theta) P0 + (Theta / Omega) integral over [0, dt_min] of P0 . f h is

    P0 + 2 integral over [0, min(dt_min, W)] of (P0 . f(u) - P0) h(u) du.

Its factor 2 counts the Bob-first pairs as mid-collapse, and its range
stops at dt_min although latents with longer collapse times still drift:
it differs from the exact marginal whenever dt_min < dt_max.

Times are elapsed seconds from the window start (the agreed instant tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behaviors import Distribution, make_distribution
from .collapse import CollapseFamily, check_elapsed, marginal_at, sorted_union
from .errors import InvalidSpec, NotNormalized
from .quadrature import integrate

_TOL = 1e-9  # absolute tolerance of every window-layer integral
# a truncexp window holds its mass within a few 1/rate of 0; past this
# rate * width the quadrature needs too many bisections to resolve it
MAX_RATE_WIDTH = 1e6


@dataclass(frozen=True)
class TimeDensity:
    """Input-time density g on [0, width].

    kinds: "uniform"; "truncexp" (rate > 0, truncated exponential);
    "table" (piecewise-linear density on a user grid spanning [0, width]).
    """

    kind: str
    width: float
    rate: float | None = None
    grid_times: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise InvalidSpec("window width must be finite and positive")
        if self.kind == "uniform":
            pass
        elif self.kind == "truncexp":
            if self.rate is None or not (math.isfinite(self.rate) and self.rate > 0):
                raise InvalidSpec("truncexp needs a finite positive rate")
            if self.rate * self.width > MAX_RATE_WIDTH:
                raise InvalidSpec(f"truncexp rate * width {self.rate * self.width:.6g} "
                                  f"exceeds {MAX_RATE_WIDTH:g}")
        elif self.kind == "table":
            try:
                t = np.asarray(self.grid_times, dtype=float)
                v = np.asarray(self.grid_values, dtype=float)
            except (TypeError, ValueError):
                raise InvalidSpec("density 'times' and 'values' must be numbers") from None
            if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
                raise InvalidSpec("density grid must be strictly increasing")
            if abs(t[0]) > 1e-12 or abs(t[-1] - self.width) > 1e-9:
                raise InvalidSpec("density grid must span [0, width]")
            if v.shape != t.shape or not np.all(v >= 0):
                raise InvalidSpec("density values must be non-negative, one per node")
            mass = float(np.trapezoid(v, t))
            if abs(mass - 1.0) > 1e-9:
                raise NotNormalized(f"density integrates to {mass!r}, not 1")
            object.__setattr__(self, "grid_times", t)
            object.__setattr__(self, "grid_values", v)
        else:
            raise InvalidSpec(f"unknown density kind {self.kind!r}")

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0) & (t <= self.width)
        if self.kind == "uniform":
            out = np.where(inside, 1.0 / self.width, 0.0)
        elif self.kind == "truncexp":
            norm = -math.expm1(-self.rate * self.width)
            out = np.where(inside, self.rate * np.exp(-self.rate * t) / norm, 0.0)
        else:
            out = np.where(inside, np.interp(t, self.grid_times, self.grid_values,
                                             left=0.0, right=0.0), 0.0)
        return out if out.ndim else float(out)

    def sample(self, u):
        """Inverse-CDF transform of uniforms u in [0, 1).

        A table's CDF is quadratic on each piece: mass q past knot t_i
        lies at x = 2q / (v_i + sqrt(v_i^2 + 2 s_i q)) beyond it, where v_i
        is the density at t_i and s_i its slope. This form of the root is
        exact for flat pieces (s_i = 0) and loses no digits to cancellation.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return u * self.width
        if self.kind == "truncexp":
            norm = -math.expm1(-self.rate * self.width)
            return -np.log1p(-u * norm) / self.rate
        t, v = self.grid_times, self.grid_values
        widths = np.diff(t)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * widths)])
        q = u * cdf[-1]
        i = np.clip(np.searchsorted(cdf, q, side="right") - 1, 0, widths.size - 1)
        q = q - cdf[i]
        vi, slope = v[i], (v[i + 1] - v[i]) / widths[i]
        root = vi + np.sqrt(np.maximum(vi * vi + 2.0 * slope * q, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(q > 0, 2.0 * q / root, 0.0)
        return t[i] + np.clip(x, 0.0, widths[i])

    def breakpoints(self):
        """Kinks of g and of its difference density: every knot difference of a
        table. A truncexp density gets 2**k / rate for k = 0..5, so that some
        Gauss node lands where its difference density still has mass."""
        if self.kind == "table":
            return tuple(sorted_union(np.abs(np.subtract.outer(self.grid_times, self.grid_times))))
        if self.kind == "truncexp":
            return tuple(2.0**k / self.rate for k in range(6))
        return ()


@dataclass(frozen=True)
class Schedule:
    """Fixed input times on the shared clock, and Alice's choice."""

    t_a: float
    t_b: float
    x: int

    def __post_init__(self):
        if not (math.isfinite(self.t_a) and math.isfinite(self.t_b)):
            raise InvalidSpec("schedule times must be finite")
        if self.x not in (0, 1):
            raise InvalidSpec("Alice's choice must be 0 or 1")
        if self.t_b < self.t_a:
            raise InvalidSpec("fixed-schedule scenario requires t_b >= t_a")


def bob_marginal(f: CollapseFamily, x: int, elapsed: float) -> Distribution:
    """Bob's output distribution under Alice's choice x at the given elapsed time.

    x = 0: Alice's input triggers nothing, Bob sees the prior.
    x = 1: the pair collapses to a shared latent outcome at Alice's input;
    Bob's probe at `elapsed` is governed by the collapse family.
    A negative or NaN elapsed time raises for either x (`check_elapsed`);
    x = 0 evaluates no part of the family.
    """
    if x == 1:
        return marginal_at(f, elapsed)
    check_elapsed(elapsed)
    return f.p0


def difference_density(g: TimeDensity, u):
    """h(u) = integral of g(t) g(t + u) dt over [0, W - u], the density of D at u >= 0.

    u is a float or an array, like `TimeDensity.pdf`'s argument; h is 0
    outside [0, W]. uniform: ``(W - u) / W^2``; truncexp (rate lam):
    ``lam e^{-lam u} (1 - e^{-2 lam (W - u)}) / (2 N^2)`` with ``N = 1 - e^{-lam W}``,
    both differences of 1 taken by expm1 so that a tiny rate keeps its digits;
    table: g(t) g(t + u) is quadratic between the knots merged with the
    knots shifted by -u, so Simpson's rule is exact on each piece. Those
    merged knots are sorted one row per u; a repeated knot adds an empty piece.
    """
    u = np.asarray(u, dtype=float)
    width = g.width
    v = np.clip(u, 0.0, width)
    if g.kind == "uniform":
        out = (width - v) / width**2
    elif g.kind == "truncexp":
        lam, norm = g.rate, -math.expm1(-g.rate * width)
        # lam / norm first: norm**2 underflows for a rate below about 1e-154
        out = lam / norm * np.exp(-lam * v) * -np.expm1(-2.0 * lam * (width - v)) / (2.0 * norm)
    else:
        knots, values = g.grid_times, g.grid_values
        v = v.reshape(-1, 1)
        t = np.sort(np.clip(np.concatenate([np.broadcast_to(knots, (v.size, knots.size)),
                                            knots - v], axis=1), 0.0, width - v), axis=1)
        lo, hi = t[:, :-1], t[:, 1:]

        def product(x):
            # np.interp holds g(W) where x + u rounds past W; g.pdf would read 0
            return np.interp(x, knots, values) * np.interp(x + v, knots, values)

        out = ((hi - lo) / 6.0 * (product(lo) + product(hi)
                                  + 4.0 * product(0.5 * (lo + hi)))).sum(axis=1).reshape(u.shape)
    out = np.where((u < 0) | (u > width), 0.0, out)
    return out if out.ndim else float(out)


def omega(g: TimeDensity, dt_min: float) -> float:
    """Omega = P(0 <= D <= dt_min), the integral of h over [0, min(dt_min, W)]."""
    if not dt_min >= 0:  # NaN too
        raise InvalidSpec(f"dt_min must be non-negative, got {dt_min}")
    r = integrate(lambda u: difference_density(g, u), 0.0, min(dt_min, g.width),
                  tol=_TOL, breakpoints=g.breakpoints())
    return min(max(r.value, 0.0), 1.0)


def theta(g: TimeDensity, dt_min: float) -> float:
    """Theta = P(|D| <= dt_min) = 2 Omega: two g-draws within dt_min of each other."""
    if dt_min >= g.width:
        return 1.0
    return min(2.0 * omega(g, dt_min), 1.0)


def _window_mixture(f: CollapseFamily, g: TimeDensity, hi: float, weight: float) -> Distribution:
    """``P0 + weight * integral over [0, hi] of (P0 . f(u) - P0) h(u) du``, one vector
    integral whose integrand maps an array of m nodes to an (m, k) array.

    Normalization beyond 1e-6 is a NotNormalized error, never silently repaired.
    """
    p0 = f.p0.weights

    def drift(u):
        return (p0 @ f.profile(u) - p0) * difference_density(g, u)[:, None]

    out = p0 + weight * integrate(drift, 0.0, hi, tol=_TOL,
                                  breakpoints=tuple(f.kink_times) + g.breakpoints()).value
    return make_distribution(out, atol=1e-6)


def window_marginal(f: CollapseFamily, g: TimeDensity) -> Distribution:
    """Exact window-averaged Bob marginal when Alice chooses the triggering input.

    ``P0 + integral over [0, min(dt_max, W)] of (P0 . f(u) - P0) h(u) du``;
    the module docstring derives it. `simulate_window` samples this value.
    """
    return _window_mixture(f, g, min(f.dt_max, g.width), 1.0)


def window_marginal_two_term(f: CollapseFamily, g: TimeDensity) -> Distribution:
    """The paper's two-term window formula, which differs from `window_marginal`
    whenever dt_min < dt_max (see the module docstring)."""
    return _window_mixture(f, g, min(f.dt_min, g.width), 2.0)
