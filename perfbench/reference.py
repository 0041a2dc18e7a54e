"""Reference values for the benchmark's output checks, computed apart from collapsebox.

Only numpy and scipy are used here, and every formula is written out from
the model's definition rather than from the library's code:

- the fixed-schedule marginal ``P0 . f(s)`` of a linear or frozen family,
  and its total-variation distance from ``P0``;
- the exact window-averaged marginal
  ``P0 + int_0^{min(dt_max, W)} (P0 . f(u) - P0) h(u) du``, where ``h`` is
  the density of the non-negative input-time difference, and the paper's
  two-term formula ``(1 - Theta) P0 + (Theta / Omega) int_0^{dt_min} P0 . f(u) h(u) du``,
  which differs from it whenever the collapse times are unequal;
- the exact multinomial goodness-of-fit p-value, by enumerating every
  composition and scoring it with a ``gammaln`` log-pmf;
- the Shannon capacity of a binary-input channel, by maximising the mutual
  information over the input weight.

Densities are plain dicts in the scenario-file format:
``{"kind": "uniform" | "truncexp" | "table", "rate": ..., "times": ..., "values": ...}``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

# Gauss-Legendre rules: 6 nodes are exact for the polynomial pieces of the
# uniform and table cases; 24 nodes reach double precision on the smooth
# truncated-exponential pieces of the unit window.
_GL_INNER = np.polynomial.legendre.leggauss(6)
_GL_OUTER = np.polynomial.legendre.leggauss(24)


def _gauss(fn, edges, rule):
    """Sum of Gauss-Legendre integrals of a vector-valued fn over each piece."""
    x, w = rule
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fn(mid + half * x)
        total = total + half * np.tensordot(w, vals, axes=(0, 0))
    return total


def _edges(lo, hi, points):
    inner = sorted({float(p) for p in points if lo < p < hi})
    return [lo] + inner + [hi]


# --- collapse families -----------------------------------------------------

def collapse_weights(kind: str, dt, s) -> np.ndarray:
    """Weight of the delta in each latent's row at elapsed times s.

    Row a of the family is ``(1 - w_a) P0 + w_a delta_a``; linear families
    ramp w_a from 0 to 1 over [0, dt_a], frozen ones jump at dt_a.
    Returns shape ``s.shape + (n,)``.
    """
    dt = np.asarray(dt, dtype=float)
    s = np.asarray(s, dtype=float)[..., None]
    started = s > 0
    if kind == "frozen":
        return (started & (s >= dt)).astype(float)
    if kind == "linear":
        ramp = np.clip(s / np.where(dt > 0, dt, 1.0), 0.0, 1.0)
        return np.where(dt > 0, ramp, started.astype(float))
    raise ValueError(f"no reference for family kind {kind!r}")


def schedule_marginal(p0, kind: str, dt, s) -> np.ndarray:
    """Bob's marginal ``sum_a P0(a) f_a(s)`` when Alice triggers s before him.

    Closed form: ``P0(b) (1 - sum_a P0(a) w_a(s) + w_b(s))``.
    """
    p0 = np.asarray(p0, dtype=float)
    w = collapse_weights(kind, dt, s)
    mean_w = (w * p0).sum(axis=-1, keepdims=True)
    return p0 * (1.0 - mean_w + w)


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def schedule_tv(p0, kind: str, dt, s) -> float:
    """Signaling witness: TV between Bob's marginals under Alice's two inputs."""
    return tv(schedule_marginal(p0, kind, dt, s), p0)


# --- input-time densities --------------------------------------------------

def _table(g):
    return np.asarray(g["times"], dtype=float), np.asarray(g["values"], dtype=float)


def density(g: dict, width: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = (t >= 0) & (t <= width)
    if g["kind"] == "uniform":
        out = np.full(t.shape, 1.0 / width)
    elif g["kind"] == "truncexp":
        lam = float(g["rate"])
        out = lam * np.exp(-lam * t) / (1.0 - math.exp(-lam * width))
    elif g["kind"] == "table":
        knots, vals = _table(g)
        out = np.interp(t, knots, vals)
    else:
        raise ValueError(f"unknown density kind {g['kind']!r}")
    return np.where(inside, out, 0.0)


def cdf(g: dict, width: float, t) -> np.ndarray:
    """Closed-form CDF; for a table, the exact integral of the linear pieces."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, width)
    if g["kind"] == "uniform":
        return t / width
    if g["kind"] == "truncexp":
        lam = float(g["rate"])
        return (1.0 - np.exp(-lam * t)) / (1.0 - math.exp(-lam * width))
    knots, vals = _table(g)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(knots))])
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
    slope = (vals[i + 1] - vals[i]) / (knots[i + 1] - knots[i])
    x = t - knots[i]
    return cum[i] + vals[i] * x + 0.5 * slope * x * x


def difference_density(g: dict, width: float, u) -> np.ndarray:
    """Density h(u) of D = t_B - t_A at u >= 0 for i.i.d. input times.

    uniform: ``(W - u) / W^2``; truncexp:
    ``lam e^{-lam u} (1 - e^{-2 lam (W - u)}) / (2 N^2)`` with
    ``N = 1 - e^{-lam W}``; table: the self-convolution
    ``int_0^{W-u} g(t) g(t + u) dt`` integrated piece by piece.
    """
    u = np.asarray(u, dtype=float)
    inside = (u >= 0) & (u <= width)
    if g["kind"] == "uniform":
        out = (width - u) / width**2
    elif g["kind"] == "truncexp":
        lam = float(g["rate"])
        norm = 1.0 - math.exp(-lam * width)
        out = lam * np.exp(-lam * u) * (1.0 - np.exp(-2.0 * lam * (width - u))) / (2.0 * norm**2)
    else:
        knots, _ = _table(g)
        flat = np.atleast_1d(u)
        out = np.array([
            _gauss(lambda t, _v=v: density(g, width, t) * density(g, width, t + _v),
                   _edges(0.0, width - v, np.concatenate([knots, knots - v])), _GL_INNER)
            if 0.0 <= v < width else 0.0
            for v in flat])
        out = out.reshape(u.shape)
    return np.where(inside, np.maximum(out, 0.0), 0.0)


def _h_breakpoints(g: dict):
    if g["kind"] != "table":
        return ()
    knots, _ = _table(g)
    return tuple(abs(a - b) for a in knots for b in knots)


def omega(g: dict, width: float, d: float) -> float:
    """Mass of D in [0, d]: ``int_0^d h``."""
    hi = min(d, width)
    return float(_gauss(lambda u: difference_density(g, width, u),
                        _edges(0.0, hi, _h_breakpoints(g)), _GL_OUTER))


def theta_direct(g: dict, width: float, d: float) -> float:
    """P(|t_A - t_B| <= d), integrated over t_A without using h."""
    pts = [width - d, d]
    if g["kind"] == "table":
        knots, _ = _table(g)
        pts += list(knots) + list(knots - d) + list(knots + d)

    def inner(x):
        return density(g, width, x) * (cdf(g, width, x + d) - cdf(g, width, x - d))

    return float(_gauss(inner, _edges(0.0, width, pts), _GL_OUTER))


def theta_uniform(d: float, width: float) -> float:
    """Hand value for a uniform window: ``2r - r^2`` with ``r = min(d/W, 1)``."""
    r = min(d / width, 1.0)
    return 2.0 * r - r * r


def exact_window_marginal(p0, kind: str, dt, width: float, g: dict) -> np.ndarray:
    """``P0 + int_0^{min(dt_max, W)} (P0 . f(u) - P0) h(u) du``.

    Bob acting first, or any u beyond a latent's dt_a, leaves P0; the
    remaining mass of the ordered difference is weighted by h.
    """
    p0 = np.asarray(p0, dtype=float)
    hi = min(float(np.max(dt)), width)

    def integrand(u):
        drift = schedule_marginal(p0, kind, dt, u) - p0
        return drift * difference_density(g, width, u)[:, None]

    pts = tuple(dt) + _h_breakpoints(g)
    return p0 + _gauss(integrand, _edges(0.0, hi, pts), _GL_OUTER)


def two_term_window_marginal(p0, kind: str, dt, width: float, g: dict) -> np.ndarray:
    """``(1 - Theta) P0 + (Theta / Omega) int_0^{dt_min} P0 . f(u) h(u) du``.

    The paper's formula, with Theta and Omega taken at dt_min. It equals
    ``exact_window_marginal`` only when every collapse time is the same.
    """
    p0 = np.asarray(p0, dtype=float)
    d = float(np.min(dt))
    th = 1.0 if d >= width else theta_direct(g, width, d)
    if d <= 0.0 or th == 0.0:
        return p0
    hi = min(d, width)

    def integrand(u):
        return schedule_marginal(p0, kind, dt, u) * difference_density(g, width, u)[:, None]

    pts = tuple(dt) + _h_breakpoints(g)
    inner = _gauss(integrand, _edges(0.0, hi, pts), _GL_OUTER)
    return (1.0 - th) * p0 + (th / omega(g, width, d)) * inner


# --- statistics -------------------------------------------------------------

def compositions(n: int, k: int) -> np.ndarray:
    """Every vector of k non-negative integers summing to n, by stars and bars."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)), dtype=int)
    bars = bars.reshape(-1, k - 1)
    padded = np.hstack([np.full((bars.shape[0], 1), -1), bars,
                        np.full((bars.shape[0], 1), n + k - 1)])
    return np.diff(padded, axis=1) - 1


def multinomial_logpmf(counts, p) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    p = np.asarray(p, dtype=float)
    n = counts.sum(axis=-1)
    with np.errstate(divide="ignore"):
        logs = np.where(counts > 0, counts * np.log(p), 0.0)
    return gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=-1) + logs.sum(axis=-1)


def exact_multinomial_pvalue(counts, p) -> float:
    """Total probability of every outcome no more likely than the observed one.

    An outcome within 1e-15 of the observed probability counts as a tie and
    is included, as in the program's exact test.
    """
    counts = np.asarray(counts, dtype=int)
    obs = math.exp(float(multinomial_logpmf(counts, p)))
    probs = np.exp(multinomial_logpmf(compositions(int(counts.sum()), counts.size), p))
    return min(float(probs[probs <= obs + 1e-15].sum()), 1.0)


def _entropy_bits(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=-1)


def binary_capacity(row0, row1) -> float:
    """max over r of I(X; Y) in bits for input weights (1 - r, r)."""
    row0 = np.asarray(row0, dtype=float)
    row1 = np.asarray(row1, dtype=float)
    h0, h1 = _entropy_bits(row0), _entropy_bits(row1)

    def neg_info(r):
        return -(_entropy_bits((1 - r) * row0 + r * row1) - (1 - r) * h0 - r * h1)

    best = minimize_scalar(neg_info, bounds=(0.0, 1.0), method="bounded",
                           options={"xatol": 1e-12})
    return max(float(-best.fun), float(-neg_info(0.5)), 0.0)


# --- pair sampling ------------------------------------------------------------

def sample_times(g: dict, width: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Input times drawn from g: inverse CDF where closed, rejection for a table."""
    if g["kind"] == "uniform":
        return rng.random(size) * width
    if g["kind"] == "truncexp":
        lam = float(g["rate"])
        return -np.log1p(-rng.random(size) * (1.0 - math.exp(-lam * width))) / lam
    _, vals = _table(g)
    out = np.empty(0)
    while out.size < size:
        t = rng.random(2 * size) * width
        keep = rng.random(2 * size) * vals.max() <= density(g, width, t)
        out = np.concatenate([out, t[keep]])
    return out[:size]


def sample_window_outputs(p0, kind: str, dt, width: float, g: dict, size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Bob's outputs in the window experiment, drawn pair by pair."""
    p0 = np.asarray(p0, dtype=float)
    t_a = sample_times(g, width, size, rng)
    t_b = sample_times(g, width, size, rng)
    latent = rng.choice(p0.size, size=size, p=p0)
    fresh = rng.choice(p0.size, size=size, p=p0)
    gap = t_b - t_a
    w = np.take_along_axis(collapse_weights(kind, dt, np.maximum(gap, 0.0)),
                           latent[:, None], axis=1)[:, 0]
    collapsed = (gap < 0) | (rng.random(size) < w)
    return np.where(collapsed, latent, fresh)
