"""Adaptive Simpson quadrature with breakpoint registration.

Collapse-family integrands are piecewise smooth with kinks at the
per-outcome collapse durations; registering those as breakpoints keeps
Simpson's rule at its nominal convergence order on each smooth piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure


@dataclass(frozen=True)
class IntegrationResult:
    value: float | np.ndarray  # an array for a vector-valued integrand
    error_estimate: float
    evaluations: int


def integrate(fn, a: float, b: float, tol: float = 1e-9,
              breakpoints=(), max_depth: int = 48) -> IntegrationResult:
    """Integrate fn over [a, b] by adaptive composite Simpson.

    Interval bisection continues until the local Richardson error
    estimate is below the locally allotted tolerance. Breakpoints inside
    (a, b) split the interval before adaptation starts; fn may jump at
    one, as each piece reads its right end as a left limit. A vector-valued
    fn gives a vector value and a max-norm error estimate. If the depth cap
    leaves the error estimate above `tol`, or fn is not finite, the
    integral is a QuadratureFailure.
    """
    if a > b:
        r = integrate(fn, b, a, tol, breakpoints, max_depth)
        return IntegrationResult(-r.value, r.error_estimate, r.evaluations)
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)

    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    total = 0.0
    err = 0.0
    evals = 0
    depth_hit = False
    for lo, hi in zip(pts[:-1], pts[1:]):
        piece_tol = tol * (hi - lo) / (b - a)
        v, e, n, hit = _adaptive_piece(fn, lo, hi, piece_tol, max_depth)
        total += v
        err += e
        evals += n
        depth_hit = depth_hit or hit
    if depth_hit and err > tol:
        raise QuadratureFailure(f"depth {max_depth} reached above tolerance {tol:.3e}: "
                                f"best value {total}, error estimate {err:.3e}")
    return IntegrationResult(total, err, evals)


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_piece(fn, a, b, tol, max_depth):
    # the right end is read at its left limit, so a jump at a breakpoint
    # belongs to the piece on its right and no piece bisects towards it
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(np.nextafter(b, a))
    evals = 3
    whole = _simpson(fa, fm, fb, b - a)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    err = 0.0
    depth_hit = False
    while stack:
        a0, b0, f0, f1, f2, s0, t0, depth = stack.pop()
        m = 0.5 * (a0 + b0)
        lm, rm = 0.5 * (a0 + m), 0.5 * (m + b0)
        flm, frm = fn(lm), fn(rm)
        evals += 2
        s_left = _simpson(f0, flm, f1, m - a0)
        s_right = _simpson(f1, frm, f2, b0 - m)
        s2 = s_left + s_right
        e = (s2 - s0) / 15.0
        e_norm = float(np.max(np.abs(e)))
        if not math.isfinite(e_norm):  # a NaN or inf value reaches e at once
            raise QuadratureFailure(f"integrand not finite on [{a0!r}, {b0!r}]")
        if e_norm <= t0 or depth >= max_depth:
            total += s2 + e  # Richardson extrapolation
            err += e_norm
            if depth >= max_depth and e_norm > t0:
                depth_hit = True
        else:
            stack.append((a0, m, f0, flm, f1, s_left, t0 / 2.0, depth + 1))
            stack.append((m, b0, f1, frm, f2, s_right, t0 / 2.0, depth + 1))
    return total, err, evals, depth_hit


def integrate2(fn, ax: float, bx: float, lo, hi, tol: float = 1e-9,
               breakpoints_x=(), max_depth: int = 48) -> IntegrationResult:
    """Nested integral of fn(x, y) for x in [ax, bx], y in [lo(x), hi(x)].

    `lo` and `hi` may be constants or callables; inner limits are clamped
    so lo(x) <= hi(x). The combined error estimate adds the outer estimate
    to the accumulated inner ones.
    """
    lo_f = lo if callable(lo) else (lambda _x, _v=lo: _v)
    hi_f = hi if callable(hi) else (lambda _x, _v=hi: _v)
    inner_tol = tol / max(bx - ax, 1e-300)
    inner_evals = [0]
    inner_err = [0.0]

    def outer(x):
        l, h = lo_f(x), hi_f(x)
        if l >= h:
            return 0.0
        r = integrate(lambda y: fn(x, y), l, h, inner_tol, max_depth=max_depth)
        inner_evals[0] += r.evaluations
        inner_err[0] = max(inner_err[0], r.error_estimate)
        return r.value

    r = integrate(outer, ax, bx, tol, breakpoints=breakpoints_x,
                  max_depth=max_depth)
    return IntegrationResult(
        r.value,
        r.error_estimate + inner_err[0] * (bx - ax),
        r.evaluations + inner_evals[0],
    )
