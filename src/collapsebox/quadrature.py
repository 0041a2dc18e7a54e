"""Fixed Gauss–Legendre quadrature with breakpoint registration.

Collapse-family integrands are low-degree polynomials or smooth
exponentials between kinks at the per-outcome collapse durations and the
window's knot differences. With those registered as breakpoints, each
piece is integrated by the 6-node Gauss–Legendre rule, exact to degree 11,
and the 3-node rule on the same piece gives the error estimate. Gauss
nodes never touch a piece's ends, so an integrand may jump at a
breakpoint at no cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

# The 3- and 6-node Gauss–Legendre rules on [-1, 1], written out because
# numpy's leggauss solves an eigenproblem with LAPACK when called.
_X3 = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_W3 = np.array([0.5555555555555556, 0.8888888888888888, 0.5555555555555556])
_X6 = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_W6 = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
_NODES = np.concatenate([_X3, _X6])


@dataclass(frozen=True)
class IntegrationResult:
    value: float | np.ndarray  # an array for a vector-valued integrand
    error_estimate: float
    evaluations: int


def integrate(fn, a: float, b: float, tol: float = 1e-9,
              breakpoints=(), max_depth: int = 48) -> IntegrationResult:
    """Integrate fn over [a, b] by the 6-node Gauss–Legendre rule on each piece.

    fn maps a 1-D array of nodes to its values along axis 0; it is called
    once per piece, on the 3 + 6 nodes of both rules. Breakpoints inside
    (a, b) split the interval. A piece is bisected while |G6 - G3|, the
    error estimate, is above its share of `tol`. A vector-valued fn gives a
    vector value and a max-norm error estimate. If the depth cap leaves the
    error estimate above `tol`, or fn is not finite, the integral is a
    QuadratureFailure.
    """
    if a > b:
        r = integrate(fn, b, a, tol, breakpoints, max_depth)
        return IntegrationResult(-r.value, r.error_estimate, r.evaluations)

    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    stack = [(lo, hi, 0) for lo, hi in zip(pts[:-1], pts[1:])]
    total = 0.0
    err = 0.0
    evals = 0
    depth_hit = False
    while stack:
        lo, hi, depth = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fn(mid + half * _NODES)
        evals += _NODES.size
        g3, g6 = half * (_W3 @ vals[:3]), half * (_W6 @ vals[3:])
        e = float(np.max(np.abs(g6 - g3)))
        if not math.isfinite(e):  # a NaN or inf value reaches e at once
            raise QuadratureFailure(f"integrand not finite on [{lo!r}, {hi!r}]")
        # e against the piece's share tol * (hi - lo) / (b - a), written
        # without a division so that a == b needs no branch
        within = e * (b - a) <= tol * (hi - lo)
        if within or depth >= max_depth:
            total += g6
            err += e
            depth_hit = depth_hit or not within
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    if depth_hit and err > tol:
        raise QuadratureFailure(f"depth {max_depth} reached above tolerance {tol:.3e}: "
                                f"best value {total}, error estimate {err:.3e}")
    return IntegrationResult(total, err, evals)


def integrate2(fn, ax: float, bx: float, lo, hi, tol: float = 1e-9,
               breakpoints_x=(), max_depth: int = 48) -> IntegrationResult:
    """Nested integral of fn(x, y) for x in [ax, bx], y in [lo(x), hi(x)].

    fn takes one x and a 1-D array of y, as `integrate`'s integrand does.
    `lo` and `hi` may be constants or callables of one x; inner limits are
    clamped so lo(x) <= hi(x). The combined error estimate adds the outer
    estimate to the accumulated inner ones.
    """
    lo_f = lo if callable(lo) else (lambda _x: lo)
    hi_f = hi if callable(hi) else (lambda _x: hi)
    inner_tol = tol / max(bx - ax, 1e-300)
    inner = []  # the inner IntegrationResult at every outer node

    def inner_integral(x):
        l = lo_f(x)
        inner.append(integrate(lambda y: fn(x, y), l, max(l, hi_f(x)), inner_tol,
                               max_depth=max_depth))
        return inner[-1].value

    r = integrate(lambda xs: np.array([inner_integral(x) for x in xs]), ax, bx, tol,
                  breakpoints=breakpoints_x, max_depth=max_depth)
    return IntegrationResult(
        r.value,
        r.error_estimate + max(i.error_estimate for i in inner) * (bx - ax),
        r.evaluations + sum(i.evaluations for i in inner),
    )
