"""Finite probability distributions and bipartite box behaviors.

Provides validated probability vectors, conditional behavior tables
P(a,b|x,y), non-signaling checks, membership in the local deterministic
polytope, and the CHSH value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphabetMismatch,
    EmptyAlphabet,
    NegativeWeight,
    NotNormalized,
    ScenarioTooLarge,
    WrongScenarioShape,
)

STRATEGY_ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite outcome alphabet."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, i):
        return self.weights[i]

    def __len__(self):
        return self.size


def make_distribution(weights, atol: float = 1e-9) -> Distribution:
    """Build a validated Distribution. No silent renormalization."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise EmptyAlphabet("distribution needs at least one outcome")
    if np.any(w < 0):
        raise NegativeWeight(f"negative weight in {w.tolist()}")
    s = float(w.sum())
    if not abs(s - 1.0) <= atol:  # also rejects a NaN or infinite sum
        raise NotNormalized(f"weights sum to {s!r}, not 1 within {atol}")
    return Distribution(w)


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) sum_i |p_i - q_i|."""
    if p.size != q.size:
        raise AlphabetMismatch(f"alphabet sizes differ: {p.size} vs {q.size}")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


@dataclass(frozen=True)
class BoxBehavior:
    """Conditional table P(a,b|x,y), stored with axes (x, y, a, b)."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 4:
            raise WrongScenarioShape(f"expected 4 axes (x,y,a,b), got {t.ndim}")
        if t.size == 0:
            raise EmptyAlphabet(f"behavior table has an empty axis: shape {t.shape}")
        if np.any(t < -1e-15):
            raise NegativeWeight("negative entry in behavior table")
        sums = t.sum(axis=(2, 3))
        if not np.all(np.abs(sums - 1.0) <= 1e-9):  # also rejects NaN and inf
            raise NotNormalized(
                f"per-(x,y) sums deviate from 1 by up to {np.abs(sums - 1).max():.3e}"
            )
        object.__setattr__(self, "table", t)
        t.setflags(write=False)

    @property
    def shape(self):
        """(n_x, n_y, n_a, n_b)"""
        return self.table.shape


@dataclass(frozen=True)
class NonsignalingReport:
    passed: bool
    max_violation: float
    violating_marginal: tuple | None  # (party, output, own_input, input_pair)


@dataclass(frozen=True)
class LocalityReport:
    member: bool
    weights: np.ndarray | None  # convex weights over deterministic vertices
    residual: float
    facet: tuple | None = None  # (coeffs over table entries, bound, violation)
    vertices: np.ndarray = field(default=None, repr=False)


def is_nonsignaling(b: BoxBehavior, tol: float = 1e-9) -> NonsignalingReport:
    """Check that each party's marginal is independent of the remote input.

    Reports the first largest gap, Alice's on a tie with Bob's.
    """
    t = b.table
    nx, ny = t.shape[:2]
    pa, pb = t.sum(axis=3), t.sum(axis=2)  # (x, y, a) and (x, y, b)
    gap_a = pa.max(1) - pa.min(1)  # (x, a): Alice's marginal over Bob's y
    gap_b = pb.max(0) - pb.min(0)  # (y, b): Bob's marginal over Alice's x
    x, a = np.unravel_index(gap_a.argmax(), gap_a.shape)
    y, bb = np.unravel_index(gap_b.argmax(), gap_b.shape)
    if gap_b[y, bb] > gap_a[x, a]:
        worst, where = float(gap_b[y, bb]), ("bob", int(bb), int(y), tuple(range(nx)))
    else:
        worst, where = float(gap_a[x, a]), ("alice", int(a), int(x), tuple(range(ny)))
    return NonsignalingReport(worst <= tol, worst, None if worst <= tol else where)


def _one_hot(outputs, n_out: int) -> np.ndarray:
    """Deterministic strategies as tables: entry [..., x, a] is 1 iff the
    strategy outputs a on input x; shape (..., n_in, n_out)."""
    o = np.asarray(outputs)
    if o.size and not (o.dtype.kind in "iu" and 0 <= o.min() and o.max() < n_out):
        raise AlphabetMismatch(f"outputs {o.tolist()} are not integers in range({n_out})")
    return np.eye(n_out)[o.astype(int)]  # an empty list arrives as float


def local_deterministic_vertices(nx, ny, na, nb) -> np.ndarray:
    """All deterministic local strategies, as flattened behavior tables.

    Returns an array of shape (n_vertices, nx*ny*na*nb); vertex order is
    (alice strategy) major, (bob strategy) minor, with strategies in
    lexicographic order of their output assignments.
    """
    n_vertices = na**nx * nb**ny
    if n_vertices > STRATEGY_ENUMERATION_LIMIT:
        raise ScenarioTooLarge(
            f"{n_vertices} deterministic strategies exceed enumeration guard"
        )
    fa = _one_hot(list(itertools.product(range(na), repeat=nx)), na)
    gb = _one_hot(list(itertools.product(range(nb), repeat=ny)), nb)
    return np.einsum("ixa,jyb->ijxyab", fa, gb).reshape(n_vertices, -1)


def is_local(b: BoxBehavior, tol: float = 1e-9) -> LocalityReport:
    """Decide membership in the local deterministic polytope.

    One linear program over the enumerated deterministic vertices v: the
    least t with |sum_v w_v v - p| <= t entrywise, w convex. Its residual t
    is the infinity-norm distance from p to the polytope. A member gets the
    convex weights w. A non-member gets a Bell-type certificate
    (h, c0, violation) read from the same solve's dual: h . v <= c0 on every
    vertex, ||h||_1 <= 1, and violation = h . p - c0 equals the residual.
    """
    from scipy.optimize import linprog  # deferred: adds 0.26 s to each import

    nx, ny, na, nb = b.shape
    verts = local_deterministic_vertices(nx, ny, na, nb)
    p = b.table.reshape(-1)
    nv, d = verts.shape

    # variables: w (nv), t (1); minimize t s.t. |V^T w - p| <= t, sum w = 1
    c = np.zeros(nv + 1)
    c[-1] = 1.0
    vt = verts.T  # (d, nv)
    a_ub = np.block([[vt, -np.ones((d, 1))], [-vt, -np.ones((d, 1))]])
    b_ub = np.concatenate([p, -p])
    a_eq = np.zeros((1, nv + 1))
    a_eq[0, :nv] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    residual = float(res.x[-1])
    if residual <= tol:
        w = np.clip(res.x[:nv], 0.0, None)
        return LocalityReport(True, w, residual, None, verts)

    # HiGHS duals: u <= 0 on the two row blocks, mu on sum w = 1. Dual
    # feasibility of the w columns is h . v <= c0, that of the t column
    # ||h||_1 <= 1, and strong duality makes h . p - c0 the residual.
    u = res.ineqlin.marginals
    h = u[:d] - u[d:]
    c0 = -float(res.eqlin.marginals[0])
    return LocalityReport(False, None, residual,
                          (h.reshape(nx, ny, na, nb), c0, float(h @ p - c0)), verts)


def chsh_value(b: BoxBehavior) -> float:
    """CHSH expression E(0,0)+E(0,1)+E(1,0)-E(1,1) for a 2x2x2x2 behavior."""
    if b.shape != (2, 2, 2, 2):
        raise WrongScenarioShape(f"CHSH needs a 2-input/2-output box, got {b.shape}")
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a xor b)
    e = np.einsum("xyab,ab->xy", b.table, sign)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


# --- convenience constructors used throughout tests and demos ---

def pr_box() -> BoxBehavior:
    """The extremal non-signaling box: P = 1/2 iff a xor b = x*y."""
    x, y, a, bb = np.indices((2,) * 4)
    return BoxBehavior(0.5 * ((a ^ bb) == x * y))


def uniform_box(nx=2, ny=2, na=2, nb=2) -> BoxBehavior:
    return BoxBehavior(np.ones((nx, ny, na, nb)) / (na * nb))


def deterministic_box(fa, gb, na=2, nb=2) -> BoxBehavior:
    """Local deterministic box a = fa[x], b = gb[y], one output per input."""
    try:
        flat = np.ndim(fa) == np.ndim(gb) == 1
    except ValueError:  # a ragged nested list
        flat = False
    if not flat:
        raise AlphabetMismatch(f"outputs {fa!r} and {gb!r} are not one per input")
    return BoxBehavior(np.einsum("xa,yb->xyab", _one_hot(fa, na), _one_hot(gb, nb)))


def product_box(p: Distribution, q: Distribution, nx=2, ny=2) -> BoxBehavior:
    """Input-independent product behavior P(a,b|x,y) = p(a) q(b)."""
    t = np.tile(np.outer(p.weights, q.weights), (nx, ny, 1, 1))
    return BoxBehavior(t)
