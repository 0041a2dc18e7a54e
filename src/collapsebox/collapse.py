"""Collapse families f_{aa'}(s) and the single-box marginal evolution.

A family describes, for each latent outcome a, the probability f_{aa'}(s)
that probing the box at elapsed time s (measured from the triggering
input) yields output a'. Boundary conditions:

  1. f_{aa'}(0) = P0(a')           (initial statistics)
  2. f_{aa'}(s) = delta_{a,a'} for s >= dt_a, s > 0   (collapsed)
  3. sum_{a'} f_{aa'}(s) = 1       (normalization)

At s = 0 condition 1 takes precedence over condition 2 when dt_a = 0
(an instantaneous family is P0 at the trigger instant and a Kronecker
delta immediately after).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behaviors import Distribution, make_distribution
from .errors import BoundaryViolation, EmptyGrid, InvalidSpec, TimeBeforeTrigger

KINDS = ("instantaneous", "linear", "exponential", "frozen", "table")

# exponential families are clipped to an exact delta once the interpolation
# weight reaches 1 - EXP_CUTOFF; this defines their finite dt_a
EXP_CUTOFF = 1e-9


def check_elapsed(s: float) -> float:
    """s as a float; a negative elapsed time is a TimeBeforeTrigger, and NaN
    an InvalidSpec, wherever a time since the trigger is passed."""
    s = float(s)
    if math.isnan(s):
        raise InvalidSpec(f"elapsed time {s} is not a number")
    if s < 0:
        raise TimeBeforeTrigger(f"elapsed time {s} < 0")
    return s


@dataclass(frozen=True)
class CollapseFamily:
    """Evaluated collapse family bound to a prior P0."""

    kind: str
    p0: Distribution
    dt: np.ndarray                      # per-outcome collapse durations
    rates: np.ndarray | None = None
    grid_times: np.ndarray | None = None
    grid_values: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dt", np.asarray(self.dt, dtype=float))

    @property
    def size(self) -> int:
        return self.p0.size

    @property
    def dt_min(self) -> float:
        return float(self.dt.min())

    @property
    def dt_max(self) -> float:
        return float(self.dt.max())

    @property
    def kink_times(self) -> np.ndarray:
        """Sorted times where some row is not smooth: each dt_a, and a table's
        knots up to dt_max, which hold every dt_a (beyond it every row is a delta)."""
        if self.kind == "table":
            return self.grid_times[self.grid_times <= self.dt_max]
        return np.unique(self.dt)

    @property
    def check_times(self) -> np.ndarray:
        """The times at which checking the boundary clauses is exact: 0, every
        kink time, the midpoint of each pair of adjacent kink times, and one
        point past dt_max. Between kinks the rows of table and linear families
        are linear, so each clause is worst at a kink; those of frozen and
        instantaneous families are constant. Exponential rows mix P0 and the
        delta with a weight in [0, 1]."""
        kinks = np.union1d(0.0, self.kink_times)
        return np.concatenate([kinks, 0.5 * (kinks[1:] + kinks[:-1]), [kinks[-1] + 1.0]])

    def profile(self, s: float | np.ndarray) -> np.ndarray:
        """The matrix f[a, a'] at elapsed time s >= 0, of shape (n, n); for a 1-D
        array of m times, one such matrix per time, of shape (m, n, n)."""
        s = np.asarray(s, dtype=float)
        check_elapsed(s.min(initial=0.0))
        n = self.size
        m = self.rows(np.tile(np.arange(n), s.size), np.repeat(s, n))
        return m.reshape(s.shape + (n, n))

    def weights(self, latent: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The weight w of each row (1 - w) P0 + w delta_latent[i] at s[i], for
        every kind but table, whose rows are no such mixture. From dt_a on, row
        a is the delta (w = 1) except at s = 0; before dt_a it follows the
        kind's ramp: linear s / dt_a, exponential 1 - e^{-r_a s}, frozen and
        instantaneous none (w = 0)."""
        s = np.asarray(s, dtype=float)
        dt_l = self.dt.take(latent)
        if self.kind == "linear":  # s / dt_l is discarded at s >= dt_l, where dt_l may be 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ramp = s / dt_l
        elif self.kind == "exponential":
            ramp = 1.0 - np.exp(-self.rates.take(latent) * np.minimum(s, dt_l))
        elif self.kind in ("frozen", "instantaneous"):
            ramp = 0.0
        else:
            raise InvalidSpec(f"a {self.kind!r} family has no mixture weight")
        return np.where(s >= dt_l, s > 0, ramp)

    def columns(self, latent: np.ndarray, s: np.ndarray):
        """Column a' of `rows(latent, s)` for each a' in turn, equal to it bit
        for bit, so a caller never holds an n-wide row per replica. A scalar
        latent holds for every time."""
        latent, s = np.asarray(latent), np.asarray(s, dtype=float)
        if self.kind == "table":
            at = ([(latent, ...)] if latent.ndim == 0 else
                  [(a, np.flatnonzero(latent == a)) for a in range(self.size)])
            for ap in range(self.size):
                out = np.empty(s.shape)
                for a, i in at:
                    out[i] = np.interp(s[i], self.grid_times, self.grid_values[:, a, ap])
                yield out
            return
        # (1 - w) P0 + w delta_latent, adding w only where the delta is 1
        w = self.weights(latent, s)
        keep = 1.0 - w
        for ap, p in enumerate(self.p0.weights):
            yield keep * p + (latent == ap) * w

    def rows(self, latent: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized f_{latent[i], .}(s[i]); returns shape (len(latent), n)."""
        return np.stack(list(self.columns(latent, s)), axis=1)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    worst: dict  # clause name -> worst absolute violation
    tol: float

    def worst_clause(self) -> str:
        return max(self.worst, key=self.worst.get)


def make_family(kind: str, p0: Distribution, *, dt=None, rates=None,
                grid_times=None, grid_values=None, validate: bool = True) -> CollapseFamily:
    """Construct a collapse family from its kind, its prior and the fields of its kind.

    linear / frozen take one collapse duration per outcome (`dt`);
    exponential takes one rate per outcome; table takes `grid_times` and
    `grid_values` of shape (nt, n, n), interpolated linearly. "frozen"
    holds the prior until dt_a, then jumps to the delta. Fields of other
    kinds are ignored. With `validate` (the default) the boundary clauses
    are checked at the family's `check_times` and violations raise;
    validation tooling passes False so it can report the violated clause itself.
    """
    if kind not in KINDS:
        raise InvalidSpec(f"unknown family kind {kind!r}")
    n = p0.size

    if kind == "instantaneous":
        fam = CollapseFamily("instantaneous", p0, np.zeros(n))
    elif kind in ("linear", "frozen"):
        dt = _floats(dt, f"kind {kind!r} needs one dt per outcome", (n,))
        if not np.all(np.isfinite(dt) & (dt >= 0)):
            raise InvalidSpec("collapse durations must be finite and non-negative")
        fam = CollapseFamily(kind, p0, dt)
    elif kind == "exponential":
        rates = _floats(rates, "exponential kind needs one rate per outcome", (n,))
        if not np.all(np.isfinite(rates) & (rates > 0)):
            raise InvalidSpec("rates must be finite and positive")
        with np.errstate(over="ignore"):
            dt = -np.log(EXP_CUTOFF) / rates
        if not np.all(np.isfinite(dt)):
            raise InvalidSpec(f"rates {rates.tolist()} give an infinite collapse time")
        fam = CollapseFamily("exponential", p0, dt, rates=rates)
    else:  # table
        if grid_times is None or grid_values is None:
            raise InvalidSpec("table kind needs grid_times and grid_values")
        times = _floats(grid_times, "table 'grid' times must be numbers")
        values = _floats(grid_values, "table 'grid' values must be numbers")
        if (times.ndim != 1 or times.size < 2 or not np.all(np.isfinite(times))
                or np.any(np.diff(times) <= 0)):
            raise InvalidSpec("grid_times must be finite, strictly increasing, length >= 2")
        if times[0] != 0.0:
            raise InvalidSpec("grid_times must start at 0")
        if values.shape != (times.size, n, n):
            raise InvalidSpec(
                f"grid_values shape {values.shape} != {(times.size, n, n)}"
            )
        dt = _table_collapse_times(times, values, n)
        fam = CollapseFamily("table", p0, dt, grid_times=times, grid_values=values)

    if validate:
        report = validate_family(fam, fam.check_times)
        if not report.passed:
            raise BoundaryViolation(
                f"spec fails boundary clause {report.worst_clause()!r} "
                f"by {max(report.worst.values()):.3e}"
            )
    return fam


def _floats(values, message: str, shape=None) -> np.ndarray:
    """`values` as a float array, of `shape` if one is given; anything else is an
    InvalidSpec with `message`."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSpec(message) from None
    if shape is not None and v.shape != shape:
        raise InvalidSpec(message)
    return v


def _table_collapse_times(times, values, n):
    """Per-outcome dt_a: the earliest grid time from which row a stays a delta.
    A row that never reaches its delta gets the last knot, where
    `validate_family` reports it under clause 'final'."""
    eye = np.eye(n)
    dt = np.empty(n)
    for a in range(n):
        is_delta = np.abs(values[:, a, :] - eye[a]).max(axis=1) <= 1e-12
        # suffix of consecutive delta rows
        k = times.size
        while k > 0 and is_delta[k - 1]:
            k -= 1
        dt[a] = times[min(k, times.size - 1)]
    return dt


def validate_family(f: CollapseFamily, grid) -> ValidationReport:
    """Check all three boundary clauses plus [0,1] range on every grid point.

    All rows are evaluated in one `profile` call: m[k, a] is f_a(grid[k]).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("validation grid is empty")
    tol = 1e-9
    n = f.size
    m = f.profile(grid)
    collapsed = (grid[:, None] >= f.dt[None, :]) & (grid[:, None] > 0)
    final = np.abs(m - np.eye(n)).max(axis=2)[collapsed]
    worst = {
        "initial": float(np.abs(f.profile(0.0) - f.p0.weights[None, :]).max()),
        "final": float(final.max()) if final.size else 0.0,
        "normalization": float(np.abs(m.sum(axis=2) - 1.0).max()),
        "range": float(max(np.clip(-m, 0, None).max(), np.clip(m - 1, 0, None).max())),
    }
    passed = all(v <= tol for v in worst.values())
    return ValidationReport(passed, worst, tol)


def marginal_at(f: CollapseFamily, elapsed: float) -> Distribution:
    """Evolved single-box marginal P(a') = sum_a f_{aa'}(elapsed) P0(a)."""
    m = f.profile(float(elapsed))
    out = f.p0.weights @ m
    return make_distribution(out, atol=1e-9)
