import math
import re
import time

import numpy as np
import pytest

from collapsebox import quadrature
from collapsebox.errors import QuadratureFailure
from collapsebox.quadrature import integrate, integrate2


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda t: np.ones_like(t), 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-14)

    def test_polynomial(self):
        r = integrate(lambda t: 3 * t * t, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_cubic_exactness(self):
        r = integrate(lambda t: 4 * t**3 - 2 * t + 1, 0.0, 2.0)
        # F = t^4 - t^2 + t -> 16 - 4 + 2
        assert r.value == pytest.approx(14.0, abs=1e-14)
        assert r.evaluations <= 20  # terminates immediately on cubics

    def test_degree_11_exact_on_one_piece(self):
        # a tol the first piece meets, so the value is the 6-node rule alone
        c = np.random.default_rng(11).uniform(-1, 1, 12)
        r = integrate(lambda t: np.polynomial.polynomial.polyval(t, c), 0.0, 1.0, tol=1.0)
        exact = sum(cj / (j + 1) for j, cj in enumerate(c))
        assert abs(r.value - exact) <= 1e-14
        assert r.evaluations == 9

    def test_rules_are_leggauss(self):
        for n, x, w in ((3, quadrature._X3, quadrature._W3),
                        (6, quadrature._X6, quadrature._W6)):
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert np.abs(x - ref_x).max() <= 1e-15
            assert np.abs(w - ref_w).max() <= 1e-15

    def test_uniform_difference_density_mass(self):
        # density of |D| truncated to [0, 0.5] for two independent U(0,1)
        def h(u):
            return 1.0 - u  # overlap integral of the unit window with itself
        r = integrate(h, 0.0, 0.5)
        assert r.value == pytest.approx(0.375, abs=1e-12)

    def test_reversed_limits(self):
        r = integrate(lambda t: t, 1.0, 0.0)
        assert r.value == pytest.approx(-0.5, abs=1e-12)

    def test_breakpoint_restores_accuracy_on_ramp(self):
        ramp = lambda t: np.minimum(t / 0.3, 1.0)
        exact = 0.15 + 0.7
        r = integrate(ramp, 0.0, 1.0, tol=1e-12, breakpoints=(0.3,))
        assert r.value == pytest.approx(exact, abs=1e-13)

    def test_jump_at_breakpoint(self):
        # Gauss nodes never touch a piece's ends, so neither piece sees the
        # jump and neither bisects towards it
        r = integrate(lambda t: (t >= 0.5).astype(float), 0.0, 1.0, breakpoints=(0.5,))
        assert r.value == 0.5
        assert r.evaluations <= 20

    def test_max_depth_reports_best_value(self):
        with pytest.raises(QuadratureFailure) as exc:
            integrate(lambda t: np.where(t > 0, t**-0.5, 0.0), 0.0, 1.0,
                      tol=1e-14, max_depth=8)
        m = re.search(r"best value (\S+), error estimate (\S+)$", str(exc.value))
        assert float(m.group(1)) == pytest.approx(2.0, rel=5e-2)
        assert float(m.group(2)) >= 0

    def test_error_estimate_bounds_true_error(self):
        # library of integrands with known antiderivatives
        rng = np.random.default_rng(17)
        library = []
        for _ in range(60):
            c = rng.uniform(-2, 2, size=4)
            library.append((
                lambda t, c=c: c[0] + c[1] * t + c[2] * t**2 + c[3] * t**5,
                lambda t, c=c: c[0] * t + c[1] * t**2 / 2 + c[2] * t**3 / 3
                + c[3] * t**6 / 6,
                (),
            ))
            k = rng.uniform(0.5, 3.0)
            library.append((
                lambda t, k=k: np.exp(-k * t),
                lambda t, k=k: -math.exp(-k * t) / k,
                (),
            ))
            b = rng.uniform(0.2, 0.8)
            library.append((
                lambda t, b=b: np.minimum(t / b, 1.0),
                lambda t, b=b: t * t / (2 * b) if t <= b else b / 2 + (t - b),
                (b,),
            ))
        covered = 0
        for fn, anti, bps in library:
            r = integrate(fn, 0.0, 1.0, tol=1e-9, breakpoints=bps)
            true_err = abs(r.value - (anti(1.0) - anti(0.0)))
            if true_err <= max(r.error_estimate, 1e-9):
                covered += 1
        assert covered / len(library) >= 0.99

    def test_halving_tol_never_increases_true_error(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = rng.uniform(0.5, 4.0)
            fn = lambda t: np.exp(-k * t) + t**3
            exact = (1 - math.exp(-k)) / k + 0.25
            errs = []
            for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-8):
                r = integrate(fn, 0.0, 1.0, tol=tol)
                errs.append(abs(r.value - exact))
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-13


class TestNonFinite:
    # without the guard a NaN piece is never accepted and bisects to depth 48
    @pytest.mark.parametrize("fn", [
        lambda t: np.full_like(t, math.nan),
        lambda t: np.full_like(t, math.inf),
        lambda t: np.where(t > 0.3, -math.inf, t),
        lambda t: np.where((0.4 < t) & (t < 0.5), math.nan, 1.0),  # not at a piece end
        lambda t: np.stack([t, np.full_like(t, math.nan)], axis=-1),
        lambda t: np.stack([np.ones_like(t), np.full_like(t, math.inf)], axis=-1),
        lambda t: np.stack([t, np.where((0.4 < t) & (t < 0.5), math.nan, 1.0)], axis=-1),
    ], ids=["nan", "inf", "-inf-part", "nan-inside", "vector-nan",
            "vector-inf", "vector-nan-inside"])
    def test_fails_fast(self, fn):
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure), np.errstate(invalid="ignore"):
            integrate(fn, 0.0, 1.0, breakpoints=(0.6,))
        assert time.perf_counter() - start < 0.5


class TestIntegrate2:
    def test_unit_square(self):
        r = integrate2(lambda x, y: np.ones_like(y), 0.0, 1.0, lo=0.0, hi=1.0)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_banded_region_matches_theta_closed_form(self):
        d = 0.5
        r = integrate2(lambda x, y: np.ones_like(y), 0.0, 1.0,
                       lo=lambda x: max(0.0, x - d),
                       hi=lambda x: min(1.0, x + d),
                       breakpoints_x=(d, 1 - d))
        assert r.value == pytest.approx(0.75, abs=1e-9)  # 2r - r^2

    def test_zero_band(self):
        r = integrate2(lambda x, y: np.ones_like(y), 0.0, 1.0,
                       lo=lambda x: x, hi=lambda x: x)
        assert r.value == 0.0
