import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsebox.behaviors import make_distribution, tv_distance
from collapsebox.cli import schedule_from_dict, window_from_dict
from collapsebox.collapse import make_family
from collapsebox.errors import InvalidSpec, NotNormalized, TimeBeforeTrigger
from collapsebox.mc import SimConfig, gof_test, simulate_window
from collapsebox.scenarios import (
    Schedule,
    TimeDensity,
    bob_marginal,
    difference_density,
    omega,
    theta,
    window_marginal,
    window_marginal_two_term,
)

P0 = make_distribution([0.3, 0.7])


def uniform_window(width=1.0):
    return TimeDensity("uniform", width)


def truncexp_window(width=1.0, rate=2.0):
    return TimeDensity("truncexp", width, rate=rate)


def table_window(width=1.0):
    # triangular density on [0, width]
    t = np.linspace(0, width, 9)
    v = np.minimum(t, width - t)
    v = v / np.trapezoid(v, t)
    return TimeDensity("table", width, grid_times=t, grid_values=v)


def five_knot_window():
    # uneven knots: h has kinks at all ten distinct knot differences
    t = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    v = np.array([0.4, 1.4, 0.8, 1.5, 0.6])
    return TimeDensity("table", 1.0, grid_times=t, grid_values=v / np.trapezoid(v, t))


def family(kind="frozen", dt=(0.0, 1.0), rates=None):
    return make_family(kind, P0, dt=dt if rates is None else None, rates=rates)


class TestTimeDensity:
    def test_table_must_normalize(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(NotNormalized):
            TimeDensity("table", 1.0, grid_times=t, grid_values=np.full(5, 2.0))

    def test_sampling_matches_pdf(self):
        rng = np.random.default_rng(1)
        for g in (uniform_window(), truncexp_window(), table_window()):
            u = rng.random(200_000)
            draws = g.sample(u)
            assert draws.min() >= 0 and draws.max() <= g.width
            # empirical CDF at a few probe points vs integrated pdf
            for q in (0.25, 0.5, 0.75):
                emp = (draws <= q).mean()
                from collapsebox.quadrature import integrate
                ana = integrate(g.pdf, 0.0, q, tol=1e-10,
                                breakpoints=g.breakpoints()).value
                se = np.sqrt(ana * (1 - ana) / draws.size)
                assert abs(emp - ana) <= 4 * se + 1e-3

    def test_table_inverse_cdf_exact(self):
        # F by the trapezoid rule on the knots, the density's own integral
        g = five_knot_window()
        t, v = g.grid_times, g.grid_values
        knot_cdf = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])

        def cdf(x):
            i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
            return knot_cdf[i] + 0.5 * (x - t[i]) * (v[i] + np.interp(x, t, v))

        u = np.linspace(0.0, 1.0, 100_001)[:-1]
        assert np.abs(cdf(g.sample(u)) - u).max() <= 1e-12

    def test_table_sampling_skips_zero_density(self):
        t = np.array([0.0, 0.3, 0.5, 1.0])
        v = np.array([0.0, 0.0, 2.0, 2.0])
        g = TimeDensity("table", 1.0, grid_times=t, grid_values=v / np.trapezoid(v, t))
        draws = g.sample(np.linspace(0.0, 1.0, 10_001)[:-1])
        assert draws.min() == 0.3 and draws.max() < 1.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            TimeDensity("gaussian", 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs(self, bad):
        # a NaN width would reach the quadrature, which never meets its
        # tolerance on NaN values
        with pytest.raises(InvalidSpec):
            TimeDensity("uniform", bad)
        with pytest.raises(InvalidSpec):
            TimeDensity("truncexp", 1.0, rate=bad)
        with pytest.raises(InvalidSpec):
            TimeDensity("table", 1.0, grid_times=[0.0, bad, 1.0], grid_values=[1.0, 1.0, 1.0])
        with pytest.raises((InvalidSpec, NotNormalized)):
            TimeDensity("table", 1.0, grid_times=[0.0, 0.5, 1.0], grid_values=[1.0, bad, 1.0])


class TestBobMarginal:
    def test_nct_choice_gives_prior(self):
        s = family()
        for elapsed in (0.0, 0.3, 2.0):
            assert np.allclose(bob_marginal(s, 0, elapsed).weights, P0.weights)

    def test_instantaneous_matches_prior(self):
        s = family("instantaneous", dt=None)
        for elapsed in (0.0, 0.3, 2.0):
            assert np.abs(bob_marginal(s, 1, elapsed).weights
                          - P0.weights).max() <= 1e-12

    def test_asymmetric_hand_value(self):
        s = family("frozen", dt=(0.0, 1.0))
        assert np.allclose(bob_marginal(s, 1, 0.5).weights, [0.51, 0.49],
                           atol=1e-14)

    def test_constant_in_time_for_x0(self):
        s = family("frozen", dt=(0.2, 0.9))
        ref = bob_marginal(s, 0, 0.0)
        for elapsed in np.linspace(0, 2, 17):
            assert np.array_equal(bob_marginal(s, 0, float(elapsed)).weights,
                                  ref.weights)

    def test_negative_elapsed(self):
        with pytest.raises(TimeBeforeTrigger):
            bob_marginal(family(), 1, -0.1)


class TestTheta:
    def test_zero_dt(self):
        assert theta(uniform_window(), 0.0) == 0.0

    def test_full_window(self):
        assert theta(uniform_window(), 1.0) == 1.0
        assert theta(truncexp_window(), 2.0) == 1.0

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_uniform_closed_form(self, r):
        assert theta(uniform_window(), r) == pytest.approx(2 * r - r * r,
                                                           abs=1e-6)

    def test_monotone_in_dt(self):
        vals = [theta(uniform_window(), d) for d in np.linspace(0, 1, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        vals = [theta(truncexp_window(), d) for d in np.linspace(0, 1, 6)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_inverse_window(self):
        # shrinking the window raises the coincidence probability
        vals = [theta(uniform_window(width), 0.25) for width in (4.0, 2.0, 1.0, 0.5)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [0.25, 1.5])
    def test_truncexp_closed_form(self, d):
        # 2 Omega, with Omega = [(1 - e^{-lam d}) - e^{-2 lam W} (e^{lam d} - 1)] / (2 N^2)
        lam, width = 0.5, 2.0
        norm = 1.0 - math.exp(-lam * width)
        exact = 2.0 * ((1.0 - math.exp(-lam * d)) - math.exp(-2.0 * lam * width)
                       * math.expm1(lam * d)) / (2.0 * norm**2)
        assert abs(theta(truncexp_window(width, lam), d) - exact) <= 1e-14

    @pytest.mark.parametrize("make_w", [uniform_window, truncexp_window])
    def test_against_pair_sampling_oracle(self, make_w):
        w = make_w()
        n = 200_000
        rng = np.random.default_rng(19)
        ta = w.sample(rng.random(n))
        tb = w.sample(rng.random(n))
        for d in (0.2, 0.5):
            emp = (np.abs(tb - ta) <= d).mean()
            ana = theta(w, d)
            se = np.sqrt(ana * (1 - ana) / n)
            assert abs(emp - ana) <= 4 * se


class TestOmega:
    def test_zero_dt(self):
        assert omega(uniform_window(), 0.0) == 0.0

    @pytest.mark.parametrize("evaluator", [omega, theta])
    def test_nan_dt_min_is_invalid(self, evaluator):
        with pytest.raises(InvalidSpec, match="dt_min must be non-negative, got nan"):
            evaluator(uniform_window(), float("nan"))

    def test_uniform_half_by_symmetry(self):
        assert omega(uniform_window(), 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_uniform_hand_value(self):
        assert omega(uniform_window(), 0.5) == pytest.approx(0.375, abs=1e-6)

    @pytest.mark.parametrize("make_w", [uniform_window, truncexp_window,
                                        table_window, five_knot_window])
    def test_against_pair_sampling_oracle(self, make_w):
        w = make_w()
        n = 200_000
        rng = np.random.default_rng(29)
        ta = w.sample(rng.random(n))
        tb = w.sample(rng.random(n))
        for d in (0.3, 0.7):
            diff = tb - ta
            emp = ((diff >= 0) & (diff <= d)).mean()
            ana = omega(w, d)
            se = np.sqrt(ana * (1 - ana) / n)
            assert abs(emp - ana) <= 4 * se

    def test_difference_density_integrates_to_half(self):
        from collapsebox.quadrature import integrate
        for w in (uniform_window(), truncexp_window(), table_window(),
                  five_knot_window()):
            r = integrate(lambda u: difference_density(w, u), 0.0, w.width,
                          tol=1e-8)
            assert r.value == pytest.approx(0.5, abs=1e-6)


class TestTruncexpExtremeRates:
    """p0 (.2, .3, .5), linear dt (.25, .5, 1) and a truncexp window of W = 1."""

    P3 = make_distribution([0.2, 0.3, 0.5])
    DT = np.array([0.25, 0.5, 1.0])

    def linear3(self):
        return make_family("linear", self.P3, dt=self.DT)

    @pytest.mark.parametrize("rate", [1e-17, 1e-9])
    def test_tiny_rate_is_the_uniform_window(self, rate):
        # g differs from the uniform density at first order in the rate, but
        # h = g * g(. + u) does not, so the limit is reached to O(rate^2)
        g = truncexp_window(1.0, rate)
        assert abs(theta(g, 0.25) - 0.4375) <= 1e-12
        got = window_marginal(self.linear3(), g).weights
        assert np.abs(got - [0.2275, 0.313125, 0.459375]).max() <= 1e-12

    @pytest.mark.parametrize("rate", [1e3, 1e4, 1e6])
    def test_sharp_window_closed_forms(self, rate):
        width, d = 1.0, 0.25
        norm = -math.expm1(-rate * width)
        exact = ((-math.expm1(-rate * d) - math.exp(rate * (d - 2 * width))
                  + math.exp(-2 * rate * width)) / (2 * norm**2))
        g = truncexp_window(width, rate)
        assert abs(omega(g, d) - exact) <= 1e-12
        # h's mass lies far below dt_min, where every row is linear in u, so
        # the drift is P0 (1/dt - <P0, 1/dt>) times the mean of u against h, 1/(2 rate)
        p0 = self.P3.weights
        drift = p0 * (1 / self.DT - p0 @ (1 / self.DT)) / (2 * rate)
        got = window_marginal(self.linear3(), g).weights
        assert np.abs(got - (p0 + drift)).max() <= 1e-12

    def test_sharp_window_sampled(self):
        f, g = self.linear3(), truncexp_window(1.0, 1e4)
        e = simulate_window(f, g, SimConfig(1_000_000, 23))
        assert not gof_test(e, window_marginal(f, g), alpha=0.01).reject

    def test_rate_width_limit(self):
        assert truncexp_window(1.0, 1e6).rate == 1e6
        for width, rate in ((1.0, 1e7), (10.0, 1e6)):
            with pytest.raises(InvalidSpec, match=r"truncexp rate \* width 1e\+07 exceeds 1e\+06"):
                truncexp_window(width, rate)


class TestWindowMarginal:
    @pytest.mark.parametrize("make_w", [uniform_window, truncexp_window,
                                        table_window])
    def test_instantaneous_family_gives_prior(self, make_w):
        s = family("instantaneous", dt=None)
        m = window_marginal(s, make_w())
        assert np.abs(m.weights - P0.weights).max() <= 1e-9

    def test_zero_dt_min_gives_prior(self):
        # the paper's formula: no mass of h lies below dt_min = 0
        s = family("frozen", dt=(0.0, 1.0))  # shortest collapse time is 0
        m = window_marginal_two_term(s, uniform_window())
        assert np.array_equal(m.weights, P0.weights)

    def test_exact_frozen_hand_value(self):
        # Alice first (mass 1/2): latent 0 is a delta, latent 1 still reads
        # P0, so Bob sees (0.51, 0.49); Bob first: P0
        s = family("frozen", dt=(0.0, 1.0))
        m = window_marginal(s, uniform_window())
        assert np.abs(m.weights - [0.405, 0.595]).max() <= 1e-12

    def test_five_knot_table_against_pair_sampling(self):
        # input times by rejection sampling, not the library's inverse CDF
        w = five_knot_window()
        s = family("linear", dt=(0.3, 0.8))
        n = 400_000
        rng = np.random.default_rng(47)
        top = w.grid_values.max()
        times = []
        while sum(t.size for t in times) < 2 * n:
            t = rng.random(4 * n)
            times.append(t[rng.random(4 * n) * top <= w.pdf(t)])
        t_a, t_b = np.concatenate(times)[:2 * n].reshape(2, n)
        latent = (rng.random(n) > P0[0]).astype(int)
        fresh = (rng.random(n) > P0[0]).astype(int)
        gap = t_b - t_a
        weight = np.clip(np.maximum(gap, 0.0) / np.array([0.3, 0.8])[latent], 0, 1)
        collapsed = (gap < 0) | (rng.random(n) < weight)
        freq1 = np.where(collapsed, latent, fresh).mean()
        ana = window_marginal(s, w).weights[1]
        assert abs(freq1 - ana) <= 4 * np.sqrt(ana * (1 - ana) / n)

    def test_finite_dt_valid_distribution(self):
        s = family("linear", dt=(0.25, 1.0))
        m = window_marginal(s, uniform_window())
        assert abs(float(m.weights.sum()) - 1.0) <= 1e-6
        assert np.all(m.weights >= 0)
        assert tv_distance(m, P0) > 0

    @pytest.mark.parametrize("k, tv", [(1.0, 13 / 320), (0.1, 229 / 32000)])
    def test_linear_uniform_rational_tv(self, k, tv):
        # linear rows times the uniform window's linear h are polynomials,
        # so the window TV is rational
        f = make_family("linear", make_distribution([0.2, 0.3, 0.5]),
                        dt=[0.25 * k, 0.5 * k, k])
        m = window_marginal(f, uniform_window())
        assert abs(tv_distance(m, f.p0) - tv) <= 1e-15

    def test_marginal_preserving_family_gives_prior(self):
        s = family("linear", dt=(1.0, 1.0))
        m = window_marginal(s, uniform_window())
        assert np.abs(m.weights - P0.weights).max() <= 1e-7


windows = st.one_of(
    st.floats(0.5, 3.0).map(uniform_window),
    st.tuples(st.floats(0.5, 3.0), st.floats(0.1, 4.0)).map(
        lambda wr: truncexp_window(*wr)),
    st.floats(0.5, 3.0).map(table_window),
)


class TestWindowProperties:
    @settings(max_examples=40, deadline=None)
    @given(w=windows, frac=st.floats(0.0, 1.2))
    def test_theta_is_twice_omega(self, w, frac):
        d = frac * w.width
        # exact below the window length; beyond it theta is 1 and omega is
        # the whole mass 1/2 of h, to the quadrature tolerance
        assert theta(w, d) == pytest.approx(2.0 * omega(w, d), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(w=windows, kind=st.sampled_from(["linear", "frozen"]),
           dt=st.floats(0.0, 4.0), first=st.floats(0.05, 0.95))
    def test_equal_collapse_times_give_prior(self, w, kind, dt, first):
        p0 = make_distribution([first, 1.0 - first])
        f = make_family(kind, p0, dt=(dt, dt))
        assert np.abs(window_marginal(f, w).weights - p0.weights).max() <= 1e-12


class TestScheduleAndSerialization:
    def test_schedule_validation(self):
        with pytest.raises(InvalidSpec):
            Schedule(1.0, 0.5, 1)  # t_b before t_a
        with pytest.raises(InvalidSpec):
            Schedule(0.0, float("inf"), 1)
        with pytest.raises(InvalidSpec):
            Schedule(0.0, 1.0, 2)

    def test_reads_windows_and_schedule(self):
        knots = {"times": [0.0, 0.5, 2.0], "values": [0.25, 0.75, 0.25]}
        uniform = window_from_dict({"dt_window": 1.5, "g": {"kind": "uniform"}})
        truncexp = window_from_dict({"dt_window": 2.0, "g": {"kind": "truncexp", "rate": 0.5}})
        table = window_from_dict({"dt_window": 2.0, "g": {"kind": "table", **knots}})
        assert (uniform.kind, uniform.width, uniform.rate) == ("uniform", 1.5, None)
        assert (truncexp.kind, truncexp.width, truncexp.rate) == ("truncexp", 2.0, 0.5)
        assert (table.kind, table.width, table.rate) == ("table", 2.0, None)
        assert np.array_equal(table.grid_times, knots["times"])
        assert np.array_equal(table.grid_values, knots["values"])
        assert uniform.grid_times is None and truncexp.grid_times is None
        assert schedule_from_dict({"tA": 0.25, "tB": 0.5, "x": 0}) == Schedule(0.25, 0.5, 0)

    @pytest.mark.parametrize("read, d, key", [
        (window_from_dict, {"g": {"kind": "uniform"}}, "dt_window"),
        (window_from_dict, {"dt_window": 1.0}, "g"),
        (window_from_dict, {"dt_window": 1.0, "g": {}}, "kind"),
        (schedule_from_dict, {"tA": 0.0, "x": 1}, "tB"),
    ])
    def test_missing_key_named(self, read, d, key):
        with pytest.raises(InvalidSpec, match=f"'{key}'"):
            read(d)
