"""Tests of the benchmark's reference computations (numpy and scipy only).

They compare ``reference.py`` with hand values and with estimates drawn
pair by pair with numpy. The file name keeps them out of the package's own
test run; run them with

    python3 -m pytest perfbench/check_reference.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from workloads import SCENARIOS  # noqa: E402

UNIFORM = {"kind": "uniform"}
TRUNCEXP = {"kind": "truncexp", "rate": 1.5}
TABLE = {"kind": "table", "times": [0.0, 0.5, 1.0], "values": [0.5, 1.5, 0.5]}
KINKED = {"kind": "table", "times": [0.0, 0.2, 0.7, 1.6, 2.0],
          "values": [0.1, 0.9, 0.3, 0.6, 0.4]}
DENSITIES = [(UNIFORM, 1.0), (TRUNCEXP, 1.0), (TABLE, 1.0), (UNIFORM, 2.0), (TRUNCEXP, 2.0)]


def _normalised(g, width):
    g = dict(g)
    if g["kind"] == "table":
        t, v = np.asarray(g["times"]), np.asarray(g["values"])
        g["values"] = list(v / np.trapezoid(v, t))
    return g


DENSITIES.append((_normalised(KINKED, 2.0), 2.0))


@pytest.mark.parametrize("g,width", DENSITIES)
def test_difference_density_has_half_the_mass(g, width):
    assert ref.omega(g, width, width) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("d", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1.5])
def test_theta_uniform_is_two_r_minus_r_squared(d):
    r = min(d, 1.0)
    assert ref.theta_direct(UNIFORM, 1.0, d) == pytest.approx(2 * r - r * r, abs=1e-12)
    assert ref.theta_uniform(d, 1.0) == pytest.approx(2 * r - r * r, abs=1e-15)
    assert ref.theta_uniform(2 * d, 2.0) == pytest.approx(2 * r - r * r, abs=1e-15)


@pytest.mark.parametrize("g,width", DENSITIES)
@pytest.mark.parametrize("share", [0.1, 0.3, 0.65])
def test_theta_is_twice_omega(g, width, share):
    d = share * width
    assert ref.theta_direct(g, width, d) == pytest.approx(2 * ref.omega(g, width, d), abs=1e-11)


def test_truncexp_density_closed_form_matches_self_convolution():
    lam, width = 1.5, 1.0
    u = np.linspace(0.0, 0.95, 9)
    direct = []
    for v in u:
        t = np.linspace(0.0, width - v, 200_001)
        direct.append(np.trapezoid(ref.density(TRUNCEXP, width, t)
                                   * ref.density(TRUNCEXP, width, t + v), t))
    assert np.allclose(ref.difference_density(TRUNCEXP, width, u), direct, atol=1e-6)
    norm = 1 - math.exp(-lam * width)
    assert ref.difference_density(TRUNCEXP, width, 0.0) == pytest.approx(
        lam * (1 - math.exp(-2 * lam * width)) / (2 * norm**2), rel=1e-14)


def test_uniform_difference_density_is_triangle():
    u = np.array([0.0, 0.25, 1.0, 1.5])
    assert np.allclose(ref.difference_density(UNIFORM, 1.0, u), [1.0, 0.75, 0.0, 0.0])


@pytest.mark.parametrize("g,width", DENSITIES)
def test_theta_against_pair_sampling(g, width):
    rng = np.random.default_rng(17)
    n = 400_000
    gap = np.abs(ref.sample_times(g, width, n, rng) - ref.sample_times(g, width, n, rng))
    d = 0.3 * width
    p = ref.theta_direct(g, width, d)
    assert abs(np.mean(gap <= d) - p) <= 5 * math.sqrt(p * (1 - p) / n)


def test_schedule_marginal_hand_values():
    # frozen pair: the outcome with dt = 0 has collapsed, the other has not
    m = ref.schedule_marginal([0.3, 0.7], "frozen", [0.0, 1.0], 0.5)
    assert np.allclose(m, [0.51, 0.49], atol=1e-15)
    assert ref.schedule_tv([0.3, 0.7], "frozen", [0.0, 1.0], 0.5) == pytest.approx(0.21, abs=1e-15)
    # linear: w = (1, 0.5) at s = 0.5 for dt = (0.5, 1)
    m = ref.schedule_marginal([0.4, 0.6], "linear", [0.5, 1.0], 0.5)
    assert np.allclose(m, [0.4 * (1 - 0.7 + 1), 0.6 * (1 - 0.7 + 0.5)], atol=1e-15)


@pytest.mark.parametrize("kind", ["linear", "frozen"])
def test_schedule_marginal_is_prior_at_the_ends_and_for_equal_durations(kind):
    p0 = [0.2, 0.3, 0.5]
    assert np.allclose(ref.schedule_marginal(p0, kind, [0.25, 0.5, 1.0], 0.0), p0)
    assert np.allclose(ref.schedule_marginal(p0, kind, [0.25, 0.5, 1.0], 1.0), p0)
    assert np.allclose(ref.schedule_marginal(p0, kind, [0.5] * 3, 0.3), p0, atol=1e-16)


def test_schedule_marginal_against_pair_sampling():
    rng = np.random.default_rng(5)
    p0, dt, s, n = np.array([0.2, 0.3, 0.5]), [0.25, 0.5, 1.0], 0.3, 400_000
    latent = rng.choice(3, size=n, p=p0)
    w = ref.collapse_weights("linear", dt, s)[latent]
    out = np.where(rng.random(n) < w, latent, rng.choice(3, size=n, p=p0))
    want = ref.schedule_marginal(p0, "linear", dt, s)
    assert np.all(np.abs(np.bincount(out, minlength=3) / n - want)
                  <= 5 * np.sqrt(want * (1 - want) / n))


@pytest.mark.parametrize("name", ["truncexp3", "truncexp4", "table2", "uniform3"])
def test_exact_window_marginal_against_pair_sampling(name):
    scen = SCENARIOS[name]
    w = scen["window"]
    args = (scen["p0"], scen["family"]["kind"], scen["family"]["dt"], w["dt_window"], w["g"])
    want = ref.exact_window_marginal(*args)
    assert want.sum() == pytest.approx(1.0, abs=1e-13)
    n = 1_000_000
    out = ref.sample_window_outputs(*args, n, np.random.default_rng(23))
    freq = np.bincount(out, minlength=want.size) / n
    assert np.all(np.abs(freq - want) <= 5 * np.sqrt(want * (1 - want) / n))


def test_exact_window_marginal_is_prior_for_equal_durations():
    for kind in ("linear", "frozen"):
        got = ref.exact_window_marginal([0.2, 0.3, 0.5], kind, [0.4] * 3, 1.0, TRUNCEXP)
        assert np.allclose(got, [0.2, 0.3, 0.5], atol=1e-15)


def test_exact_window_marginal_uniform_hand_value():
    # p0 = (.5, .5), dt = (0, 1), uniform unit window: the drift of outcome 1 is
    # -p0(1) * p0(0) * (1 - u) over u in (0, 1), weighted by h = 1 - u,
    # so P(1) = 0.5 - 0.25 * int (1-u)^2 = 0.5 - 1/12
    got = ref.exact_window_marginal([0.5, 0.5], "linear", [0.0, 1.0], 1.0, UNIFORM)
    assert np.allclose(got, [0.5 + 1 / 12, 0.5 - 1 / 12], atol=1e-15)


def test_two_term_and_exact_window_marginals_uniform_hand_values():
    # p0 = (.5, .5), dt = (.5, 1), uniform unit window. On u < .5 the drift of
    # outcome 0 is u / 4, on .5 < u < 1 it is (1 - u) / 4; h = 1 - u.
    # Exact: P(0) = 1/2 + 1/48 + 1/96 = 1/2 + 1/32.
    # Two-term: Theta = 3/4, Omega = 3/8, int_0^.5 (1/2 + u/4)(1 - u) du = 5/24,
    # so P(0) = (1/4)(1/2) + 2 (5/24) = 1/2 + 1/24.
    args = ([0.5, 0.5], "linear", [0.5, 1.0], 1.0, UNIFORM)
    assert np.allclose(ref.exact_window_marginal(*args), [0.5 + 1 / 32, 0.5 - 1 / 32], atol=1e-15)
    assert np.allclose(ref.two_term_window_marginal(*args), [0.5 + 1 / 24, 0.5 - 1 / 24],
                       atol=1e-15)


@pytest.mark.parametrize("g,width", DENSITIES)
def test_two_term_window_marginal_is_prior_for_equal_durations(g, width):
    for kind in ("linear", "frozen"):
        got = ref.two_term_window_marginal([0.2, 0.3, 0.5], kind, [0.4] * 3, width, g)
        assert np.allclose(got, [0.2, 0.3, 0.5], atol=1e-12)


@pytest.mark.parametrize("name", ["truncexp3", "truncexp4", "table2", "uniform3"])
def test_two_term_window_marginal_sums_to_one_and_misses_the_exact_mixture(name):
    scen = SCENARIOS[name]
    w = scen["window"]
    args = (scen["p0"], scen["family"]["kind"], scen["family"]["dt"], w["dt_window"], w["g"])
    got = ref.two_term_window_marginal(*args)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert ref.tv(got, ref.exact_window_marginal(*args)) > 1e-4


def test_compositions_enumerate_every_vector_once():
    comps = ref.compositions(5, 3)
    assert comps.shape == (math.comb(7, 2), 3)
    assert np.all(comps.sum(axis=1) == 5) and np.all(comps >= 0)
    assert len({tuple(c) for c in comps}) == comps.shape[0]


def test_exact_multinomial_hand_values():
    # two fair coin flips: P = 1/4, 1/2, 1/4; (2, 0) and (0, 2) are the extremes
    assert ref.exact_multinomial_pvalue([2, 0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)
    assert ref.exact_multinomial_pvalue([1, 1], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    # binomial: agrees with the two-sided exact binomial test of scipy
    for k in (0, 2, 5, 9):
        want = stats.binomtest(k, 12, 0.3).pvalue
        assert ref.exact_multinomial_pvalue([k, 12 - k], [0.3, 0.7]) == pytest.approx(want, rel=1e-9)


def test_exact_multinomial_against_scipy_pmf_enumeration():
    p = np.array([0.7, 0.2, 0.07, 0.03])
    counts = np.array([15, 6, 2, 1])
    obs = stats.multinomial.pmf(counts, 24, p)
    total = sum(q for q in (stats.multinomial.pmf(c, 24, p) for c in ref.compositions(24, 4))
                if q <= obs + 1e-15)
    assert ref.exact_multinomial_pvalue(counts, p) == pytest.approx(total, rel=1e-12)


def test_binary_capacity_hand_values():
    h2 = lambda e: -e * math.log2(e) - (1 - e) * math.log2(1 - e)  # noqa: E731
    for e in (0.01, 0.1, 0.3):
        assert ref.binary_capacity([1 - e, e], [e, 1 - e]) == pytest.approx(1 - h2(e), abs=1e-10)
    assert ref.binary_capacity([1, 0], [0.5, 0.5]) == pytest.approx(math.log2(5 / 4), abs=1e-10)
    assert ref.binary_capacity([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-10)
    assert ref.binary_capacity([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_binary_capacity_against_grid_search():
    rows = np.array([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])
    r = np.linspace(0, 1, 200_001)[:, None]
    mix = (1 - r) * rows[0] + r * rows[1]
    hy = -(mix * np.log2(mix)).sum(axis=1)
    hx = -(rows * np.log2(rows)).sum(axis=1)
    info = hy - (1 - r[:, 0]) * hx[0] - r[:, 0] * hx[1]
    assert ref.binary_capacity(*rows) == pytest.approx(info.max(), abs=1e-10)
