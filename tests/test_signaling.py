import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsebox.mc as mc
from collapsebox.behaviors import make_distribution, tv_distance
from collapsebox.collapse import CollapseFamily, make_family
from collapsebox.errors import EmptyGrid, InvalidSpec, TimeBeforeTrigger
from collapsebox.mc import SimConfig, gof_test, simulate_single, simulate_twobox
from collapsebox.scenarios import Schedule, bob_marginal
from collapsebox.signaling import (
    InducedChannel,
    channel_capacity,
    induced_channel,
    witness,
    witness_sweep,
)

P0 = make_distribution([0.3, 0.7])


def family(kind="frozen", dt=(0.0, 1.0)):
    return make_family(kind, P0, dt=dt)


def inst_family():
    return make_family("instantaneous", P0)


def capacity_grid_oracle(rows, resolution=10**-4):
    """Brute-force capacity of a binary-input channel over a prior grid."""
    rows = np.asarray(rows, dtype=float)
    best = 0.0
    for w in np.arange(0.0, 1.0 + resolution / 2, resolution):
        prior = np.array([1 - w, w])
        joint = prior[:, None] * rows
        py = joint.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(joint > 0, joint * np.log2(joint / (prior[:, None] * py)), 0.0)
        best = max(best, float(terms.sum()))
    return best


def info_bits(rows, r):
    """I(X; Y) in bits for the input weights (1 - r, r)."""
    rows = np.asarray(rows, dtype=float)
    m = (1 - r) * rows[0] + r * rows[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(rows > 0, rows * np.log2(rows / m), 0.0).sum(axis=1)
    return sum(w * di for w, di in zip((1 - r, r), d) if w > 0)  # skip 0 * inf


def _law(k):
    """One output law on k outcomes, some of them possibly zero."""
    return (st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k)
            .filter(lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w)))


_laws = st.integers(2, 6).flatmap(_law)
_row_pairs = st.integers(2, 6).flatmap(lambda k: st.tuples(_law(k), _law(k))).map(np.vstack)


class TestWitness:
    def test_instantaneous_consistent(self):
        rep = witness(inst_family(), 0.5, SimConfig(50_000, 1))
        assert rep.tv_analytic <= 1e-12
        assert not rep.signaling
        assert rep.verdict == "non-signaling"

    def test_asymmetric_value_and_verdict(self):
        rep = witness(family(), 0.5, SimConfig(100_000, 2))
        assert rep.tv_analytic == pytest.approx(0.21, abs=1e-12)
        assert rep.signaling
        assert rep.ci_lo <= rep.tv_empirical <= rep.ci_hi

    def test_zero_beyond_longest_collapse(self):
        s = family("frozen", dt=(0.3, 0.9))
        for elapsed in (0.9, 1.0, 5.0):
            rep = witness(s, elapsed)
            assert rep.tv_analytic <= 1e-12

    def test_analytic_only_mode(self):
        rep = witness(family(), 0.5)
        assert rep.tv_empirical is None and rep.pvalue is None
        assert rep.signaling  # analytic-only verdict


class TestWitnessSweep:
    def test_instantaneous_flat_zero(self):
        reports = witness_sweep(inst_family(), np.linspace(0, 1, 11))
        assert all(r.tv_analytic <= 1e-12 for r in reports)

    def test_rise_and_return(self):
        s = family("frozen", dt=(0.2, 1.0))
        reports = witness_sweep(s, np.linspace(0, 1.0, 21))
        tvs = [r.tv_analytic for r in reports]
        assert tvs[0] <= 1e-12
        assert tvs[-1] <= 1e-12
        assert max(tvs) > 0.1

    def test_single_point(self):
        reports = witness_sweep(family(), [0.5])
        assert len(reports) == 1
        assert reports[0].tv_analytic == pytest.approx(0.21, abs=1e-12)

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            witness_sweep(family(), [])

    def test_tv_equals_per_point_marginals(self):
        # the whole grid's marginals come from one profile call, equal bit for
        # bit to Bob's marginal under each choice at each point
        p0 = make_distribution([0.2, 0.3, 0.5])
        knots = np.array([0.0, 0.4, 1.0])
        lin = make_family("linear", p0, dt=(0.4, 1.0, 0.0))
        families = [lin, make_family("frozen", p0, dt=(0.3, 0.0, 0.9)),
                    make_family("exponential", p0, rates=(2.0, 7.0, 30.0)),
                    make_family("table", p0, grid_times=knots, grid_values=lin.profile(knots))]
        for f in families:
            grid = np.union1d(np.linspace(0.0, 1.5 * f.dt_max, 13), f.kink_times)
            tvs = [r.tv_analytic for r in witness_sweep(f, grid)]
            assert tvs == [tv_distance(bob_marginal(f, 0, t), bob_marginal(f, 1, t))
                           for t in grid]

    def test_one_profile_call_per_grid(self, monkeypatch):
        f, calls = family(), []
        profile = CollapseFamily.profile

        def counting(self, s):
            calls.append(np.size(s))
            return profile(self, s)

        monkeypatch.setattr(CollapseFamily, "profile", counting)
        witness_sweep(f, np.linspace(0, 1, 11))
        assert calls == [11]
        # with Monte Carlo, one more: simulate_single's, for the whole grid
        calls.clear()
        witness_sweep(f, np.linspace(0, 1, 11), SimConfig(200, 1))
        assert calls == [11, 11]

    def test_point_i_is_simulate_single_point_i(self):
        # one simulate_single call draws every point; point 0 is what `witness`
        # draws at one time, at the largest seed too
        f, grid, seed = family("linear", (0.25, 1.0)), [0.0, 0.2, 0.5, 2.0], 2**128 - 1
        reports = witness_sweep(f, grid, SimConfig(500, seed), alpha=0.05)
        for rep, emp in zip(reports, simulate_single(f, grid, SimConfig(500, seed))):
            assert rep.tv_empirical == 0.5 * float(np.abs(emp.freqs - P0.weights).sum())
            assert rep.pvalue == gof_test(emp, P0, alpha=0.05).pvalue
        assert witness(f, grid[0], SimConfig(500, seed), alpha=0.05) == reports[0]

    @pytest.mark.parametrize("seed", [0, 7, 2**128 - 2])
    def test_consecutive_seeds_share_no_point(self, seed):
        # point 1 at seed s and point 0 at seed s + 1 draw different uniforms
        f, cfg = family("linear", (0.25, 1.0)), SimConfig(2000, seed)
        shifted = witness_sweep(f, [0.0, 0.5], cfg)[1]
        nxt = witness(f, 0.5, SimConfig(2000, seed + 1))
        assert shifted.tv_analytic == nxt.tv_analytic
        assert (shifted.tv_empirical, shifted.pvalue) != (nxt.tv_empirical, nxt.pvalue)

    @pytest.mark.parametrize("bad, error", [(-1.0, TimeBeforeTrigger), (np.nan, InvalidSpec)])
    def test_bad_point_fails_before_simulation(self, monkeypatch, bad, error):
        runs = []
        draw = mc._latent_counts

        def counting(*args, **kwargs):
            runs.append(None)
            return draw(*args, **kwargs)

        monkeypatch.setattr(mc, "_latent_counts", counting)
        witness_sweep(family(), [0.5, 0.7], SimConfig(1000, 1))
        assert len(runs) == 2  # the count sees every Monte Carlo point
        with pytest.raises(error):
            witness_sweep(family(), [0.5, bad], SimConfig(1000, 1))
        assert len(runs) == 2

    def test_infinite_time(self):
        # Bob reads the latent once collapse is complete: analytic TV 0, and
        # point 0 draws what the x = 0 schedule draws
        f, cfg = family("linear", (0.25, 1.0)), SimConfig(500, 3)
        inf, finite = witness_sweep(f, [math.inf, 0.5], cfg)
        assert finite.tv_analytic == witness(f, 0.5).tv_analytic
        assert inf.tv_analytic == 0.0 and not inf.signaling
        emp = simulate_twobox(f, Schedule(0.0, 0.5, 0), cfg)
        assert inf.tv_empirical == 0.5 * float(np.abs(emp.freqs - P0.weights).sum())
        assert inf.pvalue == gof_test(emp, P0).pvalue


class TestChannelCapacity:
    def test_identical_rows_zero(self):
        assert channel_capacity(InducedChannel([[0.3, 0.7], [0.3, 0.7]])) == 0.0

    def test_noiseless_one_bit(self):
        c = channel_capacity(InducedChannel([[1.0, 0.0], [0.0, 1.0]]))
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_channel_positive(self):
        rows = [[0.3, 0.7], [0.51, 0.49]]
        c = channel_capacity(InducedChannel(rows))
        assert c > 0
        assert c == pytest.approx(capacity_grid_oracle(rows), abs=1e-4)

    def test_randomized_channels_match_grid_search(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rows = rng.dirichlet(np.ones(3), size=2)
            c = channel_capacity(InducedChannel(rows))
            assert c == pytest.approx(capacity_grid_oracle(rows), abs=1e-4)
            assert 0.0 <= c <= 1.0 + 1e-12  # two inputs bound capacity by 1 bit

    def test_capacity_zero_iff_tv_zero(self):
        for kind, dt in (("instantaneous", None), ("frozen", (0.0, 1.0)),
                         ("linear", (1.0, 1.0)), ("linear", (0.25, 1.0))):
            s = family(kind, dt)
            for elapsed in (0.1, 0.5):
                rep = witness(s, elapsed)
                cap = channel_capacity(induced_channel(s, elapsed))
                if rep.tv_analytic <= 1e-12:
                    assert cap <= 1e-9
                else:
                    assert cap > 1e-9

    @settings(max_examples=100, deadline=None)
    @given(rows=_row_pairs)
    def test_capacity_within_one_bit(self, rows):
        assert 0.0 <= channel_capacity(InducedChannel(rows)) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(p=_laws)
    def test_equal_rows_exactly_zero(self, p):
        assert channel_capacity(InducedChannel([p, p])) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(rows=_row_pairs)
    def test_swapping_rows_leaves_capacity(self, rows):
        c = channel_capacity(InducedChannel(rows))
        # the bisection runs mirrored; the two may round apart by a few ulps
        assert channel_capacity(InducedChannel(rows[::-1])) == pytest.approx(c, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(rows=_row_pairs)
    def test_capacity_is_max_over_input_grid(self, rows):
        c = channel_capacity(InducedChannel(rows))
        for r in np.linspace(0.0, 1.0, 21):
            assert c >= info_bits(rows, r) - 1e-12

    def test_bad_channel(self):
        with pytest.raises(InvalidSpec):
            InducedChannel([[1.0, 0.0]])

    def test_matches_scipy_xlogy_bisection(self):
        # the same bisection with scipy's xlogy terms, summed output by output
        # over the outputs that either row reaches: equal bit for bit
        from scipy.special import xlogy
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = int(rng.integers(2, 41))
            rows = rng.dirichlet(np.ones(k) * rng.choice([0.1, 1.0, 10.0]), size=2)
            rows[rng.random((2, k)) < 0.2] = 0.0
            rows[:, 0] += 0.1
            rows /= rows.sum(axis=1, keepdims=True)
            used = rows[:, rows.sum(axis=0) > 0]
            lo, hi = 0.0, 1.0
            for _ in range(80):
                r = 0.5 * (lo + hi)
                d0 = d1 = 0.0
                for t0, t1 in xlogy(used, used / (used[0] + r * (used[1] - used[0]))).T:
                    d0, d1 = d0 + t0, d1 + t1
                lo, hi = (r, hi) if d1 > d0 else (lo, r)
            ref = float(np.clip(((1.0 - r) * d0 + r * d1) / np.log(2.0), 0.0, 1.0))
            assert channel_capacity(InducedChannel(rows)) == ref


class TestVerdictCalibration:
    def test_instantaneous_false_positive_rate(self):
        s = inst_family()
        alpha = 0.01
        detections = 0
        n_seeds = 300
        for seed in range(n_seeds):
            rep = witness(s, 0.5, SimConfig(2_000, 50_000 + seed), alpha=alpha)
            detections += rep.signaling
        # analytic TV is exactly zero, so the dual requirement forbids detection
        assert detections == 0
