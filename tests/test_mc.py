import decimal
import importlib
import importlib.util
import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsebox.mc as mc
from collapsebox.behaviors import make_distribution
from collapsebox.collapse import CollapseFamily, make_family, marginal_at
from collapsebox.errors import AlphabetMismatch, InvalidSpec
from collapsebox.mc import (
    _BLOCK,
    _EXACT_BLOCK,
    _chi2_sf,
    _compositions,
    _exact_multinomial,
    _log_factorials,
    EmpiricalDist,
    SimConfig,
    gof_test,
    replica_uniforms,
    simulate_single,
    simulate_twobox,
    simulate_window,
)
from collapsebox.scenarios import Schedule, TimeDensity

P0 = make_distribution([0.3, 0.7])


def asym_family():
    return make_family("frozen", P0, dt=(0.0, 1.0))


def inst_family():
    return make_family("instantaneous", P0)


class TestDeterminism:
    def test_identical_runs(self):
        fam = asym_family()
        a = simulate_single(fam, 0.5, SimConfig(10_000, 42))
        b = simulate_single(fam, 0.5, SimConfig(10_000, 42))
        assert np.array_equal(a.counts, b.counts)

    def test_worker_invariance(self):
        fam = asym_family()
        ref = simulate_single(fam, 0.5, SimConfig(10_001, 9, workers=1))
        for workers in (2, 3, 8):
            alt = simulate_single(fam, 0.5,
                                  SimConfig(10_001, 9, workers=workers))
            assert np.array_equal(ref.counts, alt.counts)
        w = TimeDensity("uniform", 1.0)
        s = asym_family()
        r1 = simulate_window(s, w, SimConfig(5_000, 3, workers=1))
        r8 = simulate_window(s, w, SimConfig(5_000, 3, workers=8))
        assert np.array_equal(r1.counts, r8.counts)

    def test_worker_invariance_across_blocks(self):
        # more replicas than one block: workers share several blocks
        n = 2 * _BLOCK + 1_001
        w = TimeDensity("uniform", 1.0)
        s = asym_family()
        ref = simulate_window(s, w, SimConfig(n, 13, workers=1))
        alt = simulate_window(s, w, SimConfig(n, 13, workers=2))
        assert ref.counts.sum() == n
        assert np.array_equal(ref.counts, alt.counts)

    def test_single_replica_reproducible(self):
        fam = inst_family()
        outs = {tuple(simulate_single(fam, 0.0, SimConfig(1, 123)).counts)
                for _ in range(5)}
        assert len(outs) == 1
        assert sum(next(iter(outs))) == 1

    def test_stream_partition_invariance(self):
        def uniforms(lo, hi):
            return np.vstack([u.copy() for u in replica_uniforms(77, lo, hi)])

        full = uniforms(0, 2 * _BLOCK + 500)
        assert full.shape == (2 * _BLOCK + 500, 3)
        for cut in (123, _BLOCK, _BLOCK + 1):
            parts = np.vstack([uniforms(0, cut), uniforms(cut, 2 * _BLOCK + 500)])
            assert np.array_equal(full, parts)

    def test_stream_blocks(self):
        sizes = [len(u) for u in replica_uniforms(5, 3, 2 * _BLOCK + 10)]
        assert sizes == [_BLOCK, _BLOCK, 7]

    def test_bad_config(self):
        with pytest.raises(InvalidSpec):
            SimConfig(0, 1)
        with pytest.raises(InvalidSpec, match="seed"):
            SimConfig(10, -1)
        with pytest.raises(InvalidSpec, match="worker count"):
            SimConfig(10, 1, workers=0)
        # numpy's multinomial counts are int64: n = 2**63 would overflow them
        with pytest.raises(InvalidSpec, match=r"< 2\*\*63, got 9223372036854775808"):
            SimConfig(2**63, 1)
        e = simulate_single(asym_family(), 0.5, SimConfig(2**63 - 1, 1))
        assert e.counts.sum() == 2**63 - 1


class TestBlockAndWorkerInvariance:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3_000), seed=st.integers(0, 2**32 - 1),
           workers=st.integers(1, 4), block=st.integers(1, 700))
    def test_counts_independent_of_split(self, n, seed, workers, block):
        fam = make_family("linear", P0, dt=(0.25, 1.0))
        w = TimeDensity("truncexp", 1.0, rate=2.0)
        runs = (lambda cfg: simulate_single(fam, 0.4, cfg),
                lambda cfg: simulate_twobox(fam, Schedule(0.0, 0.4, 0), cfg),
                lambda cfg: simulate_window(fam, w, cfg))
        ref = [run(SimConfig(n, seed)).counts for run in runs]
        with mock.patch.object(mc, "_BLOCK", block):
            alt = [run(SimConfig(n, seed, workers)).counts for run in runs]
        for r, a in zip(ref, alt):
            assert np.array_equal(r, a)


P3 = make_distribution([0.2, 0.3, 0.5])
PIN_N = 3 * 8192 + 123  # three blocks of 2^13 replicas and a part


def rows_families():
    """One family of each kind, as in test_collapse.TestRows."""
    table_values = [[[0.2, 0.3, 0.5]] * 3,
                    [[0.6, 0.15, 0.25], [0.1, 0.65, 0.25], [0.1, 0.15, 0.75]],
                    np.eye(3).tolist()]
    return [
        make_family("instantaneous", P3),
        make_family("linear", P3, dt=(0.0, 0.3, 1.1)),
        make_family("frozen", P3, dt=(0.0, 0.7, 0.3)),
        make_family("exponential", P3, rates=(2.0, 7.0, 30.0)),
        make_family("table", P3, grid_times=(0.0, 0.5, 1.0), grid_values=table_values),
    ]


def triangle_window():
    return TimeDensity("table", 1.0, grid_times=(0.0, 0.5, 1.0), grid_values=(0.0, 2.0, 0.0))


class TestPinnedCounts:
    """Exact counts of the stream layout, recorded once TestStreamOracle's
    by-hand draws reproduced them; any change to the streams or to the
    draws shows here."""

    # kind: simulate_single at 0.4, simulate_twobox at tA = 0.1, tB = 0.35,
    # simulate_window on a uniform and on a triangular window
    PINNED = {
        "instantaneous": ([4978, 7366, 12355], [5008, 7320, 12371],
                          [4834, 7531, 12334], [4913, 7429, 12357]),
        "linear": ([6572, 9692, 8435], [7154, 9268, 8277],
                   [5934, 8120, 10645], [6225, 7978, 10496]),
        "frozen": ([6474, 2201, 16024], [8933, 5843, 9923],
                   [6150, 6161, 12388], [6603, 6123, 11973]),
        "exponential": ([3250, 7759, 13690], [2832, 7392, 14475],
                        [3959, 7429, 13311], [4023, 7249, 13427]),
        "table": ([4859, 7424, 12416], [5028, 7400, 12271],
                  [4846, 7529, 12324], [4971, 7482, 12246]),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_three_outcomes(self, workers):
        uniform = TimeDensity("uniform", 1.0)
        for f in rows_families():
            got = (simulate_single(f, 0.4, SimConfig(PIN_N, 101, workers)),
                   simulate_twobox(f, Schedule(0.1, 0.35, 1), SimConfig(PIN_N, 102, workers)),
                   simulate_window(f, uniform, SimConfig(PIN_N, 103, workers)),
                   simulate_window(f, triangle_window(), SimConfig(PIN_N, 104, workers)))
            assert [e.counts.tolist() for e in got] == list(self.PINNED[f.kind]), f.kind

    def test_eight_outcomes(self):
        p8 = make_distribution(np.arange(1, 9) / 36)
        lin = make_family("linear", p8, dt=np.linspace(0.1, 1.5, 8))
        exp = make_family("exponential", p8, rates=np.linspace(1.0, 8.0, 8))
        got = (simulate_single(lin, 0.6, SimConfig(PIN_N, 105)),
               simulate_window(lin, TimeDensity("truncexp", 2.0, rate=1.5), SimConfig(PIN_N, 106)),
               simulate_window(exp, TimeDensity("uniform", 1.0), SimConfig(PIN_N, 107)))
        assert [e.counts.tolist() for e in got] == [
            [959, 1947, 2810, 3356, 3581, 3827, 3927, 4292],
            [796, 1602, 2282, 2914, 3456, 4102, 4491, 5056],
            [545, 1192, 1886, 2612, 3411, 4150, 5081, 5822]]

    def test_pins_are_hand_draws(self):
        # the three-outcome pins, rebuilt from each seed's streams by hand
        uniform = TimeDensity("uniform", 1.0)
        for f in rows_families():
            hand = [hand_fixed(f, 101, 0, PIN_N, 0.4), hand_fixed(f, 102, 0, PIN_N, 0.35 - 0.1),
                    hand_window(f, uniform, 103, PIN_N), hand_window(f, triangle_window(), 104, PIN_N)]
            assert hand == list(self.PINNED[f.kind]), f.kind


def generator(seed, *spawn_key):
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def cell_probs(rows):
    """Multinomial cell probabilities of nonnegative rows: the differences
    of their cumulative sums, capped at 1, with the last sum set to 1."""
    cum = np.minimum(np.cumsum(rows, axis=-1), 1.0)
    cum[..., -1] = 1.0
    return np.diff(cum, axis=-1, prepend=0.0)


def hand_fixed(f, seed, point, n, s):
    """Bob's counts at elapsed time s, drawn by hand from numpy alone: point
    p's stream, SeedSequence(seed, spawn_key=(p,)), draws the latent counts
    L ~ Multinomial(n, P0), then the joint counts Multinomial(L_a, f_a(s)),
    whose column sums are Bob's counts."""
    gen = generator(seed, point)
    latent = gen.multinomial(n, cell_probs(f.p0.weights))
    return gen.multinomial(latent, cell_probs(f.profile(s))).sum(axis=0).tolist()


def hand_window(f, g, seed, n):
    """The window's counts, drawn by hand from whole cumulative rows: point
    0's stream draws the latent counts, the replicas are numbered in latent
    order, and replica j takes uniforms [3j, 3j + 3) of the stream
    SeedSequence(seed, spawn_key=(0, 1)) for t_A, t_B and its output."""
    latent = np.repeat(np.arange(f.size), generator(seed, 0).multinomial(n, cell_probs(f.p0.weights)))
    u = generator(seed, 0, 1).random(3 * n).reshape(n, 3)
    t_a, t_b = g.sample(u[:, 0]), g.sample(u[:, 1])
    cum = np.cumsum(f.rows(latent, np.where(t_b >= t_a, t_b - t_a, math.inf)), axis=1)
    out = np.minimum((u[:, 2, None] >= cum).sum(1), f.size - 1)
    return np.bincount(out, minlength=f.size).tolist()


class TestStreamOracle:
    """The simulators' counts are by-hand draws from numpy's multinomial and
    the window's stream, calling nothing in mc; a window worker's `advance`
    lands where the stream is."""

    N, SEED = 2 * _BLOCK + 77, 2**128 - 1

    def test_fixed_elapsed_at_point_1(self):
        for f in rows_families():
            hand = hand_fixed(f, self.SEED, 1, self.N, 0.45)
            for workers in (1, 2):
                got = simulate_single(f, [0.2, 0.45], SimConfig(self.N, self.SEED, workers))
                assert got[1].counts.tolist() == hand, (f.kind, workers)

    def test_window(self):
        for g in (TimeDensity("uniform", 1.0), triangle_window()):
            for f in rows_families():
                hand = hand_window(f, g, self.SEED, self.N)
                for workers in (1, 2):
                    got = simulate_window(f, g, SimConfig(self.N, self.SEED, workers))
                    assert got.counts.tolist() == hand, (f.kind, workers)


class TestConditionalLaw:
    def test_fixed_time_counts_fit_the_multinomial(self):
        # n = 6 replicas over 4,000 seeds: each count vector is one draw of
        # Multinomial(6, P0 F(t)); a draw that lost the latent's row would
        # fit Multinomial(6, P0) or another row instead
        p0 = make_distribution([0.6, 0.2, 0.2])
        f = make_family("frozen", p0, dt=(2.0, 0.0, 0.0))
        q = marginal_at(f, 0.5).weights  # (0.36, 0.32, 0.32)
        comps = [c for c in itertools.product(range(7), repeat=3) if sum(c) == 6]
        tally = dict.fromkeys(comps, 0)
        for seed in range(4000):
            tally[tuple(simulate_single(f, 0.5, SimConfig(6, seed)).counts.tolist())] += 1
        pmf = [math.factorial(6) * math.prod(q[i] ** c[i] / math.factorial(c[i]) for i in range(3))
               for c in comps]
        report = gof_test(EmpiricalDist(np.array(list(tally.values())), 4000),
                          make_distribution(pmf), alpha=0.001)
        assert len(comps) == 28 and report.method == "chi2"
        assert not report.reject, report

    def test_weights_numpy_refuses(self, monkeypatch):
        # make_distribution admits a sum of 1 + 5e-10 and validation a table
        # entry of -5e-10, which Generator.multinomial refuses; neither moves
        # a replica
        uniform, cfg = TimeDensity("uniform", 1.0), SimConfig(5000, 3)
        f = make_family("linear", make_distribution([1 + 5e-10, 0.0]), dt=(0.5, 1.0))
        for e in (simulate_single(f, 0.3, cfg), simulate_window(f, uniform, cfg)):
            assert e.counts.tolist() == [5000, 0]
        # outcome 1 has prior 0, and row 0 gives it -5e-10 at s = 0.5
        p0 = make_distribution([0.5, 0.0, 0.5])
        values = [[p0.weights] * 3,
                  [[0.6, -5e-10, 0.4 + 5e-10], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
                  np.eye(3)]
        table = make_family("table", p0, grid_times=(0.0, 0.5, 1.0), grid_values=values)
        assert simulate_single(table, 0.5, cfg).counts[1] == 0
        assert simulate_window(table, uniform, cfg).counts[1] == 0
        # a window replica at t_A = 0, t_B = 0.5 whose output uniform lies
        # between the cumulative weights 0.6 - 5e-10 and 0.6 of row 0
        monkeypatch.setattr(mc, "replica_uniforms",
                            lambda seed, lo, hi: [np.tile([0.0, 0.5, 0.6 - 2.5e-10], (hi - lo, 1))])
        e = simulate_window(table, uniform, cfg)
        assert e.counts[1] == 0 and e.counts.sum() == 5000


class TestDrawOracle:
    """A scalar latent's columns are the columns of its rows bit for bit,
    and the window reads all of them but the last."""

    def check(self, s):
        for f in rows_families():
            for a in range(f.size):
                rows = f.rows(np.full(s.size, a), s)
                assert np.array_equal(np.array(list(f.columns(a, s))), rows.T), (f.kind, a)

    def test_window(self):
        u = np.random.default_rng(8).random((2 * _BLOCK + 77, 2))
        for g in (TimeDensity("uniform", 1.0), triangle_window(),
                  TimeDensity("truncexp", 1.0, rate=3.0)):
            t_a, t_b = g.sample(u[:, 0]), g.sample(u[:, 1])
            self.check(np.where(t_b >= t_a, t_b - t_a, math.inf))

    def test_fixed_elapsed(self):
        for s in (0.0, 0.2, 0.45, math.inf):
            self.check(np.full(100, s))

    def test_last_column_never_read(self, monkeypatch):
        # for nondecreasing columns the last one cannot change a draw
        columns = CollapseFamily.columns

        def all_but_last(self, latent, s):
            yield from itertools.islice(columns(self, latent, s), self.size - 1)
            raise AssertionError("the last column was read")

        families = rows_families()
        monkeypatch.setattr(CollapseFamily, "columns", all_but_last)
        for f in families:
            e = simulate_window(f, triangle_window(), SimConfig(2 * _BLOCK + 77, 9))
            assert e.counts.sum() == 2 * _BLOCK + 77


class TestGridPoints:
    """simulate_single at a 1-D array of times: time i is point i, drawn
    from point i's PCG64DXSM stream."""

    GRID = [0.0, 0.2, 0.45, math.inf]

    def test_layout_oracle(self):
        # each point's counts are a by-hand draw from its own stream
        n, seed = _BLOCK + 77, 2**128 - 1
        for f in rows_families():
            got = simulate_single(f, self.GRID, SimConfig(n, seed))
            assert len(got) == len(self.GRID)
            for i, (t, e) in enumerate(zip(self.GRID, got)):
                assert e.counts.tolist() == hand_fixed(f, seed, i, n, t), f.kind

    def test_workers(self):
        n = 2 * _BLOCK + 5
        for f in rows_families():
            ref = simulate_single(f, self.GRID, SimConfig(n, 17))
            alt = simulate_single(f, self.GRID, SimConfig(n, 17, workers=2))
            assert [e.counts.tolist() for e in ref] == [e.counts.tolist() for e in alt]

    def test_point_depends_on_its_own_time_and_index(self):
        # point i is a function of (t_i, i, seed, n): other grid times, and
        # how many there are, leave it as it is, but its index does not; point
        # 0 is the one-time run
        f, cfg = rows_families()[1], SimConfig(3000, 5)
        a = simulate_single(f, [0.1, 0.45, 0.2], cfg)
        b = simulate_single(f, np.array([0.9, 0.45]), cfg)
        assert a[1].counts.tolist() == b[1].counts.tolist()
        assert a[0].counts.tolist() != simulate_single(f, [0.45, 0.1], cfg)[1].counts.tolist()
        assert a[0].counts.tolist() == simulate_single(f, 0.1, cfg).counts.tolist()


class TestSimulateSingle:
    def test_zero_weight_outcome_never_drawn(self, monkeypatch):
        # u = 0 equals outcome 0's cumulative weight; the draw takes the
        # first index whose cumulative weight exceeds u, never outcome 0
        p = make_distribution([0.0, 0.5, 0.5])
        fam = make_family("linear", p, dt=(0.2, 0.4, 0.6))
        assert simulate_single(fam, 1.0, SimConfig(10, 0)).counts[0] == 0
        monkeypatch.setattr(mc, "replica_uniforms", lambda seed, lo, hi: [np.zeros((hi - lo, 3))])
        e = simulate_window(fam, TimeDensity("uniform", 1.0), SimConfig(10, 0))
        assert e.counts[0] == 0 and e.counts.sum() == 10

    def test_instantaneous_recovers_prior(self):
        fam = inst_family()
        e = simulate_single(fam, 0.7, SimConfig(100_000, 5))
        lo, hi = e.wilson_interval()
        assert np.all(lo <= P0.weights) and np.all(P0.weights <= hi)

    def test_asymmetric_matches_analytic(self):
        fam = asym_family()
        e = simulate_single(fam, 0.5, SimConfig(200_000, 6))
        ana = marginal_at(fam, 0.5).weights
        se = np.sqrt(ana * (1 - ana) / e.n)
        assert np.all(np.abs(e.freqs - ana) <= 4 * se)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(13)
        kinds = [("instantaneous", None, None), ("linear", (0.5, 1.2), None),
                 ("frozen", (0.3, 0.8), None), ("exponential", None, (2.0, 5.0))]
        for i in range(12):
            w = rng.random(2) + 0.05
            p = make_distribution(w / w.sum())
            kind, dt, rates = kinds[i % len(kinds)]
            fam = make_family(kind, p, dt=dt, rates=rates)
            s = float(rng.uniform(0, max(fam.dt_max, 1.0)))
            e = simulate_single(fam, s, SimConfig(100_000, 1000 + i))
            ana = marginal_at(fam, s).weights
            se = np.sqrt(np.maximum(ana * (1 - ana), 1e-12) / e.n)
            assert np.all(np.abs(e.freqs - ana) <= 4 * se + 1e-4)


class TestSimulateTwobox:
    def test_x0_prior(self):
        e = simulate_twobox(asym_family(), Schedule(0.0, 0.5, 0),
                            SimConfig(100_000, 21))
        lo, hi = e.wilson_interval()
        assert np.all(lo <= P0.weights) and np.all(P0.weights <= hi)

    def test_x1_instantaneous_prior(self):
        e = simulate_twobox(inst_family(), Schedule(0.0, 0.5, 1),
                            SimConfig(100_000, 22))
        lo, hi = e.wilson_interval()
        assert np.all(lo <= P0.weights) and np.all(P0.weights <= hi)

    def test_x1_asymmetric_analytic(self):
        e = simulate_twobox(asym_family(), Schedule(0.0, 0.5, 1),
                            SimConfig(200_000, 23))
        ana = np.array([0.51, 0.49])
        se = np.sqrt(ana * (1 - ana) / e.n)
        assert np.all(np.abs(e.freqs - ana) <= 4 * se)


class TestSimulateWindow:
    def test_instantaneous_prior(self):
        w = TimeDensity("uniform", 1.0)
        e = simulate_window(inst_family(), w, SimConfig(100_000, 31))
        lo, hi = e.wilson_interval()
        assert np.all(lo <= P0.weights) and np.all(P0.weights <= hi)

    def test_deviation_scales_with_theta(self):
        # same family, two window lengths: tighter window -> larger deviation
        s = make_family("linear", P0, dt=(0.25, 1.0))
        tvs = []
        for width in (1.0, 4.0):
            w = TimeDensity("uniform", width)
            e = simulate_window(s, w, SimConfig(400_000, 37))
            tvs.append(0.5 * np.abs(e.freqs - P0.weights).sum())
        assert tvs[0] > tvs[1]

    def test_signaling_deviation_significant(self):
        s = make_family("linear", P0, dt=(0.25, 1.0))
        w = TimeDensity("uniform", 1.0)
        e = simulate_window(s, w, SimConfig(400_000, 41))
        tv = 0.5 * np.abs(e.freqs - P0.weights).sum()
        se = float(np.sqrt(P0.weights[0] * P0.weights[1] / e.n))
        assert tv >= 5 * se


class TestGofTest:
    def test_calibration_under_null(self):
        fam = inst_family()
        rejects = 0
        n_seeds = 400
        for seed in range(n_seeds):
            e = simulate_single(fam, 0.5, SimConfig(2_000, 10_000 + seed))
            if gof_test(e, P0, alpha=0.01).reject:
                rejects += 1
        # binomial(400, 0.01): generous 0..7 acceptance band
        assert rejects <= 7

    def test_hand_computed_statistic(self):
        e = EmpiricalDist(np.array([5100, 4900]), 10_000)
        rep = gof_test(e, P0, alpha=0.01)
        # hand arithmetic: 2100^2/3000 + 2100^2/7000 = 1470 + 630
        assert rep.statistic == pytest.approx(2100.0, abs=1e-9)
        assert rep.reject

    def test_exact_fallback_path(self):
        e = EmpiricalDist(np.array([3, 7]), 10)  # expected counts 3 and 7
        rep = gof_test(e, P0, alpha=0.01)
        assert rep.method == "exact"
        assert not rep.reject
        rep2 = gof_test(EmpiricalDist(np.array([10, 0]), 10), P0, alpha=0.01)
        assert rep2.method == "exact"
        assert rep2.reject

    def test_chi2_rejects_count_in_impossible_cell(self):
        # 2 (n + 1) cells are too many to enumerate, so the chi-square path
        # sees the count where p is 0
        e = EmpiricalDist(np.array([999_999, 1]), 1_000_000)
        rep = gof_test(e, make_distribution([1.0, 0.0]), alpha=0.01)
        assert (rep.method, rep.statistic, rep.pvalue, rep.reject) == ("chi2", math.inf, 0.0, True)

    def test_exact_matches_binomial(self):
        from scipy.stats import binomtest
        e = EmpiricalDist(np.array([8, 2]), 10)
        rep = gof_test(e, P0, alpha=0.05)
        ref = binomtest(8, 10, 0.3).pvalue
        assert rep.pvalue == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_level_outside_unit_interval(self, alpha):
        with pytest.raises(InvalidSpec, match="significance level"):
            gof_test(EmpiricalDist(np.array([5, 5]), 10), P0, alpha=alpha)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            gof_test(EmpiricalDist(np.array([5, 5]), 10),
                     make_distribution([0.2, 0.3, 0.5]))

    def test_integer_valued_float_counts(self):
        p = make_distribution([0.7, 0.2, 0.07, 0.03])
        counts = np.array([17, 5, 2, 0])
        rep = gof_test(EmpiricalDist(counts, 24), p)
        assert rep.method == "exact"
        assert gof_test(EmpiricalDist(counts.astype(float), 24), p) == rep

    @pytest.mark.parametrize("counts", [[17.5, 4.5, 2, 0], [math.nan, 5, 2, 17],
                                        [math.inf, 0, 0, 0], [-1, 5, 2, 18], [25, 0, 0, 0]])
    def test_counts_not_integers_in_range(self, counts):
        # on the exact path these would index past the log-factorial table
        with pytest.raises(InvalidSpec, match=r"counts must be integers in \[0, 24\]"):
            gof_test(EmpiricalDist(np.array(counts), 24),
                     make_distribution([0.7, 0.2, 0.07, 0.03]))

    @pytest.mark.parametrize("counts, n", [([3, 3], 10), ([3, 8], 10), ([[5, 5]], 10),
                                           ([], 0), ([0, 0], 0), ([2, -1], 1)])
    def test_counts_that_are_not_n_draws(self, counts, n):
        # [3, 3] labelled as 10 draws passed the exact test with p = 0.99999...
        with pytest.raises(InvalidSpec, match=f"sum to n = {n} >= 1"):
            EmpiricalDist(np.array(counts, dtype=np.int64), n)


def lex_compositions(n, k):
    """Compositions of n into k parts in lexicographic order, one at a time."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in lex_compositions(n - head, k - 1):
            yield (head,) + tail


def scipy_exact_pvalue(counts, p, per_composition=True):
    """The exact test as a sum over scipy.stats.multinomial.pmf, term by term
    in composition order; per_composition=False scores all rows in one call."""
    from scipy import stats
    n = int(counts.sum())
    obs = float(stats.multinomial.pmf(counts, n, p))
    comps = np.array(list(lex_compositions(n, counts.size)))
    qs = ([float(stats.multinomial.pmf(c, n, p)) for c in comps]
          if per_composition else stats.multinomial.pmf(comps, n, p).tolist())
    pval = 0.0
    for q in qs:
        if q <= obs + 1e-15:
            pval += q
    return min(pval, 1.0)


class TestGofOracle:
    """Both GOF paths give scipy.stats' p-values to the last bit."""

    def check(self, counts, weights, per_composition=True):
        # scipy.stats.multinomial may replace the last weight by one minus
        # the others (older versions always do): make that a no-op
        p = np.array(weights, dtype=float)
        p[-1] = 1.0 - p[:-1].sum()
        counts = np.asarray(counts)
        rep = _exact_multinomial(counts, make_distribution(p), 0.01)
        assert rep.method == "exact"
        assert rep.pvalue == scipy_exact_pvalue(counts, p, per_composition)

    def test_random_exact_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(0, 31 if k <= 3 else 13))
            p = rng.dirichlet(np.ones(k))
            self.check(rng.multinomial(n, p), p)

    def test_ties(self):
        # permutations of a composition are equally likely under a uniform
        # p, but their pmf values can differ in the last bit; the first two
        # cases lose mass without the 1e-15 tie slack
        for counts, p in (([1, 2, 1, 1], [0.25] * 4), ([0, 3, 1, 2], [0.25] * 4),
                          ([5, 5], [0.5, 0.5]), ([4, 0, 4], [0.4, 0.2, 0.4])):
            self.check(counts, p)

    def test_largest_case(self):
        # k = 5, n = 40: C(44, 4) = 135,751 compositions, many blocks
        assert math.comb(44, 4) > 16 * _EXACT_BLOCK
        self.check([24, 6, 5, 2, 3], [0.5, 0.2, 0.15, 0.1, 0.05], False)

    def test_block_boundary(self):
        n, k = 40, 4  # C(43, 3) = 12,341 compositions: one full block and a part
        assert _EXACT_BLOCK < math.comb(n + k - 1, k - 1) < 2 * _EXACT_BLOCK
        blocks = list(_compositions(n, k))
        assert [len(b) for b in blocks] == [
            _EXACT_BLOCK, math.comb(n + k - 1, k - 1) - _EXACT_BLOCK]
        assert np.array_equal(np.vstack(blocks),
                              np.array(list(lex_compositions(n, k))))
        self.check([20, 12, 8, 0], [0.55, 0.25, 0.15, 0.05], False)

    def test_chi2_matches_scipy(self):
        # the closed-form tail and scipy's differ in the last bits; TestChi2Tail
        # holds it to a 40-digit evaluation
        from scipy import stats
        rng = np.random.default_rng(5)
        for k in range(2, 9):
            p = rng.dirichlet(np.ones(k) * 5)
            e = EmpiricalDist(rng.multinomial(5_000, p), 5_000)
            rep = gof_test(e, make_distribution(p))
            assert rep.method == "chi2"
            assert rep.pvalue == pytest.approx(float(stats.chi2.sf(rep.statistic, df=k - 1)),
                                               rel=1e-13, abs=0)
        # too many compositions to enumerate: chi-square despite small cells
        e = EmpiricalDist(np.array([30, 20, 6, 3, 1]), 60)  # C(64, 4) terms
        rep = gof_test(e, make_distribution([0.5, 0.3, 0.1, 0.05, 0.05]))
        assert rep.method == "chi2"
        assert rep.pvalue == pytest.approx(float(stats.chi2.sf(rep.statistic, df=4)),
                                           rel=1e-13, abs=0)
        # one outcome: a perfect fit on both paths, though a rounding-size
        # statistic leaves scipy's df = 0 p-value undefined
        rep = gof_test(EmpiricalDist(np.array([50]), 50),
                       make_distribution([1.0 - 1e-12]))
        assert rep.method == "chi2" and rep.statistic > 0
        assert math.isnan(stats.chi2.sf(rep.statistic, 0))
        assert rep.pvalue == 1.0 and not rep.reject
        rep = gof_test(EmpiricalDist(np.array([3]), 3), make_distribution([1.0 - 1e-12]))
        assert rep.method == "exact" and rep.pvalue == 1.0 and not rep.reject

    def test_enumeration_limit_counts_cells(self):
        # the exact test's cost tracks compositions x outcomes, so the limit
        # counts cells: k = 100, n = 3 has 171,700 compositions but 17.2M cells
        e = EmpiricalDist(np.array([2, 1] + [0] * 98), 3)
        rep = gof_test(e, make_distribution(np.full(100, 0.01)))
        assert rep.method == "chi2"
        # 135,751 compositions x 5 outcomes = 678,755 cells: still exact
        e = EmpiricalDist(np.array([24, 6, 5, 2, 3]), 40)
        rep = gof_test(e, make_distribution([0.5, 0.2, 0.15, 0.1, 0.05]))
        assert rep.method == "exact"
        # the benchmark's skewed4 prior at 24 replicas: 2,925 x 4 cells
        e = EmpiricalDist(np.array([17, 5, 2, 0]), 24)
        rep = gof_test(e, make_distribution([0.7, 0.2, 0.07, 0.03]))
        assert rep.method == "exact"


class TestLogFactorials:
    """The exact test's log-factorial table is scipy's gammaln bit for bit."""

    def test_equals_gammaln(self):
        from scipy.special import gammaln
        n = 600_000
        assert np.array_equal(_log_factorials(n), gammaln(np.arange(n + 1) + 1.0))

    def test_branch_edges(self):
        # the table ends at either side of cephes' two branch points: the
        # exact product below x = k + 1 = 13, and the short series from 1000
        from scipy.special import gammaln
        for n in [*range(10, 15), *range(998, 1002)]:
            table = _log_factorials(n)
            assert table.shape == (n + 1,)
            assert np.array_equal(table, gammaln(np.arange(n + 1) + 1.0)), n

    def test_matches_decimal(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            table = _log_factorials(1001)
            for k in [*range(0, 15), 100, 998, 999, 1000, 1001]:
                ref = float(decimal.Decimal(math.factorial(k)).ln())
                assert table[k] == pytest.approx(ref, rel=2e-16, abs=0), k


def decimal_chi2_sf(df, x):
    """The even-df chi-square tail e^-y sum_{j<df/2} y^j/j!, y = x/2, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        y = decimal.Decimal(x) / 2
        term, total = decimal.Decimal(1), decimal.Decimal(0)
        for j in range(df // 2):
            total += term
            term = term * y / (j + 1)
        return float(total * (-y).exp())


class TestChi2Tail:
    """The closed-form chi-square tail behind the chi-square GOF path."""

    # statistics at which e^-y is a normal double (y <= 700), so no tail
    # below is cut to 0
    XS = [0.0, 1e-300, 1e-9, 0.5, 1.0, 2.0, 3.841458820694124, 9.21, 30.0, 123.4,
          777.7, 1399.9]

    def test_df1_is_erfc_and_df2_is_exp(self):
        for x in self.XS:
            assert _chi2_sf(1, x) == math.erfc(math.sqrt(x / 2))
            assert _chi2_sf(2, x) == math.exp(-x / 2)

    @settings(max_examples=300, deadline=None)
    @given(df=st.integers(1, 300),
           xs=st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=2))
    def test_in_unit_interval_and_nonincreasing(self, df, xs):
        lo, hi = sorted(xs)
        q_lo, q_hi = _chi2_sf(df, lo), _chi2_sf(df, hi)
        assert 0.0 <= q_hi and q_lo <= 1.0
        # nonincreasing up to rounding: neighbouring statistics can give tails
        # a few ulps out of order, as scipy's chdtrc does too
        assert q_hi <= q_lo * (1 + 1e-12)

    def test_even_df_matches_decimal(self):
        eps = np.finfo(float).eps
        for df in range(2, 301, 2):
            for x in [*np.linspace(0.0, 3000.0, 31), *(df * np.array([0.1, 0.9, 1.1, 2.0, 5.0]))]:
                ref, got = decimal_chi2_sf(df, float(x)), _chi2_sf(df, float(x))
                if ref < 1e-290:  # subnormal or cut to 0
                    assert got < 1e-290
                    continue
                # beyond y = 700 each term is the exp of a sum near -y, whose
                # rounding is about y eps
                rel = 2e-14 if x <= 1400 else 2 * (x / 2) * eps
                assert got == pytest.approx(ref, rel=rel, abs=0), (df, x)

    def test_matches_scipy_chdtrc(self):
        from scipy.special import chdtrc
        for df in range(1, 301):
            xs = np.concatenate([np.linspace(0.0, 3000.0, 301),
                                 df * np.array([0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0])])
            got = np.array([_chi2_sf(df, float(x)) for x in xs])
            ref = chdtrc(df, xs)
            # the same tails are 0: where cephes' factor y^a e^-y / Gamma(a)
            # underflows
            assert np.array_equal(got == 0, ref == 0), df
            # up to y = 100: beyond, scipy's own error against 40 digits
            # passes 1e-13 (up to 2.3e-13 for y in 100-700), while the decimal
            # test above still holds this tail to 2e-14
            near = (xs <= 200) & (ref > 1e-290)
            np.testing.assert_allclose(got[near], ref[near], rtol=1e-13, atol=0)

    def test_infinite_statistic(self):
        assert _chi2_sf(1, math.inf) == _chi2_sf(4, math.inf) == 0.0


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer wraps these names; a missing one fails its
    # traced runs only, so check them here
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(m, a) for m, a, _ in spans.SPANS.values()] + list(spans.COUNTED.values())
    for module, attr in targets:
        target = importlib.import_module(f"collapsebox.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)
