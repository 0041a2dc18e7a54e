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
from collapsebox.collapse import make_family, marginal_at
from collapsebox.errors import AlphabetMismatch, InvalidSpec
from collapsebox.mc import (
    _BLOCK,
    _EXACT_BLOCK,
    _compositions,
    _exact_multinomial,
    EmpiricalDist,
    SimConfig,
    default_workers,
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

    def test_worker_count_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("COLLAPSE_BOX_THREADS", "1000000")
        assert default_workers() == 3
        monkeypatch.setenv("COLLAPSE_BOX_THREADS", "-4")
        assert default_workers() == 1

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
        assert full.shape == (2 * _BLOCK + 500, 4)
        for cut in (123, _BLOCK, _BLOCK + 1):
            parts = np.vstack([uniforms(0, cut), uniforms(cut, 2 * _BLOCK + 500)])
            assert np.array_equal(full, parts)

    def test_stream_blocks(self):
        sizes = [len(u) for u in replica_uniforms(5, 3, 2 * _BLOCK + 10)]
        assert sizes == [_BLOCK, _BLOCK, 7]

    def test_bad_config(self):
        with pytest.raises(InvalidSpec):
            SimConfig(0, 1)


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
    """Exact counts, recorded when the kernel drew from whole cumulative rows
    in blocks of 2^18 replicas; the column-by-column draw must reproduce them."""

    # kind: simulate_single at 0.4, simulate_twobox at tA = 0.1, tB = 0.35,
    # simulate_window on a uniform and on a triangular window
    PINNED = {
        "instantaneous": ([4929, 7520, 12250], [4886, 7452, 12361],
                          [5036, 7352, 12311], [4893, 7358, 12448]),
        "linear": ([6443, 9846, 8410], [6995, 9422, 8282],
                   [6081, 7926, 10692], [6161, 7875, 10663]),
        "frozen": ([6421, 2276, 16002], [8744, 5895, 10060],
                   [6372, 5855, 12472], [6506, 6098, 12095]),
        "exponential": ([3211, 7900, 13588], [2805, 7383, 14511],
                        [4163, 7277, 13259], [3964, 7170, 13565]),
        "table": ([4844, 7475, 12380], [4887, 7325, 12487],
                  [5013, 7380, 12306], [4939, 7337, 12423]),
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
            [914, 1953, 2751, 3275, 3633, 3923, 4032, 4218],
            [834, 1599, 2254, 2897, 3361, 4176, 4557, 5021],
            [588, 1141, 1926, 2699, 3308, 4270, 4958, 5809]]


class TestDrawOracle:
    """On the same uniforms, the column-by-column draw is that of whole
    cumulative rows, replica by replica, and its columns are the columns
    of those rows bit for bit."""

    def check(self, f, simulate, s_of, seed):
        n = f.size
        drawn = []
        real = mc._draw

        def oracle_draw(u, cum_p0, columns):
            latent = np.minimum(np.searchsorted(np.cumsum(f.p0.weights), u[:, 0],
                                                side="right"), n - 1)
            cum = np.cumsum(f.rows(latent, s_of(u)), axis=1)
            assert np.array_equal(np.array(list(columns(latent, u))), cum.T), f.kind
            out = real(u, cum_p0, columns)
            assert np.array_equal(out, np.minimum((u[:, 1, None] >= cum).sum(1), n - 1)), f.kind
            drawn.append(len(out))
            return out

        with mock.patch.object(mc, "_draw", oracle_draw):
            simulate(SimConfig(2 * _BLOCK + 77, seed))
        assert sum(drawn) == 2 * _BLOCK + 77

    def test_window(self):
        for g in (TimeDensity("uniform", 1.0), triangle_window(),
                  TimeDensity("truncexp", 1.0, rate=3.0)):
            def s_of(u):
                t_a, t_b = g.sample(u[:, 2]), g.sample(u[:, 3])
                return np.where(t_b >= t_a, t_b - t_a, math.inf)

            for f in rows_families():
                self.check(f, lambda cfg: simulate_window(f, g, cfg), s_of, 8)

    def test_fixed_elapsed(self):
        for s in (0.0, 0.2, 0.45, math.inf):
            for f in rows_families():
                self.check(f, lambda cfg: simulate_single(f, s, cfg),
                           lambda u: np.full(len(u), s), 9)


class TestSimulateSingle:
    def test_zero_weight_outcome_never_drawn(self, monkeypatch):
        # u = 0 equals outcome 0's cumulative weight; the draw takes the
        # first index whose cumulative weight exceeds u, never outcome 0
        p = make_distribution([0.0, 0.5, 0.5])
        fam = make_family("linear", p, dt=(0.2, 0.4, 0.6))
        monkeypatch.setattr(mc, "replica_uniforms",
                            lambda seed, lo, hi: [np.zeros((hi - lo, 4))])
        e = simulate_single(fam, 1.0, SimConfig(10, 0))
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
        rep = _exact_multinomial(EmpiricalDist(counts, int(counts.sum())),
                                 make_distribution(p), 0.01)
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
        from scipy import stats
        rng = np.random.default_rng(5)
        for k in range(2, 9):
            p = rng.dirichlet(np.ones(k) * 5)
            e = EmpiricalDist(rng.multinomial(5_000, p), 5_000)
            rep = gof_test(e, make_distribution(p))
            assert rep.method == "chi2"
            assert rep.pvalue == float(stats.chi2.sf(rep.statistic, df=k - 1))
        # too many compositions to enumerate: chi-square despite small cells
        e = EmpiricalDist(np.array([30, 20, 6, 3, 1]), 60)  # C(64, 4) terms
        rep = gof_test(e, make_distribution([0.5, 0.3, 0.1, 0.05, 0.05]))
        assert rep.method == "chi2"
        assert rep.pvalue == float(stats.chi2.sf(rep.statistic, df=4))
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
