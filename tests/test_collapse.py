import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsebox.behaviors import make_distribution, tv_distance
from collapsebox.cli import family_from_dict, parse_time_grid
from collapsebox.collapse import (
    KINDS,
    make_family,
    marginal_at,
    sorted_union,
    validate_family,
)
from collapsebox.errors import (
    BoundaryViolation,
    EmptyGrid,
    InvalidSpec,
    TimeBeforeTrigger,
)
from collapsebox.mc import SimConfig, simulate_single
from collapsebox.scenarios import TimeDensity, bob_marginal

P0 = make_distribution([0.3, 0.7])


def asym_family():
    """Outcome 0 collapses instantly, outcome 1 holds the prior until 1 s."""
    return make_family("frozen", P0, dt=(0.0, 1.0))


def builtin_families():
    return [
        make_family("instantaneous", P0),
        make_family("linear", P0, dt=(1.0, 1.0)),
        make_family("linear", P0, dt=(0.25, 1.0)),
        make_family("exponential", P0, rates=(2.0, 3.0)),
        asym_family(),
        make_family("frozen", P0, dt=(0.4, 1.0)),
    ]


class TestMakeFamily:
    def test_instantaneous_is_delta_after_trigger(self):
        f = make_family("instantaneous", P0)
        for eps in (1e-9, 0.5, 10.0):
            m = f.profile(eps)
            assert m[0, 0] == 1.0 and m[0, 1] == 0.0
            assert m[1, 1] == 1.0 and m[1, 0] == 0.0

    def test_linear_initial_condition(self):
        f = make_family("linear", P0, dt=(1.0, 1.0))
        m = f.profile(0.0)
        assert np.allclose(m, [[0.3, 0.7], [0.3, 0.7]])

    def test_linear_interpolation_value(self):
        f = make_family("linear", P0, dt=(1.0, 1.0))
        assert f.profile(0.5)[0, 0] == pytest.approx(0.65, abs=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            make_family("linear", P0, dt=(1.0,))
        with pytest.raises(InvalidSpec):
            make_family("exponential", P0, rates=(0.0, 1.0))
        with pytest.raises(InvalidSpec):
            make_family("wavelet", P0)
        for dt in (0.5, ["a", "b"], None):  # a scalar, non-numbers, no dt
            with pytest.raises(InvalidSpec, match="one dt per outcome"):
                make_family("linear", P0, dt=dt)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_durations(self, bad):
        for kind in ("linear", "frozen"):
            with pytest.raises(InvalidSpec):
                make_family(kind, P0, dt=(0.5, bad))
        with pytest.raises(InvalidSpec):
            make_family("exponential", P0, rates=(2.0, bad))
        with pytest.raises(InvalidSpec):
            make_family("table", P0, grid_times=(0.0, bad),
                        grid_values=[[[0.3, 0.7]] * 2, [[1, 0], [0, 1]]])
        # a non-finite value is named, not reported as a boundary clause
        with pytest.raises(InvalidSpec, match="grid_values must be finite"):
            make_family("table", P0, grid_times=(0.0, 1.0),
                        grid_values=[[[0.3, 0.7]] * 2, [[bad, 0], [0, 1]]], validate=False)

    def test_table_family(self):
        # hold-then-jump expressed as a grid: prior rows, then deltas
        times = [0.0, 0.5, 0.5 + 1e-9, 1.0]
        prior = [[0.3, 0.7], [0.3, 0.7]]
        delta = [[1.0, 0.0], [0.0, 1.0]]
        f = make_family("table", P0, grid_times=tuple(times),
                        grid_values=(prior, prior, delta, delta))
        assert f.dt_max == pytest.approx(0.5 + 1e-9)
        assert np.allclose(f.profile(0.25), prior)
        assert np.allclose(f.profile(0.75), delta)

    def test_table_never_collapsing_rejected(self):
        prior = [[0.3, 0.7], [0.3, 0.7]]
        with pytest.raises(BoundaryViolation, match="'final' by 7.000e-01"):
            make_family("table", P0, grid_times=(0.0, 1.0),
                        grid_values=(prior, prior))


def strict(call, *args):
    """call(*args) with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


def mixture_weight(f, latent, s):
    """The weight w of the mixture (1 - w) P0 + w eye[latent] of each kind
    but table. Its ramps overflow where they are discarded, at a subnormal dt
    or a huge rate."""
    dt = f.dt[latent]
    if f.kind == "instantaneous":
        return (s > 0).astype(float)
    if f.kind == "frozen":
        return ((s > 0) & (s >= dt)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if f.kind == "linear":
            return np.where(dt > 0, np.clip(s / np.where(dt > 0, dt, 1.0), 0, 1),
                            (s > 0).astype(float))
        # exponential, clipped to the delta from dt on
        return np.where(s <= 0, 0.0,
                        np.where(s >= dt, 1.0, 1.0 - np.exp(-f.rates[latent] * s)))


def mixture_rows(f, latent, s):
    """Rows as the explicit mixture (1 - w) P0 + w eye[latent], with the
    weight w of each kind; table rows interpolate the grid."""
    n = f.size
    if f.kind == "table":
        return np.array([[np.interp(si, f.grid_times, f.grid_values[:, a, b])
                          for b in range(n)] for a, si in zip(latent, s)])
    w = mixture_weight(f, latent, s)
    return (1.0 - w)[:, None] * f.p0.weights[None, :] + w[:, None] * np.eye(n)[latent]


class TestRows:
    P3 = make_distribution([0.2, 0.3, 0.5])

    def families(self):
        table_values = [[[0.2, 0.3, 0.5]] * 3,
                        [[0.6, 0.15, 0.25], [0.1, 0.65, 0.25], [0.1, 0.15, 0.75]],
                        np.eye(3).tolist()]
        return [
            make_family("instantaneous", self.P3),
            make_family("linear", self.P3, dt=(0.0, 0.3, 1.1)),
            make_family("linear", self.P3, dt=(5e-324, 0.3, 1.1)),  # s / dt overflows
            make_family("frozen", self.P3, dt=(0.0, 0.7, 0.3)),
            make_family("exponential", self.P3, rates=(2.0, 7.0, 30.0)),
            make_family("exponential", self.P3, rates=(1e308, 2.0, 30.0)),  # r s overflows
            make_family("table", self.P3, grid_times=(0.0, 0.5, 1.0),
                        grid_values=table_values),
        ]

    def test_equals_mixture_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for f in strict(self.families):
            for dtype in (int, np.uint8):  # mc draws uint8 latents
                latent = np.arange(f.size, dtype=dtype)
                for s in (np.zeros(f.size), f.dt.copy(), np.full(f.size, np.inf),
                          rng.uniform(0.0, 1.2 * f.dt_max + 0.1, f.size)):
                    expected = mixture_rows(f, latent, s)
                    assert np.array_equal(strict(f.rows, latent, s), expected), (f.kind, s)
                many = rng.integers(0, f.size, 500).astype(dtype)
                s = rng.uniform(0.0, 1.2 * f.dt_max + 0.1, 500)
                expected = mixture_rows(f, many, s)
                assert np.array_equal(strict(f.rows, many, s), expected), f.kind
                assert np.array_equal(np.stack(strict(list, f.columns(many, s)), axis=1),
                                      expected), f.kind

    def test_weights_equal_mixture_weight(self):
        rng = np.random.default_rng(4)
        for f in strict(self.families)[:-1]:
            for dtype in (int, np.uint8):
                latent = np.arange(f.size, dtype=dtype)
                for s in (np.zeros(f.size), f.dt.copy(), np.full(f.size, np.inf),
                          rng.uniform(0.0, 1.2 * f.dt_max + 0.1, f.size)):
                    expected = mixture_weight(f, latent, s)
                    assert np.array_equal(strict(f.weights, latent, s), expected), (f.kind, s)
                many = rng.integers(0, f.size, 500).astype(dtype)
                s = rng.uniform(0.0, 1.2 * f.dt_max + 0.1, 500)
                expected = mixture_weight(f, many, s)
                assert np.array_equal(strict(f.weights, many, s), expected), f.kind

    def test_table_has_no_mixture_weight(self):
        table = self.families()[-1]
        assert table.kind == "table"
        with pytest.raises(InvalidSpec, match="no mixture weight"):
            table.weights(np.arange(3), np.zeros(3))

    def test_complete_collapse_is_identity(self):
        for f in self.families():
            assert np.array_equal(f.profile(np.inf), np.eye(f.size)), f.kind

    def test_profile_of_times_stacks_profiles(self):
        rng = np.random.default_rng(5)
        for f in self.families():
            n = f.size
            times = np.concatenate([[0.0, np.inf], f.dt, f.kink_times,
                                    rng.uniform(0.0, 1.2 * f.dt_max + 0.1, 20)])
            assert np.array_equal(f.profile(times),
                                  np.stack([f.profile(t) for t in times])), f.kind
            assert f.profile(0.5).shape == (n, n)
            assert f.profile(np.array([])).shape == (0, n, n)


class TestValidateFamily:
    @pytest.mark.parametrize("fam", builtin_families(),
                             ids=lambda f: f"{f.kind}-{f.dt_min:g}-{f.dt_max:g}")
    def test_builtins_pass(self, fam):
        grid = np.linspace(0.0, max(fam.dt_max, 1.0), 500)
        rep = validate_family(fam, grid)
        assert rep.passed, rep.worst

    def test_final_clause_violation_named(self):
        # f_00 stuck at 0.9 at and beyond its collapse time
        times = (0.0, 1.0, 2.0)
        bad_row = [[0.9, 0.1], [0.0, 1.0]]
        fam = make_family("frozen", P0, dt=(1.0, 1.0))
        broken = fam.__class__("table", P0, np.array([1.0, 1.0]),
                               grid_times=np.array(times),
                               grid_values=np.array([[[0.3, 0.7], [0.3, 0.7]],
                                                     bad_row, bad_row]))
        rep = validate_family(broken, np.linspace(0, 2, 50))
        assert not rep.passed
        assert rep.worst_clause() == "final"
        assert rep.worst["final"] == pytest.approx(0.1, abs=1e-12)

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            validate_family(asym_family(), [])

    def test_check_times(self):
        f = make_family("frozen", P0, dt=(0.4, 1.0))
        assert np.array_equal(f.check_times, [0.0, 0.4, 1.0, 0.2, 0.7, 2.0])
        assert np.array_equal(make_family("instantaneous", P0).check_times, [0.0, 1.0])

    def test_range_violation_at_a_knot(self):
        # row 0 leaves [0, 1] only at the knot 0.0013, which no evenly spaced
        # grid over [0, dt_max] of a few hundred or thousand points holds
        times = (0.0, 0.001, 0.0013, 0.0016, 1.0)
        prior = [0.3, 0.7]
        values = [[prior, prior], [prior, prior], [[1.2, -0.2], prior],
                  [[1.0, 0.0], prior], [[1.0, 0.0], [0.0, 1.0]]]
        with pytest.raises(BoundaryViolation, match="'range' by 2.000e-01"):
            make_family("table", P0, grid_times=times, grid_values=values)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(KINDS), n=st.integers(1, 6),
           points=st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_make_family_output_is_valid(self, data, kind, n, points):
        # any family make_family accepts meets every boundary clause, on
        # random grids holding the trigger instant and each collapse time
        def per_outcome(lo, hi):
            return st.lists(st.floats(lo, hi), min_size=n, max_size=n)

        w = np.array(data.draw(per_outcome(0.05, 1.0)))
        p0 = make_distribution(w / w.sum())
        if kind in ("linear", "frozen"):
            f = make_family(kind, p0, dt=data.draw(per_outcome(0.0, 5.0)))
        elif kind == "exponential":
            f = make_family(kind, p0, rates=data.draw(per_outcome(0.1, 100.0)))
        elif kind == "table":
            # rows (1 - lam) P0 + lam delta_a: lam = 0 at the trigger, 1 at the last knot
            steps = data.draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6))
            times = np.concatenate([[0.0], np.cumsum(steps)])
            lam = np.array(data.draw(st.lists(per_outcome(0.0, 1.0), min_size=times.size,
                                              max_size=times.size)))
            lam[0], lam[-1] = 0.0, 1.0
            values = (1 - lam)[:, :, None] * p0.weights + lam[:, :, None] * np.eye(n)
            f = make_family(kind, p0, grid_times=times, grid_values=values)
        else:
            f = make_family(kind, p0)
        grid = np.concatenate([[0.0], f.dt, np.array(points) * (1.5 * f.dt_max + 1.0)])
        rep = validate_family(f, grid)
        assert rep.passed, (f.kind, rep.worst)


@pytest.mark.parametrize("call", [
    lambda f, s: f.profile(s),
    lambda f, s: f.profile(np.array([0.5, s])),
    marginal_at,
    lambda f, s: bob_marginal(f, 0, s),
    lambda f, s: bob_marginal(f, 1, s),
    lambda f, s: simulate_single(f, s, SimConfig(10, 0)),
], ids=["profile", "profile-array", "marginal_at", "bob_marginal-x0", "bob_marginal-x1", "simulate_single"])
def test_negative_elapsed_time_before_trigger(call):
    # one error for a negative elapsed time, raised by collapse.check_elapsed
    with pytest.raises(TimeBeforeTrigger, match="-0.25 < 0"):
        call(asym_family(), -0.25)
    with pytest.raises(InvalidSpec, match="nan is not a number"):
        call(asym_family(), float("nan"))


class TestMarginalAt:
    def test_prior_at_trigger(self):
        for fam in builtin_families():
            assert np.allclose(marginal_at(fam, 0.0).weights, P0.weights,
                               atol=1e-12)

    def test_equal_dt_linear_preserves_prior(self):
        fam = make_family("linear", P0, dt=(1.0, 1.0))
        for s in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert np.allclose(marginal_at(fam, s).weights, P0.weights,
                               atol=1e-12)

    def test_asymmetric_hand_value(self):
        m = marginal_at(asym_family(), 0.5)
        assert np.allclose(m.weights, [0.51, 0.49], atol=1e-14)

    def test_latent_enumeration_oracle(self):
        # independent oracle: explicit sum over latent outcomes
        rng = np.random.default_rng(3)
        for fam in builtin_families():
            for s in rng.uniform(0, fam.dt_max + 0.5, size=5):
                rows = fam.profile(float(s))
                expected = np.zeros(2)
                for a in range(2):
                    for ap in range(2):
                        expected[ap] += P0[a] * rows[a, ap]
                got = marginal_at(fam, float(s)).weights
                assert np.abs(got - expected).max() <= 1e-14

    def test_post_collapse_returns_prior(self):
        for fam in builtin_families():
            for s in (fam.dt_max, fam.dt_max + 0.1, fam.dt_max + 10):
                m = marginal_at(fam, s)
                assert np.abs(m.weights - P0.weights).max() <= 1e-12

    def test_valid_distribution_on_dense_grid(self):
        for fam in builtin_families():
            for s in np.linspace(0, fam.dt_max + 0.2, 100):
                m = marginal_at(fam, float(s))  # raises if invalid
                assert np.all(m.weights >= 0)

    def test_errors(self):
        fam = asym_family()
        with pytest.raises(TimeBeforeTrigger):
            marginal_at(fam, -0.1)


def single_box_tv(f, s):
    """The single-box witness: TV between the marginal at s and the prior."""
    return tv_distance(marginal_at(f, s), f.p0)


class TestSingleBoxWitness:
    def test_instantaneous_always_zero(self):
        fam = make_family("instantaneous", P0)
        for s in (0.0,):
            assert single_box_tv(fam, s) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.random(3) + 1e-3
            p = make_distribution(w / w.sum())
            fi = make_family("instantaneous", p)
            assert single_box_tv(fi, 0.0) <= 1e-12

    def test_equal_dt_linear_zero(self):
        fam = make_family("linear", P0, dt=(1.0, 1.0))
        assert single_box_tv(fam, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_value(self):
        assert single_box_tv(asym_family(), 0.5) == pytest.approx(
            0.21, abs=1e-12)

    def test_outside_window(self):
        # past dt_max every row is its delta, so the marginal is the prior
        assert single_box_tv(asym_family(), 1.5) == 0.0
        with pytest.raises(TimeBeforeTrigger):
            single_box_tv(asym_family(), -0.1)

    def test_monotone_on_shared_window(self):
        # built-in with positive shortest collapse time
        fam = make_family("frozen", P0, dt=(0.4, 1.0))
        grid = np.linspace(0.0, fam.dt_min, 50)
        vals = [single_box_tv(fam, float(s)) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestFamilySerialization:
    def test_reads_each_kind(self):
        # each kind's own fields, read into the family make_family builds from them
        p3 = TestRows.P3
        table = [[[0.2, 0.3, 0.5]] * 3, np.eye(3).tolist(), np.eye(3).tolist()]
        cases = [
            ({"kind": "instantaneous"}, P0, make_family("instantaneous", P0)),
            ({"kind": "linear", "dt": [0.25, 1.0]}, P0, make_family("linear", P0, dt=(0.25, 1.0))),
            ({"kind": "frozen", "p0": [0.3, 0.7], "dt": [0.0, 1.0]}, P0, asym_family()),
            ({"kind": "exponential", "rates": [2.0, 3.0]}, P0,
             make_family("exponential", P0, rates=(2.0, 3.0))),
            ({"kind": "table", "grid": {"times": [0.0, 0.5, 1.0], "values": table}}, p3,
             make_family("table", p3, grid_times=(0.0, 0.5, 1.0), grid_values=table)),
        ]
        assert sorted(d["kind"] for d, _, _ in cases) == sorted(KINDS)
        for d, p0, f in cases:
            g = family_from_dict(d, p0)
            assert g.kind == f.kind and np.array_equal(g.p0.weights, f.p0.weights)
            for field in ("dt", "rates", "grid_times", "grid_values"):
                a, b = getattr(f, field), getattr(g, field)
                assert (a is None and b is None) or np.array_equal(a, b), (f.kind, field)

    def test_prior_inherited_and_checked(self):
        f = family_from_dict({"kind": "instantaneous"}, P0)
        assert np.array_equal(f.p0.weights, P0.weights)
        with pytest.raises(InvalidSpec):
            family_from_dict({"kind": "instantaneous", "p0": [0.5, 0.5]}, P0)

    def test_missing_kind_named(self):
        with pytest.raises(InvalidSpec, match="'kind'"):
            family_from_dict({"dt": [0.0, 1.0]}, P0)


# values that tie: both zeros and both signs of the smallest subnormal, so
# which member of a tie survives the sort shows in tobytes()
TIES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0)
float_arrays = st.lists(st.sampled_from(TIES) | st.floats(allow_nan=False),
                        max_size=12).map(lambda v: np.array(v, dtype=float))


class TestSortedUnion:
    @settings(max_examples=300, deadline=None)
    @given(float_arrays, float_arrays)
    def test_equals_numpy_bit_for_bit(self, a, b):
        assert sorted_union(a).tobytes() == np.unique(a).tobytes()
        assert sorted_union(a.reshape(-1, 1)).tobytes() == np.unique(a).tobytes()
        assert sorted_union(a, b).tobytes() == np.union1d(a, b).tobytes()
        assert sorted_union(0.0, a).tobytes() == np.union1d(0.0, a).tobytes()
        assert sorted_union(a).dtype == np.float64

    def test_family_times_equal_numpy_forms(self):
        # kink_times, check_times and the default time grid of one family of
        # each kind, against the np.unique and np.union1d forms they replace
        p3 = TestRows.P3
        table = [[[0.2, 0.3, 0.5]] * 3,
                 [[0.6, 0.15, 0.25], [0.1, 0.65, 0.25], [0.1, 0.15, 0.75]],
                 np.eye(3).tolist()]
        families = [
            make_family("instantaneous", p3),
            make_family("linear", p3, dt=(-0.0, 0.3, 0.3)),
            make_family("exponential", p3, rates=(2.0, 7.0, 2.0)),
            make_family("frozen", p3, dt=(0.7, 0.0, 0.7)),
            make_family("table", p3, grid_times=(0.0, 0.5, 1.0), grid_values=table),
        ]
        assert [f.kind for f in families] == list(KINDS)
        for f in families:
            kinks = f.kink_times
            if f.kind != "table":
                assert kinks.tobytes() == np.unique(f.dt).tobytes(), f.kind
            old = np.union1d(0.0, kinks)
            old = np.concatenate([old, 0.5 * (old[1:] + old[:-1]), [old[-1] + 1.0]])
            assert f.check_times.tobytes() == old.tobytes(), f.kind
            top = f.dt_max if f.dt_max > 0 else 1.0
            grid = np.linspace(0.0, top, 21)
            apart = np.abs(grid[:, None] - kinks).min(axis=1) > 1e-9 * top
            old = np.union1d(grid[apart], kinks)
            assert parse_time_grid(None, f).tobytes() == old.tobytes(), f.kind

    def test_table_breakpoints_equal_numpy_form(self):
        t = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
        v = np.array([0.4, 1.4, 0.8, 1.5, 0.6])
        g = TimeDensity("table", 1.0, grid_times=t, grid_values=v / np.trapezoid(v, t))
        old = np.unique(np.abs(np.subtract.outer(t, t)))
        assert np.array(g.breakpoints()).tobytes() == old.tobytes()
