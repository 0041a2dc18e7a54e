import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsebox.behaviors import make_distribution
from collapsebox.collapse import (
    KINDS,
    family_from_dict,
    family_to_dict,
    make_family,
    marginal_at,
    single_box_witness,
    validate_family,
)
from collapsebox.errors import (
    BoundaryViolation,
    EmptyGrid,
    InvalidSpec,
    TimeBeforeTrigger,
    TimeOutsideWindow,
)
from collapsebox.mc import SimConfig, simulate_single
from collapsebox.scenarios import bob_marginal

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
        with pytest.raises(BoundaryViolation):
            make_family("table", P0, grid_times=(0.0, 1.0),
                        grid_values=(prior, prior))


def mixture_weight(f, latent, s):
    """The weight w of the mixture (1 - w) P0 + w eye[latent] of each kind
    but table."""
    dt = f.dt[latent]
    if f.kind == "instantaneous":
        return (s > 0).astype(float)
    if f.kind == "frozen":
        return ((s > 0) & (s >= dt)).astype(float)
    if f.kind == "linear":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dt > 0, np.clip(s / np.where(dt > 0, dt, 1.0), 0, 1),
                            (s > 0).astype(float))
    # exponential, clipped to the delta from dt on
    return np.where(s <= 0, 0.0, np.where(s >= dt, 1.0, 1.0 - np.exp(-f.rates[latent] * s)))


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
            make_family("frozen", self.P3, dt=(0.0, 0.7, 0.3)),
            make_family("exponential", self.P3, rates=(2.0, 7.0, 30.0)),
            make_family("table", self.P3, grid_times=(0.0, 0.5, 1.0),
                        grid_values=table_values),
        ]

    def test_equals_mixture_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for f in self.families():
            latent = np.arange(f.size)
            for s in (np.zeros(f.size), f.dt.copy(), np.full(f.size, np.inf),
                      rng.uniform(0.0, 1.2 * f.dt_max + 0.1, f.size)):
                assert np.array_equal(f.rows(latent, s), mixture_rows(f, latent, s)), (f.kind, s)
            many = rng.integers(0, f.size, 500)
            s = rng.uniform(0.0, 1.2 * f.dt_max + 0.1, 500)
            assert np.array_equal(f.rows(many, s), mixture_rows(f, many, s)), f.kind

    def test_weights_equal_mixture_weight(self):
        rng = np.random.default_rng(4)
        for f in self.families()[:-1]:
            latent = np.arange(f.size)
            for s in (np.zeros(f.size), f.dt.copy(), np.full(f.size, np.inf),
                      rng.uniform(0.0, 1.2 * f.dt_max + 0.1, f.size)):
                assert np.array_equal(f.weights(latent, s), mixture_weight(f, latent, s)), (f.kind, s)
            many = rng.integers(0, f.size, 500)
            s = rng.uniform(0.0, 1.2 * f.dt_max + 0.1, 500)
            assert np.array_equal(f.weights(many, s), mixture_weight(f, many, s)), f.kind

    def test_table_has_no_mixture_weight(self):
        table = self.families()[-1]
        assert table.kind == "table"
        with pytest.raises(InvalidSpec, match="no mixture weight"):
            table.weights(np.arange(3), np.zeros(3))

    def test_complete_collapse_is_identity(self):
        for f in self.families():
            assert np.array_equal(f.profile(np.inf), np.eye(f.size)), f.kind


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
    marginal_at,
    lambda f, s: bob_marginal(f, 0, s),
    lambda f, s: bob_marginal(f, 1, s),
    lambda f, s: simulate_single(f, s, SimConfig(10, 0)),
], ids=["profile", "marginal_at", "bob_marginal-x0", "bob_marginal-x1", "simulate_single"])
def test_negative_elapsed_time_before_trigger(call):
    # one error for a negative elapsed time, raised by CollapseFamily.profile
    with pytest.raises(TimeBeforeTrigger, match="-0.25 < 0"):
        call(asym_family(), -0.25)


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


class TestSingleBoxWitness:
    def test_instantaneous_always_zero(self):
        fam = make_family("instantaneous", P0)
        for s in (0.0,):
            assert single_box_witness(fam, s) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.random(3) + 1e-3
            p = make_distribution(w / w.sum())
            fi = make_family("instantaneous", p)
            assert single_box_witness(fi, 0.0) <= 1e-12

    def test_equal_dt_linear_zero(self):
        fam = make_family("linear", P0, dt=(1.0, 1.0))
        assert single_box_witness(fam, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_value(self):
        assert single_box_witness(asym_family(), 0.5) == pytest.approx(
            0.21, abs=1e-12)

    def test_outside_window(self):
        with pytest.raises(TimeOutsideWindow):
            single_box_witness(asym_family(), 1.5)
        with pytest.raises(TimeOutsideWindow):
            single_box_witness(asym_family(), -0.1)

    def test_monotone_on_shared_window(self):
        # built-in with positive shortest collapse time
        fam = make_family("frozen", P0, dt=(0.4, 1.0))
        grid = np.linspace(0.0, fam.dt_min, 50)
        vals = [single_box_witness(fam, float(s)) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestFamilySerialization:
    def test_roundtrip(self):
        # each kind writes only its own fields and reads back an equal family
        for f in builtin_families() + TestRows().families():
            d = family_to_dict(f)
            assert set(d) - {"kind", "p0"} == {
                "instantaneous": set(), "linear": {"dt"}, "frozen": {"dt"},
                "exponential": {"rates"}, "table": {"grid"}}[f.kind]
            g = family_from_dict(d, f.p0)
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
