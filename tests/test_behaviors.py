import itertools
import sys

import numpy as np
import pytest

from collapsebox.behaviors import (
    BoxBehavior,
    chsh_value,
    deterministic_box,
    is_local,
    is_nonsignaling,
    local_deterministic_vertices,
    make_distribution,
    pr_box,
    product_box,
    tv_distance,
    uniform_box,
)
from collapsebox.errors import (
    AlphabetMismatch,
    EmptyAlphabet,
    MissingDependency,
    NegativeWeight,
    NotNormalized,
    ScenarioTooLarge,
    WrongScenarioShape,
)


def vertices_oracle(nx, ny, na, nb):
    """Reference loops: one table per (Alice, Bob) strategy pair, Alice-major."""
    verts = []
    for fa in itertools.product(range(na), repeat=nx):
        for gb in itertools.product(range(nb), repeat=ny):
            t = np.zeros((nx, ny, na, nb))
            for x in range(nx):
                for y in range(ny):
                    t[x, y, fa[x], gb[y]] = 1.0
            verts.append(t.reshape(-1))
    return np.array(verts)


def nonsignaling_oracle(t):
    """Reference loops: the first largest marginal gap, Alice's before Bob's."""
    nx, ny, na, nb = t.shape
    worst, where = 0.0, None
    pa = t.sum(axis=3)
    for x in range(nx):
        for a in range(na):
            v = float(pa[x, :, a].max() - pa[x, :, a].min())
            if v > worst:
                worst, where = v, ("alice", a, x, tuple(range(ny)))
    pb = t.sum(axis=2)
    for y in range(ny):
        for bb in range(nb):
            v = float(pb[:, y, bb].max() - pb[:, y, bb].min())
            if v > worst:
                worst, where = v, ("bob", bb, y, tuple(range(nx)))
    return worst, where


class TestMakeDistribution:
    def test_fair_coin(self):
        d = make_distribution([0.5, 0.5])
        assert np.allclose(d.weights, [0.5, 0.5])

    def test_deterministic(self):
        d = make_distribution([1.0, 0.0])
        assert d[0] == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.3, 0.7, 0.1])  # sums to 1.1

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0], [float("inf"), 1.0]])
    def test_non_finite(self, weights):
        with pytest.raises(NotNormalized):
            make_distribution(weights)

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            make_distribution([1.2, -0.2])

    def test_empty(self):
        with pytest.raises(EmptyAlphabet):
            make_distribution([])


class TestTVDistance:
    def test_identity(self):
        p = make_distribution([0.5, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(make_distribution([1, 0]), make_distribution([0, 1])) == 1.0

    def test_hand_value(self):
        p = make_distribution([0.3, 0.7])
        q = make_distribution([0.51, 0.49])
        assert tv_distance(p, q) == pytest.approx(0.21, abs=1e-12)

    def test_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            tv_distance(make_distribution([1.0]), make_distribution([0.5, 0.5]))

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            trip = [make_distribution(w / w.sum())
                    for w in rng.random((3, 4)) + 1e-3]
            p, q, r = trip
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert tv_distance(p, p) <= 1e-12
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
            assert 0.0 <= tv_distance(p, q) <= 1.0


class TestNonsignaling:
    def test_pr_box_passes(self):
        rep = is_nonsignaling(pr_box())
        assert rep.passed and rep.max_violation == 0.0

    def test_product_box_passes(self):
        rep = is_nonsignaling(product_box(make_distribution([0.2, 0.8]),
                                          make_distribution([0.6, 0.4])))
        assert rep.passed

    def test_signaling_box_fails(self):
        # Bob outputs 0 surely when x=0 but with prob 1/2 when x=1
        t = np.zeros((2, 2, 2, 2))
        t[0, :, :, 0] = 0.5
        t[1, :, :, :] = 0.25
        rep = is_nonsignaling(BoxBehavior(t))
        assert not rep.passed
        assert rep.max_violation == pytest.approx(0.5, abs=1e-12)
        assert rep.violating_marginal[0] == "bob"

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3), (1, 4, 2, 1)])
    def test_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(29)
        for _ in range(10):
            t = rng.random(shape)
            t /= t.sum(axis=(2, 3), keepdims=True)
            rep = is_nonsignaling(BoxBehavior(t))
            worst, where = nonsignaling_oracle(t)
            assert rep.max_violation == worst
            assert rep.violating_marginal == where
            assert rep.passed is False

    def test_tie_reports_alice(self):
        # a product table where y = 0 moves Alice's marginal at x = 0, and
        # x = 0 moves Bob's at y = 0, both by 0.5
        half, zero = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        t = np.array([[np.outer(pa, pb) for pa, pb in row] for row in [
            [(zero, zero), (half, half)],
            [(half, half), (half, half)],
        ]])
        rep = is_nonsignaling(BoxBehavior(t))
        pa, pb = t.sum(axis=3), t.sum(axis=2)
        assert (pa.max(1) - pa.min(1)).max() == (pb.max(0) - pb.min(0)).max() == 0.5
        assert rep.violating_marginal == nonsignaling_oracle(t)[1] == ("alice", 0, 0, (0, 1))


class TestLocalPolytope:
    def test_deterministic_boxes_are_vertices(self):
        for fa in itertools.product(range(2), repeat=2):
            for gb in itertools.product(range(2), repeat=2):
                rep = is_local(deterministic_box(fa, gb))
                assert rep.member
                assert rep.weights.max() == pytest.approx(1.0, abs=1e-7)

    def test_pr_box_not_local(self):
        rep = is_local(pr_box())
        assert not rep.member
        assert rep.facet is not None
        assert rep.facet[2] > 0  # strict violation of the separating inequality

    @pytest.mark.parametrize("lam", [0.6, 0.8, 1.0])
    def test_facet_separates_pr_mixture(self, lam):
        # lam PR + (1 - lam) uniform has CHSH value 4 lam, nonlocal past lam = 1/2;
        # its certificate h . v <= c0 holds on every vertex, and h . p - c0 is
        # the reported violation
        b = BoxBehavior(lam * pr_box().table + (1 - lam) * uniform_box().table)
        rep = is_local(b)
        assert not rep.member
        h, c0, violation = rep.facet
        p = b.table.ravel()
        assert np.all(rep.vertices @ h.ravel() <= c0 + 1e-9)
        assert h.ravel() @ p - c0 == violation
        assert violation > 0

    def test_uniform_noise_local(self):
        rep = is_local(uniform_box())
        assert rep.member

    def test_dual_certificate_on_random_non_members(self):
        # random tables, and their mixtures with uniform noise, over 2-3
        # inputs and outputs per party, and PR/noise mixtures past the CHSH
        # bound: the certificate is the feasibility LP's dual, with
        # ||h||_1 <= 1, h . v <= c0 on every vertex and violation = residual
        rng = np.random.default_rng(28)
        shapes = list(itertools.product((2, 3), repeat=4))
        non_members = 0
        for _ in range(300):
            shape = shapes[rng.integers(len(shapes))]
            if rng.random() < 0.25:
                shape, lam = (2, 2, 2, 2), rng.uniform(0.51, 1.0)
                t = lam * pr_box().table + (1 - lam) * uniform_box().table
            else:
                nx, ny, na, nb = shape
                t = rng.dirichlet(np.ones(na * nb), size=(nx, ny)).reshape(shape)
                lam = rng.uniform(0.2, 1.0)
                t = lam * t + (1 - lam) * uniform_box(*shape).table
            b = BoxBehavior(t)
            rep = is_local(b)
            if rep.member:
                continue
            non_members += 1
            h, c0, violation = rep.facet
            h, p = h.ravel(), b.table.ravel()
            assert np.abs(h).sum() <= 1.0 + 1e-9
            assert np.all(rep.vertices @ h <= c0 + 1e-9)
            assert violation == h @ p - c0
            assert abs(violation - rep.residual) <= 1e-9
        assert non_members >= 200

    def test_pr_box_certificate_scale(self):
        # the PR box is 1/8 from the local polytope in the infinity norm
        rep = is_local(pr_box())
        assert rep.residual == pytest.approx(0.125, abs=1e-12)
        assert rep.facet[2] == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("box", [pr_box, uniform_box])
    def test_one_linprog_call(self, monkeypatch, box):
        import scipy.optimize

        calls = []
        linprog = scipy.optimize.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(None)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
        rep = is_local(box())
        assert rep.member == (box is uniform_box)
        assert len(calls) == 1

    def test_without_scipy_names_the_dependency(self, monkeypatch):
        # a None entry makes the import fail as if scipy were not installed
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(MissingDependency, match=r"scipy.*collapse-box\[polytope\]"):
            is_local(uniform_box())

    def test_certificate_reconstructs_table(self):
        rng = np.random.default_rng(11)
        verts = local_deterministic_vertices(2, 2, 2, 2)
        for _ in range(20):
            w = rng.dirichlet(np.ones(16))
            b = BoxBehavior((w @ verts).reshape(2, 2, 2, 2))
            rep = is_local(b, tol=1e-7)
            assert rep.member
            recon = rep.weights @ rep.vertices
            assert np.abs(recon - b.table.reshape(-1)).max() <= 1e-6
            # locality implies non-signaling
            assert is_nonsignaling(b, tol=1e-9).passed
            # and a CHSH value inside the local bound
            assert abs(chsh_value(b)) <= 2.0 + 1e-7

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3)])
    def test_vertex_order(self, shape):
        verts = local_deterministic_vertices(*shape)
        assert verts.dtype == float
        assert np.array_equal(verts, vertices_oracle(*shape))

    def test_scenario_guard(self):
        with pytest.raises(ScenarioTooLarge):
            local_deterministic_vertices(10, 10, 6, 6)


class TestChsh:
    def test_deterministic_all_zero(self):
        assert chsh_value(deterministic_box([0, 0], [0, 0])) == pytest.approx(2.0)

    def test_pr_box(self):
        assert chsh_value(pr_box()) == 4.0

    def test_uniform_noise(self):
        assert chsh_value(uniform_box()) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_shape(self):
        with pytest.raises(WrongScenarioShape):
            chsh_value(uniform_box(nx=3))


class TestBoxBehavior:
    def test_three_axes(self):
        with pytest.raises(WrongScenarioShape, match="got 3"):
            BoxBehavior(np.full((2, 2, 2), 0.25))

    def test_negative_entry(self):
        t = uniform_box().table.copy()
        t[0, 0] = [[0.5, 0.5], [0.5, -0.5]]
        with pytest.raises(NegativeWeight):
            BoxBehavior(t)

    @pytest.mark.parametrize("fill", [float("nan"), float("inf")])
    def test_non_finite_table(self, fill):
        t = uniform_box().table.copy()
        t[0, 1, 1, 0] = fill
        with pytest.raises(NotNormalized):
            BoxBehavior(t)

    @pytest.mark.parametrize("axis", range(4))
    def test_empty_axis(self, axis):
        shape = [2, 2, 2, 2]
        shape[axis] = 0
        with pytest.raises(EmptyAlphabet):
            uniform_box(*shape)
        with pytest.raises(EmptyAlphabet):
            BoxBehavior(np.zeros(shape))


class TestDeterministicBox:
    def test_table(self):
        fa, gb = [1, 0, 2], [0, 1]
        expected = np.zeros((3, 2, 3, 2))
        for x, y in itertools.product(range(3), range(2)):
            expected[x, y, fa[x], gb[y]] = 1.0
        assert np.array_equal(deterministic_box(fa, gb, na=3, nb=2).table, expected)

    @pytest.mark.parametrize("fa, gb", [([0, -1], [0, 0]), ([0, 2], [0, 0]),
                                        ([0, 0], [1, 2]), ([0, 0.5], [0, 0])])
    def test_output_out_of_range(self, fa, gb):
        with pytest.raises(AlphabetMismatch):
            deterministic_box(fa, gb)

    def test_no_inputs(self):
        with pytest.raises(EmptyAlphabet):
            deterministic_box([], [0])

    @pytest.mark.parametrize("fa, gb", [([[0]], [0]), ([0, 1], [[0], [1]]), (0, [0]),
                                        ([[0], 0], [0])])
    def test_outputs_not_one_per_input(self, fa, gb):
        with pytest.raises(AlphabetMismatch):
            deterministic_box(fa, gb)
