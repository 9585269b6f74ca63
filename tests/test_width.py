"""Mean-width evaluation (exact d=3, Monte Carlo, reduced integral) and the
ascent toward the regular simplex."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mwkit import (DegeneracyError, InscribedSimplex, WidthEstimate, cell_vertex,
                   decompose_simplex, mean_width_exact3d, mean_width_mat,
                   mean_width_mc, optimize_width, random_simplex,
                   regular_simplex, regular_tetrahedron_width,
                   regularity_metric, support_function, wallis_complete, width)
from mwkit import cells, measures
from test_edge_formula import PROPERTY, orthogonal, simplices

CLOSED_FORM = (6.0 / np.pi) * np.arccos(1.0 / np.sqrt(3.0)) * np.sqrt(2.0 / 3.0)


class TestSupportFunction:
    def test_at_vertices(self):
        S = regular_simplex(3)
        for v in S.vertices:
            assert abs(support_function(S, v) - 1.0) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            support_function(regular_simplex(3), np.ones(4))


class TestWidthEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            WidthEstimate(3.0, 0.0, "exact3d")
        with pytest.raises(ValueError):
            WidthEstimate(1.0, -0.1, "monte_carlo")
        with pytest.raises(ValueError):
            WidthEstimate(1.0, 0.1, "exact3d")  # deterministic method
        with pytest.raises(ValueError):
            WidthEstimate(1.0, float("nan"), "monte_carlo")


class TestExact3d:
    def test_regular_matches_closed_form(self):
        assert abs(regular_tetrahedron_width() - CLOSED_FORM) < 1e-12

    def test_zero_std_error(self):
        est = mean_width_exact3d(regular_simplex(3))
        assert est.std_error == 0.0 and est.method == "exact3d"

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            mean_width_exact3d(regular_simplex(4))

    def test_random_vs_mc(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            S = random_simplex(3, rng)
            exact = mean_width_exact3d(S).value
            mc = mean_width_mc(S, 200_000, seed=int(rng.integers(2 ** 31)))
            assert abs(exact - mc.value) < 4 * mc.std_error

    def test_rotation_invariant(self):
        rng = np.random.default_rng(1)
        S = random_simplex(3, rng)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        S_rot = InscribedSimplex(S.vertices @ Q.T)
        assert abs(mean_width_exact3d(S).value
                   - mean_width_exact3d(S_rot).value) < 1e-10


class TestMonteCarlo:
    def test_deterministic(self):
        S = regular_simplex(3)
        a = mean_width_mc(S, 50_000, seed=7)
        b = mean_width_mc(S, 50_000, seed=7)
        assert a.value == b.value

    def test_higher_dimension(self):
        S = regular_simplex(5)
        est = mean_width_mc(S, 100_000, seed=0)
        assert 0.0 < est.value < 2.0
        assert est.std_error > 0.0

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            mean_width_mc(regular_simplex(3), 0, seed=0)


class TestMatRoute:
    def test_regular_tetrahedron(self):
        S = regular_simplex(3)
        est = mean_width_mat(S, 50_000, seed=3)
        assert abs(est.value - CLOSED_FORM) < 4 * est.std_error

    def test_random_simplex(self):
        rng = np.random.default_rng(4)
        S = random_simplex(3, rng, feasible=True)
        est = mean_width_mat(S, 50_000, seed=5)
        exact = mean_width_exact3d(S).value
        assert abs(est.value - exact) < 4 * est.std_error

    def test_d4(self):
        S = regular_simplex(4)
        est = mean_width_mat(S, 30_000, seed=6)
        mc = mean_width_mc(S, 400_000, seed=7)
        assert abs(est.value - mc.value) < 4 * np.hypot(est.std_error, mc.std_error)

    @pytest.mark.parametrize("S", [regular_simplex(3),
                                   random_simplex(3, np.random.default_rng(12), feasible=True),
                                   regular_simplex(4)],
                             ids=["regular3", "random3", "regular4"])
    def test_same_pieces_and_seeds_as_the_cell_recursion(self, S):
        # reference: cut each cell with decompose_simplex and evaluate all of
        # its pieces on one set of directions, drawn with seed + i for cell i
        n, seed = 5_000, 17
        d, V = S.d, S.vertices
        pref = 1.0 / ((d - 1) * wallis_complete(d - 2))
        total, var = 0.0, 0.0
        for i in range(d + 1):
            rest = [j for j in range(d + 1) if j != i]
            corners = np.array([cell_vertex(S, [i] + rest[:s] + rest[s + 1:])
                                for s in range(d)])
            rot = width._rotation_to_e1(V[i])
            theta = np.random.default_rng(seed + i).standard_normal((n, d - 1))
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            G = np.zeros(n)
            for piece in decompose_simplex(corners, V[i]):
                N = np.linalg.inv((piece.vertices @ rot.T).T)
                N /= np.linalg.norm(N, axis=1, keepdims=True)
                # row 0 is the facet opposite e1, the others pass through e1
                h, H_red = N[0, 1:] / N[0, 0], N[1:, 1:]
                inside = np.all(theta @ H_red.T >= 0.0, axis=1)
                g = (1.0 + (theta @ h) ** 2) ** ((1 - d) / 2.0)
                G += piece.sign * np.where(inside, g, 0.0)
            total += pref * G.mean()
            var += pref ** 2 * G.var(ddof=1) / n
        est = mean_width_mat(S, n, seed)
        assert abs(est.value - 2.0 * total) < 1e-12
        assert abs(est.std_error - 2.0 * np.sqrt(var)) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_draws_one_direction_set_per_cell(self, d, monkeypatch):
        calls = count_calls(monkeypatch, (measures, "_reduced_directions"),
                            (measures, "cell_marginal_mean_MAT"),
                            (cells, "_chain_path"))
        mean_width_mat(regular_simplex(d), 500, seed=1)
        assert calls["_reduced_directions"] == d + 1
        assert calls["cell_marginal_mean_MAT"] == 0
        assert calls["_chain_path"] == d + 1  # one stacked call per cell

    def test_d5_against_monte_carlo(self):
        S = random_simplex(5, np.random.default_rng(50), feasible=True)
        est = mean_width_mat(S, 30_000, seed=51)
        mc = mean_width_mc(S, 1_000_000, seed=52)
        assert abs(est.value - mc.value) < 4 * np.hypot(est.std_error, mc.std_error)


@st.composite
def isometries(draw):
    """Maps on vertex arrays: a vertex permutation, an orthogonal map Q, the
    reflection Q diag(-1, 1, 1) (so every example has a reflection), and the
    permutation followed by that reflection."""
    perm = list(draw(st.permutations(range(4))))
    Q = draw(orthogonal())
    R = Q @ np.diag([-1.0, 1.0, 1.0])
    return [lambda V: V[perm], lambda V: V @ Q.T, lambda V: V @ R.T,
            lambda V: V[perm] @ R.T]


class TestInvariance:
    """Every width route and the complex's audit see the simplex, not its
    labelling or position on the sphere."""

    @PROPERTY
    @given(V=simplices(), maps=isometries())
    def test_exact3d_and_audit(self, V, maps):
        try:
            S = InscribedSimplex(V)
            w = mean_width_exact3d(S).value
            _, audit = cells.right_triangle_complex(S)
            moved = [InscribedSimplex(f(V)) for f in maps]
            results = [(mean_width_exact3d(T).value, cells.right_triangle_complex(T)[1])
                       for T in moved]
        except DegeneracyError:
            assume(False)
        for w_moved, audit_moved in results:
            assert abs(w_moved - w) < 1e-12
            assert audit_moved.sign_total == audit.sign_total
            assert audit_moved.cover_holds == audit.cover_holds
            assert audit_moved.all_ok == audit.all_ok

    @PROPERTY
    @given(V=simplices(), maps=isometries())
    def test_sampled_routes_within_their_std_errors(self, V, maps):
        # same seed on the moved simplex: the estimates differ only by
        # sampling noise
        try:
            S = InscribedSimplex(V)
            moved = [InscribedSimplex(f(V)) for f in maps]
            estimates = [(route(S, 10_000, seed=3),
                          [route(T, 10_000, seed=3) for T in moved])
                         for route in (mean_width_mc, mean_width_mat)]
        except DegeneracyError:
            assume(False)
        for est, others in estimates:
            for other in others:
                se = np.hypot(est.std_error, other.std_error)
                assert abs(other.value - est.value) < 4 * se


class TestRegularSimplex:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_gram(self, d):
        V = regular_simplex(d).vertices
        G = V @ V.T
        off = G[~np.eye(d + 1, dtype=bool)]
        assert np.max(np.abs(off + 1.0 / d)) < 1e-12

    def test_regularity_metric(self):
        assert regularity_metric(regular_simplex(3)) < 1e-12
        rng = np.random.default_rng(8)
        assert regularity_metric(random_simplex(3, rng)) > 1e-3


class TestOptimizer:
    def test_converges_to_regular(self):
        trace = optimize_width(3, "random", seed=12, max_iter=400)
        final = trace[-1]
        assert final.converged
        assert abs(final.width.value - regular_tetrahedron_width()) < 1e-5
        assert final.regularity < 1e-3

    def test_trace_monotone(self):
        trace = optimize_width(3, "random", seed=13, max_iter=100)
        widths = [st.width.value for st in trace]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_warm_start(self, monkeypatch):
        # at the maximizer the gradient stop ends the ascent at once
        calls = count_calls(monkeypatch, (width, "_exact3d_width_and_gradient"))
        trace = optimize_width(3, regular_simplex(3), max_iter=5)
        assert abs(trace[-1].width.value - regular_tetrahedron_width()) < 1e-9
        assert trace[-1].converged
        assert calls["_exact3d_width_and_gradient"] <= 2

    def test_init_dimension_check(self):
        with pytest.raises(ValueError):
            optimize_width(3, regular_simplex(4))

    @pytest.mark.parametrize("d", [3, 4])
    def test_sample_count_checked_in_every_dimension(self, d):
        # d = 3 never reads the count, yet 0 is still no valid count
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            optimize_width(d, mc_samples=0)

    def test_grad_norm_vanishes_at_the_maximizer(self):
        trace = optimize_width(3, "random", seed=12, max_iter=400)
        assert trace[0].grad_norm > 1e-3
        assert trace[-1].grad_norm < 1e-4
        warm = optimize_width(3, regular_simplex(3), max_iter=5)
        assert warm[0].grad_norm < 1e-12

    @pytest.mark.parametrize("d, evaluator, seeds, options, min_evals", [
        # d = 3: enough restarts to pass 20 evaluations
        (3, "_exact3d_width_and_gradient", (12, 13, 14), dict(max_iter=400), 20),
        (4, "_mc_width_and_gradient", (11,), dict(max_iter=5, mc_samples=5_000), 5),
    ], ids=["d3", "d4"])
    def test_one_flatness_test_per_evaluated_point(self, d, evaluator, seeds, options,
                                                   min_evals, monkeypatch):
        # the start is evaluated as random_simplex validated it, and each
        # trial point as the one simplex its evaluation reads
        calls = count_calls(monkeypatch, (cells, "_check_full_dimensional"),
                            (cells, "_face_table"), (cells, "_complex24_core"),
                            (width, evaluator))
        for seed in seeds:
            optimize_width(d, "random", seed=seed, **options)
        assert calls[evaluator] > min_evals
        assert calls["_check_full_dimensional"] == calls[evaluator]
        assert calls["_face_table"] == 0 and calls["_complex24_core"] == 0

    def test_mc_ascent_draws_one_sample_pass_per_evaluated_point(self, monkeypatch):
        calls = count_calls(monkeypatch, (width, "_sphere_samples"),
                            (width, "_mc_width_and_gradient"),
                            (width, "mean_width_mc"))
        optimize_width(4, "random", seed=11, max_iter=5, mc_samples=5_000)
        assert calls["_mc_width_and_gradient"] > 5
        assert calls["_sphere_samples"] == calls["_mc_width_and_gradient"]
        assert calls["mean_width_mc"] == 0

    def test_mc_route_trace_is_pinned(self):
        # the d >= 4 Monte Carlo route's widths and steps, bit for bit
        trace = optimize_width(4, "random", seed=11, max_iter=5, mc_samples=5_000)
        assert [st.width.value for st in trace] == [
            1.091985443005277, 1.113768814093996, 1.143680072728605,
            1.1828390421868566, 1.230475498957585, 1.2818007811463676]
        assert [st.step_size for st in trace] == [
            0.2, 0.30000000000000004, 0.45000000000000007, 0.675,
            1.0125000000000002, 1.5187500000000003]

    @pytest.mark.parametrize("seed", range(3))
    def test_mc_ascent_stops_when_no_step_helps(self, seed):
        # with tol = 0 no gain is small enough to stop on, so the ascent ends
        # by halving the step below _MIN_STEP, keeping the last accepted simplex
        trace = optimize_width(4, "random", seed=seed, max_iter=400, mc_samples=500,
                               tol=0.0)
        last, previous = trace[-1], trace[-2]
        assert last.converged and last.step_size < width._MIN_STEP
        assert last.simplex is previous.simplex
        widths = [st.width.value for st in trace]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_d3_ends_at_the_maximizer_to_round_off(self, monkeypatch):
        # criterion 10's restarts: BFGS ends within round-off of the regular
        # width, about 1e-8 regular, in a median of at most 15 evaluations
        calls = count_calls(monkeypatch, (width, "_exact3d_width_and_gradient"))
        counts = []
        for seed in range(100, 120):
            before = calls["_exact3d_width_and_gradient"]
            final = optimize_width(3, "random", seed=seed, max_iter=500)[-1]
            counts.append(calls["_exact3d_width_and_gradient"] - before)
            assert final.converged
            assert abs(final.width.value - regular_tetrahedron_width()) < 1e-14
            assert final.regularity < 1e-7
        assert np.median(counts) <= 15

    def test_trace_states_carry_their_own_value_and_gradient(self):
        # a gradient kept from an earlier point would show in grad_norm
        for st in optimize_width(3, "random", seed=12, max_iter=400):
            w, G = width._exact3d_width_and_gradient(InscribedSimplex(st.simplex.vertices))
            assert st.width.value == w
            assert st.grad_norm == float(np.linalg.norm(G))


def count_calls(monkeypatch, *targets):
    """Count the calls of each function (module, name) through every mwkit
    module that binds it; returns name -> count."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("mwkit.")]
    for module, name in targets:
        calls[name] = 0
        fn = getattr(module, name)
        wrapper = counted(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def central_difference(f, V, h=1e-6):
    """Central differences of f(normalized rows of V), one coordinate at a
    time: the tangential gradient at a simplex on the sphere."""
    G = np.zeros_like(V)
    for idx in np.ndindex(V.shape):
        for sign in (1.0, -1.0):
            W = V.copy()
            W[idx] += sign * h
            G[idx] += sign * f(W / np.linalg.norm(W, axis=1, keepdims=True))
    return G / (2.0 * h)


class TestGradient:
    def test_exact3d_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            S = random_simplex(3, rng)
            _, G = width._exact3d_width_and_gradient(S)
            G_fd = central_difference(width._exact3d_value, S.vertices)
            assert np.max(np.abs(G - G_fd)) < 1e-7

    def test_tangent_and_zero_at_regular(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            S = random_simplex(3, rng)
            _, G = width._exact3d_width_and_gradient(S)
            assert np.max(np.abs(np.sum(G * S.vertices, axis=1))) < 1e-14
            assert np.linalg.norm(G) > 1e-6
        _, G = width._exact3d_width_and_gradient(regular_simplex(3))
        assert np.max(np.abs(G)) < 1e-12

    @pytest.mark.parametrize("d", [4, 5])
    def test_mc_matches_finite_differences_of_the_same_seed(self, d):
        rng = np.random.default_rng(22 + d)
        S = random_simplex(d, rng)
        V = S.vertices
        n, seed = 20_000, 5

        def objective(W):
            return mean_width_mc(InscribedSimplex(W), n, seed).value

        _, G = width._mc_width_and_gradient(S, n, seed)
        assert np.max(np.abs(np.sum(G * V, axis=1))) < 1e-14
        assert np.max(np.abs(G - central_difference(objective, V))) < 1e-8

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_shared_sampler_value_is_bitwise_mean_width_mc(self, d, monkeypatch):
        monkeypatch.setattr(width, "_MC_BATCH", 1_000)  # several batches
        S = random_simplex(d, np.random.default_rng(30 + d))
        value, _ = width._mc_width_and_gradient(S, 2_500, 9)
        assert value == mean_width_mc(S, 2_500, 9).value

    def test_degenerate_iterate_raises(self):
        # four vertices on one small circle span a flat tetrahedron, which
        # fails validation for the width-and-gradient evaluation as for the
        # objective
        t = np.array([0.1, 1.7, 3.0, 4.4])
        r = np.sqrt(0.75)
        V = np.column_stack([r * np.cos(t), r * np.sin(t), np.full(4, 0.5)])
        with pytest.raises(DegeneracyError):
            width._exact3d_width_and_gradient(InscribedSimplex(V))
        with pytest.raises(DegeneracyError):
            width._exact3d_value(V)
        # an antipodal pair is a proper tetrahedron: the complex cannot place
        # the triple points, but the edge formula is smooth there
        antipodal = InscribedSimplex(np.array(
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(DegeneracyError):
            mean_width_exact3d(antipodal)
        final = optimize_width(3, antipodal, max_iter=500)[-1]
        assert abs(final.width.value - regular_tetrahedron_width()) < 1e-5
        assert final.regularity < 1e-3
