import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import mixrate
from mixrate.ot import (SinkhornState, _logsumexp_inplace, _sq_dists,
                        compare_estimators, exact_w2, gen_cloud,
                        sinkhorn_divergence, sinkhorn_iterate,
                        solve_assignment, t_eps_k)

IID_CFG = {"generator": "iid_uniform"}


def frozen_solve_assignment(cost):
    """solve_assignment as it was when it ran the per-row Hungarian method,
    updating the duals at every step: the reference that the current solver
    must match bit for bit on tie-free costs."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    matched_row = np.zeros(n + 1, dtype=int)  # column j -> row (1-indexed)
    parent = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        matched_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            upd = free & (cur < minv[1:])
            minv1 = minv[1:]
            minv1[upd] = cur[upd]
            parent[1:][upd] = j0
            idx = np.flatnonzero(free)
            j1 = int(idx[np.argmin(minv1[idx])]) + 1
            delta = minv[j1]
            u[matched_row[used]] += delta
            v[used] -= delta
            minv1[free] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        while j0:
            j1 = parent[j0]
            matched_row[j0] = matched_row[j1]
            j0 = j1
    cols = np.zeros(n, dtype=int)
    for j in range(1, n + 1):
        cols[matched_row[j] - 1] = j - 1
    total = float(cost[np.arange(n), cols].sum())
    return cols, total


class TestSinkhornIterates:
    def test_one_atom_first_iterate(self):
        X = np.array([[0.2]])
        Y = np.array([[0.8]])
        s = sinkhorn_iterate(SinkhornState.init(X, Y, 0.5))
        assert s.u[0] == pytest.approx(0.36)
        assert s.v[0] == pytest.approx(0.0)
        assert t_eps_k(X, Y, 0.5, 3) == pytest.approx(0.36)

    def test_identical_clouds_fixed_point(self):
        rng = np.random.default_rng(0)
        X = rng.random((6, 2))
        s = SinkhornState.init(X, X, 0.1)
        prev = None
        for _ in range(200):
            s = sinkhorn_iterate(s)
            cur = float(np.mean(s.u) + np.mean(s.v))
            if prev is not None and abs(cur - prev) < 1e-13:
                break
            prev = cur
        s2 = sinkhorn_iterate(s)
        assert np.mean(s2.u) + np.mean(s2.v) == pytest.approx(
            np.mean(s.u) + np.mean(s.v), abs=1e-10)

    def test_potential_translation_invariance(self):
        # shifting v by a constant shifts the next u by the same constant,
        # so centred potentials are invariant
        rng = np.random.default_rng(1)
        X, Y = rng.random((5, 2)), rng.random((5, 2))
        s = SinkhornState.init(X, Y, 0.3)
        shifted = SinkhornState(u=s.u, v=s.v + 1.7, eps=s.eps, k=0, cost=s.cost)
        a, b = sinkhorn_iterate(s), sinkhorn_iterate(shifted)
        assert np.allclose(a.u - a.u.mean(), b.u - b.u.mean(), atol=1e-12)

    def test_dual_value_monotone_in_k(self):
        rng = np.random.default_rng(2)
        X, Y = rng.random((8, 2)), rng.random((8, 2))
        vals = [t_eps_k(X, Y, 0.05, k) for k in (1, 2, 4, 8, 16, 32)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invalid_parameters(self):
        X = np.array([[0.0]])
        with pytest.raises(ValueError):
            SinkhornState.init(X, X, 0.0)
        with pytest.raises(ValueError):
            t_eps_k(X, X, 1.0, 0)

    def test_overflow_audit_large_diameter_small_eps(self):
        X = np.array([[0.0], [1000.0]])
        Y = np.array([[500.0], [1500.0]])
        assert math.isfinite(t_eps_k(X, Y, 1e-4, 50))


def scipy_sinkhorn_iterate(state):
    """The iterate written with scipy's log-sum-exp: the reference for the
    in-place numpy version."""
    eps, cost = state.eps, state.cost
    m, n = cost.shape
    u = -eps * (logsumexp((state.v[None, :] - cost) / eps, axis=1)
                - math.log(n))
    v = -eps * (logsumexp((u[:, None] - cost) / eps, axis=0) - math.log(m))
    return replace(state, u=u, v=v, k=state.k + 1)


class TestNumpyLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shift", [0.0, 1e3, -1e3])
    def test_matches_scipy(self, axis, shift):
        rng = np.random.default_rng(11)
        a = rng.normal(scale=5.0, size=(40, 70))
        a[::3] += shift  # rows shifted far from the rest
        ref = logsumexp(a, axis=axis)
        got = _logsumexp_inplace(a.copy(), axis)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("axis", [0, 1])
    def test_small_eps_regime(self, axis):
        # (v - c)/eps at eps = 1e-4 on unit-cube costs: entries down to -4e4,
        # far below exp's underflow, so only the max shift keeps them finite
        rng = np.random.default_rng(12)
        X, Y = rng.random((30, 4)), rng.random((50, 4))
        a = (rng.normal(size=50)[None, :] - _sq_dists(X, Y)) / 1e-4
        ref = logsumexp(a, axis=axis)
        got = _logsumexp_inplace(a.copy(), axis)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("eps", [1.0, 0.05, 1e-4])
    def test_fifty_iterates_match_scipy_reference(self, eps):
        rng = np.random.default_rng(13)
        X, Y = rng.random((40, 3)), rng.random((55, 3))
        ours = ref = SinkhornState.init(X, Y, eps)
        for _ in range(50):
            ours, ref = sinkhorn_iterate(ours), scipy_sinkhorn_iterate(ref)
        assert ours.k == ref.k == 50
        scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)))
        assert np.max(np.abs(ours.u - ref.u)) <= 1e-12 * scale
        assert np.max(np.abs(ours.v - ref.v)) <= 1e-12 * scale


class TestSqDists:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_bit_identical_to_full_broadcast(self, d):
        rng = np.random.default_rng(d)
        # one point, one block, and row counts that are not a multiple of
        # the row block of 2**16 // (n * d) rows
        for m, n in [(1, 9), (7, 5), (129, 512), (1000, 3), (37, 1777)]:
            X, Y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
            full = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(_sq_dists(X, Y), full)

    def test_dimension_mismatch_raises(self):
        X, Y = np.zeros((5, 1)), np.zeros((6, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            SinkhornState.init(X, Y, 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            SinkhornState.init(Y, X, 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            exact_w2(np.zeros((6, 1)), Y)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(mixrate.__file__))
    code = ("import sys\n"
            "import mixrate, mixrate.cli\n"
            "loaded = [m for m in sys.modules\n"
            "          if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
            "from mixrate.classes import gaussian_cdf\n"
            "g = gaussian_cdf()\n"
            "assert abs(g.cdf(0.0) - 0.5) < 1e-15\n"
            "assert abs(g.quantile(0.975) - 1.959963984540054) < 1e-12\n")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


class TestSinkhornAgainstScalarReference:
    def test_two_point_symmetric_coupling(self):
        # X = Y = {0, 1}: by symmetry the optimal entropic coupling puts
        # mass t on each off-diagonal cell; minimize transport + eps*KL in t
        X = np.array([[0.0], [1.0]])
        eps = 1.0

        def objective(t):
            p = np.array([0.5 - t, t, t, 0.5 - t])
            kl = float(np.sum(p * np.log(4.0 * p)))
            return 2.0 * t + eps * kl

        res = minimize_scalar(objective, bounds=(1e-12, 0.5 - 1e-12),
                              method="bounded",
                              options={"xatol": 1e-14})
        p = np.array([0.5 - res.x, res.x, res.x, 0.5 - res.x])
        reference = 2.0 * res.x + eps * float(np.sum(p * np.log(4.0 * p)))
        assert t_eps_k(X, X, eps, 500) == pytest.approx(reference, abs=1e-6)


class TestSinkhornDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(3)
        X = rng.random((10, 3))
        assert sinkhorn_divergence(X, X, 0.2, 40) == pytest.approx(
            0.0, abs=1e-10)

    def test_nonnegative_on_random_clouds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, Y = rng.random((8, 2)), rng.random((8, 2))
            assert sinkhorn_divergence(X, Y, 0.1, 100) >= -1e-8

    def test_small_eps_approaches_exact_cost(self):
        rng = np.random.default_rng(5)
        X = rng.random((12, 1))
        Y = rng.random((12, 1))
        exact = exact_w2(X, Y)
        approx = sinkhorn_divergence(X, Y, 0.01, 2000)
        assert approx == pytest.approx(exact, rel=0.05)


class TestExactW2:
    def test_single_pair(self):
        assert exact_w2([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(25.0)

    def test_three_points_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, Y = rng.random((3, 2)), rng.random((3, 2))
            assert exact_w2(X, Y, method="assignment") == pytest.approx(
                exact_w2(X, Y, method="brute"), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_sorted_equals_assignment_in_1d(self, seed, n):
        rng = np.random.default_rng(seed)
        X, Y = rng.random((n, 1)), rng.random((n, 1))
        assert exact_w2(X, Y, method="sorted") == pytest.approx(
            exact_w2(X, Y, method="assignment"), abs=1e-12)

    def test_assignment_solver_on_known_matrix(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        cols, total = solve_assignment(cost)
        brute = min(sum(cost[i, p[i]] for i in range(3))
                    for p in itertools.permutations(range(3)))
        assert total == pytest.approx(brute)
        assert sorted(cols) == [0, 1, 2]

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X, Y, Z = (rng.random((5, 2)) for _ in range(3))
            dxy = math.sqrt(exact_w2(X, Y))
            dyx = math.sqrt(exact_w2(Y, X))
            dxz = math.sqrt(exact_w2(X, Z))
            dzy = math.sqrt(exact_w2(Z, Y))
            assert dxy == pytest.approx(dyx, abs=1e-9)
            assert dxy <= dxz + dzy + 1e-9

    def test_zero_iff_equal_multisets(self):
        X = np.array([[0.1], [0.5], [0.5]])
        perm = X[[2, 0, 1]]
        assert exact_w2(X, perm) == pytest.approx(0.0, abs=1e-15)
        assert exact_w2(X, X + 0.01) > 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = rng.random((7, 3)), rng.random((7, 3))
        shuffled = Y[rng.permutation(7)]
        assert exact_w2(X, Y) == pytest.approx(exact_w2(X, shuffled),
                                               abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            exact_w2(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            exact_w2(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            exact_w2(np.zeros((3, 2)), np.zeros((3, 2)), method="sorted")

    def test_empty_clouds_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            exact_w2(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty cloud"):
            exact_w2(np.zeros((0, 1)), np.zeros((0, 1)), method="sorted")

    def test_clouds_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            exact_w2(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="2-D"):
            exact_w2(np.zeros((2, 2)), np.zeros((2, 2, 1)))


class TestAssignmentSolver:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_matches_frozen_solver_on_uniform_costs(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            cost = rng.random((n, n))
            cols, total = solve_assignment(cost)
            ref_cols, ref_total = frozen_solve_assignment(cost)
            assert cols.dtype == np.int64 and type(total) is float
            assert np.array_equal(cols, ref_cols)
            assert total == ref_total

    @pytest.mark.parametrize("n", [192, 512])
    def test_matches_frozen_solver_on_cloud_costs(self, n):
        for seed in (0, 1):
            X = gen_cloud(IID_CFG, n, 4, seed)
            Y = gen_cloud(IID_CFG, n, 4, seed + 1)
            cost = _sq_dists(X, Y)
            cols, total = solve_assignment(cost)
            ref_cols, ref_total = frozen_solve_assignment(cost)
            assert np.array_equal(cols, ref_cols)
            assert total == ref_total

    def test_tied_integer_costs_match_brute_force(self):
        # costs in {0, 1, 2} tie everywhere; the matching may differ from
        # the frozen solver's but the total is the brute-force optimum
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            cols, total = solve_assignment(cost)
            brute = min(sum(cost[i, p[i]] for i in range(n))
                        for p in itertools.permutations(range(n)))
            assert sorted(cols) == list(range(n))
            assert total == float(cost[np.arange(n), cols].sum()) == brute

    def test_tied_lattice_clouds_match_brute_method(self):
        # points of {0, 1}^2: squared distances in {0, 1, 2}
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            X = rng.integers(0, 2, size=(n, 2)).astype(float)
            Y = rng.integers(0, 2, size=(n, 2)).astype(float)
            assert exact_w2(X, Y, method="assignment") == exact_w2(
                X, Y, method="brute")

    @pytest.mark.parametrize("n", [1, 5, 64, 300])
    def test_permuted_copy_is_matched_back(self, n):
        rng = np.random.default_rng(103 + n)
        X = rng.random((n, 4))
        perm = rng.permutation(n)
        Y = X[perm]
        assert exact_w2(X, Y) == 0.0
        cols, total = solve_assignment(_sq_dists(X, Y))
        assert np.array_equal(cols, np.argsort(perm))
        assert total == 0.0

    def test_empty_matrix(self):
        cols, total = solve_assignment(np.zeros((0, 0)))
        assert cols.shape == (0,) and total == 0.0

    @pytest.mark.parametrize("cost", [[[np.nan, 1.0], [1.0, 0.0]],
                                      [[np.inf, np.inf], [1.0, 0.0]],
                                      [[0.0, 1.0], [-np.inf, 0.0]]])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(cost)

    def test_non_square_cost_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))


class TestComparisonHarness:
    def test_clouds_are_deterministic_and_shaped(self):
        A = gen_cloud(IID_CFG, 50, 3, 9)
        B = gen_cloud(IID_CFG, 50, 3, 9)
        assert A.shape == (50, 3)
        assert np.array_equal(A, B)
        # distinct axes use distinct streams
        assert not np.allclose(A[:, 0], A[:, 1])

    def test_small_run_report(self):
        rep = compare_estimators(IID_CFG, 4, 3.0, [32, 64, 128],
                                 replications=1, base_seed=0)
        assert rep.regime == "fast"
        assert len(rep.schedules) == 3
        assert np.all(rep.exact_values >= 0.0)
        assert np.all(rep.sinkhorn_values >= -1e-6)
        # both estimate the same squared distance at matched seeds
        assert rep.sinkhorn_values[-1] <= rep.exact_values[-1] + 0.05

    def test_slow_regime_flag(self):
        rep = compare_estimators(IID_CFG, 4, 0.5, [16, 32],
                                 replications=1, base_seed=1,
                                 k_override=10)
        assert rep.regime == "slow"

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            compare_estimators(IID_CFG, 1, 1.0, [16, 32])
