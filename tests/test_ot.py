import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import mixrate
from mixrate.ot import (_GIBBS_MAX_RATIO, SinkhornState, _logsumexp_inplace,
                        _sq_dists, compare_estimators, exact_w2, gen_cloud,
                        sinkhorn_divergence, sinkhorn_iterate,
                        solve_assignment, t_eps_k)

IID_CFG = {"generator": "iid_uniform"}


def brute_assignment_total(cost):
    """The minimum matched cost over all n! permutations, for small n."""
    n = len(cost)
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def assignment_w2(X, Y):
    """exact_w2 through the assignment solver, also for 1-D clouds."""
    cost = _sq_dists(X, Y)
    return solve_assignment(cost)[1] / cost.shape[0]


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


def frozen_lazy_dual_solve_assignment(cost):
    """solve_assignment as it was when each Dijkstra step stored its row
    as the parent of every column it strictly improved: the reference for
    the tie rule, which the per-row Hungarian method above does not share."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    row4col, col4row = np.full(n, -1), np.full(n, -1)
    v = cost.min(axis=0)
    for j, i in enumerate((cost == v).argmax(axis=0).tolist()):
        if col4row[i] < 0:
            row4col[j], col4row[i] = i, j
    u, vfree = np.zeros(n), v.copy()
    dist, r, lows = np.empty(n), np.empty(n), np.empty(n)
    path, scanned = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for start in np.flatnonzero(col4row < 0):
        dist.fill(np.inf)
        i, low, k = start, 0.0, 0
        while True:
            np.subtract(cost[i], vfree, out=r)
            r += low - u[i]
            relax = r < dist
            dist[relax] = r[relax]
            path[relax] = i
            j = int(dist.argmin())
            low = dist[j]
            if row4col[j] < 0:
                break
            scanned[k], lows[k] = j, low
            k += 1
            vfree[j], dist[j] = -np.inf, np.inf
            i = row4col[j]
        sc = scanned[:k]
        gap = low - lows[:k]
        u[start] += low
        u[row4col[sc]] += gap
        v[sc] -= gap
        vfree[sc] = v[sc]
        while j >= 0:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    total = float(cost[np.arange(n), col4row].sum())
    return col4row, total


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
        shifted = replace(s, v=s.v + 1.7, k=0)
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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        X, Y = np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]])
        with pytest.raises(ValueError, match="eps"):
            SinkhornState.init(X, Y, eps)
        with pytest.raises(ValueError, match="eps"):
            t_eps_k(X, Y, eps, 3)
        with pytest.raises(ValueError, match="eps"):
            sinkhorn_divergence(X, Y, eps, 3)

    @pytest.mark.parametrize("k", [True, 2.5, 3.0, "3"])
    def test_non_integer_k_rejected(self, k):
        X, Y = np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]])
        with pytest.raises(ValueError, match="integer"):
            t_eps_k(X, Y, 0.5, k)
        with pytest.raises(ValueError, match="integer"):
            sinkhorn_divergence(X, Y, 0.5, k)

    def test_numpy_integer_k_accepted(self):
        X, Y = np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]])
        assert t_eps_k(X, Y, 0.5, np.int64(3)) == t_eps_k(X, Y, 0.5, 3)

    def test_overflow_audit_large_diameter_small_eps(self):
        X = np.array([[0.0], [1000.0]])
        Y = np.array([[500.0], [1500.0]])
        assert math.isfinite(t_eps_k(X, Y, 1e-4, 50))


def scipy_sinkhorn_iterate(state, cost):
    """The iterate written with scipy's log-sum-exp on the squared-distance
    matrix ``cost``: the reference for both domains of the numpy version."""
    eps = state.eps
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
        cost = _sq_dists(X, Y)
        for _ in range(50):
            ours, ref = sinkhorn_iterate(ours), scipy_sinkhorn_iterate(ref, cost)
        assert ours.k == ref.k == 50
        scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)))
        assert np.max(np.abs(ours.u - ref.u)) <= 1e-12 * scale
        assert np.max(np.abs(ours.v - ref.v)) <= 1e-12 * scale


def log_domain_state(X, Y, eps):
    """A state that keeps the squared distances and runs the log-domain
    iterate, whatever max(C)/eps is."""
    cost = _sq_dists(X, Y)
    m, n = cost.shape
    return SinkhornState(u=np.zeros(m), v=np.zeros(n), eps=eps, k=0,
                         cost=cost, gibbs=False)


class TestGibbsKernelIterate:
    @pytest.mark.parametrize("eps", [2.0, 0.3, 0.05, 0.01])
    def test_fifty_iterates_match_log_domain(self, eps):
        rng = np.random.default_rng(14)
        X, Y = rng.random((40, 3)), rng.random((55, 3))
        gibbs, ref = SinkhornState.init(X, Y, eps), log_domain_state(X, Y, eps)
        assert gibbs.gibbs and not ref.gibbs
        for _ in range(50):
            gibbs, ref = sinkhorn_iterate(gibbs), sinkhorn_iterate(ref)
        assert gibbs.k == ref.k == 50
        scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)))
        assert np.max(np.abs(gibbs.u - ref.u)) <= 1e-12 * scale
        assert np.max(np.abs(gibbs.v - ref.v)) <= 1e-12 * scale

    def test_state_holds_the_kernel(self):
        rng = np.random.default_rng(15)
        X, Y = rng.random((7, 2)), rng.random((9, 2))
        s = SinkhornState.init(X, Y, 0.2)
        assert s.gibbs
        assert np.array_equal(s.cost, np.exp(_sq_dists(X, Y) / -0.2))

    def test_domain_switches_at_the_bound(self):
        # one cost of exactly 125 = 10^2 + 5^2, so max(C)/eps = 500 at 0.25
        X, Y = np.array([[0.0, 0.0]]), np.array([[10.0, 5.0]])
        assert 125.0 / 0.25 == _GIBBS_MAX_RATIO
        assert SinkhornState.init(X, Y, 0.25).gibbs
        past = np.nextafter(0.25, 0.0)
        s = SinkhornState.init(X, Y, past)
        assert not s.gibbs and s.cost[0, 0] == 125.0
        assert t_eps_k(X, Y, past, 3) == pytest.approx(125.0)

    # NaN and inf costs, and a max(C)/eps that overflows to inf
    @pytest.mark.parametrize("x,eps", [(np.nan, 0.5), (np.inf, 0.5),
                                       (0.0, 5e-324)])
    def test_non_finite_ratio_takes_the_log_path(self, x, eps):
        X, Y = np.array([[0.0], [x]]), np.array([[0.5], [1.0]])
        assert not SinkhornState.init(X, Y, eps).gibbs

    def test_iterate_allocates_no_matrix(self):
        m = n = 512
        rng = np.random.default_rng(16)
        X, Y = rng.random((m, 4)), rng.random((n, 4))
        matrix_bytes = 8 * m * n
        peaks = {}
        for s in (SinkhornState.init(X, Y, 0.2), log_domain_state(X, Y, 0.2)):
            s = sinkhorn_iterate(s)  # warm up outside the trace
            tracemalloc.start()
            try:
                sinkhorn_iterate(s)
                peaks[s.gibbs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the log-domain iterate's work array shows that the trace sees one
        assert peaks[False] >= matrix_bytes
        assert peaks[True] < matrix_bytes // 16


class TestSqDists:
    # d = 0 is an empty sum, 1 <= d < 8 a running sum over the axes, and
    # from d = 8 on (where numpy's sum is no longer sequential) each block
    # is the broadcast sum itself
    @pytest.mark.parametrize("d", [*range(0, 41), 127, 128, 129, 200, 300])
    def test_bit_identical_to_full_broadcast(self, d):
        rng = np.random.default_rng(d)
        # one point, one block, and row counts that are not a multiple of
        # the row block
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
            "assert not loaded, loaded\n")
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
            assert exact_w2(X, Y) == pytest.approx(
                brute_assignment_total(_sq_dists(X, Y)) / 3, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_sorted_equals_assignment_in_1d(self, seed, n):
        rng = np.random.default_rng(seed)
        X, Y = rng.random((n, 1)), rng.random((n, 1))
        assert exact_w2(X, Y) == pytest.approx(assignment_w2(X, Y), abs=1e-12)

    def test_assignment_solver_on_known_matrix(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        cols, total = solve_assignment(cost)
        assert total == pytest.approx(brute_assignment_total(cost))
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

    def test_one_dimensional_input_is_points_on_the_line(self):
        x, y = [0.1, 0.5, 0.9], [0.2, 0.6, 0.7]
        X, Y = np.array(x)[:, None], np.array(y)[:, None]
        assert exact_w2(x, y) == exact_w2(X, Y) == pytest.approx(0.02)
        assert assignment_w2(x, y) == assignment_w2(X, Y)
        assert t_eps_k(x, y, 0.5, 5) == t_eps_k(X, Y, 0.5, 5)
        assert exact_w2([[0.0, 0.0]], [[3.0, 4.0]]) == 25.0

    def test_zero_or_three_dimensional_input_rejected(self):
        for bad in (np.float64(0.5), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="1-D or 2-D"):
                exact_w2(bad, bad)
            with pytest.raises(ValueError, match="1-D or 2-D"):
                t_eps_k(bad, bad, 0.5, 1)

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

    def test_empty_clouds_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            exact_w2(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty cloud"):
            exact_w2(np.zeros((0, 1)), np.zeros((0, 1)))

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

    @pytest.mark.parametrize("n", [3, 8, 30, 100])
    def test_matches_frozen_solver_on_tied_costs(self, n):
        # costs in {0..3} tie everywhere, so this pins the tie rule: each
        # column's parent is the first row to reach its final distance
        rng = np.random.default_rng(104 + n)
        for _ in range(30):
            cost = rng.integers(0, 4, size=(n, n)).astype(float)
            cols, total = solve_assignment(cost)
            ref_cols, ref_total = frozen_lazy_dual_solve_assignment(cost)
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
            assert sorted(cols) == list(range(n))
            assert total == float(cost[np.arange(n), cols].sum()) \
                == brute_assignment_total(cost)

    def test_tied_lattice_clouds_match_brute_method(self):
        # points of {0, 1}^2: squared distances in {0, 1, 2}
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            X = rng.integers(0, 2, size=(n, 2)).astype(float)
            Y = rng.integers(0, 2, size=(n, 2)).astype(float)
            assert exact_w2(X, Y) == brute_assignment_total(_sq_dists(X, Y)) / n

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

    def test_means_match_a_sequential_loop(self):
        """Up to three replicas the pairwise-sum mean is the sequential one,
        bit for bit: (a + b) + (c + 0) is ((0 + a) + b) + c."""
        n_grid, reps, base_seed = [16, 24, 32, 48], 3, 11
        rep = compare_estimators(IID_CFG, 4, 3.0, n_grid, replications=reps,
                                 base_seed=base_seed)
        for i, n in enumerate(n_grid):
            k_n, eps_n = mixrate.rates.ot_schedule(3.0, 4, n)
            ev = sv = 0.0
            for r in range(reps):
                seed = base_seed + 10_000 * i + 2 * r
                X = gen_cloud(IID_CFG, n, 4, seed)
                Y = gen_cloud(IID_CFG, n, 4, seed + 1)
                ev += exact_w2(X, Y)
                sv += sinkhorn_divergence(X, Y, eps_n, k_n)
            assert rep.exact_values[i] == ev / reps, n
            assert rep.sinkhorn_values[i] == sv / reps, n

    def test_slow_regime_flag(self):
        rep = compare_estimators(IID_CFG, 4, 0.5, [16, 32],
                                 replications=1, base_seed=1)
        assert rep.regime == "slow"

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            compare_estimators(IID_CFG, 1, 1.0, [16, 32])

    def test_repeated_seed_rejected_before_any_draw(self, monkeypatch):
        """Axis j of cloud X (Y) at size index i in replica rep draws seed
        base_seed + 10,000 i + 7919 j + 2 rep (+ 1): over four sizes that
        first repeats at 1,041 replications for d = 4 and at 839 for d = 6."""
        def no_draw(*args):
            raise AssertionError("a cloud was drawn")

        monkeypatch.setattr(mixrate.ot, "gen_cloud", no_draw)
        for d, reps in ((4, 1041), (6, 839)):
            mixrate.ot._check_seeds(4, d, reps - 1)
            with pytest.raises(ValueError, match="repeat a seed"):
                compare_estimators(IID_CFG, d, 3.0, [16, 24, 32, 48],
                                   replications=reps)
