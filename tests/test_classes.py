import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixrate import classes
from mixrate.classes import (EntropyModel, SumEntropy, discrete_cdf,
                             entropy_eval, gaussian_cdf, lipschitz_compose,
                             positive_part, scalar_multiply, sup_halflines,
                             sup_lipschitz_w1, sup_monotone01, uniform01_cdf)


class TestEntropyEval:
    def test_flat_bound(self):
        m = EntropyModel(K=3.0, D=2.0, alpha=0.0, V=0.0)
        for u in (0.01, 0.5, 1.0):
            assert entropy_eval(m, u) == pytest.approx(6.0)

    def test_monotone_class_model(self):
        m = EntropyModel(K=2.5, alpha=1.0, V=0.0)
        assert entropy_eval(m, 0.1) == pytest.approx(25.0)

    def test_convex_class_model(self):
        # entropy exponent d/2 with d = 4 and log power d + 1
        m = EntropyModel(K=1.0, D=2.0, theta=1.0, B=10.0, alpha=2.0, V=5.0)
        expected = 2.0 * (1.0 / 0.5) ** 2 * math.log(10.0 / 0.5) ** 5
        assert entropy_eval(m, 0.5) == pytest.approx(expected)

    def test_out_of_range_scale(self):
        m = EntropyModel(alpha=1.0)
        with pytest.raises(ValueError):
            entropy_eval(m, 0.0)
        with pytest.raises(ValueError):
            entropy_eval(m, 1.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.02, 1.0))
    def test_strictly_decreasing_when_complex(self, u1, u2):
        m = EntropyModel(alpha=1.5, V=1.0, B=10.0)
        lo, hi = sorted((u1, u2))
        if hi - lo > 1e-9:
            assert entropy_eval(m, lo) > entropy_eval(m, hi)


class TestEntropyCalculus:
    def test_lipschitz_identity(self):
        m = EntropyModel(alpha=1.0, V=1.0, B=10.0)
        out = lipschitz_compose(m, 1.0)
        assert out == m

    def test_lipschitz_rescale(self):
        m = EntropyModel(alpha=2.0, V=0.0, sigma=0.5, b=1.0)
        out = lipschitz_compose(m, 3.0)
        # new bound at u equals the old bound at u/3
        assert entropy_eval(out, 0.3) == pytest.approx(entropy_eval(m, 0.1))

    def test_sum_with_self(self):
        m = EntropyModel(K=1.5, D=2.0, theta=1.0, alpha=1.2, V=0.0)
        s = SumEntropy(m, m)
        delta = 0.4
        expected = 2 * 1.5 * 2.0 * (2 * 1.0 / delta) ** 1.2
        assert s(delta) == pytest.approx(expected)

    def test_sum_commutative_on_grid(self):
        a = EntropyModel(alpha=1.0, V=0.0)
        b = EntropyModel(alpha=0.5, V=1.0, B=10.0)
        ab = SumEntropy(a, b)
        ba = SumEntropy(b, a)
        for d in np.geomspace(0.01, 1.0, 20):
            assert ab(d) == pytest.approx(ba(d))

    def test_positive_part_unchanged(self):
        m = EntropyModel(alpha=1.0)
        assert positive_part(m) == m

    def test_scalar_multiply(self):
        m = EntropyModel(alpha=1.0, V=0.0, sigma=1.0, b=1.0)
        out = scalar_multiply(m, 2.0)
        assert entropy_eval(out, 0.5) == pytest.approx(entropy_eval(m, 0.25))

    def test_invalid_parameters(self):
        m = EntropyModel(alpha=1.0)
        with pytest.raises(ValueError):
            lipschitz_compose(m, 0.0)
        # a model is checked when it is built; NaN fails every field's check
        for field, bad in [("K", 0.0), ("D", 0.5), ("theta", 0.0), ("alpha", -1.0),
                           ("V", -1.0), ("sigma", 0.0), ("sigma", 2.0), ("b", 0.5),
                           ("B", 1.0), ("r", 0.5)]:
            for value in (bad, math.nan):
                with pytest.raises(ValueError, match="need|norm index"):
                    EntropyModel(**{field: value})


class TestSupHalflines:
    def test_single_point_at_median(self):
        assert sup_halflines([0.5], uniform01_cdf()) == pytest.approx(0.5)

    def test_quantile_grid(self):
        n = 9
        sample = np.arange(1, n + 1) / (n + 1)
        expected = math.sqrt(n) / (n + 1)
        assert sup_halflines(sample, uniform01_cdf()) == pytest.approx(expected)

    def test_duplicate_heavy_sample(self):
        assert sup_halflines([0.3] * 4, uniform01_cdf()) == pytest.approx(1.4)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            sup_halflines([], uniform01_cdf())

    def test_gaussian_oracle_supported(self):
        rng = np.random.default_rng(0)
        v = sup_halflines(rng.normal(size=200), gaussian_cdf())
        assert 0.0 < v < 3.0


class TestSupMonotone01:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 60))
    def test_equals_halfline_supremum(self, seed, n):
        sample = np.random.default_rng(seed).random(n)
        o = uniform01_cdf()
        assert sup_monotone01(sample, o) == pytest.approx(
            sup_halflines(sample, o), abs=1e-12)

    def test_dominates_random_inner_maximization(self):
        rng = np.random.default_rng(1)
        sample = rng.random(50)
        o = uniform01_cdf()
        bound = sup_monotone01(sample, o)
        n = len(sample)
        # random monotone step functions f(x) = sum_j w_j 1{x >= t_j}
        best = 0.0
        for _ in range(100):
            t = np.sort(rng.random((100, 3)), axis=1)
            w = rng.dirichlet(np.ones(3), size=100)
            emp = (sample[None, None, :] >= t[:, :, None]).mean(axis=2)
            gn = math.sqrt(n) * np.abs(((emp - (1 - t)) * w).sum(axis=1))
            best = max(best, float(gn.max()))
        assert best <= bound + 1e-12

    def test_quantile_grid(self):
        n = 9
        sample = np.arange(1, n + 1) / (n + 1)
        assert sup_monotone01(sample, uniform01_cdf()) == pytest.approx(
            math.sqrt(n) / (n + 1))


class TestSupLipschitzW1:
    def test_single_point_at_median(self):
        assert sup_lipschitz_w1([0.5], uniform01_cdf()) == pytest.approx(0.25)

    def test_two_point_analytic(self):
        v = sup_lipschitz_w1([0.25, 0.75], uniform01_cdf())
        assert v == pytest.approx(math.sqrt(2) * 0.125)

    def test_matching_atoms_give_zero(self):
        atoms = [0.1, 0.4, 0.7, 0.9]
        assert sup_lipschitz_w1(atoms, discrete_cdf(atoms)) == pytest.approx(
            0.0, abs=1e-12)

    def test_unbounded_support_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            sup_lipschitz_w1([0.0, 1.0], gaussian_cdf())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.random(20)
        o = uniform01_cdf()
        assert sup_lipschitz_w1(s, o) == pytest.approx(
            sup_lipschitz_w1(rng.permutation(s), o), abs=1e-12)


def loop_sup_lipschitz_w1(sample, quantile, antideriv, support):
    # reference: one scalar segment integral at a time, summed in order;
    # quantile and antideriv are scalar callables
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    knots = np.concatenate(([support[0]], x, [support[1]]))
    total = 0.0
    for i in range(len(knots) - 1):
        a, b, level = knots[i], knots[i + 1], i / n
        if b <= a:
            continue
        xc = min(max(float(quantile(level)), a), b) if 0.0 < level < 1.0 else (
            a if level <= 0.0 else b)
        left = level * (xc - a) - (antideriv(xc) - antideriv(a))
        right = (antideriv(b) - antideriv(xc)) - level * (b - xc)
        total += max(left, 0.0) + max(right, 0.0)
    return math.sqrt(n) * total


def scalar_uniform01_antideriv(x):
    return 0.0 if x <= 0 else (0.5 * x * x if x < 1 else 0.5 + (x - 1))


def scalar_discrete(atoms):
    a = np.sort(np.asarray(atoms, dtype=float))
    n = len(a)

    def quantile(u):
        return float(a[min(max(int(math.ceil(u * n)) - 1, 0), n - 1)])

    def antideriv(x):
        below = a[a <= x]
        return float((x * len(below) - below.sum()) / n)
    return quantile, antideriv


W1_SAMPLES = {
    "n1_median": [0.5],
    "n1_at_zero": [0.0],
    "n1_at_one": [1.0],
    "ends_and_ties": [0.0, 0.0, 0.3, 0.3, 0.3, 0.7, 1.0, 1.0],
    "all_tied": [0.25] * 6,
    "random_512": list(np.random.default_rng(3).random(512)),
    "random_ties_1000": list(np.round(np.random.default_rng(4).random(1000), 2)),
}


class TestArrayOracles:
    """Array-valued oracles and the one-pass W1 against the scalar loop."""

    @pytest.mark.parametrize("name", sorted(W1_SAMPLES))
    def test_w1_uniform_bit_identical(self, name):
        sample = W1_SAMPLES[name]
        ref = loop_sup_lipschitz_w1(sample, float, scalar_uniform01_antideriv, (0.0, 1.0))
        got = sup_lipschitz_w1(sample, uniform01_cdf())
        assert type(got) is float and got == ref

    @pytest.mark.parametrize("name", sorted(W1_SAMPLES))
    def test_w1_discrete_matches_loop(self, name):
        atoms = [0.0, 0.1, 0.1, 0.45, 0.8, 1.0]
        sample = W1_SAMPLES[name]
        ref = loop_sup_lipschitz_w1(sample, *scalar_discrete(atoms), (0.0, 1.0))
        assert sup_lipschitz_w1(sample, discrete_cdf(atoms)) == pytest.approx(
            ref, rel=1e-12, abs=1e-12)

    def test_elementwise_equals_scalar(self):
        x = np.array([-0.5, 0.0, 1e-9, 0.1, 0.1, 0.45, 0.5, 0.99, 1.0, 1.5])
        u = np.array([0.0, 1e-9, 0.1, 1 / 6, 0.5, 0.999, 1.0])
        o = uniform01_cdf()
        assert np.array_equal(o.cdf_antideriv(x), [scalar_uniform01_antideriv(v) for v in x])
        assert np.array_equal(o.quantile(u), u)
        atoms = [0.45, 0.1, 0.0, 0.1, 1.0, 0.8]
        d = discrete_cdf(atoms)
        quantile, antideriv = scalar_discrete(atoms)
        assert np.array_equal(d.quantile(u), [quantile(v) for v in u])
        np.testing.assert_allclose(d.cdf_antideriv(x), [antideriv(v) for v in x],
                                   rtol=1e-12, atol=1e-12)
        g = gaussian_cdf()
        assert np.array_equal(g.quantile(u[1:-1]), [g.quantile(v) for v in u[1:-1]])
        assert np.array_equal(g.cdf_antideriv(x), [g.cdf_antideriv(v) for v in x])
