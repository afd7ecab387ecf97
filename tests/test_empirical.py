import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import isotonic_regression

from mixrate import empirical, mixing, ot
from mixrate.classes import sup_halflines, sup_lipschitz_w1, uniform01_cdf
from mixrate.empirical import (erm_risk_curve, jackknife_se, mc_sup_expectation,
                               orlicz_norm_finite, pairwise_sum, slope_fit,
                               verify_variance_bound)
from mixrate.rates import c_phi

ORACLE = uniform01_cdf()
IID_CFG = {"generator": "iid_uniform"}


def frozen_orlicz_norm_finite(values, weights, r):
    """orlicz_norm_finite as it was before probes outside a band around the
    closed-form root were answered by comparison: every probe sums."""
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if np.all(values * weights == 0):
        return 0.0

    def ok(t):
        return float(np.dot(weights, (values / t) ** r)) <= 1.0

    hi = max(float(values.max()), 1e-300)
    lo = hi * 1e-6
    while not ok(hi):
        hi *= 2.0
    while ok(lo):
        lo /= 2.0
    while hi / lo > 1.0 + 1e-10:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def frozen_verify_variance_bound(transition, stationary, h, q, r):
    """verify_variance_bound as it was when it took one (q, r) per call,
    with its Lambda(q) formula inlined: the reference that the grid form
    must match bit for bit."""
    transition = np.asarray(transition, dtype=float)
    stationary = np.asarray(stationary, dtype=float)
    h = np.asarray(h, dtype=float)
    mu = float(np.dot(stationary, h))
    hc = h - mu
    var0 = float(np.dot(stationary, hc * hc))
    lhs = q * var0
    pk = np.eye(len(h))
    for k in range(1, q):
        pk = pk @ transition
        cov_k = float(stationary @ (hc * (pk @ hc)))
        lhs += 2 * (q - k) * cov_k
    profile = mixing.MixingProfile(
        kind=mixing.ProfileKind.EXACT_MARKOV, flavor=mixing.MixingFlavor.BETA,
        transition=transition, stationary=stationary)
    p = 1.0 - 2.0 / r
    lam = float(np.sum(profile.coefficient(np.arange(q + 1)) ** p) / p)
    norm = frozen_orlicz_norm_finite(h, stationary, r)
    rhs = q * norm ** 2 * (c_phi(r) ** 2 + 2.0 * lam)
    return empirical.VarianceBoundReport(
        lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9 * rhs,
        orlicz_norm=norm, lambda_value=lam)


def make_sample(values):
    return mixing.SequenceSample(values=np.asarray(values, dtype=float),
                                 mixing_oracle=None)


class TestGnStat:
    def test_single_point_median_ks(self):
        assert sup_halflines(make_sample([0.5]).values, ORACLE) == pytest.approx(0.5)

    def test_w1_quantile_grid_scaling(self):
        n = 99
        s = make_sample(np.arange(1, n + 1) / (n + 1))
        assert sup_lipschitz_w1(s.values, ORACLE) <= math.sqrt(n) * 2.0 / n

    def test_ks_equals_monotone(self):
        # the monotone statistic is the half-line supremum (complement
        # symmetry), so both names give the same Monte Carlo estimate
        cfg = {"generator": "renewal", "params": {"tail_exponent": 0.5, "l_max": 20}}
        assert np.array_equal(mc_sup_expectation(cfg, "monotone", [40], 30, 3, ORACLE),
                              mc_sup_expectation(cfg, "ks", [40], 30, 3, ORACLE))

    def test_missing_oracle(self):
        with pytest.raises(ValueError):
            mc_sup_expectation(IID_CFG, "ks", [50], 30, 0, None)
        with pytest.raises(ValueError):
            mc_sup_expectation(IID_CFG, "nope", [50], 30, 0, ORACLE)


class TestMcSupExpectation:
    def test_iid_ks_near_classical_limit(self):
        # limiting Kolmogorov mean sqrt(pi/2) ln 2 = 0.8687
        [mean], [se] = empirical._mean_se(
            mc_sup_expectation(IID_CFG, "ks", [10**4], 200, 42, ORACLE))
        assert mean == pytest.approx(math.sqrt(math.pi / 2) * math.log(2),
                                     abs=0.05)
        assert se < 0.05

    def test_constant_chain_degenerate(self):
        cfg = {"generator": "markov",
               "params": {"transition": [[1.0]], "state_values": [0.3]}}
        n = 100
        [mean], [se] = empirical._mean_se(mc_sup_expectation(cfg, "ks", [n], 30, 0, ORACLE))
        assert mean == pytest.approx(math.sqrt(n) * 0.7)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_doubling_replications_shrinks_se(self):
        _, [se1] = empirical._mean_se(
            mc_sup_expectation(IID_CFG, "ks", [500], 100, 7, ORACLE))
        _, [se2] = empirical._mean_se(
            mc_sup_expectation(IID_CFG, "ks", [500], 200, 7, ORACLE))
        assert se2 == pytest.approx(se1 / math.sqrt(2), rel=0.3)

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            mc_sup_expectation(IID_CFG, "ks", [100], 10, 0, ORACLE)

    def test_generator_failure_carries_replica_index(self):
        bad = {"generator": "renewal", "params": {"tail_exponent": -1.0}}
        with pytest.raises(RuntimeError, match="replica 0 at n = 100 failed"):
            mc_sup_expectation(bad, "ks", [100, 200], 30, 0, ORACLE)

    def test_deterministic_for_fixed_seed(self):
        a = mc_sup_expectation(IID_CFG, "ks", [200, 100], 30, 5, ORACLE)
        b = mc_sup_expectation(IID_CFG, "ks", [200, 100], 30, 5, ORACLE)
        assert a.shape == (2, 30)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("statistic, cfg", [
        ("ks", {"generator": "renewal", "params": {"tail_exponent": 0.5, "l_max": 50}}),
        ("w1", IID_CFG)])
    def test_matrix_equals_one_draw_per_entry(self, statistic, cfg):
        """Entry (i, r) is the statistic of the sample drawn at n_grid[i]
        with seed base_seed + r, whatever the order of n_grid."""
        n_grid, base_seed = [64, 16, 32], 11
        matrix = mc_sup_expectation(cfg, statistic, n_grid, 30, base_seed, ORACLE)
        assert matrix.shape == (3, 30)
        for i, n in enumerate(n_grid):
            for r in range(30):
                sample = empirical.generate(cfg, n, base_seed + r)
                assert matrix[i, r] == empirical._STATISTICS[statistic](
                    sample.values, ORACLE), (n, r)

    @pytest.mark.parametrize("statistic, oracle", [("nope", ORACLE), ("ks", None)],
                             ids=["unknown_statistic", "no_oracle"])
    def test_bad_statistic_or_oracle_rejected_before_any_replica(
            self, monkeypatch, statistic, oracle):
        calls = []
        real = empirical.generate
        monkeypatch.setattr(empirical, "generate",
                            lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError):
            mc_sup_expectation(IID_CFG, statistic, [50], 30, 0, oracle)
        assert calls == []


class TestReduction:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_pairwise_tree_matches_chunked_accumulation(self, xs):
        x = np.array(xs)
        # reducing the two padded halves separately and combining equals
        # one full reduction: the tree shape depends only on the length
        m = 1
        while m < len(x):
            m *= 2
        padded = np.concatenate((x, np.zeros(m - len(x))))
        half = m // 2
        if half:
            combined = pairwise_sum(np.array(
                [pairwise_sum(padded[:half]), pairwise_sum(padded[half:])]))
            assert combined == pairwise_sum(x)

    def test_jackknife_zero_for_constant(self):
        assert jackknife_se(np.full(50, 3.3)) == pytest.approx(0.0, abs=1e-12)


class TestSlopeFit:
    def test_exact_power_law(self):
        pairs = [(n, 2.0 * n**0.25) for n in (10, 100, 1000, 10**4)]
        fit = slope_fit(pairs)
        assert fit.slope == pytest.approx(0.25, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        pairs = [(n, 5.0) for n in (10, 100, 1000, 10**4)]
        assert slope_fit(pairs).slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        ns = np.geomspace(10, 10**5, 8)
        pairs = [(n, 3.0 * n**0.4 * math.exp(rng.normal(0, 0.05)))
                 for n in ns]
        assert slope_fit(pairs).slope == pytest.approx(0.4, abs=0.03)

    def test_standard_errors_follow_their_n(self):
        fit = slope_fit([(4096, 2.0), (1024, 1.0), (2048, 1.5), (8192, 3.0)],
                        [0.04, 0.01, 0.02, 0.08])
        assert fit.n_grid.tolist() == [1024, 2048, 4096, 8192]
        assert fit.estimates.tolist() == [1.0, 1.5, 2.0, 3.0]
        assert fit.standard_errors.tolist() == [0.01, 0.02, 0.04, 0.08]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            slope_fit([(10, 1.0), (20, -1.0), (30, 1.0), (40, 1.0)])
        with pytest.raises(ValueError):
            slope_fit([(10, 1.0), (20, 1.0), (30, 1.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fit", [
        lambda: slope_fit([(16, 1.0)]),
        lambda: slope_fit([(16, 1.0), (16, 2.0), (32, 1.0), (64, 1.0)]),
        lambda: erm_risk_curve(IID_CFG, lambda x: x, [16], 40)],
        ids=["one_size", "repeated_size", "erm_one_size"])
    def test_too_few_sizes_rejected_before_dividing(self, fit):
        """One size used to warn 'invalid value encountered in scalar divide'
        and then raise a bare ZeroDivisionError."""
        with pytest.raises(ValueError, match="need >= 4 n values"):
            fit()


class TestVarianceBound:
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    PI = np.array([0.5, 0.5])

    def test_constant_h(self):
        rep = verify_variance_bound(self.P, self.PI, np.array([2.0, 2.0]), 10, 4)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_iid_chain_l2_orlicz_relation(self):
        pi = np.array([0.3, 0.7])
        P = np.tile(pi, (2, 1))
        h = np.array([1.0, -1.5])
        rep = verify_variance_bound(P, pi, h, 8, 4)
        mu = pi @ h
        var = pi @ (h - mu) ** 2
        assert rep.lhs == pytest.approx(8 * var)
        l2 = math.sqrt(float(pi @ h**2))
        assert l2 <= c_phi(4) * rep.orlicz_norm + 1e-9
        assert rep.holds

    def test_orlicz_norm_is_lr_norm_for_power_family(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = rng.dirichlet(np.ones(5))
            h = rng.normal(size=5)
            for r in (3.0, 4.0, 8.0):
                closed = float(np.dot(w, np.abs(h) ** r)) ** (1.0 / r)
                assert orlicz_norm_finite(h, w, r) == pytest.approx(
                    closed, rel=1e-8)

    def test_random_chain_audit(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            P = rng.random((5, 5)) + 0.05
            P /= P.sum(axis=1, keepdims=True)
            pi = mixing.stationary_distribution(P)
            h = rng.normal(size=5)
            reports = verify_variance_bound(P, pi, h, (1, 7, 29), 4)
            assert [len(row) for row in reports] == [1, 1, 1]
            assert all(row[0].holds for row in reports)

    def test_r_floor(self):
        h = np.array([1.0, 0.0])
        for q, r in [(5, 2), (5, 1.5), (0, 4), (-1, 4), ([3, 0, 5], 4),
                     (5, [3, 2]), ([1, 2], [4, 2.0]), (5, math.nan),
                     ([1, 2], [4, math.nan]), (math.nan, 4), ([3, math.nan], 4),
                     (2.5, 4), ([2.5, 3], 4)]:
            with pytest.raises(ValueError):
                verify_variance_bound(self.P, self.PI, h, q, r)
            # rejected at the boundary, before the transition is ever used
            with pytest.raises(ValueError, match="must"):
                verify_variance_bound(None, None, h, q, r)

    def test_grid_shape_is_q_by_r(self):
        h = np.array([1.0, -2.0])
        assert len(verify_variance_bound(self.P, self.PI, h, 3, [3, 4])) == 1
        reports = verify_variance_bound(self.P, self.PI, h, [4, 1, 4], [8, 3])
        assert [len(row) for row in reports] == [2, 2, 2]
        assert reports[0][1] == reports[2][1] == \
            verify_variance_bound(self.P, self.PI, h, 4, 3)
        assert reports[1][0] == verify_variance_bound(self.P, self.PI, h, 1, 8)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_grid_matches_frozen_scalar_bitwise(self, m):
        rng = np.random.default_rng(100 + m)
        P = rng.random((m, m)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        pi = mixing.stationary_distribution(P)
        h = rng.normal(size=m)
        q_grid, r_grid = range(1, 51), (2.5, 3, 4, 8)
        reports = verify_variance_bound(P, pi, h, q_grid, r_grid)
        for q, row in zip(q_grid, reports):
            for r, rep in zip(r_grid, row):
                assert rep == frozen_verify_variance_bound(P, pi, h, q, r), (q, r)
        for q, r in ((1, 3), (17, 2.5), (50, 8)):
            rep = verify_variance_bound(P, pi, h, q, r)
            assert rep == frozen_verify_variance_bound(P, pi, h, q, r)
            # a single call keeps Python scalars in every field
            assert [type(v) for v in vars(rep).values()] == \
                [float, float, bool, float, float]


def random_chain(rng, m):
    P = rng.random((m, m)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return P, mixing.stationary_distribution(P)


def assert_matches_frozen(report, P, pi, h, q, r):
    """``==`` to the frozen scalar copy on every field, with the same types."""
    frozen = frozen_verify_variance_bound(P, pi, h, q, r)
    assert report == frozen, (q, r)
    assert [type(v) for v in vars(report).values()] == \
        [type(v) for v in vars(frozen).values()] == [float, float, bool, float, float]


class TestRepeatedCalls:
    """Each call computes from its own arguments: scalar and grid calls in
    any order, over many (chain, h) pairs and arrays changed in place
    between calls, match the frozen scalar copy."""

    def test_shuffled_calls_match_frozen(self):
        rng = np.random.default_rng(5)
        pairs = []
        for m in (2, 3, 4, 5):
            P, pi = random_chain(rng, m)
            pairs += [(P, pi, rng.normal(size=m)) for _ in range(3)]
        calls = [(j, int(q), r) for j in range(len(pairs))
                 for q, r in zip(rng.integers(1, 40, size=6), (3, 4, 8, 2.5, 4, 3))]
        calls += [(j, [int(q) for q in rng.integers(1, 40, size=4)], [4, 3])
                  for j in range(len(pairs))]
        for i in rng.permutation(len(calls)):
            j, q, r = calls[i]
            P, pi, h = pairs[j]
            out = verify_variance_bound(P, pi, h, q, r)
            if np.ndim(q) == 0:
                assert_matches_frozen(out, P, pi, h, q, r)
                continue
            for qi, row in zip(q, out):
                for ri, rep in zip(r, row):
                    assert_matches_frozen(rep, P, pi, h, qi, ri)

    def test_arrays_changed_in_place_between_calls(self):
        P, pi = random_chain(np.random.default_rng(6), 4)
        h = np.array([1.0, -0.5, 2.0, 0.25])
        assert_matches_frozen(verify_variance_bound(P, pi, h, 12, 4), P, pi, h, 12, 4)
        h[0] += 1.0
        assert_matches_frozen(verify_variance_bound(P, pi, h, 12, 4), P, pi, h, 12, 4)
        P[:] = P[::-1]
        pi[:] = mixing.stationary_distribution(P)
        assert_matches_frozen(verify_variance_bound(P, pi, h, 20, 4), P, pi, h, 20, 4)

    def test_beta_built_once_per_call(self, monkeypatch):
        """A criterion-4-shaped grid call builds the beta array once, not
        once per r, and the Orlicz norm once per r."""
        counts = {"beta": 0, "norm": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(mixing, "exact_beta_markov",
                            counting("beta", mixing.exact_beta_markov))
        monkeypatch.setattr(empirical, "orlicz_norm_finite",
                            counting("norm", empirical.orlicz_norm_finite))
        P, pi = random_chain(np.random.default_rng(7), 5)
        for h in np.random.default_rng(8).normal(size=(2, 5)):
            verify_variance_bound(P, pi, h, range(1, 51), (3, 4, 8))
        assert counts == {"beta": 2, "norm": 6}


class TestOrliczNormBisection:
    """Probes far from the closed-form root are answered by comparison;
    the bisection must still land on the frozen copy's value bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # (h/t)^r overflows
    @pytest.mark.parametrize("m", [1, 2, 5, 40, 300])
    def test_matches_frozen(self, m):
        rng = np.random.default_rng(m)
        for _ in range(40):
            values = rng.normal(size=m) * 10.0 ** rng.uniform(-8, 8)
            weights = rng.dirichlet(np.ones(m))
            if m > 1:
                weights[rng.integers(m)] = 0.0
            # the live function drops a weight-0 atom at entry; the frozen
            # copy would let it set the bracket
            kept = weights != 0
            for r in (2.0001, 2.5, 3, 4, 8, 17.3, 100, 1e4, math.inf):
                assert orlicz_norm_finite(values, weights, r) == \
                    frozen_orlicz_norm_finite(values[kept], weights[kept], r), (m, r)

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_atom_ignored(self):
        """A weight-0 atom used to set the bracket, and at large r turned
        (v/t)^r into 0 * inf = nan: ([1, 2], [1, 0]) at r = 1e4 read
        1.8629642636560837, with overflow warnings, for a gauge of 1."""
        assert orlicz_norm_finite([1.0, 2.0], [1.0, 0.0], 1e4) == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # (h/t)^r overflows
    def test_zero_weight_atoms_dropped_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for m in (2, 3, 8, 50):
            for _ in range(20):
                values = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
                weights = rng.dirichlet(np.ones(m))
                weights[rng.random(m) < 0.4] = 0.0
                if rng.random() < 0.3:
                    weights[rng.integers(m)] *= -0.5
                kept = weights != 0
                for r in (2.5, 4, 17.3, math.inf):
                    assert orlicz_norm_finite(values, weights, r) == \
                        orlicz_norm_finite(values[kept], weights[kept], r), (m, r)

    def test_signed_weights_bisect_on_the_sum(self):
        """With a negative weight the sum cancels (here ~1e9 against a
        result of ~r), so the closed-form root is off by far more than the
        band and every probe must sum."""
        for values, weights in (([1.0, 2.0], [-0.1, 1.1]),
                                ([1.0, 1.0 + 1e-9], [-1e9, 1e9 + 1.0])):
            for r in (3, 4, 8):
                assert orlicz_norm_finite(values, weights, r) == \
                    frozen_orlicz_norm_finite(values, weights, r)

    @pytest.mark.filterwarnings("error")
    def test_signed_weights_without_positive_sum_give_zero(self):
        """With sum w |v|^r <= 0, E (h/t)^r <= 1 holds at every t, so the
        gauge is its infimum 0 (the bisection used to end where (v/t)^r
        overflowed, at ~1.8e-103 for the first case, with warnings).  A
        zero weight on the largest |v| does not enter the sign."""
        for values, weights, r in (([1.0, 2.0], [0.5, -0.5], 3),
                                   ([1.0, 2.0], [0.5, -0.5], math.inf),
                                   ([1.0, 1.0], [0.5, -0.5], 4),
                                   ([5.0, 2.0, 1.0], [0.0, -0.5, 0.7], 3),
                                   ([-3.0, 1.0], [-1.0, 2.0], 8)):
            assert orlicz_norm_finite(values, weights, r) == 0.0

    def test_r_checked_at_entry(self):
        # with r = NaN every probe is False, so the bracket search never ends
        for r in (2.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="r must exceed 2"):
                orlicz_norm_finite([1.0, 2.0], [0.5, 0.5], r)


NONFINITE_CALLS = {
    "nan_in_h": "verify_variance_bound(P, pi, [0.0, nan], 3, 4)",
    "inf_in_h": "verify_variance_bound(P, pi, [0.0, -inf], 3, 4)",
    "nan_in_values": "orlicz_norm_finite([1.0, nan], [0.5, 0.5], 4)",
    "nan_in_weights": "orlicz_norm_finite([1.0, 2.0], [nan, 0.5], 4)",
}


@pytest.mark.parametrize("call", NONFINITE_CALLS.values(), ids=NONFINITE_CALLS)
def test_nonfinite_input_rejected(call):
    """A NaN or an inf makes every Orlicz probe False, so the bracket search
    would never end: each call runs in its own interpreter under a timeout
    and must raise ValueError at entry."""
    code = ("from math import inf, nan\n"
            "import numpy as np\n"
            "from mixrate.empirical import orlicz_norm_finite, verify_variance_bound\n"
            "P, pi = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([2.0, 1.0]) / 3.0\n"
            f"try:\n    {call}\n"
            "except ValueError as exc:\n    print('ValueError:', exc)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(empirical.__file__)))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=20)
    assert res.stdout.startswith("ValueError:"), (res.stdout, res.stderr)


def test_h_of_another_shape_rejected():
    P, pi = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([2.0, 1.0]) / 3.0
    for h in ([1.0, 2.0, 3.0], [[1.0], [2.0]], 1.0):
        with pytest.raises(ValueError, match="one finite number per state"):
            verify_variance_bound(P, pi, h, 3, 4)


def frozen_covariance_lhs(transition, stationary, h, q_max):
    """verify_variance_bound's lhs for q = 1..q_max as computed when P^k was
    appended to a list and the list stacked every 4096 entries."""
    hc = h - float(np.dot(stationary, h))
    cov = [float(np.dot(stationary, hc * hc))]
    pk, powers = np.eye(len(h)), []
    for k in range(1, q_max):
        pk = pk @ transition
        powers.append(pk)
        if len(powers) * pk.size >= 4096 or k == q_max - 1:
            cov += (stationary @ (hc * (np.array(powers) @ hc))[..., None]).ravel().tolist()
            powers = []
    lhs = []
    for q in range(1, q_max + 1):
        total = q * cov[0]
        for k in range(1, q):
            total += 2 * (q - k) * cov[k]
        lhs.append(total)
    return lhs


@pytest.mark.parametrize("m", [2, 5, 17, 70])
def test_covariance_chain_matches_frozen_list_of_powers(m):
    """Up to q = 200 the powers cross the 4096-entry chunk (every 164 powers
    at m = 5, 15 at m = 17, each one at m = 70)."""
    P, pi = random_chain(np.random.default_rng(m), m)
    h = np.random.default_rng(m + 1).normal(size=m)
    ref = frozen_covariance_lhs(P, pi, h, 200)
    grid = verify_variance_bound(P, pi, h, range(1, 201), 3)
    assert [row[0].lhs for row in grid] == ref
    for q in (1, 2, 15, 16, 164, 165, 200):
        assert verify_variance_bound(P, pi, h, q, 3).lhs == ref[q - 1]


def frozen_stack_pava(y):
    """The hand-written stack pool-adjacent-violators that scipy's
    isotonic_regression replaced."""
    levels, weights, sizes = [], [], []
    for yi in np.asarray(y, dtype=float):
        levels.append(yi)
        weights.append(1.0)
        sizes.append(1)
        while len(levels) > 1 and levels[-2] > levels[-1]:
            w = weights[-2] + weights[-1]
            lv = (levels[-2] * weights[-2] + levels[-1] * weights[-1]) / w
            levels[-2:] = [lv]
            weights[-2:] = [w]
            sizes[-2:] = [sizes[-2] + sizes[-1]]
    return np.repeat(levels, sizes)


class TestPavaIsotonic:
    def test_matches_frozen_stack_pava(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            y = rng.normal(size=n) + rng.uniform(-0.05, 0.05) * np.arange(n)
            if rng.random() < 0.3:
                y = np.round(y, 1)  # ties
            out = isotonic_regression(y).x
            assert out.shape == (n,)
            np.testing.assert_allclose(out, frozen_stack_pava(y),
                                       rtol=1e-12, atol=1e-12)

    def test_already_monotone_unchanged(self):
        y = np.array([0.0, 0.5, 0.5, 2.0])
        out = isotonic_regression(y).x
        assert np.allclose(out, y)

    def test_two_point_pooling(self):
        out = isotonic_regression(np.array([1.0, 0.0])).x
        assert np.allclose(out, [0.5, 0.5])

    def test_optimality_against_random_candidates(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=30)
        fit = isotonic_regression(y).x
        fit_sse = np.sum((y - fit) ** 2)
        for _ in range(1000):
            cand = np.cumsum(rng.random(30)) * rng.random() + rng.normal()
            assert fit_sse <= np.sum((y - cand) ** 2) + 1e-12

    def test_output_monotone(self):
        rng = np.random.default_rng(5)
        out = isotonic_regression(rng.normal(size=100)).x
        assert np.all(np.diff(out) >= -1e-12)


class TestErmRiskCurve:
    N_GRID = [2**k for k in range(8, 15, 2)]

    def test_zero_noise_interpolates(self):
        cfg = {"generator": "markov",
               "params": {"transition": [[1.0]], "state_values": [0.0]}}
        fit = erm_risk_curve(cfg, lambda x: x, [16, 32, 64, 128], 30)
        assert np.all(fit.estimates <= 1e-20)

    def test_repeated_seed_rejected_before_any_draw(self, monkeypatch):
        """Replica rep at size index idx draws seed base_seed + 1000 idx + rep,
        so 1,001 replications over two sizes repeat a seed."""
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(empirical, "generate", no_draw)
        empirical._check_seed_rule(1000 * np.arange(2), 1000)
        with pytest.raises(ValueError, match="repeat a seed"):
            erm_risk_curve(IID_CFG, lambda x: x, [16, 32], 1001)

    def test_iid_design_classical_rate(self):
        fit = erm_risk_curve(IID_CFG, lambda x: x, self.N_GRID, 50, base_seed=7)
        assert fit.slope == pytest.approx(-2.0 / 3.0, abs=0.1)

    def test_long_range_noise_is_slower(self):
        iid = erm_risk_curve(IID_CFG, lambda x: x, self.N_GRID, 50, base_seed=7)
        ren = erm_risk_curve({"generator": "renewal",
                              "params": {"tail_exponent": 0.5, "l_max": 10**4}},
                             lambda x: x, self.N_GRID, 50, base_seed=7)
        assert ren.slope >= iid.slope + 0.05


@pytest.mark.parametrize("call", [
    lambda: mc_sup_expectation(IID_CFG, "ks", [16, 32], 30, -1, ORACLE),
    lambda: erm_risk_curve(IID_CFG, lambda x: x, [16], 40),
    lambda: erm_risk_curve(IID_CFG, lambda x: x, [16, 32, 64, 128], 0),
    lambda: erm_risk_curve(IID_CFG, lambda x: x, [16, 32, 64, 128], 30, base_seed=-1),
    lambda: ot.compare_estimators(IID_CFG, 4, 3.0, [16, 24, 32, 48], replications=0),
    lambda: ot.compare_estimators(IID_CFG, 4, 3.0, [16, 24, 32, 48], base_seed=-1)],
    ids=["mc_negative_seed", "erm_one_size", "erm_no_replications", "erm_negative_seed",
         "ot_no_replications", "ot_negative_seed"])
def test_replica_inputs_rejected_before_any_draw(monkeypatch, call):
    """Too few sizes, no replication, or a negative base seed (numpy takes
    no negative seed) is a ValueError at the entry point, not a failure at
    or after a draw."""
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(empirical, "generate", no_draw)
    monkeypatch.setattr(ot, "generate", no_draw)
    with pytest.raises(ValueError):
        call()
