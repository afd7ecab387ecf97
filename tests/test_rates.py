import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixrate import mixing, rates
from mixrate.classes import EntropyModel, entropy_eval
from mixrate.empirical import slope_fit
from mixrate.mixing import (MixingFlavor, MixingProfile, ProfileKind,
                            gen_ar1, stationary_distribution)
from mixrate.rates import (BoundaryParameterError, RateBound, Regime,
                           ScaleError, application_exponents, boundary_curve,
                           c_phi, finite_class_bound, lambda_phi_beta,
                           main_bound, ot_schedule, phase_diagram, pi_n,
                           rate_exponent, solve_delta_n, tau_q)

IID = MixingProfile.iid()


def poly(exponent, scale=1.0):
    return MixingProfile(kind=ProfileKind.POLYNOMIAL, flavor=MixingFlavor.BETA,
                         scale=scale, exponent=exponent)


class TestCPhi:
    def test_r_four_closed_form(self):
        # sup(x - x^2) = 1/4 at x = 1/2
        assert c_phi(4) == pytest.approx(math.sqrt(1.25), abs=1e-12)

    def test_monotone_limit_sqrt_two(self):
        vals = [c_phi(r) for r in (3, 4, 8, 16, 64, 1024)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.sqrt(2)
        assert c_phi(1e9) == pytest.approx(math.sqrt(2), abs=1e-4)
        assert c_phi(math.inf) == math.sqrt(2)

    def test_linear_phi_excluded(self):
        with pytest.raises(ValueError):
            c_phi(2)
        with pytest.raises(ValueError):
            c_phi(1.5)
        with pytest.raises(ValueError):
            c_phi(math.nan)


P3 = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])


class TestLambdaPhiBeta:
    def test_iid_single_surviving_term(self):
        for q in (0, 1, 10):
            assert lambda_phi_beta(IID, q, 4) == pytest.approx(2.0)

    def test_two_term_closed_form(self):
        prof = poly(2.0)  # beta_i = (1+i)^{-2}
        assert lambda_phi_beta(prof, 1, 4) == pytest.approx(2 * (1 + 0.5))

    @pytest.mark.parametrize("profile", [
        MixingProfile(kind=ProfileKind.EXACT_MARKOV, flavor=MixingFlavor.BETA,
                      transition=P3, stationary=stationary_distribution(P3)),
        MixingProfile(kind=ProfileKind.POLYNOMIAL, flavor=MixingFlavor.BETA,
                      scale=0.8, exponent=1.3),
        MixingProfile(kind=ProfileKind.EXPONENTIAL, flavor=MixingFlavor.BETA,
                      scale=0.9, rate=0.4),
        MixingProfile(kind=ProfileKind.TABULATED, flavor=MixingFlavor.BETA,
                      values=np.array([1.0, 0.5, 0.25, 0.1])),
    ], ids=["exact_markov", "polynomial", "exponential", "tabulated"])
    def test_grid_matches_scalar_bitwise(self, profile):
        gaps = [9, 0, 3, 3, 17, 1, 0, 6]
        for r in (2.5, 4, 8.0):
            # the single-gap formula from before grids, one gap at a time
            p = 1.0 - 2.0 / r
            frozen = [float(np.sum(profile.coefficient(np.arange(g + 1)) ** p) / p)
                      for g in gaps]
            grid = lambda_phi_beta(profile, gaps, r)
            assert isinstance(grid, np.ndarray) and grid.tolist() == frozen
            assert [lambda_phi_beta(profile, g, r) for g in gaps] == frozen
        assert lambda_phi_beta(profile, [], 4).shape == (0,)
        for q in ([2, -1], math.nan, [2, math.nan], 2.5, [2.5, 3]):
            with pytest.raises(ValueError, match="gap q must be an integer >= 0"):
                lambda_phi_beta(profile, q, 4)
        # an r grid adds a trailing axis: column j is the call at r_j
        table = lambda_phi_beta(profile, gaps, [2.5, 4, 8.0])
        assert table.shape == (len(gaps), 3)
        for j, r in enumerate((2.5, 4, 8.0)):
            assert table[:, j].tolist() == lambda_phi_beta(profile, gaps, r).tolist()
        assert lambda_phi_beta(profile, 6, [4, 8.0]).tolist() == table[-1, 1:].tolist()
        assert lambda_phi_beta(profile, [], [4, 8.0]).shape == (0, 2)
        with pytest.raises(ValueError):
            lambda_phi_beta(profile, [2], [4, 2])
        for r in (math.nan, [4, math.nan]):
            with pytest.raises(ValueError):
                lambda_phi_beta(profile, 3, r)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 3.0), st.integers(0, 30), st.floats(2.5, 16.0))
    def test_monotone_in_q(self, expo, q, r):
        prof = poly(expo)
        assert lambda_phi_beta(prof, q + 1, r) >= lambda_phi_beta(prof, q, r)


def frozen_dyadic_sum(entropy, delta):
    """The scalar dyadic entropy sum, one term added at a time."""
    total = 1.0
    k = 0
    while entropy.sigma * 2.0 ** (-k) >= delta:
        total += entropy_eval(entropy, entropy.sigma * 2.0 ** (-k))
        k += 1
    return total


def frozen_tau_q(profile, entropy, delta, n, method):
    """tau_q before its one array search: a linear scan (``"scan"``) or a
    galloping bisection (``"bisect"``) over scalar coefficients."""
    slope = frozen_dyadic_sum(entropy, delta) / n

    def crossed(q):
        return profile.coefficient(q) <= q * slope

    if method == "scan":
        for q in range(n + 1):
            if crossed(q):
                return q
        raise ValueError("no admissible q in [0, n]")
    lo, hi = 0, 1
    while not crossed(hi):
        if hi == n:
            raise ValueError("no admissible q in [0, n]")
        lo, hi = hi, min(2 * hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi if not crossed(lo) else lo


class TestEntropyDyadicSum:
    @pytest.mark.parametrize("ent", [
        EntropyModel(alpha=4.0, sigma=1.0, b=1.0),
        EntropyModel(alpha=0.5, V=1.0, B=10.0, sigma=0.3, b=1.0),
        EntropyModel(alpha=0.0, sigma=0.7, b=1.0),
    ], ids=["alpha4", "log_factor", "alpha0"])
    def test_array_matches_scalar_loop(self, ent):
        deltas = np.concatenate((np.geomspace(ent.sigma * 1e-12, ent.sigma, 500),
                                 ent.sigma * 2.0 ** -np.arange(40.0)))
        frozen = [frozen_dyadic_sum(ent, float(d)) for d in deltas]
        assert rates._entropy_dyadic_sum(ent, deltas).tolist() == frozen
        assert [rates._entropy_dyadic_sum(ent, float(d))
                for d in deltas[::37]] == frozen[::37]


class TestTauQ:
    ENT = EntropyModel(alpha=4.0, sigma=1.0, b=1.0)

    def test_iid_is_one(self):
        for delta in (0.01, 0.1, 0.5, 1.0):
            assert tau_q(IID, self.ENT, delta, 1000) == 1

    def test_monotone_in_delta(self):
        prof = poly(0.5)
        deltas = np.geomspace(0.01, 1.0, 12)
        vals = [tau_q(prof, self.ENT, d, 10**4) for d in deltas]
        assert all(b <= a for a, b in zip(vals, vals[1:])) or \
            all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals == sorted(vals)  # non-decreasing in delta

    def test_scan_matches_bisect_on_pinned_config(self):
        prof = poly(0.5)
        n = 10**4
        scan = frozen_tau_q(prof, self.ENT, 0.5, n, "scan")
        assert frozen_tau_q(prof, self.ENT, 0.5, n, "bisect") == scan
        assert tau_q(prof, self.ENT, 0.5, n) == scan

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_scan_matches_bisect_random(self, seed):
        rng = np.random.default_rng(seed)
        prof = poly(float(rng.uniform(0.2, 3.0)))
        ent = EntropyModel(alpha=float(rng.uniform(0.0, 5.0)),
                           V=float(rng.integers(0, 2)), B=10.0,
                           sigma=float(rng.uniform(0.2, 1.0)), b=1.0)
        delta = float(rng.uniform(0.01, 1.0)) * ent.sigma
        n = int(rng.integers(10, 5000))
        scan = frozen_tau_q(prof, ent, delta, n, "scan")
        assert frozen_tau_q(prof, ent, delta, n, "bisect") == scan
        assert tau_q(prof, ent, delta, n) == scan

    @pytest.mark.parametrize("n", [1, 2, 50, 5000, 20_000, 100_000])
    def test_galloping_bisect_matches_scan_exact_markov(self, n):
        rng = np.random.default_rng(n)
        chains = [np.array([[0.9, 0.1], [0.1, 0.9]]),
                  np.array([[0.99, 0.01], [0.02, 0.98]])]
        for _ in range(3):
            P = rng.random((5, 5)) + 0.05
            chains.append(P / P.sum(axis=1, keepdims=True))
        for P in chains:
            prof = MixingProfile(kind=ProfileKind.EXACT_MARKOV, transition=P,
                                 stationary=stationary_distribution(P))
            for delta in (1e-9, 1e-3, 0.1, 1.0):
                scan = frozen_tau_q(prof, self.ENT, delta, n, "scan")
                assert frozen_tau_q(prof, self.ENT, delta, n, "bisect") == scan
                assert tau_q(prof, self.ENT, delta, n) == scan

    @pytest.mark.parametrize("n", [3, 1000, 20_000, 100_000])
    def test_galloping_bisect_matches_scan_polynomial(self, n):
        for expo in (0.2, 0.5, 1.0, 3.0):
            for delta in (0.01, 0.3, 1.0):
                scan = frozen_tau_q(poly(expo), self.ENT, delta, n, "scan")
                assert frozen_tau_q(poly(expo), self.ENT, delta, n,
                                    "bisect") == scan
                assert tau_q(poly(expo), self.ENT, delta, n) == scan

    @pytest.mark.parametrize("n", [1, 64, 20_000])
    def test_no_crossing_rejected(self, n):
        class NeverMixes:  # a corrupt profile: beta_q <= x never holds
            flavor = MixingFlavor.BETA

            def coefficient(self, q):
                return np.full(np.shape(q), math.nan)

        with pytest.raises(ValueError, match="no admissible q"):
            tau_q(NeverMixes(), self.ENT, 0.5, n)
        with pytest.raises(ValueError, match="no admissible q"):
            main_bound(self.ENT, NeverMixes(), n, 4.0)

    def test_first_crossing_of_non_monotone_profile(self):
        class Dips:  # beta = 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, ...: not monotone
            flavor = MixingFlavor.BETA

            def coefficient(self, q):
                beta = np.where(np.isin(q, (3, 8)), 0.0, 1.0)
                return float(beta) if np.ndim(q) == 0 else beta

        ent, n = EntropyModel(alpha=0.0, sigma=1.0, b=1.0), 10**6
        assert tau_q(Dips(), ent, 1.0, n) == 3
        assert frozen_tau_q(Dips(), ent, 1.0, n, "scan") == 3
        assert frozen_tau_q(Dips(), ent, 1.0, n, "bisect") == 8

    def test_each_gap_computed_once(self, monkeypatch):
        """The doubling search extends its beta array, so no gap reaches the
        oracle twice."""
        seen = []
        oracle = mixing.exact_beta_markov

        def counting(profile, q):
            seen.extend(np.atleast_1d(q).tolist())
            return oracle(profile, q)

        monkeypatch.setattr(mixing, "exact_beta_markov", counting)
        P = np.array([[0.99, 0.01], [0.02, 0.98]])
        prof = MixingProfile(kind=ProfileKind.EXACT_MARKOV, transition=P,
                             stationary=stationary_distribution(P))
        tau = tau_q(prof, self.ENT, 0.5, 10**5)
        assert tau > 64
        assert sorted(seen) == list(range(max(seen) + 1))
        assert max(seen) < 2 * tau

    def test_lambda_of_tau_non_decreasing_in_delta(self):
        prof = poly(0.7)
        deltas = np.geomspace(0.01, 1.0, 20)
        vals = [lambda_phi_beta(prof, tau_q(prof, self.ENT, d, 2000), 4)
                for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_beta_flavor_rejected(self):
        gamma_profile = gen_ar1(0.5, 10, seed=0).mixing_oracle
        assert gamma_profile.flavor == MixingFlavor.GAMMA
        for call in (lambda: tau_q(gamma_profile, self.ENT, 0.5, 100),
                     lambda: lambda_phi_beta(gamma_profile, 5, 4.0),
                     lambda: finite_class_bound(1.0, 1.0, 4, 100,
                                                gamma_profile, 4.0),
                     lambda: main_bound(self.ENT, gamma_profile, 100, 4.0)):
            with pytest.raises(ValueError, match="beta-mixing"):
                call()

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            tau_q(IID, self.ENT, 0.0, 100)
        with pytest.raises(ValueError):
            tau_q(IID, self.ENT, 2.0, 100)


class TestSampleSizeChecked:
    """n is checked at entry: an integer >= 1, numpy integers too, bools not."""

    CALLS = {
        "tau_q": lambda n: tau_q(poly(3.0), EntropyModel(alpha=1.0), 0.5, n),
        "main_bound": lambda n: main_bound(EntropyModel(alpha=1.0), poly(3.0), n, 4.0),
        "finite_class_bound": lambda n: finite_class_bound(1.0, 1.0, 100, n, poly(3.0), 4.0),
    }

    # a bool is an int to isinstance, and a float n must not reach the q grid
    @pytest.mark.parametrize("n", [True, 2.5, 1e4, 1e5])
    @pytest.mark.parametrize("fn", list(CALLS))
    def test_non_integer_n_rejected(self, fn, n):
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            self.CALLS[fn](n)

    @pytest.mark.parametrize("fn", list(CALLS))
    def test_numpy_integer_n_accepted(self, fn):
        assert self.CALLS[fn](np.int64(1000)) == self.CALLS[fn](1000)


class TestFiniteClassBound:
    def test_singleton_iid_explicit_minimum(self):
        # |F|=1: min over q of sqrt(c^2 + 4) + q/10, attained at q = 1
        val = finite_class_bound(1.0, 1.0, 1, 100, IID, 4)
        assert val == pytest.approx(math.sqrt(c_phi(4) ** 2 + 4.0) + 0.1)

    def test_non_decreasing_in_cardinality(self):
        prof = poly(1.0)
        vals = [finite_class_bound(1.0, 1.0, m, 200, prof, 4)
                for m in (1, 2, 8, 64)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_non_decreasing_as_mixing_slows(self):
        fast, slow = poly(3.0), poly(0.5)
        assert finite_class_bound(1.0, 1.0, 10, 500, slow, 4) >= \
            finite_class_bound(1.0, 1.0, 10, 500, fast, 4)

    @pytest.mark.filterwarnings("error")
    def test_inputs_checked_at_entry(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            finite_class_bound(1.0, 1.0, 4, 0, IID, 4.0)
        for r in (2.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="r must exceed 2"):
                finite_class_bound(1.0, 1.0, 4, 100, IID, r)

    @pytest.mark.parametrize("sigma,b,cardinality", [
        (math.nan, 1.0, 4), (1.0, math.nan, 4), (1.0, 1.0, math.nan),
        (1.0, 1.0, 2.5), (1.0, 1.0, True), (0.0, 1.0, 4), (1.0, 1.0, 0),
    ], ids=["nan_sigma", "nan_b", "nan_cardinality", "fractional_cardinality",
            "bool_cardinality", "zero_sigma", "zero_cardinality"])
    def test_nan_or_non_integer_argument_rejected(self, sigma, b, cardinality):
        with pytest.raises(ValueError, match="sigma and b|cardinality"):
            finite_class_bound(sigma, b, cardinality, 100, IID, 4.0)


class _MemoCoefficients:
    """A profile whose scalar coefficients are computed once per gap, so the
    per-node searches below cost dictionary lookups after the first."""

    def __init__(self, profile):
        self.profile, self.flavor, self.memo = profile, profile.flavor, {}

    def coefficient(self, q):
        if np.ndim(q):  # a grid, as lambda_phi_beta reads it
            return self.profile.coefficient(q)
        if q not in self.memo:
            self.memo[q] = self.profile.coefficient(q)
        return self.memo[q]


def frozen_main_bound(entropy, profile, n, r):
    """main_bound with one tau_q search per grid node and one more at sigma,
    and its own bisection loop for the budget a: the algorithm main_bound
    used before it shared one beta array across the grid.  Every node
    gallops (the scan agrees, see TestTauQ)."""
    profile = _MemoCoefficients(profile)
    sigma, b = entropy.sigma, entropy.b
    sqrt_n = math.sqrt(n)
    a_hi = 8.0 * sqrt_n * sigma
    u_floor = sigma * 1e-9 / sqrt_n
    n_pts = max(2, int(64 * math.log10(sigma / u_floor)) + 1)
    grid = np.geomspace(u_floor, sigma, n_pts)
    taus = [frozen_tau_q(profile, entropy, d, n, "bisect") for d in grid]
    lam = {t: lambda_phi_beta(profile, t, r) for t in set(taus)}
    psi = np.maximum.accumulate(np.array([lam[t] for t in taus]))
    h = np.array([entropy_eval(entropy, u) for u in grid])
    r1 = psi * (1.0 + h)
    w = np.sqrt(np.maximum.accumulate(r1[::-1])[::-1]) * grid
    log_u = np.log(grid)
    seg = 0.5 * (w[1:] + w[:-1]) * np.diff(log_u)
    cum_from_right = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))

    def g(a):
        lo = max(a / (64.0 * sqrt_n), u_floor)
        if lo >= sigma:
            return 0.0 - a
        i = int(np.searchsorted(grid, lo, side="right"))
        wi = np.interp(math.log(lo), log_u, w)
        part = 0.5 * (wi + w[i]) * (log_u[i] - math.log(lo))
        return part + cum_from_right[i] - a

    if g(a_hi) > 0:
        raise ScaleError("no admissible chaining budget")
    a_lo = a_hi * 1e-14
    if g(a_lo) <= 0:
        a = a_lo
    else:
        for _ in range(100):
            mid = math.sqrt(a_lo * a_hi)
            if g(mid) <= 0:
                a_hi = mid
            else:
                a_lo = mid
            if a_hi / a_lo < 1.0 + 1e-9:
                break
        a = a_hi
    tq = frozen_tau_q(profile, entropy, sigma, n, "bisect")
    lam_sigma = lambda_phi_beta(profile, tq, r)
    tail = b * tq * (1.0 + entropy_eval(entropy, sigma)) / sqrt_n
    return RateBound(a=a, tail_term=tail, total=a + tail, tau_at_sigma=tq,
                     lambda_at_sigma=lam_sigma, integral_residual=g(a))


def _bound_profiles():
    profiles = {"iid": IID}
    profiles.update((f"poly_{e}", poly(e)) for e in (0.2, 0.5, 1.0, 3.0))
    rng = np.random.default_rng(2024)
    chains = [np.array([[0.9, 0.1], [0.1, 0.9]]),
              np.array([[0.99, 0.01], [0.02, 0.98]]),
              np.array([[0.5, 0.5], [0.5, 0.5]])]
    for m in (3, 5, 5, 8):
        P = rng.random((m, m)) + 0.05
        chains.append(P / P.sum(axis=1, keepdims=True))
    for i, P in enumerate(chains):
        profiles[f"markov_{i}"] = MixingProfile(
            kind=ProfileKind.EXACT_MARKOV, transition=P,
            stationary=stationary_distribution(P))
    return profiles


BOUND_PROFILES = _bound_profiles()


class TestMainBound:
    ENT = EntropyModel(alpha=4.0, sigma=1.0, b=1.0)

    @pytest.mark.parametrize("name", list(BOUND_PROFILES))
    def test_matches_per_node_search(self, name):
        prof = BOUND_PROFILES[name]
        for n in (64, 4096, 100_000):
            for r in (3.0, 4.0):
                for alpha in (0.5, 4.0):
                    ent = EntropyModel(alpha=alpha, sigma=1.0, b=1.0)
                    assert main_bound(ent, prof, n, r) == \
                        frozen_main_bound(ent, prof, n, r), (n, r, alpha)

    def test_iid_matches_classical_entropy_integral_shape(self):
        def classical(ent, n):
            sqrt_n = math.sqrt(n)

            def g(a):
                lo = min(a / sqrt_n, ent.sigma)
                xs = np.geomspace(max(lo, 1e-12), ent.sigma, 400)
                ys = np.sqrt(1 + np.array([entropy_eval(ent, x) for x in xs]))
                return np.trapezoid(ys, xs) - a

            lo_, hi_ = 1e-9, 8 * sqrt_n * ent.sigma
            for _ in range(80):
                mid = math.sqrt(lo_ * hi_)
                if g(mid) <= 0:
                    hi_ = mid
                else:
                    lo_ = mid
            return hi_ + ent.b * (1 + entropy_eval(ent, ent.sigma)) / sqrt_n

        for sigma in (0.3, 0.6, 1.0, 2.0):
            for k in (10, 12, 14, 16, 18):
                ent = EntropyModel(alpha=1.5, sigma=sigma, b=max(2.0, sigma),
                                   B=3 * math.e)
                ratio = main_bound(ent, IID, 2**k, 4.0).total / classical(ent, 2**k)
                assert 0.25 <= ratio <= 4.0

    def test_long_range_slope(self):
        prof = poly(0.5)
        pairs = [(2**k, main_bound(self.ENT, prof, 2**k, 4.0).total)
                 for k in range(10, 21, 2)]
        fit = slope_fit(pairs)
        assert fit.slope == pytest.approx(0.25, abs=0.03)

    def test_non_increasing_in_decay_exponent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e1 = float(rng.uniform(0.2, 1.5))
            e2 = e1 + float(rng.uniform(0.1, 2.0))
            ent = EntropyModel(alpha=float(rng.uniform(0.5, 5.0)),
                               sigma=float(rng.uniform(0.3, 1.0)), b=1.0)
            n = int(rng.choice([512, 2048, 8192]))
            slow = main_bound(ent, poly(e1), n, 4.0).total
            fast = main_bound(ent, poly(e2), n, 4.0).total
            assert fast <= slow * (1 + 1e-9)

    def test_iid_lower_bound_structure(self):
        for k in (8, 12, 16):
            rb = main_bound(self.ENT, IID, 2**k, 4.0)
            assert rb.total >= self.ENT.sigma * c_phi(4) / 4

    def test_n_checked_at_entry(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match="n must be >= 1"):
                main_bound(self.ENT, IID, n, 4.0)

    def test_r_checked_at_entry(self):
        for r in (2.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="r must exceed 2"):
                main_bound(self.ENT, IID, 64, r)

    def test_budget_within_admissible_range(self):
        rb = main_bound(self.ENT, poly(1.0), 4096, 4.0)
        assert 0 <= rb.a <= 8 * math.sqrt(4096) * self.ENT.sigma
        assert rb.total >= rb.a and rb.total >= rb.tail_term


class TestRateExponent:
    # golden table spanning all branches; exponents hand-verified against
    # the closed forms
    GOLDEN = [
        # (alpha, beta, r, regime, exponent)
        (3, 2, math.inf, Regime.IID_LIKE, Fraction(1, 6)),
        (1, 0.5, math.inf, Regime.DEPENDENCE_DOMINATED, Fraction(1, 6)),
        (4, 0.5, math.inf, Regime.IID_LIKE, Fraction(1, 4)),
        (1, 2, math.inf, Regime.DONSKER_BOUNDED, Fraction(0)),
        (1.5, 3, math.inf, Regime.DONSKER_BOUNDED, Fraction(0)),
        (3, 1.5, math.inf, Regime.IID_LIKE, Fraction(1, 6)),
        (0.5, 0.25, math.inf, Regime.DEPENDENCE_DOMINATED, Fraction(3, 10)),
        (8, 0.25, math.inf, Regime.IID_LIKE, Fraction(3, 8)),
        (1, 3, 4, Regime.DONSKER_BOUNDED, Fraction(0)),
        (4, 3, 4, Regime.IID_LIKE, Fraction(1, 4)),
        (1, 0.5, 4, Regime.DEPENDENCE_DOMINATED, Fraction(1, 4)),
        (6, 0.5, 4, Regime.IID_LIKE, Fraction(1, 3)),
    ]

    BOUNDARY = [
        (2, 1.5, math.inf),   # alpha = 2
        (3, 0.5, math.inf),   # alpha = (1+beta)/beta
        (2, 3, 4),            # alpha = 2, short-range finite r
        (4, 0.5, 4),          # alpha on the finite-r curve
        (2, 2, 4),            # beta = r/(r-2) and alpha = 2
    ]

    @pytest.mark.parametrize("alpha,beta,r,regime,exponent", GOLDEN)
    def test_golden_table(self, alpha, beta, r, regime, exponent):
        rep = rate_exponent(alpha, beta, r)
        assert rep.regime == regime
        assert rep.exponent == exponent

    @pytest.mark.parametrize("alpha,beta,r", BOUNDARY)
    def test_boundary_flagged(self, alpha, beta, r):
        rep = rate_exponent(alpha, beta, r)
        assert rep.regime == Regime.BOUNDARY
        assert rep.exponent is None

    def test_continuity_across_curve_sup_norm(self):
        for beta in [Fraction(p, q) for p, q in
                     [(1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (9, 10)]]:
            curve_alpha = (1 + beta) / beta
            lhs = (1 - beta) / (2 * (1 + beta))
            rhs = Fraction(1, 2) - 1 / curve_alpha
            assert lhs == rhs

    def test_continuity_across_curve_finite_r(self):
        r = Fraction(4)
        for beta in [Fraction(p, q) for p, q in
                     [(1, 4), (1, 2), (3, 4), (3, 2)]]:
            curve_alpha = r * (1 + beta) / (beta * (r - 1))
            lhs = (1 - beta * (1 - 2 / r)) / (2 * (1 + beta))
            rhs = Fraction(1, 2) - 1 / curve_alpha
            assert lhs == rhs

    def test_tiny_decay_is_not_rounded_to_zero(self):
        # below 5e-7 the 10**6-denominator rounding would reach beta = 0
        for beta in (4e-7, 1e-9):
            rep = rate_exponent(1, beta)
            assert rep.regime == Regime.DEPENDENCE_DOMINATED
            assert float(rep.exponent) == pytest.approx(
                (1 - beta) / (2 * (1 + beta)), rel=0, abs=1e-15)

    def test_norm_index_near_two_is_not_rounded_to_two(self):
        # within 5e-7 of 2 the 10**6-denominator rounding would reach r = 2,
        # where the decay threshold r / (r - 2) divides by zero
        rep = rate_exponent(1.0, 0.5, 2.0000001)
        assert rep.regime == Regime.DEPENDENCE_DOMINATED
        assert float(rep.exponent) == pytest.approx(1 / 3, abs=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rate_exponent(-1, 1)
        with pytest.raises(ValueError):
            rate_exponent(1, 0)
        with pytest.raises(ValueError):
            rate_exponent(1, 1, 2)


class TestPiN:
    @pytest.mark.parametrize("gamma,sigma", [
        (math.nan, 0.5), (1.0, math.nan), (1.0, 0.0), (0.0, 0.5)],
        ids=["nan_gamma", "nan_sigma", "zero_sigma", "zero_gamma"])
    def test_nan_or_zero_argument_rejected(self, gamma, sigma):
        ent = EntropyModel(alpha=0.5, V=1.0, r=2.0)
        with pytest.raises(ValueError, match="gamma and sigma must be > 0"):
            pi_n(ent, gamma, sigma, 4096, enforce_scale=False)

    @pytest.mark.parametrize("alpha,V,r", [
        (0.5, 1.0, 2.0), (0.0, 0.0, 4.0), (2.5, 1.0, 2.0), (5.0, 1.5, 1.5)])
    def test_infinite_gamma_is_the_independent_limit(self, alpha, V, r):
        """gamma = inf means independent data, as in application_exponents:
        the bound is finite, within 1e-9 of gamma = 1e12, and equal to the
        gamma -> inf limit of its terms in closed form."""
        ent = EntropyModel(K=1.5, D=2.0, theta=0.8, alpha=alpha, V=V, r=r)
        sigma, n = 0.5, 4096
        limit = pi_n(ent, math.inf, sigma, n, enforce_scale=False)
        assert math.isfinite(limit)
        assert limit == pytest.approx(pi_n(ent, 1e12, sigma, n, enforce_scale=False),
                                      rel=1e-9)
        D, r_t = ent.K * ent.D, min(r, 2.0)
        log_s = math.log(ent.B / sigma)
        base = D * (ent.theta / sigma) ** alpha * log_s ** V
        vc = sigma ** (r_t / 2) * base ** 0.5
        if alpha < r_t:
            closed = vc + base / math.sqrt(n)
        else:
            lead = (n ** ((alpha - r_t) / (2 * (alpha + 2 - r_t)))
                    * (D * ent.theta ** alpha) ** (1 / (alpha + 2 - r_t))
                    * log_s ** (V / 2))
            closed = 2 * lead + base / math.sqrt(n) + vc
        assert limit == pytest.approx(closed, rel=1e-12)

    def test_entropy_constant_is_k_times_d(self):
        # pi_n reads the entropy constant K * D, as entropy_eval does
        for alpha, gamma in [(0.5, 2.0), (2.5, 1.0), (5.0, 1.0)]:  # the three cases
            split = EntropyModel(K=2.0, D=1.5, alpha=alpha, V=1.0, r=2.0)
            whole = EntropyModel(K=1.0, D=3.0, alpha=alpha, V=1.0, r=2.0)
            assert entropy_eval(split, 0.5) == entropy_eval(whole, 0.5)
            assert pi_n(split, gamma, 0.5, 4096, enforce_scale=False) \
                == pi_n(whole, gamma, 0.5, 4096, enforce_scale=False)

    def test_vc_case_closed_form(self):
        ent = EntropyModel(D=3.0, alpha=0.0, V=0.0, r=2.0, sigma=1.0, b=1.0)
        gamma, n = 2.0, 4096
        expected = (3.0 ** (gamma / (2 * (gamma + 1))) * n ** (1 / (2 * (1 + gamma)))
                    + n ** (0.5 - gamma / (1 + gamma)) * 3.0 ** (gamma / (1 + gamma)))
        assert pi_n(ent, gamma, 1.0, n) == pytest.approx(expected)

    def test_complex_case_dominant_exponent(self):
        ent = EntropyModel(alpha=6.0, V=0.0, r=2.0, sigma=1.0, b=1.0)
        pairs = [(2**k, pi_n(ent, 1.0, 1.0, 2**k, enforce_scale=False))
                 for k in (16, 20, 24, 28)]
        fit = slope_fit(pairs)
        assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_case_one_power_scaling(self):
        ent = EntropyModel(D=2.0, alpha=0.0, V=0.0, r=2.0, sigma=1.0, b=1.0)
        gamma = 1.0
        # subtract the closed-form second term to isolate the first
        def first_term(n):
            second = n ** (0.5 - gamma / (1 + gamma)) * 2.0 ** (gamma / (1 + gamma))
            return pi_n(ent, gamma, 1.0, n) - second
        assert first_term(2048) / first_term(1024) == pytest.approx(
            2 ** (1 / (2 * (1 + gamma))))

    def test_case_boundaries_rejected(self):
        ent = EntropyModel(alpha=2.0, r=2.0, sigma=1.0, b=1.0)
        with pytest.raises(BoundaryParameterError):
            pi_n(ent, 1.0, 1.0, 1000)
        ent4 = EntropyModel(alpha=4.0, r=2.0, sigma=1.0, b=1.0)
        with pytest.raises(BoundaryParameterError):
            pi_n(ent4, 1.0, 1.0, 1000)  # alpha = r_t (1 + 1/gamma)

    def test_scale_floor_enforced(self):
        ent = EntropyModel(alpha=6.0, theta=0.001, V=0.0, r=2.0,
                           sigma=0.001, b=1.0)
        with pytest.raises(ScaleError):
            pi_n(ent, 1.0, 0.001, 100)


class TestSolveDeltaN:
    def test_identity_crossing_returns_grid_infimum(self):
        n = 1024
        dn = solve_delta_n(lambda d: math.sqrt(n) * d * d, n, t=1.5)
        grid_min = 1.0 * 10.0 ** (-6.0)
        assert dn == pytest.approx(grid_min)

    def test_vc_fixed_point(self):
        gamma, D = 1.0, 3.0
        for k in (10, 14, 18):
            n = 2**k

            def fn(d, n=n):
                s = min(d, 1.0)
                ent = EntropyModel(D=D, alpha=0.0, V=0.0, B=10.0, r=2.0,
                                   sigma=s, b=1.0)
                return pi_n(ent, gamma, s, n, enforce_scale=False)

            dn = solve_delta_n(fn, n, t=1.5)
            assert 0.25 <= dn**2 / (D / n) ** (gamma / (gamma + 1)) <= 4.0

    def test_monotonicity_violation_detected(self):
        # ratio (0.1 + 31 d^2)/d^t rises again at large d, and the crossing
        # sits mid-grid, so the audit must fire
        with pytest.raises(ValueError, match="non-increasing"):
            solve_delta_n(lambda d: 0.1 + 31.0 * d * d, 1024, t=1.5)

    def test_no_crossing_detected(self):
        with pytest.raises(ValueError, match="no crossing"):
            solve_delta_n(lambda d: 10**9 * d**0.5, 4, t=1.0)


class TestPhaseDiagram:
    def test_sup_norm_curve_through_knee(self):
        assert boundary_curve(1.0, math.inf) == pytest.approx(2.0)
        assert boundary_curve(2.0, math.inf) == 2.0
        assert boundary_curve(0.5, math.inf) == pytest.approx(3.0)

    def test_finite_r_curve_join(self):
        r = 4.0
        beta_star = r / (r - 2.0)
        assert boundary_curve(beta_star, r) == pytest.approx(2.0)

    def test_curve_equals_float_formulas(self):
        """boundary_curve reads rate_exponent's regime table in floats, and
        equals the float formulas it replaced bit for bit."""
        def frozen(beta, r):
            if math.isinf(r):
                return (1.0 + beta) / beta if beta <= 1.0 else 2.0
            if beta <= r / (r - 2.0):
                return r * (1.0 + beta) / (beta * (r - 1.0))
            return 2.0

        for r in (math.inf, 2.5, 3, 4, 8, 17.3):
            knees = [1.0] if math.isinf(r) else [r / (r - 2.0)]
            for beta in np.geomspace(1e-3, 50.0, 2001).tolist() + knees:
                assert boundary_curve(beta, r) == frozen(beta, r), (beta, r)

    def test_cell_labels(self):
        diag = phase_diagram([0.5, 2.0], [1.0], math.inf)
        labels = {(b, a): rep for b, a, rep in diag.cells}
        assert labels[(0.5, 1.0)].regime == Regime.DEPENDENCE_DOMINATED
        assert labels[(2.0, 1.0)].regime == Regime.DONSKER_BOUNDED
        assert labels[(2.0, 1.0)].exponent == 0

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            phase_diagram([0.0, 1.0], [1.0])


class TestApplicationExponents:
    def test_dnn_iid_limit(self):
        assert application_exponents("dnn", s=2.0, d=4, gamma=math.inf) \
            == pytest.approx(2.0 / (4 + 4))

    def test_dnn_dependent(self):
        assert application_exponents("dnn", s=2.0, d=4, gamma=1.0) \
            == pytest.approx(2.0 / 12.0)

    def test_additive_iid_limit(self):
        assert application_exponents("additive", s=2.0, gamma=math.inf, d_as=0.0) \
            == pytest.approx(4.0 / 5.0)  # 2s/(2s+1)

    def test_additive_growing_dimension(self):
        assert application_exponents("additive", s=1.0, gamma=2.0, d_as=0.2) \
            == pytest.approx(1.4 / 4.0)

    def test_convex_worst(self):
        assert application_exponents("convex_worst", d=6, beta=0.6) \
            == pytest.approx(1.0 / 3.0)
        with pytest.raises(BoundaryParameterError):
            application_exponents("convex_worst", d=6, beta=0.5)
        with pytest.raises(ValueError):
            application_exponents("convex_worst", d=4, beta=3.0)

    def test_convex_adapt(self):
        assert application_exponents("convex_adapt", d=10, gamma=1.5) \
            == pytest.approx(0.4)
        with pytest.raises(ValueError):
            application_exponents("convex_adapt", d=8, gamma=2.0)

    def test_ot_both_regimes(self):
        assert application_exponents("ot", beta=0.5, d=4) \
            == pytest.approx(1.0 / 3.0)
        assert application_exponents("ot", beta=3.0, d=4) \
            == pytest.approx(0.5)
        with pytest.raises(BoundaryParameterError):
            application_exponents("ot", beta=1.0, d=4)

    def test_classification(self):
        assert application_exponents("classification", alpha=1.0,
                                     gamma=math.inf) == pytest.approx(0.5)
        assert application_exponents("classification", alpha=1.0,
                                     gamma=1.0) == pytest.approx(1.0 / 3.0)


    @pytest.mark.parametrize("app,params", [
        ("dnn", {"s": math.nan, "d": 4, "gamma": 1.0}),
        ("dnn", {"s": 2.0, "d": math.nan, "gamma": 1.0}),
        ("dnn", {"s": 2.0, "d": 4, "gamma": math.nan}),
        ("additive", {"s": math.nan, "gamma": 1.0, "d_as": 0.2}),
        ("additive", {"s": 1.0, "gamma": math.nan, "d_as": 0.2}),
        ("additive", {"s": 1.0, "gamma": 1.0, "d_as": math.nan}),
        ("convex_worst", {"d": 6, "beta": math.nan}),
        ("convex_worst", {"d": math.nan, "beta": 0.6}),
        ("convex_adapt", {"d": 10, "gamma": math.nan}),
        ("convex_adapt", {"d": math.nan, "gamma": 1.5}),
        ("ot", {"beta": 3.0, "d": math.nan}),
        ("ot", {"beta": math.nan, "d": 4}),
        ("classification", {"alpha": math.nan, "gamma": 1.0}),
        ("classification", {"alpha": 1.0, "gamma": math.nan}),
    ], ids=lambda x: x if isinstance(x, str)
        else next(k for k, v in x.items() if math.isnan(v)))
    def test_nan_parameter_rejected(self, app, params):
        with pytest.raises(ValueError, match="need|needs"):
            application_exponents(app, **params)


class TestOtSchedule:
    def test_fast_regime(self):
        assert ot_schedule(3.0, 4, 10**4) == (1000, pytest.approx(0.1))

    def test_slow_regime(self):
        # k = n^{3 beta/(2(beta+1))} = 4096^{1/2}, eps = 4096^{-1/6}
        k, eps = ot_schedule(0.5, 4, 4096)
        assert k == 64
        assert eps == pytest.approx(0.25)

    def test_power_law_in_n(self):
        for beta in (0.5, 3.0):
            _, e1 = ot_schedule(beta, 4, 2048)
            _, e2 = ot_schedule(beta, 4, 4096)
            expo = 1.0 / 4 if beta > 1.0 else beta / (2 * (beta + 1))
            assert e1 / e2 == pytest.approx(2 ** expo)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryParameterError):
            ot_schedule(1.0, 4, 100)

    @pytest.mark.parametrize("beta,d,n", [
        (math.nan, 4, 100), (3.0, math.nan, 100), (3.0, 4, math.nan)],
        ids=["nan_beta", "nan_d", "nan_n"])
    def test_nan_argument_rejected(self, beta, d, n):
        with pytest.raises(ValueError, match="need d >= 4, beta > 0, n >= 1"):
            ot_schedule(beta, d, n)
