import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixrate import mixing
from mixrate.empirical import slope_fit

P_LAZY = np.array([[0.9, 0.1], [0.1, 0.9]])
PI_LAZY = np.array([0.5, 0.5])


def markov_profile(P, pi):
    return mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                transition=P, stationary=pi)


def lag_autocorr(x, lag):
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


class TestGenFiniteMarkov:
    def test_identity_transition_is_constant(self):
        s = mixing.gen_finite_markov(np.eye(2), np.array([0.0, 1.0]), 5, seed=3)
        assert len(set(s.values)) == 1

    def test_equal_rows_is_iid(self):
        pi = np.array([0.2, 0.5, 0.3])
        P = np.tile(pi, (3, 1))
        s = mixing.gen_finite_markov(P, np.arange(3.0), 1000, seed=1)
        assert (mixing.exact_beta_markov(markov_profile(P, pi), 1)
                == pytest.approx(0.0, abs=1e-12))
        assert len(s.values) == 1000

    def test_lazy_chain_lag1_autocorrelation(self):
        # spectral gap: lag-1 correlation equals the second eigenvalue 0.8
        s = mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]), 10**5, seed=7)
        assert lag_autocorr(s.values, 1) == pytest.approx(0.8, abs=0.01)

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_finite_markov(np.array([[0.5, 0.6], [0.5, 0.5]]),
                                     np.array([0.0, 1.0]), 10, seed=0)

    def test_periodic_chain_rejected(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_finite_markov(P, np.array([0.0, 1.0]), 10, seed=0)

    @pytest.mark.parametrize("state_values", [[[0.2], [0.8]], [0.2, 0.5, 0.8], [0.2]],
                             ids=["column", "too_long", "too_short"])
    def test_state_values_one_number_per_state(self, state_values):
        # the generator and the CLI share one check of (transition, state_values)
        with pytest.raises(mixing.ConstructionError, match="one number per state"):
            mixing.gen_finite_markov(P_LAZY, state_values, 10, seed=0)


def loop_gen_finite_markov(transition, state_values, n, seed):
    # reference: one inverse-CDF searchsorted per step in a Python loop
    rng = np.random.default_rng(seed)
    m = transition.shape[0]
    states = np.empty(n, dtype=np.int64)
    row_cdf = np.cumsum(transition, axis=1)
    states[0] = np.searchsorted(np.cumsum(mixing.stationary_distribution(transition)),
                                rng.random())
    u = rng.random(n - 1)
    for i in range(1, n):
        states[i] = np.searchsorted(row_cdf[states[i - 1]], u[i - 1])
    states = np.minimum(states, m - 1)
    return np.asarray(state_values, dtype=float)[states]


class TestMarkovScan:
    """The chunked doubling scan must reproduce the per-step loop bit for bit."""

    @staticmethod
    def check(m, n):
        rng = np.random.default_rng(m)
        P = rng.random((m, m)) + 0.05
        np.fill_diagonal(P, P.diagonal() + 0.5)
        P /= P.sum(axis=1, keepdims=True)
        values = rng.normal(size=m)
        for seed in (0, 17):
            got = mixing.gen_finite_markov(P, values, n, seed).values
            assert np.array_equal(got, loop_gen_finite_markov(P, values, n, seed))

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    @pytest.mark.parametrize("n", [1, 2, 2**13, 2**13 + 1, 2**13 + 2, 40000])
    def test_bit_identical_to_loop(self, m, n):
        self.check(m, n)

    @pytest.mark.parametrize("m", [3, 9, 40])
    def test_bit_identical_at_chunk_boundaries(self, m):
        # n - 1 steps in chunks of _MARKOV_SCAN_CELLS // m: one full chunk,
        # then a full chunk and one step, then two full chunks
        chunk = mixing._MARKOV_SCAN_CELLS // m
        for n in (chunk + 1, chunk + 2, 2 * chunk + 1):
            self.check(m, n)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4097, 2**13])
    def test_scan_composes_every_step(self, steps):
        # random chains coalesce (every start state reaches the same state)
        # within a few steps, which hides a scan that drops early steps; the
        # maps of a deterministic 3-cycle never coalesce
        row_cdf = mixing._inverse_cdf(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                                [1.0, 0.0, 0.0]]))
        u = np.random.default_rng(steps).random(steps)
        for state in (0, 1, 2):
            path = mixing._markov_steps(row_cdf, state, u)
            assert np.array_equal(path, (state + 1 + np.arange(steps)) % 3)

    def test_draw_at_short_row_sum_stays_in_range(self):
        # the stochasticity check admits rows summing to 1 - 1e-12; a draw
        # u above the row's last cumulative entry must land on the last state
        P = np.array([[0.5, 0.5 - 5e-13], [0.25, 0.75]])
        assert mixing._check_stochastic(P) is not None
        row_cdf = mixing._inverse_cdf(P)
        u = np.full(5, 1 - 1e-13)
        for state in (0, 1):
            path = mixing._markov_steps(row_cdf, state, u)
            assert np.array_equal(path, [1, 1, 1, 1, 1])
        pi_cdf = mixing._inverse_cdf(np.array([0.3, 0.7 - 5e-13]))
        assert np.searchsorted(pi_cdf, 1 - 1e-13) == 1


def loop_gen_renewal_chain(tail_exponent, l_max, n, seed):
    # reference: block lengths drawn by Generator.choice(p=)
    rng = np.random.default_rng(seed)
    pmf = mixing._block_length_pmf(tail_exponent, l_max)
    lengths = [int(rng.choice(l_max, p=mixing._residual_life_pmf(pmf)) + 1)]
    total = lengths[0]
    mean_len = float(np.arange(1, l_max + 1) @ pmf)
    while total < n:
        want = max(16, int((n - total) / mean_len * 1.5) + 8)
        batch = rng.choice(l_max, size=want, p=pmf) + 1
        lengths.extend(int(b) for b in batch)
        total += int(batch.sum())
    lengths = np.asarray(lengths)
    return np.repeat(rng.random(len(lengths)), lengths)[:n]


class TestRenewalTables:
    @pytest.mark.parametrize("tail,l_max", [(0.5, 10**5), (2.0, 100), (0.3, 10),
                                            (0.5, 1)])
    @pytest.mark.parametrize("n", [1, 10, 1000, 16384])
    def test_bit_identical_to_choice(self, tail, l_max, n):
        for seed in (0, 1, 2):
            got = mixing.gen_renewal_chain(tail, l_max, n, seed).values
            assert np.array_equal(got, loop_gen_renewal_chain(tail, l_max, n, seed))

    def test_tables_are_read_only_and_cached(self):
        length_cdf, residual_cdf, mean_len = mixing._renewal_tables(0.5, 100)
        for cdf in (length_cdf, residual_cdf):
            assert not cdf.flags.writeable
            with pytest.raises(ValueError):
                cdf[0] = 0.0
            assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
        assert mixing._renewal_tables(0.5, 100)[0] is length_cdf
        assert 1.0 <= mean_len <= 100.0

    def test_nan_tail_rejected(self):
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_renewal_chain(float("nan"), 10, 10, seed=0)


def loop_age_value_transition(tail_exponent, l_max, n_values):
    # reference: the (residual, value) transition matrix entry by entry
    pmf = mixing._block_length_pmf(tail_exponent, l_max)
    m = l_max * n_values
    trans = np.zeros((m, m))
    for r in range(1, l_max + 1):
        for v in range(n_values):
            s = (r - 1) * n_values + v
            if r > 1:
                trans[s, (r - 2) * n_values + v] = 1.0
            else:
                for rl in range(1, l_max + 1):
                    for vn in range(n_values):
                        trans[s, (rl - 1) * n_values + vn] = pmf[rl - 1] / n_values
    return trans


class TestGenRenewalChain:
    def test_lmax_one_is_iid_uniform(self):
        s = mixing.gen_renewal_chain(0.5, 1, 2000, seed=5)
        assert len(np.unique(s.values)) == 2000  # every step regenerates
        assert 0.45 < s.values.mean() < 0.55

    def test_block_length_tail_slope(self):
        # runs of equal values recover the block-length law; its survival
        # function has log-log slope -(1 + tail_exponent)
        s = mixing.gen_renewal_chain(0.5, 10**4, 3 * 10**5, seed=11)
        change = np.flatnonzero(np.diff(s.values) != 0)
        lengths = np.diff(change)
        ks = np.unique(np.geomspace(2, 300, 12).astype(int))
        pairs = [(k, float(np.mean(lengths > k))) for k in ks]
        fit = slope_fit(pairs)
        assert fit.slope == pytest.approx(-1.5, abs=0.1)

    def test_binning_matches_exact_age_value_chain(self):
        T, pi, _ = mixing.renewal_age_value_chain(0.5, 50, 10)
        s = mixing.gen_renewal_chain(0.5, 50, 10**5, seed=11)
        disc = np.floor(s.values * 10)
        sd = mixing.SequenceSample(values=disc, mixing_oracle=None)
        est = mixing.estimate_beta_binning(sd, 10, 10)
        exact = mixing.exact_beta_markov(markov_profile(T, pi), 10)
        assert est == pytest.approx(exact, abs=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_renewal_chain(0.0, 10, 10, seed=0)
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_renewal_chain(0.5, 0, 10, seed=0)

    @pytest.mark.parametrize("tail,l_max,n_values", [
        (0.5, 50, 10), (0.5, 500, 1), (2.0, 7, 3), (0.3, 1, 4), (1.5, 20, 1)])
    def test_age_value_chain_matches_loop(self, tail, l_max, n_values):
        T, pi, values = mixing.renewal_age_value_chain(tail, l_max, n_values)
        assert np.array_equal(T, loop_age_value_transition(tail, l_max, n_values))
        assert np.allclose(pi @ T, pi)
        assert values.shape == pi.shape == (l_max * n_values,)

    def test_exact_chain_decay_slope(self):
        # coefficients of the exact (age, value) chain decay like q^{-beta};
        # the fit window stops at l_max/10 because the block-length cutoff
        # steepens the tail near the horizon
        l_max = 500
        T, pi, _ = mixing.renewal_age_value_chain(0.5, l_max, 1)
        M = np.eye(len(pi))
        pairs = []
        for q in range(1, l_max // 10 + 1):
            M = M @ T
            if q >= 5:
                tv = 0.5 * np.abs(M - pi).sum(axis=1)
                pairs.append((q, float(pi @ tv)))
        fit = slope_fit(pairs)
        assert fit.slope == pytest.approx(-0.5, abs=0.15)


class TestGenAr1:
    def test_a_zero_is_iid_standard_gaussian(self):
        s = mixing.gen_ar1(0.0, 10**5, seed=2)
        assert s.values.mean() == pytest.approx(0.0, abs=0.02)
        assert s.values.std() == pytest.approx(1.0, abs=0.02)
        assert abs(lag_autocorr(s.values, 1)) < 0.02

    def test_lag3_autocorrelation(self):
        s = mixing.gen_ar1(0.5, 10**5, seed=2)
        assert lag_autocorr(s.values, 3) == pytest.approx(0.125, abs=0.01)

    def test_boundary_contract(self):
        mixing.gen_ar1(-0.99, 10, seed=0)  # accepted
        with pytest.raises(mixing.ConstructionError):
            mixing.gen_ar1(1.0, 10, seed=0)


class TestExactBetaMarkov:
    def test_q_zero_is_one(self):
        assert mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), 0) == 1.0

    def test_independent_rows_give_zero(self):
        pi = np.array([0.3, 0.7])
        P = np.tile(pi, (2, 1))
        for q in (1, 2, 5):
            assert (mixing.exact_beta_markov(markov_profile(P, pi), q)
                    == pytest.approx(0.0, abs=1e-14))

    def test_lazy_two_state_value(self):
        # direct enumeration over the 4 joint cells:
        # (1/2) * sum |pi(x) P(x,y) - pi(x) pi(y)| = 0.4
        assert (mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), 1)
                == pytest.approx(0.4, abs=1e-12))

    def test_negative_q_rejected(self):
        for q in (-1, [3, -1, 2], math.nan, [3, math.nan], 2.5, [1, 2.5]):
            with pytest.raises(ValueError, match="gap q must be an integer >= 0"):
                mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), q)

    def test_int_gap_returns_float(self):
        assert type(mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), 0)) is float
        assert type(mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), 7)) is float

    @pytest.mark.parametrize("m", [2, 5, 20, 70])
    def test_scalar_gap_matches_matrix_power(self, m):
        rng = np.random.default_rng(m)
        prof = random_chain(rng, m)
        for q in (1, 2, 3, 4, 5, 7, 8, 1023, 4096, 65535, 65536, 99_999, 100_000):
            assert (mixing.exact_beta_markov(prof, q)
                    == matrix_power_beta(prof.transition, prof.stationary, q))

    @pytest.mark.parametrize("m,gaps", [
        (2, [5, 0, 3, 5]),
        (2, [9, 1, 0]),
        # 20 states: blocks of 10 powers, so the 19 nonzero gaps end in a
        # partial block
        (20, [17, 3, 0, 40, 3, 2, 1, 8, 8, 64, 5, 0, 31, 6, 7, 12, 4, 2, 9, 11, 3, 0]),
        (20, []),
        # 5 states: blocks of 163 powers, each gap's products stacked by bit
        (5, list(range(200, -1, -1)) + [1023, 65535, 99_999, 3, 2**20 + 3]),
    ], ids=["unsorted_repeats", "last_gap_zero", "partial_block", "empty",
            "contiguous_and_large"])
    def test_grid_equals_scalar_calls(self, m, gaps):
        prof = random_chain(np.random.default_rng(m), m)
        betas = mixing.exact_beta_markov(prof, gaps)
        assert betas.shape == (len(gaps),)
        assert np.array_equal(betas, [matrix_power_beta(prof.transition, prof.stationary, q)
                                      for q in gaps])
        unsigned = np.array(gaps, dtype=np.uint64)
        assert np.array_equal(
            mixing.exact_beta_markov(prof, unsigned), betas)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_in_q_for_lazy_chains(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.random((3, 3)) + 0.1
        np.fill_diagonal(P, P.diagonal() + 1.0)  # lazy: a_ii > 0
        P /= P.sum(axis=1, keepdims=True)
        pi = mixing.stationary_distribution(P)
        vals = [mixing.exact_beta_markov(markov_profile(P, pi), q) for q in range(6)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(5))


def loop_rank_bins(values, m_bins):
    # reference: bin = rank * m_bins // n over full-length rank arrays
    n = len(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return (ranks * m_bins) // n


def loop_estimate_beta_binning(values, q, m_bins):
    n = len(values)
    bins = loop_rank_bins(values, m_bins)
    joint = np.zeros((m_bins, m_bins))
    np.add.at(joint, (bins[: n - q], bins[q:]), 1.0)
    joint /= joint.sum()
    return float(0.5 * np.abs(joint - np.outer(joint.sum(axis=1),
                                                 joint.sum(axis=0))).sum())


class TestEstimateBetaBinning:
    def test_iid_uniform_near_zero(self):
        s = mixing.gen_iid_uniform(10**5, seed=3)
        assert mixing.estimate_beta_binning(s, 5, 8) <= 0.03

    def test_constant_sequence(self):
        s = mixing.SequenceSample(values=np.full(10**4, 0.37),
                                  mixing_oracle=None)
        assert mixing.estimate_beta_binning(s, 3, 8) == pytest.approx(1 - 1 / 8,
                                                                      abs=0.01)

    def test_matches_exact_on_discrete_chain(self):
        s = mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]), 10**5, seed=5)
        for q in (1, 3):
            est = mixing.estimate_beta_binning(s, q, 2)
            exact = mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), q)
            assert est == pytest.approx(exact, abs=0.05)

    def test_q_grid_equals_scalar_calls(self):
        s = mixing.gen_finite_markov(np.array([[0.8, 0.2, 0.0], [0.1, 0.6, 0.3],
                                               [0.3, 0.0, 0.7]]),
                                     np.array([0.1, 0.5, 0.9]), 5003, seed=2)
        grid = [1, 2, 5, 13, 40, 2500]
        for m_bins in (2, 3, 7):
            est = mixing.estimate_beta_binning(s, grid, m_bins)
            assert isinstance(est, np.ndarray) and est.shape == (len(grid),)
            scalar = [mixing.estimate_beta_binning(s, q, m_bins) for q in grid]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(est, scalar)
            assert np.array_equal(est, [loop_estimate_beta_binning(s.values, q, m_bins)
                                        for q in grid])
        with pytest.raises(mixing.EstimationError, match="n/2"):
            mixing.estimate_beta_binning(s, [1, 2501], 2)

    @pytest.mark.parametrize("n", [20, 999, 1000, 1003])
    @pytest.mark.parametrize("m_bins", [2, 3, 7])
    def test_rank_bins_match_rank_formula(self, n, m_bins):
        # ties (few distinct values) and n not divisible by m_bins
        values = np.random.default_rng(n).integers(0, 4, n).astype(float)
        assert np.array_equal(mixing._rank_bins(values, m_bins),
                              loop_rank_bins(values, m_bins))

    def test_too_few_observations(self):
        s = mixing.gen_iid_uniform(100, seed=0)
        with pytest.raises(mixing.EstimationError, match="n >="):
            mixing.estimate_beta_binning(s, 2, 8)

    def test_gap_below_one_rejected(self):
        s = mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]), 2000, seed=1)
        for q in (0, -1, [1, 0, 5]):
            with pytest.raises(mixing.EstimationError, match="q must be >= 1"):
                mixing.estimate_beta_binning(s, q, 2)

    def test_non_integer_gap_rejected(self):
        s = mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]), 2000, seed=1)
        for q in (2.5, math.nan, [1, 2.5]):
            with pytest.raises(ValueError, match="gap q must be an integer"):
                mixing.estimate_beta_binning(s, q, 2)


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda seed: mixing.gen_iid_uniform(500, seed),
        lambda seed: mixing.gen_ar1(0.4, 500, seed),
        lambda seed: mixing.gen_renewal_chain(0.7, 100, 500, seed),
        lambda seed: mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]),
                                              500, seed),
    ])
    def test_same_seed_bit_identical(self, make):
        a, b = make(42), make(42)
        assert np.array_equal(a.values, b.values)
        c = make(43)
        assert not np.array_equal(a.values, c.values)

    def test_distinct_seeds_agree_in_moments(self):
        a = mixing.gen_renewal_chain(1.5, 1000, 10**5, seed=1).values
        b = mixing.gen_renewal_chain(1.5, 1000, 10**5, seed=2).values
        for p in (1, 2, 3, 4):
            assert np.mean(a**p) == pytest.approx(np.mean(b**p), abs=0.05)


class TestMixingProfile:
    def test_coefficient_zero_is_one(self):
        for prof in (mixing.MixingProfile.iid(),
                     mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL,
                                          flavor=mixing.MixingFlavor.BETA,
                                          scale=1.0, exponent=0.5)):
            assert prof.coefficient(0) == 1.0

    def test_values_in_unit_interval_and_non_increasing(self):
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.EXPONENTIAL,
                                    flavor=mixing.MixingFlavor.GAMMA,
                                    scale=1.0, rate=0.3)
        vals = [prof.coefficient(q) for q in range(50)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_tabulated_beyond_table_is_zero(self):
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED,
                                    flavor=mixing.MixingFlavor.BETA,
                                    values=(1.0, 0.5, 0.25))
        assert prof.coefficient(2) == 0.25
        assert prof.coefficient(3) == 0.0

    @pytest.mark.parametrize("transition", [[[np.nan, np.nan], [0.5, 0.5]],
                                            [[np.nan, 1.0], [0.5, 0.5]]])
    def test_nan_transition_rejected(self, transition):
        # NaN compares False both ways, so each check must fail on it
        with pytest.raises(mixing.ConstructionError, match="NaN"):
            mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                 transition=transition, stationary=[0.5, 0.5])

    @pytest.mark.parametrize("kind,fields", [
        ("polynomial", {"exponent": math.nan}),
        ("polynomial", {"exponent": 1.0, "scale": math.nan}),
        ("exponential", {"rate": math.nan}),
        ("exponential", {"rate": -1.0}),
        ("tabulated", {"values": [1.0, math.nan, 0.1]}),
    ], ids=["nan_exponent", "nan_scale", "nan_rate", "negative_rate", "nan_value"])
    def test_fault_rejected(self, kind, fields):
        # NaN compares False both ways, so each check must fail on it
        with pytest.raises(ValueError, match="profile|coefficients"):
            mixing.MixingProfile(kind=mixing.ProfileKind(kind), **fields)


PROFILE_KINDS = {
    "exact_markov": markov_profile(P_LAZY, PI_LAZY),
    "polynomial": mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL, exponent=0.5),
    "exponential": mixing.MixingProfile(kind=mixing.ProfileKind.EXPONENTIAL, rate=0.3),
    "tabulated": mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED,
                                      values=(1.0, 0.5, 0.25)),
}


class TestCoefficientGaps:
    """One gap rule for every kind: an int gap or a 1-D grid of them."""

    @pytest.mark.parametrize("kind", sorted(PROFILE_KINDS))
    def test_non_integer_gap_rejected(self, kind):
        for q in (math.nan, 2.5, [1, 2.5], True):
            with pytest.raises(ValueError, match="gap q must be an integer >= 0"):
                PROFILE_KINDS[kind].coefficient(q)

    @pytest.mark.parametrize("kind", sorted(PROFILE_KINDS))
    def test_grid_equals_scalar_calls(self, kind):
        prof = PROFILE_KINDS[kind]
        gaps = [7, 0, 2, 2, 40, 1, 3]
        grid = prof.coefficient(gaps)
        assert isinstance(grid, np.ndarray) and grid.dtype == float
        assert grid.tolist() == [prof.coefficient(q) for q in gaps]
        assert isinstance(prof.coefficient(np.int64(3)), float)
        assert prof.coefficient([]).shape == (0,)


def as_given(prof, transition, stationary):
    """prof reading the caller's arrays in place, uncopied: the reference
    for what the profile's own copies must not change."""
    object.__setattr__(prof, "transition", transition)
    object.__setattr__(prof, "stationary", stationary)
    return prof


class TestProfileOwnsItsArrays:
    def test_mutated_input_leaves_beta_unchanged(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = mixing.stationary_distribution(P)
        prof = markov_profile(P, pi)
        before = prof.coefficient(np.arange(6))
        pi[:] = [0.5, 0.5]
        P[:] = np.eye(2)
        assert np.array_equal(prof.coefficient(np.arange(6)), before)
        values = np.array([1.0, 0.5, 0.25])
        tab = mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED, values=values)
        values[1] = 0.0
        assert tab.coefficient(1) == 0.5

    def test_stored_arrays_read_only(self):
        prof = markov_profile(P_LAZY, PI_LAZY)
        tab = mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED,
                                   values=np.array([1.0, 0.5]))
        for arr in (prof.transition, prof.stationary, tab.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert P_LAZY.flags.writeable and PI_LAZY.flags.writeable

    @pytest.mark.parametrize("m", [2, 3, 5, 20, 70])
    def test_layouts_keep_their_beta(self, m):
        """Fortran-ordered and strided chains give the beta of their own
        arrays read in place, bit for bit: the copies keep the memory order."""
        P = random_chain(np.random.default_rng(m), m).transition
        pi = mixing.stationary_distribution(P)
        padded = np.zeros((3 * m, 2 * m))
        padded[::3, 1:m + 1] = P
        layouts = {"fortran": np.asfortranarray(P), "strided": padded[::3, 1:m + 1],
                   "transposed": np.ascontiguousarray(P.T).T}
        gaps = np.arange(130)
        for name, t in layouts.items():
            ref = mixing.exact_beta_markov(as_given(markov_profile(P, pi), t, pi), gaps)
            assert np.array_equal(markov_profile(t, pi).coefficient(gaps), ref), name
        # a strided pi is copied to a contiguous one, so beta does not depend
        # on its stride
        spaced = np.zeros(2 * m)
        spaced[::2] = pi
        assert np.array_equal(markov_profile(P, spaced[::2]).coefficient(gaps),
                              markov_profile(P, pi).coefficient(gaps))


class TestStationaryVectorChecked:
    """pi P = pi alone admits any multiple of pi, so a stationary vector
    must also be a probability vector of the chain's size.  Each fault below
    passes the pi P = pi check."""

    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    PI = np.array([2.0, 1.0]) / 3.0
    FAULTS = {
        "scaled": (P, 2 * PI),
        "sum_off_by_1e-9": (P, PI * (1 + 1e-9)),
        "row_vector": (P, PI[None, :]),
        "too_short": (np.eye(1), np.array([1.0, 0.0])),
        "negative": (np.eye(2), np.array([1.5, -0.5])),
        "nan": (P, np.array([np.nan, np.nan])),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_rejected(self, fault):
        from mixrate.empirical import verify_variance_bound
        P, pi = self.FAULTS[fault]
        with pytest.raises(mixing.ConstructionError, match="probability vector"):
            mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                 transition=P, stationary=pi)
        with pytest.raises(mixing.ConstructionError, match="probability vector"):
            verify_variance_bound(P, pi, np.zeros(len(P)), 5, 4)

    def test_probability_vector_within_tolerance_accepted(self):
        pi = self.PI * (1 + 1e-13)
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                    transition=self.P, stationary=pi)
        assert mixing.exact_beta_markov(markov_profile(self.P, pi), 5) == prof.coefficient(5)
        # entries may dip below 0 within the tolerance
        assert abs(mixing.exact_beta_markov(
            markov_profile(np.eye(2), [1.0, -1e-13]), 1)) < 1e-12

    def test_rounded_stationary_vector_accepted(self):
        """(2, 3, 2) / 7 rounded to 11 digits sums to 1 - 1e-11 and meets
        pi P = pi within its 1e-10 tolerance; the sum gets the same one."""
        from mixrate.empirical import verify_variance_bound
        P = np.array([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]])
        pi = np.array([0.28571428571, 0.42857142857, 0.28571428571])
        assert abs(pi.sum() - 1.0) > mixing._STOCHASTIC_TOL
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                    transition=P, stationary=pi)
        assert mixing.exact_beta_markov(markov_profile(P, pi), 4) == prof.coefficient(4)
        assert verify_variance_bound(P, pi, np.array([1.0, 0.0, -1.0]), 5, 4).holds


class TestChainCheckedOnce:
    """A chain is checked when its profile is built, and every beta read
    through the profile uses the checked arrays as they are."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = mixing._check_stochastic
        monkeypatch.setattr(mixing, "_check_stochastic",
                            lambda t: calls.append(1) or check(t))
        return calls

    def test_once_per_verify_variance_bound(self, checks):
        from mixrate.empirical import verify_variance_bound
        prof = random_chain(np.random.default_rng(5), 5)
        checks.clear()
        verify_variance_bound(prof.transition, prof.stationary,
                              np.arange(5.0), range(1, 51), (3, 4, 8))
        assert len(checks) == 1

    def test_bounds_on_a_built_profile_check_nothing(self, checks):
        from mixrate.classes import EntropyModel
        from mixrate.rates import finite_class_bound, main_bound
        prof = random_chain(np.random.default_rng(5), 5)
        checks.clear()
        main_bound(EntropyModel(alpha=1.0, sigma=1.0, b=1.0), prof, 100_000, 4.0)
        assert len(checks) == 0
        finite_class_bound(1.0, 1.0, 100, 10_000, prof, 4.0)
        assert len(checks) == 0

    def test_non_stationary_vector_rejected(self):
        # a probability vector with pi P != pi; the beta oracle would read
        # 0.35 at q = 1 off it, where beta_1 of the chain is 0.311
        with pytest.raises(mixing.ConstructionError, match="pi P = pi"):
            markov_profile(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))

    def test_other_profile_kinds_rejected(self):
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL, exponent=1.0)
        with pytest.raises(ValueError, match="exact_markov"):
            mixing.exact_beta_markov(prof, 3)


def random_chain(rng, m):
    P = rng.random((m, m)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return markov_profile(P, mixing.stationary_distribution(P))


def scalar_coefficients(prof, q_max):
    return np.array([prof.coefficient(q) for q in range(q_max + 1)])


def matrix_power_beta(transition, stationary, q):
    # reference: one np.linalg.matrix_power per gap
    if q == 0:
        return 1.0
    pq = np.linalg.matrix_power(transition, q)
    tv_rows = 0.5 * np.abs(pq - stationary[None, :]).sum(axis=1)
    return float(stationary @ tv_rows)


class TestCoefficientsArray:
    """coefficient on the grid 0..q_max must equal the scalar sequence bit
    for bit."""

    @pytest.mark.parametrize("m", [2, 5, 20, 70])
    def test_exact_markov_bit_identical(self, m):
        # q_max = 300 spans the q = 3 shortcut of matrix_power and every
        # power of two up to 256; the sizes give blocks of 300, 163, 10
        # and 1 powers
        rng = np.random.default_rng(m)
        for prof in (random_chain(rng, m), random_chain(rng, m)):
            ref = [matrix_power_beta(prof.transition, prof.stationary, q)
                   for q in range(301)]
            assert np.array_equal(prof.coefficient(np.arange(301)), ref)

    def test_exact_markov_matches_exact_beta_markov(self):
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,
                                    transition=P_LAZY, stationary=PI_LAZY)
        betas = prof.coefficient(np.arange(41))
        assert betas.shape == (41,)
        for q in (0, 1, 2, 3, 4, 7, 8, 31, 32, 40):
            assert betas[q] == mixing.exact_beta_markov(
                markov_profile(P_LAZY, PI_LAZY), q)

    @pytest.mark.parametrize("prof", [
        mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL, scale=1.0,
                             exponent=0.5),
        mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL, scale=3.0,
                             exponent=1.7),
        mixing.MixingProfile(kind=mixing.ProfileKind.EXPONENTIAL, scale=1.0,
                             rate=0.3),
        mixing.MixingProfile(kind=mixing.ProfileKind.EXPONENTIAL, scale=2.5,
                             rate=0.01),
    ], ids=["poly", "poly_capped", "exp", "exp_capped"])
    def test_closed_forms_bit_identical(self, prof):
        for q_max in (0, 1, 3, 500):
            assert np.array_equal(prof.coefficient(np.arange(q_max + 1)),
                                  scalar_coefficients(prof, q_max))

    def test_tabulated_bit_identical_beyond_table(self):
        for prof in (mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED,
                                          values=(0.9, 0.5, 0.25, 0.1)),
                     mixing.MixingProfile.iid()):
            for q_max in (0, 1, 2, 3, 4, 10):
                assert np.array_equal(prof.coefficient(np.arange(q_max + 1)),
                                      scalar_coefficients(prof, q_max))

    def test_negative_q_max_rejected(self):
        rng = np.random.default_rng(0)
        for prof in (random_chain(rng, 3), mixing.MixingProfile.iid(),
                     mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL),
                     mixing.MixingProfile(kind=mixing.ProfileKind.EXPONENTIAL)):
            for q in (-1, [0, -1]):
                with pytest.raises(ValueError):
                    prof.coefficient(q)
