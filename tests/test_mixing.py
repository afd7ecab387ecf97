import json
import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left

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


@pytest.mark.parametrize("n", [True, 2.5, 3.0, 0, -3])
@pytest.mark.parametrize("draw", [
    lambda n: mixing.gen_finite_markov(P_LAZY, [0.0, 1.0], n, 0),
    lambda n: mixing.gen_renewal_chain(0.5, 10, n, 0),
    lambda n: mixing.gen_ar1(0.5, n, 0),
    lambda n: mixing.gen_iid_uniform(n, 0),
], ids=["markov", "renewal", "ar1", "iid_uniform"])
def test_non_integer_length_rejected(draw, n):
    # a bool is an int to isinstance, a float n must not reach numpy sizes,
    # and n < 1 draws no sample
    with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
        draw(n)


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
    """The block-speculative sampler must reproduce the searchsorted loop bit for bit."""

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

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 100])
    @pytest.mark.parametrize("n", [1, 2, 2**13, 2**13 + 1, 2**13 + 2, 40000])
    def test_bit_identical_to_loop(self, m, n):
        self.check(m, n)

    @pytest.mark.parametrize("m", [3, 9, 40])
    def test_bit_identical_at_chunk_boundaries(self, m):
        # n - 1 steps in chunks of _MARKOV_CHUNK: one full chunk, then a
        # full chunk and one step, then two full chunks
        chunk = mixing._MARKOV_CHUNK
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


def loop_markov_steps(row_cdf, state, u):
    # reference: each step moves to the number of row-CDF entries below u
    path = []
    for x in u:
        state = int(np.count_nonzero(row_cdf[state] < x))
        path.append(state)
    return path


def sticky_chain(m, stay=0.9):
    P = np.full((m, m), (1.0 - stay) / (m - 1))
    np.fill_diagonal(P, stay)
    return P


class TestBlockSpeculation:
    """Blocks run from the chunk's start state, then reruns until each meets
    its speculative path: every edge of that scheme against the reference."""

    @pytest.mark.parametrize("blocks", [16, 17])
    @pytest.mark.parametrize("m", [2, 3, 9])
    def test_block_edges(self, m, blocks):
        # fewer than 16 blocks step in turn; k B - 1, k B and k B + 1 steps
        # leave a partial block of B - 1, none and one step
        row_cdf = mixing._inverse_cdf(sticky_chain(m))
        width = mixing._MARKOV_BLOCK
        for steps in (blocks * width - 1, blocks * width, blocks * width + 1):
            u = np.random.default_rng(steps).random(steps)
            for state in range(m):
                path = mixing._markov_steps(row_cdf, state, u)
                assert path.tolist() == loop_markov_steps(row_cdf, state, u)

    @pytest.mark.parametrize("m", [2, 3])
    def test_chunk_edges(self, m):
        # n - 1 steps: one chunk less one step, 16 blocks less one step (no
        # speculation), and 16 blocks
        P = sticky_chain(m)
        values = np.linspace(-1.0, 1.0, m)
        chunk, width = mixing._MARKOV_CHUNK, mixing._MARKOV_BLOCK
        for n in (chunk, 16 * width, 16 * width + 1):
            got = mixing.gen_finite_markov(P, values, n, seed=n).values
            assert np.array_equal(got, loop_gen_finite_markov(P, values, n, seed=n))

    def test_never_coalescing_chain_across_blocks(self):
        # a deterministic 5-cycle: chains from different states never meet,
        # so every block whose true start differs is rerun to its end
        perm = np.array([2, 4, 1, 0, 3])
        row_cdf = mixing._inverse_cdf(np.eye(5)[perm])
        steps = 40 * mixing._MARKOV_BLOCK + 5
        u = np.random.default_rng(5).random(steps)
        for start in range(5):
            expect, state = [], start
            for _ in range(steps):
                state = int(perm[state])
                expect.append(state)
            assert mixing._markov_steps(row_cdf, start, u).tolist() == expect

    def test_slowly_coalescing_chain(self):
        # a 3-cycle kept with probability 0.98: chains meet after ~50 steps
        P = np.full((3, 3), 0.01)
        P[[0, 1, 2], [1, 2, 0]] = 0.98
        n = mixing._MARKOV_CHUNK + 2
        got = mixing.gen_finite_markov(P, [0.0, 1.0, 2.0], n, seed=9).values
        assert np.array_equal(got, loop_gen_finite_markov(P, [0.0, 1.0, 2.0], n, seed=9))

    def test_one_state(self):
        for n in (1, 16 * mixing._MARKOV_BLOCK + 1, mixing._MARKOV_CHUNK + 2):
            assert np.array_equal(mixing.gen_finite_markov([[1.0]], [0.7], n, seed=1).values,
                                  np.full(n, 0.7))
        u = np.random.default_rng(1).random(16 * mixing._MARKOV_BLOCK + 3)
        assert not mixing._markov_steps(np.array([[1.0]]), 0, u).any()

    def test_dipping_row_counts_entries_below(self):
        """The stochasticity check admits an entry of -1e-13, where the row
        CDF dips.  Inside the dip the number of entries below u differs
        from bisect_left on the unsorted row; both the vectorised steps and
        the reruns count the entries below u."""
        P = np.array([[0.5, -1e-13, 0.5 + 1e-13], [0.3, 0.3, 0.4], [0.2, 0.3, 0.5]])
        assert mixing._check_stochastic(P) is not None
        row_cdf = mixing._inverse_cdf(P)
        assert row_cdf[0, 1] < row_cdf[0, 0]
        dip = (row_cdf[0, 0] + row_cdf[0, 1]) / 2
        assert row_cdf[0, 1] < dip < row_cdf[0, 0]
        assert np.count_nonzero(row_cdf[0] < dip) == 1
        assert bisect_left(row_cdf[0].tolist(), dip) == 2
        u = np.random.default_rng(3).random(40 * mixing._MARKOV_BLOCK + 9)
        u[::3] = dip
        for state in range(3):
            path = mixing._markov_steps(row_cdf, state, u)
            assert path.tolist() == loop_markov_steps(row_cdf, state, u)

    def test_memory_stays_bounded(self):
        # uniforms and states a chunk at a time: the traced peak is the
        # output plus about 2 MiB at n = 2^19
        mixing.gen_finite_markov(P_LAZY, [0.0, 1.0], 5000, seed=0)
        tracemalloc.start()
        try:
            sample = mixing.gen_finite_markov(P_LAZY, [0.0, 1.0], 2**19, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sample.values.nbytes + 2 * 2**20


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
                                            (0.5, 1), (0.3, 3), (0.3, 4), (0.3, 5),
                                            (0.5, 31), (0.5, 32), (0.5, 33)])
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


def age_value_chain(tail_exponent, l_max, n_values):
    # the exact (residual, value) chain of the renewal DGP with its
    # values in n_values equiprobable levels: (transition, stationary law)
    pmf = mixing._block_length_pmf(tail_exponent, l_max)
    pi = np.repeat(mixing._residual_life_pmf(pmf), n_values) / n_values
    return loop_age_value_transition(tail_exponent, l_max, n_values), pi


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
        T, pi = age_value_chain(0.5, 50, 10)
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

    def test_exact_chain_decay_slope(self):
        # coefficients of the exact (age, value) chain decay like q^{-beta};
        # the fit window stops at l_max/10 because the block-length cutoff
        # steepens the tail near the horizon
        l_max = 500
        T, pi = age_value_chain(0.5, l_max, 1)
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
        # 20 states: blocks of b = 8 gaps, so the gaps spread over sparse
        # blocks and a lone multiple of b (64)
        (20, [17, 3, 0, 40, 3, 2, 1, 8, 8, 64, 5, 0, 31, 6, 7, 12, 4, 2, 9, 11, 3, 0]),
        (20, []),
        # 5 states: b = 128, so full blocks of prefixes times squares
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

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 18, 26, 66, 70])
    def test_block_edges_match_matrix_power(self, m):
        """Gaps around the block length b (the largest power of two with
        b m^2 <= 4096, so b = 1 from m = 65) and gaps 3 + 2^t, whose prefix
        P^3 is P @ (P @ P) while gap 3 itself is (P @ P) @ P."""
        prof = random_chain(np.random.default_rng(m), m)
        b = 1 << max(0, (4096 // (m * m)).bit_length() - 1)
        gaps = [b - 1, b, b + 1, 2 * b + 3, 3, 2**20 + 3] + [3 + 2**t for t in range(21)]
        ref = {q: matrix_power_beta(prof.transition, prof.stationary, q) for q in gaps}
        assert [mixing.exact_beta_markov(prof, q) for q in gaps] == [ref[q] for q in gaps]
        rng = np.random.default_rng(m + 1)
        grid = [gaps[i] for i in rng.integers(len(gaps), size=2 * len(gaps))] + [0]
        expect = [ref.get(q, 1.0) for q in grid]
        assert np.array_equal(mixing.exact_beta_markov(prof, grid), expect)
        assert np.array_equal(
            mixing.exact_beta_markov(prof, np.array(grid, dtype=np.uint64)), expect)
        assert mixing.exact_beta_markov(prof, []).shape == (0,)

    def test_long_grid_bounds_memory_and_imports(self):
        """perfbench's finite_class_bound reads beta at 10,001 gaps of a
        5-state chain: the traced peak stays under 745 KiB, and its first
        call imports nothing (np.unique would, lazily)."""
        code = ("import json, sys, tracemalloc\n"
                "import numpy as np\n"
                "from mixrate import mixing, rates\n"
                "rng = np.random.default_rng(0)\n"
                "P = rng.random((5, 5)) + 0.05\n"
                "P /= P.sum(axis=1, keepdims=True)\n"
                "prof = mixing.MixingProfile(kind=mixing.ProfileKind.EXACT_MARKOV,\n"
                "    transition=P, stationary=mixing.stationary_distribution(P))\n"
                "before = set(sys.modules)\n"
                "rates.finite_class_bound(1.0, 1.0, 100, 10_000, prof, 4.0)\n"
                "loaded = sorted(set(sys.modules) - before)\n"
                "tracemalloc.start()\n"
                "rates.finite_class_bound(1.0, 1.0, 100, 10_000, prof, 4.0)\n"
                "print(json.dumps([loaded, tracemalloc.get_traced_memory()[1]]))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixing.__file__)))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        loaded, peak = json.loads(res.stdout)
        assert loaded == []
        assert peak <= 745 * 1024

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


def frozen_estimate_beta_binning(values, q, m_bins):
    # the estimator before lag pairs were counted in narrow keys and slices:
    # int64 bins and one full-length bincount per gap
    n = len(values)
    order = np.argsort(values, kind="stable")
    bins = np.empty(n, dtype=np.int64)
    for b in range(m_bins):
        bins[order[-(-b * n // m_bins):-(-(b + 1) * n // m_bins)]] = b
    counts = np.bincount(bins[: n - q] * m_bins + bins[q:], minlength=m_bins * m_bins)
    joint = counts.reshape(m_bins, m_bins) / counts.sum()
    return float(0.5 * np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))).sum())


class TestEstimateBetaBinning:
    @pytest.mark.parametrize("m_bins", [2, 3, 15, 16, 17, 256])
    def test_matches_frozen_int64_estimator(self, m_bins):
        """Bins in np.min_scalar_type(m_bins^2 - 1) (uint8 up to 16 bins)
        and lag pairs counted in slices of _PAIR_SLICE: gaps put n - q one
        below, on and one above a slice edge; ties (blocks of four equal
        values) go by the stable sort."""
        width = mixing._PAIR_SLICE
        n = max(10 * m_bins * m_bins, 3 * width) + 2
        values = np.repeat(np.random.default_rng(m_bins).random(n // 4 + 1), 4)[:n]
        edge = n % width + width  # n - edge is a multiple of the slice
        gaps = [1, 2, 7, edge - 1, edge, edge + 1]
        got = mixing.estimate_beta_binning(mixing.SequenceSample(values), gaps, m_bins)
        assert got.tolist() == [frozen_estimate_beta_binning(values, q, m_bins) for q in gaps]
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

    def test_iid_profile_is_shared_and_read_only(self):
        iid = mixing.MixingProfile.iid()
        assert mixing.gen_iid_uniform(8, 0).mixing_oracle is iid
        assert mixing.gen_ar1(0.0, 8, 0).mixing_oracle is iid
        assert not iid.values.flags.writeable
        with pytest.raises(ValueError):
            iid.values[0] = 0.5
        assert iid.coefficient([0, 1, 5]).tolist() == [1.0, 0.0, 0.0]

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


class TestIdentityIsEquality:
    """Array-holding dataclasses compare and hash by identity."""

    def test_equal_content_profiles_unequal_and_hashable(self):
        a, b = (mixing.MixingProfile(kind=mixing.ProfileKind.TABULATED,
                                     values=[1.0, 0.5]) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_equal_content_samples_unequal_and_hashable(self):
        a, b = mixing.gen_iid_uniform(5, 0), mixing.gen_iid_uniform(5, 0)
        assert a == a and a != b
        assert len({a, b, a}) == 2


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

    @pytest.mark.parametrize("q", [[True, 2], (2, True), [np.True_, 2], (3, 1, True)],
                             ids=["list", "tuple", "numpy_bool", "long_tuple"])
    def test_bool_inside_a_grid_rejected(self, q):
        # numpy reads [True, 2] as an integer array, so the check reads the
        # grid as given; a bool is rejected inside a grid as on its own
        with pytest.raises(ValueError, match="gap q must be an integer >= 0"):
            mixing._gap_list(q, 0)
        with pytest.raises(ValueError, match="gap q must be an integer >= 0"):
            mixing.exact_beta_markov(markov_profile(P_LAZY, PI_LAZY), q)
        s = mixing.gen_finite_markov(P_LAZY, np.array([0.0, 1.0]), 2000, seed=1)
        with pytest.raises(ValueError, match="gap q must be an integer"):
            mixing.estimate_beta_binning(s, q, 2)

    def test_integer_grids_accepted(self):
        for q in ([1, 2], (1, 2), range(1, 3), np.array([1, 2]), np.array([1, 2], dtype=np.uint8),
                  [np.int64(1), 2], np.array([1, 2], dtype=object)):
            assert mixing._gap_list(q, 1) == [1, 2]
        assert mixing._gap_list(np.int64(3), 0) == [3]


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
        # power of two up to 256; the sizes give blocks of b = 1024, 128, 8
        # and 1 gaps
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
