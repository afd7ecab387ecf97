"""End-to-end acceptance checks: one test per criterion, each printing a
single pass/fail line with the measured quantities."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mixrate import empirical, mixing, ot, rates
from mixrate.classes import EntropyModel, uniform01_cdf
from mixrate.empirical import (mc_sup_expectation, slope_fit,
                               verify_variance_bound)
from mixrate.mixing import (MixingFlavor, MixingProfile, ProfileKind,
                            estimate_beta_binning, exact_beta_markov,
                            stationary_distribution)
from mixrate.ot import exact_w2, sinkhorn_divergence, t_eps_k
from mixrate.rates import (BoundaryParameterError, Regime,
                           application_exponents, boundary_curve, pi_n,
                           rate_exponent, solve_delta_n, tau_q)
from test_mixing import markov_profile
from test_rates import frozen_tau_q

ORACLE = uniform01_cdf()
N_GRID = [2**k for k in range(10, 17)]


def report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{tag}] {desc}{extra}")
    return ok


def ks_slope(dgp_cfg, base_seed=1234):
    pairs, ses = [], []
    for n in N_GRID:
        mean, se = mc_sup_expectation(dgp_cfg, "ks", n, 200, base_seed, ORACLE)
        pairs.append((n, mean))
        ses.append(se)
    return slope_fit(pairs, ses).slope


def test_criterion_1_long_range_slope():
    cfg = {"generator": "renewal",
           "params": {"tail_exponent": 0.5, "l_max": 10**5}}
    slope = ks_slope(cfg)
    target = 1.0 / 6.0
    ok = abs(slope - target) <= 0.06
    assert report(1, "long-range supremum growth exponent", ok,
                  f"slope {slope:.4f} vs {target:.4f} +- 0.06")


def test_criterion_2_short_range_slopes():
    cfg = {"generator": "renewal",
           "params": {"tail_exponent": 3.0, "l_max": 10**5}}
    s_sr = ks_slope(cfg)
    s_iid = ks_slope({"generator": "iid_uniform"})
    ok = abs(s_sr) <= 0.05 and abs(s_iid) <= 0.04
    assert report(2, "short-range and independent supremum slopes", ok,
                  f"summable-tail {s_sr:.4f} +- 0.05, independent "
                  f"{s_iid:.4f} +- 0.04")


GOLDEN = [
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

BOUNDARY = [(2.0, 2.0, math.inf), (3.0, 0.5, math.inf),
            (2.0, 3.0, 4), (4.0, 0.5, 4), ((1 + 0.25) / 0.25, 0.25, math.inf)]


def test_criterion_3_rate_exponent_golden_table():
    t0 = time.perf_counter()
    mismatches = []
    for alpha, beta, r, regime, exponent in GOLDEN:
        rep = rate_exponent(alpha, beta, r)
        if rep.regime != regime or rep.exponent != exponent:
            mismatches.append((alpha, beta, r))
    for alpha, beta, r in BOUNDARY:
        rep = rate_exponent(alpha, beta, r)
        if rep.regime != Regime.BOUNDARY or rep.exponent is not None:
            mismatches.append((alpha, beta, r, "boundary"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    assert report(3, "rate-exponent golden table (12 cells + boundaries)", ok,
                  f"{len(mismatches)} mismatches, {elapsed:.3f}s")


def test_criterion_4_variance_bound_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = violations = 0
    for _ in range(20):
        P = rng.random((5, 5)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_distribution(P)
        hs = rng.normal(size=(10, 5))
        for h in hs:
            for row in verify_variance_bound(P, pi, h, range(1, 51), (3, 4, 8)):
                cases += len(row)
                violations += sum(not rep.holds for rep in row)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and cases == 30000 and elapsed < 30.0
    assert report(4, "partial-sum variance bound on random chains", ok,
                  f"{violations} violations over {cases} cases, {elapsed:.1f}s")


def test_criterion_5_block_length_contract():
    t0 = time.perf_counter()
    ent = EntropyModel(alpha=2.0, sigma=1.0, b=1.0)
    ok = tau_q(MixingProfile.iid(), ent, 0.3, 1000) == 1
    rng = np.random.default_rng(7)
    for _ in range(100):
        prof = MixingProfile(kind=ProfileKind.POLYNOMIAL,
                             flavor=MixingFlavor.BETA, scale=1.0,
                             exponent=float(rng.uniform(0.3, 3.0)))
        n = int(rng.integers(100, 5000))
        deltas = np.sort(rng.uniform(0.02, 1.0, size=3))
        taus = [tau_q(prof, ent, float(d), n) for d in deltas]
        ok &= taus[0] <= taus[1] <= taus[2]  # non-decreasing in delta
        ok &= taus[1] == frozen_tau_q(prof, ent, float(deltas[1]), n, "scan")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(5, "block-length selector: independent case, monotonicity, "
                  "solver agreement", ok, f"{elapsed:.1f}s")


def test_criterion_6_exact_beta_oracle_and_binning():
    rng = np.random.default_rng(99)
    max_gap = 0.0
    for _ in range(50):
        P = rng.random((4, 4)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_distribution(P)
        for q in (1, 2, 3):
            Pq = np.linalg.matrix_power(P, q)
            joint = pi[:, None] * Pq
            brute = 0.5 * float(np.abs(joint - np.outer(pi, pi)).sum())
            max_gap = max(max_gap, abs(exact_beta_markov(markov_profile(P, pi), q) - brute))
    P2 = np.array([[0.9, 0.1], [0.1, 0.9]])
    pi2 = stationary_distribution(P2)
    sample = empirical.generate(
        {"generator": "markov",
         "params": {"transition": P2.tolist(), "state_values": [0.2, 0.8]}},
        10**5, 5)
    max_est_err = max(abs(estimate_beta_binning(sample, q, 2)
                          - exact_beta_markov(markov_profile(P2, pi2), q))
                      for q in range(1, 11))
    ok = max_gap <= 1e-12 and max_est_err <= 0.05
    assert report(6, "exact dependence coefficient vs brute force + binning "
                  "estimator", ok,
                  f"oracle gap {max_gap:.2e}, estimator error "
                  f"{max_est_err:.4f}")


def test_criterion_7_entropic_transport_suite():
    rng = np.random.default_rng(5)
    checks = []
    X = rng.random((10, 3))
    checks.append(abs(sinkhorn_divergence(X, X, 0.2, 40)) <= 1e-10)
    A, B = rng.random((8, 2)), rng.random((8, 2))
    vals = [t_eps_k(A, B, 0.05, k) for k in (1, 2, 4, 8, 16)]
    checks.append(all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])))
    # two-point clouds against the scalar coupling oracle
    pts = np.array([[0.0], [1.0]])
    eps = 1.0

    def objective(s):
        p = np.array([0.5 - s, s, s, 0.5 - s])
        return 2.0 * s + eps * float(np.sum(p * np.log(4.0 * p)))

    res = minimize_scalar(objective, bounds=(1e-12, 0.5 - 1e-12),
                          method="bounded", options={"xatol": 1e-14})
    checks.append(abs(t_eps_k(pts, pts, eps, 500) - objective(res.x)) <= 1e-6)
    brute_ok = True
    for n in (2, 3, 4, 5, 6):
        U, V = rng.random((n, 2)), rng.random((n, 2))
        brute_ok &= abs(exact_w2(U, V, "assignment")
                        - exact_w2(U, V, "brute")) <= 1e-12
    checks.append(brute_ok)
    sort_ok = True
    for i in range(100):
        g = np.random.default_rng(i)
        U, V = g.random((g.integers(1, 15), 1)), None
        V = g.random(U.shape)
        sort_ok &= abs(exact_w2(U, V, "sorted")
                       - exact_w2(U, V, "assignment")) <= 1e-12
    checks.append(sort_ok)
    ok = all(checks)
    assert report(7, "entropic transport invariants and exact baselines", ok,
                  f"{sum(checks)}/5 checks")


def test_criterion_8_localization_fixed_point():
    n_grid = [2**k for k in range(10, 21, 2)]
    gamma, D = 1.0, 3.0
    ratios, vc_pairs = [], []
    for n in n_grid:
        def fn(d, n=n):
            s = min(d, 1.0)
            ent = EntropyModel(D=D, alpha=0.0, V=0.0, B=10.0, r=2.0,
                               sigma=s, b=1.0)
            return pi_n(ent, gamma, s, n, enforce_scale=False)
        dn = solve_delta_n(fn, n, t=1.5)
        ratios.append(dn**2 / (D / n) ** (gamma / (gamma + 1)))
        vc_pairs.append((n, dn**2))
    vc_slope = slope_fit(vc_pairs).slope
    vc_ok = (all(0.25 <= r <= 4.0 for r in ratios)
             and abs(-vc_slope - gamma / (gamma + 1)) <= 0.02)

    alpha_s, gamma_s = 10.0, 2.0
    ad_pairs = []
    for n in n_grid:
        def fn(d, n=n):
            s = min(d, 1.0)
            ent = EntropyModel(alpha=alpha_s, V=0.0, B=10.0, r=2.0,
                               theta=s, sigma=s, b=1.0)
            return pi_n(ent, gamma_s, s, n, enforce_scale=False)
        ad_pairs.append((n, solve_delta_n(fn, n, t=1.5, delta_max=4.0)**2))
    ad_slope = slope_fit(ad_pairs).slope
    ad_ok = abs(-ad_slope - 2.0 / alpha_s) <= 0.02
    ok = vc_ok and ad_ok
    assert report(8, "localization fixed point: parametric-type and "
                  "adaptation cases", ok,
                  f"ratio range [{min(ratios):.2f},{max(ratios):.2f}], "
                  f"slopes {-vc_slope:.4f} vs {gamma/(gamma+1):.2f}, "
                  f"{-ad_slope:.4f} vs {2/alpha_s:.2f}")


def test_criterion_9_phase_boundary_geometry():
    ok = boundary_curve(1.0) == 2.0
    for p, q in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (5, 7)]:
        beta = Fraction(p, q)
        curve = (1 + beta) / beta
        lhs = Fraction(1, 2) - 1 / curve
        rhs = (1 - beta) / (2 * (1 + beta))
        ok &= lhs == rhs
        r = Fraction(4)
        curve_r = r * (1 + beta) / (beta * (r - 1))
        lhs_r = Fraction(1, 2) - 1 / curve_r
        rhs_r = (1 - beta * (1 - 2 / r)) / (2 * (1 + beta))
        ok &= lhs_r == rhs_r
    assert report(9, "phase boundary through (1, 2) and symbolic agreement "
                  "of the two exponent branches on the curve", ok)


def test_criterion_10_application_exponent_table():
    cases = [
        (("dnn", {"s": 2.0, "d": 4, "gamma": 1.0}), Fraction(1, 6)),
        (("dnn", {"s": 2.0, "d": 4, "gamma": math.inf}), Fraction(1, 4)),
        (("additive", {"s": 2.0, "d_as": 0.0, "gamma": math.inf}),
         Fraction(4, 5)),
        (("additive", {"s": 2.0, "d_as": 0.0, "gamma": 2.0}),
         Fraction(4, 7)),
        (("convex_worst", {"d": 6, "beta": 3.0}), Fraction(1, 3)),
        (("convex_adapt", {"d": 10, "gamma": 1.5}), Fraction(2, 5)),
        (("ot", {"beta": 3.0, "d": 4}), Fraction(1, 2)),
        (("ot", {"beta": 0.5, "d": 4}), Fraction(1, 3)),
        (("classification", {"alpha": 1.0, "gamma": 1.0}), Fraction(1, 3)),
        (("classification", {"alpha": 1.0, "gamma": math.inf}),
         Fraction(1, 2)),
    ]
    ok = True
    for (app, params), expected in cases:
        got = application_exponents(app, **params)
        ok &= got == pytest.approx(float(expected), abs=1e-12)
    # weak-dependence limit recovers the independent-data exponents exactly
    for app, params, iid in [
        ("dnn", {"s": 1.5, "d": 3}, 1.5 / (3 + 3.0)),
        ("additive", {"s": 2.0, "d_as": 0.5}, 1.5 / 5.0),
        ("classification", {"alpha": 2.0}, 1.0 / 3.0),
    ]:
        got = application_exponents(app, gamma=math.inf, **params)
        ok &= got == pytest.approx(iid, abs=1e-15)
    assert report(10, "application exponent calculator with independent-data "
                  "limits", ok)


@pytest.mark.xfail(strict=False,
                   reason="runtime-shape separation needs sizes beyond this "
                          "harness; measured exponents reported for the record")
def test_criterion_11_transport_runtime_shape_advisory():
    rep = ot.compare_estimators({"generator": "iid_uniform"}, 4, 3.0,
                                [2**k for k in range(7, 11)],
                                replications=1, base_seed=0)
    exact_e = rep.exact_runtime_exponent
    sink_e = rep.sinkhorn_runtime_exponent
    ok = sink_e <= exact_e - 0.2
    assert report(11, "entropic-solver runtime exponent below exact-matching "
                  "exponent (advisory)", ok,
                  f"entropic {sink_e:.2f}, exact {exact_e:.2f}")
