"""Monte-Carlo estimation of expected empirical-process suprema, log-log
slope fitting, the exact finite-chain variance-bound audit, and a small
isotonic-regression ERM demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mixing
from .classes import CdfOracle, sup_halflines, sup_lipschitz_w1, sup_monotone01
from .rates import _geometric_bisect, c_phi, lambda_phi_beta

_STATISTICS = {"ks": sup_halflines, "monotone": sup_monotone01,
               "w1": sup_lipschitz_w1}


def generate(dgp_cfg: dict, n: int, seed: int) -> mixing.SequenceSample:
    """Dispatch a DGP configuration {generator, params} to its generator."""
    gen = dgp_cfg["generator"]
    params = dict(dgp_cfg.get("params", {}))
    if gen == "iid_uniform":
        return mixing.gen_iid_uniform(n, seed)
    if gen == "renewal":
        return mixing.gen_renewal_chain(params["tail_exponent"],
                                        params.get("l_max", 10_000), n, seed)
    if gen == "ar1":
        return mixing.gen_ar1(params["a"], n, seed)
    if gen == "markov":
        return mixing.gen_finite_markov(np.asarray(params["transition"]),
                                        np.asarray(params["state_values"]),
                                        n, seed)
    raise ValueError(f"unknown generator {gen!r}")


def gn_stat(sample: mixing.SequenceSample, statistic: str,
            cdf_oracle: CdfOracle) -> float:
    """Exact sqrt(n)-scaled centered supremum via the class oracles."""
    if cdf_oracle is None:
        raise ValueError("a CDF oracle for the marginal law is required")
    try:
        fn = _STATISTICS[statistic]
    except KeyError:
        raise ValueError(f"unknown statistic {statistic!r}") from None
    return fn(sample.values, cdf_oracle)


def pairwise_sum(x: np.ndarray) -> float:
    """Fixed-tree pairwise summation: the reduction order is a function of
    the length only, so serial and parallel accumulation agree bitwise."""
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        return 0.0
    while len(x) > 1:
        if len(x) % 2:
            x = np.concatenate((x, [0.0]))
        x = x[0::2] + x[1::2]
    return float(x[0])


def jackknife_se(x: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the mean."""
    x = np.asarray(x, dtype=float)
    r = len(x)
    if r < 2:
        return 0.0
    total = pairwise_sum(x)
    loo = (total - x) / (r - 1)
    center = pairwise_sum(loo) / r
    return math.sqrt((r - 1) / r * pairwise_sum((loo - center) ** 2))


def mc_sup_expectation(dgp_cfg: dict, statistic: str, n: int,
                       replications: int, base_seed: int,
                       cdf_oracle: CdfOracle) -> tuple[float, float]:
    """Replica r uses seed base_seed + r; returns (mean, jackknife SE).

    The reduction uses fixed-tree pairwise summation, so the result is
    independent of evaluation order.
    """
    if replications < 30:
        raise ValueError("need at least 30 replications")
    vals = np.empty(replications)
    for r in range(replications):
        try:
            sample = generate(dgp_cfg, n, base_seed + r)
        except Exception as exc:
            raise RuntimeError(f"generator failed at replica {r}: {exc}") from exc
        vals[r] = gn_stat(sample, statistic, cdf_oracle)
    return pairwise_sum(vals) / replications, jackknife_se(vals)


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(estimate) against log(n)."""

    n_grid: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    slope: float
    slope_se: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if len(self.n_grid) < 4 or np.any(np.diff(self.n_grid) <= 0):
            raise ValueError("need >= 4 strictly increasing n values")
        if np.any(self.estimates <= 0):
            raise ValueError("estimates must be positive")


def slope_fit(pairs, standard_errors=None) -> SlopeFit:
    """Ordinary least squares on (log n, log estimate)."""
    pairs = sorted(pairs)
    n_grid = np.array([p[0] for p in pairs], dtype=float)
    est = np.array([p[1] for p in pairs], dtype=float)
    if np.any(est <= 0):
        raise ValueError("estimates must be positive")
    x, y = np.log(n_grid), np.log(est)
    k = len(x)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(k - 2, 1)
    slope_se = math.sqrt(float(np.dot(resid, resid)) / dof / float(np.dot(xc, xc)))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    se = (np.zeros(k) if standard_errors is None
          else np.asarray(standard_errors, dtype=float))
    return SlopeFit(n_grid, est, se, slope, max(slope_se, 1e-15), intercept, r2)


# ---------------------------------------------------------------------------
# Variance-bound audit on exact finite chains


_ORLICZ_REL_TOL = 1e-10


def orlicz_norm_finite(values: np.ndarray, weights: np.ndarray, r: float) -> float:
    """Gauge norm inf{t > 0 : E (h/t)^r <= 1} on a finite distribution,
    located by bisection on t (equals the L_r norm for the power family)."""
    if r <= 2:
        raise ValueError("r must exceed 2")
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if np.all(values * weights == 0):
        return 0.0
    # For weights >= 0 and finite r, ok(t) and root = ||h||_r each carry a
    # relative rounding of O(m eps), far inside the band: outside it ok(t)
    # is t > root, so only the probes inside it evaluate the sum
    top = float(values.max())
    with np.errstate(all="ignore"):
        root = top * float(np.dot(weights, (values / top) ** r)) ** (1.0 / r)
    band = 1e-12 * (len(values) + 6) * root
    if not (np.all(weights >= 0) and math.isfinite(r) and 0 < root < math.inf):
        band = math.inf

    def ok(t):
        if abs(t - root) > band:
            return t > root
        return float(np.dot(weights, (values / t) ** r)) <= 1.0

    hi = max(top, 1e-300)
    lo = hi * 1e-6
    while not ok(hi):
        hi *= 2.0
    while ok(lo):
        lo /= 2.0
    return _geometric_bisect(ok, lo, hi, _ORLICZ_REL_TOL)


@dataclass(frozen=True)
class VarianceBoundReport:
    lhs: float
    rhs: float
    holds: bool
    orlicz_norm: float
    lambda_value: float


def verify_variance_bound(transition: np.ndarray, stationary: np.ndarray,
                          h: np.ndarray, q: int | Sequence[int],
                          r: float | Sequence[float]) -> VarianceBoundReport | list:
    """Exact check of Var(sum_{i=1}^q h(X_i)) <= q ||h||^2 (c^2 + 2 Lambda(q))
    on a finite stationary chain, with every expectation computed from
    matrix powers (no sampling).

    ``q`` (each >= 1) and ``r`` (each > 2) are numbers or 1-D grids: two
    numbers give one report, otherwise a list over q of lists over r.  The
    covariances, one q-by-r Lambda table over a single beta array, and one
    Orlicz norm per r are computed once per call; each case then does a
    single call's arithmetic.
    """
    qs = np.atleast_1d(q).tolist()
    rs = np.atleast_1d(r).tolist()
    if min(qs, default=1) < 1 or min(rs, default=3) <= 2:
        raise ValueError("q must be >= 1 and r must exceed 2")
    profile = mixing.MixingProfile(
        kind=mixing.ProfileKind.EXACT_MARKOV, flavor=mixing.MixingFlavor.BETA,
        transition=transition, stationary=stationary)
    transition, stationary = profile.transition, profile.stationary
    h = np.asarray(h, dtype=float)
    hc = h - float(np.dot(stationary, h))
    cov = [float(np.dot(stationary, hc * hc))]  # cov[k] = Cov(h(X_0), h(X_k))
    q_max = max(qs, default=1)
    pk, powers = np.eye(len(h)), []
    for k in range(1, q_max):
        pk = pk @ transition
        powers.append(pk)
        if len(powers) * pk.size >= 4096 or k == q_max - 1:
            # stacked, each P^k meets the gemv and dot kernels of
            # stationary @ (hc * (P^k @ hc)), so the rounding is the same
            cov += (stationary @ (hc * (np.array(powers) @ hc))[..., None]).ravel().tolist()
            powers = []
    lams = lambda_phi_beta(profile, qs, rs).tolist()  # one beta array
    per_r = [(orlicz_norm_finite(h, stationary, ri), c_phi(ri) ** 2) for ri in rs]
    reports = []
    for qi, lam_row in zip(qs, lams):
        lhs = qi * cov[0]
        for k in range(1, qi):
            lhs += 2 * (qi - k) * cov[k]
        reports.append([])
        for lam, (norm, c2) in zip(lam_row, per_r):
            rhs = qi * norm ** 2 * (c2 + 2.0 * lam)
            reports[-1].append(VarianceBoundReport(
                lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9 * rhs,
                orlicz_norm=norm, lambda_value=lam))
    return reports[0][0] if np.ndim(q) == np.ndim(r) == 0 else reports


# ---------------------------------------------------------------------------
# Isotonic ERM demonstration


def pava_isotonic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: exact minimizer of sum (y_i - f_i)^2 over
    non-decreasing f at sorted abscissae x."""
    from scipy.optimize import isotonic_regression

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if np.any(np.diff(x) < 0):
        raise ValueError("x must be sorted")
    return isotonic_regression(y).x


def erm_risk_curve(noise_cfg: dict, f_star, n_grid, replications: int,
                   base_seed: int = 0) -> SlopeFit:
    """Mean squared error of the isotonic least-squares fit of a monotone
    target observed on a fixed equispaced design with time-ordered noise.

    The design is x_i = i/(n+1); keeping the noise in its generation order
    preserves its serial dependence in the regression residuals.
    """
    points = []
    ses = []
    for idx, n in enumerate(n_grid):
        x = np.arange(1, n + 1) / (n + 1)
        target = np.asarray([f_star(t) for t in x])
        errs = np.empty(replications)
        for rep in range(replications):
            sample = generate(noise_cfg, n, base_seed + 1000 * idx + rep)
            noise = sample.values - np.mean(sample.values)
            fit = pava_isotonic(x, target + noise)
            errs[rep] = float(np.mean((fit - target) ** 2))
        points.append((n, max(pairwise_sum(errs) / replications, 1e-300)))
        ses.append(jackknife_se(errs))
    return slope_fit(points, ses)
