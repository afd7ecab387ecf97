"""Monte-Carlo estimation of expected empirical-process suprema, log-log
slope fitting, the exact finite-chain variance-bound audit, and a small
isotonic-regression ERM demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mixing
from .classes import CdfOracle, sup_halflines, sup_lipschitz_w1
from .rates import c_phi, lambda_phi_beta

# the extreme points of the monotone [0,1]-valued functions are upper-set
# indicators, so by complement symmetry their centered supremum is the
# half-line one (exact, like it, only for a continuous F)
_STATISTICS = {"ks": sup_halflines, "monotone": sup_halflines,
               "w1": sup_lipschitz_w1}
# bracketing-entropy exponent alpha of each statistic's class: half-lines
# are VC (alpha 0); monotone and 1-Lipschitz functions on [0, 1] have alpha 1
_ENTROPY_EXPONENTS = {"ks": 0, "monotone": 1, "w1": 1}

# generator name -> (draw (params, n, seed) -> SequenceSample, JSON schema of
# its params, marginal law if not Uniform[0, 1]).  A draw looks its mixing
# function up when it runs: perfbench's tracer rebinds module attributes, and
# a function object kept in a tuple would run untraced
_GENERATORS = {
    "iid_uniform": (lambda p, n, seed: mixing.gen_iid_uniform(n, seed), {}, None),
    "renewal": (
        lambda p, n, seed: mixing.gen_renewal_chain(
            p["tail_exponent"], p.get("l_max", 10_000), n, seed),
        {"properties": {"tail_exponent": {"type": "number", "exclusiveMinimum": 0},
                        "l_max": {"type": "integer", "minimum": 1}},
         "required": ["tail_exponent"]}, None),
    "ar1": (
        lambda p, n, seed: mixing.gen_ar1(p["a"], n, seed),
        {"properties": {"a": {"type": "number", "exclusiveMinimum": -1,
                              "exclusiveMaximum": 1}},
         "required": ["a"]}, "Gaussian N(0, 1/(1 - a^2))"),
    "markov": (
        lambda p, n, seed: mixing.gen_finite_markov(
            p["transition"], p["state_values"], n, seed),
        {"properties": {"transition": {"type": "array", "minItems": 1},
                        "state_values": {"type": "array", "minItems": 1}},
         "required": ["transition", "state_values"]}, "discrete (on state_values)"),
}


def generate(dgp_cfg: dict, n: int, seed: int) -> mixing.SequenceSample:
    """Dispatch a DGP configuration {generator, params} to its generator."""
    gen = dgp_cfg["generator"]
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    return _GENERATORS[gen][0](dgp_cfg.get("params", {}), n, seed)


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
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if cdf_oracle is None:
        raise ValueError("a CDF oracle for the marginal law is required")
    vals = np.empty(replications)
    for r in range(replications):
        try:
            sample = generate(dgp_cfg, n, base_seed + r)
        except Exception as exc:
            raise RuntimeError(f"generator failed at replica {r}: {exc}") from exc
        vals[r] = _STATISTICS[statistic](sample.values, cdf_oracle)
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


def slope_fit(pairs, standard_errors=None) -> SlopeFit:
    """Ordinary least squares on (log n, log estimate)."""
    pairs = list(pairs)
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    n_grid = np.array([pairs[i][0] for i in order], dtype=float)
    est = np.array([pairs[i][1] for i in order], dtype=float)
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
          else np.asarray(standard_errors, dtype=float)[order])
    return SlopeFit(n_grid, est, se, slope, max(slope_se, 1e-15), intercept, r2)


# ---------------------------------------------------------------------------
# Variance-bound audit on exact finite chains


_ORLICZ_REL_TOL = 1e-10


def orlicz_norm_finite(values: np.ndarray, weights: np.ndarray, r: float) -> float:
    """Gauge norm inf{t > 0 : E (h/t)^r <= 1} on a finite distribution,
    located by bisection on t (equals the L_r norm for the power family)."""
    if not r > 2:
        raise ValueError("r must exceed 2")
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    # a NaN or an inf makes every probe below False, so the bracket never ends
    if not (np.isfinite(values).all() and np.isfinite(weights).all()):
        raise ValueError("values and weights must be finite")
    if (values * weights == 0).all():
        return 0.0
    # For weights >= 0 and finite r, ok(t) and root = ||h||_r each carry a
    # relative rounding of O(m eps), far inside the band: outside it ok(t)
    # is t > root, so only the probes inside it evaluate the sum
    top = float(values.max())
    root = top * float(np.dot(weights, (values / top) ** r)) ** (1.0 / r)
    band = 1e-12 * (len(values) + 6) * root
    if not ((weights >= 0).all() and math.isfinite(r) and 0 < root < math.inf):
        band = math.inf

    def ok(t):
        return t > root if abs(t - root) > band else \
            float(np.dot(weights, (values / t) ** r)) <= 1.0

    hi = max(top, 1e-300)
    lo = hi * 1e-6
    while not ok(hi):
        hi *= 2.0
    while ok(lo):
        lo /= 2.0
    # rates._geometric_bisect, with ok's comparison inlined
    while hi / lo > 1.0 + _ORLICZ_REL_TOL:
        mid = math.sqrt(lo * hi)
        if mid > root if abs(mid - root) > band else ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    qs = mixing._gap_list(q, 1)
    rs = np.atleast_1d(r).tolist()
    if not all(ri > 2 for ri in rs):
        raise ValueError("r must exceed 2")
    profile = mixing.MixingProfile(
        kind=mixing.ProfileKind.EXACT_MARKOV, flavor=mixing.MixingFlavor.BETA,
        transition=transition, stationary=stationary)
    transition, stationary = profile.transition, profile.stationary
    h = np.asarray(h, dtype=float)
    if h.shape != stationary.shape or not np.isfinite(h).all():
        raise ValueError("h must hold one finite number per state")
    hc = h - float(np.dot(stationary, h))
    cov = [float(np.dot(stationary, hc * hc))]  # cov[k] = Cov(h(X_0), h(X_k))
    q_max = max(qs, default=1)
    # P^k for k < q_max, a chunk of at most 4096 entries at a time in
    # powers[1:]; powers[0] carries the chunk's last power into the next
    chunk = -(-4096 // transition.size)
    powers = np.empty((min(chunk, q_max - 1) + 1,) + transition.shape)
    powers[0] = np.eye(len(h))
    for start in range(1, q_max, chunk):
        block = powers[:min(chunk, q_max - start) + 1]
        prev = block[0]
        for pk in block[1:]:
            np.dot(prev, transition, out=pk)
            prev = pk
        # stacked, each P^k meets the gemv and dot kernels of
        # stationary @ (hc * (P^k @ hc)), so the rounding is the same
        cov += (stationary @ (hc * (block[1:] @ hc))[..., None]).ravel().tolist()
        powers[0] = prev
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


def erm_risk_curve(noise_cfg: dict, f_star, n_grid, replications: int,
                   base_seed: int = 0) -> SlopeFit:
    """Mean squared error of the isotonic least-squares fit of a monotone
    target observed on a fixed equispaced design with time-ordered noise.

    The design is x_i = i/(n+1); keeping the noise in its generation order
    preserves its serial dependence in the regression residuals.
    """
    from scipy.optimize import isotonic_regression

    points = []
    ses = []
    for idx, n in enumerate(n_grid):
        x = np.arange(1, n + 1) / (n + 1)
        target = np.asarray([f_star(t) for t in x])
        errs = np.empty(replications)
        for rep in range(replications):
            sample = generate(noise_cfg, n, base_seed + 1000 * idx + rep)
            noise = sample.values - np.mean(sample.values)
            fit = isotonic_regression(target + noise).x
            errs[rep] = float(np.mean((fit - target) ** 2))
        points.append((n, max(pairwise_sum(errs) / replications, 1e-300)))
        ses.append(jackknife_se(errs))
    return slope_fit(points, ses)
