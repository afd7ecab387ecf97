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


def _check_replicas(replications: int, base_seed: int, minimum: int = 1) -> None:
    """A replica loop's entry checks; numpy's generators take no negative seed."""
    if replications < minimum:
        raise ValueError(f"need at least {minimum} replications")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")


def _replicates(draw, n_grid, seeds) -> np.ndarray:
    """The (len(n_grid), replications) matrix of draw(n, seed), row i over the
    seeds seeds[i] (a tuple draw adds a last axis): the package's one replica loop."""
    rows = []
    for n, row in zip(n_grid, seeds):
        rows.append([])
        for r, seed in enumerate(row):
            try:
                rows[-1].append(draw(n, seed))
            except Exception as exc:
                raise RuntimeError(f"replica {r} at n = {n} failed: {exc}") from exc
    return np.array(rows, dtype=float)


def _mean_se(matrix: np.ndarray) -> tuple[list[float], list[float]]:
    """Pairwise-sum mean and jackknife SE of each row of a replicate matrix."""
    return ([pairwise_sum(row) / len(row) for row in matrix],
            [jackknife_se(row) for row in matrix])


def mc_sup_expectation(dgp_cfg: dict, statistic: str, n_grid, replications: int,
                       base_seed: int, cdf_oracle: CdfOracle) -> np.ndarray:
    """The (len(n_grid), replications) matrix of the statistic's supremum;
    replica r draws seed base_seed + r at every n."""
    _check_replicas(replications, base_seed, 30)
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if cdf_oracle is None:
        raise ValueError("a CDF oracle for the marginal law is required")
    seeds = range(base_seed, base_seed + replications)
    return _replicates(lambda n, seed: _STATISTICS[statistic](
        generate(dgp_cfg, n, seed).values, cdf_oracle), n_grid, [seeds] * len(n_grid))


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


def _check_sizes(sizes) -> None:
    if len(sizes) < 4 or len(set(sizes)) < len(sizes):
        raise ValueError("need >= 4 n values, none repeated")


def slope_fit(pairs, standard_errors=None) -> SlopeFit:
    """Ordinary least squares on (log n, log estimate)."""
    pairs = list(pairs)
    _check_sizes([n for n, _ in pairs])
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
    if not weights.all():
        # an atom of weight 0 carries no mass: it must not set the bracket,
        # nor turn (v/t)^r into 0 * inf = nan
        values, weights = values[weights != 0], weights[weights != 0]
    signed = not (weights >= 0).all()
    if signed:
        # sum w |v|^r <= 0 makes E (h/t)^r <= 1 at every t, so the gauge is
        # its infimum; the sign is read relative to the largest |v|
        if not float(np.dot(weights, (values / values.max()) ** r)) > 0:
            return 0.0
    # For weights >= 0 and finite r, ok(t) and root = ||h||_r each carry a
    # relative rounding of O(m eps), far inside the band: outside it ok(t)
    # is t > root, so only the probes inside it evaluate the sum
    top = float(values.max())
    root = top * float(np.dot(weights, (values / top) ** r)) ** (1.0 / r)
    band = 1e-12 * (len(values) + 6) * root
    if signed or not (math.isfinite(r) and 0 < root < math.inf):
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


def _check_seed_rule(offsets, replications: int, per_replica: int = 1) -> None:
    """Reject a seed rule that gives replica rep at each offset o the seeds
    o + per_replica * rep + (0, ..., per_replica - 1) when two of them
    coincide, that is when two offsets lie closer than the seeds they span."""
    room = np.diff(np.sort(np.ravel(offsets))) // per_replica
    if room.size and room.min() < replications:
        raise ValueError(f"{replications} replications repeat a seed; this seed "
                         f"rule holds at most {room.min()}")


def erm_risk_curve(noise_cfg: dict, f_star, n_grid, replications: int,
                   base_seed: int = 0) -> SlopeFit:
    """Mean squared error of the isotonic least-squares fit of a monotone
    target observed on a fixed equispaced design with time-ordered noise.

    The design is x_i = i/(n+1); keeping the noise in its generation order
    preserves its serial dependence in the regression residuals.
    """
    from scipy.optimize import isotonic_regression

    _check_replicas(replications, base_seed)
    offsets = 1000 * np.arange(len(n_grid))  # replica rep: base_seed + offset + rep
    _check_seed_rule(offsets, replications)
    _check_sizes(n_grid)
    seeds = [range(base_seed + o, base_seed + o + replications) for o in offsets.tolist()]
    targets = {n: np.asarray([f_star(t) for t in np.arange(1, n + 1) / (n + 1)])
               for n in n_grid}

    def draw(n, seed):
        noise = generate(noise_cfg, n, seed).values
        fit = isotonic_regression(targets[n] + (noise - np.mean(noise))).x
        return float(np.mean((fit - targets[n]) ** 2))

    means, ses = _mean_se(_replicates(draw, n_grid, seeds))
    return slope_fit(zip(n_grid, np.maximum(means, 1e-300)), ses)
