"""Pivotal quantities and closed-form rates for empirical-process suprema
under mixing dependence.

All bounds are "unconstanted": every absolute constant is set to 1 and
acceptance is phrased in exponents and slopes, never in constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .mixing import MixingFlavor, MixingProfile, _gap_list
from .classes import EntropyModel, entropy_eval


class BoundaryParameterError(ValueError):
    """Raised when parameters sit exactly on an excluded phase boundary."""


class ScaleError(ValueError):
    """Raised when the norm radius is below the admissible scale."""


def _geometric_bisect(pred: Callable[[float], bool], lo: float, hi: float,
                      rel_tol: float) -> float:
    """Shrink [lo, hi], with pred false at lo and true at hi, to its geometric
    midpoint's side until hi/lo <= 1 + rel_tol; return hi."""
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _require_beta(profile: MixingProfile) -> None:
    if profile.flavor != MixingFlavor.BETA:
        raise ValueError("the bound needs beta-mixing coefficients, got a "
                         f"{profile.flavor.value}-mixing profile")


def c_phi(r: float) -> float:
    """sqrt(1 + sup_{x>=0}(x - x**(r/2))), maximized at x = (2/r)**(2/(r-2))."""
    if not r > 2:
        raise ValueError("power index r must exceed 2 (linear phi excluded)")
    if math.isinf(r):
        return math.sqrt(2.0)
    x_star = (2.0 / r) ** (2.0 / (r - 2.0))
    return math.sqrt(1.0 + x_star - x_star ** (r / 2.0))


def lambda_phi_beta(profile: MixingProfile, q: int | Sequence[int],
                    r: float | Sequence[float]) -> float | np.ndarray:
    """Cumulative Orlicz-weighted mixing mass
    sum_{i=0}^q integral_0^{beta_i} u**(-2/r) du = (1-2/r)^{-1} sum beta_i**(1-2/r).

    ``q`` (gaps >= 0) and ``r`` (each > 2) are numbers or 1-D grids: two
    numbers give a float, otherwise an array of shape q's shape + r's shape.
    One ``profile.coefficient`` grid call up to the largest gap serves every
    case, so an exact Markov profile costs O(q log q) small matrix products.
    """
    rs = np.atleast_1d(r).tolist()
    if not all(ri > 2 for ri in rs):
        raise ValueError("r must exceed 2")
    gaps = _gap_list(q, 0)
    _require_beta(profile)
    coeffs = profile.coefficient(np.arange(max(gaps, default=0) + 1))
    out = np.array([_lambdas(coeffs, gaps, rj) for rj in rs]).T
    return float(out[0, 0]) if np.ndim(q) == np.ndim(r) == 0 else \
        out.reshape(np.shape(q) + np.shape(r))


def _lambdas(coeffs: np.ndarray, gaps: Sequence[int], r: float) -> list[float]:
    """Lambda(g) = (1-2/r)^{-1} sum_{i<=g} coeffs[i]**(1-2/r) for each gap g
    of one beta array reaching the largest gap; callers check r > 2."""
    p = 1.0 - 2.0 / r
    return [float(np.sum(coeffs[:g + 1] ** p) / p) for g in gaps]


# ---------------------------------------------------------------------------
# tau_q


def _entropy_dyadic_sum(entropy: EntropyModel,
                        delta: float | np.ndarray) -> float | np.ndarray:
    """1 + sum over k >= 0 with 2**(-k) sigma >= delta of H(2**(-k) sigma), for
    a scale delta (a float) or an array of scales (an array), read off one
    sequential cumsum of the terms: bit for bit the one-at-a-time sum."""
    deltas = np.atleast_1d(delta)
    scales = []
    while entropy.sigma * 2.0 ** (-len(scales)) >= deltas.min():
        scales.append(entropy.sigma * 2.0 ** (-len(scales)))
    sums = np.cumsum([1.0] + [entropy_eval(entropy, u) for u in scales])
    # number of scales >= each delta (the scales decrease, so -scales increase)
    counts = np.searchsorted(-np.array(scales), -deltas, side="right")
    return float(sums[counts[0]]) if np.ndim(delta) == 0 else sums[counts]


def _first_crossings(profile: MixingProfile, slopes: Sequence[float],
                     n: int) -> tuple[list[int], np.ndarray]:
    """For each slope s, the first q in [0, n] with beta_q <= q * s, read off
    one beta array that doubles in length (q_max = 1, 2, 4, ..., capped at
    n) until every slope has crossed, each gap computed once; returns the
    crossings and that array.  ``ValueError`` if some slope never crosses."""
    beta, q_max = np.empty(0), 1
    while True:
        beta = np.concatenate((beta, profile.coefficient(np.arange(len(beta), q_max + 1))))
        qs = np.arange(q_max + 1)
        firsts = [int(np.argmax(beta <= qs * s)) for s in slopes]
        if all(beta[q] <= q * s for q, s in zip(firsts, slopes)):  # argmax is 0 if none
            return firsts, beta
        if q_max == n:
            raise ValueError("no admissible q in [0, n]")
        q_max = min(2 * q_max, n)


def tau_q(profile: MixingProfile, entropy: EntropyModel, delta: float,
          n: int) -> int:
    """Smallest q in [0, n] with beta_q <= (q/n) * (1 + dyadic entropy sum),
    by one ``_first_crossings`` search.  Raises ``ValueError`` when no q in
    [0, n] crosses or the profile does not describe beta-mixing."""
    if not (0 < delta <= entropy.sigma):
        raise ValueError("delta must lie in (0, sigma]")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_beta(profile)
    return _first_crossings(profile, [_entropy_dyadic_sum(entropy, delta) / n], n)[0][0]


# ---------------------------------------------------------------------------
# Finite-class maximal inequality


def finite_class_bound(sigma: float, b: float, cardinality: int, n: int,
                       profile: MixingProfile, r: float) -> float:
    """inf over q in [1, n] of
    sigma*pi(q)*sqrt(1+log|F|) + b*q*(1+log|F|)/sqrt(n) + b*beta_q*sqrt(n),
    with pi(q) = sqrt(c_phi**2 + 2*Lambda(q)).  Absolute constant K = 1."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if sigma <= 0 or b <= 0:
        raise ValueError("sigma and b must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_beta(profile)
    c = c_phi(r)  # rejects r <= 2 before 1 - 2/r is formed
    p = 1.0 - 2.0 / r
    coeffs = profile.coefficient(np.arange(n + 1))
    lam = np.cumsum(coeffs ** p) / p
    q = np.arange(1, n + 1)
    pi_q = np.sqrt(c ** 2 + 2.0 * lam[1:])
    log_card = 1.0 + math.log(cardinality)
    betas = coeffs[1:]
    vals = (sigma * pi_q * math.sqrt(log_card)
            + b * q * log_card / math.sqrt(n)
            + b * betas * math.sqrt(n))
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Main chaining bound


@dataclass(frozen=True)
class RateBound:
    """Solved chaining budget plus the block remainder term."""

    a: float
    tail_term: float
    total: float
    tau_at_sigma: int
    lambda_at_sigma: float
    integral_residual: float


_MAIN_BOUND_GRID_PER_DECADE = 64


def main_bound(entropy: EntropyModel, profile: MixingProfile, n: int,
               r: float) -> RateBound:
    """Chaining bound: the smallest a in [0, 8 sqrt(n) sigma] with
    integral_{a/(64 sqrt(n))}^{sigma} sqrt(R1(u)) du <= a, plus the block
    remainder b * tau_q(sigma) * (1 + H(sigma)) / sqrt(n).

    R1(u) is the non-increasing majorant of Lambda(tau(u)) * (1 + H(u)) on
    a geometric u-grid ending at sigma.  The nodes share few distinct
    slopes of tau's crossing condition, and one first-crossing search
    (``_first_crossings``) reads every node's tau and Lambda off one beta array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not r > 2:
        raise ValueError("r must exceed 2")
    _require_beta(profile)
    sigma, b = entropy.sigma, entropy.b
    sqrt_n = math.sqrt(n)
    a_hi = 8.0 * sqrt_n * sigma
    u_floor = sigma * 1e-9 / sqrt_n
    n_pts = max(2, int(_MAIN_BOUND_GRID_PER_DECADE * math.log10(sigma / u_floor)) + 1)
    grid = np.geomspace(u_floor, sigma, n_pts)  # grid[-1] == sigma exactly
    slopes = (_entropy_dyadic_sum(entropy, grid) / n).tolist()
    # the dyadic sum is a step function of u: few distinct slopes
    steps = sorted(set(slopes))
    crossings, beta = _first_crossings(profile, steps, n)
    first = dict(zip(steps, crossings))
    taus = [first[s] for s in slopes]
    distinct = sorted(set(taus))
    lam = dict(zip(distinct, _lambdas(beta, distinct, r)))
    psi = np.maximum.accumulate([lam[t] for t in taus])  # non-decreasing in u
    h = np.array([entropy_eval(entropy, u) for u in grid])
    r1 = psi * (1.0 + h)
    # non-increasing majorant: running max from large u downward
    sqrt_r1 = np.sqrt(np.maximum.accumulate(r1[::-1])[::-1])
    log_u = np.log(grid)
    # cumulative integral of sqrt(R1) from each node to sigma (trapezoid in
    # log space: integral f du = integral f*u dlog u); grid density plays the
    # role of the adaptive refinement (64 points/decade << 1e-6 rel error for
    # smooth power-log integrands)
    w = sqrt_r1 * grid
    seg = 0.5 * (w[1:] + w[:-1]) * np.diff(log_u)
    cum_from_right = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))

    def entropy_integral(a: float) -> float:
        lo = max(a / (64.0 * sqrt_n), u_floor)
        if lo >= sigma:
            return 0.0
        i = int(np.searchsorted(grid, lo, side="right"))
        # partial segment from lo to grid[i]
        wi = np.interp(math.log(lo), log_u, w)
        part = 0.5 * (wi + w[i]) * (log_u[i] - math.log(lo))
        return part + cum_from_right[i]

    def g(a: float) -> float:
        return entropy_integral(a) - a

    if g(a_hi) > 0:
        raise ScaleError("no admissible chaining budget: sigma below the "
                         "admissible scale for this entropy/mixing pair")
    a_lo = a_hi * 1e-14
    if g(a_lo) <= 0:
        a = a_lo
    else:
        a = _geometric_bisect(lambda x: g(x) <= 0, a_lo, a_hi, 1e-9)
    tq = taus[-1]
    tail = b * tq * (1.0 + entropy_eval(entropy, sigma)) / sqrt_n
    return RateBound(a=a, tail_term=tail, total=a + tail, tau_at_sigma=tq,
                     lambda_at_sigma=lam[tq], integral_residual=g(a))


# ---------------------------------------------------------------------------
# Regime classification


class Regime(str, Enum):
    IID_LIKE = "iid_like"
    DEPENDENCE_DOMINATED = "dependence_dominated"
    DONSKER_BOUNDED = "donsker_bounded"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    exponent: Fraction | None

    def __post_init__(self):
        if self.exponent is not None and not (0 <= self.exponent < Fraction(1, 2)):
            raise ValueError("exponent must lie in [0, 1/2)")


def _near(x, y, tol=1e-12):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _regime_table(beta, r):
    """(beta_star, boundary-curve alpha, dependence-dominated exponent) at decay
    beta, in beta's number type; r > 2 is of that type or the float inf."""
    if math.isinf(r):
        return 1, (1 + beta) / beta, (1 - beta) / (2 * (1 + beta))
    return (r / (r - 2), r * (1 + beta) / (beta * (r - 1)),
            (1 - beta * (1 - 2 / r)) / (2 * (1 + beta)))


def rate_exponent(alpha, dep_exponent, r_or_inf=math.inf) -> RegimeReport:
    """Regime and n-exponent of the expected supremum for an entropy exponent
    alpha and polynomial mixing decay exponent.

    Sup-norm brackets (r = inf): decay > 1 gives the short-range table
    (alpha < 2 bounded; alpha > 2 exponent 1/2 - 1/alpha); decay < 1 gives
    the long-range table with boundary curve alpha = (1+beta)/beta.  Finite
    r > 2 is analogous with decay threshold r/(r-2) and boundary curve
    alpha = r(1+beta)/(beta(r-1)).  Exact boundary inputs are flagged, never
    assigned an exponent.
    """
    a, beta, r = float(alpha), float(dep_exponent), float(r_or_inf)
    if a < 0 or beta <= 0:
        raise ValueError("need alpha >= 0 and dep_exponent > 0")
    if not (r > 2):
        raise ValueError("norm index must exceed 2 (or be inf)")
    alpha_frac = Fraction(alpha).limit_denominator(10**6)
    # a beta below 5e-7 would round to the excluded 0, and an r within 5e-7
    # of 2 onto the excluded 2: each is then kept exact
    beta_frac = Fraction(dep_exponent).limit_denominator(10**6) or Fraction(dep_exponent)
    r_frac = r if math.isinf(r) else Fraction(r).limit_denominator(10**6)
    if r_frac <= 2:
        r_frac = Fraction(r)
    beta_star, curve, dep_exp = _regime_table(beta_frac, r_frac)
    below = Regime.DEPENDENCE_DOMINATED
    if beta_frac >= beta_star:
        # the curve meets alpha = 2 at beta_star; off-curve values classify too
        curve, dep_exp, below = 2, Fraction(0), Regime.DONSKER_BOUNDED
    if alpha_frac == curve:
        return RegimeReport(Regime.BOUNDARY, None)
    if alpha_frac > curve:
        return RegimeReport(Regime.IID_LIKE, Fraction(1, 2) - 1 / alpha_frac)
    return RegimeReport(below, dep_exp)


# ---------------------------------------------------------------------------
# Gamma-mixing maximal inequality


def pi_n(entropy: EntropyModel, gamma: float, sigma: float, n: int,
         enforce_scale: bool = True) -> float:
    """Three-case maximal-inequality bound under polynomial gamma-mixing.

    Cases split on alpha versus r_tilde = min(r, 2) and r_tilde*(1+1/gamma);
    case boundaries are rejected, as are radii below the case's admissible
    scale (unless enforce_scale=False, used by the localization solver whose
    fixed point sits exactly at the scale floor).
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    theta, alpha, V = entropy.theta, entropy.alpha, entropy.V
    D = entropy.K * entropy.D  # the entropy constant, as entropy_eval reads it
    r_t = min(entropy.r, 2.0)
    log_s = math.log(entropy.B / sigma)
    base = D * (theta / sigma) ** alpha * log_s ** V
    if enforce_scale and base > n:
        raise ScaleError("entropy mass at the radius exceeds n")
    g1 = gamma / (gamma + 1.0)
    term_vc = (sigma ** (r_t / 2.0)
               * (D * (theta / sigma) ** alpha) ** (gamma / (2 * (gamma + 1)))
               * n ** (1.0 / (2 * (gamma + 1)))
               * log_s ** (V * gamma / (2 * (gamma + 1))))
    term_block = n ** (0.5 - g1) * base ** g1
    if _near(alpha, r_t) or _near(alpha, r_t * (1 + 1 / gamma)):
        raise BoundaryParameterError("alpha at a case boundary")
    if alpha < r_t:
        return term_vc + term_block
    if alpha < r_t * (1 + 1 / gamma):
        floor = n ** (-1.0 / (alpha + 2 - r_t))
        if enforce_scale and sigma < floor:
            raise ScaleError(f"sigma below admissible scale {floor:.3e}")
        extra = ((D * theta ** alpha * n ** ((r_t - alpha) / 2.0))
                 ** (-1.0 / (alpha + 2 - r_t)) * log_s ** (V / 2.0))
        return term_vc + term_block + extra
    floor = n ** (-1.0 / (alpha + (2 - r_t) * (1 + 1 / gamma)))
    if enforce_scale and sigma < floor:
        raise ScaleError(f"sigma below admissible scale {floor:.3e}")
    denom = alpha * gamma + (2 - r_t) * (gamma + 1)
    t1 = (n ** ((gamma * (alpha - r_t) + (2 - r_t)) / (2 * denom))
          * (D * theta ** alpha) ** (gamma / denom)
          * log_s ** (V * gamma / (2 * (gamma + 1))))
    t3 = (n ** (1.0 / (2 * (gamma + 1))) * sigma ** (r_t / 2.0)
          * base ** (gamma / (2 * (gamma + 1))))
    t4 = (n ** (gamma * (alpha - r_t) / (2 * denom))
          * (D * theta ** alpha) ** ((2 * gamma + 2 - r_t) / (2 * denom))
          * log_s ** (V / 2.0))
    return t1 + term_block + t3 + t4


_DELTA_DECADES = 6.0
_DELTA_GRID_PER_DECADE = 32


def solve_delta_n(pi_fn: Callable[[float], float], n: int, t: float,
                  delta_max: float = 1.0) -> float:
    """Smallest delta with pi_fn(delta) <= sqrt(n) * delta**2.

    Requires pi_fn(delta)/delta**t non-increasing for some t in (0, 2)
    (audited on the search grid); the crossing is bracketed on a geometric
    grid and refined by bisection to relative tolerance 1e-6.
    """
    if not (0 < t < 2):
        raise ValueError("t must lie in (0, 2)")
    sqrt_n = math.sqrt(n)
    grid = np.geomspace(delta_max * 10.0 ** (-_DELTA_DECADES), delta_max,
                        int(_DELTA_GRID_PER_DECADE * _DELTA_DECADES) + 1)
    vals = np.array([pi_fn(d) for d in grid])
    ok = vals <= sqrt_n * grid ** 2
    if not ok.any():
        raise ValueError("no crossing: pi_fn(delta) > sqrt(n) delta^2 on grid")
    i = int(np.argmax(ok))
    if i == 0:
        # crossing already holds at the grid infimum; no refinement needed
        return float(grid[0])
    ratio = vals / grid ** t
    if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
        raise ValueError("pi_fn(delta)/delta**t is not non-increasing")
    return _geometric_bisect(lambda d: pi_fn(d) <= sqrt_n * d * d,
                             float(grid[i - 1]), float(grid[i]), 1e-6)


# ---------------------------------------------------------------------------
# Phase diagram


@dataclass(frozen=True)
class PhaseDiagram:
    beta_grid: np.ndarray
    alpha_grid: np.ndarray
    cells: list            # list of (beta, alpha, RegimeReport)
    curve: np.ndarray      # (beta, alpha) boundary polyline


def boundary_curve(beta: float, r_or_inf=math.inf) -> float:
    """Complexity exponent on the phase boundary at dependence exponent beta."""
    beta_star, curve, _ = _regime_table(beta, r_or_inf)
    return curve if beta <= beta_star else 2.0


def phase_diagram(beta_grid, alpha_grid, r_or_inf=math.inf) -> PhaseDiagram:
    beta_grid = np.asarray(beta_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if (beta_grid <= 0).any() or (alpha_grid <= 0).any():
        raise ValueError("grids must be positive")
    cells = [(b, a, rate_exponent(a, b, r_or_inf))
             for b in beta_grid for a in alpha_grid]
    bs = np.geomspace(beta_grid.min(), beta_grid.max(), 256)
    curve = np.column_stack([bs, [boundary_curve(b, r_or_inf) for b in bs]])
    return PhaseDiagram(beta_grid, alpha_grid, cells, curve)


# ---------------------------------------------------------------------------
# Application exponent calculator


def _inflation(gamma: float) -> float:
    """The dependence inflation (1 + gamma)/gamma of a rate, 1 at gamma = inf."""
    return 1.0 if math.isinf(gamma) else (1.0 + gamma) / gamma


def application_exponents(app: str, **p) -> float:
    """Convergence-rate exponents (of n^{-exponent} for the squared risk,
    or as noted) for the worked estimation problems.

    Apps: dnn(s, d, gamma); additive(s, gamma, d_as); convex_worst(d, beta);
    convex_adapt(d, gamma); ot(beta, d); classification(alpha, gamma).
    gamma = math.inf recovers the independent-data exponents exactly.
    """
    if app == "dnn":
        s, d, gamma = p["s"], p["d"], p["gamma"]
        if s <= 0 or d < 1 or gamma <= 0:
            raise ValueError("need s > 0, d >= 1, gamma > 0")
        return s / (d + 2 * s * _inflation(gamma))
    if app == "additive":
        s, gamma, a = p["s"], p["gamma"], p["d_as"]
        if not (0 <= a < 1) or s <= 0 or gamma <= 0:
            raise ValueError("need 0 <= d_as < 1, s > 0, gamma > 0")
        num = 2 * s * (1 - a) - a
        if num <= 0:
            raise ValueError("dimension growth too fast for consistency")
        return num / (2 * s * _inflation(gamma) + 1)
    if app == "convex_worst":
        d, beta = p["d"], p["beta"]
        if d <= 4:
            raise ValueError("worst-case convex regression needs d > 4")
        if _near(beta, 2.0 / (d - 2)) or _near(beta, 1.0):
            raise BoundaryParameterError("beta at an excluded boundary")
        if beta < 2.0 / (d - 2):
            raise ValueError("needs beta > 2/(d-2)")
        return 2.0 / d
    if app == "convex_adapt":
        d, gamma = p["d"], p["gamma"]
        if d <= 8:
            raise ValueError("convex adaptation needs d > 8")
        if _near(gamma, 4.0 / (d - 4)) or _near(gamma, 1.0):
            raise BoundaryParameterError("gamma at an excluded boundary")
        if gamma < 4.0 / (d - 4):
            raise ValueError("needs gamma > 4/(d-4)")
        return 4.0 / d
    if app == "ot":
        beta, d = p["beta"], p["d"]
        if d < 4 or beta <= 0:
            raise ValueError("need d >= 4 and beta > 0")
        if _near(beta, 2.0 / (d - 2)):
            raise BoundaryParameterError("beta at the regime boundary")
        return 2.0 / d if beta > 2.0 / (d - 2) else beta / (beta + 1.0)
    if app == "classification":
        alpha, gamma = p["alpha"], p["gamma"]
        if alpha < 0 or gamma <= 0:
            raise ValueError("need alpha >= 0, gamma > 0")
        inv_g = 0.0 if math.isinf(gamma) else 1.0 / gamma
        return 1.0 / (alpha + 1.0 + inv_g)
    raise ValueError(f"unknown application {app!r}")


def ot_schedule(beta: float, d: int, n: int) -> tuple[int, float]:
    """Sinkhorn iteration count and regularization for the debiased entropic
    transport estimator: (ceil(n^{3/d}), n^{-1/d}) in the fast-mixing regime
    beta > 2/(d-2), else (ceil(n^{3 beta/(2(beta+1))}), n^{-beta/(2(beta+1))})."""
    if d < 4 or beta <= 0 or n < 1:
        raise ValueError("need d >= 4, beta > 0, n >= 1")
    if _near(beta, 2.0 / (d - 2)):
        raise BoundaryParameterError("beta at the regime boundary 2/(d-2)")
    if beta > 2.0 / (d - 2):
        return math.ceil(n ** (3.0 / d)), n ** (-1.0 / d)
    e = beta / (2.0 * (beta + 1.0))
    return math.ceil(n ** (3.0 * e)), n ** (-e)
