"""Bracketing-entropy models, bracketing calculus, and exact supremum oracles.

The entropy model is the parametric bound
``H(u) = K * D * (theta/u)**alpha * log(B/u)**V`` on a bracketing entropy,
valid for 0 < u <= sigma.  The supremum oracles compute sqrt(n) times the
centered empirical supremum exactly for three concrete classes on the line:
half-line indicators, monotone [0,1]-valued functions, and 1-Lipschitz
functions (the Kantorovich-Rubinstein / W1 form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class EntropyModel:
    """Parametric bracketing-entropy bound with envelope information.

    ``r`` is the bracketing norm index: a value in (2, inf] for the
    beta-mixing branch (use ``math.inf`` for sup-norm brackets) or in
    [1, 2] for the gamma-mixing branch.  ``sigma`` is the norm radius of
    the class and ``b`` its uniform bound.
    """

    K: float = 1.0
    D: float = 1.0
    theta: float = 1.0
    B: float = math.e
    alpha: float = 0.0
    V: float = 0.0
    r: float = math.inf
    sigma: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        # negated comparisons, so that NaN fails every check
        if not (self.K > 0 and self.D >= 1 and self.theta > 0):
            raise ValueError("need K > 0, D >= 1, theta > 0")
        if not (self.alpha >= 0 and self.V >= 0):
            raise ValueError("need alpha, V >= 0")
        if not 0 < self.sigma <= self.b:
            raise ValueError("need 0 < sigma <= b")
        if not self.B >= max(self.sigma, self.b, math.e) - 1e-12:
            raise ValueError("need B >= max(sigma, b, e)")
        if not (self.r > 2 or 1 <= self.r <= 2):
            raise ValueError("norm index r must be in (2, inf] or [1, 2]")


def entropy_eval(model: EntropyModel, u: float) -> float:
    """Evaluate the entropy bound at scale u in (0, sigma]."""
    if u <= 0 or u > model.sigma + 1e-12:
        raise ValueError(f"scale u must lie in (0, sigma={model.sigma}], got {u}")
    return (model.K * model.D * (model.theta / u) ** model.alpha
            * math.log(model.B / u) ** model.V)


def lipschitz_compose(model: EntropyModel, L: float) -> EntropyModel:
    """Entropy of the class composed with a monotone L-Lipschitz map, or
    multiplied by a fixed function g with L = sup |g|: H(u/L)."""
    if L <= 0:
        raise ValueError("Lipschitz constant must be > 0")
    # H(u/L) = K D (L theta / u)^alpha (log(L B / u))^V on (0, L sigma]
    return replace(model, theta=model.theta * L, B=model.B * L,
                   sigma=model.sigma * L, b=max(model.b * L, model.sigma * L))


@dataclass(frozen=True)
class SumEntropy:
    """Entropy bound for a sum class: H1(u/2) + H2(u/2)."""

    left: EntropyModel
    right: EntropyModel

    @property
    def sigma(self) -> float:
        return self.left.sigma + self.right.sigma

    def __call__(self, u: float) -> float:
        return (entropy_eval(self.left, min(u / 2, self.left.sigma))
                + entropy_eval(self.right, min(u / 2, self.right.sigma)))


# ---------------------------------------------------------------------------
# CDF oracles


@dataclass(frozen=True)
class CdfOracle:
    """Exact marginal CDF with quantile and integrated-CDF access.

    All three callables work elementwise on arrays (and on scalars).
    ``cdf_integral`` is an antiderivative of the CDF (any constant), used
    for the exact piecewise W1 integral.  ``support`` bounds the support;
    unbounded support is allowed for the KS oracle but not for W1.
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    cdf_antideriv: Callable[[np.ndarray], np.ndarray] | None = None
    support: tuple[float, float] = (-math.inf, math.inf)


def uniform01_cdf() -> CdfOracle:
    return CdfOracle(
        cdf=lambda x: np.clip(x, 0.0, 1.0),
        quantile=lambda u: np.asarray(u, dtype=float),
        cdf_antideriv=lambda x: np.where(
            x <= 0, 0.0, np.where(x < 1, 0.5 * x * x, 0.5 + (x - 1))),
        support=(0.0, 1.0),
    )


def gaussian_cdf() -> CdfOracle:
    from scipy.stats import norm
    return CdfOracle(
        cdf=lambda x: norm.cdf(x),
        quantile=lambda u: norm.ppf(u),
        cdf_antideriv=lambda x: x * norm.cdf(x) + norm.pdf(x),
        support=(-math.inf, math.inf),
    )


def discrete_cdf(atoms: Sequence[float]) -> CdfOracle:
    """CDF oracle of the uniform distribution on a finite multiset of atoms."""
    a = np.sort(np.asarray(atoms, dtype=float))
    n = len(a)
    if n == 0:
        raise ValueError("need at least one atom")
    # prefix[k] is the sum of the k smallest atoms
    prefix = np.concatenate(([0.0], np.cumsum(a)))

    def cdf(x):
        return np.searchsorted(a, np.asarray(x, dtype=float), side="right") / n

    def quantile(u):
        i = np.clip(np.ceil(np.asarray(u, dtype=float) * n).astype(np.int64) - 1, 0, n - 1)
        return a[i]

    def antideriv(x):
        # integral of the step CDF from a[0] to x
        x = np.asarray(x, dtype=float)
        below = np.searchsorted(a, x, side="right")
        return (x * below - prefix[below]) / n

    return CdfOracle(cdf=cdf, quantile=quantile, cdf_antideriv=antideriv,
                     support=(float(a[0]), float(a[-1])))


# ---------------------------------------------------------------------------
# Exact supremum oracles


def sup_halflines(sample: Sequence[float], cdf_oracle: CdfOracle) -> float:
    """sqrt(n) * Kolmogorov-Smirnov statistic, exact at both one-sided limits."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf_oracle.cdf(x), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return math.sqrt(n) * float(max(d_plus, d_minus))


def sup_monotone01(sample: Sequence[float], cdf_oracle: CdfOracle) -> float:
    """Centered supremum over monotone [0,1]-valued functions, exactly.

    Extreme points of the class are upper-set indicators, so the value is
    sqrt(n) * max(sup_t (P_n - P)[t, inf), sup_t (P - P_n)[t, inf)), which
    coincides with the half-line supremum by complement symmetry.
    """
    # a function of its own rather than an alias: perfbench's tracer keys
    # each function object by one public name
    return sup_halflines(sample, cdf_oracle)


def sup_lipschitz_w1(sample: Sequence[float], cdf_oracle: CdfOracle) -> float:
    """sqrt(n) * integral |F_n - F|, exact piecewise between order statistics.

    This is the centered supremum over 1-Lipschitz functions on the line
    by Kantorovich-Rubinstein duality.  Requires a bounded-support oracle
    (or one whose antiderivative handles the tails).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    if cdf_oracle.cdf_antideriv is None:
        raise ValueError("W1 oracle needs an integrable CDF (cdf_antideriv)")
    lo, hi = cdf_oracle.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("unbounded support without tail oracle")
    # segment i is [knots[i], knots[i+1]], where F_n equals level i/n; on
    # it, |F - level| integrates to the parts below and above the crossing xc
    knots = np.concatenate(([lo], x, [hi]))
    a, b = knots[:-1], knots[1:]
    level = np.arange(n + 1) / n
    xc = np.minimum(np.maximum(cdf_oracle.quantile(level), a), b)
    xc = np.where(level <= 0.0, a, np.where(level >= 1.0, b, xc))
    anti = cdf_oracle.cdf_antideriv
    anti_knots = anti(knots)
    anti_a, anti_b, anti_xc = anti_knots[:-1], anti_knots[1:], anti(xc)
    left = level * (xc - a) - (anti_xc - anti_a)
    right = (anti_b - anti_xc) - level * (b - xc)
    terms = np.where(b <= a, 0.0, np.maximum(left, 0.0) + np.maximum(right, 0.0))
    # a sequential sum, in segment order; a pairwise sum rounds differently
    return math.sqrt(n) * float(np.cumsum(terms)[-1])
