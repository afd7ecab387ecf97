"""Bracketing-entropy models, bracketing calculus, and exact supremum oracles.

The entropy model is the parametric bound
``H(u) = K * D * (theta/u)**alpha * log(B/u)**V`` on a bracketing entropy,
valid for 0 < u <= sigma.  The supremum oracles compute sqrt(n) times the
centered empirical supremum exactly for two concrete classes on the line:
half-line indicators (whose supremum is also that of the monotone
[0,1]-valued functions) and 1-Lipschitz functions (the
Kantorovich-Rubinstein / W1 form).
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


# ---------------------------------------------------------------------------
# CDF oracles


@dataclass(frozen=True)
class CdfOracle:
    """Exact marginal CDF with quantile and integrated-CDF access.

    All three callables work elementwise on arrays (and on scalars).
    ``cdf_antideriv`` is an antiderivative of the CDF (any constant), used
    for the exact piecewise W1 integral.  ``support`` bounds the support;
    unbounded support is allowed for the KS oracle but not for W1.  The KS
    oracle is exact only for a continuous CDF.
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


# ---------------------------------------------------------------------------
# Exact supremum oracles


def sup_halflines(sample: Sequence[float], cdf_oracle: CdfOracle) -> float:
    """sqrt(n) * Kolmogorov-Smirnov statistic, exact only for a continuous
    F: D- reads F(x) where an atom at x needs the left limit F(x-)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf_oracle.cdf(x), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return math.sqrt(n) * float(max(d_plus, d_minus))


def sup_lipschitz_w1(sample: Sequence[float], cdf_oracle: CdfOracle) -> float:
    """sqrt(n) * integral |F_n - F|, exact piecewise between order statistics.

    This is the centered supremum over 1-Lipschitz functions on the line
    by Kantorovich-Rubinstein duality.  Requires a bounded-support oracle.
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
