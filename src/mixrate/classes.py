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
        if self.K <= 0 or self.D < 1 or self.theta <= 0:
            raise ValueError("need K > 0, D >= 1, theta > 0")
        if self.alpha < 0 or self.V < 0:
            raise ValueError("need alpha, V >= 0")
        if self.sigma <= 0 or self.sigma > self.b:
            raise ValueError("need 0 < sigma <= b")
        if self.B < max(self.sigma, self.b, math.e) - 1e-12:
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
    """Entropy of the class composed with a monotone L-Lipschitz map: H(u/L)."""
    if L <= 0:
        raise ValueError("Lipschitz constant must be > 0")
    # H(u/L) = K D (L theta / u)^alpha (log(L B / u))^V on (0, L sigma]
    return replace(model, theta=model.theta * L, B=model.B * L,
                   sigma=model.sigma * L, b=max(model.b * L, model.sigma * L))


def scalar_multiply(model: EntropyModel, g_sup: float) -> EntropyModel:
    """Entropy of the class multiplied by a fixed function with sup norm g_sup."""
    if g_sup <= 0:
        raise ValueError("g_sup must be > 0")
    return lipschitz_compose(model, g_sup)


def positive_part(model: EntropyModel) -> EntropyModel:
    """Entropy of the positive-part class: unchanged bound."""
    return model


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


def entropy_calculus(model: EntropyModel, transform: str, **kw):
    """Apply one bracketing-calculus rule and return the transformed bound.

    transform is one of ``lipschitz_compose`` (kw: L), ``sum`` (kw: other),
    ``scalar_multiply`` (kw: g_sup), ``positive_part``.
    """
    if transform == "lipschitz_compose":
        return lipschitz_compose(model, kw["L"])
    if transform == "sum":
        return SumEntropy(model, kw["other"])
    if transform == "scalar_multiply":
        return scalar_multiply(model, kw["g_sup"])
    if transform == "positive_part":
        return positive_part(model)
    raise ValueError(f"unknown transform {transform!r}")


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


# ---------------------------------------------------------------------------
# Bracket nets (diagnostic artifacts)


@dataclass(frozen=True)
class BracketNet:
    """A bracketing net on a finite domain grid.

    Widths are measured against the uniform measure on the grid (L2 for the
    monotone class, sup norm for the Lipschitz class).  ``count`` is the
    exact size of the constructed net; ``pairs`` is materialized only when
    the net is small enough to list.  ``assign`` maps a class member
    (given by its grid values) to its containing pair.
    """

    class_id: str
    delta: float
    grid: np.ndarray
    level_step: float
    count: int
    pairs: list | None

    @property
    def log_count(self) -> float:
        return math.log(self.count)

    @property
    def c_fitted(self) -> float:
        """Constant c in the count bound count <= exp(c / delta)."""
        return self.log_count * self.delta

    def assign(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = self.level_step
        lower = np.floor(np.asarray(values) / q) * q
        upper = np.ceil(np.asarray(values) / q) * q
        upper = np.where(upper - lower < q / 2, lower + q, upper)
        if self.class_id == "monotone01":
            lower = np.maximum.accumulate(lower)
            upper = np.minimum.accumulate(upper[::-1])[::-1]
        return np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0 + q)


def _count_monotone_staircases(m: int, p: int) -> int:
    # non-decreasing maps from m grid points into p+1 levels
    return math.comb(m + p, p)


_MATERIALIZE_LIMIT = 20_000


def build_bracket_net(class_id: str, delta: float, grid_size: int) -> BracketNet:
    """Construct a delta-bracketing net on a uniform grid.

    For ``monotone01`` every bracket pair has L2(uniform-on-grid) width
    <= delta; for ``lipschitz01`` sup-norm width <= delta.  The count obeys
    count <= exp(c/delta) with ``c`` reported on the returned net.
    """
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if grid_size < 2 / delta:
        raise ValueError("delta too small for the grid: need grid_size >= 2/delta")
    grid = np.linspace(0.0, 1.0, grid_size)
    if class_id == "monotone01":
        if delta >= 1.0:
            pairs = [(np.zeros(grid_size), np.ones(grid_size))]
            return BracketNet(class_id, delta, grid, 1.0, 1, pairs)
        q = delta / 2.0
        p = math.ceil(1.0 / q)
        count = _count_monotone_staircases(grid_size, p)
    elif class_id == "lipschitz01":
        q = delta / 2.0
        p = math.ceil(1.0 / q)
        h = 1.0 / (grid_size - 1)
        steps = 2 * (math.ceil(h / q) + 1) + 1
        count = (p + 1) * steps ** (grid_size - 1)
    else:
        raise ValueError(f"unknown class_id {class_id!r}")
    net = BracketNet(class_id, delta, grid, q, count, None)
    if count <= _MATERIALIZE_LIMIT:
        pairs = _materialize(net, p)
        net = BracketNet(class_id, delta, grid, q, count, pairs)
    return net


def _materialize(net: BracketNet, p: int) -> list:
    # enumerate monotone staircases only for tiny nets
    grid = net.grid
    q = net.level_step
    pairs = []
    if net.class_id == "monotone01":
        from itertools import combinations_with_replacement
        for levels in combinations_with_replacement(range(p + 1), len(grid)):
            lower = np.array(levels, dtype=float) * q
            pairs.append((np.clip(lower, 0, 1), np.clip(lower + q, 0, 1 + q)))
    else:
        # Lipschitz nets are listed lazily through assign(); keep the
        # envelope pair so the list is non-empty for audits.
        pairs.append((np.zeros(len(grid)), np.ones(len(grid))))
    return pairs


def random_monotone01(rng: np.random.Generator, grid: np.ndarray) -> np.ndarray:
    jumps = rng.dirichlet(np.ones(len(grid)))
    scale = rng.random()
    start = rng.random() * (1 - scale)
    return start + scale * np.cumsum(jumps)


def random_lipschitz01(rng: np.random.Generator, grid: np.ndarray) -> np.ndarray:
    h = np.diff(grid)
    slopes = rng.uniform(-1.0, 1.0, size=len(h))
    vals = rng.random() + np.concatenate(([0.0], np.cumsum(slopes * h)))
    return np.clip(vals, 0.0, 1.0)
