"""Stationary sequence generators with known mixing decay.

Every generator is a pure function of its parameters and a 64-bit seed, so
samples can be regenerated bit-identically.  Where the construction permits
it, the sample carries an exact mixing oracle (a :class:`MixingProfile`)
describing the decay of its dependence coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class MixingFlavor(str, Enum):
    BETA = "beta"
    GAMMA = "gamma"


class ProfileKind(str, Enum):
    EXACT_MARKOV = "exact_markov"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"
    TABULATED = "tabulated"


class ConstructionError(ValueError):
    """Raised when a generator's inputs cannot yield a stationary chain."""


class EstimationError(ValueError):
    """Raised when a sample is too small for the requested estimate."""


_STOCHASTIC_TOL = 1e-12
_STATIONARY_TOL = 1e-10  # pi P = pi, and pi's sum and sign
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 200_000


def _check_stochastic(transition: np.ndarray) -> np.ndarray:
    transition = np.asarray(transition, dtype=float)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ConstructionError("transition matrix must be square")
    if not (transition >= -_STOCHASTIC_TOL).all():
        raise ConstructionError("transition matrix has negative or NaN entries")
    rows = transition.sum(axis=1)
    if not (np.abs(rows - 1.0) <= _STOCHASTIC_TOL).all():
        raise ConstructionError("rows of transition matrix must sum to 1")
    return transition


def _gap_list(q, least: int) -> list[int]:
    """Gaps q (an int or a 1-D grid) as Python ints; ValueError unless each is
    an int, not a bool, and >= least."""
    gaps = np.atleast_1d(q).tolist()
    if not all(type(g) is int and g >= least for g in gaps):
        raise ValueError(f"gap q must be an integer >= {least}")
    return gaps


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by power iteration.

    Non-convergence (reducible or periodic chain without a unique
    stationary law) raises :class:`ConstructionError`.
    """
    transition = _check_stochastic(transition)
    m = transition.shape[0]
    # asymmetric start so periodic chains oscillate instead of luckily
    # starting at the fixed point
    pi = np.arange(1, m + 1, dtype=float)
    pi /= pi.sum()
    for _ in range(_POWER_MAX_ITER):
        nxt = pi @ transition
        if np.abs(nxt - pi).max() < _POWER_TOL:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConstructionError(
            "power iteration did not converge; chain may be reducible or periodic")
    pi = pi / pi.sum()
    if np.abs(pi @ transition - pi).max() > _STATIONARY_TOL:
        raise ConstructionError("stationary vector check failed")
    return pi


@dataclass(frozen=True, eq=False)
class MixingProfile:
    """Model of a mixing-coefficient sequence q -> coefficient(q) in [0,1].

    ``coefficient(0) == 1`` by convention and the sequence is
    non-increasing.  ``flavor`` names the dependence coefficient described;
    the bounds of :mod:`mixrate.rates` accept only beta.
    """

    kind: ProfileKind
    flavor: MixingFlavor = MixingFlavor.BETA
    # exact_markov
    transition: Optional[np.ndarray] = None
    stationary: Optional[np.ndarray] = None
    # polynomial / exponential
    scale: float = 1.0
    exponent: float = 1.0
    rate: float = 1.0
    # tabulated
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        # each check is written so that NaN fails it; arrays are kept as read-only
        # copies in the caller's memory order (a C-order copy changes matmul rounding)
        if self.kind == ProfileKind.EXACT_MARKOV:
            t = _check_stochastic(np.array(self.transition, dtype=float))
            # pi P = pi alone admits any multiple of pi
            pi = np.array(self.stationary, dtype=float)
            if (pi.shape != (len(t),) or not (pi >= -_STATIONARY_TOL).all()
                    or not abs(float(pi.sum()) - 1.0) <= _STATIONARY_TOL):
                raise ConstructionError(
                    f"stationary vector must be a probability vector of length {len(t)}")
            if np.abs(pi @ t - pi).max() > _STATIONARY_TOL:
                raise ConstructionError("stationary vector does not satisfy pi P = pi")
            t.flags.writeable = pi.flags.writeable = False
            object.__setattr__(self, "transition", t)
            object.__setattr__(self, "stationary", pi)
        elif self.kind == ProfileKind.TABULATED:
            v = np.array(self.values, dtype=float)
            if not ((v >= 0) & (v <= 1)).all():
                raise ValueError("tabulated coefficients must lie in [0,1]")
            if np.any(np.diff(v) > 1e-12):
                raise ValueError("tabulated coefficients must be non-increasing")
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
        else:
            if not self.scale >= 0:
                raise ValueError("polynomial and exponential profiles need scale >= 0")
            if self.kind == ProfileKind.POLYNOMIAL and not self.exponent > 0:
                raise ValueError("polynomial profile needs exponent > 0")
            if self.kind == ProfileKind.EXPONENTIAL and not self.rate > 0:
                raise ValueError("exponential profile needs rate > 0")

    def coefficient(self, q: int | Sequence[int]) -> float | np.ndarray:
        """Mixing coefficient at gap q, 1 at q = 0 by convention: a float for
        an int q, an array for a 1-D grid of gaps.  Exact Markov profiles
        delegate to :func:`exact_beta_markov`; the other kinds evaluate the
        scalar formula per gap (numpy's ``**`` and ``exp`` differ in the last ulp)."""
        if self.kind == ProfileKind.EXACT_MARKOV:
            return exact_beta_markov(self, q)
        gaps = _gap_list(q, 0)
        if self.kind == ProfileKind.POLYNOMIAL:
            out = [min(1.0, self.scale * (1.0 + g) ** (-self.exponent)) for g in gaps]
        elif self.kind == ProfileKind.EXPONENTIAL:
            out = [min(1.0, self.scale * math.exp(-self.rate * g)) for g in gaps]
        else:
            v = self.values
            out = [float(v[g]) if g < len(v) else 0.0 for g in gaps]
        out = [c if g else 1.0 for g, c in zip(gaps, out)]
        return out[0] if np.ndim(q) == 0 else np.array(out)

    @staticmethod
    def iid() -> "MixingProfile":
        return MixingProfile(kind=ProfileKind.TABULATED, values=np.array([1.0]))


@dataclass(frozen=True, eq=False)
class SequenceSample:
    """Realized stationary sequence and, where known, its mixing profile."""

    values: np.ndarray
    mixing_oracle: Optional[MixingProfile] = None

    def __len__(self) -> int:
        return len(self.values)


# state-map entries per chunk of gen_finite_markov's doubling scan: a chunk
# of 2**14 // m steps holds one map over the m states per step, so memory
# stays bounded as m grows (2**13 steps for two states); the scan costs
# O(m log chunk) per step against the O(log m) of a per-step loop
_MARKOV_SCAN_CELLS = 2**14


def _inverse_cdf(p: np.ndarray) -> np.ndarray:
    """CDFs along the last axis with the last entry pinned to 1.0.

    Rows may sum to 1 within the stochasticity tolerance; pinning makes an
    inverse-CDF draw ``searchsorted(cdf, u)`` with u < 1 land on a state.
    """
    cdf = np.cumsum(p, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _markov_steps(row_cdf: np.ndarray, state: int, u: np.ndarray) -> np.ndarray:
    """States after each of len(u) steps from ``state``.

    Step i maps s to ``searchsorted(row_cdf[s], u[i])``.  Row i of ``g``
    holds step i's map over all m states; log2(len(u)) Hillis-Steele rounds
    turn row i into the composition of the maps of steps 0..i, so the path
    is the column of the starting state.
    """
    g = np.empty((len(u), len(row_cdf)), dtype=np.intp)
    for s, row in enumerate(row_cdf):
        g[:, s] = row.searchsorted(u)
    k = 1
    while k < len(u):
        g[k:] = np.take_along_axis(g[k:], g[:-k], axis=1)
        k *= 2
    return g[:, state]


def _check_markov_config(transition, state_values) -> tuple[np.ndarray, np.ndarray]:
    """A row-stochastic matrix and one value per state, as float arrays."""
    transition = _check_stochastic(transition)
    state_values = np.asarray(state_values, dtype=float)
    if state_values.shape != transition.shape[:1]:
        raise ConstructionError("state_values must hold one number per state")
    return transition, state_values


def gen_finite_markov(transition, state_values, n: int, seed: int) -> SequenceSample:
    """Stationary finite-state Markov trajectory mapped through state values."""
    transition, state_values = _check_markov_config(transition, state_values)
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = stationary_distribution(transition)
    rng = np.random.default_rng(seed)
    # inverse-CDF sampling against precomputed row CDFs
    row_cdf = _inverse_cdf(transition)
    state = int(np.searchsorted(_inverse_cdf(pi), rng.random()))
    values = np.empty(n)
    values[0] = state_values[state]
    chunk = max(1, _MARKOV_SCAN_CELLS // len(state_values))
    for start in range(1, n, chunk):
        path = _markov_steps(row_cdf, state, rng.random(min(chunk, n - start)))
        values[start:start + len(path)] = state_values[path]
        state = path[-1]
    oracle = MixingProfile(kind=ProfileKind.EXACT_MARKOV, flavor=MixingFlavor.BETA,
                           transition=transition, stationary=pi)
    return SequenceSample(values=values, mixing_oracle=oracle)


def _block_length_pmf(tail_exponent: float, l_max: int) -> np.ndarray:
    k = np.arange(1, l_max + 1, dtype=float)
    pmf = k ** (-(2.0 + tail_exponent))
    return pmf / pmf.sum()


def _residual_life_pmf(pmf: np.ndarray) -> np.ndarray:
    # stationary residual-life law: P(R = j) = P(L >= j) / E[L]
    tail = pmf[::-1].cumsum()[::-1]
    return tail / tail.sum()


@functools.lru_cache(maxsize=8)
def _renewal_tables(tail_exponent: float, l_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(block-length CDF, residual-life CDF, mean block length).

    The CDFs are read-only and built as ``Generator.choice(p=)`` builds
    them (cumsum divided by its last entry), so ``cdf.searchsorted(
    rng.random(size), side="right")`` draws what ``choice`` draws, from
    the same stream.  ``choice``'s check of p runs here, once per key.
    """
    pmf = _block_length_pmf(tail_exponent, l_max)
    tables = []
    for p in (pmf, _residual_life_pmf(pmf)):
        if not (np.all(p >= 0) and abs(math.fsum(p) - 1.0) <= np.sqrt(np.finfo(float).eps)):
            raise ConstructionError("block-length law is not a probability vector")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        tables.append(cdf)
    return tables[0], tables[1], float(np.arange(1, l_max + 1) @ pmf)


def gen_renewal_chain(tail_exponent: float, l_max: int, n: int, seed: int) -> SequenceSample:
    """Block-constant regenerative sequence with polynomial beta decay.

    Block lengths are i.i.d. with P(L=k) proportional to k^{-(2+beta)},
    truncated at ``l_max``; each block carries a fresh Uniform[0,1] value.
    The first block is drawn from the stationary residual-life law so the
    sequence is strictly stationary.  The beta-mixing coefficients decay
    like q^{-beta} up to the truncation horizon.
    """
    if tail_exponent <= 0:
        raise ConstructionError("tail exponent must be > 0")
    if l_max < 1:
        raise ConstructionError("l_max must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    length_cdf, residual_cdf, mean_len = _renewal_tables(tail_exponent, l_max)
    first = int(residual_cdf.searchsorted(rng.random(), side="right")) + 1
    batches = [np.array([first])]
    total = first
    while total < n:
        want = max(16, int((n - total) / mean_len * 1.5) + 8)
        batch = length_cdf.searchsorted(rng.random(want), side="right") + 1
        batches.append(batch)
        total += int(batch.sum())
    lengths = np.concatenate(batches)
    vals = rng.random(len(lengths))
    series = np.repeat(vals, lengths)[:n]
    oracle = MixingProfile(kind=ProfileKind.POLYNOMIAL, flavor=MixingFlavor.BETA,
                           scale=1.0, exponent=tail_exponent)
    return SequenceSample(values=series, mixing_oracle=oracle)


def renewal_age_value_chain(tail_exponent: float, l_max: int, n_values: int):
    """Exact finite-state (residual-life, value) chain for the renewal DGP.

    Values are discretized to ``n_values`` equiprobable levels.  Returns
    (transition, stationary, state_values) with states ordered as
    (residual r = 1..l_max) x (value v = 0..n_values-1).
    """
    pmf = _block_length_pmf(tail_exponent, l_max)
    resid = _residual_life_pmf(pmf)
    # residual r > 1 steps down to r - 1 keeping its value; residual 1 starts
    # a fresh block, of residual life L ~ pmf and an independent value
    trans = np.eye(l_max * n_values, k=-n_values)
    trans[:n_values] = np.repeat(pmf / n_values, n_values)
    pi = np.repeat(resid, n_values) / n_values
    state_values = np.tile((np.arange(n_values) + 0.5) / n_values, l_max)
    return trans, pi, state_values


def gen_ar1(a: float, n: int, seed: int) -> SequenceSample:
    """Stationary Gaussian AR(1); exponential mixing with |a|^q decay."""
    if abs(a) >= 1:
        raise ConstructionError("|a| must be < 1 for stationarity")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal() / math.sqrt(1.0 - a * a)
    eps = rng.standard_normal(n - 1)
    for i in range(1, n):
        x[i] = a * x[i - 1] + eps[i - 1]
    if a == 0.0:
        oracle = MixingProfile.iid()
    else:
        oracle = MixingProfile(kind=ProfileKind.EXPONENTIAL, flavor=MixingFlavor.GAMMA,
                               scale=1.0, rate=-math.log(abs(a)))
    return SequenceSample(values=x, mixing_oracle=oracle)


def gen_iid_uniform(n: int, seed: int) -> SequenceSample:
    """I.i.d. Uniform[0,1] baseline DGP."""
    rng = np.random.default_rng(seed)
    return SequenceSample(values=rng.random(n), mixing_oracle=MixingProfile.iid())


def exact_beta_markov(profile: MixingProfile,
                      q: int | Sequence[int]) -> float | np.ndarray:
    """Exact beta coefficient at gap q of the chain of an ``exact_markov``
    profile, checked when the profile was built.

    Uses the two-coordinate identity for stationary Markov chains:
    beta_q = sum_x pi(x) * TV(P^q(x, .), pi), with TV the half-L1 distance,
    and 1 at q = 0 by convention.  ``q`` is an int (a float is returned) or
    a 1-D grid of gaps in any order (an array).  P^q is formed in the order
    of ``np.linalg.matrix_power``, so the rounding matches it: the product
    of the repeated squares P^(2^k) over the set bits k of q, low bits
    first, except P^3 = (P @ P) @ P.  A block of at most 4096 matrix
    entries is formed at a time, one stacked product per bit, and its row
    TV distances are reduced together.  A profile of another kind raises
    ``ValueError``.
    """
    if profile.kind != ProfileKind.EXACT_MARKOV:
        raise ValueError("exact beta needs an exact_markov profile")
    # Python ints keep a scalar call close to the cost of its matrix products
    gaps = _gap_list(q, 0)
    transition, pi = profile.transition, profile.stationary
    squares = [transition]
    for _ in range(1, max(gaps, default=0).bit_length()):
        squares.append(squares[-1] @ squares[-1])
    out = np.ones(len(gaps))
    nonzero = np.flatnonzero(gaps)
    block = max(1, 4096 // transition.size)
    for start in range(0, len(nonzero), block):
        idx = nonzero[start:start + block]
        block_gaps = [gaps[j] for j in idx.tolist()]
        # start at the lowest set bit's square; bit k then multiplies every
        # power with a lower bit set by P^(2^k), one stacked product whose
        # slices each meet the kernel of a single product
        powers = np.array(squares)[[(gap & -gap).bit_length() - 1 for gap in block_gaps]]
        for k in range(1, len(squares)):
            sel = [i for i, gap in enumerate(block_gaps)
                   if gap >> k & 1 and gap & ((1 << k) - 1)]
            powers[sel] = powers[sel] @ squares[k]
        three = [i for i, gap in enumerate(block_gaps) if gap == 3]
        if three:
            powers[three] = squares[1] @ transition
        tv_rows = 0.5 * np.abs(powers - pi).sum(axis=2)
        # stacked, each row meets the dot kernel of pi @ row
        out[idx] = (pi @ tv_rows[..., None]).ravel()
    return float(out[0]) if np.ndim(q) == 0 else out


def _rank_bins(values: np.ndarray, m_bins: int) -> np.ndarray:
    # equal-frequency binning: the value of rank r goes to bin r * m_bins // n,
    # i.e. bin b holds ranks ceil(b n / m_bins) .. ceil((b + 1) n / m_bins) - 1;
    # ties broken by original index (stable sort)
    n = len(values)
    order = np.argsort(values, kind="stable")
    bins = np.empty(n, dtype=np.int64)
    for b in range(m_bins):
        bins[order[-(-b * n // m_bins):-(-(b + 1) * n // m_bins)]] = b
    return bins


def _check_binning(n: int, gaps: np.ndarray, m_bins: int) -> None:
    if n < 10 * m_bins * m_bins:
        raise EstimationError(
            f"need n >= {10 * m_bins * m_bins} observations for m_bins={m_bins}, got {n}")
    if np.any(gaps < 1):
        raise EstimationError("gap q must be >= 1")
    if np.any(gaps >= n // 2):
        raise EstimationError("gap q must be < n/2")


def estimate_beta_binning(sample: SequenceSample, q: int | Sequence[int],
                          m_bins: int) -> float | np.ndarray:
    """Binning estimate of the beta coefficient at gap q.

    Half-L1 distance between the empirical joint of (X_0, X_q) over an
    equal-frequency binning and the product of the binned marginals.  This
    is a lower-bound proxy for the full sigma-field coefficient: it only
    sees the two-coordinate, binned dependence.  ``q`` is an int (the
    estimate is a float) or a 1-D grid of gaps (an array of estimates, the
    sample ranked once).
    """
    values = np.asarray(sample.values, dtype=float)
    n = len(values)
    _check_binning(n, np.atleast_1d(q), m_bins)
    gaps = _gap_list(q, 1)
    bins = _rank_bins(values, m_bins)
    out = np.empty(len(gaps))
    for j, gap in enumerate(gaps):
        counts = np.bincount(bins[: n - gap] * m_bins + bins[gap:],
                             minlength=m_bins * m_bins)
        joint = counts.reshape(m_bins, m_bins) / counts.sum()
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        out[j] = 0.5 * np.abs(joint - np.outer(pa, pb)).sum()
    return float(out[0]) if np.ndim(q) == 0 else out
