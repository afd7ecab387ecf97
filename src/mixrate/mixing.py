"""Stationary sequence generators with known mixing decay.

Every generator is a pure function of its parameters and a 64-bit seed, so
samples can be regenerated bit-identically.  Where the construction permits
it, the sample carries an exact mixing oracle (a :class:`MixingProfile`)
describing the decay of its dependence coefficients.

A finite Markov path is drawn a bounded chunk of uniforms at a time, and
block-speculatively within a chunk: every block of steps is first run from
the chunk's start state, all blocks at once, and a block whose true start
differs is then rerun step by step only until it meets that path (chains
driven by the same uniforms move together once they meet).  Renewal block
lengths are counted against the first few entries of the length CDF, and
searched for in the whole CDF only when a draw lies past them.
"""

from __future__ import annotations

import functools
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby
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
    grid = np.atleast_1d(q)
    gaps = grid.tolist()
    # an integer array is read with one min(), anything else gap by gap as
    # given, since numpy reads [True, 2] as an integer array
    if isinstance(q, (np.ndarray, np.integer)) and grid.dtype.kind in "iu":
        ok = grid.ndim == 1 and grid.min(initial=least) >= least
    else:
        ok = grid.ndim == 1 and all(
            isinstance(g, numbers.Integral) and not isinstance(g, bool) and g >= least
            for g in (q if np.ndim(q) else [q]))
    if not ok:
        raise ValueError(f"gap q must be an integer >= {least}")
    return gaps


def _check_count(value, name: str) -> None:
    """ValueError unless value is an integer >= 1 (numpy integers too, bools not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer")


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by power iteration.

    Only an iteration that fails to converge, as on a periodic chain,
    raises :class:`ConstructionError`.  A reducible chain is not detected:
    its iteration converges to a stationary vector that depends on the
    start, so the identity on 2 states returns [1/3, 2/3].
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
        """The one i.i.d. profile (β = 0 at every gap q >= 1), shared."""
        return _IID


_IID = MixingProfile(kind=ProfileKind.TABULATED, values=np.array([1.0]))


@dataclass(frozen=True, eq=False)
class SequenceSample:
    """Realized stationary sequence and, where known, its mixing profile."""

    values: np.ndarray
    mixing_oracle: Optional[MixingProfile] = None

    def __len__(self) -> int:
        return len(self.values)


# steps per chunk of uniforms in gen_finite_markov, so memory stays bounded
_MARKOV_CHUNK = 2**16
# steps per speculative block of _markov_steps; fewer than 16 blocks, or
# chains of more than 64 states, cost more to speculate than to step in turn
_MARKOV_BLOCK = 256


def _inverse_cdf(p: np.ndarray) -> np.ndarray:
    """CDFs along the last axis with the last entry pinned to 1.0.

    Rows may sum to 1 within the stochasticity tolerance; pinning makes an
    inverse-CDF draw ``searchsorted(cdf, u)`` with u < 1 land on a state.
    """
    cdf = np.cumsum(p, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _markov_steps(rows, state: int, u) -> np.ndarray:
    """States after each of len(u) steps from ``state``.

    Step i moves s to the number of entries of the row CDF ``rows[s]``
    below u[i]: on a non-decreasing row, ``bisect_left(rows[s], u[i])``,
    the state that ``np.searchsorted(rows[s], u[i])`` draws.  ``rows`` is
    an (m, m) array.  The steps are cut into blocks of ``_MARKOV_BLOCK``.
    Every block is first run from ``state``, all blocks at once, one
    vectorised count per position.  Then the blocks are chained in order:
    a block whose true start differs is rerun step by step, by
    ``bisect_left`` on the sorted rows (the same count), only until it
    meets its speculative path, since chains driven by the same uniforms
    move together once they meet.  Steps past the last block run in turn.
    """
    rows = np.sort(rows, axis=-1)
    lists = rows.tolist()
    u = np.asarray(u, dtype=float)
    width = _MARKOV_BLOCK
    blocks = len(u) // width if len(u) >= 16 * width and len(rows) <= 64 else 0
    path = np.empty(len(u), dtype=np.intp)
    spec = path[:blocks * width].reshape(blocks, width)
    draws = u[:blocks * width].reshape(blocks, width)
    # the last entry of a sorted row is at least 1.0 > u, so it never counts
    head = rows[:, :-1].T.copy()
    prev = np.full(blocks, state)
    for j in range(width if blocks else 0):
        # a contiguous copy of the strided column compares faster
        spec[:, j] = prev = np.add.reduce(head.take(prev, axis=1) < draws[:, j].copy(),
                                          axis=0, dtype=np.intp)
    start = state
    for k, end in enumerate(prev.tolist()):
        if state != start:
            rerun = []
            # read in pieces of 32 steps: most blocks meet within a few
            pairs = chain.from_iterable(
                zip(draws[k, i:i + 32].tolist(), spec[k, i:i + 32].tolist())
                for i in range(0, width, 32))
            for x, guess in pairs:
                state = bisect_left(lists[state], x)
                if state == guess:
                    break
                rerun.append(state)
            spec[k, :len(rerun)] = rerun
            if len(rerun) == width:  # never met: its end is the true one
                continue
        state = end
    rest = []
    for x in u[blocks * width:].tolist():
        state = bisect_left(lists[state], x)
        rest.append(state)
    path[blocks * width:] = rest
    return path


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
    _check_count(n, "n")
    pi = stationary_distribution(transition)
    rng = np.random.default_rng(seed)
    # inverse-CDF sampling against precomputed row CDFs
    rows = _inverse_cdf(transition)
    state = int(np.searchsorted(_inverse_cdf(pi), rng.random()))
    values = np.empty(n)
    values[0] = state_values[state]
    for start in range(1, n, _MARKOV_CHUNK):
        path = _markov_steps(rows, state, rng.random(min(_MARKOV_CHUNK, n - start)))
        values[start:start + len(path)] = state_values[path]
        state = int(path[-1])
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


# block-length CDF entries gen_renewal_chain compares each draw with before
# it searches the whole CDF; searchsorted costs ~15 ns a draw even on four
_RENEWAL_HEAD = 4


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
    _check_count(n, "n")
    rng = np.random.default_rng(seed)
    length_cdf, residual_cdf, mean_len = _renewal_tables(tail_exponent, l_max)
    first = int(residual_cdf.searchsorted(rng.random(), side="right")) + 1
    head = length_cdf[:_RENEWAL_HEAD, None]
    batches = [np.array([first])]
    total = first
    while total < n:
        want = max(16, int((n - total) / mean_len * 1.5) + 8)
        u = rng.random(want)
        # the entries <= u are counted in the head, one comparison per entry,
        # and searched for in the whole CDF only for draws past the head
        batch = np.add.reduce(head <= u, axis=0, dtype=np.intp)
        past = np.flatnonzero(batch == _RENEWAL_HEAD)
        batch[past] = length_cdf.searchsorted(u[past], side="right")
        batch += 1
        batches.append(batch)
        total += int(batch.sum())
    # values for the blocks that cover the n steps, the first of the stream
    lengths = np.concatenate(batches)
    used = int(lengths.cumsum().searchsorted(n)) + 1
    series = np.repeat(rng.random(used), lengths[:used])[:n]
    oracle = MixingProfile(kind=ProfileKind.POLYNOMIAL, flavor=MixingFlavor.BETA,
                           scale=1.0, exponent=tail_exponent)
    return SequenceSample(values=series, mixing_oracle=oracle)


def gen_ar1(a: float, n: int, seed: int) -> SequenceSample:
    """Stationary Gaussian AR(1); exponential mixing with |a|^q decay."""
    if abs(a) >= 1:
        raise ConstructionError("|a| must be < 1 for stationarity")
    _check_count(n, "n")
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
    _check_count(n, "n")
    rng = np.random.default_rng(seed)
    return SequenceSample(values=rng.random(n), mixing_oracle=MixingProfile.iid())


def _stack_len(m: int) -> int:
    """How many m-by-m matrices go into one stacked product: the largest
    power of two b with b m^2 <= 2**12, and 1 from m = 65 on."""
    return 1 << max(0, (4096 // (m * m)).bit_length() - 1)


def exact_beta_markov(profile: MixingProfile,
                      q: int | Sequence[int]) -> float | np.ndarray:
    """Exact beta coefficient at gap q of the chain of an ``exact_markov``
    profile, checked when the profile was built.

    Uses the two-coordinate identity for stationary Markov chains:
    beta_q = sum_x pi(x) * TV(P^q(x, .), pi), with TV the half-L1 distance,
    and 1 at q = 0 by convention.  ``q`` is an int (a float is returned) or
    a 1-D grid of gaps in any order (an array).  P^q is formed in the order
    of ``np.linalg.matrix_power``, so the rounding matches it: with S_j =
    P^(2^j) the repeated squares and t the top bit of q, P^q = P^(q - 2^t)
    @ S_t, except P^3 = (P @ P) @ P (as the prefix of a larger gap, P^3
    stays P @ (P @ P)).  With b = ``_stack_len(m)``, gap q = k b + r is the
    prefix P^r times the squares of k's set bits, low bits first.  One table
    holds P^r for every r < b up to the largest gap, filled one stacked
    product per bit level; the distinct gaps sharing k form one block,
    multiplied one stacked product per set bit of k.  A profile of another
    kind raises ``ValueError``.
    """
    if profile.kind != ProfileKind.EXACT_MARKOV:
        raise ValueError("exact beta needs an exact_markov profile")
    # Python ints keep a scalar call close to the cost of its matrix products
    gaps = _gap_list(q, 0)
    transition, pi = profile.transition, profile.stationary
    squares = [transition]
    for _ in range(1, max(gaps, default=0).bit_length()):
        squares.append(squares[-1] @ squares[-1])
    low = _stack_len(len(pi)) - 1
    shift = low.bit_length()
    # the distinct gaps in order, 0 (beta 1) first: not np.unique, which
    # imports modules on its first call, nor a set, which holds ~50 B a gap
    uniq = [gap for gap, _ in groupby(sorted([0, *gaps]))]
    if uniq == gaps:  # such as an arange: one list, and no index to map back
        uniq = gaps
    prefix = np.empty((min(low, uniq[-1]) + 1,) + transition.shape)
    prefix[0] = np.eye(len(pi))  # I @ S == S exactly
    for t in range((len(prefix) - 1).bit_length()):
        lo, hi = 1 << t, min(2 << t, len(prefix))
        np.matmul(prefix[:hi - lo], squares[t], out=prefix[lo:hi])
    beta = np.ones(len(uniq))
    start = 1
    while start < len(uniq):
        k = uniq[start] >> shift
        stop = bisect_left(uniq, (k + 1) << shift, start)
        block = uniq[start:stop]
        residues = [gap & low for gap in block]
        if residues[-1] - residues[0] == len(residues) - 1:
            powers = prefix[residues[0]:residues[-1] + 1]
        else:
            powers = prefix[residues]
        for t in range(k.bit_length()):
            if k >> t & 1:
                # stacked, each slice meets the kernel of a single product
                powers = powers @ squares[shift + t]
        if 3 in block[:3]:  # sorted and positive, so 3 is among the first three
            powers = powers.copy()
            np.matmul(squares[1], transition, out=powers[block.index(3)])
        tv_rows = 0.5 * np.abs(powers - pi).sum(axis=2)
        # stacked, each row meets the dot kernel of pi @ row
        beta[start:stop] = (pi @ tv_rows[..., None]).ravel()
        start = stop
    out = beta if uniq is gaps else beta[np.searchsorted(uniq, gaps)]
    return float(out[0]) if np.ndim(q) == 0 else out


def _rank_bins(values: np.ndarray, m_bins: int) -> np.ndarray:
    # equal-frequency binning: the value of rank r goes to bin r * m_bins // n,
    # i.e. bin b holds ranks ceil(b n / m_bins) .. ceil((b + 1) n / m_bins) - 1;
    # ties broken by original index (stable sort)
    # stored narrow enough for the lag keys b * m_bins + b' (at most m_bins^2 - 1)
    n = len(values)
    order = np.argsort(values, kind="stable")
    bins = np.empty(n, dtype=np.min_scalar_type(m_bins * m_bins - 1))
    for b in range(m_bins):
        bins[order[-(-b * n // m_bins):-(-(b + 1) * n // m_bins)]] = b
    return bins


# lag pairs per bincount in estimate_beta_binning, so its int64 copy of the
# keys stays small
_PAIR_SLICE = 2**16


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
    rows = bins * m_bins
    out = np.empty(len(gaps))
    for j, gap in enumerate(gaps):
        left, right = rows[:n - gap], bins[gap:]
        counts = sum(np.bincount(left[lo:lo + _PAIR_SLICE] + right[lo:lo + _PAIR_SLICE],
                                 minlength=m_bins * m_bins)
                     for lo in range(0, n - gap, _PAIR_SLICE))
        joint = counts.reshape(m_bins, m_bins) / counts.sum()
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        out[j] = 0.5 * np.abs(joint - np.outer(pa, pb)).sum()
    return float(out[0]) if np.ndim(q) == 0 else out
