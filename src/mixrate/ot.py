"""Entropic optimal-transport estimators: Sinkhorn iterates, the debiased
Sinkhorn divergence, an exact squared-Wasserstein baseline via an
assignment solver (column-reduction warm start plus shortest augmenting
paths with lazy duals: Jonker & Volgenant 1987, Crouse 2016), and the
comparison harness, which always runs the paper's (k_n, eps_n) schedule
(``rates.ot_schedule``). The exact baseline matches sorted points in 1-D.

The transport path uses numpy only, and importing this module loads no
scipy module. Cost matrices in fewer than eight dimensions are
accumulated one axis at a time, in the order numpy's sum adds a row of d
terms, so they equal the full (m, n, d) broadcast sum bit for bit. A
Sinkhorn iterate is two matrix-vector products with the Gibbs kernel
exp(-C/eps) when no entry of it underflows, and otherwise an in-place,
max-shifted log-sum-exp over the cost matrix. The assignment solver's
Dijkstra steps keep no parent array; the augmenting path is recovered
from each step's row and shift."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .empirical import (_check_replicas, _check_seed_rule, _mean_se, _replicates,
                        generate, slope_fit)
from .mixing import _check_count
from .rates import ot_schedule


def _cloud(X) -> np.ndarray:
    """A point cloud as an (n, d) float array; 1-D input is n points on the line."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2):
        raise ValueError("clouds must be 1-D or 2-D arrays of shape (n, d)")
    return X[:, None] if X.ndim == 1 else X


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, shape (m, n), built a block of rows at a
    time so the (m, n, d) differences are never held at once. Each entry is
    the same length-d reduction as the full broadcast
    ``((X[:, None] - Y[None]) ** 2).sum(axis=2)``, bit for bit. Below eight
    axes numpy adds a row's terms in turn, so the block is accumulated one
    axis at a time, which skips the slow reduce over a short last axis;
    from eight axes on, the block is that broadcast sum itself."""
    X, Y = _cloud(X), _cloud(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch")
    m, (n, d) = X.shape[0], Y.shape
    d2 = np.empty((m, n))
    if not 0 < d < 8:
        b = max(1, 2 ** 16 // max(1, n * d))  # rows per block of ~2^16 entries
        for i in range(0, m, b):
            d2[i:i + b] = ((X[i:i + b, None, :] - Y[None]) ** 2).sum(axis=2)
        return d2
    b = max(1, 2 ** 16 // max(1, n))
    tmp = np.empty((min(b, m), n))
    for i in range(0, m, b):
        out, t = d2[i:i + b], tmp[:min(b, m - i)]
        np.square(np.subtract(X[i:i + b, 0, None], Y[:, 0], out=out), out=out)
        for k in range(1, d):
            np.subtract(X[i:i + b, k, None], Y[:, k], out=t)
            out += np.square(t, out=t)
    return d2


def _logsumexp_inplace(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)), max-shifted so it stays finite; overwrites a."""
    amax = a.max(axis=axis, keepdims=True)
    a -= amax
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + amax.squeeze(axis)


# Largest max(C)/eps for which SinkhornState.init stores the Gibbs kernel.
# Every entry of K is then at least e^-500, so each max-shifted row or column
# sum of the kernel iterate is a normal double; beyond it, e^(-C/eps) would
# underflow and the iterate stays in the log domain.
_GIBBS_MAX_RATIO = 500.0


@dataclass(frozen=True)
class SinkhornState:
    """Dual potentials for entropic transport between two point clouds.

    ``v`` starts at zero; ``k`` counts completed (u, v) update pairs. The
    state holds one (m, n) array, ``cost``: the pairwise squared distances
    C when ``gibbs`` is false, or the Gibbs kernel K = exp(-C/eps) when it
    is true (Cuturi, NeurIPS 2013). ``init`` stores K whenever
    max(C)/eps <= 500, so that no entry of K underflows, and C otherwise
    (the log-domain case that Schmitzer, arXiv:1610.06519, stabilises).
    """

    u: np.ndarray
    v: np.ndarray
    eps: float
    k: int
    cost: np.ndarray  # C (log domain) or K = exp(-C/eps) (gibbs), shape (m, n)
    gibbs: bool

    @classmethod
    def init(cls, X, Y, eps: float) -> "SinkhornState":
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("eps must be finite and > 0")
        cost = _sq_dists(X, Y)
        m, n = cost.shape
        if m == 0 or n == 0:
            raise ValueError("empty cloud")
        gibbs = float(cost.max()) / eps <= _GIBBS_MAX_RATIO  # False on nan
        if gibbs:  # K overwrites C, so the state never holds both
            cost /= -eps
            np.exp(cost, out=cost)
        return cls(u=np.zeros(m), v=np.zeros(n), eps=eps, k=0, cost=cost,
                   gibbs=gibbs)


def sinkhorn_iterate(state: SinkhornState) -> SinkhornState:
    """One full iterate: u from v, then v from the new u.

    u_i = -eps log( n^{-1} sum_j exp((v_j - c_ij)/eps) ) and symmetrically
    for v with m^{-1}. On a Gibbs state the sum is K @ e^{v/eps - s} with
    s = max(v/eps), two matrix-vector products that allocate no (m, n)
    array. In the log domain the log-sum-exp is max-shifted so iterates
    stay finite, and both half-steps share one (m, n) work array.
    """
    eps, cost = state.eps, state.cost
    m, n = cost.shape
    if state.gibbs:
        a = state.v / eps
        s = a.max()
        u = -eps * (np.log(cost @ np.exp(a - s)) + s - math.log(n))
        a = u / eps
        s = a.max()
        v = -eps * (np.log(np.exp(a - s) @ cost) + s - math.log(m))
        return replace(state, u=u, v=v, k=state.k + 1)
    work = np.subtract(state.v[None, :], cost)
    work /= eps
    u = -eps * (_logsumexp_inplace(work, axis=1) - math.log(n))
    np.subtract(u[:, None], cost, out=work)
    work /= eps
    v = -eps * (_logsumexp_inplace(work, axis=0) - math.log(m))
    return replace(state, u=u, v=v, k=state.k + 1)


def t_eps_k(X, Y, eps: float, k: int) -> float:
    """Entropic transport cost after k Sinkhorn iterations: the dual value
    m^{-1} sum u + n^{-1} sum v."""
    _check_count(k, "k")
    state = SinkhornState.init(X, Y, eps)
    for _ in range(k):
        state = sinkhorn_iterate(state)
    return float(np.mean(state.u) + np.mean(state.v))


def sinkhorn_divergence(X, Y, eps: float, k: int) -> float:
    """Debiased cost T(X,Y) - (T(X,X) + T(Y,Y))/2, all three terms at the
    same (eps, k) so identical clouds cancel exactly."""
    return (t_eps_k(X, Y, eps, k)
            - 0.5 * (t_eps_k(X, X, eps, k) + t_eps_k(Y, Y, eps, k)))


# ---------------------------------------------------------------------------
# Exact baseline


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching on a square, finite cost matrix:
    column reduction, then shortest augmenting paths with lazy duals
    (Jonker & Volgenant, Computing 38, 1987; Crouse, IEEE TAES 52(4), 2016).

    v starts at the column minima and each column goes to its first
    minimising row if that row is free. Each row left free grows one
    Dijkstra path on the reduced costs c_ij - u_i - v_j, and the duals
    move once per augmentation instead of at every step. A step is four
    array operations (reduced row, shift, elementwise minimum into the
    tentative distances, argmin) and records its row and shift. When the
    path reaches a free column, each column on it gets as parent the first
    step, of those that relaxed it, whose value equals its final distance:
    the row a strict-< relaxation would have kept, so ties resolve the
    same way. Scratch is O(n).

    Returns (cols, total) where cols[i] is the column matched to row i.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    row4col, col4row = [-1] * n, np.full(n, -1)
    if n == 0:
        return col4row, 0.0
    v = cost.min(axis=0)  # nan and -inf show here, +inf in the maximum
    if not (np.isfinite(v).all() and np.isfinite(cost.max())):
        raise ValueError("cost matrix must be finite")
    for j, i in enumerate((cost == v).argmax(axis=0).tolist()):
        if col4row[i] < 0:  # column j goes to its first minimising row
            row4col[j], col4row[i] = i, j
    u, vfree = np.zeros(n), v.copy()  # -inf in vfree marks scanned columns
    dist, r = np.empty(n), np.empty(n)
    rows, scanned = np.empty(n, dtype=int), np.empty(n, dtype=int)
    shifts, lows = np.empty(n), np.empty(n)  # one entry per step
    for start in np.flatnonzero(col4row < 0):
        dist.fill(np.inf)
        i, low, k = start, 0.0, 0
        while True:
            shift = low - u[i]
            np.subtract(cost[i], vfree, out=r)
            r += shift
            np.minimum(dist, r, out=dist)
            j = int(dist.argmin())
            low = dist[j]
            rows[k], shifts[k] = i, shift
            i = row4col[j]
            if i < 0:
                break
            scanned[k], lows[k] = j, low
            k += 1
            vfree[j], dist[j] = -math.inf, math.inf
        # Flip the path from the sink j back to the free start, before the
        # duals move. The column scanned at step s was relaxed by steps
        # 0..s (the sink by every step), and its parent row is that of the
        # first of them to give its final distance.
        s = k
        while True:
            p = int(((cost[rows[:s + 1], j] - v[j]) + shifts[:s + 1]).argmin())
            i = rows[p]
            row4col[j], col4row[i] = i, j
            if p == 0:
                break
            s = p - 1
            j = scanned[s]
        sc = scanned[:k]
        gap = low - lows[:k]
        u[start] += low
        u[rows[1:k + 1]] += gap  # rows[t + 1] was matched to column scanned[t]
        v[sc] -= gap
        vfree[sc] = v[sc]
    total = float(cost[np.arange(n), col4row].sum())
    return col4row, total


def exact_w2(X, Y) -> float:
    """Exact squared 2-Wasserstein distance between equal-size point clouds:
    min over matchings of the mean squared distance.

    One-dimensional clouds are matched in sorted order, all others by
    ``solve_assignment``. Clouds are (n, d) arrays with n >= 1, or 1-D
    arrays of n points on the line.
    """
    X, Y = _cloud(X), _cloud(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch")
    if X.shape[0] != Y.shape[0]:
        raise ValueError("clouds must have equal size")
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty cloud")
    if X.shape[1] == 1:
        return float(np.mean((np.sort(X[:, 0]) - np.sort(Y[:, 0])) ** 2))
    return solve_assignment(_sq_dists(X, Y))[1] / n


# ---------------------------------------------------------------------------
# Comparison harness


@dataclass(frozen=True)
class OtComparisonReport:
    n_grid: np.ndarray
    exact_values: np.ndarray
    sinkhorn_values: np.ndarray
    exact_times: np.ndarray
    sinkhorn_times: np.ndarray
    schedules: list
    exact_runtime_exponent: float
    sinkhorn_runtime_exponent: float
    regime: str  # "fast" or "slow" schedule regime


def gen_cloud(dgp_cfg: dict, n: int, d: int, seed: int) -> np.ndarray:
    """A d-dimensional cloud of n points: one generated sequence per axis."""
    cols = [generate(dgp_cfg, n, seed + 7919 * j).values for j in range(d)]
    return np.column_stack(cols)


def _check_seeds(n_sizes: int, d: int, replications: int) -> None:
    """Raise ValueError when two axes of ``compare_estimators`` share a seed:
    axis j at size index i draws base_seed + 10_000 i + 7919 j + 2 rep (+ 1 in Y)."""
    _check_seed_rule(10_000 * np.arange(n_sizes)[:, None] + 7919 * np.arange(d),
                     replications, per_replica=2)


def compare_estimators(dgp_pair_cfg: dict, d: int, beta: float, n_grid,
                       replications: int = 1, base_seed: int = 0) -> OtComparisonReport:
    """Exact assignment baseline versus Sinkhorn divergence at the
    (k_n, eps_n) schedule of ``rates.ot_schedule`` (d >= 4, beta off the
    boundary 2/(d-2)), with wall-clock power-law fits."""
    n_grid = np.asarray(list(n_grid), dtype=int)
    schedule_at = {n: ot_schedule(beta, d, n) for n in n_grid.tolist()}
    _check_replicas(replications, base_seed)
    _check_seeds(len(n_grid), d, replications)
    # d > 2 guards an empty n_grid, for which no ot_schedule check has run
    regime = "fast" if d > 2 and beta > 2.0 / (d - 2) else "slow"

    def draw(n, seed):
        k_n, eps_n = schedule_at[n]
        X = gen_cloud(dgp_pair_cfg, n, d, seed)
        Y = gen_cloud(dgp_pair_cfg, n, d, seed + 1)
        t0 = time.perf_counter()
        ev = exact_w2(X, Y)
        t1 = time.perf_counter()
        sv = sinkhorn_divergence(X, Y, eps_n, k_n)
        return ev, sv, t1 - t0, time.perf_counter() - t1

    seeds = [range(base_seed + 10_000 * i, base_seed + 10_000 * i + 2 * replications, 2)
             for i in range(len(n_grid))]
    draws = _replicates(draw, n_grid.tolist(), seeds).reshape(-1, replications, 4)
    exact_vals, sink_vals, exact_t, sink_t = (
        np.array(_mean_se(m)[0]) for m in draws.transpose(2, 0, 1))
    if len(n_grid) >= 4:
        exp_e = slope_fit(list(zip(n_grid, np.maximum(exact_t, 1e-9)))).slope
        exp_s = slope_fit(list(zip(n_grid, np.maximum(sink_t, 1e-9)))).slope
    else:  # too few sizes for a runtime power-law fit
        exp_e = exp_s = math.nan
    return OtComparisonReport(
        n_grid=n_grid, exact_values=exact_vals, sinkhorn_values=sink_vals,
        exact_times=exact_t, sinkhorn_times=sink_t,
        schedules=[schedule_at[n] for n in n_grid.tolist()],
        exact_runtime_exponent=exp_e, sinkhorn_runtime_exponent=exp_s, regime=regime)
