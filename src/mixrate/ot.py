"""Entropic optimal-transport estimators: log-domain Sinkhorn iterates,
the debiased Sinkhorn divergence, an exact squared-Wasserstein baseline via
an assignment solver (column-reduction warm start plus shortest augmenting
paths with lazy duals: Jonker & Volgenant 1987, Crouse 2016), and the
comparison harness.

The transport path uses numpy only: the log-sum-exp is an in-place,
max-shifted reduction, and importing this module loads no scipy module."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .empirical import generate, slope_fit
from .rates import ot_schedule


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, shape (m, n), built a block of rows at a
    time so the (m, n, d) differences are never held at once. Each entry is
    the same length-d reduction as the full broadcast, bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch")
    m, (n, d) = X.shape[0], Y.shape
    d2 = np.empty((m, n))
    b = max(1, 2 ** 16 // max(1, n * d))  # rows per block of ~2^16 entries
    for i in range(0, m, b):
        d2[i:i + b] = ((X[i:i + b, None, :] - Y[None]) ** 2).sum(axis=2)
    return d2


def _logsumexp_inplace(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)), max-shifted so it stays finite; overwrites a."""
    amax = a.max(axis=axis, keepdims=True)
    a -= amax
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + amax.squeeze(axis)


@dataclass(frozen=True)
class SinkhornState:
    """Dual potentials for entropic transport between two point clouds.

    ``v`` starts at zero; ``k`` counts completed (u, v) update pairs.
    """

    u: np.ndarray
    v: np.ndarray
    eps: float
    k: int
    cost: np.ndarray  # pairwise squared distances, shape (m, n)

    @classmethod
    def init(cls, X, Y, eps: float) -> "SinkhornState":
        if eps <= 0:
            raise ValueError("eps must be > 0")
        cost = _sq_dists(X, Y)
        m, n = cost.shape
        if m == 0 or n == 0:
            raise ValueError("empty cloud")
        return cls(u=np.zeros(m), v=np.zeros(n), eps=eps, k=0, cost=cost)


def sinkhorn_iterate(state: SinkhornState) -> SinkhornState:
    """One full iterate: u from v, then v from the new u, in the log domain.

    u_i = -eps log( n^{-1} sum_j exp((v_j - c_ij)/eps) ) and symmetrically
    for v with m^{-1}; log-sum-exp is max-shifted so iterates stay finite.
    Both half-steps share one (m, n) work array.
    """
    eps, cost = state.eps, state.cost
    m, n = cost.shape
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
    if k < 1:
        raise ValueError("need k >= 1")
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
    move once per augmentation instead of at every step.

    Returns (cols, total) where cols[i] is the column matched to row i.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    row4col, col4row = np.full(n, -1), np.full(n, -1)
    if n == 0:
        return col4row, 0.0
    v = cost.min(axis=0)  # nan and -inf show here, +inf in the maximum
    if not (np.isfinite(v).all() and np.isfinite(cost.max())):
        raise ValueError("cost matrix must be finite")
    for j, i in enumerate((cost == v).argmax(axis=0).tolist()):
        if col4row[i] < 0:  # column j goes to its first minimising row
            row4col[j], col4row[i] = i, j
    u, vfree = np.zeros(n), v.copy()  # -inf in vfree marks scanned columns
    dist, r, lows = np.empty(n), np.empty(n), np.empty(n)
    path, scanned = np.empty(n, dtype=int), np.empty(n, dtype=int)
    relax = np.empty(n, dtype=bool)
    for start in np.flatnonzero(col4row < 0):
        dist.fill(np.inf)
        i, low, k = start, 0.0, 0
        while True:
            np.subtract(cost[i], vfree, out=r)
            r += low - u[i]
            np.less(r, dist, out=relax)
            np.copyto(dist, r, where=relax)
            path[relax] = i
            j = int(dist.argmin())
            low = dist[j]
            if row4col[j] < 0:
                break
            scanned[k], lows[k] = j, low
            k += 1
            vfree[j], dist[j] = -np.inf, np.inf
            i = row4col[j]
        sc = scanned[:k]
        gap = low - lows[:k]
        u[start] += low
        u[row4col[sc]] += gap
        v[sc] -= gap
        vfree[sc] = v[sc]
        while j >= 0:  # flip the path from the sink j back to the free start
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    total = float(cost[np.arange(n), col4row].sum())
    return col4row, total


def exact_w2(X, Y, method: str = "auto") -> float:
    """Exact squared 2-Wasserstein distance between equal-size point clouds:
    min over matchings of the mean squared distance.

    One-dimensional clouds use the sorted-matching shortcut, others the
    assignment solver (``solve_assignment``: column reduction plus shortest
    augmenting paths with lazy duals, after Jonker & Volgenant 1987 and
    Crouse 2016); ``method`` forces a specific solver (assignment / sorted /
    brute) for cross-checks. Clouds are (n, d) arrays with n >= 1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("clouds must be 2-D arrays of shape (n, d)")
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch")
    if X.shape[0] != Y.shape[0]:
        raise ValueError("clouds must have equal size")
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty cloud")
    if method == "auto":
        method = "sorted" if X.shape[1] == 1 else "assignment"
    if method == "sorted":
        if X.shape[1] != 1:
            raise ValueError("sorted matching requires 1-D clouds")
        return float(np.mean((np.sort(X[:, 0]) - np.sort(Y[:, 0])) ** 2))
    cost = _sq_dists(X, Y)
    if method == "brute":
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))
        return float(best) / n
    if method != "assignment":
        raise ValueError(f"unknown method {method!r}")
    _, total = solve_assignment(cost)
    return total / n


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


def compare_estimators(dgp_pair_cfg: dict, d: int, beta: float, n_grid,
                       replications: int = 1, base_seed: int = 0,
                       eps_override: float | None = None,
                       k_override: int | None = None) -> OtComparisonReport:
    """Exact assignment baseline versus Sinkhorn divergence at the
    theoretical (k_n, eps_n) schedule, with wall-clock power-law fits."""
    if d < 2:
        raise ValueError("harness needs d >= 2")
    n_grid = np.asarray(list(n_grid), dtype=int)
    exact_vals = np.empty(len(n_grid))
    sink_vals = np.empty(len(n_grid))
    exact_t = np.empty(len(n_grid))
    sink_t = np.empty(len(n_grid))
    schedules = []
    regime = "fast" if d > 2 and beta > 2.0 / (d - 2) else "slow"
    for i, n in enumerate(n_grid):
        if eps_override is not None and k_override is not None:
            k_n, eps_n = k_override, eps_override
        else:
            k_n, eps_n = ot_schedule(beta, d, int(n))
            if eps_override is not None:
                eps_n = eps_override
            if k_override is not None:
                k_n = k_override
        schedules.append((int(k_n), float(eps_n)))
        ev, sv, et, st = 0.0, 0.0, 0.0, 0.0
        for rep in range(replications):
            seed = base_seed + 10_000 * i + 2 * rep
            X = gen_cloud(dgp_pair_cfg, int(n), d, seed)
            Y = gen_cloud(dgp_pair_cfg, int(n), d, seed + 1)
            t0 = time.perf_counter()
            ev += exact_w2(X, Y, method="assignment")
            et += time.perf_counter() - t0
            t0 = time.perf_counter()
            sv += sinkhorn_divergence(X, Y, eps_n, k_n)
            st += time.perf_counter() - t0
        exact_vals[i], sink_vals[i] = ev / replications, sv / replications
        exact_t[i], sink_t[i] = et, st
    if len(n_grid) >= 4:
        exp_e = slope_fit(list(zip(n_grid, np.maximum(exact_t, 1e-9)))).slope
        exp_s = slope_fit(list(zip(n_grid, np.maximum(sink_t, 1e-9)))).slope
    else:  # too few sizes for a runtime power-law fit
        exp_e = exp_s = math.nan
    return OtComparisonReport(
        n_grid=n_grid, exact_values=exact_vals, sinkhorn_values=sink_vals,
        exact_times=exact_t, sinkhorn_times=sink_t, schedules=schedules,
        exact_runtime_exponent=exp_e,
        sinkhorn_runtime_exponent=exp_s, regime=regime)
