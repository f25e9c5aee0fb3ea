"""Particular solution of the T-Sylvester equation u v^t - v u^t = w.

For a wide matrix v (n x m, m >= n) with v v^t invertible and skew w, the
minimal particular solution is characterized by v u^t = -w/2 and reads

    u^t = -(1/2) v^t (v v^t)^{-1} w.

v v^t is Wishart-distributed (hence a.s. positive definite) when v has
standard Gaussian entries.  One batched kernel solves a stack of such
systems by LU factorization, never by explicit inversion, and flags every
row whose Gram condition number exceeds COND_LIMIT; a single system is a
batch of one.  Monte Carlo diagnostics for the Wishart inverse-trace
identity E[tr((v v^t)^{-1})] = n/(m-n-1) and the induced moment bound
E|u|^2 <= E|w|^2 / (4(m-n-1)) live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import SkewMatrix, unpack_skew
from .mc import MCEstimate, run_estimator

__all__ = [
    "SingularGramError",
    "SylvesterSolution",
    "solve_tsylvester",
    "tsylvester_batch",
    "wishart_inv_trace_mc",
    "UMomentReport",
    "u_moment_check",
    "COND_LIMIT",
]

COND_LIMIT = 1e12


class SingularGramError(np.linalg.LinAlgError):
    """A singular probe system: Gram condition above COND_LIMIT, or a zero probe."""


@dataclass(frozen=True)
class SylvesterSolution:
    """Solution matrix with its residual |u v^t - v u^t - w| and Gram condition."""

    U: np.ndarray
    residual: float
    cond: float


def _hs_norm(mat: np.ndarray) -> float:
    return float(np.sqrt(np.sum(mat * mat)))


def tsylvester_batch(v: np.ndarray, w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched particular solutions; v (B, n, m), w_mat (B, n, n) skew.

    Returns (u, cond) with u (B, n, m).  Rows whose Gram condition exceeds
    COND_LIMIT (infinite when v v^t is singular) are not solved: their u is
    NaN and callers treat them as resample events.  Every other row equals
    the solution of that row alone.
    """
    gram = v @ np.swapaxes(v, -1, -2)
    eigs = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = eigs[..., -1] / eigs[..., 0]
    cond[~(eigs[..., 0] > 0)] = np.inf
    ok = cond <= COND_LIMIT
    # flagged rows solve against the identity, so that each row's LU stays its own
    sol = np.linalg.solve(np.where(ok[:, None, None], gram, np.eye(gram.shape[-1])), v)
    sol[~ok] = np.nan
    u = 0.5 * (w_mat @ sol)
    return u, cond


def solve_tsylvester(v: np.ndarray, w) -> SylvesterSolution:
    """Particular solution of u v^t - v u^t = w with skew right-hand side.

    v: (n, m) with m >= n; w: SkewMatrix or full (n, n) skew array.
    Raises SingularGramError when cond(v v^t) exceeds COND_LIMIT.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] > v.shape[1]:
        raise ValueError("need a wide matrix (n x m with m >= n)")
    w_mat = w.to_matrix() if isinstance(w, SkewMatrix) else np.asarray(w, dtype=float)
    n = v.shape[0]
    if w_mat.shape != (n, n):
        raise ValueError("right-hand side dimension mismatch")
    u, cond = tsylvester_batch(v[None], w_mat[None])
    if not cond[0] <= COND_LIMIT:
        raise SingularGramError(f"Gram condition {cond[0]:.3e} beyond the limit {COND_LIMIT:.0e}")
    residual = _hs_norm(u[0] @ v.T - v @ u[0].T - w_mat)
    return SylvesterSolution(u[0], residual, float(cond[0]))


def wishart_inv_trace_mc(
    n: int, m: int, N: int, seed: int, workers: int = 1
) -> MCEstimate:
    """Monte Carlo mean of tr((v v^t)^{-1}) over Gaussian v; target n/(m-n-1)."""
    if m < n + 2:
        raise ValueError("need m >= n + 2 for the inverse trace to be integrable")
    if N < 1:
        raise ValueError("need at least one sample")

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        v = rng.standard_normal((count, n, m))
        gram = v @ np.swapaxes(v, -1, -2)
        eigs = np.linalg.eigvalsh(gram)
        return np.sum(1.0 / eigs, axis=-1)

    return run_estimator(sampler, max(N, 2), seed, workers)


@dataclass(frozen=True)
class UMomentReport:
    """Empirical E|u|^2 against the closed-form bound, pass flag at k sigma."""

    mean_u_sq: float
    stderr: float
    bound: float
    n_samples: int
    passed: bool


def u_moment_check(n: int, m: int, N: int, seed: int, workers: int = 1) -> UMomentReport:
    """Check E|u|^2 <= E|w|^2/(4(m-n-1)) with w having i.i.d. N(0,1) upper entries."""
    if m < n + 2:
        raise ValueError("need m >= n + 2")
    pairs = n * (n - 1) // 2
    bound = (2.0 * pairs) / (4.0 * (m - n - 1))  # E|w|^2 = n(n-1) in HS norm

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        v = rng.standard_normal((count, n, m))
        w = unpack_skew(n, rng.standard_normal((count, pairs)))
        u, _ = tsylvester_batch(v, w)
        return np.sum(u * u, axis=(-1, -2))

    est = run_estimator(sampler, N, seed, workers)
    return UMomentReport(est.mean, est.stderr, bound, est.n, est.mean <= bound + 3 * est.stderr)
