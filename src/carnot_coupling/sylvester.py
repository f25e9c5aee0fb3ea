"""Two solutions of the T-Sylvester equation u v^t - v u^t = w.

For v (n x m) and skew w the solutions, when there are any, form an affine
space; with G = v v^t = Q diag(lambda) Q^t two of them are used.

* The least-norm solution, `tsylvester_batch`: the shift of both couplings
  and of every Girsanov weight.  It is u = 2 W v with W the skew solution of
  W G + G W = w/2, that is (Q^t W Q)_ij = (Q^t w Q)_ij / (2(lambda_i +
  lambda_j)); for n = 2 every skew W has W G + G W = tr(G) W, so
  u = w v / tr G.  Its cost |u|^2 = sum_{i<j} w~_ij^2 / (lambda_i + lambda_j)
  (w~ = Q^t w Q) is, by the AM-HM inequality, never above the lemma
  solution's, row by row, so every bound proved for the lemma solution holds
  for it as well.
* The particular solution of the paper's Sylvester lemma,
  `lemma_solution_batch`, for wide v (m >= n), characterized by
  v u^t = -w/2:

      u = (1/2) w (v v^t)^{-1} v,

  solved by LU factorization, never by explicit inversion.  The Monte Carlo
  checks of the lemma use it: the Wishart inverse-trace identity
  E[tr((v v^t)^{-1})] = n/(m-n-1) for Gaussian v makes its moment
  E|u|^2 = E|w|^2 / (4(m-n-1)) an equality, so the check is sharp only here.

Each kernel solves a stack of systems and flags every row whose condition
number exceeds COND_LIMIT by leaving it NaN; a single system is a batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import unpack_skew
from .mc import MCEstimate, run_vector_estimator

__all__ = [
    "SingularGramError",
    "tsylvester_batch",
    "lemma_solution_batch",
    "wishart_inv_trace_mc",
    "UMomentReport",
    "u_moment_check",
    "COND_LIMIT",
]

COND_LIMIT = 1e12


class SingularGramError(np.linalg.LinAlgError):
    """A singular probe system: condition number above COND_LIMIT, or a zero probe."""


def tsylvester_batch(v: np.ndarray, w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched least-norm solutions; v (B, n, m), w_mat (..., B, n, n) skew.

    Right-hand sides may be stacked on leading axes, (S, B, n, n) against one
    v: the factorization of each row (its trace for n = 2, one `eigh`
    otherwise) is done once and serves all S of them.  Returns (u, cond) with
    u (..., B, n, m).  cond (B,) is the condition number of the operator
    W -> W G + G W on skew matrices, G = v v^t with eigenvalues
    lambda_1 <= ... <= lambda_n: (lambda_n + lambda_{n-1}) / (lambda_1 +
    lambda_2), which is 1 for n = 2, and infinite where the operator is
    singular.  Rows whose cond exceeds COND_LIMIT are not solved: their u is
    NaN for every right-hand side and callers treat them as resample events.
    Every other row equals the solution of that row alone.
    """
    n = v.shape[-2]
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 2:
            trace = np.einsum("bij,bij->b", v, v)
            cond = np.where(trace > 0, 1.0, np.inf)
            u = (w_mat @ v) / trace[:, None, None]
        else:
            lam, q = np.linalg.eigh(v @ np.swapaxes(v, -1, -2))
            low = lam[:, 0] + lam[:, 1]
            cond = np.where(low > 0, (lam[:, -1] + lam[:, -2]) / low, np.inf)
            qt = np.swapaxes(q, -1, -2)
            # a skew W has no diagonal: an infinite denominator zeroes it
            den = np.where(np.eye(n, dtype=bool), np.inf, lam[:, :, None] + lam[:, None, :])
            u = q @ ((qt @ w_mat @ q) / den) @ (qt @ v)
    u[..., ~(cond <= COND_LIMIT), :, :] = np.nan
    return u, cond


def lemma_solution_batch(v: np.ndarray, w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched particular solutions of the Sylvester lemma; v (B, n, m), w_mat (B, n, n) skew.

    Returns (u, cond) with u (B, n, m) and cond the Gram condition number
    lambda_max / lambda_min of v v^t (infinite when it is singular).  Rows
    whose cond exceeds COND_LIMIT are not solved: their u is NaN.  Every
    other row equals the solution of that row alone.
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

    return run_vector_estimator(sampler, max(N, 2), seed, workers)[0]


@dataclass(frozen=True)
class UMomentReport:
    """Empirical E|u|^2 against the closed-form bound, pass flag at k sigma."""

    mean_u_sq: float
    stderr: float
    bound: float
    n_samples: int
    passed: bool


def u_moment_check(n: int, m: int, N: int, seed: int, workers: int = 1) -> UMomentReport:
    """Check E|u|^2 <= E|w|^2/(4(m-n-1)) for the lemma solution.

    w has i.i.d. N(0,1) upper entries; for this solution the bound is an equality.
    """
    if m < n + 2:
        raise ValueError("need m >= n + 2")
    pairs = n * (n - 1) // 2
    bound = (2.0 * pairs) / (4.0 * (m - n - 1))  # E|w|^2 = n(n-1) in HS norm

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        v = rng.standard_normal((count, n, m))
        w = unpack_skew(n, rng.standard_normal((count, pairs)))
        u, _ = lemma_solution_batch(v, w)
        return np.sum(u * u, axis=(-1, -2))

    est = run_vector_estimator(sampler, N, seed, workers)[0]
    return UMomentReport(est.mean, est.stderr, bound, est.n, est.mean <= bound + 3 * est.stderr)
