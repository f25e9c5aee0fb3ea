"""Two solutions of the T-Sylvester equation u v^t - v u^t = w.

For v (n x m) and skew w the solutions, when there are any, form an affine
space; with G = v v^t = Q diag(lambda) Q^t two of them are used.

* The least-norm solution, `tsylvester_batch`: the shift of both couplings
  and of every Girsanov weight.  It is u = W v with W the skew solution of
  W G + G W = w, that is (Q^t W Q)_ij = (Q^t w Q)_ij / (lambda_i +
  lambda_j); for n = 2 every skew W has W G + G W = tr(G) W, so
  u = w v / tr G.  Its cost |u|^2 = sum_{i<j} w~_ij^2 / (lambda_i + lambda_j)
  (w~ = Q^t w Q) is, by the AM-HM inequality, never above the lemma
  solution's, row by row, so every bound proved for the lemma solution holds
  for it as well.  The operator W -> W G + G W is symmetric positive
  definite on skew matrices, with eigenvalues lambda_i + lambda_j, so the
  kernel solves it by Cholesky on the packed entries of W and reads its
  condition number off a Jacobi eigenvalue sweep of G; both follow the layout
  rule of `coupling`, because per-row LAPACK calls on 3 x 3 to 6 x 6 matrices
  cost far more than their arithmetic.
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
one.  The right-hand side w is passed packed, as its n(n-1)/2 strictly upper
entries in the row-major order of `groups`, shape (..., B, n(n-1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import unpack_skew
from .mc import MCEstimate, run_vector_estimator

__all__ = [
    "SingularGramError",
    "tsylvester_batch",
    "tsylvester_row_values",
    "lemma_solution_batch",
    "wishart_inv_trace_mc",
    "UMomentReport",
    "u_moment_check",
    "COND_LIMIT",
]

COND_LIMIT = 1e12
_TINY = np.finfo(float).tiny


class SingularGramError(np.linalg.LinAlgError):
    """A singular probe system: condition number above COND_LIMIT, or a zero probe."""


def tsylvester_batch(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched least-norm solutions; v (B, n, m), w (..., B, n(n-1)/2) packed skew.

    Right-hand sides may be stacked on leading axes, (S, B, n(n-1)/2) against
    one v: the factorization of each row is done once and serves all S of them.
    v and w may have any layout.  Returns (u, cond): u (..., B, n, m) is a
    view of rows-innermost memory (the layout rule of `coupling`), and cond
    (B,) the condition number of the operator W -> W G + G W on skew
    matrices, G = v v^t with eigenvalues lambda_1 <= ... <= lambda_n:
    (lambda_n + lambda_{n-1}) / (lambda_1 + lambda_2), which is 1 for n = 2,
    and infinite where the operator is singular or v has a non-finite entry.
    Rows whose cond exceeds COND_LIMIT are not solved: their u is NaN for
    every right-hand side, and `coupling.shift_batch` raises
    SingularGramError on them.  Every other row equals the solution of that
    row alone, bit for bit.

    n = 2 is the closed form u = w_01 (v_1, -v_0) / tr G.  For n >= 3 every
    step is on (B,) columns, with no LAPACK call per row: the Gram entries
    (`_gram_columns`), a cyclic Jacobi on G / tr G for the eigenvalues behind
    cond, and one Cholesky factorization of the packed operator, whose two
    substitutions serve every right-hand side; then u = W v (`_skew_times`).
    Jacobi runs a fixed 3 + ceil(log2(n - 1)) sweeps (4 at n = 3, 5 at n = 4
    and 5, 6 at n = 6 to 9), the fewest after which one more sweep moved no
    cond by more than 2e-13 relative, over Gaussian, graded (cond up to
    1e10), clustered and repeated-eigenvalue Gram matrices at n = 3 to 10; a
    fixed count keeps every row's steps independent of the batch.
    """
    n, m = v.shape[-2:]
    vt = np.moveaxis(v, 0, -1)  # (n, m, B) columns, with no copy
    with np.errstate(all="ignore"):
        if n == 2:
            trace = np.zeros(vt.shape[-1])
            for i in range(n):
                for j in range(m):
                    trace += vt[i, j] * vt[i, j]
            cond = np.where((trace > 0) & (trace < np.inf), 1.0, np.inf)
            c = w[..., None, :, 0] / trace
            u = np.empty(c.shape[:-2] + vt.shape)
            np.multiply(c, vt[1], out=u[..., 0, :, :])
            np.multiply(np.negative(c, out=c), vt[0], out=u[..., 1, :, :])
        else:
            g = _gram_columns(vt)
            cond = _operator_cond(g, n)
            u = _skew_times(_skew_solve(g, n, [w[..., k] for k in range(w.shape[-1])]), vt)
    u[..., ~(cond <= COND_LIMIT)] = np.nan
    return np.moveaxis(u, -1, -3), cond


def _gram_columns(vt: np.ndarray) -> dict:
    """Upper Gram entries G_kl = <v_k, v_l>, k <= l, as (B,) columns, summed over m in order."""
    n, m = vt.shape[:2]
    g = {}
    for k in range(n):
        acc = vt[k, 0] * vt[k:, 0]
        for j in range(1, m):
            acc += vt[k, j] * vt[k:, j]
        for l in range(k, n):
            g[k, l] = acc[l - k]
    return g


def _skew_times(x: list, vt: np.ndarray) -> np.ndarray:
    """u = W v (..., n, m, B), W skew from its packed columns x (..., B), summed over l in order."""
    n = vt.shape[0]
    pair = {}
    for a, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        pair[i, j] = pair[j, i] = a
    u = np.empty(x[0].shape[:-1] + vt.shape)
    term = np.empty(u.shape[:-3] + u.shape[-2:])
    for i in range(n):
        row = u[..., i, :, :]
        first, *rest = (l for l in range(n) if l != i)
        # W_il = x_il above the diagonal and -x_li below it
        np.multiply(x[pair[i, first]][..., None, :], vt[first], out=row)
        if first < i:
            np.negative(row, out=row)
        for l in rest:
            np.multiply(x[pair[i, l]][..., None, :], vt[l], out=term)
            (np.subtract if l < i else np.add)(row, term, out=row)
    return u


def _operator_cond(g: dict, n: int) -> np.ndarray:
    """cond of W -> W G + G W from the upper Gram columns g[k, l], k <= l.

    The operator's eigenvalues are the sums lambda_i + lambda_j, i < j, of
    the Gram eigenvalues, which cyclic Jacobi finds on G / tr G (no entry
    can overflow).  Only the eigenvalues are kept, not the rotations.
    """
    trace = g[0, 0]
    for i in range(1, n):
        trace = trace + g[i, i]
    scale = 1.0 / trace
    a = {key: col * scale for key, col in g.items()}
    for _ in range(3 + math.ceil(math.log2(n - 1))):
        for p in range(n - 1):
            for q in range(p + 1, n):
                # t = tan of the angle that zeroes a_pq, the root of smaller modulus
                apq = a[p, q]
                apq2 = apq + apq
                tau = a[q, q] - a[p, p]
                root = np.sqrt(tau * tau + apq2 * apq2)
                root += _TINY  # t = 0, not 0/0, where a_pq and tau both vanish
                t = apq2 / (tau + np.copysign(root, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                t_apq = t * apq
                a[p, p] = a[p, p] - t_apq
                a[q, q] = a[q, q] + t_apq
                a[p, q] = 0.0
                for r in range(n):
                    if r != p and r != q:
                        rp, rq = (min(r, p), max(r, p)), (min(r, q), max(r, q))
                        arp, arq = a[rp], a[rq]
                        a[rp] = c * arp - s * arq
                        a[rq] = s * arp + c * arq
    sums = [a[i, i] + a[j, j] for i in range(n) for j in range(i + 1, n)]
    low, high = sums[0], sums[0]
    for x in sums[1:]:
        low, high = np.minimum(low, x), np.maximum(high, x)
    return np.where((low > 0) & (high < np.inf), high / low, np.inf)


def _skew_solve(g: dict, n: int, w: list) -> list:
    """Packed skew W with W G + G W = w, from the packed columns w (..., B).

    On the basis E_ij - E_ji, i < j, in row-major order, the operator has
    diagonal entries G_ii + G_jj; two pairs sharing one index couple through
    +-G of their other two, and pairs sharing none do not couple.  One
    Cholesky factorization, with those structural zeros skipped, serves every
    stacked right-hand side.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    op = {}
    for a, (k, l) in enumerate(pairs):
        op[a, a] = g[k, k] + g[l, l]
        for b, (i, j) in enumerate(pairs[:a]):  # i < k, or i = k and j < l
            if i == k:
                op[a, b] = g[j, l]
            elif j == k:
                op[a, b] = -g[i, l]
            elif j == l:
                op[a, b] = g[i, k]
    low = {}
    for j in range(len(pairs)):
        for i in range(j, len(pairs)):
            acc = op.get((i, j))
            for k in range(j):
                if (i, k) in low and (j, k) in low:
                    term = low[i, k] * low[j, k]
                    acc = -term if acc is None else acc - term
            if i == j:
                low[j, j] = np.sqrt(acc)
            elif acc is not None:
                low[i, j] = acc / low[j, j]
    x = []  # forward substitution, then back substitution in place
    for i in range(len(pairs)):
        acc = w[i]
        for k in range(i):
            if (i, k) in low:
                acc = acc - low[i, k] * x[k]
        x.append(acc / low[i, i])
    for i in reversed(range(len(pairs))):
        acc = x[i]
        for k in range(i + 1, len(pairs)):
            if (k, i) in low:
                acc = acc - low[k, i] * x[k]
        x[i] = acc / low[i, i]
    return x


def tsylvester_row_values(n: int, m: int, S: int) -> int:
    """Float64 values per row that `tsylvester_batch` holds at once, at most, beside its inputs.

    For v (B, n, m) and S stacked right-hand sides.  n = 2 holds the trace
    and a product term, cond and a few masks, and per right-hand side the
    solution and w_01 / tr G.  For n >= 3 it is the largest of three stages,
    each with the n(n+1)/2 Gram columns alive: the Jacobi sweep, on a scaled
    copy of them, about ten temporaries and the P = n(n-1)/2 eigenvalue
    sums; the factorization of `_skew_solve`; and u = W v, with the S P
    substitution columns, u, one product term per right-hand side, cond and
    3 for headers and numpy's iterator buffers (at most 64 KiB, 2 values a
    row from 4096 rows).  The factorization holds the operator entries that
    are not Gram columns (its P diagonal entries and one -G_il for each
    triple i < j < l), the Cholesky factor (the lower triangle less the
    C(n-1, 3) entries that stay zero through the elimination), the S P
    substitution columns, a few temporaries per right-hand side, and a dozen
    more for the headers of those many arrays.
    """
    if n == 2:
        return 6 + S * (2 * m + 1)
    gram = n * (n + 1) // 2
    pairs = n * (n - 1) // 2
    operator = pairs + math.comb(n, 3)
    factor = pairs * (pairs + 1) // 2 - math.comb(n - 1, 3)
    return gram + max(gram + 10 + pairs, operator + factor + S * (pairs + 4) + 12,
                      S * (pairs + n * m + m) + 4)


def lemma_solution_batch(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched particular solutions of the Sylvester lemma; v (B, n, m), w (B, n(n-1)/2) packed skew.

    Returns (u, cond) with u (B, n, m) and cond the Gram condition number
    lambda_max / lambda_min of v v^t (infinite when it is singular or v has a
    non-finite entry).  Rows whose cond exceeds COND_LIMIT are not solved:
    their u is NaN.  Every other row equals the solution of that row alone.
    """
    gram = v @ np.swapaxes(v, -1, -2)
    # a non-finite Gram row would stop eigvalsh for the whole stack; it takes the identity
    finite = np.isfinite(gram).all(axis=(-2, -1))
    gram[~finite] = np.eye(gram.shape[-1])
    eigs = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = eigs[..., -1] / eigs[..., 0]
    cond[~((eigs[..., 0] > 0) & finite)] = np.inf
    ok = cond <= COND_LIMIT
    # flagged rows solve against the identity, so that each row's LU stays its own
    sol = np.linalg.solve(np.where(ok[:, None, None], gram, np.eye(gram.shape[-1])), v)
    sol[~ok] = np.nan
    u = 0.5 * (unpack_skew(v.shape[-2], w) @ sol)
    return u, cond


def wishart_inv_trace_mc(
    n: int, m: int, N: int, seed: int, workers: int = 1
) -> MCEstimate:
    """Monte Carlo mean of tr((v v^t)^{-1}) over Gaussian v; target n/(m-n-1)."""
    if m < n + 2:
        raise ValueError("need m >= n + 2 for the inverse trace to be integrable")

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        v = rng.standard_normal((count, n, m))
        gram = v @ np.swapaxes(v, -1, -2)
        eigs = np.linalg.eigvalsh(gram)
        return np.sum(1.0 / eigs, axis=-1)

    return run_vector_estimator(sampler, N, seed, workers)[0]


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
        u, _ = lemma_solution_batch(v, rng.standard_normal((count, pairs)))
        return np.sum(u * u, axis=(-1, -2))

    est = run_vector_estimator(sampler, N, seed, workers)[0]
    return UMomentReport(est.mean, est.stderr, bound, est.n, est.mean <= bound + 3 * est.stderr)
