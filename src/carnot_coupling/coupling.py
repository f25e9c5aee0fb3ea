"""Exact fixed-time couplings of two group Brownian motions.

One construction with a block count K couples every rank n >= 2 (the
Heisenberg group is rank 2): the two processes are driven by Gaussian
coefficient streams that agree everywhere except on the indices {0, 3, ...,
3K}, and matching the endpoints reduces to a linear constraint on the
shifted coefficients.  K defaults to `default_support_count(n)` = 2n+1,
bounded by the rank-n constants, on rank 2 too; the two-index coupling of
the Heisenberg group is K = 1, indices {0, 3}, bounded by the sharper
Heisenberg constants.  K must be at least n - 1, the fewest probes for which
the shift solve is almost surely invertible.

The index-0 shift is (x - x~)/sqrt(T).  The index-3k shifts u_k must produce
the skew endpoint mismatch w (`_mismatches`): sum_k (u_k V_k^t - V_k u_k^t) =
w, with V_k = T p_k and p_k the k-th probe (`_probes`), built from the
neighbouring indices 3k-1 and 3k+1.  One kernel, `shift_batch`, solves it for
the coupling and for every Girsanov weight in `girsanov`, by the least-norm
`tsylvester_batch`; with one probe that is the right-angle turn of the probe
scaled to match the area.  A singular Gram row, a null event, makes it raise
SingularGramError for its whole row tile.  It also pairs each shift u with
the draw (`shift_pairing`): the two row sums of log R(u) = -<omega, u> -
|u|^2/2, which the coupling's accept test and every Girsanov weight read.
Its `orbit` adds the shift at -xi, or at each point of the sign orbit xi,
-xi, D xi, -D xi ((D xi)_k = (-1)^k xi_k), to the same solve as more
right-hand sides, for the antithetic transfer check and gradient estimators.

The layout rule: the draw xi (B, L, n) is row-major, and every array the
kernel makes keeps its B rows innermost, one (B,) column per entry, built
from strided columns of xi, since numpy's inner loop runs over the last
axis, n or K long in a row-major array.  Each sum over k or i adds columns
in index order, never einsum, np.sum or matmul over the summed axis, whose
order numpy picks per shape: so a batch of one equals its row.  Public
shapes, the probes (B, n, K) and blocks (S, B, K, n), view that memory.

Conditionally on everything the shifts depend on, the modified coordinates
form a standard Gaussian vector, which is coupled jointly with its shifted
copy by one reflection-maximal coupling (`couple_to_shift`), which accepts
on log U <= log R(u).  It moves each row by one scalar multiple c of its
shift, so a batch keeps c and the shift, and only `_second_stream` builds the
coupled stream.  The joint coupling meets at least as often as the per-block
couplings used to derive the closed-form bounds, and the least-norm shift is
never longer than the particular solution those bounds assume, so they remain valid Monte Carlo
targets.  On success the endpoint difference vanishes identically; it is
verified through the finite sum over modified indices and their neighbours,
which no truncation can touch.

Given everything the shift reads, the coupling is maximal for the one
coordinate it moves, so a row fails with probability exactly
erf(|u|/(2 sqrt 2)) (`gaussian_tv`), read from `Shift.norm2`.  By the tower
property its mean is the failure probability, and averaging it in place of
the failure indicator (Rao-Blackwellization) never raises the variance.

`failure_probability` returns both means from the same rows.  It takes a
grid of horizons and makes one pass over the draws for all of them.  Per
row tile the draw, the probes p_k and one factorization of their Gram
matrix are shared: V = T p scales the Gram matrix by T^2, so the condition
number, and with it the singular flag, does not depend on T, and the
least-norm shift is u(p, w_T/T).  A batch draws its uniforms, then its
coefficients tile by tile (`mc.tiled_sampler`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian_coupling import couple_to_shift, gaussian_tv
from .groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    heis_to_carnot,
    triu_pairs,
    zeta,
)
from .legendre import ORBIT_FLIP, ORBIT_MIRROR, alpha_ladder, endpoint_packed, truncation_index
from .mc import MCEstimate, run_vector_estimator, tiled_sampler
from .special_constants import carnot_constants, heisenberg_constants
from .sylvester import COND_LIMIT, SingularGramError, tsylvester_batch, tsylvester_row_values

__all__ = [
    "CouplingDiagnostics",
    "CouplingOutcome",
    "BoundReport",
    "FailureEstimate",
    "Shift",
    "shift_batch",
    "shift_pairing",
    "check_horizon",
    "couple_heisenberg",
    "couple_carnot",
    "default_support_count",
    "batch_row_values",
    "failure_probability",
    "tv_bound",
    "DEFAULT_TAIL_TOL",
]

DEFAULT_TAIL_TOL = 1.0 / 32.0  # reported-endpoint tail control; K_path = 256


@dataclass(frozen=True)
class CouplingDiagnostics:
    """Per-run diagnostics: the exact finite-sum endpoint gaps (`_gaps`)."""

    horizontal_gap: float
    vertical_gap: float


@dataclass(frozen=True)
class CouplingOutcome:
    """Both endpoints and the success flag of one coupling run."""

    endpoint: CarnotElement
    endpoint_tilde: CarnotElement
    success: bool
    diagnostics: CouplingDiagnostics


@dataclass(frozen=True)
class BoundReport:
    """Closed-form failure bound C1 |dx|/sqrt(T) + C2 |zeta|/T."""

    horizontal_term: float
    vertical_term: float
    total: float
    variant: str


class FailureEstimate(NamedTuple):
    """Two unbiased estimates of the failure probability at one horizon, from the same rows."""

    indicator: MCEstimate    # the fraction of rows that failed to meet
    conditional: MCEstimate  # the mean of each row's failure probability given its shift


def default_support_count(n: int) -> int:
    """Default block count K = 2n+1 of the coupling and of the Girsanov weights.

    The coupling needs K >= n - 1, the Girsanov weights K >= n + 2.
    """
    return 2 * n + 1


def batch_row_values(n: int, K: int, S: int) -> int:
    """Float64 values per row that one row tile of a `failure_probability` batch over S
    horizons holds at once.

    An upper bound, from the arrays `_couple_rows` makes.  The draw, (3K + 2)
    n coefficients, the probes, n K, and the S packed mismatches are held
    through the solve.  Beside them is the larger of the solve's own working
    set (`tsylvester_row_values`) and, after it, the pairing's: the S K n
    shift blocks, three temporary columns per horizon of `shift_pairing`, a
    few per-row scalars (the pairing, c and met of every horizon), and the
    tile's output columns: three arrays of S values at once while the
    conditional column is taken from `norm2`.  The batch's uniforms and
    statistics are counted per batch row, not here.
    """
    held = (3 * K + 2) * n + n * K + S * n * (n - 1) // 2
    coupling = S * K * n + 10 * S + 8
    return held + max(tsylvester_row_values(n, K, S), coupling)


def check_horizon(T: float) -> None:
    """Reject a horizon that is not positive and finite."""
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")


def _check_pair(g: CarnotElement, gt: CarnotElement, K: int) -> None:
    if g.n != gt.n:
        raise ValueError("dimension mismatch")
    if g.n < 2:
        raise ValueError("rank must be at least 2")
    # W -> W G + G W is invertible iff lambda_i + lambda_j > 0, i.e. rank G >= n - 1
    if K < g.n - 1:
        raise ValueError(f"the coupling needs K >= n - 1 = {g.n - 1} blocks, got K = {K}")


def _odd_mismatch(gc: CarnotElement, gct: CarnotElement, T: float, xi: np.ndarray,
                  flip: bool = False) -> np.ndarray:
    """The part of the mismatch (`_mismatches`) linear in xi, columns (n(n-1)/2, B).

    The rest, -zeta, reads no xi.  `flip` gives it at D xi, which keeps xi_0 and negates xi_1.
    """
    iu, ju = triu_pairs(gc.n)
    sqrtT = math.sqrt(T)
    a0 = alpha_ladder(1)[0]
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    hat = np.empty((gc.n, xi.shape[0]))
    step = np.empty(xi.shape[0])
    for i, col in enumerate(hat):
        np.multiply(sqrtT / 2.0, xi[:, 0, i], out=col)
        np.multiply(sqrtT * a0, xi[:, 1, i], out=step)
        (np.add if flip else np.subtract)(col, step, out=col)
    return d[iu, None] * hat[ju] - d[ju, None] * hat[iu]


def _probes(xi: np.ndarray, K: int) -> np.ndarray:
    """Probes p_k (B, n, K), k = 1..K, from the indices 3k-1 and 3k+1 of rows xi (B, L, n).

    Needs L >= 3K+2.  At horizon T the index-3k shifts u_k solve
    sum_k (u_k V_k^t - V_k u_k^t) = w with V_k = T p_k and w the mismatch at T.
    """
    a = alpha_ladder(3 * K + 1)
    P = np.empty((xi.shape[-1], K, xi.shape[0]))
    term = np.empty(xi.shape[0])
    for k in range(1, K + 1):
        for i, col in enumerate(P[:, k - 1]):
            np.multiply(a[3 * k], xi[:, 3 * k + 1, i], out=col)
            np.multiply(a[3 * k - 1], xi[:, 3 * k - 1, i], out=term)
            col -= term
    return np.moveaxis(P, -1, 0)


class Shift(NamedTuple):
    """The shift from g to g~ at S horizons for the B rows of one draw (`shift_batch`).

    `dot` and `norm2` pair each entry with the draw xi (`shift_pairing`), so
    log R(u) = -dot - norm2/2.  With a sign orbit, an entry at -xi or -D xi
    has its `dot` taken against xi or D xi: there log R = +dot - norm2/2.
    """

    axis: np.ndarray    # (n,), (x - x~)/|x - x~|, zero when x = x~
    u0: np.ndarray      # (S, n), the index-0 shift (x - x~)/sqrt(T)
    blocks: np.ndarray  # (S, B, K, n), row k-1 shifts index 3k
    dot: np.ndarray     # (S, B), <xi, u> over the shift support
    norm2: np.ndarray   # (S, B), |u|^2
    # over a sign orbit of O points, entry O s + o of the four above is horizon s at point o
    probes: np.ndarray  # (B, n, K), horizon-free: V = T p at horizon T
    cond: np.ndarray    # (B,), of the solve, horizon-free; never past COND_LIMIT, or it raised


def shift_batch(gc: CarnotElement, gct: CarnotElement, Ts, xi: np.ndarray, K: int,
                orbit: int = 1) -> Shift:
    """The K-block shift from gc to gct at each horizon of Ts, for rows xi (B, L >= 3K+2, n).

    One solve serves every horizon.  If any row's cond is past COND_LIMIT (or
    NaN), it raises SingularGramError, whose message counts the singular rows.

    `orbit` = 2 or 4 adds the shift at the other points of the sign orbit xi,
    -xi, D xi, -D xi, with (D xi)_k = (-1)^k xi_k, to the same solve: entry
    `orbit` s + o is horizon s at point o.  Each equals `shift_batch` on a copy
    of its point bit for bit, and none needs that copy.  The probes are odd in
    xi, p(-xi) = -p, and D multiplies p_k by (-1)^{k+1}, the parity of its
    indices 3k -+ 1.  So the Gram matrix and its factorization are those of p,
    u(-p, w) = -u(p, w), and column k of u(D p, w) is (-1)^{k+1} times that of
    u(p, w).  The mismatch at -xi is -zeta - o, for its part o linear in xi,
    and at D xi it is the mismatch with xi_1 negated (`_odd_mismatch`).  So
    each point is one more right-hand side against p, divided by T or -T, with
    the columns signed at D xi.  `probes` are those at xi.
    """
    if orbit not in (1, 2, 4):
        raise ValueError(f"the sign orbit has 1, 2 or 4 points, got {orbit}")
    Ts = np.asarray(Ts, dtype=float)
    for T in Ts:
        check_horizon(T)
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    dnorm = float(np.linalg.norm(d))
    axis = d / dnorm if dnorm > 0 else np.zeros_like(d)
    p = _probes(xi, K)
    scale = np.outer(Ts, ORBIT_MIRROR[:orbit]).ravel()
    u, cond = tsylvester_batch(p, _mismatches(gc, gct, Ts, xi, orbit) / scale[:, None, None])
    bad = np.count_nonzero(~(cond <= COND_LIMIT))
    if bad:
        # measure-zero event; fail loudly rather than use an ill-conditioned solve
        raise SingularGramError(f"{bad} singular Gram draws in a tile of {cond.size} rows, "
                                "reseed the run")
    u0 = d / np.sqrt(np.abs(scale))[:, None]
    blocks = np.swapaxes(u, -1, -2)
    flip = np.tile(ORBIT_FLIP[:orbit], len(Ts))
    dot, norm2 = shift_pairing(u0, blocks, xi, flip)
    # the pairing at D xi reads the columns before their signs
    for s in np.flatnonzero(flip):
        u[s, ..., 1::2] *= -1.0
    return Shift(axis, u0, blocks, dot, norm2, p, cond)


def shift_pairing(u0: np.ndarray, blocks: np.ndarray, xi: np.ndarray,
                  flip=False) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise <omega, u> over the shift support and |u|^2.

    u0 (..., n) and blocks (..., B, K, n) may stack entries on leading axes,
    with `flip` a bool or one per entry.  With `flip`, blocks are the shift
    at D xi before its column signs (-1)^{k+1}, and the pairing is the one
    with D xi: D negates every term <xi_{3k}, u_k>, so it is <xi_0, u_0> -
    sum_k <xi_{3k}, u_k>.
    """
    K, n = blocks.shape[-2:]
    u0 = np.asarray(u0)[..., None]
    head = xi[:, 0, 0] * u0[..., 0, :]
    u0_sq = u0[..., 0, :] * u0[..., 0, :]
    for i in range(1, n):
        head += xi[:, 0, i] * u0[..., i, :]
        u0_sq += u0[..., i, :] * u0[..., i, :]
    tail = np.zeros(head.shape)
    norm2 = np.zeros(head.shape)
    term = np.empty(head.shape)
    for k in range(K):
        for i in range(n):
            col = blocks[..., k, i]
            tail += np.multiply(xi[:, 3 * k + 3, i], col, out=term)
            norm2 += np.multiply(col, col, out=term)
    np.negative(tail, out=tail, where=np.asarray(flip)[..., None])
    return head + tail, np.add(u0_sq, norm2, out=norm2)


def _mismatches(gc: CarnotElement, gct: CarnotElement, Ts: np.ndarray, xi: np.ndarray,
                orbit: int) -> np.ndarray:
    """Packed skew endpoint mismatch w (O S, B, n(n-1)/2) at each horizon and orbit point."""
    even = -zeta(gc, gct).upper[:, None]
    w = np.empty((orbit * len(Ts), len(even), xi.shape[0]))
    rhs = iter(w)
    for T in Ts:
        for flip in ORBIT_FLIP[:orbit:2]:
            odd = _odd_mismatch(gc, gct, T, xi, flip)
            np.add(even, odd, out=next(rhs))
            if orbit > 1:
                np.subtract(even, odd, out=next(rhs))
    return np.moveaxis(w, -1, -2)


class _GridBatch(NamedTuple):
    """One batch of B coupling runs over a grid of S horizons, sharing one draw."""

    xi: np.ndarray       # (B, 3K+2, n), the first stream
    shift: Shift         # at every horizon of the grid, without the probes
    c: np.ndarray        # (S, B), the coupled stream is xi + c shift on the modified indices
    met: np.ndarray      # (S, B)


def _couple_batch(gc: CarnotElement, gct: CarnotElement, Ts, rng: np.random.Generator,
                  count: int, K: int) -> _GridBatch:
    """Vectorized K-block coupling runs at every horizon of the grid Ts, from one draw.

    It draws as a `failure_probability` batch does, its uniforms and then its
    coefficients, and keeps the whole draw: a batch of one is a single run.
    """
    uniforms = rng.uniform(size=count)
    xi = tiled_sampler(lambda tile: tile, (3 * K + 2, gc.n))(rng, count)
    return _couple_rows(gc, gct, Ts, xi, uniforms, K)


def _couple_rows(gc: CarnotElement, gct: CarnotElement, Ts, xi: np.ndarray,
                 uniforms: np.ndarray, K: int) -> _GridBatch:
    """The coupling runs of `_couple_batch` on the rows of a given draw; each row is its own."""
    # the coupling reads no probes: the batch does not keep them
    sh = shift_batch(gc, gct, Ts, xi, K)._replace(probes=None)
    coupled = [couple_to_shift(dot, norm2, uniforms) for dot, norm2 in zip(sh.dot, sh.norm2)]
    return _GridBatch(xi, sh, *map(np.stack, zip(*coupled)))


def _second_stream(batch: _GridBatch, s: int) -> np.ndarray:
    """The coupled stream xi~ of horizon s: xi plus c times the shift on the modified indices."""
    K = batch.shift.blocks.shape[-2]
    c = batch.c[s]
    xi_t = batch.xi.copy()
    xi_t[:, 0] += c[:, None] * batch.shift.u0[s]
    xi_t[:, 3:3 * K + 1:3] += c[:, None, None] * batch.shift.blocks[s]
    return xi_t


def _gaps(gc: CarnotElement, gct: CarnotElement, T: float,
          xi: np.ndarray, xi_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact finite-sum endpoint differences (max-abs horizontal, HS vertical)."""
    xT, zT = endpoint_packed(gc.x, gc.z.upper, xi, T)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, xi_t, T)
    h_gap = np.max(np.abs(xT - xTt), axis=-1)
    v_gap = np.sqrt(2.0 * np.sum((zT - zTt) ** 2, axis=-1))
    return h_gap, v_gap


def _couple_once(gc: CarnotElement, gct: CarnotElement, T: float,
                 rng: np.random.Generator, K: int) -> CouplingOutcome:
    """One K-block coupling run, a batch of one plus a rendered tail; a singular draw raises."""
    batch = _couple_batch(gc, gct, [T], rng, 1, K)
    xi, xi_t = batch.xi, _second_stream(batch, 0)
    h_gap, v_gap = _gaps(gc, gct, T, xi, xi_t)
    xi, xi_t = xi[0], xi_t[0]
    k_path = max(truncation_index(DEFAULT_TAIL_TOL, T), xi.shape[0])
    tail = rng.standard_normal((max(0, k_path + 1 - xi.shape[0]), gc.n))
    xT, zT = endpoint_packed(gc.x, gc.z.upper, np.concatenate([xi, tail]), T)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, np.concatenate([xi_t, tail]), T)
    diag = CouplingDiagnostics(float(h_gap[0]), float(v_gap[0]))
    ep = CarnotElement(xT, SkewMatrix(gc.n, zT))
    ept = CarnotElement(xTt, SkewMatrix(gc.n, zTt))
    return CouplingOutcome(ep, ept, bool(batch.met[0, 0]), diag)


def couple_heisenberg(g: HeisenbergPoint, gt: HeisenbergPoint, T: float,
                      rng: np.random.Generator) -> CouplingOutcome:
    """One two-index coupling run (modified indices {0, 3}) from Heisenberg points.

    Kept only because the benchmark harness calls it; it is `_couple_once` on
    the rank-2 embeddings with K = 1.
    """
    return _couple_once(heis_to_carnot(g), heis_to_carnot(gt), T, rng, K=1)


def couple_carnot(g: CarnotElement, gt: CarnotElement, T: float,
                  rng: np.random.Generator) -> CouplingOutcome:
    """One coupling run on the rank-n group (modified indices {0, 3, ..., 3(2n+1)})."""
    K = default_support_count(g.n)
    _check_pair(g, gt, K)
    return _couple_once(g, gt, T, rng, K)


def failure_probability(g: CarnotElement, gt: CarnotElement, Ts, N: int, seed: int,
                        workers: int = 1, K: int | None = None) -> list[FailureEstimate]:
    """Failure probability of the K-block coupling at each horizon of Ts, two ways.

    K defaults to `default_support_count(n)`; K = 1 is the two-index coupling.
    K < n - 1 is rejected before any sampling.  One estimate per horizon,
    from one pass over the draws: the horizons share every batch (common
    random numbers), and each estimate equals that of a one-horizon grid bit
    for bit, whatever the tiling.  Its `indicator` is the fraction of runs
    that fail to meet; its `conditional` averages erf(|u|/(2 sqrt 2)), the
    probability that a run fails given its shift u, which has the same mean
    and a smaller variance.  Each upper-bounds the total-variation distance
    between the two endpoint laws at its horizon.  Singular events (a zero
    probe or a Gram row past COND_LIMIT) are measure-zero; the first row tile
    with any one of them raises SingularGramError, which counts the singular
    rows of that tile, before any statistics are taken.
    """
    Ts = [float(T) for T in Ts]
    if not Ts:
        raise ValueError("need a nonempty grid of horizons")
    for T in Ts:
        check_horizon(T)
    if K is None:
        K = default_support_count(g.n)
    _check_pair(g, gt, K)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        uniforms = rng.uniform(size=count)
        done = 0

        def columns(xi: np.ndarray) -> np.ndarray:
            nonlocal done  # the tiles come in row order: these are the next rows
            batch = _couple_rows(g, gt, Ts, xi, uniforms[done:done + len(xi)], K)
            done += len(xi)
            # the failure indicator at each horizon, then the conditional probability
            return np.vstack([~batch.met, gaussian_tv(np.sqrt(batch.shift.norm2))]).T

        return tiled_sampler(columns, (3 * K + 2, g.n))(rng, count)

    ests = run_vector_estimator(sampler, N, seed, workers)
    return [FailureEstimate(*pair) for pair in zip(ests[:len(Ts)], ests[len(Ts):])]


def tv_bound(g: CarnotElement, gt: CarnotElement, T: float, variant: str) -> BoundReport:
    """Closed-form total-variation bound for the chosen constant set.

    The Heisenberg variants ("proof-stage", "improved-remark2") need rank-2
    points; "carnot-n" takes any rank.
    """
    check_horizon(T)
    if variant in ("proof-stage", "improved-remark2"):
        if g.n != 2:
            raise ValueError(f"Heisenberg variants need rank-2 points, got rank {g.n}")
        c1, c2 = heisenberg_constants("proof-stage" if variant == "proof-stage" else "improved")
        dx = math.hypot(*(gt.x - g.x))
        vert = abs(zeta(g, gt).upper[0])
    elif variant == "carnot-n":
        c1, c2 = carnot_constants(g.n)
        dx = float(np.linalg.norm(gt.x - g.x))
        vert = zeta(g, gt).hs_norm()
    else:
        raise ValueError(f"unknown variant {variant!r}")
    h_term = c1 * dx / math.sqrt(T)
    v_term = c2 * vert / T
    return BoundReport(h_term, v_term, h_term + v_term, variant)
