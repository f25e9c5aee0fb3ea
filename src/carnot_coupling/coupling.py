"""Exact fixed-time couplings of two group Brownian motions.

Both constructions drive the two processes with Gaussian coefficient streams
that agree everywhere except on a finite set of indices.  Matching the
endpoints reduces to a linear constraint on the shifted coefficients.  The
points are `CarnotElement`s of any rank n >= 2 (the Heisenberg group is rank
2), and the flag `two_index` picks the construction:

* two_index (rank 2 only): indices {0, 3} are modified, with one probe built
  from indices 2 and 4; bounded by the sharper Heisenberg constants.
* otherwise: indices {0, 3, 6, ..., 3m} with m = 2n+1 are modified, with m
  probes built from the neighbouring indices; bounded by the rank-n
  constants, on rank 2 too.

The index-0 shift is (x - x~)/sqrt(T).  The index-3k shifts u_k must produce
the skew endpoint mismatch w: sum_k (u_k V_k^t - V_k u_k^t) = w, with V_k = T
times the k-th probe.  `sylvester_system` builds w and V for both
constructions and for the Girsanov shift in `girsanov`, and both take the
least-norm solution `tsylvester_batch` of that equation; with one probe it is
the right-angle turn of the probe scaled to match the area.  The streams are
coefficient arrays xi (B, L, n) and w stays packed, (B, n(n-1)/2), up to the
solve; a single run is a batch of one.

Conditionally on everything the shifts depend on, the modified coordinates
form a standard Gaussian vector, which is coupled jointly with its shifted
copy by one reflection-maximal coupling.  The joint coupling meets at least
as often as the per-block couplings used to derive the closed-form bounds,
and the least-norm shift is never longer than the particular solution those
bounds assume, so they remain valid Monte Carlo targets.  On success the
endpoint difference vanishes identically; it is verified through the finite
sum over modified indices and their neighbours, which no truncation can
touch.

`failure_probability` takes a grid of horizons and makes one pass over the
draws for all of them.  Per batch the draw, the index-0 direction, the stack
of modified coordinates, the probes p_k and one factorization of their Gram
matrix are shared: V = T p scales the Gram matrix by T^2, so the condition
number, and with it the resample flag, does not depend on T, and the
least-norm shift is u(p, w_T)/T.  Only the mismatch w_T, that solve and the
reflection coupling are repeated per horizon.  Each horizon's estimate is the
one a grid of that horizon alone gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian_coupling import couple_to_shift
from .groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    heis_to_carnot,
    odot_packed,
    triu_pairs,
    zeta,
)
from .legendre import alpha_ladder, endpoint_packed, truncation_index
from .mc import MCEstimate, run_vector_estimator
from .special_constants import carnot_constants, heisenberg_constants
from .sylvester import COND_LIMIT, SingularGramError, tsylvester_batch

__all__ = [
    "CouplingDiagnostics",
    "CouplingOutcome",
    "BoundReport",
    "couple_heisenberg",
    "couple_carnot",
    "failure_probability",
    "tv_bound",
    "DEFAULT_TAIL_TOL",
]

DEFAULT_TAIL_TOL = 1.0 / 32.0  # reported-endpoint tail control; K_path = 256
_MAX_RESAMPLE = 8


@dataclass(frozen=True)
class CouplingDiagnostics:
    """Per-run diagnostics: mismatch matrix, condition number, resample count.

    cond is that of the shift solve (`tsylvester_batch`): the condition number
    of W -> W G + G W on skew matrices, G the Gram matrix of the probe columns;
    it is 1 on the Heisenberg group and for every rank-2 run.
    """

    w: SkewMatrix
    cond: float
    resampled: int
    horizontal_gap: float
    vertical_gap: float


@dataclass(frozen=True)
class CouplingOutcome:
    """Both endpoints, success flag and the applied coefficient shifts."""

    endpoint: CarnotElement
    endpoint_tilde: CarnotElement
    success: bool
    shifts: list
    diagnostics: CouplingDiagnostics


@dataclass(frozen=True)
class BoundReport:
    """Closed-form failure bound C1 |dx|/sqrt(T) + C2 |zeta|/T."""

    horizontal_term: float
    vertical_term: float
    total: float
    variant: str


def _check_horizon(T: float) -> None:
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")


def _check_pair(g: CarnotElement, gt: CarnotElement, two_index: bool) -> None:
    if g.n != gt.n:
        raise ValueError("dimension mismatch")
    if g.n < 2:
        raise ValueError("rank must be at least 2")
    if two_index and g.n != 2:
        raise ValueError(f"the two-index coupling needs rank 2, got rank {g.n}")


def _modified_indices(n: int, two_index: bool) -> list[int]:
    if two_index:
        return [0, 3]
    return [0] + [3 * k for k in range(1, 2 * n + 2)]


def _mismatch(gc: CarnotElement, gct: CarnotElement, T: float, xi: np.ndarray) -> np.ndarray:
    """Packed skew endpoint mismatch w (B, n(n-1)/2) at horizon T for rows xi (B, L, n)."""
    iu, ju = triu_pairs(gc.n)
    sqrtT = math.sqrt(T)
    a0 = alpha_ladder(1)[0]
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    hat = (sqrtT / 2.0) * xi[:, 0] - sqrtT * a0 * xi[:, 1]
    return -zeta(gc, gct).upper + odot_packed(np.broadcast_to(d, hat.shape), hat, iu, ju)


def _probes(xi: np.ndarray, K: int, T: float) -> np.ndarray:
    """Columns V_k = T p_k (B, n, K), k = 1..K, p_k from the indices 3k-1 and 3k+1 of xi."""
    a = alpha_ladder(3 * K + 1)
    V = np.empty(xi.shape[:1] + (xi.shape[-1], K))
    for k in range(1, K + 1):
        V[:, :, k - 1] = T * (a[3 * k] * xi[:, 3 * k + 1] - a[3 * k - 1] * xi[:, 3 * k - 1])
    return V


def sylvester_system(gc: CarnotElement, gct: CarnotElement, T: float,
                     xi: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear system of the index-3k shifts, k = 1..K, for rows xi (B, L, n), L >= 3K+2.

    Returns (w, V): the packed skew mismatch w (B, n(n-1)/2) that the shifts
    must produce, and the columns V_k = T p_k (B, n, K), with p_k the probe
    built from the neighbouring indices 3k-1 and 3k+1.  The shifts u_k solve
    sum_k (u_k V_k^t - V_k u_k^t) = w.
    """
    return _mismatch(gc, gct, T, xi), _probes(xi, K, T)


class _GridBatch(NamedTuple):
    """One batch of B coupling runs over a grid of S horizons, sharing one draw."""

    xi: np.ndarray       # (B, 3m+2, n), the first stream
    f1: np.ndarray       # (n,), the index-0 displacement direction
    stack: np.ndarray    # (B, 1 + m n), the modified coordinates of xi
    coupled: np.ndarray  # (S, B, 1 + m n), their coupled copies, per horizon
    met: np.ndarray      # (S, B), never true on a bad row
    w: np.ndarray        # (S, B, n(n-1)/2), the packed mismatch, per horizon
    cond: np.ndarray     # (B,), horizon-free
    bad: np.ndarray      # (B,), cond past COND_LIMIT (infinite for a zero probe)


def _couple_batch(gc: CarnotElement, gct: CarnotElement, Ts, rng: np.random.Generator,
                  count: int, two_index: bool) -> _GridBatch:
    """Vectorized coupling runs at every horizon of the grid Ts, from one draw.

    two_index modifies {0, 3} (rank 2 only); otherwise {0, 3, ..., 3m} with
    m = 2n+1.  The draw, the index-0 direction, the modified-coordinate stack,
    the probes P and the factorization of P P^t are horizon-free and done
    once.  Per horizon T only the mismatch w_T, the least-norm shift
    u(T P, w_T) = u(P, w_T)/T (the least-norm map is linear in w and scales
    as 1/T in the probes) and the reflection coupling are repeated.
    """
    n = gc.n
    m = 1 if two_index else 2 * n + 1
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    dnorm = float(np.linalg.norm(d))
    f1 = d / dnorm if dnorm > 0 else np.eye(n)[0]

    xi = rng.standard_normal((count, 3 * m + 2, n))
    uniforms = rng.uniform(size=count)

    w = np.stack([_mismatch(gc, gct, T, xi) for T in Ts])
    u, cond = tsylvester_batch(_probes(xi, m, 1.0), w)
    bad = cond > COND_LIMIT

    stack = np.concatenate(
        [(xi[:, 0] @ f1)[:, None], xi[:, 3:3 * m + 1:3].reshape(count, m * n)], axis=1
    )
    coupled = np.empty((len(Ts),) + stack.shape)
    met = np.empty((len(Ts), count), dtype=bool)
    for s, T in enumerate(Ts):
        blocks = np.swapaxes(u[s], 1, 2) / T
        shift = np.concatenate(
            [np.full((count, 1), dnorm / math.sqrt(T)), blocks.reshape(count, m * n)], axis=1
        )
        coupled[s], met[s] = couple_to_shift(stack, shift, uniforms)
    return _GridBatch(xi, f1, stack, coupled, met & ~bad, w, cond, bad)


def _second_stream(batch: _GridBatch, s: int) -> np.ndarray:
    """The coupled stream xi~ of horizon s: xi with its modified coordinates replaced."""
    count, _, n = batch.xi.shape
    m = (batch.stack.shape[1] - 1) // n
    coupled = batch.coupled[s]
    xi_t = batch.xi.copy()
    xi_t[:, 0] += (coupled[:, 0] - batch.stack[:, 0])[:, None] * batch.f1
    xi_t[:, 3:3 * m + 1:3] = coupled[:, 1:].reshape(count, m, n)
    return xi_t


def _gaps(gc: CarnotElement, gct: CarnotElement, T: float,
          xi: np.ndarray, xi_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact finite-sum endpoint differences (max-abs horizontal, HS vertical)."""
    xT, zT = endpoint_packed(gc.x, gc.z.upper, xi, T)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, xi_t, T)
    h_gap = np.max(np.abs(xT - xTt), axis=-1)
    v_gap = np.sqrt(2.0 * np.sum((zT - zTt) ** 2, axis=-1))
    return h_gap, v_gap


def _with_tail(stream: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return np.concatenate([stream, tail], axis=0)


def _couple_once(gc: CarnotElement, gct: CarnotElement, T: float,
                 rng: np.random.Generator, two_index: bool) -> CouplingOutcome:
    """One coupling run, resampling the rare degenerate or singular draw."""
    resampled = 0
    while True:
        batch = _couple_batch(gc, gct, [T], rng, 1, two_index)
        if not batch.bad[0]:
            break
        resampled += 1
        if resampled > _MAX_RESAMPLE:
            raise SingularGramError("singular probe system persisted across resamples")
    xi, xi_t = batch.xi, _second_stream(batch, 0)
    h_gap, v_gap = _gaps(gc, gct, T, xi, xi_t)
    xi, xi_t = xi[0], xi_t[0]
    k_path = max(truncation_index(DEFAULT_TAIL_TOL, T), xi.shape[0])
    tail = rng.standard_normal((max(0, k_path + 1 - xi.shape[0]), gc.n))
    xT, zT = endpoint_packed(gc.x, gc.z.upper, _with_tail(xi, tail), T)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, _with_tail(xi_t, tail), T)
    shifts = [(k, xi_t[k] - xi[k]) for k in _modified_indices(gc.n, two_index)]
    diag = CouplingDiagnostics(SkewMatrix(gc.n, batch.w[0, 0]), float(batch.cond[0]),
                               resampled, float(h_gap[0]), float(v_gap[0]))
    ep = CarnotElement(xT, SkewMatrix(gc.n, zT))
    ept = CarnotElement(xTt, SkewMatrix(gc.n, zTt))
    return CouplingOutcome(ep, ept, bool(batch.met[0, 0]), shifts, diag)


def couple_heisenberg(g: HeisenbergPoint, gt: HeisenbergPoint, T: float,
                      rng: np.random.Generator) -> CouplingOutcome:
    """One two-index coupling run (modified indices {0, 3}) from Heisenberg points.

    Kept only because the benchmark harness calls it; it is `_couple_once` on
    the rank-2 embeddings with two_index set.
    """
    _check_horizon(T)
    return _couple_once(heis_to_carnot(g), heis_to_carnot(gt), T, rng, two_index=True)


def couple_carnot(g: CarnotElement, gt: CarnotElement, T: float,
                  rng: np.random.Generator) -> CouplingOutcome:
    """One coupling run on the rank-n group (modified indices {0, 3, ..., 3(2n+1)})."""
    _check_horizon(T)
    _check_pair(g, gt, two_index=False)
    return _couple_once(g, gt, T, rng, two_index=False)


def failure_probability(g: CarnotElement, gt: CarnotElement, Ts, N: int, seed: int,
                        workers: int = 1, two_index: bool = False) -> list[MCEstimate]:
    """Fraction of coupling runs that fail to meet at each horizon of Ts, with its stderr.

    two_index samples the two-index coupling, which needs rank 2; otherwise
    the 2n+1-block one.  Both are checked before any sampling.  Returns one
    estimate per entry of Ts, from one pass over the draws: the horizons
    share every batch (common random numbers), and each estimate equals that
    of a one-horizon grid bit for bit.  Each upper-bounds the total-variation
    distance between the two endpoint laws at its horizon.  Singular events
    (a zero probe or a Gram row past COND_LIMIT) are measure-zero; any one of
    them raises SingularGramError.
    """
    Ts = [float(T) for T in Ts]
    if not Ts:
        raise ValueError("need a nonempty grid of horizons")
    for T in Ts:
        _check_horizon(T)
    _check_pair(g, gt, two_index)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        batch = _couple_batch(g, gt, Ts, rng, count, two_index)
        return np.column_stack([(~batch.met).T, batch.bad]).astype(float)

    *fail, singular = run_vector_estimator(sampler, N, seed, workers)
    if singular.mean > 0:
        raise SingularGramError("singular resample events occurred; seed a rerun")
    return fail


def tv_bound(g: CarnotElement, gt: CarnotElement, T: float, variant: str) -> BoundReport:
    """Closed-form total-variation bound for the chosen constant set.

    The Heisenberg variants ("proof-stage", "improved-remark2") need rank-2
    points; "carnot-n" takes any rank.
    """
    _check_horizon(T)
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
