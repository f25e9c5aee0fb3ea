"""Exact fixed-time couplings of two group Brownian motions.

Both constructions drive the two processes with Gaussian coefficient streams
that agree everywhere except on a finite set of indices.  Matching the
endpoints reduces to a linear constraint on the shifted coefficients:

* Heisenberg: indices {0, 3} are modified, with one probe built from
  indices 2 and 4.
* rank n >= 2: indices {0, 3, 6, ..., 3m} with m = 2n+1 are modified, with m
  probes built from the neighbouring indices.  Rank 2 is again the Heisenberg
  group, coupled through six blocks instead of two and therefore bounded by
  the rank-n constants, not the sharper two-index ones.

The index-0 shift is (x - x~)/sqrt(T).  The index-3k shifts u_k must produce
the skew endpoint mismatch w: sum_k (u_k V_k^t - V_k u_k^t) = w, with V_k = T
times the k-th probe.  `sylvester_system` builds w and V for both
constructions and for the Girsanov shift in `girsanov`, and both take the
least-norm solution `tsylvester_batch` of that equation; with one probe it is
the right-angle turn of the probe scaled to match the area.

Conditionally on everything the shifts depend on, the modified coordinates
form a standard Gaussian vector, which is coupled jointly with its shifted
copy by one reflection-maximal coupling.  The joint coupling meets at least
as often as the per-block couplings used to derive the closed-form bounds,
and the least-norm shift is never longer than the particular solution those
bounds assume, so they remain valid Monte Carlo targets.  On success the
endpoint difference vanishes identically; it is verified through the finite
sum over modified indices and their neighbours, which no truncation can
touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_coupling import couple_to_shift
from .groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    heis_to_carnot,
    heis_zeta,
    odot_packed,
    triu_pairs,
    unpack_skew,
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

    endpoint: object
    endpoint_tilde: object
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


def _modified_indices(n: int, two_index: bool) -> list[int]:
    if two_index:
        return [0, 3]
    return [0] + [3 * k for k in range(1, 2 * n + 2)]


def sylvester_system(gc: CarnotElement, gct: CarnotElement, T: float,
                     xi: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear system of the index-3k shifts, k = 1..K, for rows xi (B, L, n), L >= 3K+2.

    Returns (w, V): the packed skew mismatch w (B, n(n-1)/2) that the shifts
    must produce, and the columns V_k = T p_k (B, n, K), with p_k the probe
    built from the neighbouring indices 3k-1 and 3k+1.  The shifts u_k solve
    sum_k (u_k V_k^t - V_k u_k^t) = w.
    """
    iu, ju = triu_pairs(gc.n)
    sqrtT = math.sqrt(T)
    a = alpha_ladder(3 * K + 1)
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    hat = (sqrtT / 2.0) * xi[:, 0] - sqrtT * a[0] * xi[:, 1]
    w = -zeta(gc, gct).upper + odot_packed(np.broadcast_to(d, hat.shape), hat, iu, ju)
    V = np.empty(xi.shape[:1] + (gc.n, K))
    for k in range(1, K + 1):
        V[:, :, k - 1] = T * (a[3 * k] * xi[:, 3 * k + 1] - a[3 * k - 1] * xi[:, 3 * k - 1])
    return w, V


def _couple_batch(gc: CarnotElement, gct: CarnotElement, T: float,
                  rng: np.random.Generator, count: int, two_index: bool):
    """Vectorized coupling runs; returns raw arrays for both streams.

    two_index modifies {0, 3} (Heisenberg); otherwise {0, 3, ..., 3m} with
    m = 2n+1.  Returns (xi, xi_t, met, w, cond, bad); bad rows (a condition
    number past COND_LIMIT, infinite for a zero probe) never count as met.
    """
    n = gc.n
    m = 1 if two_index else 2 * n + 1
    sqrtT = math.sqrt(T)
    d = np.asarray(gc.x, dtype=float) - np.asarray(gct.x, dtype=float)
    dnorm = float(np.linalg.norm(d))
    f1 = d / dnorm if dnorm > 0 else np.eye(n)[0]

    xi = rng.standard_normal((count, 3 * m + 2, n))
    uniforms = rng.uniform(size=count)

    w, V = sylvester_system(gc, gct, T, xi, m)
    u, cond = tsylvester_batch(V, unpack_skew(n, w))
    blocks = np.swapaxes(u, 1, 2)
    bad = cond > COND_LIMIT

    stack = np.concatenate(
        [(xi[:, 0] @ f1)[:, None], xi[:, 3:3 * m + 1:3].reshape(count, m * n)], axis=1
    )
    shift = np.concatenate(
        [np.full((count, 1), dnorm / sqrtT), blocks.reshape(count, m * n)], axis=1
    )
    coupled, met = couple_to_shift(stack, shift, uniforms)

    xi_t = xi.copy()
    xi_t[:, 0] += (coupled[:, 0] - stack[:, 0])[:, None] * f1
    xi_t[:, 3:3 * m + 1:3] = coupled[:, 1:].reshape(count, m, n)
    return xi, xi_t, met & ~bad, w, cond, bad


def _gaps(gc: CarnotElement, gct: CarnotElement, T: float,
          xi: np.ndarray, xi_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact finite-sum endpoint differences (max-abs horizontal, HS vertical)."""
    iu, ju = triu_pairs(gc.n)
    xT, zT = endpoint_packed(gc.x, gc.z.upper, xi, T, iu, ju)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, xi_t, T, iu, ju)
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
        xi, xi_t, met, w, cond, bad = _couple_batch(gc, gct, T, rng, 1, two_index)
        if not bad[0]:
            break
        resampled += 1
        if resampled > _MAX_RESAMPLE:
            raise SingularGramError("singular probe system persisted across resamples")
    h_gap, v_gap = _gaps(gc, gct, T, xi, xi_t)
    xi, xi_t = xi[0], xi_t[0]
    k_path = max(truncation_index(DEFAULT_TAIL_TOL, T), xi.shape[0])
    tail = rng.standard_normal((max(0, k_path + 1 - xi.shape[0]), gc.n))
    iu, ju = triu_pairs(gc.n)
    xT, zT = endpoint_packed(gc.x, gc.z.upper, _with_tail(xi, tail), T, iu, ju)
    xTt, zTt = endpoint_packed(gct.x, gct.z.upper, _with_tail(xi_t, tail), T, iu, ju)
    shifts = [(k, xi_t[k] - xi[k]) for k in _modified_indices(gc.n, two_index)]
    diag = CouplingDiagnostics(SkewMatrix(gc.n, w[0]), float(cond[0]), resampled,
                               float(h_gap[0]), float(v_gap[0]))
    if two_index:
        ep = HeisenbergPoint(float(xT[0]), float(xT[1]), float(zT[0]))
        ept = HeisenbergPoint(float(xTt[0]), float(xTt[1]), float(zTt[0]))
    else:
        ep = CarnotElement(xT, SkewMatrix(gc.n, zT))
        ept = CarnotElement(xTt, SkewMatrix(gc.n, zTt))
    return CouplingOutcome(ep, ept, bool(met[0]), shifts, diag)


def couple_heisenberg(g: HeisenbergPoint, gt: HeisenbergPoint, T: float,
                      rng: np.random.Generator) -> CouplingOutcome:
    """One coupling run on the Heisenberg group (modified indices {0, 3})."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    return _couple_once(heis_to_carnot(g), heis_to_carnot(gt), T, rng, two_index=True)


def couple_carnot(g: CarnotElement, gt: CarnotElement, T: float,
                  rng: np.random.Generator) -> CouplingOutcome:
    """One coupling run on the rank-n group (modified indices {0, 3, ..., 3(2n+1)})."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    if g.n != gt.n:
        raise ValueError("dimension mismatch")
    if g.n < 2:
        raise ValueError("rank must be at least 2")
    return _couple_once(g, gt, T, rng, two_index=False)


def _normalize_pair(g, gt):
    if isinstance(g, HeisenbergPoint):
        return heis_to_carnot(g), heis_to_carnot(gt), True
    return g, gt, False


def failure_probability(g, gt, T: float, N: int, seed: int,
                        workers: int = 1) -> MCEstimate:
    """Fraction of coupling runs that fail to meet, with standard error.

    This upper-bounds the total-variation distance between the two endpoint
    laws.  Singular events (a zero probe or a Gram row past COND_LIMIT) are
    measure-zero; any one of them raises SingularGramError.
    """
    gc, gct, heis = _normalize_pair(g, gt)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        _, _, met, _, _, bad = _couple_batch(gc, gct, T, rng, count, heis)
        return np.stack([(~met).astype(float), bad.astype(float)], axis=1)

    fail, singular = run_vector_estimator(sampler, N, seed, workers)
    if singular.mean > 0:
        raise SingularGramError("singular resample events occurred; seed a rerun")
    return fail


def tv_bound(g, gt, T: float, variant: str) -> BoundReport:
    """Closed-form total-variation bound for the chosen constant set."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    if variant in ("proof-stage", "improved-remark2"):
        if not isinstance(g, HeisenbergPoint):
            raise ValueError("Heisenberg variants need Heisenberg points")
        c1, c2 = heisenberg_constants("proof-stage" if variant == "proof-stage" else "improved")
        dx = math.hypot(gt.x1 - g.x1, gt.x2 - g.x2)
        vert = abs(heis_zeta(g, gt))
    elif variant == "carnot-n":
        gc, gct, _ = _normalize_pair(g, gt)
        c1, c2 = carnot_constants(gc.n)
        dx = float(np.linalg.norm(gct.x - gc.x))
        vert = zeta(gc, gct).hs_norm()
    else:
        raise ValueError(f"unknown variant {variant!r}")
    h_term = c1 * dx / math.sqrt(T)
    v_term = c2 * vert / T
    return BoundReport(h_term, v_term, h_term + v_term, variant)
