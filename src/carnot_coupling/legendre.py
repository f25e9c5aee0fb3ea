"""Legendre-basis synthesis of Brownian paths and the swept-area series.

A standard Brownian motion on [0, T] is synthesized from i.i.d. standard
Gaussian vectors xi_0, xi_1, ... as

    B_t = sum_k xi_k * int_0^t Q_k(s) ds,

where Q_k(s) = sqrt(2/T) P_k(2s/T - 1) and P_k are the L^2-normalized
Legendre polynomials on [-1, 1]; `integral_Q_table(times, T, K) @ xi` is
the truncated path at the given times.  Only the k = 0 integral survives at
t = T, so B_T = sqrt(T) xi_0 exactly.  The signed swept areas of the
components at time T collapse to the bilinear series

    A_T = T * sum_k alpha_k * (xi_k odot xi_{k+1}),
    alpha_k = 1 / (2 sqrt((2k+1)(2k+3))),

which is what makes this basis the natural driver for endpoint couplings.
The series is evaluated as one matrix product per path,
M = xi[:-1]^t diag(alpha) xi[1:], whose skew part T (M - M^t) is the area.
An Euler-Maruyama discretization of the area SDE is kept alongside as an
independent distributional oracle.

Paths cross this module's boundary only as coefficient arrays xi of shape
(..., K+1, n), row k the R^n coefficient of int Q_k, and endpoints only in
packed vertical coordinates; a single path is a batch of one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .groups import CarnotElement, odot_packed, triu_pairs

__all__ = [
    "alpha",
    "alpha_ladder",
    "alpha_sq",
    "pair_alpha_sq",
    "integral_Q_table",
    "levy_area_packed",
    "endpoint_packed",
    "sde_oracle_batch",
    "truncation_index",
]


def alpha(k: int) -> float:
    """Series coefficient alpha_k = 1/(2 sqrt((2k+1)(2k+3))), decreasing in k."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return 1.0 / (2.0 * math.sqrt((2 * k + 1) * (2 * k + 3)))


@functools.lru_cache(maxsize=64)
def alpha_ladder(kmax: int) -> np.ndarray:
    """Read-only array of alpha_0..alpha_{kmax-1}, built once per kmax."""
    a = np.array([alpha(k) for k in range(kmax)], dtype=float)
    a.flags.writeable = False
    return a


def alpha_sq(k: int) -> float:
    """alpha_k^2 = 1/(4 (2k+1)(2k+3)); telescopes to sum_k alpha_k^2 = 1/8."""
    return 1.0 / (4.0 * (2 * k + 1) * (2 * k + 3))


def pair_alpha_sq(k: int) -> float:
    """alpha_k^2 + alpha_{k+1}^2 = 1/(2 (2k+1)(2k+5))."""
    return 1.0 / (2.0 * (2 * k + 1) * (2 * k + 5))


def _legendre_values(u: np.ndarray, kmax: int) -> np.ndarray:
    """Monic-free Legendre values L_0..L_kmax at u via the three-term recurrence."""
    u = np.asarray(u, dtype=float)
    out = np.empty((kmax + 1,) + u.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = u
    for k in range(1, kmax):
        out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
    return out


def integral_Q_table(times: np.ndarray, T: float, kmax: int) -> np.ndarray:
    """Table of int_0^t Q_k(s) ds, shape (len(times), kmax+1).

    Uses the antiderivative recurrence int L_k = (L_{k+1} - L_{k-1})/(2k+1),
    which is stable at high degree (no expanded polynomial coefficients).
    The k >= 1 columns vanish identically at t = T.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if T <= 0:
        raise ValueError("horizon must be positive")
    if np.any(times < 0) or np.any(times > T):
        raise ValueError("times must lie in [0, T]")
    u = 2.0 * times / T - 1.0
    leg = _legendre_values(u, kmax + 1)
    table = np.empty((times.shape[0], kmax + 1))
    # (t/T) * sqrt(T) rather than t/sqrt(T): makes the t = T value exactly sqrt(T)
    table[:, 0] = (times / T) * math.sqrt(T)
    for k in range(1, kmax + 1):
        table[:, k] = math.sqrt(T / (4.0 * (2 * k + 1))) * (leg[k + 1] - leg[k - 1])
    return table


def levy_area_packed(xi: np.ndarray, T: float, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Packed T * sum_{k < K} alpha_k (xi_k odot xi_{k+1}) for batched xi.

    xi has shape (..., K+1, n); returns shape (..., n(n-1)/2).  One matrix
    product per row, M = xi[:-1]^t diag(alpha) xi[1:], so the packed skew part
    M[i, j] - M[j, i] is the sum over k; each row is computed on its own and
    does not depend on the batch it came in.
    """
    *lead, L, n = xi.shape
    # diag(alpha) xi[1:] on the flat (K n) view of each row: one long inner loop
    # instead of K loops of length n
    weighted = xi.reshape(*lead, L * n)[..., n:] * np.repeat(alpha_ladder(L - 1), n)
    m = np.swapaxes(xi[..., :-1, :], -1, -2) @ weighted.reshape(*lead, L - 1, n)
    return T * (m[..., iu, ju] - m[..., ju, iu])


def endpoint_packed(
    x: np.ndarray, z_packed: np.ndarray, xi: np.ndarray, T: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint (X_T, z_T) in packed vertical coordinates, batched over xi.

    X_T = x + sqrt(T) xi_0,
    z_T = z + (sqrt(T)/2) (x odot xi_0) + area series.

    xi (..., L, n) gives (..., n) and (..., n(n-1)/2); a single path is a
    batch of one.  One start is x (n,), z (n(n-1)/2,); S starts stacked as
    x (S, 1, n), z (S, 1, n(n-1)/2) against xi (B, L, n) share one area and
    give (S, B, ...) endpoints.
    """
    iu, ju = triu_pairs(xi.shape[-1])
    sqrtT = math.sqrt(T)
    xT = x + sqrtT * xi[..., 0, :]
    zT = z_packed + 0.5 * sqrtT * odot_packed(x, xi[..., 0, :], iu, ju)
    zT = zT + levy_area_packed(xi, T, iu, ju)
    return xT, zT


# Euler increments drawn per RNG call: bounds the (steps, count, n) draw in memory
_STEPS_PER_DRAW = 256


def sde_oracle_batch(
    g: CarnotElement, T: float, steps: int, count: int, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama endpoints (X_T, z_T packed) for `count` independent paths.

    Left-point (Ito) quadrature of z_t = z + (1/2) int X odot dX; the swept-area
    variance carries an O(1/steps) discretization deficit.  Used only as an
    independent cross-check of the Legendre representation.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    n = g.n
    iu, ju = triu_pairs(n)
    dt = T / steps
    sq = math.sqrt(dt)
    x = np.tile(np.asarray(g.x, dtype=float), (count, 1))
    z = np.tile(np.asarray(g.z.upper, dtype=float), (count, 1))
    done = 0
    while done < steps:
        blk = min(_STEPS_PER_DRAW, steps - done)
        dB = rng.standard_normal((blk, count, n)) * sq
        for j in range(blk):
            z += 0.5 * odot_packed(x, dB[j], iu, ju)
            x += dB[j]
        done += blk
    return x, z


def truncation_index(tol: float, T: float) -> int:
    """Smallest K >= 1 whose per-entry area tail std, relative to T, is <= tol.

    The telescoping tail control gives the closed form sqrt(1/(2(2K+1))) for
    the relative tail standard deviation, hence K = ceil((1/(2 tol^2) - 1)/2).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if T <= 0:
        raise ValueError("horizon must be positive")
    k = math.ceil((1.0 / (2.0 * tol * tol) - 1.0) / 2.0)
    return max(1, k)
