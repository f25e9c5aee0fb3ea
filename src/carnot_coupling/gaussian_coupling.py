"""Reflection-maximal coupling of identity-covariance Gaussian vectors.

For X ~ N(m, I_d) and Y ~ N(m', I_d) the reflection coupling along
e = (m' - m)/|m' - m| accepts Y = X with probability
min(1, phi(s - delta)/phi(s)) (s the signed coordinate of X - m along e,
delta = |m' - m|) and otherwise reflects X through the hyperplane bisecting
m and m'.  It is maximal: P(X != Y) equals the total-variation distance
2 Phi(delta/2) - 1, which never exceeds delta / sqrt(2 pi).  The d - 1
coordinates orthogonal to e are shared identically between X and Y, which is
exactly what the endpoint couplings need.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gaussian_tv",
    "reflection_couple_batch",
    "couple_to_shift",
]


def gaussian_tv(delta: float) -> float:
    """Exact meeting-failure probability 2 Phi(delta/2) - 1 = erf(delta/(2 sqrt 2))."""
    if delta < 0:
        raise ValueError("shift norm must be nonnegative")
    return math.erf(delta / (2.0 * math.sqrt(2.0)))


def reflection_couple_batch(
    G: np.ndarray, shift: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Couple rows G ~ N(0, I_d) with Y ~ N(shift_row, I_d), maximally per row.

    Returns (Y, met).  Rows with zero shift meet surely.  `uniforms` supplies
    the accept/reject randomness, one value per row.
    """
    G = np.asarray(G, dtype=float)
    shift = np.asarray(shift, dtype=float)
    delta = np.linalg.norm(shift, axis=-1)
    safe = np.where(delta > 0, delta, 1.0)
    e = shift / safe[..., None]
    s = np.einsum("...d,...d->...", G, e)
    # density ratio phi(s - delta)/phi(s) = exp(s delta - delta^2/2)
    log_ratio = s * delta - 0.5 * delta * delta
    accept = np.log(uniforms) <= log_ratio
    met = accept | (delta == 0.0)
    reflected = G + (delta - 2.0 * s)[..., None] * e
    Y = np.where(met[..., None], G, reflected)
    return Y, met


def couple_to_shift(
    X: np.ndarray, target_shift: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Given rows X ~ N(0, I_d), return rows X~ ~ N(0, I_d) maximizing P(X~ = X + shift).

    Couple X with Z ~ N(-shift, I_d) maximally and set X~ = Z + shift; on a
    met row X~ equals X + shift exactly.
    """
    Z, met = reflection_couple_batch(X, -np.asarray(target_shift, dtype=float), uniforms)
    return Z + target_shift, met
