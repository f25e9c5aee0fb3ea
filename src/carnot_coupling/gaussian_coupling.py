"""Reflection-maximal coupling of identity-covariance Gaussian vectors.

For X ~ N(m, I_d) and Y ~ N(m', I_d) the reflection coupling along
e = (m' - m)/|m' - m| accepts Y = X with probability
min(1, phi(s - delta)/phi(s)) (s the signed coordinate of X - m along e,
delta = |m' - m|) and otherwise reflects X through the hyperplane bisecting
m and m'.  It is maximal: P(X != Y) equals the total-variation distance
2 Phi(delta/2) - 1, which never exceeds delta / sqrt(2 pi).  The d - 1
coordinates orthogonal to e are shared identically between X and Y, which is
exactly what the endpoint couplings need.

Both kernels move each row along its own shift only, so a row's coupled
vector is the row plus one scalar multiple of the shift.  The scalar and
the accept test need just two row sums, |mu|^2 and <G, mu>, so the only
(B, d) arrays made are the scaled shift and the result.
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


def _meeting(G: np.ndarray, shift: np.ndarray, sign: float,
             uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|mu|^2, <G, mu> and met, coupling rows G ~ N(0, I_d) with N(mu, I_d), mu = sign * shift.

    A row meets when log(uniform) <= log(phi(G - mu)/phi(G)) = <G, mu> - |mu|^2/2,
    and surely when mu = 0.  The sign is folded into the row scalar, so no
    negated (B, d) copy of the shift is made.
    """
    mu2 = np.einsum("...d,...d->...", shift, shift)
    g_mu = sign * np.einsum("...d,...d->...", G, shift)
    met = (np.log(uniforms) <= g_mu - 0.5 * mu2) | (mu2 == 0.0)
    return mu2, g_mu, met


def reflection_couple_batch(
    G: np.ndarray, shift: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Couple rows G ~ N(0, I_d) with Y ~ N(shift_row, I_d), maximally per row.

    Returns (Y, met).  Rows with zero shift meet surely.  `uniforms` supplies
    the accept/reject randomness, one value per row.  Y = G + c mu with one
    scalar c per row: 0 on a met row, and otherwise 1 - 2<G, mu>/|mu|^2, the
    reflection of G through the hyperplane bisecting 0 and mu, shifted by mu.
    """
    G = np.asarray(G, dtype=float)
    shift = np.asarray(shift, dtype=float)
    mu2, g_mu, met = _meeting(G, shift, 1.0, uniforms)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(met, 0.0, 1.0 - 2.0 * g_mu / mu2)
    return G + c[..., None] * shift, met


def couple_to_shift(
    X: np.ndarray, target_shift: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Given rows X ~ N(0, I_d), return rows X~ ~ N(0, I_d) maximizing P(X~ = X + shift).

    Couple X with Z ~ N(-shift, I_d) maximally and set X~ = Z + shift, which
    is X~ = X + c shift with one scalar c per row: 1 on a met row, so that
    X~ equals X + shift exactly, and otherwise -2<X, shift>/|shift|^2, the
    reflection of X through the hyperplane orthogonal to the shift.
    """
    X = np.asarray(X, dtype=float)
    target_shift = np.asarray(target_shift, dtype=float)
    mu2, g_mu, met = _meeting(X, target_shift, -1.0, uniforms)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(met, 1.0, 2.0 * g_mu / mu2)
    return X + c[..., None] * target_shift, met
