"""Reflection-maximal coupling of identity-covariance Gaussian vectors.

For X ~ N(m, I_d) and Y ~ N(m', I_d) the reflection coupling along
e = (m' - m)/|m' - m| accepts Y = X with probability
min(1, phi(s - delta)/phi(s)) (s the signed coordinate of X - m along e,
delta = |m' - m|) and otherwise reflects X through the hyperplane bisecting
m and m'.  It is maximal: P(X != Y) equals the total-variation distance
2 Phi(delta/2) - 1, which never exceeds delta / sqrt(2 pi).  The d - 1
coordinates orthogonal to e are shared identically between X and Y, which is
exactly what the endpoint couplings need.

The kernel `couple_to_shift` moves each row along its own shift only, so a
row's coupled vector is the row plus one scalar multiple of the shift, and
the kernel returns that scalar.  The scalar and the accept test need just
two row sums, |shift|^2 and <X, shift>; no (B, d) array is made.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gaussian_tv",
    "couple_to_shift",
]


def gaussian_tv(delta: float) -> float:
    """Exact meeting-failure probability 2 Phi(delta/2) - 1 = erf(delta/(2 sqrt 2))."""
    if delta < 0:
        raise ValueError("shift norm must be nonnegative")
    return math.erf(delta / (2.0 * math.sqrt(2.0)))


def couple_to_shift(
    X: np.ndarray, target_shift: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Given rows X ~ N(0, I_d), couple them with X~ ~ N(0, I_d) maximizing P(X~ = X + shift).

    Returns (c, met), one scalar c per row with X~ = X + c shift.  X~ is Z +
    shift, Z the maximal coupling of X with N(-shift, I_d): a row meets when
    log(uniform) <= log(phi(X + shift)/phi(X)) = -<X, shift> - |shift|^2/2,
    and surely when the shift is zero.  c is 1 on a met row, so that X~
    equals X + shift exactly, and otherwise -2<X, shift>/|shift|^2, the
    reflection of X through the hyperplane orthogonal to the shift.
    `uniforms` supplies the accept/reject randomness, one value per row.
    """
    X = np.asarray(X, dtype=float)
    target_shift = np.asarray(target_shift, dtype=float)
    mu2 = np.einsum("...d,...d->...", target_shift, target_shift)
    x_mu = np.einsum("...d,...d->...", X, target_shift)
    met = (np.log(uniforms) <= -x_mu - 0.5 * mu2) | (mu2 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(met, 1.0, -2.0 * x_mu / mu2)
    return c, met
