"""Reflection-maximal coupling of identity-covariance Gaussian vectors.

For X ~ N(m, I_d) and Y ~ N(m', I_d) the reflection coupling along
e = (m' - m)/|m' - m| accepts Y = X with probability
min(1, phi(s - delta)/phi(s)) (s the signed coordinate of X - m along e,
delta = |m' - m|) and otherwise reflects X through the hyperplane bisecting
m and m'.  It is maximal: P(X != Y) equals the total-variation distance
2 Phi(delta/2) - 1 (`gaussian_tv`), which never exceeds delta / sqrt(2 pi).
The d - 1 coordinates orthogonal to e are shared identically between X and
Y, which is exactly what the endpoint couplings need.

The kernel `couple_to_shift` moves each row along its own shift only, so a
row's coupled vector is the row plus one scalar multiple of the shift, and
the kernel returns that scalar.  The scalar and the accept test need just
two row sums, <X, shift> and |shift|^2, and the kernel takes only those, so
the caller computes them once for the coupling and the Girsanov weights alike
(`coupling.shift_pairing`).

`gaussian_tv` loads `scipy.special` on its first call, so the module imports
without it and only a run that couples pays for it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gaussian_tv",
    "couple_to_shift",
]


def gaussian_tv(delta: float | np.ndarray) -> float | np.ndarray:
    """Exact meeting-failure probability 2 Phi(delta/2) - 1 = erf(delta/(2 sqrt 2)), elementwise."""
    import scipy.special

    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("shift norm must be nonnegative")
    return scipy.special.erf(delta / (2.0 * math.sqrt(2.0)))


def couple_to_shift(
    x_dot_shift: np.ndarray, shift_sq: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Couple rows X ~ N(0, I_d) with X~ ~ N(0, I_d), maximizing P(X~ = X + shift).

    Takes two row sums, x_dot_shift = <X, shift> and shift_sq = |shift|^2,
    and returns (c, met), one scalar c per row with X~ = X + c shift.  X~ is
    Z + shift, Z the maximal coupling of X with N(-shift, I_d): a row meets
    when log(uniform) <= log(phi(X + shift)/phi(X)) = -<X, shift> -
    |shift|^2/2, and surely when the shift is zero.  c is 1 on a met row, so
    that X~ equals X + shift exactly, and otherwise -2<X, shift>/|shift|^2,
    the reflection of X through the hyperplane orthogonal to the shift.
    `uniforms` supplies the accept/reject randomness, one value per row.
    """
    met = (np.log(uniforms) <= -x_dot_shift - 0.5 * shift_sq) | (shift_sq == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(met, 1.0, -2.0 * x_dot_shift / shift_sq)
    return c, met
