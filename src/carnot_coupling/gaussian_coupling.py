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

`gaussian_tv` evaluates erf with `_erf`, a numpy port of the erf that
`scipy.special.erf` runs, Cephes `ndtr.c` (S. L. Moshier, 1989, after W. J.
Cody, Math. Comp. 23, 1969), with its coefficients, branches and order of
operations, so no `couple` run loads `scipy.special`.  It equals scipy's
value bit for bit where erf's argument is at most 1 or at least 3, and
within 1 ulp in between, where numpy's exp can differ from libm's by 1 ulp.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gaussian_tv",
    "couple_to_shift",
]


# erf is x T(x^2)/U(x^2) for x <= 1 and 1 - exp(-x^2) P(x)/Q(x) above, coefficients
# highest power first.  U and Q carry the leading 1.0 that Cephes implies (p1evl):
# 1.0 x is x exactly, so `_horner` gives Cephes' values bit for bit.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# the least x at which that erf rounds to 1.0; it stays 1.0 above
_ERF_ONE = 5.921587195794508


def _horner(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """coef[0] x^d + ... + coef[d], in the order of operations of Cephes polevl."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) for x >= 0, -0.0 or NaN, each branch on its own entries; NaN stays NaN."""
    flat = x.ravel()
    out = np.where(flat >= _ERF_ONE, 1.0, flat)
    # numpy gathers and scatters by index several times faster than by boolean mask
    small = np.flatnonzero(flat <= 1.0)
    xs = flat[small]
    z = xs * xs
    y = _horner(z, _ERF_T)
    y *= xs
    y /= _horner(z, _ERF_U)
    out[small] = y
    mid = np.flatnonzero((flat > 1.0) & (flat < _ERF_ONE))
    xm = flat[mid]
    y = xm * xm
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _horner(xm, _ERF_P)
    y /= _horner(xm, _ERF_Q)
    out[mid] = np.subtract(1.0, y, out=y)
    return out.reshape(x.shape)


def gaussian_tv(delta: float | np.ndarray) -> float | np.ndarray:
    """Exact meeting-failure probability 2 Phi(delta/2) - 1 = erf(delta/(2 sqrt 2)), elementwise."""
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("shift norm must be nonnegative")
    return _erf(delta / (2.0 * math.sqrt(2.0)))[()]


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
