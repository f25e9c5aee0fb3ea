"""Change-of-probability coupling: shift vector, density, and the semigroup
identities it yields (transfer, integration by parts, functional inequalities).

For a trajectory driven by coefficients xi under P, an almost-sure endpoint
coupling with the trajectory from another start point g~ is obtained by
shifting finitely many coefficients: indices {0} union {3k : 1 <= k <= K}.
The shifted index-0 coefficient moves by (x - x~)/sqrt(T) along the
displacement direction; the index-3k shifts are the least-norm solution of
the skew mismatch equation of the K-block coupling, from the coupling's own
kernel `coupling.shift_batch`, so weight and coupling share one shift and
its pairing with the draw, `dot` and `norm2`, bit for bit; a row tile with a
singular Gram row makes that kernel raise SingularGramError.  It is never
longer, row by row, than the paper's particular solution, so the closed-form
bounds on E|u|^2 still hold.  The shift u reads only coefficients outside its
own support plus the components of xi_0 orthogonal to x - x~, which is what
makes the Gaussian change of density

    R(u) = exp(-<omega, u> - |u|^2 / 2)

a martingale weight: E[R] = 1, E[R ln R] = E[|u|^2]/2, and
P_T f(g~) = E[f(endpoint from g) R(u)].  The transfer check estimates both
sides on the same coefficients xi, antithetic in one draw: -xi has the law
of xi, and each row returns the mean at xi and at -xi of every column, so
it costs one draw per row and tests the paired difference f(X^g) R -
f(X^g~) against its own standard error.  Everything at -xi comes from the
same draw: the area is even in xi, so the endpoints from g and from g~ at
both signs share one area (`legendre.endpoint_packed` over the orbit xi,
-xi); the probes are odd in xi, so the mirrored shift is one more
right-hand side of the same solve (`coupling.shift_batch` over that orbit).
Because E[R] = 1 is known exactly, R - 1 is a control variate: every column
is regressed on the pair mean of R in the same pass, with an in-sample
coefficient and its standard error on N - 2 degrees of freedom.

Differentiating the same construction in the direction h = (h_x, h_z) gives
the integration-by-parts weight W = -<omega, u(h)> for d_g P_T f(h) =
E[f(X_T) W], from which the reverse Poincare and weak log-Sobolev checks
follow.  Its estimator is antithetic on one draw, three times over: the
reflection of xi_0 across the hyperplane orthogonal to h_x together with
xi_{3k} -> -xi_{3k} (k = 1..K) preserves the law of xi, leaves u(h)
unchanged, since u reads neither of them, and flips W.  So (f(X_T) -
f(X_T^refl)) W / 2 has the mean of f(X_T) W, with X_T^refl driven by the
reflected xi; it is derived from X_T and the probes of the shift solve,
with no second area or solve.  Each row returns the mean of that column
over the sign orbit xi, -xi, D xi, -D xi, where D xi_k = (-1)^k xi_k.  D
keeps the law of xi and xi_0 and negates the area A_T = T sum_k alpha_k
(xi_k odot xi_{k+1}) exactly, so the orbit costs no second draw: the shifts
at the other three points are three more right-hand sides of the one solve
(D only changes the signs of the probe columns, so their Gram matrix is the
same), and the endpoints at all four come from one area.  The part of f
that the reflection does not move cancels row by row: a constant f, or an f
of x alone along a vertical h, gives exactly zero.  The central finite
difference that checks it is averaged over the same orbit, its eight
endpoints (g +- eps h at the four points) against one area.

All estimators evaluate the Legendre-truncated semigroup (coefficients up to
index 3K+1 unless a longer path is requested): every identity and inequality
implemented here holds exactly for the truncated process as well, because the
derivations only use the Gaussian shift structure and the pathwise endpoint
identity, both of which survive truncation beyond the shift support.  Every
estimator draws and evaluates each batch in row tiles (`mc.tiled_sampler`),
and every step is row-wise, so no estimate depends on the tiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import TestFunction
from .coupling import check_horizon, default_support_count, shift_batch
from .groups import CarnotElement, SkewMatrix, odot, odot_packed, triu_pairs, zeta
from .legendre import ORBIT_FLIP, ORBIT_MIRROR, alpha_ladder, endpoint_packed
from .mc import (
    BATCH_SIZE,
    ComparisonReport,
    MCEstimate,
    run_vector_estimator,
    split_seed,
    tiled_sampler,
    two_sample_compare,
)
from .special_constants import carnot_constants, gaussian_abs_moment, heisenberg_constants
# tsylvester_batch is not called here; the benchmark's tracer patches this name
from .sylvester import tsylvester_batch

__all__ = [
    "GirsanovReport",
    "girsanov_normalization_check",
    "TransferReport",
    "semigroup_transfer_check",
    "bismut_gradient",
    "finite_diff_gradient",
    "InequalityCheck",
    "InequalityReport",
    "inequality_suite",
    "entropy_bound_constant",
    "reverse_poincare_constant",
    "GradientSpotCheck",
    "gradient_sup_spotcheck",
    "horizontal_direction",
    "vertical_direction",
]


def _check_weights(n: int, T: float, K: int) -> None:
    """Reject too few blocks or a bad horizon; each estimator calls it before any draw."""
    if K < n + 2:
        raise ValueError("need K >= n + 2 modified blocks")
    check_horizon(T)


def _path_len(K: int, k_path: int | None) -> int:
    base = 3 * K + 2
    return base if k_path is None else max(base, k_path + 1)


def _kish_fraction(weight: MCEstimate) -> float:
    """Kish effective sample size over N of weights with this plain estimate, in (0, 1].

    (sum R)^2 / (N sum R^2), from sum R = N mean and sum R^2 = C_RR + N mean^2,
    with C_RR = (N - 1) N stderr^2; near 1/N a few weights carry the estimate.
    """
    mean_sq = weight.mean ** 2
    return mean_sq / (mean_sq + (weight.n - 1) * weight.stderr ** 2)


@dataclass(frozen=True)
class GirsanovReport:
    """Normalization and entropy diagnostics of the weight R(u).

    `ess_fraction` is the Kish effective sample size of R over N.
    """

    mean_R: MCEstimate
    entropy_gap: MCEstimate        # R ln R - |u|^2/2, zero in expectation
    mean_entropy: MCEstimate       # E[R ln R]
    mean_half_norm_sq: MCEstimate  # E[|u|^2]/2
    entropy_bound: float
    normalization: ComparisonReport
    entropy_identity: ComparisonReport
    entropy_bounded: bool
    ess_fraction: float


def entropy_bound_constant(gc: CarnotElement, gct: CarnotElement, T: float) -> float:
    """Closed-form bound for E[|u|^2]/2 at K = 2n+1."""
    n = gc.n
    dx2 = float(np.sum((gc.x - gct.x) ** 2))
    zeta_sq = zeta(gc, gct).hs_norm() ** 2
    c = (6.0 * math.sqrt(n) + 4.0 / math.sqrt(n)) ** 2
    return dx2 / (2.0 * T) + c * (zeta_sq / T ** 2 + 2.0 * (n - 1) * dx2 / (3.0 * T))


def girsanov_normalization_check(
    g: CarnotElement, gt: CarnotElement, T: float, K: int, N: int, seed: int,
    workers: int = 1,
) -> GirsanovReport:
    """Check E[R] = 1 and the entropy identity E[R ln R] = E[|u|^2]/2 at 3 sigma."""
    _check_weights(g.n, T, K)

    def columns(xi: np.ndarray) -> np.ndarray:
        dot, norm2 = shift_batch(g, gt, [T], xi, K)[3:5]
        half_u2 = 0.5 * norm2[0]
        logw = -dot[0] - half_u2
        w = np.exp(logw)
        rlnr = w * logw
        return np.stack([w, rlnr - half_u2, rlnr, half_u2], axis=1)

    sampler = tiled_sampler(columns, (3 * K + 2, g.n))
    mean_R, gap, rlnr, half = run_vector_estimator(sampler, N, seed, workers)
    bound = entropy_bound_constant(g, gt, T)
    return GirsanovReport(
        mean_R=mean_R,
        entropy_gap=gap,
        mean_entropy=rlnr,
        mean_half_norm_sq=half,
        entropy_bound=bound,
        normalization=two_sample_compare(mean_R, 1.0),
        entropy_identity=two_sample_compare(gap, 0.0),
        entropy_bounded=half.mean <= bound + 3.0 * half.stderr,
        ess_fraction=_kish_fraction(mean_R),
    )


@dataclass(frozen=True)
class TransferReport:
    """Both sides of the transfer identity, E[f(X^g) R] and P_T f(g~), on the same draws.

    Each side is the mean over rows of a pair mean at xi and -xi.
    `ess_fraction` is the Kish effective sample size of the pair-mean weights
    (R(xi) + R(-xi))/2 over N.
    """

    weighted: MCEstimate
    direct: MCEstimate
    comparison: ComparisonReport
    ess_fraction: float


# Rounding allowance of the transfer comparison per unit of |weighted| + |direct|.
# Each side is a batch mean, a recursive sum of at most BATCH_SIZE rows, less
# its control-variate correction, a multiple of a second such mean.  The
# rounding error of a recursive sum of m terms stays below lambda sqrt(m) u
# times the sum of magnitudes with a probability that tends to 1 fast in
# lambda, against the worst case m u (Higham and Mary, SIAM J. Sci. Comput.
# 41, 2019); the catalog's functions and R are nonnegative, so a side's
# magnitude is its mean.  lambda = 4 and two sums per side give
# 8 sqrt(2^14) 2^-53 = 1.1e-13, at most 2.3e-13 of the larger side.
_TRANSFER_ROUNDING = 8.0 * math.sqrt(BATCH_SIZE) * 2.0 ** -53


def _transfer_columns(f: TestFunction, g: CarnotElement, gt: CarnotElement, T: float,
                      K: int, xi: np.ndarray) -> np.ndarray:
    """Pair means at xi and -xi of f(X^g) R, f(X^g~), their difference and R; (B, 4).

    -xi has the law of xi and needs no copy: R(-xi) = exp(dot - norm2/2) from
    the mirrored entry of one `shift_batch` call over the orbit xi, -xi, and
    the four endpoints, from g and g~ at both signs, come from one
    `endpoint_packed` call over that orbit, with one area.  Each equals a
    direct evaluation at -xi bit for bit, and every step is row-wise: a batch
    of one equals its row.
    """
    # keep only the pairing; holding the whole shift raised a batch's traced peak 15.4 -> 22.0 MiB
    dot, norm2 = shift_batch(g, gt, [T], xi, K, orbit=2)[3:5]
    w = np.exp(-ORBIT_MIRROR[:2, None] * dot - 0.5 * norm2)
    x = np.stack([g.x, gt.x])[:, None]
    z = np.stack([g.z.upper, gt.z.upper])[:, None]
    (fg, fgt), (fg_mirror, fgt_mirror) = f(*endpoint_packed(x, z, xi, T, orbit=2))
    weighted = 0.5 * (fg * w[0] + fg_mirror * w[1])
    direct = 0.5 * (fgt + fgt_mirror)
    return np.stack([weighted, direct, weighted - direct, 0.5 * (w[0] + w[1])], axis=1)


def semigroup_transfer_check(
    f: TestFunction, g: CarnotElement, gt: CarnotElement, T: float, K: int,
    N: int, seed: int, workers: int = 1,
) -> TransferReport:
    """Verify P_T f(g~) = E[f(endpoint from g) R(u)] end to end.

    One stream serves both sides, antithetic in one draw: each row draws xi
    once and returns the mean at xi and at -xi of every column
    (`_transfer_columns`), from one shift solve and one area.  Every column
    (f R, f from g~, their difference) is regressed on the pair mean of R,
    whose mean is exactly 1 (see `run_vector_estimator`).  The sides are
    correlated, so the comparison's sigma is the standard error of the paired
    difference, not a pooled one.  It passes when |margin| <= 3 sigma + delta,
    with delta = `_TRANSFER_ROUNDING` (|weighted| + |direct|), a rounding
    allowance on the two adjusted means.  That rule covers the cases where
    the control variate fits a column exactly and sigma is 0 or rounding
    noise: f constant, or an f of x alone across a vertical displacement,
    where R(-xi) = R(xi) and f(X^g) = f(X^g~) on every row.
    """
    _check_weights(g.n, T, K)

    sampler = tiled_sampler(lambda xi: _transfer_columns(f, g, gt, T, K, xi), (3 * K + 2, g.n))
    weighted, direct, diff, weight = run_vector_estimator(
        sampler, N, split_seed(seed, 1), workers, control_mean=1.0)
    # the margin is the difference of the two sides, not the difference column's
    # mean, which the control variate may fit down to rounding noise
    margin = weighted.mean - direct.mean
    delta = _TRANSFER_ROUNDING * (abs(weighted.mean) + abs(direct.mean))
    comparison = ComparisonReport(weighted.mean, direct.mean, margin, diff.stderr,
                                  abs(margin) <= 3.0 * diff.stderr + delta)
    return TransferReport(weighted, direct, comparison, _kish_fraction(weight))


def _direction_pair(g: CarnotElement, h: CarnotElement) -> CarnotElement:
    return CarnotElement(g.x + h.x, g.z + h.z)


def _reflected_endpoint(x: np.ndarray, xT: np.ndarray, zT: np.ndarray, xi: np.ndarray,
                        probes: np.ndarray, e: np.ndarray,
                        T: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints from x driven by reflected orbit points, derived from their endpoints.

    xT (O, B, n) and zT (O, B, n(n-1)/2) are the endpoints from the one start
    x (n,) at the first O points of the sign orbit of xi (`endpoint_packed`);
    O = 1 is xi alone.  The reflection maps xi_0 to xi_0 - 2 s e, s = <xi_0,
    e>, and xi_{3k} to -xi_{3k} for k = 1..K.  Only the terms of the endpoint
    that read those indices change:

        x_T^refl = x_T - 2 sqrt(T) s e,
        z_T^refl = z_T - sqrt(T) s (x odot e)
                   - (2 T alpha_0 s (e odot xi_1) + 2 sum_k xi_{3k} odot V_k),

    with V_k = T p_k the probe columns (B, n, K) of the shift solve at xi,
    since the two area terms at index 3k sum to T xi_{3k} odot p_k.  That is
    O(K n^2) per row, with no second area.  The mirror -xi negates s, so the
    first two terms change sign there; D keeps xi_0 and negates xi_1 and
    every xi_{3k} odot p_k, so the last term, which does not read x, changes
    sign at D xi.  Each reflected point then equals a direct evaluation on a
    copy of that point bit for bit, and every step is row-wise, so a batch of
    one equals its row.
    """
    O = xT.shape[0]
    n = xi.shape[-1]
    K = probes.shape[-1]
    iu, ju = triu_pairs(n)
    sqrtT = math.sqrt(T)
    se = np.sum(xi[:, 0] * e, axis=1)[:, None] * e
    mt = probes @ xi[:, 3:3 * K + 1:3]  # sum_k V_k xi_{3k}^t, (B, n, n)
    x_term = sqrtT * odot_packed(x, se, iu, ju)
    free = 2.0 * T * alpha_ladder(1)[0] * odot_packed(se, xi[:, 1], iu, ju)
    free += 2.0 * (mt[:, ju, iu] - mt[:, iu, ju])
    mirror = ORBIT_MIRROR[:O, None, None]
    flip = np.where(ORBIT_FLIP[:O], -1.0, 1.0)[:, None, None]
    return xT - mirror * (2.0 * sqrtT * se), zT - (mirror * x_term + flip * free)


def _antithetic_gradient(f: TestFunction, g: CarnotElement, gth: CarnotElement, T: float,
                         K: int, xi: np.ndarray,
                         starts: list[CarnotElement]) -> tuple[np.ndarray, np.ndarray,
                                                               np.ndarray]:
    """f at the endpoints from each start, the antithetic gradient column and |u|^2, at xi.

    starts[0] is g; every start shares one endpoint call and one area.  The
    gradient column is the mean over the sign orbit xi, -xi, D xi, -D xi of
    (f(X) - f(X^refl)) W / 2, with W = -<omega, u> the integration-by-parts
    weight of the shift from g to gth and X^refl the endpoint from g driven by
    the reflected point (`_reflected_endpoint`).  No point but xi is copied:
    the shift at each is one more right-hand side of the one solve
    (`shift_batch` over the orbit), whose mirrored entries pair against xi
    and D xi, so W = +dot there; the endpoints at all four come from one
    `endpoint_packed` call and one area; and their reflections from one
    `_reflected_endpoint` call with the probes at xi.  It is the mean of the
    two-point (xi, -xi) columns at xi and at D xi.  Each piece at each point
    equals a direct evaluation on a copy of that point bit for bit, and every
    step is row-wise: a batch of one equals its row.
    """
    sh = shift_batch(g, gth, [T], xi, K, orbit=4)
    S = len(starts)
    x = np.stack([s.x for s in starts])[:, None]
    z = np.stack([s.z.upper for s in starts])[:, None]
    xT, zT = endpoint_packed(x, z, xi, T, orbit=4)
    xr, zr = _reflected_endpoint(g.x, xT[:, 0], zT[:, 0], xi, T * sh.probes, sh.axis, T)
    vals = f(np.concatenate([xT.reshape(4 * S, *xr.shape[1:]), xr]),
             np.concatenate([zT.reshape(4 * S, *zr.shape[1:]), zr]))
    grads = 0.5 * (vals[:4 * S:S] - vals[4 * S:]) * (-ORBIT_MIRROR[:, None] * sh.dot)
    pairs = 0.5 * (grads[0::2] + grads[1::2])
    return vals[:S], 0.5 * (pairs[0] + pairs[1]), sh.norm2[0]


def bismut_gradient(
    f: TestFunction, g: CarnotElement, h: CarnotElement, T: float, K: int,
    N: int, seed: int, workers: int = 1, k_path: int | None = None,
) -> MCEstimate:
    """Integration-by-parts estimator of d_g P_T f(h), antithetic in one draw.

    The weight is W = -<omega, u(h)>, with u(h) the shift from g to g + h
    (linear in h): d_g P_T f(h) = E[f(X_T) W].  Three antithetic maps preserve
    the law of xi.  The reflection of xi_0 across the hyperplane orthogonal to
    h_x together with the negation of every xi_{3k} leaves u(h) unchanged,
    since u reads neither, and flips W: f(X^refl) (-W) has the law of f(X) W,
    so (f(X_T) - f(X_T^refl)) W / 2 is unbiased.  The mirror xi -> -xi and the
    sign flip D, xi_k -> (-1)^k xi_k, which keeps xi_0 and negates the area,
    commute with it, and each row returns the mean of that column over the
    four points xi, -xi, D xi and -D xi (`_antithetic_gradient`): one draw,
    one area and one solve, whose other three right-hand sides are the shifts
    at -xi, D xi and -D xi.  h = 0 gives exactly zero; so do a constant f,
    and an f of x alone along a vertical h, whose rows are all zero.
    """
    if h.n != g.n:
        raise ValueError("dimension mismatch")
    _check_weights(g.n, T, K)
    L = _path_len(K, k_path)
    gth = _direction_pair(g, h)

    sampler = tiled_sampler(lambda xi: _antithetic_gradient(f, g, gth, T, K, xi, [g])[1],
                            (L, g.n))
    return run_vector_estimator(sampler, N, seed, workers)[0]


def _finite_diff_column(f: TestFunction, g: CarnotElement, h: CarnotElement, T: float,
                        eps: float, xi: np.ndarray) -> np.ndarray:
    """Mean over the sign orbit of (f(X^{g + eps h}) - f(X^{g - eps h})) / (2 eps), (B,).

    The eight endpoints, from g +- eps h at xi, -xi, D xi and -D xi, come
    from one `endpoint_packed` call and one area, and each equals a direct
    evaluation bit for bit.  The column is the mean of the two-point (xi,
    -xi) columns at xi and at D xi, and every step is row-wise.
    """
    g_plus = CarnotElement(g.x + eps * h.x, g.z + h.z.scaled(eps))
    g_minus = CarnotElement(g.x - eps * h.x, g.z + h.z.scaled(-eps))
    x = np.stack([g_plus.x, g_minus.x])[:, None]
    z = np.stack([g_plus.z.upper, g_minus.z.upper])[:, None]
    vals = f(*endpoint_packed(x, z, xi, T, orbit=4))
    diff = vals[:, 0] - vals[:, 1]
    pairs = (diff[0::2] + diff[1::2]) / (4.0 * eps)
    return 0.5 * (pairs[0] + pairs[1])


def finite_diff_gradient(
    f: TestFunction, g: CarnotElement, h: CarnotElement, T: float, eps: float,
    N: int, seed: int, workers: int = 1, K: int | None = None,
    k_path: int | None = None,
) -> MCEstimate:
    """Central-difference oracle (P_T f(g + eps h) - P_T f(g - eps h)) / (2 eps).

    Shares the coefficient streams across the two evaluations (common random
    numbers), antithetic in one draw: each row is the mean of the difference
    over the sign orbit xi, -xi, D xi and -D xi, so the eight endpoints share
    one area per batch (`_finite_diff_column`).  Pass the same
    K / k_path as the integration-by-parts run so both differentiate the same
    truncated semigroup.  A direction of another rank, a bad horizon or a
    step that is not positive and finite is rejected before any draw.
    """
    if h.n != g.n:
        raise ValueError("dimension mismatch")
    check_horizon(T)
    if not 0 < eps < math.inf:
        raise ValueError(f"step must be positive and finite, got {eps}")
    L = _path_len(K if K is not None else default_support_count(g.n), k_path)

    sampler = tiled_sampler(lambda xi: _finite_diff_column(f, g, h, T, eps, xi), (L, g.n))
    return run_vector_estimator(sampler, N, seed, workers)[0]


def reverse_poincare_constant(g: CarnotElement, h: CarnotElement, T: float) -> float:
    """Closed-form factor in |d_g P_T f(h)|^2 <= P_T|f|^2 * factor (K = 2n+1).

    By Cauchy-Schwarz the factor may be any bound on E|u(h)|^2, the second
    moment of the gradient weight: twice the entropy bound of (g, g + h).
    """
    return 2.0 * entropy_bound_constant(g, _direction_pair(g, h), T)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    sigma: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    checks: list[InequalityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _weak_log_sobolev_rhs(ent: float, sigma_ent: float, f_usq: float,
                          sigma_f_usq: float) -> tuple[float, float]:
    """sqrt(2 Ent(f) E[f |u|^2]) and its 1-sigma error, both in the units of f.

    Where the right-hand side vanishes its linearized error is undefined, and
    the error is the upper 1-sigma envelope of the same expression instead.
    """
    f_usq = max(f_usq, 0.0)
    rhs = math.sqrt(2.0 * ent * f_usq)
    if rhs > 0:
        return rhs, (ent * sigma_f_usq + f_usq * sigma_ent) / rhs
    return rhs, math.sqrt(2.0 * (ent + sigma_ent) * (f_usq + sigma_f_usq)) - rhs


def inequality_suite(
    f: TestFunction, g: CarnotElement, gt: CarnotElement, h: CarnotElement,
    T: float, N: int, seed: int, K: int | None = None, workers: int = 1,
    p_values: tuple[float, ...] = (),
) -> InequalityReport:
    """Monte Carlo verification of the semigroup inequalities at 3 sigma.

    Runs the log-Harnack comparison between g~ and g, the reverse Poincare
    and weak log-Sobolev checks in the direction h, all with the default
    support count K = 2n+1 unless overridden.  Extra exponents in `p_values`
    add the general Holder variant |d P_T f(h)| <= (P_T|f|^p)^{1/p} m_q
    E[|u|^q]^{1/q}; its shift-norm moment needs K > n + 3q/2 - 1 to be
    square-integrable, so pass a larger K alongside.

    Log-based checks need inf f > 0; for functions without a positive
    infimum they are omitted and the report lists only the checks that ran.
    Every check reads one pass over one stream.  With log-based checks, each
    row evaluates the endpoints from g and from g~ with one shared area, so
    ln f(X^g~) of the log-Harnack check shares the draws of E[f].  The
    gradient d_g P_T f(h) is the antithetic column of `bismut_gradient`, the
    mean over the sign orbit of xi, on the same draws; every other column
    reads xi alone.
    """
    n = g.n
    K = default_support_count(n) if K is None else K
    _check_weights(n, T, K)
    L = _path_len(K, None)
    gth = _direction_pair(g, h)
    checks: list[InequalityCheck] = []
    extra_q = [p / (p - 1.0) for p in p_values]
    positive = f.min_value > 0
    starts = [g, gt] if positive else [g]

    def columns(xi: np.ndarray) -> np.ndarray:
        (vals, *tilde), grad_col, u_sq = _antithetic_gradient(f, g, gth, T, K, xi, starts)
        cols = [vals, vals ** 2, grad_col, vals * u_sq]
        for p, q in zip(p_values, extra_q):
            cols.extend([np.abs(vals) ** p, u_sq ** (q / 2.0)])
        if positive:
            cols.extend([vals * np.log(vals), np.log(tilde[0])])
        return np.stack(cols, axis=1)

    base = run_vector_estimator(tiled_sampler(columns, (L, n)), N, split_seed(seed, 3), workers)
    mean_f, mean_f2, grad, f_usq = base[:4]

    if positive:
        # ln f(X^g~) shares the draws of E[f], and the linear sum of the two
        # stderrs below bounds the error whatever their correlation
        flnf, lhs_lh = base[-2:]
        rhs_lh = math.log(mean_f.mean) + entropy_bound_constant(g, gt, T)
        sigma_lh = lhs_lh.stderr + mean_f.stderr / mean_f.mean
        checks.append(InequalityCheck(
            "log-harnack", lhs_lh.mean, rhs_lh, sigma_lh,
            lhs_lh.mean <= rhs_lh + 3.0 * sigma_lh,
        ))

    rp_factor = reverse_poincare_constant(g, h, T)
    lhs_rp = grad.mean ** 2
    rhs_rp = mean_f2.mean * rp_factor
    sigma_rp = 2.0 * abs(grad.mean) * grad.stderr + mean_f2.stderr * rp_factor
    checks.append(InequalityCheck(
        "reverse-poincare", lhs_rp, rhs_rp, sigma_rp, lhs_rp <= rhs_rp + 3.0 * sigma_rp,
    ))

    for i, (p, q) in enumerate(zip(p_values, extra_q)):
        fp, uq = base[4 + 2 * i], base[5 + 2 * i]
        m_q = gaussian_abs_moment(q)
        rhs_p = fp.mean ** (1.0 / p) * m_q * uq.mean ** (1.0 / q)
        sigma_p = rhs_p * (fp.stderr / (p * fp.mean) + uq.stderr / (q * max(uq.mean, 1e-300)))
        lhs_p = abs(grad.mean)
        checks.append(InequalityCheck(
            f"reverse-poincare-p{p:g}", lhs_p, rhs_p, grad.stderr + sigma_p,
            lhs_p <= rhs_p + 3.0 * (grad.stderr + sigma_p),
        ))

    if positive:
        # f ln f shares the draws of E[f], and the linear sum of the two
        # stderrs below bounds the error of Ent(f) whatever their correlation
        ent = max(flnf.mean - mean_f.mean * math.log(mean_f.mean), 0.0)
        sigma_ent = flnf.stderr + mean_f.stderr * abs(1.0 + math.log(mean_f.mean))
        rhs_ls, sigma_ls = _weak_log_sobolev_rhs(ent, sigma_ent, f_usq.mean, f_usq.stderr)
        lhs_ls = abs(grad.mean)
        checks.append(InequalityCheck(
            "weak-log-sobolev", lhs_ls, rhs_ls,
            grad.stderr + sigma_ls,
            lhs_ls <= rhs_ls + 3.0 * (grad.stderr + sigma_ls) + 1e-12,
        ))

    return InequalityReport(checks)


def horizontal_direction(g: CarnotElement, i: int) -> CarnotElement:
    """Left-invariant horizontal direction: h = (e_i, odot(x, e_i)/2) at g."""
    e = np.zeros(g.n)
    e[i] = 1.0
    return CarnotElement(e, SkewMatrix(g.n, odot(g.x, e).upper / 2.0))


def vertical_direction(n: int, pair_index: int) -> CarnotElement:
    """Left-invariant vertical direction: unit packed entry, zero horizontal."""
    zp = np.zeros(n * (n - 1) // 2)
    zp[pair_index] = 1.0
    return CarnotElement(np.zeros(n), SkewMatrix(n, zp))


@dataclass(frozen=True)
class GradientSpotCheck:
    """Sup-norm gradient norms at one point; each direction is tested at 3 sigma."""

    point: CarnotElement
    horizontal_norm: float
    horizontal_sigma: float
    horizontal_bound: float
    vertical_norm: float
    vertical_sigma: float
    vertical_bound: float

    @property
    def horizontal_passed(self) -> bool:
        return self.horizontal_norm <= self.horizontal_bound + 3 * self.horizontal_sigma

    @property
    def vertical_passed(self) -> bool:
        return self.vertical_norm <= self.vertical_bound + 3 * self.vertical_sigma

    @property
    def passed(self) -> bool:
        return self.horizontal_passed and self.vertical_passed


def gradient_sup_spotcheck(
    f: TestFunction, points: list[CarnotElement], T: float, N: int, seed: int,
    workers: int = 1, K: int | None = None,
) -> list[GradientSpotCheck]:
    """Check the sup-norm gradient bounds at sample points.

    Horizontal: |grad_h P_T f| <= 2 C1(n)/sqrt(T) |f|_inf;
    vertical:   |grad_v P_T f| <= 2 sqrt(2) C2(n)/T |f|_inf.
    Direction j at point idx draws from split_seed(seed, stride * idx + j); the
    stride, 16 up to rank 5, covers every point's n + n(n-1)/2 directions.
    """
    stride = max([16] + [g.n + g.n * (g.n - 1) // 2 for g in points])
    out = []
    for idx, g in enumerate(points):
        n = g.n
        # rank 2 is the Heisenberg group, where the sharper constants apply
        c1, c2 = heisenberg_constants("improved") if n == 2 else carnot_constants(n)
        Kn = default_support_count(n) if K is None else K
        h_ests = [
            bismut_gradient(f, g, horizontal_direction(g, i), T, Kn, N,
                            split_seed(seed, stride * idx + i), workers)
            for i in range(n)
        ]
        v_ests = [
            bismut_gradient(f, g, vertical_direction(n, p), T, Kn, N,
                            split_seed(seed, stride * idx + n + p), workers)
            for p in range(n * (n - 1) // 2)
        ]

        def norm_and_sigma(ests):
            vec = np.array([e.mean for e in ests])
            ses = np.array([e.stderr for e in ests])
            nrm = float(np.linalg.norm(vec))
            if nrm > 0:
                sig = float(np.sqrt(np.sum((vec * ses) ** 2)) / nrm)
            else:
                sig = float(np.sqrt(np.sum(ses ** 2)))
            return nrm, sig

        h_norm, h_sig = norm_and_sigma(h_ests)
        v_norm, v_sig = norm_and_sigma(v_ests)
        h_bound = 2.0 * c1 / math.sqrt(T) * f.sup
        v_bound = 2.0 * math.sqrt(2.0) * c2 / T * f.sup
        out.append(GradientSpotCheck(g, h_norm, h_sig, h_bound, v_norm, v_sig, v_bound))
    return out
