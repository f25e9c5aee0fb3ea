"""Change-of-probability coupling: shift vector, density, and the semigroup
identities it yields (transfer, integration by parts, functional inequalities).

For a trajectory driven by coefficients xi under P, an almost-sure endpoint
coupling with the trajectory from another start point g~ is obtained by
shifting finitely many coefficients: indices {0} union {3k : 1 <= k <= K}.
The shifted index-0 coefficient moves by (x - x~)/sqrt(T) along the
displacement direction; the index-3k shifts are the least-norm solution
(`tsylvester_batch`) of the skew mismatch equation that the coupling solves
too (`sylvester_system`).  It is never longer, row by row, than the paper's
particular solution, so the closed-form bounds on E|u|^2 still hold.  The
shift u reads only coefficients outside its own support plus the components
of xi_0 orthogonal to x - x~, which is what makes the Gaussian change of
density

    R(u) = exp(-<omega, u> - |u|^2 / 2)

a martingale weight: E[R] = 1, E[R ln R] = E[|u|^2]/2, and
P_T f(g~) = E[f(endpoint from g) R(u)].  The transfer check estimates both
sides on the same coefficients xi: each row draws xi once and evaluates the
endpoints from g and from g~ with one shared area, so the check costs one
draw per row and tests the paired difference f(X^g) R - f(X^g~) against its
own standard error.  Because E[R] = 1 is known exactly, R - 1 is a control
variate: every column is regressed on R in the same pass, with an in-sample
coefficient and its standard error on N - 2 degrees of freedom.

Differentiating the same construction in the direction h = (h_x, h_z) gives
the integration-by-parts weight -sum_k <xi_{3k}, u_k(h)> for d_g P_T f(h),
from which the reverse Poincare and weak log-Sobolev checks follow.

All estimators evaluate the Legendre-truncated semigroup (coefficients up to
index 3K+1 unless a longer path is requested): every identity and inequality
implemented here holds exactly for the truncated process as well, because the
derivations only use the Gaussian shift structure and the pathwise endpoint
identity, both of which survive truncation beyond the shift support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import TestFunction
from .coupling import sylvester_system
from .groups import CarnotElement, SkewMatrix, odot, zeta
from .legendre import endpoint_packed
from .mc import (
    ComparisonReport,
    MCEstimate,
    run_vector_estimator,
    split_seed,
    two_sample_compare,
)
from .special_constants import carnot_constants, gaussian_abs_moment, heisenberg_constants
from .sylvester import COND_LIMIT, SingularGramError, tsylvester_batch

__all__ = [
    "default_support_count",
    "build_shift",
    "log_density",
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


def default_support_count(n: int) -> int:
    """Default number K of modified blocks: 2n+1 (minimum allowed is n+2)."""
    return 2 * n + 1


def build_shift(g: CarnotElement, gt: CarnotElement, T: float, K: int,
                xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift coupling the endpoints driven by xi (B, L, n) from g to those from gt.

    Returns u0 (n,), the shift of index 0, collinear with x - x~, and blocks
    (B, K, n), whose row k-1 shifts index 3k.  Needs K >= n + 2 and L >= 3K+2.
    """
    if K < g.n + 2:
        raise ValueError("need K >= n + 2 modified blocks")
    if xi.shape[-2] < 3 * K + 2:
        raise ValueError("xi must supply indices up to 3K+1")
    w, V = sylvester_system(g, gt, T, xi, K)
    u, cond = tsylvester_batch(V, w)
    bad = cond > COND_LIMIT
    if bad.any():
        # measure-zero event; fail loudly rather than use an ill-conditioned solve
        raise SingularGramError(f"{int(bad.sum())} singular Gram draws, reseed the run")
    u0 = (np.asarray(g.x, float) - np.asarray(gt.x, float)) / math.sqrt(T)
    return u0, np.swapaxes(u, 1, 2)


def _shift_pairing(u0: np.ndarray, blocks: np.ndarray,
                   xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise <omega, u> over the shift support and |u|^2.

    Every term is a row-wise product sum (no BLAS dot, which rounds a single
    row differently from a batch), so a batch of one equals its batched row.
    """
    K = blocks.shape[1]
    mods = xi[:, 3:3 * K + 1:3, :]
    dot = np.sum(xi[:, 0] * u0, axis=1) + np.einsum("bkn,bkn->b", mods, blocks)
    norm2 = float(u0 @ u0) + np.einsum("bkn,bkn->b", blocks, blocks)
    return dot, norm2


def log_density(u0: np.ndarray, blocks: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Row-wise log R(u) = -<omega, u> - |u|^2/2 for the shift from build_shift."""
    dot, norm2 = _shift_pairing(u0, blocks, xi)
    return -dot - 0.5 * norm2


def _path_len(K: int, k_path: int | None) -> int:
    base = 3 * K + 2
    return base if k_path is None else max(base, k_path + 1)


@dataclass(frozen=True)
class GirsanovReport:
    """Normalization and entropy diagnostics of the weight R(u)."""

    mean_R: MCEstimate
    entropy_gap: MCEstimate        # R ln R - |u|^2/2, zero in expectation
    mean_entropy: MCEstimate       # E[R ln R]
    mean_half_norm_sq: MCEstimate  # E[|u|^2]/2
    entropy_bound: float
    normalization: ComparisonReport
    entropy_identity: ComparisonReport
    entropy_bounded: bool


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

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, 3 * K + 2, g.n))
        u0, blocks = build_shift(g, gt, T, K, xi)
        dot, norm2 = _shift_pairing(u0, blocks, xi)
        half_u2 = 0.5 * norm2
        logw = -dot - half_u2
        w = np.exp(logw)
        rlnr = w * logw
        return np.stack([w, rlnr - half_u2, rlnr, half_u2], axis=1)

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
    )


@dataclass(frozen=True)
class TransferReport:
    """Both sides of the transfer identity, E[f(X^g) R] and P_T f(g~), on the same draws.

    `ess_fraction` is the Kish effective sample size of the weights over N,
    (sum R)^2 / (N sum R^2); near 1/N a few weights carry the estimate.
    """

    weighted: MCEstimate
    direct: MCEstimate
    comparison: ComparisonReport
    ess_fraction: float


def semigroup_transfer_check(
    f: TestFunction, g: CarnotElement, gt: CarnotElement, T: float, K: int,
    N: int, seed: int, workers: int = 1, k_path: int | None = None,
) -> TransferReport:
    """Verify P_T f(g~) = E[f(endpoint from g) R(u)] end to end.

    One stream serves both sides: each row draws xi once, builds the shift and
    R from it, and evaluates the endpoints from g and from g~ with one shared
    area.  Every column (f R, f from g~, their difference) is regressed on R,
    whose mean is exactly 1 (see `run_vector_estimator`).  The sides are
    correlated, so the comparison's sigma is the standard error of the paired
    difference, not a pooled one.
    """
    L = _path_len(K, k_path)
    x = np.stack([g.x, gt.x])[:, None]
    z = np.stack([g.z.upper, gt.z.upper])[:, None]

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, L, g.n))
        u0, blocks = build_shift(g, gt, T, K, xi)
        w = np.exp(log_density(u0, blocks, xi))
        fg, fgt = f(*endpoint_packed(x, z, xi, T))
        fw = fg * w
        return np.stack([fw, fgt, fw - fgt, w], axis=1)

    weighted, direct, diff, weight = run_vector_estimator(
        sampler, N, split_seed(seed, 1), workers, control_mean=1.0)
    # sum R = n mean and sum R^2 = C_RR + n mean^2, with C_RR = (n - 1) n stderr^2
    mean_sq = weight.mean ** 2
    ess = mean_sq / (mean_sq + (weight.n - 1) * weight.stderr ** 2)
    # the margin is the difference of the two sides, not the difference column's
    # mean: with f constant that column is R - 1, fitted exactly by beta = 1, and
    # its adjusted mean is rounding noise over a zero sigma
    margin = weighted.mean - direct.mean
    comparison = ComparisonReport(weighted.mean, direct.mean, margin, diff.stderr,
                                  abs(margin) <= 3.0 * diff.stderr)
    return TransferReport(weighted, direct, comparison, ess)


def _direction_pair(g: CarnotElement, h: CarnotElement) -> CarnotElement:
    return CarnotElement(g.x + h.x, g.z + h.z)


def bismut_gradient(
    f: TestFunction, g: CarnotElement, h: CarnotElement, T: float, K: int,
    N: int, seed: int, workers: int = 1, k_path: int | None = None,
) -> MCEstimate:
    """Integration-by-parts estimator of d_g P_T f(h).

    The weight is -sum_{k} <xi_{3k}, u_k(h)> with the shift built from the
    direction matrix of the displacement h (linear in h); h = 0 gives
    exactly zero.
    """
    if h.n != g.n:
        raise ValueError("dimension mismatch")
    L = _path_len(K, k_path)
    gth = _direction_pair(g, h)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, L, g.n))
        u0, blocks = build_shift(g, gth, T, K, xi)
        weight = -_shift_pairing(u0, blocks, xi)[0]
        return f(*endpoint_packed(g.x, g.z.upper, xi, T)) * weight

    return run_vector_estimator(sampler, N, seed, workers)[0]


def finite_diff_gradient(
    f: TestFunction, g: CarnotElement, h: CarnotElement, T: float, eps: float,
    N: int, seed: int, workers: int = 1, K: int | None = None,
    k_path: int | None = None,
) -> MCEstimate:
    """Central-difference oracle (P_T f(g + eps h) - P_T f(g - eps h)) / (2 eps).

    Shares the coefficient streams across the two evaluations (common random
    numbers), so both start points share one area per batch; pass the same
    K / k_path as the integration-by-parts run so both differentiate the same
    truncated semigroup.
    """
    if eps <= 0:
        raise ValueError("step must be positive")
    L = _path_len(K if K is not None else default_support_count(g.n), k_path)
    g_plus = CarnotElement(g.x + eps * h.x, g.z + h.z.scaled(eps))
    g_minus = CarnotElement(g.x - eps * h.x, g.z + h.z.scaled(-eps))
    x = np.stack([g_plus.x, g_minus.x])[:, None]
    z = np.stack([g_plus.z.upper, g_minus.z.upper])[:, None]

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, L, g.n))
        fp, fm = f(*endpoint_packed(x, z, xi, T))
        return (fp - fm) / (2.0 * eps)

    return run_vector_estimator(sampler, N, seed, workers)[0]


def reverse_poincare_constant(g: CarnotElement, h: CarnotElement, T: float) -> float:
    """Closed-form factor in |d_g P_T f(h)|^2 <= P_T|f|^2 * factor (K = 2n+1)."""
    n = g.n
    hx2 = float(np.sum(h.x ** 2))
    vert = zeta(g, _direction_pair(g, h)).hs_norm() ** 2  # |h_z - x odot h_x / 2|^2
    c = (6.0 * math.sqrt(2.0 * n) + 4.0 * math.sqrt(2.0) / math.sqrt(n)) ** 2
    return hx2 / T + c * (vert / T ** 2 + 2.0 * (n - 1) * hx2 / (3.0 * T))


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
    ln f(X^g~) of the log-Harnack check shares the draws of E[f].
    """
    n = g.n
    K = default_support_count(n) if K is None else K
    L = _path_len(K, None)
    gth = _direction_pair(g, h)
    checks: list[InequalityCheck] = []
    extra_q = [p / (p - 1.0) for p in p_values]
    positive = f.min_value > 0
    starts = [g, gt] if positive else [g]
    x = np.stack([s.x for s in starts])[:, None]
    z = np.stack([s.z.upper for s in starts])[:, None]

    def base_sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = rng.standard_normal((count, L, n))
        vals, *tilde = f(*endpoint_packed(x, z, xi, T))
        u0, blocks = build_shift(g, gth, T, K, xi)
        dot, u_sq = _shift_pairing(u0, blocks, xi)
        weight = -dot
        cols = [vals, vals ** 2, vals * weight, vals * u_sq]
        for p, q in zip(p_values, extra_q):
            cols.extend([np.abs(vals) ** p, u_sq ** (q / 2.0)])
        if positive:
            cols.extend([vals * np.log(vals), np.log(tilde[0])])
        return np.stack(cols, axis=1)

    base = run_vector_estimator(base_sampler, N, split_seed(seed, 3), workers)
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
    point: CarnotElement
    horizontal_norm: float
    horizontal_sigma: float
    horizontal_bound: float
    vertical_norm: float
    vertical_sigma: float
    vertical_bound: float
    passed: bool


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
        passed = (h_norm <= h_bound + 3 * h_sig) and (v_norm <= v_bound + 3 * v_sig)
        out.append(GradientSpotCheck(g, h_norm, h_sig, h_bound, v_norm, v_sig, v_bound, passed))
    return out
