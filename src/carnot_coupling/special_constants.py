"""Closed-form constants and special-function evaluators for the couplings.

Holds the explicit total-variation constants for the Heisenberg group (the
proof-stage pair and the improved pair obtained from the refined one-fiber
analysis), their rank-n counterparts, the dimensional factor entering the
infinite-support shift moments, and the weighted chi-square series

    S_h = (2/pi^2) sum_l Y_l / l^2,   Y_l i.i.d. Gamma(h),

whose inverse moments, Laplace transform and exponential-moment series are
evaluated here from their closed forms.

The functions of Gamma (`s_h_inverse_moment`, `s_h_series_tail`,
`s_h_inverse_moment_bound`, `exp_moment_series`, `gaussian_abs_moment`) and
`constants_table`, of zeta(3), load `scipy.special` on their first call, so
the module imports without it.  The Girsanov estimators call none of them,
except `gaussian_abs_moment` for the Holder exponents of
`girsanov.inequality_suite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .legendre import alpha_sq, pair_alpha_sq

__all__ = [
    "heisenberg_constants",
    "carnot_constants",
    "c3",
    "s_h_inverse_moment",
    "s_h_series_tail",
    "s_h_inverse_moment_bound",
    "s_h_laplace",
    "exp_moment_series",
    "remark2_constant",
    "remark2_gamma",
    "remark2_c2_head",
    "gaussian_abs_moment",
    "ConstantEntry",
    "constants_table",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def heisenberg_constants(variant: str = "improved") -> tuple[float, float]:
    """(C1, C2) for the Heisenberg total-variation bound.

    'proof-stage' is the pair produced by the two-index coupling argument;
    'improved' is the strictly smaller pair from the one-fiber refinement.
    """
    if variant == "proof-stage":
        c2 = math.sqrt(22.5)
        c1 = (1.0 + math.sqrt(30.0)) / _SQRT_2PI
    elif variant == "improved":
        c2 = 5.0 * math.sqrt(21.0) / (math.pi * math.sqrt(math.pi))
        c1 = (1.0 + 5.0 * math.sqrt(28.0) / (math.pi * math.sqrt(math.pi))) / _SQRT_2PI
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return c1, c2


def carnot_constants(n: int) -> tuple[float, float]:
    """(C1(n), C2(n)) for the rank-n total-variation bound.

    C2(n) = (6 sqrt(n) + 4/sqrt(n)) / sqrt(pi),
    C1(n) = 1/sqrt(2 pi) + sqrt(2(n-1)/3) C2(n).
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    c2 = (6.0 * math.sqrt(n) + 4.0 / math.sqrt(n)) / math.sqrt(math.pi)
    c1 = 1.0 / _SQRT_2PI + math.sqrt(2.0 * (n - 1) / 3.0) * c2
    return c1, c2


def c3(n: int) -> float:
    """Dimensional factor 8 n^2 (3n+4)^2 in the infinite-support shift moments."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    return 8.0 * n * n * (3 * n + 4) ** 2


def _series_term_log(j: np.ndarray, h: float, a: float) -> np.ndarray:
    from scipy.special import gammaln

    return gammaln(j + h) - gammaln(j + 1.0) - (2 * a + h) * np.log(2 * j + h)


def s_h_series_tail(h: float, a: float, terms: int) -> float:
    """Monotone tail estimate for the inverse-moment series after `terms` terms.

    Uses Gamma(j+h)/Gamma(j+1) <= c_h (2j+h)^{h-1} (c_h = 2^{1-h} for h <= 1,
    else 1) and an integral comparison of the remaining decreasing terms.
    """
    from scipy.special import gammaln

    prefactor = math.exp(
        (1.0 + h - a) * math.log(2.0) + gammaln(2 * a + h) - gammaln(h) - gammaln(a)
    )
    c_h = 2.0 ** max(0.0, 1.0 - h)
    lower = 2.0 * (terms - 1) + h
    return prefactor * c_h * lower ** (-2.0 * a) / (4.0 * a)


def s_h_inverse_moment(h: float, a: float, terms: int = 200_000) -> float:
    """E[S_h^{-a}] from the explicit series.

    E[S_h^{-a}] = 2^{1+h-a} Gamma(2a+h)/(Gamma(h) Gamma(a))
                  * sum_j Gamma(j+h)/Gamma(j+1) (2j+h)^{-(2a+h)}.
    """
    from scipy.special import gammaln

    if h <= 0 or a <= 0:
        raise ValueError("h and a must be positive")
    if terms < 1:
        raise ValueError("need at least one term")
    j = np.arange(terms, dtype=float)
    log_pref = (1.0 + h - a) * math.log(2.0) + gammaln(2 * a + h) - gammaln(h) - gammaln(a)
    return float(np.exp(log_pref + _series_term_log(j, h, a)).sum())


def s_h_inverse_moment_bound(a: float) -> float:
    """Closed-form bound (4a+1) Gamma(2a+1) / (2^a Gamma(a+1)) for E[S_1^{-a}]."""
    from scipy.special import gammaln

    return (4 * a + 1) * math.exp(gammaln(2 * a + 1) - a * math.log(2.0) - gammaln(a + 1))


def s_h_laplace(lam: float, h: float) -> float:
    """Laplace transform E[exp(-lam S_h)] = (sqrt(2 lam)/sinh sqrt(2 lam))^h."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if h <= 0:
        raise ValueError("h must be positive")
    if lam == 0.0:
        return 1.0
    x = math.sqrt(2.0 * lam)
    # x/sinh(x) = 2 x e^{-x} / (1 - e^{-2x}), overflow-safe for large x
    ratio = 2.0 * x * math.exp(-x) / (-math.expm1(-2.0 * x))
    return ratio ** h


def exp_moment_series(
    lam: float, p: float, n: int, T: float, terms: int = 400
) -> float:
    """Exponential-moment series bound for the inverse-trace functional.

    1 + sum_q (C3(n)^p / (T pi)^{2p} * lam)^q (4pq+1) Gamma(2pq+1) / (q! Gamma(pq+1)),
    convergent for 0 < p < 1 (the log-term decays like q(p-1) log q).
    A ratio test across the final terms certifies convergence before returning.
    """
    from scipy.special import gammaln

    if not 0.0 < p < 1.0:
        raise ValueError("series is only guaranteed finite for 0 < p < 1")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return 1.0
    base = math.log(c3(n) ** p / (T * math.pi) ** (2 * p) * lam)
    q = np.arange(1, terms + 1, dtype=float)
    log_terms = (
        q * base
        + np.log(4 * p * q + 1)
        + gammaln(2 * p * q + 1)
        - gammaln(q + 1)
        - gammaln(p * q + 1)
    )
    ratios = np.diff(log_terms[-10:])
    if not np.all(ratios < 0):
        raise ValueError("ratio test failed; increase `terms`")
    return 1.0 + float(np.exp(log_terms).sum())


def remark2_gamma() -> float:
    """Lower-bound ratio 1/42 of the squared coefficient ladder to 1/k^2."""
    return 1.0 / 42.0


def remark2_constant() -> float:
    """Improved replacement constant 5 sqrt(42) / pi for the refined coupling."""
    return 5.0 * math.sqrt(42.0) / math.pi


def remark2_c2_head(count: int = 6) -> list[float]:
    """Head of the squared coefficient ladder `pair_alpha_sq`, k not divisible by 3."""
    ks = [k for k in range(1, 3 * count) if k % 3 != 0][:count]
    return [pair_alpha_sq(k) for k in ks]


def gaussian_abs_moment(q: float) -> float:
    """m_q = (E|Z|^q)^{1/q} for standard normal Z; m_q^q = 2^{q/2} Gamma((q+1)/2)/sqrt(pi)."""
    from scipy.special import gammaln

    if q < 1:
        raise ValueError("q must be at least 1")
    log_mq_q = (q / 2.0) * math.log(2.0) + gammaln((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.exp(log_mq_q / q)


@dataclass(frozen=True)
class ConstantEntry:
    """A named constant: `value` from the library function the bounds use, and
    `reference`, the displayed formula in plain `math`, to catch a fault in it."""

    name: str
    value: float
    formula: str
    source: str
    reference: Callable[[], float] = field(repr=False, compare=False)


def _zeta3_reference(M: int = 100_000) -> float:
    """zeta(3) as the head sum to M plus its Euler-Maclaurin tail."""
    head = math.fsum(j ** -3.0 for j in range(1, M + 1))
    return head + 1.0 / (2 * M ** 2) - 1.0 / (2 * M ** 3) + 1.0 / (4 * M ** 4)


def constants_table() -> list[ConstantEntry]:
    """The full named-constant table, every entry checked against its formula."""
    from scipy.special import zeta

    sqrt, pi = math.sqrt, math.pi
    heis_two = "Heisenberg TV bound, two-index coupling constants"
    heis_one = "Heisenberg TV bound, refined one-fiber constants"
    gauss = "absolute moment of a standard normal"
    entries = [
        ConstantEntry("heis_C1_proof_stage", heisenberg_constants("proof-stage")[0],
                      "(1 + sqrt(30)) / sqrt(2 pi)", heis_two,
                      lambda: (1 + sqrt(30)) / sqrt(2 * pi)),
        ConstantEntry("heis_C2_proof_stage", heisenberg_constants("proof-stage")[1],
                      "sqrt(22.5)", heis_two, lambda: sqrt(22.5)),
        ConstantEntry("heis_C1_improved", heisenberg_constants("improved")[0],
                      "(1 + 5 sqrt(28) / (pi sqrt(pi))) / sqrt(2 pi)", heis_one,
                      lambda: (1 + 5 * sqrt(28) / (pi * sqrt(pi))) / sqrt(2 * pi)),
        ConstantEntry("heis_C2_improved", heisenberg_constants("improved")[1],
                      "5 sqrt(21) / (pi sqrt(pi))", heis_one,
                      lambda: 5 * sqrt(21) / (pi * sqrt(pi))),
        ConstantEntry("remark2_constant", remark2_constant(), "5 sqrt(42) / pi",
                      "refined coupling replacement constant", lambda: 5 * sqrt(42) / pi),
        ConstantEntry("remark2_gamma", remark2_gamma(), "1/42",
                      "coefficient-ladder lower bound ratio", lambda: 1 / 42),
        # the head to k = 999 plus the exact telescoped tail 1/(8 (2*1000+1))
        ConstantEntry("alpha_sq_sum", 0.125, "sum_k alpha_k^2 = 1/8",
                      "telescoping sum of squared area coefficients",
                      lambda: math.fsum(alpha_sq(k) for k in range(1000)) + 1 / (8 * 2001)),
        ConstantEntry("s1_inverse_mean", 3.5 * float(zeta(3.0)), "(7/2) zeta(3)",
                      "first inverse moment of the weighted chi-square series",
                      lambda: 3.5 * _zeta3_reference()),
        ConstantEntry("gauss_abs_m1", gaussian_abs_moment(1.0), "sqrt(2/pi)", gauss,
                      lambda: sqrt(2 / pi)),
        ConstantEntry("gauss_abs_m2", gaussian_abs_moment(2.0), "1", gauss, lambda: 1.0),
        ConstantEntry("gauss_abs_m4", gaussian_abs_moment(4.0), "3^(1/4)", gauss,
                      lambda: 3 ** 0.25),
    ]
    rank_n = "rank-n TV bound constants"
    for n in (2, 3, 4, 5):
        c1, c2 = carnot_constants(n)
        entries += [
            ConstantEntry(f"carnot_C1_{n}", c1, f"1/sqrt(2 pi) + sqrt(2({n}-1)/3) C2({n})",
                          rank_n, lambda n=n: 1 / sqrt(2 * pi)
                          + sqrt(2 * (n - 1) / 3) * ((6 * sqrt(n) + 4 / sqrt(n)) / sqrt(pi))),
            ConstantEntry(f"carnot_C2_{n}", c2, f"(6 sqrt({n}) + 4/sqrt({n})) / sqrt(pi)",
                          rank_n, lambda n=n: (6 * sqrt(n) + 4 / sqrt(n)) / sqrt(pi)),
            ConstantEntry(f"c3_{n}", c3(n), f"8 * {n}^2 * (3*{n}+4)^2",
                          "dimensional factor of the infinite-support shift moments",
                          lambda n=n: 8 * n ** 2 * (3 * n + 4) ** 2),
        ]
    return entries
