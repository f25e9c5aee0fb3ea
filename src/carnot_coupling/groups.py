"""Exact algebra of the free step-2 Carnot groups.

The free step-2 Carnot group of rank n is R^n x so(n) with product
    (u, A) * (v, B) = (u+v, A + B + odot(u, v)/2),   odot(u, v) = u v^t - v u^t.

The Heisenberg group is the rank-2 group: a point (x1, x2, z) is the element
with x = (x1, x2) and the single packed vertical entry z, and the product
above reads (x1+x1', x2+x2', z+z' + (x1 x2' - x2 x1')/2).  `CarnotElement` is
the one point type of the library; `HeisenbergPoint` and `heis_to_carnot`
remain only as an input form for the benchmark harness.

Skew-symmetric matrices are stored packed: the n(n-1)/2 strictly upper
triangular entries in row-major (i < j) order.  Antisymmetry is then true by
construction and the Hilbert-Schmidt norm is sqrt(2 * sum(entries^2)).

All operations here are pure and work unchanged on exact rational inputs
(`fractions.Fraction` scalars / object arrays), which the algebraic tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HeisenbergPoint",
    "SkewMatrix",
    "CarnotElement",
    "carnot_mul",
    "carnot_inv",
    "odot",
    "dilate",
    "zeta",
    "heis_to_carnot",
    "triu_pairs",
    "pack_skew",
    "unpack_skew",
    "odot_packed",
]


def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the strictly upper triangle, row-major (i < j)."""
    return np.triu_indices(n, k=1)


def pack_skew(mat: np.ndarray) -> np.ndarray:
    """Strictly upper triangular entries of a skew matrix, row-major order."""
    mat = np.asarray(mat)
    n = mat.shape[-1]
    iu, ju = triu_pairs(n)
    return mat[..., iu, ju]


def unpack_skew(n: int, packed: np.ndarray) -> np.ndarray:
    """Rebuild the full skew matrix M (M = -M^t exactly) from packed entries."""
    packed = np.asarray(packed)
    iu, ju = triu_pairs(n)
    out = np.zeros(packed.shape[:-1] + (n, n), dtype=packed.dtype)
    out[..., iu, ju] = packed
    out[..., ju, iu] = -packed
    return out


def odot_packed(u: np.ndarray, v: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Packed u odot v = u v^t - v u^t for batched vectors (leading axes shared)."""
    return u[..., iu] * v[..., ju] - u[..., ju] * v[..., iu]


@dataclass(frozen=True)
class HeisenbergPoint:
    """Point (x1, x2, z) of the Heisenberg group; z is the vertical coordinate.

    Kept only because the benchmark harness builds its inputs with it; library
    code takes the rank-2 `CarnotElement` that `heis_to_carnot` returns.
    """

    x1: float
    x2: float
    z: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.z)


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric n x n matrix stored by its strictly upper triangle."""

    n: int
    upper: np.ndarray  # shape (n(n-1)/2,), entry order (0,1), (0,2), ..., (n-2,n-1)

    def __post_init__(self):
        upper = np.asarray(self.upper)
        if upper.shape != (self.n * (self.n - 1) // 2,):
            raise ValueError(
                f"expected {self.n * (self.n - 1) // 2} packed entries, got shape {upper.shape}"
            )
        object.__setattr__(self, "upper", upper)

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls(n, np.zeros(n * (n - 1) // 2))

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "SkewMatrix":
        mat = np.asarray(mat)
        return cls(mat.shape[0], pack_skew(mat))

    def to_matrix(self) -> np.ndarray:
        return unpack_skew(self.n, self.upper)

    def hs_norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm: sqrt(2 * sum of packed entries^2)."""
        return math.sqrt(2.0 * float(np.sum(np.asarray(self.upper, dtype=float) ** 2)))

    def __add__(self, other: "SkewMatrix") -> "SkewMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SkewMatrix(self.n, self.upper + other.upper)

    def __sub__(self, other: "SkewMatrix") -> "SkewMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SkewMatrix(self.n, self.upper - other.upper)

    def scaled(self, c) -> "SkewMatrix":
        return SkewMatrix(self.n, self.upper * c)


@dataclass(frozen=True)
class CarnotElement:
    """Element (x, z) of the free step-2 Carnot group of rank n = len(x)."""

    x: np.ndarray
    z: SkewMatrix

    def __post_init__(self):
        x = np.asarray(self.x)
        object.__setattr__(self, "x", x)
        if self.z.n != x.shape[0]:
            raise ValueError("horizontal / vertical dimension mismatch")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def identity(cls, n: int) -> "CarnotElement":
        return cls(np.zeros(n), SkewMatrix.zero(n))


def odot(u: Sequence[float], v: Sequence[float]) -> SkewMatrix:
    """The skew bracket u odot v = u v^t - v u^t (bilinear, odot(u, u) = 0)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    n = u.shape[0]
    iu, ju = triu_pairs(n)
    return SkewMatrix(n, odot_packed(u, v, iu, ju))


def carnot_mul(a: CarnotElement, b: CarnotElement) -> CarnotElement:
    """Group product (x, z) * (x', z') = (x + x', z + z' + odot(x, x')/2)."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    # dividing by 2 is exact for floats and stays rational for Fraction inputs
    half_bracket = SkewMatrix(a.n, odot(a.x, b.x).upper / 2)
    return CarnotElement(a.x + b.x, a.z + b.z + half_bracket)


def carnot_inv(a: CarnotElement) -> CarnotElement:
    """Group inverse (-x, -z); exact because odot(x, x) = 0."""
    return CarnotElement(-a.x, a.z.scaled(-1))


def dilate(lam: float, g: CarnotElement) -> CarnotElement:
    """Homogeneous dilation (x, z) -> (lam x, lam^2 z) for lam > 0."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    return CarnotElement(g.x * lam, g.z.scaled(lam * lam))


def zeta(g: CarnotElement, g_tilde: CarnotElement) -> SkewMatrix:
    """Vertical part of g^{-1} * g_tilde: z~ - z - odot(x, x~)/2."""
    if g.n != g_tilde.n:
        raise ValueError("dimension mismatch")
    half = SkewMatrix(g.n, odot(g.x, g_tilde.x).upper / 2)
    return g_tilde.z - g.z - half


def heis_to_carnot(a: HeisenbergPoint) -> CarnotElement:
    """Embed (x1, x2, z) as the rank-2 Carnot element with upper entry z.

    Kept only for the benchmark harness, whose inputs are `HeisenbergPoint`s.
    """
    return CarnotElement(np.array([a.x1, a.x2]), SkewMatrix(2, np.array([a.z])))
