"""Cayley-Dickson algebras A_r and their complexifications.

The tower is built by the doubling rule

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

starting from A_0 = R.  Levels r = 0..5 are supported (reals, complex
numbers, quaternions, octonions, sedenions, 32-ons).  Each doubling loses
structure: commutativity at r = 2, associativity at r = 3, alternativity
and norm multiplicativity at r = 4.  Conjugation stays an involutive
anti-automorphism and every element still satisfies z*conj(z) = |z|^2.

The complexification A_{r,C} adjoins one extra imaginary unit i that
commutes with everything; elements are written b + i*c with b, c in A_r.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 5
ZERO_DIVISOR_LEVEL = 4


class AlgebraError(ValueError):
    """Base class for algebra-domain failures."""


class LevelMismatch(AlgebraError):
    pass


class NegativeRealNoCanonicalRoot(AlgebraError):
    """sqrt of alpha*i_0 with alpha < 0 has no canonical root inside A_r."""


class NilpotentNoRoot(AlgebraError):
    """Pure nilpotent complexified elements (v != 0, v^2 = 0) have no root."""


class DegenerateBranch(AlgebraError):
    """No usable branch of the complexified square root."""


def dim_of(level: int) -> int:
    if not 0 <= level <= MAX_LEVEL:
        raise AlgebraError(f"level must be in 0..{MAX_LEVEL}, got {level}")
    return 1 << level


@functools.lru_cache(maxsize=None)
def mul_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Structure constants: i_x * i_y = sign[x, y] * i_{index[x, y]}.

    Built by recursing on the doubling rule with basis elements; at each
    level the four quadrants follow from
        (x,0)(y,0) = (xy, 0)        (x,0)(0,y) = (0, yx)
        (0,x)(y,0) = (0, x conj(y)) (0,x)(0,y) = (-conj(y)x, 0)
    """
    dim = dim_of(level)
    if level == 0:
        return np.ones((1, 1)), np.zeros((1, 1), dtype=np.int64)
    sgn0, idx0 = mul_table(level - 1)
    half = dim // 2
    # conj sign of basis element k at the lower level
    cs = np.where(np.arange(half) == 0, 1.0, -1.0)
    sgn = np.empty((dim, dim))
    idx = np.empty((dim, dim), dtype=np.int64)
    sgn[:half, :half] = sgn0
    idx[:half, :half] = idx0
    sgn[:half, half:] = sgn0.T
    idx[:half, half:] = idx0.T + half
    sgn[half:, :half] = sgn0 * cs[None, :]
    idx[half:, :half] = idx0 + half
    sgn[half:, half:] = -sgn0.T * cs[None, :]
    idx[half:, half:] = idx0.T
    sgn.setflags(write=False)
    idx.setflags(write=False)
    return sgn, idx


@functools.lru_cache(maxsize=None)
def mul_tensor(level: int) -> np.ndarray:
    """Dense tensor M with i_x * i_y = sum_k M[k, x, y] i_k."""
    dim = dim_of(level)
    sgn, idx = mul_table(level)
    M = np.zeros((dim, dim, dim))
    xs, ys = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    M[idx, xs, ys] = sgn
    M.setflags(write=False)
    return M


def mul_coeffs(level: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products x * y of A_r coefficient arrays, pointwise over leading
    axes; ``cd_mul`` is its one-element view, with the same bits."""
    return np.einsum("kxy,...x,...y->...k", mul_tensor(level), x, y)


def cdc_mul_coeffs(level: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(b + i*c)(d + i*e) = (bd - ce) + i*(be + cd) on (..., 2, dim) arrays,
    pointwise; ``cdc_mul`` is its one-element view, with the same bits."""
    b, c = x[..., 0, :], x[..., 1, :]
    d, e = y[..., 0, :], y[..., 1, :]
    return np.stack([mul_coeffs(level, b, d) - mul_coeffs(level, c, e),
                     mul_coeffs(level, b, e) + mul_coeffs(level, c, d)],
                    axis=-2)


def _as_coeffs(level: int, values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.shape != (dim_of(level),):
        raise AlgebraError(
            f"expected {dim_of(level)} coefficients for level {level}, got shape {a.shape}"
        )
    return a


@dataclass(frozen=True)
class CdReal:
    """Element of A_r, stored as the coefficient vector over i_0..i_{2^r-1}."""

    level: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.level, self.coeffs))

    @classmethod
    def zero(cls, level: int) -> "CdReal":
        return cls(level, np.zeros(dim_of(level)))

    @classmethod
    def unit(cls, level: int, k: int, scale: float = 1.0) -> "CdReal":
        c = np.zeros(dim_of(level))
        c[k] = scale
        return cls(level, c)

    @classmethod
    def from_real(cls, level: int, value: float) -> "CdReal":
        return cls.unit(level, 0, float(value))

    def _check(self, other: "CdReal"):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level} differ")

    def __add__(self, other: "CdReal") -> "CdReal":
        self._check(other)
        return CdReal(self.level, self.coeffs + other.coeffs)

    def __sub__(self, other: "CdReal") -> "CdReal":
        self._check(other)
        return CdReal(self.level, self.coeffs - other.coeffs)

    def __neg__(self) -> "CdReal":
        return CdReal(self.level, -self.coeffs)

    def conj(self) -> "CdReal":
        return cd_conj(self)

    def abs2(self) -> float:
        return float(self.coeffs @ self.coeffs)

    def __abs__(self) -> float:
        return float(np.sqrt(self.abs2()))

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def pure(self) -> np.ndarray:
        """Coefficients of the pure part (i_0 component zeroed)."""
        p = self.coeffs.copy()
        p[0] = 0.0
        return p


def cd_mul(a: CdReal, b: CdReal) -> CdReal:
    a._check(b)
    return CdReal(a.level, mul_coeffs(a.level, a.coeffs, b.coeffs))


def cd_conj(a: CdReal) -> CdReal:
    c = -a.coeffs
    c[0] = -c[0]
    return CdReal(a.level, c)


def cd_exp(z: CdReal) -> CdReal:
    """exp via the commutative plane through z: e^{z0}(cos|z'| + z'/|z'| sin|z'|)."""
    theta = float(np.linalg.norm(z.pure()))
    scale = float(np.exp(z.real))
    out = z.pure() * (scale * np.sinc(theta / np.pi))
    out[0] = scale * np.cos(theta)
    return CdReal(z.level, out)


def cd_sqrt(a: CdReal) -> CdReal:
    """Principal square root inside the plane spanned by i_0 and the pure part.

    Maps a = alpha*i_0 + a' to the principal complex sqrt of alpha + i|a'|,
    read back along a'/|a'|.  Raises NegativeRealNoCanonicalRoot for
    alpha*i_0 with alpha < 0 (the candidate roots are pure and there is no
    canonical direction).  sqrt(0) = 0.
    """
    pure = a.pure()
    beta = float(np.linalg.norm(pure))
    alpha = a.real
    if beta == 0.0:
        if alpha < 0.0:
            raise NegativeRealNoCanonicalRoot(f"sqrt({alpha}*i_0) has no canonical root")
        return CdReal.from_real(a.level, np.sqrt(alpha))
    s = cmath.sqrt(complex(alpha, beta))
    out = pure * (s.imag / beta)
    out[0] = s.real
    return CdReal(a.level, out)


@dataclass(frozen=True)
class CdComplex:
    """Element b + i*c of A_{r,C}; i is central and commutes with A_r."""

    re: CdReal
    im: CdReal

    def __post_init__(self):
        self.re._check(self.im)

    @property
    def level(self) -> int:
        return self.re.level

    @classmethod
    def zero(cls, level: int) -> "CdComplex":
        return cls(CdReal.zero(level), CdReal.zero(level))

    @classmethod
    def from_complex(cls, level: int, z: complex) -> "CdComplex":
        return cls(CdReal.from_real(level, z.real), CdReal.from_real(level, z.imag))

    def __add__(self, other: "CdComplex") -> "CdComplex":
        return CdComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CdComplex") -> "CdComplex":
        return CdComplex(self.re - other.re, self.im - other.im)

    def conj(self) -> "CdComplex":
        """Componentwise A_r conjugation; the central i is left untouched."""
        return CdComplex(self.re.conj(), self.im.conj())

    def norm2(self) -> float:
        return cdc_norm2(self)

    @property
    def central(self) -> complex:
        """The C-part z_0 = Re(re) + i*Re(im)."""
        return complex(self.re.real, self.im.real)


def cdc_mul(x: CdComplex, y: CdComplex) -> CdComplex:
    """(b + i*c)(d + i*e) = (bd - ce) + i*(be + cd)."""
    x.re._check(y.re)
    re, im = cdc_mul_coeffs(x.level, np.stack([x.re.coeffs, x.im.coeffs]),
                            np.stack([y.re.coeffs, y.im.coeffs]))
    return CdComplex(CdReal(x.level, re), CdReal(x.level, im))


def cdc_norm2(x: CdComplex) -> float:
    """||b + i*c||^2 = 2|b|^2 + 2|c|^2.  Note ||1||^2 = 2 under this convention."""
    return 2.0 * (x.re.abs2() + x.im.abs2())


def cdc_sqrt(a: CdComplex) -> CdComplex:
    """Square root in A_{r,C} via the central quartic.

    Split a = z0 + v with z0 in C (the central complex part) and v pure.
    v^2 = c is central, so s = gamma0 + v/(2 gamma0) squares to a whenever
    gamma0^4 - z0 gamma0^2 + c/4 = 0.  The branch gamma0^2 =
    (z0 + sqrt_C(z0^2 - c))/2 (principal complex sqrt, minus branch as a
    fallback when it vanishes) agrees with cd_sqrt on A_r inputs and gives
    sqrt(a) > 0 for positive reals.
    """
    level = a.level
    z0 = a.central
    v_re = a.re.pure()
    v_im = a.im.pure()
    v_norm2 = float(v_re @ v_re + v_im @ v_im)

    if v_norm2 == 0.0:
        if z0 == 0:
            return CdComplex.zero(level)
        return CdComplex.from_complex(level, cmath.sqrt(z0))

    # v^2 = (v_re^2 - v_im^2) + i*(v_re v_im + v_im v_re), all central for pure parts
    c = complex(-(v_re @ v_re) + (v_im @ v_im), -2.0 * float(v_re @ v_im))

    disc = cmath.sqrt(z0 * z0 - c)
    scale = abs(z0) + abs(c) ** 0.5 + v_norm2**0.5
    gamma0_sq = None
    for candidate in ((z0 + disc) / 2.0, (z0 - disc) / 2.0):
        if abs(candidate) > 1e-14 * scale**2:
            gamma0_sq = candidate
            break
    if gamma0_sq is None:
        if abs(z0) <= 1e-14 * scale and abs(c) <= 1e-14 * scale**2:
            raise NilpotentNoRoot("pure part is nilpotent (v != 0, v^2 = 0, z0 = 0)")
        raise DegenerateBranch("both quartic branches vanish")

    gamma0 = cmath.sqrt(gamma0_sq)
    w = 1.0 / (2.0 * gamma0)
    out_re = v_re * w.real - v_im * w.imag
    out_im = v_re * w.imag + v_im * w.real
    out_re[0] += gamma0.real
    out_im[0] += gamma0.imag
    return CdComplex(CdReal(level, out_re), CdReal(level, out_im))


def cdc_inner(x: list[CdComplex] | tuple[CdComplex, ...], y) -> CdComplex:
    """<x, y> = sum_j x_j * conj(y_j) with componentwise conjugation."""
    if len(x) != len(y):
        raise AlgebraError("vectors must have equal length")
    acc = CdComplex.zero(x[0].level)
    for xj, yj in zip(x, y):
        acc = acc + cdc_mul(xj, yj.conj())
    return acc


def find_zero_divisor():
    """Search sums of two basis units for a pair with x*y = 0, |x||y| != 0.

    Searches the sedenions (ZERO_DIVISOR_LEVEL = 4), the first level with
    zero divisors; returns (x, y).
    """
    level = ZERO_DIVISOR_LEVEL
    dim = dim_of(level)
    sgn, idx = mul_table(level)
    for a in range(1, dim):
        for b in range(a + 1, dim):
            for c in range(1, dim):
                for d in range(c + 1, dim):
                    # (i_a + i_b)(i_c + i_d) written through the table
                    out = np.zeros(dim)
                    out[idx[a, c]] += sgn[a, c]
                    out[idx[a, d]] += sgn[a, d]
                    out[idx[b, c]] += sgn[b, c]
                    out[idx[b, d]] += sgn[b, d]
                    if not out.any():
                        x = CdReal(level, _two_unit(dim, a, b))
                        y = CdReal(level, _two_unit(dim, c, d))
                        return x, y


def _two_unit(dim: int, a: int, b: int) -> np.ndarray:
    v = np.zeros(dim)
    v[a] = 1.0
    v[b] = 1.0
    return v
