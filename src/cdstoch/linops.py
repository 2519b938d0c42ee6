"""Right-linear operators on A_{r,C}^n, their realizations and norms.

An operator is stored as four h x n blocks of A_r entries acting by left
multiplication:

    S(x + i*y) = S00 x + S01 y + i*(S10 x + S11 y),   x, y in A_r^n.

Operators with S00 = S11 and S01 = S10 = 0 act componentwise over A_r and
are the A_r-entried kind used for covariance square roots and integrands.

Vectors use one fixed flat layout everywhere: component-major, the real
A_r part before the i-part, basis index minor.  A vector z in A_{r,C}^n is
the array z.reshape(n, 2, dim) with z[k, 0] the coefficients of re(z_k)
and z[k, 1] those of im(z_k).  Realized operators are plain real matrices
of shape (2 dim h, 2 dim n) acting on that layout.

Because multiplication is nonassociative above the quaternions, composing
two structured operators generally leaves the structured class; compose
in realized (matrix) form, or entrywise for A_r-entried blocks where the
product stays explicit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .algebra import (
    AlgebraError,
    CdComplex,
    CdReal,
    LevelMismatch,
    cd_sqrt,
    dim_of,
    mul_tensor,
)


class NotSPD(AlgebraError):
    """Matrix failed the symmetric positive-definite gate."""


# ---------------------------------------------------------------- vectors

def vec_size(level: int, n: int) -> int:
    return 2 * dim_of(level) * n


def embed_real(level: int, x) -> np.ndarray:
    """R^n -> A_{r,C}^n along i_0, as a flat layout vector."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (n, 2, dim_of(level)))
    out[..., :, 0, 0] = x
    return out.reshape(x.shape[:-1] + (vec_size(level, n),))


def vec_norm2(v: np.ndarray) -> np.ndarray | float:
    """||z||^2 = sum_j 2|re z_j|^2 + 2|im z_j|^2 on flat layout vectors."""
    return 2.0 * np.sum(np.asarray(v) ** 2, axis=-1)


def re_inner(u: np.ndarray, v: np.ndarray, level: int, n: int) -> np.ndarray | float:
    """Re<u, v> = re.re - im.im on flat layout vectors (batched)."""
    dim = dim_of(level)
    us = np.asarray(u).reshape(u.shape[:-1] + (n, 2, dim))
    vs = np.asarray(v).reshape(v.shape[:-1] + (n, 2, dim))
    re = np.sum(us[..., 0, :] * vs[..., 0, :], axis=(-2, -1))
    im = np.sum(us[..., 1, :] * vs[..., 1, :], axis=(-2, -1))
    return re - im


@dataclass(frozen=True)
class CdVector:
    """Element of A_{r,C}^n in the fixed flat layout."""

    level: int
    n: int
    data: np.ndarray  # (n, 2, dim)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.shape != (self.n, 2, dim_of(self.level)):
            raise AlgebraError(f"bad vector shape {d.shape}")
        object.__setattr__(self, "data", d)

    @classmethod
    def from_vec(cls, level: int, n: int, flat: np.ndarray) -> "CdVector":
        return cls(level, n, np.asarray(flat, dtype=float).reshape(n, 2, dim_of(level)))

    @classmethod
    def embedded_real(cls, level: int, x) -> "CdVector":
        x = np.asarray(x, dtype=float)
        return cls.from_vec(level, len(x), embed_real(level, x))

    @property
    def vec(self) -> np.ndarray:
        return self.data.reshape(-1)

    def component(self, k: int) -> CdComplex:
        return CdComplex(CdReal(self.level, self.data[k, 0]), CdReal(self.level, self.data[k, 1]))

    def components(self) -> list[CdComplex]:
        return [self.component(k) for k in range(self.n)]


@dataclass(frozen=True)
class RealFunctional:
    """Continuous R-linear functional y(x) = <coeffs, vec(x)> on A_{r,C}^n."""

    level: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (vec_size(self.level, self.n),):
            raise AlgebraError(f"functional needs {vec_size(self.level, self.n)} coefficients")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        if isinstance(x, CdVector):
            return float(self.coeffs @ x.vec)
        return np.asarray(x) @ self.coeffs


# ---------------------------------------------------------------- entry blocks

def _entries(level: int, h: int, n: int, arr) -> np.ndarray:
    if arr is None:
        return np.zeros((h, n, dim_of(level)))
    a = np.asarray(arr, dtype=float)
    if a.shape != (h, n, dim_of(level)):
        raise AlgebraError(f"block shape {a.shape} != {(h, n, dim_of(level))}")
    return a


def entries_conj_transpose(entries: np.ndarray) -> np.ndarray:
    out = entries.transpose(1, 0, 2).copy()
    out[..., 1:] *= -1.0
    return out


def compose_entries(a: np.ndarray, b: np.ndarray, level: int) -> np.ndarray:
    """Entrywise product of A_r-entried blocks: (a o b)_{lj} = sum_k a_lk b_kj."""
    return np.einsum("pxy,lkx,kjy->ljp", mul_tensor(level), a, b)


def entries_trace(entries: np.ndarray) -> float:
    """Tr(A A*) = sum_{l,k} |A_{l,k}|^2 for an A_r-entried block."""
    return float(np.sum(entries**2))


# ---------------------------------------------------------------- operators

@dataclass(frozen=True)
class RightLinearOp:
    """Four-block right-linear operator A_{r,C}^n -> A_{r,C}^h."""

    level: int
    h: int
    n: int
    s00: np.ndarray
    s01: np.ndarray
    s10: np.ndarray
    s11: np.ndarray

    def __post_init__(self):
        for name in ("s00", "s01", "s10", "s11"):
            object.__setattr__(self, name, _entries(self.level, self.h, self.n, getattr(self, name)))

    # -------- constructors

    @classmethod
    def from_blocks(cls, level, s00, s01=None, s10=None, s11=None):
        """The operator of these blocks; h and n are read from s00."""
        return cls(level, *np.shape(s00)[:2], s00, s01, s10, s11)

    @classmethod
    def lri(cls, level: int, entries) -> "RightLinearOp":
        """A_r-entried operator acting componentwise: J(x + i*y) = Jx + i*Jy."""
        e = np.asarray(entries, dtype=float)
        return cls(level, e.shape[0], e.shape[1], e, None, None, e)

    @classmethod
    def identity(cls, level: int, n: int) -> "RightLinearOp":
        e = np.zeros((n, n, dim_of(level)))
        e[np.arange(n), np.arange(n), 0] = 1.0
        return cls.lri(level, e)

    @classmethod
    def left_mult(cls, a: CdReal) -> "RightLinearOp":
        """Left multiplication by a on A_{r,C}^1."""
        return cls.lri(a.level, np.array(a.coeffs, dtype=float)[None, None])

    # -------- structure

    @property
    def is_lri(self) -> bool:
        return (
            not self.s01.any()
            and not self.s10.any()
            and np.array_equal(self.s00, self.s11)
        )

    @property
    def entries(self) -> np.ndarray:
        if not self.is_lri:
            raise AlgebraError("operator is not A_r-entried")
        return self.s00

    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        return {(0, 0): self.s00, (0, 1): self.s01, (1, 0): self.s10, (1, 1): self.s11}

    # -------- evaluation

    @cached_property
    def realized(self) -> np.ndarray:
        """Real matrix on the flat layout, assembled from left-mult blocks."""
        dim = dim_of(self.level)
        T = mul_tensor(self.level)
        m6 = np.zeros((self.h, 2, dim, self.n, 2, dim))
        for (i, j), blk in self.blocks().items():
            # left-mult matrix of entry (l,k): L[p, y] = sum_a T[p, a, y] blk[l, k, a]
            m6[:, i, :, :, j, :] = np.einsum("pay,lka->lpky", T, blk)
        return m6.reshape(2 * dim * self.h, 2 * dim * self.n)

    def apply(self, x: CdVector) -> CdVector:
        """Structured evaluation through the multiplication tensor."""
        if x.level != self.level or x.n != self.n:
            raise AlgebraError("operand mismatch")
        T = mul_tensor(self.level)
        xr, xi = x.data[:, 0, :], x.data[:, 1, :]
        out_re = np.einsum("pab,lka,kb->lp", T, self.s00, xr) + np.einsum(
            "pab,lka,kb->lp", T, self.s01, xi
        )
        out_im = np.einsum("pab,lka,kb->lp", T, self.s10, xr) + np.einsum(
            "pab,lka,kb->lp", T, self.s11, xi
        )
        return CdVector(self.level, self.h, np.stack([out_re, out_im], axis=1))

    # -------- algebra

    def adjoint(self) -> "RightLinearOp":
        """Adjoint for Re<Sx, y> = Re<x, S*y>: conjugate-transpose entries,
        with the cross blocks swapped and negated by the i-structure."""
        return RightLinearOp(
            self.level,
            self.n,
            self.h,
            entries_conj_transpose(self.s00),
            -entries_conj_transpose(self.s10),
            -entries_conj_transpose(self.s01),
            entries_conj_transpose(self.s11),
        )

    def hs_norm2(self) -> float:
        """||S||_2^2; reduces to 2Tr(AA*) + 2Tr(BB*) for S = A + i*B."""
        return hs_inner(self, self)

    def scaled(self, c: float) -> "RightLinearOp":
        return RightLinearOp(
            self.level, self.h, self.n, self.s00 * c, self.s01 * c, self.s10 * c, self.s11 * c
        )


def op_terms(raw, count: int, shape: tuple[int, int, int]) -> list:
    """Normalize an operator callback's result to [(weights | None, op)].

    raw is a ``RightLinearOp``, a ``(weights, op)`` pair with one scalar
    weight per replica (``None`` for unweighted), or a list of those.
    Every op must have the (level, h, n) shape.
    """
    if isinstance(raw, (RightLinearOp, tuple)):
        raw = [raw]
    out = []
    for item in raw:
        if isinstance(item, RightLinearOp):
            weights, op = None, item
        else:
            weights, op = item
            if weights is not None:
                weights = np.asarray(weights, dtype=float)
                if weights.shape != (count,):
                    raise AlgebraError("weights must hold one scalar per replica")
        if (op.level, op.h, op.n) != shape:
            raise LevelMismatch("operator term shape does not match its slot")
        out.append((weights, op))
    return out


def trace_aa_star_via_units(block: np.ndarray, level: int) -> CdComplex:
    """Cross-check route: sum_l <A A* e_l, e_l> on realized products."""
    op = RightLinearOp.lri(level, block)
    m = op.realized @ op.adjoint().realized
    dim = dim_of(level)
    acc_re = np.zeros(dim)
    acc_im = np.zeros(dim)
    for l in range(op.h):
        col = m[:, l * 2 * dim].reshape(op.h, 2, dim)
        acc_re += col[l, 0]
        acc_im += col[l, 1]
    return CdComplex(CdReal(level, acc_re), CdReal(level, acc_im))


def adjoint_full_residual(op: RightLinearOp, samples: int) -> float:
    """Max norm of <Jx,y> - <x,J*y> over random probes (NaN if any is NaN).

    The real part of this residual vanishes identically.  The full form
    pits a<x,y> against <x,y>a, so it already fails once multiplication
    stops commuting (r >= 2); it is reported, never asserted.
    """
    from .algebra import cdc_inner

    rng = np.random.default_rng(0)
    adj = op.adjoint()
    residuals = []
    for _ in range(samples):
        x = CdVector(op.level, op.n, rng.normal(size=(op.n, 2, dim_of(op.level))))
        y = CdVector(op.level, op.h, rng.normal(size=(op.h, 2, dim_of(op.level))))
        lhs = cdc_inner(op.apply(x).components(), y.components())
        rhs = cdc_inner(x.components(), adj.apply(y).components())
        residuals.append(np.sqrt((lhs - rhs).norm2()))
    return float(np.max(residuals))


def op_norm(op: np.ndarray | RightLinearOp) -> float:
    """Operator norm: the spectral norm of the realization.

    The ||.|| norms on both sides are sqrt(2) times Euclidean in the flat
    layout, so the ratio is the plain spectral norm of the realization.
    """
    m = op.realized if isinstance(op, RightLinearOp) else np.asarray(op)
    return float(np.linalg.norm(m, 2))


# ---------------------------------------------------------------- spd + covariance

def spd_sqrt(b: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; gates SPD-ness."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise NotSPD(f"not square: {b.shape}")
    scale = np.max(np.abs(b)) or 1.0
    if np.max(np.abs(b - b.T)) > 1e-12 * scale:
        raise NotSPD("matrix is not symmetric")
    w, v = np.linalg.eigh(b)
    if np.min(w) <= 1e-12 * np.max(np.abs(w)):
        raise NotSPD(f"min eigenvalue {np.min(w):.3e} under the SPD floor")
    return (v * np.sqrt(w)) @ v.T


@dataclass(frozen=True)
class CovarianceOperator:
    """Block-diagonal covariance: blocks (a_j, B_j) with a_j in A_r, B_j SPD.

    Acts on A_r^n (n = sum of block sizes) as x |-> a_j * (B_j x) within
    each block.  Only a_j != 0, SPD B_j and a canonical sqrt(a_j) are
    enforced: the block roots (sqrt(a_j), B_j^{1/2}) are taken once, at
    construction, which is also the gate.
    """

    level: int
    blocks: tuple[tuple[CdReal, np.ndarray], ...]
    _roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fixed, roots = [], []
        for a, b in self.blocks:
            if a.level != self.level:
                raise AlgebraError("block coefficient level mismatch")
            if abs(a) == 0.0:
                raise AlgebraError("block coefficient a_j must be nonzero")
            b = np.asarray(b, dtype=float)
            root_b = spd_sqrt(b)
            fixed.append((a, b))
            roots.append((cd_sqrt(a), root_b))
        object.__setattr__(self, "blocks", tuple(fixed))
        object.__setattr__(self, "_roots", tuple(roots))

    @classmethod
    def simple(cls, a: CdReal, b) -> "CovarianceOperator":
        return cls(a.level, ((a, np.asarray(b, dtype=float)),))

    @classmethod
    def identity(cls, level: int, n: int) -> "CovarianceOperator":
        """The identity on A_r^n: one block (1, I_n)."""
        return cls.simple(CdReal.from_real(level, 1.0), np.eye(n))

    @property
    def n(self) -> int:
        return sum(b.shape[0] for _, b in self.blocks)

    def _assemble(self, pieces: list[tuple[CdReal, np.ndarray]]) -> np.ndarray:
        n = self.n
        entries = np.zeros((n, n, dim_of(self.level)))
        offset = 0
        for a, mat in pieces:
            k = mat.shape[0]
            sl = slice(offset, offset + k)
            entries[sl, sl, :] = mat[:, :, None] * a.coeffs[None, None, :]
            offset += k
        return entries

    def entries(self) -> np.ndarray:
        """U itself as an A_r-entried block (a_j times B_j per block)."""
        return self._assemble(list(self.blocks))

    def as_op(self) -> RightLinearOp:
        return RightLinearOp.lri(self.level, self.entries())

    def sqrt_entries(self) -> np.ndarray:
        """U^{1/2} as a fresh A_r-entried block, from the kept block roots."""
        return self._assemble(list(self._roots))

    def sqrt_op(self) -> RightLinearOp:
        """U^{1/2} = direct sum of sqrt(a_j) B_j^{1/2}, an A_r-entried op."""
        return RightLinearOp.lri(self.level, self.sqrt_entries())


@dataclass(frozen=True)
class ComplexCovariance:
    """Pair (U_0, U_1) for w = U_0^{1/2} xi_0 + i U_1^{1/2} xi_1 + p t."""

    u0: CovarianceOperator
    u1: CovarianceOperator

    def __post_init__(self):
        if self.u0.level != self.u1.level or self.u0.n != self.u1.n:
            raise AlgebraError("U_0 and U_1 must share level and size")

    @property
    def level(self) -> int:
        return self.u0.level

    @property
    def n(self) -> int:
        return self.u0.n

    def max_sqrt_hs2(self) -> float:
        """max(||U_0^(1/2)||_2^2, ||U_1^(1/2)||_2^2)."""
        return max(self.u0.sqrt_op().hs_norm2(), self.u1.sqrt_op().hs_norm2())


@cache
def load_expm():
    """scipy.linalg.expm, imported on the first call.

    This is the package's one use of scipy, and importing scipy.linalg
    costs about 0.2 s and 28 MB, so a run pays it only when it takes a
    matrix exponential: config calls this while it builds a run whose
    batteries do (config.EXPM_EXPERIMENTS), before any pool opens, so the
    pools' BLAS budget finds scipy's OpenBLAS loaded.
    """
    from scipy.linalg import expm
    return expm


def op_exp_left(g: np.ndarray | RightLinearOp, t: float) -> np.ndarray:
    """exp_l(G t) on the realization, by scaling-and-squaring."""
    m = g.realized if isinstance(g, RightLinearOp) else np.asarray(g)
    return load_expm()(m * t)


def op_phi1_left(g: np.ndarray | RightLinearOp, t: float) -> np.ndarray:
    """phi1(G t) = (e^{G t} - I) / (G t) on the realization.

    Read off the top-right block of exp([[G t, I t], [0, 0]]), which is
    the integral of e^{G s} over [0, t]; a singular G needs no inverse.
    At t = 0 it is the identity, phi1(0) and the limit as t -> 0.
    """
    m = g.realized if isinstance(g, RightLinearOp) else np.asarray(g)
    size = m.shape[0]
    if t == 0:
        return np.eye(size)
    aug = np.zeros((2 * size, 2 * size))
    aug[:size, :size] = m * t
    aug[:size, size:] = np.eye(size) * t
    return load_expm()(aug)[:size, size:] / t


# ------------------------------------------------------------ trace pairings

def hs_inner(s: RightLinearOp, s2: RightLinearOp) -> float:
    """Entrywise inner product of the blocks; hs_norm2 is its diagonal."""
    b1, b2 = s.blocks(), s2.blocks()
    return float(sum(np.sum(b1[key] * b2[key]) for key in b1))


def f_functional_cross(s: RightLinearOp, s2: RightLinearOp, u: ComplexCovariance) -> float:
    """Bilinear form of F: sum_{l,k} Tr({S_lk U_k^{1/2}} {(U_k^{1/2})* S2_lk*}).

    Each trace is evaluated on the explicit product of the A_r-entried
    blocks, which matches the realized-product value exactly.  When s2 is
    s, each block is composed once.
    """
    if s.n != u.n or s.level != u.level:
        raise AlgebraError("operator and covariance mismatch")
    roots = (u.u0.sqrt_entries(), u.u1.sqrt_entries())
    total = 0.0
    b2 = s2.blocks()
    for (i, k), blk in s.blocks().items():
        g1 = compose_entries(blk, roots[k], s.level)
        g2 = g1 if s2 is s else compose_entries(b2[(i, k)], roots[k], s.level)
        total += float(np.sum(g1 * g2))
    return total


def f_functional(s: RightLinearOp, u: ComplexCovariance) -> float:
    """F(S; U_0, U_1), the diagonal of f_functional_cross."""
    return f_functional_cross(s, s, u)
