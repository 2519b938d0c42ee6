"""Operator realization, adjoints, traces, covariance roots, exp."""
import warnings

import numpy as np
import pytest
import scipy.linalg

import cdstoch.linops as linops_module
from cdstoch.algebra import CdReal, cd_conj, cd_sqrt, dim_of
from cdstoch.linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    NotSPD,
    RealFunctional,
    RightLinearOp,
    adjoint_full_residual,
    compose_entries,
    embed_real,
    entries_trace,
    f_functional,
    op_exp_left,
    op_norm,
    op_phi1_left,
    re_inner,
    spd_sqrt,
    trace_aa_star_via_units,
    vec_norm2,
)

TOL = 1e-12


def rand_op(rng, level, h, n):
    return RightLinearOp(level, h, n, *(rng.normal(size=(h, n, dim_of(level))) for _ in range(4)))


def rand_lri(rng, level, h, n):
    return RightLinearOp.lri(level, rng.normal(size=(h, n, dim_of(level))))


# ---------------------------------------------------------------- evaluation

def test_structured_matches_realized():
    rng = np.random.default_rng(30)
    for level in range(5):
        for _ in range(5):
            op = rand_op(rng, level, 2, 3)
            x = CdVector(level, 3, rng.normal(size=(3, 2, dim_of(level))))
            structured = op.apply(x).vec
            realized = x.vec @ op.realized.T
            scale = max(1.0, np.max(np.abs(structured)))
            assert np.max(np.abs(structured - realized)) <= TOL * scale


def test_weak_right_linearity():
    # S(x b + y c) = S(x) b + S(y) c for real vectors x, y and scalars b, c
    rng = np.random.default_rng(31)
    level = 3
    op = rand_lri(rng, level, 2, 2)
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    from cdstoch.algebra import cdc_mul_coeffs

    # scalars b, c of A_{r,C} as (re, im) coefficient rows
    b = np.stack([rng.normal(size=8), rng.normal(size=8)])
    c = np.stack([rng.normal(size=8), rng.normal(size=8)])

    def scale_vec(vec, s):
        return cdc_mul_coeffs(level, vec.data, s)

    ex = CdVector.embedded_real(level, x)
    ey = CdVector.embedded_real(level, y)
    lhs = op.apply(CdVector(level, 2, scale_vec(ex, b) + scale_vec(ey, c)))
    rhs = scale_vec(op.apply(ex), b) + scale_vec(op.apply(ey), c)
    np.testing.assert_allclose(lhs.data, rhs, rtol=0, atol=1e-11)


def test_identity_and_real_matrix_embedding():
    rng = np.random.default_rng(32)
    level = 2
    ident = RightLinearOp.identity(level, 3)
    v = rng.normal(size=2 * dim_of(level) * 3)
    assert np.allclose(v @ ident.realized.T, v, atol=0)
    mat = rng.normal(size=(2, 3))
    entries = np.zeros((2, 3, dim_of(level)))
    entries[..., 0] = mat
    op = RightLinearOp.lri(level, entries)
    x = rng.normal(size=3)
    out = (embed_real(level, x) @ op.realized.T).reshape(2, 2, dim_of(level))
    assert np.allclose(out[:, 0, 0], mat @ x, atol=1e-13)
    assert np.max(np.abs(out[:, :, 1:])) == 0.0 and np.max(np.abs(out[:, 1, :])) == 0.0


# ---------------------------------------------------------------- adjoint

def test_adjoint_real_part_identity():
    rng = np.random.default_rng(33)
    for level in range(6):
        op = rand_op(rng, level, 2, 3)
        adj = op.adjoint()
        x = rng.normal(size=(8, 2 * dim_of(level) * 3))
        y = rng.normal(size=(8, 2 * dim_of(level) * 2))
        lhs = re_inner(x @ op.realized.T, y, level, 2)
        rhs = re_inner(x, y @ adj.realized.T, level, 3)
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.max(np.abs(lhs - rhs) / scale) <= TOL * 10


def test_adjoint_is_involutive_and_lri_transpose():
    rng = np.random.default_rng(34)
    op = rand_op(rng, 3, 2, 3)
    assert np.array_equal(op.adjoint().adjoint().realized, op.realized)
    lop = rand_lri(rng, 3, 3, 3)
    assert np.allclose(lop.adjoint().realized, lop.realized.T, atol=1e-13)


def test_adjoint_full_residual_reported_not_zero():
    # The full CdComplex identity fails for noncommutative levels; the
    # diagnostic only reports it.
    rng = np.random.default_rng(35)
    residual = adjoint_full_residual(rand_op(rng, 3, 2, 2), samples=5)
    assert residual > 1.0  # genuinely nonzero, far above float noise


def test_adjoint_full_residual_reports_a_nan_entry():
    # the residual is reported unasserted, but a NaN must reach the report
    # rather than read as the largest finite residual
    rng = np.random.default_rng(35)
    blocks = [rng.normal(size=(2, 2, dim_of(3))) for _ in range(4)]
    blocks[0][0, 1, 2] = np.nan
    residual = adjoint_full_residual(RightLinearOp(3, 2, 2, *blocks),
                                     samples=5)
    assert np.isnan(residual)


# ---------------------------------------------------------------- traces and norms

def test_trace_formulas_agree():
    rng = np.random.default_rng(36)
    for level in range(6):
        entries = rng.normal(size=(3, 2, dim_of(level)))
        t_entry = entries_trace(entries)
        t_units = trace_aa_star_via_units(entries, level)
        assert t_entry >= 0.0
        assert abs(t_entry - t_units.re.real) <= 1e-11 * max(1.0, t_entry)
        # the realized route lands on a purely real trace
        assert np.max(np.abs(t_units.re.pure())) <= 1e-11 * max(1.0, t_entry)
        assert np.max(np.abs(t_units.im.coeffs)) <= 1e-11 * max(1.0, t_entry)


def test_hs_norm_identity_is_2n():
    for level in (1, 2, 3):
        for n in (1, 2, 5):
            assert RightLinearOp.identity(level, n).hs_norm2() == pytest.approx(2.0 * n, abs=TOL)


def test_op_norm_matches_svd_and_bounded_by_hs():
    rng = np.random.default_rng(37)
    for level in (1, 2, 3, 4):
        for _ in range(5):
            op = rand_op(rng, level, 2, 3)
            pn = op_norm(op)
            sv = np.linalg.norm(op.realized, 2)
            assert pn == pytest.approx(sv, rel=1e-7)
            assert pn <= np.sqrt(op.hs_norm2()) + TOL


def test_norm_dominance_check_at_seed_16():
    # seed 16 holds an operator on which power iteration on M^T M did not
    # converge within its step cap; the spectral norm has no such failure
    from cdstoch.config import RunConfig
    from cdstoch.experiments import LINOPS_CASES, _run_cases
    case = next(c for c in LINOPS_CASES if c.name == "operator_norm_dominated")
    [entry] = _run_cases([case], RunConfig(seed=16,
                                           tolerances=(("exact", 1e-12),)))
    assert entry["passed"]


def test_op_norm_sweep_norm_le_hs():
    # Valid through the octonions; the composition-algebra property
    # |zx| = |z||x| is what keeps every left-mult block spectrally flat.
    rng = np.random.default_rng(38)
    for _ in range(400):
        level = int(rng.integers(0, 4))
        h = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        op = rand_op(rng, level, h, n)
        assert np.linalg.norm(op.realized, 2) <= np.sqrt(op.hs_norm2()) + TOL


def test_norm_dominance_breaks_at_sedenions():
    # Past the octonions zero divisors deflate some singular values of a
    # left multiplication, so others inflate above |z| and four-block
    # combinations can push ||S|| past ||S||_2.
    rng = np.random.default_rng(38)
    violated = False
    for _ in range(400):
        op = rand_op(rng, 4, 1, 1)
        if np.linalg.norm(op.realized, 2) > np.sqrt(op.hs_norm2()) * (1 + 1e-9):
            violated = True
            break
    assert violated


def test_compose_entries_matches_realized_product():
    rng = np.random.default_rng(39)
    for level in (1, 2, 3, 4):
        a = rng.normal(size=(2, 3, dim_of(level)))
        b = rng.normal(size=(3, 2, dim_of(level)))
        ab = compose_entries(a, b, level)
        m = (RightLinearOp.lri(level, a).realized
             @ RightLinearOp.lri(level, b).realized)
        # the entry product realizes to the same action on embedded reals
        x = rng.normal(size=2)
        v1 = embed_real(level, x) @ RightLinearOp.lri(level, ab).realized.T
        v2 = m @ embed_real(level, x)
        assert np.allclose(v1, v2, atol=1e-12)


# ---------------------------------------------------------------- spd + covariance

def test_spd_sqrt_round_trip_and_gate():
    rng = np.random.default_rng(40)
    raw = rng.normal(size=(4, 4))
    b = raw @ raw.T + 4 * np.eye(4)
    root = spd_sqrt(b)
    assert np.allclose(root @ root, b, atol=1e-10)
    assert np.allclose(root, root.T, atol=1e-12)
    with pytest.raises(NotSPD):
        spd_sqrt(raw)  # not symmetric
    sym_indef = np.diag([1.0, -1.0])
    with pytest.raises(NotSPD):
        spd_sqrt(sym_indef)
    with pytest.raises(NotSPD):
        spd_sqrt(np.diag([1.0, 0.0]))  # singular hits the eigenvalue floor


def test_cov_sqrt_pinned_example():
    # a = 2 i_1, B = [[4]]: root entry is 2(i_0 + i_1) and squares back to U
    u = CovarianceOperator.simple(CdReal(1, [0.0, 2.0]), [[4.0]])
    root = u.sqrt_op()
    assert np.allclose(root.entries[0, 0], [2.0, 2.0], atol=TOL)
    m = root.realized
    assert np.allclose(m @ m, u.as_op().realized, atol=1e-12)


def test_cov_sqrt_round_trip_through_octonions():
    rng = np.random.default_rng(41)
    for level in (1, 2, 3):
        for _ in range(5):
            a = CdReal(level, rng.normal(size=dim_of(level)))
            raw = rng.normal(size=(3, 3))
            b = raw @ raw.T + 3 * np.eye(3)
            u = CovarianceOperator(level, ((a, b),))
            m = u.sqrt_op().realized
            target = u.as_op().realized
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(m @ m - target)) <= 1e-10 * scale


def test_cov_sqrt_multi_block_and_adjoint():
    rng = np.random.default_rng(42)
    level = 2
    a1 = CdReal(level, rng.normal(size=4))
    a2 = CdReal.unit(level, 1, 2.0)
    u = CovarianceOperator(level, ((a1, np.eye(2) * 3.0), (a2, [[4.0]])))
    assert u.n == 3 and [b.shape[0] for _, b in u.blocks] == [2, 1]
    root = u.sqrt_op()
    adj = root.adjoint()
    # adjoint of the direct sum is conj(sqrt(a_j)) B_j^{1/2} blockwise
    expected = cd_conj(cd_sqrt(a2)).coeffs * 2.0
    assert np.allclose(adj.entries[2, 2], expected, atol=TOL)
    m = root.realized
    assert np.allclose(m @ m, u.as_op().realized, atol=1e-10)


def test_cov_sqrt_sedenion_single_direction():
    # basis-direction coefficients keep left-multiplication alternative,
    # so the realized round trip survives even at r = 4
    u = CovarianceOperator.simple(CdReal.unit(4, 3, 1.5), np.eye(2) * 2.0)
    m = u.sqrt_op().realized
    assert np.allclose(m @ m, u.as_op().realized, atol=1e-10)


def test_covariance_rejects_zero_coefficient():
    with pytest.raises(Exception):
        CovarianceOperator.simple(CdReal.zero(2), [[1.0]])


def test_cov_block_roots_are_taken_once_at_construction(monkeypatch):
    """Each block root is computed once, by the constructor's gate; every
    later square root assembles a fresh array from the kept pieces."""
    calls = []
    for name in ("spd_sqrt", "cd_sqrt"):
        real = getattr(linops_module, name)
        monkeypatch.setattr(linops_module, name,
                            lambda x, real=real, name=name:
                            calls.append(name) or real(x))
    level = 2
    a1 = CdReal(level, [1.0, 0.5, 0.0, 0.2])
    a2 = CdReal.unit(level, 1, 2.0)
    u = CovarianceOperator(level, ((a1, np.eye(2) * 3.0), (a2, [[4.0]])))
    assert sorted(calls) == ["cd_sqrt"] * 2 + ["spd_sqrt"] * 2
    first = u.sqrt_entries()
    m = u.sqrt_op().realized
    assert len(calls) == 4
    assert np.allclose(m @ m, u.as_op().realized, atol=1e-10)
    second = u.sqrt_entries()
    assert second is not first and np.array_equal(second, first)
    first[...] = 0.0
    assert np.array_equal(u.sqrt_entries(), second)
    with pytest.raises(NotSPD):
        CovarianceOperator.simple(a1, [[1.0, 2.0], [2.0, 1.0]])


# ---------------------------------------------------------------- exp + F

def test_op_exp_left_semigroup_growth_and_euler_oracle():
    rng = np.random.default_rng(43)
    op = rand_op(rng, 2, 3, 3)
    g = op.realized * 0.4
    half = op_exp_left(g, 0.25)
    whole = op_exp_left(g, 0.5)
    assert np.allclose(half @ half, whole, atol=1e-11)
    gnorm = np.linalg.norm(g, 2)
    for t in (0.1, 0.5, 1.0):
        assert np.linalg.norm(op_exp_left(g, t), 2) <= np.exp(gnorm * t) * (1 + 1e-10)
    # pure rotation block: exp matches the cos/sin closed form
    theta = 0.7
    rot = np.array([[0.0, -theta], [theta, 0.0]])
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(op_exp_left(rot, 1.0), expected, atol=1e-12)


def test_op_phi1_left_is_the_identity_at_zero():
    """phi1(0) = I, the limit as t -> 0, with no 0/0; every t != 0, a
    negative one included, keeps the bits of the augmented exponential."""
    rng = np.random.default_rng(46)
    op = rand_op(rng, 2, 3, 3)
    g = op.realized
    size = g.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = op_phi1_left(op, 0.0)
        assert np.array_equal(op_phi1_left(g, 0), at_zero)
    assert np.array_equal(at_zero, np.eye(size))
    assert np.allclose(op_phi1_left(op, 1e-9), at_zero, rtol=0.0, atol=1e-8)
    assert linops_module.load_expm() is scipy.linalg.expm
    for t in (0.3, -0.3, 1e-9):
        aug = np.zeros((2 * size, 2 * size))
        aug[:size, :size] = g * t
        aug[:size, size:] = np.eye(size) * t
        want = scipy.linalg.expm(aug)[:size, size:] / t
        assert op_phi1_left(op, t).tobytes() == want.tobytes()
        # G t phi1(G t) = e^{G t} - I
        assert np.allclose((g * t) @ want, op_exp_left(op, t) - np.eye(size),
                           atol=1e-12)


def test_f_functional_identity_case():
    u1 = CovarianceOperator.simple(CdReal.from_real(2, 1.0), [[1.0]])
    u = ComplexCovariance(u1, u1)
    ident = RightLinearOp.identity(2, 1)
    assert f_functional(ident, u) == pytest.approx(2.0, abs=TOL)


def test_f_functional_nonnegative():
    rng = np.random.default_rng(44)
    for level in (1, 2, 3):
        a = CdReal(level, rng.normal(size=dim_of(level)))
        u0 = CovarianceOperator.simple(a, np.eye(2) * 2.0)
        u1 = CovarianceOperator.simple(CdReal.from_real(level, 0.5), np.eye(2))
        u = ComplexCovariance(u0, u1)
        for _ in range(10):
            s = rand_op(rng, level, 2, 2)
            assert f_functional(s, u) >= 0.0


# ---------------------------------------------------------------- vectors

def test_vector_layout_and_functional():
    rng = np.random.default_rng(45)
    level, n = 2, 3
    x = rng.normal(size=n)
    v = CdVector.embedded_real(level, x)
    assert vec_norm2(v.vec) == pytest.approx(2.0 * float(x @ x), rel=1e-14)
    y = RealFunctional(level, n, rng.normal(size=2 * dim_of(level) * n))
    assert y(v) == pytest.approx(float(y.coeffs @ v.vec), abs=0.0)
    batch = rng.normal(size=(7, 2 * dim_of(level) * n))
    assert np.allclose(y(batch), batch @ y.coeffs, atol=0.0)
    assert vec_norm2(batch).shape == (7,)
