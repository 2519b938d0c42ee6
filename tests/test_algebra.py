"""Algebra kernels: multiplication tables, conjugation, norms, roots, exp."""
import numpy as np
import pytest

from cdstoch.algebra import (
    CdComplex,
    CdReal,
    LevelMismatch,
    NegativeRealNoCanonicalRoot,
    NilpotentNoRoot,
    cd_conj,
    cd_exp,
    cd_mul,
    cd_sqrt,
    cdc_inner,
    cdc_mul,
    cdc_mul_coeffs,
    cdc_norm2,
    cdc_sqrt,
    dim_of,
    find_zero_divisor,
    mul_coeffs,
    mul_table,
    mul_tensor,
)

TOL = 1e-12


def rand_elem(rng, level, scale=1.0):
    return CdReal(level, rng.normal(size=dim_of(level)) * scale)


def rand_celem(rng, level, scale=1.0):
    return CdComplex(rand_elem(rng, level, scale), rand_elem(rng, level, scale))


# ---------------------------------------------------------------- tables

# Published quaternion table: i*j = k and cyclic, squares -1.
QUATERNION_TABLE = {
    (1, 2): (1.0, 3),
    (2, 1): (-1.0, 3),
    (2, 3): (1.0, 1),
    (3, 2): (-1.0, 1),
    (3, 1): (1.0, 2),
    (1, 3): (-1.0, 2),
    (1, 1): (-1.0, 0),
    (2, 2): (-1.0, 0),
    (3, 3): (-1.0, 0),
}

# Published octonion Fano lines for the Cayley-Dickson doubling:
# e_a e_b = e_c cyclically for each (a, b, c) below.
OCTONION_FANO_LINES = [
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
]


def test_quaternion_table_matches_published():
    for (a, b), (sign, c) in QUATERNION_TABLE.items():
        got = cd_mul(CdReal.unit(2, a), CdReal.unit(2, b))
        np.testing.assert_array_equal(got.coeffs, CdReal.unit(2, c, sign).coeffs)


def test_octonion_fano_lines():
    sgn, idx = mul_table(3)
    got_lines = set()
    for a in range(1, 8):
        for b in range(1, 8):
            if a == b:
                assert idx[a, b] == 0 and sgn[a, b] == -1.0
            else:
                assert sgn[a, b] in (-1.0, 1.0)
                if sgn[a, b] > 0:
                    got_lines.add((a, b, int(idx[a, b])))
    expected = set()
    for a, b, c in OCTONION_FANO_LINES:
        expected.update({(a, b, c), (b, c, a), (c, a, b)})
    assert got_lines == expected


def test_every_basis_product_is_signed_basis_element():
    for r in range(6):
        sgn, idx = mul_table(r)
        assert np.all(np.isin(sgn, (-1.0, 1.0)))
        # XOR grading of the doubling
        xs, ys = np.meshgrid(np.arange(dim_of(r)), np.arange(dim_of(r)), indexing="ij")
        assert np.array_equal(idx, xs ^ ys)


def test_identity_and_level_mismatch():
    one = CdReal.unit(3, 0)
    x = CdReal(3, np.arange(8, dtype=float))
    np.testing.assert_array_equal(cd_mul(one, x).coeffs, x.coeffs)
    np.testing.assert_array_equal(cd_mul(x, one).coeffs, x.coeffs)
    with pytest.raises(LevelMismatch):
        cd_mul(x, CdReal.unit(2, 0))


# ---------------------------------------------------------------- involution, norms

def test_conj_is_involutive_anti_automorphism():
    rng = np.random.default_rng(11)
    for r in range(6):
        for _ in range(20):
            x, y = rand_elem(rng, r), rand_elem(rng, r)
            np.testing.assert_array_equal(cd_conj(cd_conj(x)).coeffs, x.coeffs)
            lhs = cd_conj(cd_mul(x, y))
            rhs = cd_mul(cd_conj(y), cd_conj(x))
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0,
                                       atol=TOL * max(1.0, abs(x) * abs(y)))


def test_abs2_is_scalar_part_of_z_zbar():
    rng = np.random.default_rng(12)
    for r in range(6):
        for _ in range(20):
            z = rand_elem(rng, r)
            prod = cd_mul(z, cd_conj(z))
            assert abs(prod.real - z.abs2()) <= TOL * max(1.0, z.abs2())
            assert np.max(np.abs(prod.pure())) <= TOL * max(1.0, z.abs2())


def test_norm_multiplicative_through_octonions():
    rng = np.random.default_rng(13)
    for r in (0, 1, 2, 3):
        for _ in range(200):
            x, y = rand_elem(rng, r), rand_elem(rng, r)
            err = abs(abs(cd_mul(x, y)) - abs(x) * abs(y))
            assert err <= TOL * max(1.0, abs(x) * abs(y))


def test_sedenions_break_norm_multiplicativity():
    pair = find_zero_divisor()
    assert pair is not None
    x, y = pair
    assert abs(x) > 1 and abs(y) > 1
    assert abs(cd_mul(x, y)) == 0.0


def test_octonions_alternative_and_moufang():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a, b, c = (rand_elem(rng, 3) for _ in range(3))
        aab = cd_mul(cd_mul(a, a), b)
        a_ab = cd_mul(a, cd_mul(a, b))
        np.testing.assert_allclose(aab.coeffs, a_ab.coeffs, rtol=0,
                                   atol=TOL * max(1.0, abs(a) ** 2 * abs(b)))
        abb = cd_mul(cd_mul(a, b), b)
        a_bb = cd_mul(a, cd_mul(b, b))
        np.testing.assert_allclose(abb.coeffs, a_bb.coeffs, rtol=0,
                                   atol=TOL * max(1.0, abs(a) * abs(b) ** 2))
        # Moufang: (ab)(ca) = a((bc)a)
        lhs = cd_mul(cd_mul(a, b), cd_mul(c, a))
        rhs = cd_mul(a, cd_mul(cd_mul(b, c), a))
        scale = max(1.0, abs(a) ** 2 * abs(b) * abs(c))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0,
                                   atol=TOL * scale)


def test_power_associativity_all_levels():
    rng = np.random.default_rng(15)
    for r in range(6):
        for _ in range(20):
            z = rand_elem(rng, r)
            z2 = cd_mul(z, z)
            z3a = cd_mul(z2, z)
            z3b = cd_mul(z, z2)
            z4a = cd_mul(z3a, z)
            z4b = cd_mul(z2, z2)
            scale = max(1.0, abs(z) ** 4)
            np.testing.assert_allclose(z3a.coeffs, z3b.coeffs, rtol=0,
                                       atol=TOL * scale)
            np.testing.assert_allclose(z4a.coeffs, z4b.coeffs, rtol=0,
                                       atol=TOL * scale)


# ---------------------------------------------------------------- complexification

def test_central_unit_commutes():
    rng = np.random.default_rng(16)
    i_unit = CdComplex(CdReal.zero(3), CdReal.unit(3, 0))
    for _ in range(50):
        z = rand_celem(rng, 3)
        left, right = cdc_mul(i_unit, z), cdc_mul(z, i_unit)
        atol = TOL * max(1.0, np.sqrt(z.norm2()))
        np.testing.assert_allclose(left.re.coeffs, right.re.coeffs, rtol=0,
                                   atol=atol)
        np.testing.assert_allclose(left.im.coeffs, right.im.coeffs, rtol=0,
                                   atol=atol)
    # i^2 = -1
    sq = cdc_mul(i_unit, i_unit)
    np.testing.assert_array_equal(sq.re.coeffs, CdReal.unit(3, 0, -1.0).coeffs)
    np.testing.assert_array_equal(sq.im.coeffs, CdReal.zero(3).coeffs)


def test_cdc_norm_convention():
    # ||1||^2 = 2 under the doubled-coefficient convention
    one = CdComplex.from_complex(2, 1.0)
    assert cdc_norm2(one) == pytest.approx(2.0, abs=TOL)
    rng = np.random.default_rng(17)
    z = rand_celem(rng, 2)
    assert cdc_norm2(z) == pytest.approx(
        2 * (z.re.abs2() + z.im.abs2()), rel=1e-14
    )


def test_cdc_inner_real_case_is_sum_of_abs2():
    rng = np.random.default_rng(18)
    xs = [CdComplex(rand_elem(rng, 2), CdReal.zero(2)) for _ in range(4)]
    ip = cdc_inner(xs, xs)
    expected = sum(x.re.abs2() for x in xs)
    assert abs(ip.re.real - expected) <= TOL * max(1.0, expected)
    assert np.max(np.abs(ip.re.pure())) <= TOL * max(1.0, expected)
    assert np.max(np.abs(ip.im.coeffs)) <= TOL * max(1.0, expected)


# ---------------------------------------------------------------- square roots

def test_cd_sqrt_pinned_example():
    s = cd_sqrt(CdReal(1, [0.0, 2.0]))
    np.testing.assert_allclose(s.coeffs, [1.0, 1.0], rtol=0, atol=TOL)


def test_cd_sqrt_round_trip():
    rng = np.random.default_rng(19)
    for r in range(6):
        for _ in range(100):
            a = rand_elem(rng, r)
            if r == 0:
                a = CdReal(0, np.abs(a.coeffs))
            s = cd_sqrt(a)
            np.testing.assert_allclose(cd_mul(s, s).coeffs, a.coeffs, rtol=0,
                                       atol=1e-10 * max(1.0, abs(a)))


def test_cd_sqrt_edge_cases():
    np.testing.assert_array_equal(cd_sqrt(CdReal.zero(2)).coeffs, np.zeros(4))
    np.testing.assert_array_equal(cd_sqrt(CdReal.from_real(2, 4.0)).coeffs,
                                  CdReal.from_real(2, 2.0).coeffs)
    with pytest.raises(NegativeRealNoCanonicalRoot):
        cd_sqrt(CdReal.from_real(2, -1.0))


def test_cdc_sqrt_round_trip():
    rng = np.random.default_rng(20)
    for r in range(6):
        for _ in range(100):
            a = rand_celem(rng, r)
            s = cdc_sqrt(a)
            scale = max(1.0, np.sqrt(a.norm2()))
            sq = cdc_mul(s, s)
            np.testing.assert_allclose(sq.re.coeffs, a.re.coeffs, rtol=0,
                                       atol=1e-9 * scale)
            np.testing.assert_allclose(sq.im.coeffs, a.im.coeffs, rtol=0,
                                       atol=1e-9 * scale)


def test_cdc_sqrt_branch_agrees_with_cd_sqrt():
    rng = np.random.default_rng(21)
    for r in range(6):
        for _ in range(100):
            a0 = rand_elem(rng, r)
            if r == 0:
                a0 = CdReal(0, np.abs(a0.coeffs))
            s_plane = cd_sqrt(a0)
            s_quartic = cdc_sqrt(CdComplex(a0, CdReal.zero(r)))
            np.testing.assert_allclose(s_quartic.re.coeffs, s_plane.coeffs,
                                       rtol=0, atol=1e-10 * max(1.0, abs(a0)))
            assert abs(s_quartic.im) <= 1e-10 * max(1.0, abs(a0))
    # positive reals stay positive
    s = cdc_sqrt(CdComplex.from_complex(2, 9.0))
    np.testing.assert_array_equal(s.re.coeffs, CdReal.from_real(2, 3.0).coeffs)
    assert abs(s.im) <= TOL


def test_cdc_sqrt_negative_real_uses_central_unit():
    s = cdc_sqrt(CdComplex.from_complex(2, -4.0))
    assert abs(s.re) <= TOL
    np.testing.assert_allclose(s.im.coeffs, CdReal.from_real(2, 2.0).coeffs,
                               rtol=0, atol=TOL)


def test_cdc_sqrt_nilpotent_raises():
    # (i_1 + i*i_2)^2 = 0: no root
    a = CdComplex(CdReal.unit(2, 1), CdReal.unit(2, 2))
    sq = cdc_mul(a, a)
    assert np.sqrt(sq.norm2()) <= TOL
    with pytest.raises(NilpotentNoRoot):
        cdc_sqrt(a)


def test_cdc_sqrt_zero_is_zero():
    s = cdc_sqrt(CdComplex.zero(3))
    np.testing.assert_array_equal(s.re.coeffs, np.zeros(8))
    np.testing.assert_array_equal(s.im.coeffs, np.zeros(8))


# ---------------------------------------------------------------- exp

def test_cd_exp_against_series_oracle():
    rng = np.random.default_rng(22)
    for r in range(6):
        for _ in range(10):
            z = rand_elem(rng, r, scale=0.7)
            term = CdReal.unit(r, 0)
            acc = CdReal.unit(r, 0)
            for k in range(1, 80):
                term = CdReal(r, cd_mul(term, z).coeffs * (1.0 / k))
                acc = acc + term
            np.testing.assert_allclose(cd_exp(z).coeffs, acc.coeffs, rtol=0,
                                       atol=1e-12 * max(1.0, np.exp(abs(z))))


def test_cd_exp_pure_imaginary_is_rotation():
    z = CdReal(2, [0.0, np.pi / 2, 0.0, 0.0])
    e = cd_exp(z)
    np.testing.assert_allclose(e.coeffs, [np.cos(np.pi / 2), 1.0, 0.0, 0.0],
                               rtol=0, atol=1e-15)
    assert abs(abs(e) - 1.0) <= 1e-15


def test_mul_coeffs_rows_equal_cd_mul():
    """The batched product is cd_mul row by row, bit for bit, on plain
    and strided rows at every level."""
    rng = np.random.default_rng(29)
    for r in range(6):
        d = dim_of(r)
        x = rng.normal(size=(40, 2, d))
        y = rng.normal(size=(40, 2, d))
        for a, b in ((x[:, 0], y[:, 0]), (x[:, 1], y[:, 0])):
            rows = mul_coeffs(r, a, b)
            assert rows.shape == (40, d)
            for i in range(40):
                one = cd_mul(CdReal(r, a[i]), CdReal(r, b[i])).coeffs
                assert rows[i].tobytes() == one.tobytes()


def test_cdc_mul_coeffs_rows_equal_cdc_mul():
    """The batched complexified product is cdc_mul row by row, bit for
    bit, at every level."""
    rng = np.random.default_rng(30)
    for r in range(6):
        d = dim_of(r)
        x = rng.normal(size=(40, 2, d))
        y = rng.normal(size=(40, 2, d))
        rows = cdc_mul_coeffs(r, x, y)
        assert rows.shape == (40, 2, d)
        for i in range(40):
            one = cdc_mul(CdComplex(CdReal(r, x[i, 0]), CdReal(r, x[i, 1])),
                          CdComplex(CdReal(r, y[i, 0]), CdReal(r, y[i, 1])))
            assert rows[i, 0].tobytes() == one.re.coeffs.tobytes()
            assert rows[i, 1].tobytes() == one.im.coeffs.tobytes()


def test_left_mult_transpose_is_conjugate():
    # Foundation of the adjoint identity at every level.
    rng = np.random.default_rng(23)
    for r in range(6):
        a = rand_elem(rng, r)
        # real matrix of x -> a*x on coefficient vectors
        left = np.einsum("kxy,x->ky", mul_tensor(r), a.coeffs)
        left_conj = np.einsum("kxy,x->ky", mul_tensor(r), cd_conj(a).coeffs)
        assert np.allclose(left.T, left_conj, atol=1e-13)
