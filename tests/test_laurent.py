"""Tests for Laurent polynomials on the quarter-exponent lattice and matrices."""

import random
from fractions import Fraction as Q

import pytest

from rgdcheck import (
    DimensionMismatch,
    FieldScalar,
    LaurentMatrix,
    LaurentPoly,
    NotInvertibleOverRing,
    sqrt_of,
)
from rgdcheck.laurent import EXP_SCALE


def rand_poly(rng, disc=None, span=2):
    coeffs = {}
    for _ in range(rng.randint(0, 3)):
        e4 = EXP_SCALE * rng.randint(-span, span)
        if disc is None:
            coeffs[e4] = FieldScalar(Q(rng.randint(-6, 6), rng.randint(1, 3)))
        else:
            coeffs[e4] = FieldScalar(rng.randint(-6, 6), rng.randint(-6, 6), disc)
    return LaurentPoly(coeffs)


def test_constructors_and_predicates():
    t = LaurentPoly.t_power(1)
    assert t.is_monomial()
    assert t.monomial_parts() == (EXP_SCALE, FieldScalar(1))
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one().is_one()
    assert LaurentPoly.const(5).is_constant()
    half = LaurentPoly.t_power(Q(1, 2))
    assert not half.on_integer_lattice()
    assert t.on_integer_lattice()
    assert t.in_poly_ring() and not t.in_inv_poly_ring()
    tinv = LaurentPoly.t_power(-1)
    assert tinv.in_inv_poly_ring() and not tinv.in_poly_ring()


def test_term_rejects_exponents_off_the_quarter_lattice():
    with pytest.raises(ValueError):
        LaurentPoly.term(1, Q(1, 3))
    # quarter exponents are the finest stored resolution
    q = LaurentPoly.term(1, Q(1, 4))
    assert q.coeff(1) == FieldScalar(1)


def test_ring_axioms_hold_on_random_samples():
    rng = random.Random(23)
    for _ in range(60):
        a = rand_poly(rng, disc=-1)
        b = rand_poly(rng, disc=-1)
        c = rand_poly(rng, disc=-1)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == LaurentPoly.zero()
        assert a * LaurentPoly.one() == a


def test_conj_fixes_t_and_conjugates_coefficients():
    p = LaurentPoly({0: FieldScalar(1, 2, -1), EXP_SCALE: FieldScalar(0, 1, -1)})
    pc = p.conj()
    assert pc.coeff(0) == FieldScalar(1, -2, -1)
    assert pc.coeff(EXP_SCALE) == FieldScalar(0, -1, -1)
    assert pc.conj() == p


def test_monomial_inverse_and_powers():
    m = LaurentPoly.term(FieldScalar(2, 1, -1), -1)
    assert m * m.monomial_inverse() == LaurentPoly.one()
    assert m.monomial_pow(3) == m * m * m
    assert m.monomial_pow(-2) == m.monomial_inverse() * m.monomial_inverse()
    with pytest.raises(NotInvertibleOverRing):
        (LaurentPoly.one() + LaurentPoly.t_power(1)).monomial_parts()
    with pytest.raises(NotInvertibleOverRing):
        LaurentPoly.zero().monomial_inverse()


def test_string_format():
    p = LaurentPoly.term(1, -1) + LaurentPoly.const(2)
    assert str(p) == "1*t^-1 + 2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.term(FieldScalar(0, 1, -1), Q(1, 2))) == "(0+1*sqrt(-1))*t^1/2"


def test_matrix_product_against_hand_example():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    a = LaurentMatrix([[one, t], [zero, one]])
    b = LaurentMatrix([[one, zero], [t, one]])
    prod = a @ b
    # [[1, t], [0, 1]] @ [[1, 0], [t, 1]] = [[1 + t^2, t], [t, 1]]
    assert prod.entry(0, 0) == one + LaurentPoly.t_power(2)
    assert prod.entry(0, 1) == t
    assert prod.entry(1, 0) == t
    assert prod.entry(1, 1) == one


def test_from_entries_sets_each_given_entry():
    t = LaurentPoly.t_power(1)
    three_fifths = LaurentPoly.const(Q(3, 5))
    g = LaurentMatrix.from_entries(3, {(0, 0): three_fifths, (1, 2): t})
    assert g.entry(0, 0) == three_fifths
    assert g.entry(1, 2) == t
    assert g.entry(1, 1).is_one() and g.entry(2, 2).is_one()
    assert g.entry(2, 1).is_zero()
    # a zero diagonal entry is set, not added to the identity's 1
    assert LaurentMatrix.from_entries(2, {(1, 1): LaurentPoly.zero()}).entry(1, 1).is_zero()
    with pytest.raises(DimensionMismatch):
        LaurentMatrix.from_entries(2, {(2, 0): t})


def test_matrix_shape_errors():
    a = LaurentMatrix.identity(2)
    b = LaurentMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(DimensionMismatch):
        LaurentMatrix([[LaurentPoly.one()], [LaurentPoly.one()]])


def test_determinant_hand_example():
    # det [[t, 1, 0], [2, t^-1, 1], [1, 3, t]] along the first row:
    # t * (t^-1 t - 3) - 1 * (2t - 1) + 0 = -2t - 2t + 1 = 1 - 4t
    t = LaurentPoly.t_power(1)
    tinv = LaurentPoly.t_power(-1)
    one = LaurentPoly.one()
    m = LaurentMatrix(
        [
            [t, one, LaurentPoly.zero()],
            [LaurentPoly.const(2), tinv, one],
            [one, LaurentPoly.const(3), t],
        ]
    )
    assert m.det() == one - LaurentPoly.term(4, 1)


def test_determinant_is_multiplicative():
    rng = random.Random(31)
    for _ in range(25):
        rows_a = [[rand_poly(rng, -1, span=1) for _ in range(3)] for _ in range(3)]
        rows_b = [[rand_poly(rng, -1, span=1) for _ in range(3)] for _ in range(3)]
        a = LaurentMatrix(rows_a)
        b = LaurentMatrix(rows_b)
        assert (a @ b).det() == a.det() * b.det()
    assert LaurentMatrix.identity(4).det() == LaurentPoly.one()


def test_inverse_round_trips_on_diagonal_matrices():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    i = LaurentPoly.const(sqrt_of(-1))
    ident = LaurentMatrix.identity(3)
    d = LaurentMatrix.diagonal([t, one, t.monomial_inverse()])
    assert d @ d.inverse() == ident
    assert d.inverse() @ d == ident
    # unit monomials with quarter exponents and quadratic coefficients
    quarter = LaurentPoly.term(FieldScalar(1, 2, -1), Q(1, 4))
    h = LaurentMatrix.diagonal([quarter, -i, LaurentPoly.const(Q(-2, 3))])
    assert h @ h.inverse() == ident
    assert h.inverse().inverse() == h
    assert LaurentMatrix.identity(4).inverse() == LaurentMatrix.identity(4)


def test_inverse_rejects_non_unit_determinant():
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    zero = LaurentPoly.zero()
    m = LaurentMatrix([[one + t, zero], [zero, one]])
    with pytest.raises(NotInvertibleOverRing):
        m.inverse()
    with pytest.raises(NotInvertibleOverRing):
        LaurentMatrix.diagonal([one, zero]).inverse()


def test_inverse_rejects_non_diagonal_input():
    """Only diagonal matrices are inverted; everything else rgdcheck inverts is
    inverted from its factors, so even an invertible non-diagonal matrix raises."""
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    zero = LaurentPoly.zero()
    unipotent = LaurentMatrix([[one, t, t * t], [zero, one, t], [zero, zero, one]])
    permutation = LaurentMatrix(
        [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    )
    antidiagonal = LaurentMatrix([[zero, t], [-t.monomial_inverse(), zero]])
    for g in (unipotent, permutation, antidiagonal):
        with pytest.raises(NotInvertibleOverRing):
            g.inverse()


def test_constant_part_and_transposes():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    i = LaurentPoly.const(sqrt_of(-1))
    m = LaurentMatrix([[one + t, i], [LaurentPoly.zero(), one]])
    cp = m.constant_part()
    assert cp.entry(0, 0) == one
    assert cp.entry(0, 1) == i
    assert m.transpose().entry(1, 0) == i
    ct = m.conj_transpose()
    assert ct.entry(1, 0) == LaurentPoly.const(FieldScalar(0, -1, -1))
    assert ct.entry(0, 0) == one + t


def test_matrix_equality_and_hash():
    a = LaurentMatrix.identity(2)
    b = LaurentMatrix.diagonal([LaurentPoly.one(), LaurentPoly.one()])
    assert a == b
    assert hash(a) == hash(b)
    assert a.is_identity()


# -- sympy as an independent oracle over Q(sqrt(d))[t^(+-1/4)] ---------------


def _rand_quarter_matrix(rng, n, disc):
    """Sparse n x n matrix: entries with quarter exponents in [-6/4, 6/4]
    and small coefficients, so products cancel now and then."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                ext = 0 if disc is None else rng.randint(-2, 2)
                coeffs[rng.randint(-6, 6)] = FieldScalar(
                    Q(rng.randint(-3, 3), rng.randint(1, 3)), ext, disc
                )
            row.append(LaurentPoly(coeffs))
        rows.append(row)
    return LaurentMatrix(rows)


def _to_sympy(sympy, p, s):
    """p as a sympy expression in s = t^(1/4)."""
    out = sympy.Integer(0)
    for e4, c in p.coeffs.items():
        coeff = sympy.Rational(c.base.numerator, c.base.denominator)
        if c.disc is not None:
            coeff += sympy.Rational(c.ext.numerator, c.ext.denominator) * sympy.sqrt(c.disc)
        out += coeff * s**e4
    return out


def _sympy_matrix(sympy, m, s):
    return sympy.Matrix(
        [[_to_sympy(sympy, m.entry(i, j), s) for j in range(m.n)] for i in range(m.n)]
    )


def _stores_no_zeros(m):
    return all(not c.is_zero() for row in m.rows for p in row for c in p.coeffs.values())


@pytest.mark.parametrize("disc", [None, -1, -2, -3, -7])
def test_products_and_determinants_match_sympy(disc):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(1000 + (disc or 0))
    for n in (2, 3, 3, 4):
        a = _rand_quarter_matrix(rng, n, disc)
        b = _rand_quarter_matrix(rng, n, disc)
        sa, sb = _sympy_matrix(sympy, a, s), _sympy_matrix(sympy, b, s)
        prod = a @ b
        assert _stores_no_zeros(prod)
        diff = (_sympy_matrix(sympy, prod, s) - sa * sb).applyfunc(sympy.expand)
        assert diff == sympy.zeros(n, n), (n, disc)
        det = a.det()
        assert all(not c.is_zero() for c in det.coeffs.values())
        oracle = sa.det(method="berkowitz")
        assert sympy.expand(_to_sympy(sympy, det, s) - oracle) == 0, (n, disc)
