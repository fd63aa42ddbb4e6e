"""Tests for Laurent polynomials on the quarter-exponent lattice and matrices."""

import random
from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgdcheck import (
    DimensionMismatch,
    FieldScalar,
    LaurentMatrix,
    LaurentPoly,
    NotInvertibleOverRing,
    NotMonomial,
    RootGroupCoords,
    affine_root,
    basis_generators,
    coords_neg,
    is_prenilpotent,
    open_interval,
    simple_affine_roots,
    special_unitary,
    split_sl,
    sqrt_of,
)
from rgdcheck import laurent
from rgdcheck.laurent import EXP_SCALE, conjugator, exp4, form_check
from rgdcheck.verify import sample_coords


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
    assert not t.in_inv_poly_ring()
    assert LaurentPoly.t_power(-1).in_inv_poly_ring()


def test_is_rational_asks_every_coefficient():
    assert LaurentPoly.zero().is_rational and LaurentPoly.const(Q(-3, 2)).is_rational
    p = LaurentPoly.term(Q(1, 2), -1) + LaurentPoly.const(7)
    assert p.is_rational
    # one coefficient outside Q is enough, at any exponent
    assert not (p + LaurentPoly.term(FieldScalar(0, 1, -1), 2)).is_rational
    assert not LaurentPoly.const(FieldScalar(1, 1, -1)).is_rational
    # a rational coefficient stored with a field is still rational
    assert LaurentPoly.term(FieldScalar(2, 0, -1), Q(1, 2)).is_rational


def test_term_rejects_exponents_off_the_quarter_lattice():
    with pytest.raises(ValueError):
        LaurentPoly.term(1, Q(1, 3))
    # quarter exponents are the finest stored resolution
    q = LaurentPoly.term(1, Q(1, 4))
    assert q.coeff(1) == FieldScalar(1)


def test_exp4_takes_int_and_fraction_exponents():
    assert exp4(0) == 0
    assert exp4(-1) == -4 and exp4(2) == 8
    assert exp4(Q(-3)) == -12
    assert exp4(Q(-1, 2)) == -2 and exp4(Q(3, 4)) == 3
    # an int takes the short path, and gives the key of its Fraction
    for q in (-7, -2, -1, 0, 1, 3, 10):
        assert type(exp4(q)) is int and exp4(q) == exp4(Q(q)) == EXP_SCALE * q
    for off in (Q(-1, 3), Q(-1, 8), Q(5, 6)):
        with pytest.raises(ValueError):
            exp4(off)


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


def test_monomial_inverse_and_powers():
    m = LaurentPoly.term(FieldScalar(2, 1, -1), -1)
    assert m * m.monomial_pow(-1) == LaurentPoly.one()
    assert m.monomial_pow(3) == m * m * m
    assert m.monomial_pow(-2) == m.monomial_pow(-1) * m.monomial_pow(-1)
    with pytest.raises(NotInvertibleOverRing):
        (LaurentPoly.one() + LaurentPoly.t_power(1)).monomial_parts()
    with pytest.raises(NotInvertibleOverRing):
        LaurentPoly.zero().monomial_pow(-1)


def test_string_format():
    p = LaurentPoly.term(1, -1) + LaurentPoly.const(2)
    assert str(p) == "1*t^-1 + 2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.term(FieldScalar(0, 1, -1), Q(1, 2))) == "(0+1*sqrt(-1))*t^1/2"


def test_polynomials_compare_with_numbers_as_constants():
    three, half = LaurentPoly.const(3), LaurentPoly.const(Q(1, 2))
    i = LaurentPoly.const(sqrt_of(-1))
    t, zero = LaurentPoly.t_power(1), LaurentPoly.zero()
    for x in (3, Q(3), FieldScalar(3)):
        assert three == x and x == three and not three != x
        assert t != x and half != x
    assert half == Q(1, 2) and half == FieldScalar(Q(1, 2)) and half != 0
    assert zero == 0 and zero == Q(0) and zero == FieldScalar(0) and three != 0
    assert i == sqrt_of(-1) and sqrt_of(-1) == i and i != 1 and i != FieldScalar(0, 1, -2)
    assert t != FieldScalar(1) and LaurentPoly.t_power(0) == 1
    assert three.__eq__("3") is NotImplemented and three != "3" and three != None  # noqa: E711


# small numerators and denominators so that values meet, and a few large ones
_numerators = st.one_of(st.integers(-3, 3), st.sampled_from([2**61, -(2**62) - 1]))
_denominators = st.sampled_from([1, 1, 2, 3, 2**61 - 1, 3 * (2**61 - 1)])


@st.composite
def numbers(draw):
    """An int, a Fraction, a FieldScalar (rational or in Q(i)) or a
    LaurentPoly (zero, a constant or not) of a few small values."""
    kind = draw(st.sampled_from(["int", "fraction", "scalar", "poly"]))
    r = Q(draw(_numerators), draw(_denominators))
    if kind == "int":
        return r.numerator
    if kind == "fraction":
        return r
    ext = draw(st.sampled_from([0, 0, 1]))
    s = FieldScalar(r, ext, -1 if ext else None)
    if kind == "scalar":
        return s
    return LaurentPoly({e4: s for e4 in draw(st.sampled_from([(), (0,), (0,), (4,), (0, 4)]))})


@settings(max_examples=400, derandomize=True, deadline=None)
@given(numbers(), numbers())
def test_scalars_polynomials_and_matrices_are_unhashable(a, b):
    """Equality is symmetric across number types, and FieldScalar, LaurentPoly
    and LaurentMatrix, which define equality and no hash, are unhashable."""
    assert (a == b) == (b == a)
    for x in (a, b, LaurentMatrix.identity(2)):
        if isinstance(x, (FieldScalar, LaurentPoly, LaurentMatrix)):
            with pytest.raises(TypeError):
                hash(x)


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
    d = LaurentMatrix.diagonal([t, one, t.monomial_pow(-1)])
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
    antidiagonal = LaurentMatrix([[zero, t], [-t.monomial_pow(-1), zero]])
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
    ct = _conj_transpose(m)
    assert ct.entry(1, 0) == LaurentPoly.const(FieldScalar(0, -1, -1))
    assert ct.entry(0, 0) == one + t


def test_matrix_equality_and_hash():
    a = LaurentMatrix.identity(2)
    b = LaurentMatrix.diagonal([LaurentPoly.one(), LaurentPoly.one()])
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
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


def _conj(p):
    """p with the field involution applied to every coefficient; t is fixed."""
    return LaurentPoly({e: c.conj() for e, c in p.coeffs.items()})


def _conj_transpose(m):
    """The transpose with the field involution applied to every entry: g*."""
    return LaurentMatrix([[_conj(m.entry(j, i)) for j in range(m.n)] for i in range(m.n)])


def _stores_no_zeros(m):
    """No zero polynomial among the stored entries, no zero coefficient in
    any of them, and every stored column inside the matrix."""
    return len(m.sparse) == m.n and all(
        0 <= j < m.n and p.coeffs and all(not c.is_zero() for c in p.coeffs.values())
        for row in m.sparse
        for j, p in row.items()
    )


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


# -- the sparse store against dense references kept in this file ---------------

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()
DISCS = [None, -1, -2, -3, -7]


def _poly_mul(p, q):
    """Schoolbook product of two polynomials, coefficient by coefficient."""
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, FieldScalar(0)) + c1 * c2
    return LaurentPoly(out)


def _dense_product(a, b):
    """Dense schoolbook matrix product over the dense grids."""
    ra, rb, n = a.rows, b.rows, a.n
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + _poly_mul(ra[i][k], rb[k][j])
    return out


def _leibniz_det(m):
    """Sum over permutations of sign times the product of the picked entries."""
    rows, out = m.rows, ZERO
    for perm in permutations(range(m.n)):
        inversions = sum(perm[x] > perm[y] for x in range(m.n) for y in range(x + 1, m.n))
        term = ONE
        for i, j in enumerate(perm):
            term = _poly_mul(term, rows[i][j])
        out = out - term if inversions % 2 else out + term
    return out


@st.composite
def polys(draw, disc, zero_share=0.4):
    """A polynomial on the quarter lattice; zero with about the given share."""
    if draw(st.floats(0, 1)) < zero_share:
        return ZERO
    coeffs = {}
    for e4 in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3)):
        base = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        ext = 0 if disc is None else draw(st.integers(-2, 2))
        coeffs[e4] = FieldScalar(base, ext, disc)
    return LaurentPoly(coeffs)


KINDS = ["sparse", "unipotent", "unit-plus", "diagonal", "monomial", "one per row"]


@st.composite
def matrices(draw, n=None, disc=None, kinds=KINDS):
    """(kind, dense rows, matrix): a sparse random matrix given as dense rows
    with explicit zero entries, a unipotent one from from_entries, one from
    the identity builder `_unit_plus` (cells written in turn, a zero clearing
    its cell), a diagonal one, a monomial one (one nonzero polynomial, the
    shared ONE or any other, in each row and each column), or one with one
    nonzero polynomial in each row where two rows share a column (n >= 2)."""
    n = n if n is not None else draw(st.integers(1, 4))
    kind = draw(st.sampled_from([k for k in kinds if n > 1 or k != "one per row"]))
    if kind in ("monomial", "one per row"):
        cols = draw(st.permutations(range(n)))
        if kind == "one per row":
            i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            cols[i] = cols[k]
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in enumerate(cols):
            rows[i][j] = laurent.ONE if draw(st.booleans()) else draw(polys(disc, zero_share=0))
        return kind, rows, LaurentMatrix(rows)
    if kind == "diagonal":
        diag = [draw(polys(disc, zero_share=0.15)) for _ in range(n)]
        rows = [[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        return kind, rows, LaurentMatrix.diagonal(diag)
    if kind == "unipotent":
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        entries = {}
        for i, j in draw(st.lists(cells, max_size=2 * n)):
            # diagonal cells keep the unit (explicitly set) or get an entry
            entries[(i, j)] = ONE if i == j and draw(st.booleans()) else draw(polys(disc))
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for (i, j), p in entries.items():
            rows[i][j] = p
        return kind, rows, LaurentMatrix.from_entries(n, entries)
    if kind == "unit-plus":
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        entries = [(cell, draw(polys(disc))) for cell in draw(st.lists(cells, max_size=2 * n))]
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for (i, j), p in entries:
            rows[i][j] = p
        return kind, rows, laurent._unit_plus(n, entries)
    rows = [[draw(polys(disc, zero_share=0.6)) for _ in range(n)] for _ in range(n)]
    return kind, rows, LaurentMatrix(rows)


@st.composite
def matrix_pairs(draw):
    disc = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 4))
    return draw(matrices(n, disc)), draw(matrices(n, disc))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(matrix_pairs())
def test_sparse_product_and_det_match_dense_references(pair):
    (_, _, a), (_, _, b) = pair
    prod = a @ b
    assert _stores_no_zeros(prod)
    assert prod == LaurentMatrix(_dense_product(a, b))
    assert prod.rows == tuple(map(tuple, _dense_product(a, b)))
    assert _passes_factors_through(a, b, prod)
    for m in (a, b, prod):
        det = m.det()
        assert all(not c.is_zero() for c in det.coeffs.values())
        assert det == _leibniz_det(m)
    assert _unit_rows_intact()


def _unit_rows_intact():
    """Every shared unit row still holds the shared ONE alone, on the
    diagonal."""
    return all(
        len(row) == 1 and row.get(i) is laurent.ONE
        for units in laurent._UNIT_ROWS.values()
        for i, row in enumerate(units)
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(DISCS).flatmap(lambda d: matrices(disc=d)))
def test_sparse_store_invariants(drawn):
    kind, rows, m = drawn
    # the builders agree with the dense constructor, zeros and all
    dense = LaurentMatrix(rows)
    assert _stores_no_zeros(m) and _stores_no_zeros(dense)
    assert m == dense
    assert m.sparse == dense.sparse
    # rows round-trips through the constructor
    assert m.rows == tuple(map(tuple, rows))
    assert LaurentMatrix(m.rows) == m
    # is_identity holds exactly when the matrix equals the identity
    ident = LaurentMatrix.identity(m.n)
    assert m.is_identity() == (m == ident)
    assert m.is_identity() == all(
        rows[i][j] == (ONE if i == j else ZERO) for i in range(m.n) for j in range(m.n)
    )
    # transposes and constant parts keep the store free of zeros
    for derived in (m.transpose(), _conj_transpose(m), m.constant_part()):
        assert _stores_no_zeros(derived)
    assert m.transpose().rows == tuple(zip(*m.rows))


def test_identity_however_built():
    for n in (2, 3, 5):
        ident = LaurentMatrix.identity(n)
        built = [
            LaurentMatrix.from_entries(n, {(i, i): LaurentPoly.const(1) for i in range(n)}),
            LaurentMatrix.from_entries(n, {(0, n - 1): ZERO}),
            LaurentMatrix.diagonal([LaurentPoly.const(Q(2, 2))] * n),
            LaurentMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)]),
        ]
        for m in built:
            assert m.is_identity() and m == ident
    t = LaurentPoly.t_power(1)
    # entries that cancel completely leave nothing stored
    u = LaurentMatrix.from_entries(3, {(0, 1): t, (0, 2): t * t, (1, 2): t})
    u_inv = LaurentMatrix.from_entries(3, {(0, 1): -t, (1, 2): -t})
    for prod in (u @ u_inv, u_inv @ u):
        assert _stores_no_zeros(prod) and prod.is_identity()
    assert not LaurentMatrix.diagonal([ONE, t]).is_identity()
    assert not LaurentMatrix.diagonal([ONE, ZERO]).is_identity()
    assert not LaurentMatrix.from_entries(2, {(0, 1): t}).is_identity()



# -- the unit pass-through, triangular determinants and rational conj -----------

SHARED_ONE = laurent.ONE  # the object products pass through, not only its value
PIN_MODELS = [split_sl(n) for n in (1, 2)]
PIN_MODELS += [special_unitary(dim, witt) for dim, witt in ((3, 1), (4, 1), (5, 2))]


@st.composite
def unit_matrices(draw, n, disc):
    """A matrix holding the shared ONE on its diagonal with entries on both
    sides of it; an upper or lower triangular one whose diagonal mixes the
    shared ONE, other units, non-units and zeros; or one whose rows hold the
    shared ONE off the diagonal next to other entries, as the rows of a Weyl
    representative do."""
    kind = draw(st.sampled_from(["shared-unit", "upper", "lower", "weyl"]))
    diagonal = st.one_of(st.just(SHARED_ONE), polys(disc, zero_share=0.2))
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                rows[i][j] = SHARED_ONE if kind == "shared-unit" else draw(diagonal)
            elif kind in ("shared-unit", "weyl") or (kind == "upper") == (j > i):
                rows[i][j] = draw(polys(disc, zero_share=0.6))
        if kind == "weyl" and n > 1:
            k = draw(st.integers(0, n - 2))
            rows[i][k + (k >= i)] = SHARED_ONE
    return LaurentMatrix(rows)


@st.composite
def pinnings(draw, model):
    """The pinning of a drawn affine root and rational coordinates."""
    a = draw(st.sampled_from(model.system.roots))
    nc, nd = model.coord_lengths(a)
    qs = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    c = tuple(draw(qs) for _ in range(nc))
    d = tuple(draw(qs) for _ in range(nd))
    alpha = affine_root(a, draw(st.integers(-1, 1)))
    return model.relative_pinning(RootGroupCoords(alpha, c, d))


@st.composite
def unit_pairs(draw):
    """Two same-size matrices: pinnings of one model (with conjugate
    transposes and the Gram matrix), or a shared-unit or triangular matrix
    next to any drawn matrix."""
    if draw(st.booleans()):
        model = draw(st.sampled_from(PIN_MODELS))
        g, h = draw(pinnings(model)), draw(pinnings(model))
        others = [h, _conj_transpose(g)] + ([] if model.gram is None else [model.gram])
        return g, draw(st.sampled_from(others))
    disc = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 4))
    other = st.one_of(unit_matrices(n, disc), matrices(n, disc).map(lambda d: d[2]))
    return draw(unit_matrices(n, disc)), draw(other)


def _snapshot(m):
    """Each stored entry by identity, with a copy of its coefficient map."""
    return [{j: (p, dict(p.coeffs)) for j, p in row.items()} for row in m.sparse]


def _unchanged(m, snap):
    return len(m.sparse) == len(snap) and all(
        row.keys() == s.keys()
        and all(row[j] is s[j][0] and row[j].coeffs == s[j][1] for j in row)
        for row, s in zip(m.sparse, snap)
    )


def _once_through_one(a, b):
    """(i, j, p) for each cell of a @ b that exactly one term a[i][k] b[k][j]
    reaches, when one factor of that term is the shared ONE and p is the
    other factor: the product must store p itself there."""
    reach: dict[tuple[int, int], list] = {}
    for i, row in enumerate(a.sparse):
        for k, x in row.items():
            for j, y in b.sparse[k].items():
                reach.setdefault((i, j), []).append((x, y))
    for (i, j), terms in reach.items():
        if len(terms) == 1:
            ((x, y),) = terms
            if x is SHARED_ONE or y is SHARED_ONE:
                yield i, j, y if x is SHARED_ONE else x


def _passes_factors_through(a, b, prod):
    return all(prod.sparse[i].get(j) is p for i, j, p in _once_through_one(a, b))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(unit_pairs())
def test_unit_pass_through_matches_dense_references(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        prod = x @ y
        assert _stores_no_zeros(prod)
        assert prod.rows == tuple(map(tuple, _dense_product(x, y)))
        assert _passes_factors_through(x, y, prod)
    for m in (a, b, a @ b):
        det = m.det()
        assert all(not c.is_zero() for c in det.coeffs.values())
        assert det == _leibniz_det(m)
    # the same products and determinants when no row is a shared unit row:
    # unshared copies of every row, then also of every ONE in them
    for copy in (_unshared_rows, _unshared_ones):
        x, y = copy(a), copy(b)
        assert not any(r is u for m in (x, y) for r, u in zip(m.sparse, laurent._UNIT_ROWS[m.n]))
        assert x @ y == a @ b and y @ x == b @ a
        assert x.det() == a.det() and y.det() == b.det() and (x @ y).det() == (a @ b).det()


def _unshared_rows(m):
    """m with every row a fresh dict holding the same entries."""
    return LaurentMatrix(m.rows)


def _unshared_ones(m):
    """m with fresh rows and a fresh polynomial in place of every shared ONE."""
    return LaurentMatrix([[LaurentPoly.one() if p is SHARED_ONE else p for p in r] for r in m.rows])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(unit_pairs())
def test_products_determinants_and_conj_leave_operands_alone(pair):
    a, b = pair
    snaps = [_snapshot(a), _snapshot(b)]
    a @ b, b @ a, a.det(), b.det(), _conj_transpose(a), _conj_transpose(b)
    assert _unchanged(a, snaps[0]) and _unchanged(b, snaps[1])


@st.composite
def unit_row_pairs(draw):
    """(g, h): g with some rows the shared ONE alone, at a drawn column on
    the diagonal or off it, and the other rows drawn; h any matrix of g's
    size, from the builders or not."""
    disc = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            rows.append([SHARED_ONE if j == k else ZERO for j in range(n)])
        else:
            rows.append([draw(polys(disc, zero_share=0.6)) for _ in range(n)])
    h = draw(st.one_of(matrices(n, disc).map(lambda d: d[2]), unit_matrices(n, disc)))
    return LaurentMatrix(rows), h


@settings(max_examples=200, derandomize=True, deadline=None)
@given(unit_row_pairs())
def test_a_unit_row_passes_the_right_row_through(pair):
    g, h = pair
    snap = _snapshot(h)
    prod = g @ h
    assert prod.rows == tuple(map(tuple, _dense_product(g, h)))
    for i, row in enumerate(g.sparse):
        if len(row) == 1 and next(iter(row.values())) is SHARED_ONE:
            (k,) = row
            assert prod.sparse[i] is h.sparse[k]
    assert prod.det() == _leibniz_det(prod) and g.det() == _leibniz_det(g)
    assert _unchanged(h, snap) and _unit_rows_intact()


def test_the_identity_builder_copies_only_the_rows_it_writes():
    t = LaurentPoly.t_power(1)
    units = LaurentMatrix.identity(4).sparse
    assert all(r is u for r, u in zip(units, laurent._UNIT_ROWS[4]))
    m = laurent._unit_plus(4, [((0, 2), t), ((3, 3), ZERO), ((0, 1), t * t)])
    assert m.sparse[1] is units[1] and m.sparse[2] is units[2]
    assert m.sparse[0] == {0: SHARED_ONE, 1: t * t, 2: t} and m.sparse[0] is not units[0]
    assert m.sparse[3] == {}
    built = LaurentMatrix.from_entries(4, {(2, 0): t})
    assert built.sparse[0] is units[0] and built.sparse[2] == {2: SHARED_ONE, 0: t}
    # a pinning writes only the rows of its entries, and a product passes
    # the rows that no factor writes through as the shared rows themselves
    sl4 = split_sl(3)
    x01 = sl4.relative_pinning(RootGroupCoords(affine_root((1, -1, 0, 0), 0), (Q(2),)))
    x23 = sl4.relative_pinning(RootGroupCoords(affine_root((0, 0, 1, -1), 1), (Q(3),)))
    assert [r is u for r, u in zip(x01.sparse, units)] == [False, True, True, True]
    prod = x01 @ x23
    assert [r is u for r, u in zip(prod.sparse, units)] == [False, True, False, True]
    assert prod.sparse[2] is x23.sparse[2]
    assert _unit_rows_intact()


def test_reused_cell_accumulates_in_a_copy():
    """Output cell (0, 0) first reuses b's entry t^2 (a's unit times it), then
    a's t times b's -t reaches the same cell and cancels it."""
    t = LaurentPoly.t_power(1)
    a = LaurentMatrix([[SHARED_ONE, t], [ZERO, SHARED_ONE]])
    b = LaurentMatrix([[t * t, t], [-t, SHARED_ONE]])
    snaps = [_snapshot(a), _snapshot(b)]
    prod = a @ b
    assert prod.rows == tuple(map(tuple, _dense_product(a, b)))
    assert 0 not in prod.sparse[0] and _stores_no_zeros(prod)
    assert _unchanged(a, snaps[0]) and _unchanged(b, snaps[1])
    assert b.entry(0, 0) == t * t


def test_pinning_products_pass_units_and_entries_through():
    sl3 = PIN_MODELS[1]
    x01 = sl3.relative_pinning(RootGroupCoords(affine_root((1, -1, 0), 1), (Q(2),)))
    x12 = sl3.relative_pinning(RootGroupCoords(affine_root((0, 1, -1), 0), (Q(3),)))
    prod = x01 @ x12
    # row 2 is the identity's in both factors, and so is (0, 0)
    assert prod.sparse[2][2] is SHARED_ONE and prod.sparse[0][0] is SHARED_ONE
    # the (0, 1) entry meets only the unit of x12 and is reused as is
    assert prod.sparse[0][1] is x01.sparse[0][1]
    assert prod.entry(0, 2) == x01.entry(0, 1) * x12.entry(1, 2)
    # pinnings are triangular with a unit diagonal: det is the shared unit
    assert x01.det() is SHARED_ONE and prod.det() is SHARED_ONE


def test_triangular_det_is_the_diagonal_product():
    t = LaurentPoly.t_power(1)
    two = LaurentPoly.const(2)
    upper = LaurentMatrix([[two, t, ONE], [ZERO, t, t], [ZERO, ZERO, SHARED_ONE]])
    assert upper.det() == LaurentPoly.term(2, 1) == _leibniz_det(upper)
    lower = upper.transpose()
    assert lower.det() == _leibniz_det(lower)
    # a missing diagonal entry makes a triangular determinant zero
    singular = LaurentMatrix([[t, ONE], [ZERO, ZERO]])
    assert singular.det().is_zero() and singular.transpose().det().is_zero()


# -- the row rule of `@` and the unit-diagonal determinant -----------------------


@st.composite
def cancelling_pairs(draw):
    """(a, b, i, j): a product whose cell (i, j) two or more terms reach and
    cancel.  Either row i of a holds the shared ONE on its diagonal, so that
    the row starts from b's row i, and b[i][j] is set to cancel the row's
    other terms; or row i holds the shared ONE off its diagonal, at column k,
    next to other entries, as a Weyl representative's rows do, and b[k][j]
    is set to cancel the rest.  A term that meets the cell is forced."""
    disc = draw(st.sampled_from(DISCS))
    n = draw(st.integers(2, 4))
    nonzero = polys(disc, zero_share=0)
    diagonal = st.one_of(st.just(SHARED_ONE), nonzero)
    a = [[draw(polys(disc, zero_share=0.6)) for _ in range(n)] for _ in range(n)]
    b = [[draw(polys(disc, zero_share=0.6)) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        a[r][r], b[r][r] = SHARED_ONE, draw(diagonal)
    i = draw(st.integers(0, n - 1))
    k = i  # the column of row i's shared ONE
    if draw(st.booleans()):
        k = draw(st.sampled_from([c for c in range(n) if c != i]))
        a[i][i], a[i][k] = draw(st.one_of(st.just(ZERO), nonzero)), SHARED_ONE
    j = draw(st.sampled_from([c for c in range(n) if c != k]))
    m = draw(st.sampled_from([c for c in range(n) if c != k]))
    a[i][m] = draw(nonzero)
    if b[m][j] is ZERO:
        b[m][j] = draw(nonzero)
    rest = ZERO
    for c in range(n):
        if c != k:
            rest = rest + _poly_mul(a[i][c], b[c][j])
    b[k][j] = -rest
    return LaurentMatrix(a), LaurentMatrix(b), i, j


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cancelling_pairs())
def test_a_cell_that_cancels_is_dropped(drawn):
    a, b, i, j = drawn
    snaps = [_snapshot(a), _snapshot(b)]
    prod = a @ b
    assert prod.rows == tuple(map(tuple, _dense_product(a, b)))
    assert j not in prod.sparse[i] and _stores_no_zeros(prod)
    assert _passes_factors_through(a, b, prod)
    assert _unchanged(a, snaps[0]) and _unchanged(b, snaps[1]) and _unit_rows_intact()


def test_a_cell_reached_once_through_one_is_the_entry_itself():
    t = LaurentPoly.t_power(1)
    x, y = LaurentPoly.term(2, 1), LaurentPoly.term(-3, -1)
    # row 0 starts from b's row 0 and adds x b[1]; row 2 holds the shared ONE
    # off its diagonal next to y, so it starts from nothing
    a = LaurentMatrix([[SHARED_ONE, x, ZERO], [ZERO, SHARED_ONE, ZERO], [SHARED_ONE, ZERO, y]])
    b = LaurentMatrix([[SHARED_ONE, ZERO, t], [ZERO, SHARED_ONE, ZERO], [ZERO, x, SHARED_ONE]])
    snaps = [_snapshot(a), _snapshot(b)]
    prod = a @ b
    assert prod.rows == tuple(map(tuple, _dense_product(a, b)))
    # x ONE, ONE ONE and ONE t are reached once: the entries themselves
    assert prod.sparse[0][1] is x and prod.sparse[0][0] is SHARED_ONE
    assert prod.sparse[0][2] is b.sparse[0][2] and prod.sparse[2][0] is SHARED_ONE
    # y x is a fresh product, and t + y ONE a fresh sum
    assert prod.sparse[2][1] == x * y and prod.sparse[2][1] is not x
    assert prod.sparse[2][2] == t + y and prod.sparse[2][2] is not b.sparse[0][2]
    assert prod.sparse[1] is b.sparse[1]
    assert _unchanged(a, snaps[0]) and _unchanged(b, snaps[1])


def _needed_scalar_products(a, b):
    """Coefficient products that a @ b cannot avoid: one per pair of
    coefficients of two entries that meet, when neither is the shared ONE."""
    return sum(
        len(x.coeffs) * len(y.coeffs)
        for row in a.sparse
        for k, x in row.items()
        if x is not SHARED_ONE
        for y in b.sparse[k].values()
        if y is not SHARED_ONE
    )


@pytest.mark.parametrize("model", [split_sl(2), special_unitary(3, 1)], ids=["SL3", "SU(3,1)"])
def test_commutators_multiply_only_entries_off_one(model, monkeypatch):
    """gu @ gv @ gu_inv @ gv_inv, as RGD1 forms it, makes exactly the scalar
    products of entries that are not the shared ONE, also in the cells it
    sums, at every prenilpotent pair with a nonempty interval."""
    calls = 0
    real_mul = FieldScalar.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return real_mul(self, other)

    rng = random.Random(28)
    roots = [affine_root(a, level) for a in model.system.roots for level in (-1, 0, 1)]
    checked = 0
    for alpha, beta in combinations(roots, 2):
        if not is_prenilpotent(alpha, beta) or not open_interval(model.system, alpha, beta):
            continue
        u, v = sample_coords(model, alpha, rng, 3), sample_coords(model, beta, rng, 3)
        pins = [model.relative_pinning(c) for c in (u, v, coords_neg(u), coords_neg(v))]
        needed, left = 0, pins[0]
        calls = 0
        with monkeypatch.context() as patch:
            patch.setattr(FieldScalar, "__mul__", counted)
            for right in pins[1:]:
                needed += _needed_scalar_products(left, right)
                left = left @ right
        assert calls == needed, (alpha, beta)
        checked += 1
    assert checked >= 6


def _runs_the_dp(monkeypatch, m):
    """m.det(), and whether it ran the subset DP, the one part of det that
    accumulates through `_add_product`."""
    calls = 0
    real = laurent._add_product

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(laurent, "_add_product", counted)
        det = m.det()
    return det, calls > 0


@pytest.mark.parametrize(
    "model", [split_sl(2), special_unitary(3, 1), special_unitary(5, 2)], ids=["SL3", "SU(3,1)", "SU(5,2)"]
)
def test_near_identity_matrices_with_both_sides_run_the_dp(model, monkeypatch):
    """x_a(u) x_(-a)(v) and w = v1 x v2 hold entries on both sides of the
    diagonal: they are not triangular, so det runs the DP, and it matches
    Leibniz's sum."""
    rng = random.Random(29)
    for a in model.system.roots:
        alpha = affine_root(a, 1)
        u, v = sample_coords(model, alpha, rng, 3), sample_coords(model, -alpha, rng, 3)
        w = model.w_element_parts(u)[0]
        for m in (model.relative_pinning(u) @ model.relative_pinning(v), w):
            assert any(j > i for (i, j), _ in m.items()) and any(j < i for (i, j), _ in m.items())
            det, dp = _runs_the_dp(monkeypatch, m)
            assert dp and det == _leibniz_det(m) and det.is_one()


@pytest.mark.parametrize(
    "model",
    [split_sl(1), split_sl(2), split_sl(3), special_unitary(3, 1)],
    ids=["SL2", "SL3", "SL4", "SU(3,1)"],
)
def test_every_pinning_has_the_shared_one_as_its_det(model, monkeypatch):
    rng = random.Random(30)
    for a in model.system.roots:
        for level in (-1, 0, 1):
            alpha = affine_root(a, level)
            for coords in [*basis_generators(model, alpha), sample_coords(model, alpha, rng, 4)]:
                det, dp = _runs_the_dp(monkeypatch, model.relative_pinning(coords))
                assert det is SHARED_ONE and not dp


# -- the conjugation kernel: g -> h @ g @ hinv ----------------------------------


def _conjugating_pairs(model):
    """(h, hinv) pairs the suites conjugate by: torus centralizer samples (an
    SU sample with two middle slots mixes in a rotation), coroot values and
    Weyl representatives, and some pairs whose hinv is not h's inverse."""
    rng = random.Random(31)
    torus = model.sample_centralizer_elements(rng, 3)
    coroots = [
        model.coroot(a, LaurentPoly.t_power(Q(-l, 2)))
        for a in model.system.roots[:2]
        for l in (-1, 1)
    ]
    weyl = []
    for alpha in simple_affine_roots(model.system)[:2]:
        nc, nd = model.coord_lengths(alpha.root)
        u = RootGroupCoords(alpha, (Q(2),) + (Q(-1, 3),) * (nc - 1), (Q(1, 2),) * nd)
        w, w_inv, *_ = model.w_element_parts(u)
        weyl.append((w, w_inv))
    pairs = torus + [(k, k.inverse()) for k in coroots] + weyl
    wrong = [(torus[0][0], torus[1][1]), (weyl[0][0], weyl[0][0]), (coroots[0], torus[2][0])]
    return pairs + wrong


def _conjugated_matrices(model):
    """Basis generator pinnings at levels -1 and 1, a random pinning per root,
    and matrices off the unipotent shape: a diagonal entry that is 1 but not
    the shared ONE, a non-unit one and a missing one."""
    rng = random.Random(37)
    gs = []
    for a in model.system.roots:
        for level in (-1, 1):
            gs += [model.relative_pinning(c) for c in basis_generators(model, affine_root(a, level))]
        nc, nd = model.coord_lengths(a)
        draw = lambda k: tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k))
        gs.append(model.relative_pinning(RootGroupCoords(affine_root(a, 0), draw(nc), draw(nd))))
    n, t = model.n, LaurentPoly.t_power(1)
    x = gs[-1]
    gs += [
        x @ LaurentMatrix.from_entries(n, {(0, 0): ONE}),
        x @ LaurentMatrix.from_entries(n, {(0, 0): LaurentPoly.const(-2) * t}),
        x @ LaurentMatrix.from_entries(n, {(n - 1, n - 1): ZERO, (n - 1, 0): t}),
    ]
    return gs


@pytest.mark.parametrize(
    "model",
    [split_sl(n) for n in (1, 2, 3)]
    + [special_unitary(dim, witt) for dim, witt in ((3, 1), (4, 1), (5, 2))],
    ids=["SL2", "SL3", "SL4", "SU(3,1)", "SU(4,1)", "SU(5,2)"],
)
def test_conjugator_matches_the_two_products(model):
    gs = _conjugated_matrices(model)
    assert any(g.sparse[0].get(0) not in (None, SHARED_ONE) for g in gs)
    assert any(g.n - 1 not in g.sparse[-1] for g in gs)
    for h, hinv in _conjugating_pairs(model):
        conj = conjugator(h, hinv)
        for g in gs:
            got = conj(laurent._minus_identity(g))
            assert _stores_no_zeros(got)
            assert got == h @ g @ hinv


RELABEL_KINDS = ["monomial", "one per row"]
GENERAL_KINDS = [k for k in KINDS if k not in RELABEL_KINDS]


def _is_monomial(m):
    """One stored entry in each row and in each column."""
    cols = [j for row in m.sparse if len(row) == 1 for j in row]
    return len(cols) == len(set(cols)) == m.n


@pytest.mark.parametrize(
    "model",
    [split_sl(2)] + [special_unitary(dim, witt) for dim, witt in ((3, 1), (4, 1), (5, 2))],
    ids=["SL3", "SU(3,1)", "SU(4,1)", "SU(5,2)"],
)
def test_conjugator_relabels_by_monomial_pairs_only(model, monkeypatch):
    """Torus samples, coroot values and Weyl representatives are monomial
    pairs, whose conjugation moves each entry of E to one cell; SU(4,1)'s
    rotated torus sample (the third) and its Weyl representative with a 2x2
    block on the anisotropic kernel (the first) are not, and an entry of E
    reaches two or more cells.  One cell rule serves both: no pair makes a
    `_row_sum` call, and every result is h @ g @ hinv."""
    torus, coroots, weyl = (_conjugating_pairs(model)[a:b] for a, b in ((0, 3), (3, 7), (7, 9)))
    general = [torus[2], weyl[0]] if model.n == 4 and model.kind == "su" else []
    pairs = torus + coroots + weyl
    assert [pair for pair in pairs if not all(map(_is_monomial, pair))] == general
    real, calls = laurent._row_sum, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    gs = _conjugated_matrices(model)
    for h, hinv in pairs:
        conj = conjugator(h, hinv)
        with monkeypatch.context() as patch:
            patch.setattr(laurent, "_row_sum", counted)
            got = [conj(laurent._minus_identity(g)) for g in gs]
        assert got == [h @ g @ hinv for g in gs]
    assert calls == 0


@st.composite
def matrix_triples(draw):
    """(h, k, g): three matrices of any kinds; or h and k monomial or one
    per row; or h monomial with unit monomial entries and k its inverse; or
    one side monomial and the other of a general kind.  Some diagonal cells
    of g are then rewritten, to zero (E = g - I holds -1 there), the shared
    ONE or any polynomial, so that a moved diagonal entry of E meets a
    stored cell of h k and sums or cancels."""
    disc = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["any", "relabel", "inverse", "mixed"]))
    if shape == "inverse":
        cols = draw(st.permutations(range(n)))
        # unit monomials c t^(e/4): the shared ONE, or c in {-3/2, -1/2, 1}
        units = [
            laurent.ONE
            if draw(st.booleans())
            else LaurentPoly({draw(st.integers(-6, 6)): Q(draw(st.sampled_from([-3, -1, 2])), 2)})
            for _ in range(n)
        ]
        inverse = [{} for _ in range(n)]
        for i, (j, u) in enumerate(zip(cols, units)):
            inverse[j][i] = u if u is laurent.ONE else u.monomial_pow(-1)
        h, k = laurent._matrix([{j: u} for j, u in zip(cols, units)]), laurent._matrix(inverse)
        assert (h @ k).is_identity()
    else:
        kinds = {"any": (KINDS, KINDS), "relabel": (RELABEL_KINDS, RELABEL_KINDS),
                 "mixed": (["monomial"], GENERAL_KINDS)}[shape]
        h, k = (draw(matrices(n, disc, side))[2] for side in kinds)
        if draw(st.booleans()):
            h, k = k, h
    _, rows, _ = draw(matrices(n, disc))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        rows[i][i] = draw(st.one_of(st.sampled_from([ZERO, laurent.ONE]), polys(disc, 0)))
    return h, k, LaurentMatrix(rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(matrix_triples())
def test_conjugator_is_exact_for_any_three_matrices(triple):
    h, k, g = triple
    got = conjugator(h, k)(laurent._minus_identity(g))
    assert _stores_no_zeros(got)
    hg = LaurentMatrix(_dense_product(h, g))
    assert got.rows == tuple(map(tuple, _dense_product(hg, k)))


def test_conjugator_leaves_operands_and_results_alone():
    sl3 = PIN_MODELS[1]
    (h, hinv), *_ = sl3.sample_centralizer_elements(random.Random(5), 1)
    t = LaurentPoly.t_power(1)
    gs = [
        sl3.relative_pinning(RootGroupCoords(affine_root((1, -1, 0), 1), (Q(2),))),
        LaurentMatrix.from_entries(3, {(0, 0): t, (1, 1): ZERO, (0, 2): t}),
        LaurentMatrix.identity(3),
    ]
    operands = [h, hinv] + gs
    snaps = [_snapshot(m) for m in operands]
    conj = conjugator(h, hinv)
    # conjugating the identity returns h hinv, entries and all
    base = conj(laurent._minus_identity(LaurentMatrix.identity(3)))
    assert base == h @ hinv
    # each E is taken apart once and conjugated twice
    es = [laurent._minus_identity(g) for g in gs]
    e_snaps = [repr(e) for e in es]
    results = [conj(e) for e in es]
    kept = [_snapshot(m) for m in [base] + results]
    again = [conj(e) for e in reversed(es)]
    assert again[::-1] == results
    assert [repr(e) for e in es] == e_snaps
    assert all(_unchanged(m, s) for m, s in zip(operands, snaps))
    assert all(_unchanged(m, s) for m, s in zip([base] + results, kept))


def _reached_rows(h, hinv, g):
    """The rows of h @ g @ hinv that some stored entry (p, q) of E = g - I
    writes to: the rows of column p of h, when row q of hinv is not empty."""
    e_rows = laurent._minus_identity(g)
    return {
        i
        for p, row in enumerate(e_rows)
        for q in row
        if hinv.sparse[q]
        for i, hrow in enumerate(h.sparse)
        if p in hrow
    }


def test_conjugator_shares_the_rows_that_e_does_not_reach():
    """Rows are never written once stored.  conj copies only the rows that
    E = g - I reaches; every other row is the row of h hinv itself, which is
    the shared unit row when h hinv is the identity, and nothing is written
    to: not the unit rows, the operands, h hinv or earlier results."""
    su = special_unitary(5, 2)
    n, t = su.n, LaurentPoly.t_power(1)
    units = laurent._UNIT_ROWS[n]
    (torus, torus_inv), *_ = su.sample_centralizer_elements(random.Random(7), 1)
    (w, w_inv), *_ = _conjugating_pairs(su)[-5:]
    assert (w @ w_inv).is_identity() and not (w @ torus_inv).is_identity()
    gs = _conjugated_matrices(su)
    # E reaches every row, and every entry of one column
    gs.append(laurent._unit_plus(n, [((i, (i + 1) % n), t) for i in range(n)]))
    gs.append(laurent._unit_plus(n, [((i, 0), t) for i in range(1, n)]))
    pairs = [(torus, torus_inv), (w, w_inv), (w, torus_inv), (torus_inv, w)]
    operands = [torus, torus_inv, w, w_inv] + gs
    snaps = [_snapshot(m) for m in operands]
    kept = []
    for h, hinv in pairs:
        conj = conjugator(h, hinv)
        base = conj(laurent._minus_identity(LaurentMatrix.identity(n)))
        unit = (h @ hinv).is_identity()
        assert base == h @ hinv and all(
            (r is u) == unit for r, u in zip(base.sparse, units)
        )
        for _ in range(3):
            for g in gs:
                got = conj(laurent._minus_identity(g))
                assert _stores_no_zeros(got) and got == h @ g @ hinv
                reached = _reached_rows(h, hinv, g)
                for i, row in enumerate(got.sparse):
                    assert (row is base.sparse[i]) == (i not in reached)
                kept.append((got, _snapshot(got)))
        kept.append((base, _snapshot(base)))
        assert all(_unchanged(m, s) for m, s in kept)
    assert any(len(_reached_rows(w, w_inv, g)) == n for g in gs)
    assert laurent._UNIT_ROWS[n] is units and _unit_rows_intact()
    assert all(_unchanged(m, s) for m, s in zip(operands, snaps))


def test_conjugator_copies_each_reached_row_of_a_repeated_row():
    """Two rows of h that are the shared ONE alone, at the same column, give
    h hinv one row object twice; E reaching both rows copies each."""
    t = LaurentPoly.t_power(1)
    h = LaurentMatrix([[SHARED_ONE, ZERO, ZERO], [SHARED_ONE, ZERO, ZERO], [ZERO, t, SHARED_ONE]])
    k = LaurentMatrix([[t, ONE, ZERO], [ZERO, SHARED_ONE, t], [t, ZERO, SHARED_ONE]])
    hk = h @ k
    assert hk.sparse[0] is hk.sparse[1] is k.sparse[0]
    snap = _snapshot(k)
    conj = conjugator(h, k)
    for g in (
        LaurentMatrix.from_entries(3, {(0, 2): t}),
        LaurentMatrix.from_entries(3, {(1, 0): t}),
        LaurentMatrix.from_entries(3, {(0, 0): t, (2, 1): ONE}),
    ):
        got = conj(laurent._minus_identity(g))
        assert got.rows == tuple(map(tuple, _dense_product(LaurentMatrix(_dense_product(h, g)), k)))
    assert _unchanged(k, snap) and hk == h @ k and _unit_rows_intact()


def test_conjugator_drops_a_cell_that_two_entries_of_e_cancel():
    """E[0][2] = x and E[1][2] = y both reach row 0 of h E hinv, through
    h[0][0] = ONE and h[0][1] = t, as (x + t y) hinv[2].  With x = -t y every
    cell of that sum cancels, one term after the other: row 0 is h hinv's row
    again, in a new object, and a cell outside h hinv is not stored.  Row 2
    of h is a unit row and E reaches none of it."""
    t = LaurentPoly.t_power(1)
    y = LaurentPoly.term(Q(3, 2), 1) + LaurentPoly.const(2)
    x = -(t * y)
    h = LaurentMatrix.from_entries(3, {(0, 1): t})
    g = LaurentMatrix.from_entries(3, {(0, 2): x, (1, 2): y})
    e_rows = laurent._minus_identity(g)
    assert e_rows == [{2: x}, {2: y}, {}]
    e = laurent._matrix(e_rows)  # E's rows are in the matrix's own format
    inverse = LaurentMatrix.from_entries(3, {(0, 1): -t})
    other = LaurentMatrix([[SHARED_ONE, ZERO, t], [ZERO, ONE, ZERO], [t, ZERO, LaurentPoly.const(2)]])
    for hinv in (inverse, other):
        operands = [h, hinv, g, e]
        snaps = [_snapshot(m) for m in operands]
        conj = conjugator(h, hinv)
        base = conj(laurent._minus_identity(LaurentMatrix.identity(3)))
        base_snap = _snapshot(base)
        for _ in range(2):  # the second call reads the formed spots
            got = conj(e_rows)
            assert got.rows == tuple(map(tuple, _dense_product(LaurentMatrix(_dense_product(h, g)), hinv)))
            assert _stores_no_zeros(got) and got == h @ g @ hinv
            assert got.sparse[0] == base.sparse[0] and got.sparse[0] is not base.sparse[0]
            assert got.sparse[1] != base.sparse[1] and got.sparse[2] is base.sparse[2]
            assert all(_unchanged(m, s) for m, s in zip(operands, snaps))
            assert _unchanged(base, base_snap)
    assert _unit_rows_intact()


def _cell_factors(h, hinv, p, q):
    """{(i, j): h[i][p] hinv[q][j]} over the stored h[i][p] and hinv[q][j],
    the cells an entry E[p][q] reaches, in the dense reference: a factor
    times ONE is the factor, any other cell a schoolbook product."""
    return {
        (i, j): b if a is SHARED_ONE else a if b is SHARED_ONE else _poly_mul(a, b)
        for i, hrow in enumerate(h.sparse)
        if p in hrow
        for a in (hrow[p],)
        for j, b in hinv.sparse[q].items()
    }


def _needed_conj_products(h, hinv, e_rows):
    """Coefficient products that conjugating E must make once the cell
    factors of its entries are formed: one per pair of coefficients of an
    entry e = E[p][q] and a factor h[i][p] hinv[q][j] of (p, q), when neither
    is the shared ONE."""
    return sum(
        len(e.coeffs) * len(f.coeffs)
        for p, row in enumerate(e_rows)
        for q, e in row.items()
        if e is not SHARED_ONE
        for f in _cell_factors(h, hinv, p, q).values()
        if f is not SHARED_ONE
    )


def test_conjugation_multiplies_only_entries_off_one(monkeypatch):
    """By an SU(5,2) torus element and Weyl representative (monomial pairs)
    and by SU(4,1)'s rotated torus sample and 2x2-block Weyl representative
    (a column of h with two entries), each conjugation of an E after a
    warm-up call makes exactly the scalar products of E's entries with the
    cell factors they reach, also in the cells it sums (an E with a diagonal
    entry reaches a diagonal ONE of h hinv): none with the shared ONE and
    none to form a factor."""
    calls = 0
    real_mul = FieldScalar.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return real_mul(self, other)

    su52, su41 = special_unitary(5, 2), special_unitary(4, 1)
    (torus, torus_inv), *_ = su52.sample_centralizer_elements(random.Random(7), 1)
    (w, w_inv), *_ = _conjugating_pairs(su52)[-5:]
    assert (w @ w_inv).is_identity() and (torus @ torus_inv).is_identity()
    pairs41 = _conjugating_pairs(su41)
    general = [pairs41[2], pairs41[7]]  # see test_conjugator_relabels_by_monomial_pairs_only
    assert all(any(len(col) > 1 for col in h.transpose().sparse) for h, _ in general)
    cases = [(su52, [(torus, torus_inv), (w, w_inv)]), (su41, general)]
    checked = 0
    for model, pairs in cases:
        gs = _conjugated_matrices(model)
        for h, hinv in pairs:
            conj = conjugator(h, hinv)
            for g in gs:
                e_rows = laurent._minus_identity(g)
                conj(e_rows)
                calls = 0
                with monkeypatch.context() as patch:
                    patch.setattr(FieldScalar, "__mul__", counted)
                    got = conj(e_rows)
                assert calls == _needed_conj_products(h, hinv, e_rows) > 0
                assert got == h @ g @ hinv
                checked += 1
    assert checked == 2 * (63 + 31)


# -- the form kernel: g -> (g* F g == F) on E = g - I ----------------------------

FORM_MODELS = [special_unitary(dim, witt) for dim, witt in ((3, 1), (4, 1), (5, 2), (6, 2))]
FORM_MODELS.append(special_unitary(4, 1, disc=-3))


def _dense_preserves(model, g):
    """g* J g == J, from the dense schoolbook products of this file."""
    left = LaurentMatrix(_dense_product(_conj_transpose(g), model.gram))
    return _dense_product(left, g) == [list(r) for r in model.gram.rows]


def _perturbed(g, t):
    """g with t added to its first stored entry off the diagonal: a pinning
    stays triangular with det 1, and leaves the group when t breaks the
    link to a partner entry or, on a long root, is not fixed by tau."""
    rows = [list(r) for r in g.rows]
    (p, q), _ = next(((p, q), e) for (p, q), e in g.items() if p != q)
    rows[p][q] = rows[p][q] + t
    return LaurentMatrix(rows)


def _torus_det_one(model):
    """diag(2, 1, ..., 1, 1/2), a torus element of SU, and diag(2, 1/2, 1,
    ..., 1), which has det 1 but scales the middle or the second hyperbolic
    pair and so is outside SU."""
    n, two, half = model.n, LaurentPoly.const(2), LaurentPoly.const(Q(1, 2))
    inside = [two] + [ONE] * (n - 2) + [half]
    outside = [two, half] + [ONE] * (n - 2)
    return LaurentMatrix.diagonal(inside), LaurentMatrix.diagonal(outside)


@st.composite
def form_draws(draw):
    """(model, g): a pinning, a product of pinnings, a torus centralizer
    sample, an RGD4 word (pinnings times a centralizer sample), a pinning
    with one perturbed entry, or a det-1 diagonal matrix."""
    model = draw(st.sampled_from(FORM_MODELS))
    kind = draw(st.sampled_from(["pinning", "product", "torus", "word", "perturbed", "diagonal"]))
    if kind in ("torus", "word"):
        seed = draw(st.integers(0, 1000))
        samples = model.sample_centralizer_elements(random.Random(seed), 3)
        h = draw(st.sampled_from(samples))[0]
    if kind == "torus":
        return model, h
    if kind == "diagonal":
        return model, draw(st.sampled_from(_torus_det_one(model)))
    g = draw(pinnings(model))
    if kind in ("product", "word"):
        for _ in range(draw(st.integers(1, 3))):
            g = g @ draw(pinnings(model))
    if kind == "word":
        g = g @ h
    if kind == "perturbed" and not g.is_identity():
        c = draw(st.sampled_from([1, -2, model.s]))
        g = _perturbed(g, LaurentPoly.term(c, draw(st.integers(-1, 1))))
    return model, g


@settings(max_examples=200, derandomize=True, deadline=None)
@given(form_draws())
def test_form_check_matches_the_dense_triple_product(drawn):
    model, g = drawn
    snaps = [_snapshot(g), _snapshot(model.gram)]
    assert form_check(model.gram)(g) == _dense_preserves(model, g)
    assert _unchanged(g, snaps[0]) and _unchanged(model.gram, snaps[1])


@pytest.mark.parametrize("model", FORM_MODELS, ids=lambda m: f"SU({m.n},{m.witt},{m.disc})")
def test_form_check_separates_members_from_det_one_non_members(model):
    check = form_check(model.gram)
    rng = random.Random(3)
    t = LaurentPoly.term(model.s, 1)
    for a in model.system.roots:
        nc, nd = model.coord_lengths(a)
        draw = lambda k: tuple(Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k))
        g = model.relative_pinning(RootGroupCoords(affine_root(a, 1), draw(nc), draw(nd)))
        assert check(g) and _dense_preserves(model, g)
        bad = _perturbed(g, t)
        assert bad.det().is_one()
        assert not check(bad) and not _dense_preserves(model, bad)
    inside, outside = _torus_det_one(model)
    assert check(inside) and outside.det().is_one() and not check(outside)
    assert check(LaurentMatrix.identity(model.n))
    # Weyl representatives miss diagonal entries, which E holds as -1
    for alpha in simple_affine_roots(model.system):
        nc, nd = model.coord_lengths(alpha.root)
        u = RootGroupCoords(alpha, (Q(2),) + (Q(-1, 3),) * (nc - 1), (Q(1, 2),) * nd)
        w, w_inv, *_ = model.w_element_parts(u)
        assert any(i not in row for i, row in enumerate(w.sparse))
        assert check(w) and check(w_inv) and _dense_preserves(model, w)
        assert not check(_perturbed(w, t)) and not _dense_preserves(model, _perturbed(w, t))


def test_form_check_takes_only_monomial_forms():
    t = LaurentPoly.t_power(1)
    with pytest.raises(NotMonomial):
        form_check(LaurentMatrix([[ONE, t], [ZERO, ONE]]))
    with pytest.raises(NotMonomial):
        form_check(LaurentMatrix.diagonal([ONE, ZERO]))
    # monomial, but F* is neither F nor -F
    s = LaurentPoly.const(sqrt_of(-1))
    two = LaurentPoly.const(2)
    for form in ([[ZERO, t], [ONE, ZERO]], [[ONE, ZERO], [ZERO, s]], [[ZERO, ONE], [two, ZERO]]):
        with pytest.raises(NotMonomial):
            form_check(LaurentMatrix(form))
    # t is fixed by the involution: [[0, t], [t, 0]] is hermitian, [[0, t], [-t, 0]] skew
    assert form_check(LaurentMatrix([[ZERO, t], [t, ZERO]]))(LaurentMatrix.identity(2))
    assert form_check(LaurentMatrix([[ZERO, t], [-t, ZERO]]))(LaurentMatrix.identity(2))
    check = form_check(LaurentMatrix.diagonal([ONE, -ONE]))
    with pytest.raises(DimensionMismatch):
        check(LaurentMatrix.identity(3))
    # a hyperbolic rotation preserves diag(1, -1); a shear does not
    five, three = LaurentPoly.const(Q(5, 4)), LaurentPoly.const(Q(3, 4))
    rot = LaurentMatrix([[five, three], [three, five]])
    assert check(rot) and not check(LaurentMatrix.from_entries(2, {(0, 1): t}))


def test_su_membership_makes_no_matrix_product(monkeypatch):
    products = []
    inner = LaurentMatrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return inner(a, b)

    model = special_unitary(5, 2)
    u = RootGroupCoords(affine_root((1, 0), -1), (Q(1), Q(2)), (Q(3),))
    g = model.relative_pinning(u)
    monkeypatch.setattr(LaurentMatrix, "__matmul__", counted)
    assert model.contains(g) and not model.contains(_perturbed(g, LaurentPoly.term(model.s, 1)))
    assert products == []
