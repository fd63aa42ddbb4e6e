"""Tests for the split and special unitary matrix models."""

import random
import re
from fractions import Fraction as Q

import pytest

from rgdcheck import (
    FieldScalar,
    IndexOutOfRange,
    LaurentMatrix,
    LaurentPoly,
    MembershipViolation,
    NotInRootGroup,
    NotMonomial,
    PeelFailure,
    RankOneSolveFailed,
    ReflectionLeftSystem,
    ResidueNotIdentity,
    RootGroupCoords,
    SUModel,
    UnsupportedType,
    affine_root,
    basis_generators,
    build_model,
    coords_neg,
    simple_affine_roots,
    special_unitary,
    split_sl,
)
from rgdcheck import laurent, slots
from rgdcheck.affine import is_prenilpotent, open_interval
from rgdcheck.laurent import EXP_SCALE, ONE, ZERO, exp4
from rgdcheck.models import _one_read
from rgdcheck.roots import build_root_system, pairing, scale, sub, vec
from rgdcheck.verify import sample_coords

I = FieldScalar(0, 1, -1)


def su_pinning(model, a_rel, level, c, d=()):
    alpha = affine_root(a_rel, level)
    return model.relative_pinning(RootGroupCoords(alpha, tuple(Q(x) for x in c), tuple(Q(x) for x in d)))


# -- split special linear -----------------------------------------------------


def test_split_pinning_is_elementary():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    g = su_pinning(sl2, a, 0, (Q(5, 2),))
    assert g.entry(0, 1) == LaurentPoly.const(Q(5, 2))
    assert g.entry(0, 0).is_one() and g.entry(1, 1).is_one()
    assert g.entry(1, 0).is_zero()
    # level 2 puts the coefficient on t^-2
    h = su_pinning(sl2, a, 2, (3,))
    assert h.entry(0, 1) == LaurentPoly.term(3, -2)
    # the negative root fills the lower corner
    k = su_pinning(sl2, vec(-1, 1), 0, (7,))
    assert k.entry(1, 0) == LaurentPoly.const(7)
    # x_a(lam) is the identity plus lam at the elementary entry
    assert h == LaurentMatrix.from_entries(2, {(0, 1): LaurentPoly.term(3, -2)})


def test_split_peel_round_trip():
    sl3 = split_sl(2)
    rng = random.Random(41)
    for a in sl3.system.roots:
        for level in (-2, -1, 0, 1, 2):
            c = Q(rng.randint(-9, 9), rng.randint(1, 4))
            if c == 0:
                c = Q(1)
            alpha = affine_root(a, level)
            g = sl3.relative_pinning(RootGroupCoords(alpha, (c,), ()))
            (back,) = sl3.peel_product(g, [alpha])
            assert back.c == (c,)
            assert back.alpha == alpha


def test_peel_rejects_outsiders():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    lower = su_pinning(sl2, vec(-1, 1), 0, (1,))
    with pytest.raises(NotInRootGroup):
        sl2.peel(lower, affine_root(a, 0))
    # wrong level is also rejected
    shifted = su_pinning(sl2, a, 1, (1,))
    with pytest.raises(NotInRootGroup):
        sl2.peel(shifted, affine_root(a, 0))


def test_coroot_diagonal_forms():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    half = LaurentPoly.t_power(Q(-1, 2))
    g = sl2.coroot(a, half)
    assert g.entry(0, 0) == half
    assert g.entry(1, 1) == LaurentPoly.t_power(Q(1, 2))
    # cocharacter law: values multiply when arguments do
    lam = LaurentPoly.term(2, 1)
    mu = LaurentPoly.term(Q(1, 2), -3)
    assert sl2.coroot(a, lam) @ sl2.coroot(a, mu) == sl2.coroot(a, lam * mu)


def test_coroot_rejects_bad_arguments():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    with pytest.raises(NotMonomial):
        sl2.coroot(a, LaurentPoly.one() + LaurentPoly.t_power(1))
    with pytest.raises(NotMonomial):
        sl2.coroot(a, LaurentPoly.const(FieldScalar(0, 1, -1)))


def test_coroot_exponents_are_ints_on_every_slot():
    """A slot weight is 0 or +-e_i, so <weight, a^vee> is an int on every slot
    and relative root, and coroot has no non-integral exponent to refuse."""
    models = [split_sl(rank) for rank in range(1, 8)]
    models += [special_unitary(d, w) for d, w in ((3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (11, 5))]
    for model in models:
        for a in model.system.roots:
            for p in range(model.n):
                assert type(pairing(model.slot_weight(p), a)) is int, (model, a, p)


def test_su_coroot_normalization():
    su = special_unitary(3, 1)
    lam = LaurentPoly.term(3, 0)
    single = su.coroot(vec(1), lam)
    assert single.entry(0, 0) == LaurentPoly.const(9)
    assert single.entry(1, 1).is_one()
    assert single.entry(2, 2) == LaurentPoly.const(Q(1, 9))
    double = su.coroot(vec(2), lam)
    assert double.entry(0, 0) == LaurentPoly.const(3)
    assert double.entry(2, 2) == LaurentPoly.const(Q(1, 3))


def test_peel_product_reads_its_first_pass_off_g(monkeypatch):
    """One read: a one-member order is compared where g stores it, by
    `_is_pin` on the scalars read off g at the member's entries, and builds
    nothing (neither `relative_pinning` nor `_pin` runs); an order of two or
    more members is rebuilt by `_pin` from the scalars read once, and the
    identity builds nothing."""
    su = special_unitary(3, 1)
    alpha = affine_root(vec(1), 1)
    u = RootGroupCoords(alpha, (Q(1), Q(2)), (Q(3),))
    g = su.relative_pinning(u)
    pinned, pins, compared = [], [], []
    inner_pin, inner_is_pin = su._pin, su._is_pin

    def counted_pin(lay, zs, corner, e4=None):
        pins.append((lay, e4, zs, corner))
        return inner_pin(lay, zs, corner, e4)

    def counted_is_pin(h, lay, zs, corner, e4=None):
        compared.append((lay, e4, zs, corner))
        return inner_is_pin(h, lay, zs, corner, e4)

    monkeypatch.setattr(su, "relative_pinning", lambda coords: pinned.append(coords))
    monkeypatch.setattr(su, "_pin", counted_pin)
    monkeypatch.setattr(su, "_is_pin", counted_is_pin)
    assert su.peel_product(g, [alpha]) == [u]
    su.peel(g, alpha)
    assert pinned == [] and pins == [] and len(compared) == 2
    # the comparison takes the scalars read off g at alpha's entries
    for lay, e4, zs, corner in compared:
        assert lay == su.layout(vec(1)) and e4 == -EXP_SCALE
        assert zs == [g.entry(*pos).coeff(e4) for pos, _, _ in lay.links]
        assert corner == g.entry(*lay.corner).coeff(2 * e4)
    # two members are rebuilt from the same reads, and one read as zero pins
    # the identity and is not built
    compared.clear()
    order = [alpha, affine_root(vec(-2), 0)]
    assert su.peel_product(g, order) == [u, RootGroupCoords(order[1], (Q(0),))]
    assert compared == [] and len(pins) == 1
    lay, e4, zs, corner = pins[0]
    assert lay == su.layout(vec(1)) and e4 == -EXP_SCALE
    assert zs == [g.entry(*pos).coeff(e4) for pos, _, _ in lay.links]
    assert corner == g.entry(*lay.corner).coeff(2 * e4)
    # the identity peels to zero coordinates without building anything
    pins.clear()
    got = su.peel_product(LaurentMatrix.identity(3), order)
    assert [cs.alpha for cs in got] == order
    assert all(cs.is_zero() for cs in got)
    assert [(len(cs.c), len(cs.d)) for cs in got] == [(2, 1), (1, 0)]
    assert pinned == [] and pins == [] and compared == []


ORACLE_MODELS = {
    "SL3": lambda: split_sl(2),
    "SU(3,1)": lambda: special_unitary(3, 1),
    "SU(4,1)": lambda: special_unitary(4, 1),
    "SU(5,2)": lambda: special_unitary(5, 2),
}


def _layout_cells(lay):
    """The link, partner and corner positions of a layout."""
    cells = [c for pos, partner, _ in lay.links for c in (pos, partner) if c is not None]
    return cells + ([] if lay.corner is None else [lay.corner])


def _edited(g, changes):
    """g with the given entries set, ZERO clearing one."""
    cells = dict(g.items())
    cells.update(changes)
    return LaurentMatrix([[cells.get((i, j), ZERO) for j in range(g.n)] for i in range(g.n)])


def _pin_mutants(g, lay, t):
    """g, a pinning on layout lay, with one fault each: an entry off the
    layout, a second term in its first nonzero cell, that cell moved by t, a
    non-unit diagonal, and a wrong and a missing partner of its first nonzero
    link with one."""
    n = g.n
    cells = _layout_cells(lay)
    off = next((i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in cells)
    pos = next(c for c in cells if not g.entry(*c).is_zero())
    out = [
        _edited(g, {off: g.entry(*off) + t}),
        _edited(g, {pos: g.entry(*pos) + t}),
        _edited(g, {pos: g.entry(*pos) * t}),
        _edited(g, {(0, 0): LaurentPoly.const(2)}),
        _edited(g, {(n - 1, n - 1): ONE + t}),
    ]
    for link, partner, _ in lay.links:
        if partner is not None and not g.entry(*link).is_zero():
            out.append(_edited(g, {partner: g.entry(*partner) + g.entry(*partner)}))
            out.append(_edited(g, {partner: ZERO}))
            break
    return out


def _agrees(model, g, lay, zs, corner, e4):
    """`_is_pin` against its oracle, `_pin(...) == g`; the common answer."""
    same = model._pin(lay, zs, corner, e4) == g
    assert model._is_pin(g, lay, zs, corner, e4) == same
    return same


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_is_pin_is_the_rebuilt_comparison_on_numeric_entries(name):
    """_is_pin(g, ...) == (_pin(...) == g) on every generator pinning at
    levels -1..1, its conjugates by torus elements and Weyl representatives,
    its mutants and the identity, against the scalars read off g at every
    in-range root group's entries (as `_read` reads them) and against the
    generator's own."""
    model = ORACLE_MODELS[name]()
    rng = random.Random(11)
    alphas = [affine_root(a, l) for a in model.system.roots for l in (-1, 0, 1)]
    conjugators = model.sample_centralizer_elements(rng, 3)
    for alpha in simple_affine_roots(model.system):
        w, w_inv, *_ = model.w_element_parts(sample_coords(model, alpha, rng, 0))
        conjugators.append((w, w_inv))
    t = LaurentPoly.t_power(1)
    held = 0
    for alpha in alphas:
        e4 = exp4(-alpha.level)
        for coords in basis_generators(model, alpha):
            lay, zs, corner = model._pin_scalars(coords)
            g = model._pin(lay, zs, corner, e4)
            assert _agrees(model, g, lay, zs, corner, e4)
            mutants = _pin_mutants(g, lay, t)
            pool = [g, LaurentMatrix.identity(model.n)] + mutants
            pool += [h @ g @ h_inv for h, h_inv in conjugators]
            for m in mutants:
                assert not _agrees(model, m, lay, zs, corner, e4)
            for x in pool:
                for beta in alphas:
                    b_lay = model.layout(beta.root)
                    b_e4 = exp4(-beta.level)
                    b_zs = [x.entry(*pos).coeff(b_e4) for pos, _, _ in b_lay.links]
                    b_corner = None
                    if b_lay.corner is not None:
                        b_corner = x.entry(*b_lay.corner).coeff(2 * b_e4)
                    held += _agrees(model, x, b_lay, b_zs, b_corner, b_e4)
    assert held


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_is_pin_is_the_rebuilt_comparison_on_whole_entries(name):
    """The same oracle on level-zero elements on slot variables, as
    `q2_additive` builds them, read whole (e4 None) at every root's entries:
    X(u), X(u) X(v), X(-(u + v)) X(u) X(v), the identity and the mutants of
    X(u)."""
    model = ORACLE_MODELS[name]()
    t = LaurentPoly.t_power(1)
    held = 0
    for a in model.system.roots:
        nc, nd = model.coord_lengths(a)
        level0 = affine_root(a, 0)

        def pin(c):
            return model._pin(*model._pin_scalars(RootGroupCoords(level0, tuple(c), (ZERO,) * nd)))

        u, v = [slots.var(k) for k in range(nc)], [slots.var(nc + k) for k in range(nc)]
        lay, zs, corner = model._pin_scalars(RootGroupCoords(level0, tuple(u), (ZERO,) * nd))
        x = model._pin(lay, zs, corner)
        assert _agrees(model, x, lay, zs, corner, None)
        mutants = _pin_mutants(x, lay, t)
        for m in mutants:
            assert not _agrees(model, m, lay, zs, corner, None)
        pool = [x, x @ pin(v), pin([-(p + q) for p, q in zip(u, v)]) @ x @ pin(v)]
        for g in pool + [LaurentMatrix.identity(model.n)] + mutants:
            for b in model.system.roots:
                b_lay = model.layout(b)
                b_zs = [g.entry(*pos) for pos, _, _ in b_lay.links]
                b_corner = None if b_lay.corner is None else g.entry(*b_lay.corner)
                held += _agrees(model, g, b_lay, b_zs, b_corner, None)
    assert held


WRITER_MODELS = {f"SL{rank + 1}": (split_sl, rank) for rank in (1, 2, 3)}
WRITER_MODELS.update(
    {f"SU({dim},{witt})": (special_unitary, dim, witt)
     for dim, witt in ((3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2))}
)


def _unit_plus_of_cells(model, lay, zs, corner, e4):
    """The pinning as `_unit_plus` builds it from the layout's cells: each
    nonzero link scalar z at its position and factor * tau(z) at its partner,
    the corner, at exponents e4 and 2 * e4 (whole for e4 None); and the rows
    those cells reach."""
    def at(x, e):
        return x if e4 is None else LaurentPoly({e: x})

    cells = []
    for (pos, partner, factor), z in zip(lay.links, zs):
        if not z.is_zero():
            cells.append((pos, at(z, e4)))
            if partner is not None:
                cells.append((partner, at(z.conj() * factor, e4)))
    if corner is not None and not corner.is_zero():
        cells.append((lay.corner, at(corner, None if e4 is None else 2 * e4)))
    return laurent._unit_plus(model.n, cells), {i for (i, _), _ in cells}


@pytest.mark.parametrize("name", WRITER_MODELS)
def test_pin_writes_what_unit_plus_writes_of_the_layout_cells(name):
    """`_pin` writes each cell as it makes it, into a copy of its row of the
    shared unit rows: on every root of SL2-SL4 and SU(3,1)-SU(6,2), at int
    and half-integer levels, with zero and nonzero link scalars and on slot
    variables (e4 None), it equals `_unit_plus` of the layout's cells, and
    every row that no cell reaches is the shared unit row itself."""
    make, *args = WRITER_MODELS[name]
    model = make(*args)
    units = LaurentMatrix.identity(model.n).sparse
    checked = 0
    for a in model.system.roots:
        nc, nd = model.coord_lengths(a)
        draws = [(Q(1, 2),) * nc, (Q(0),) * nc, (Q(0),) * (nc - 1) + (Q(-3),)]
        inputs = []
        for level in (-1, 0, 2, Q(1, 2), Q(-3, 2)):
            alpha = affine_root(a, level)
            for c in draws:
                for d in [()] if not nd else [(Q(0),), (Q(5, 3),)]:
                    scalars = model._pin_scalars(RootGroupCoords(alpha, c, d))
                    inputs.append((*scalars, exp4(-alpha.level)))
        u = [slots.var(k) for k in range(nc)]
        for c in (u, [ZERO] * nc, [ZERO] + u[1:]):
            for d in [(ZERO,) * nd, (slots.var(nc),) * nd]:
                coords = RootGroupCoords(affine_root(a, 0), tuple(c), d)
                inputs.append((*model._pin_scalars(coords), None))
        for lay, zs, corner, e4 in inputs:
            want, written = _unit_plus_of_cells(model, lay, zs, corner, e4)
            got = model._pin(lay, zs, corner, e4)
            assert got == want and got.sparse == want.sparse
            for i, row in enumerate(got.sparse):
                assert (row is units[i]) == (i not in written), (a, i)
            checked += 1
    assert checked and all(r is u for r, u in zip(laurent._UNIT_ROWS[model.n], units))
    assert all(row == {i: ONE} and row[i] is ONE for i, row in enumerate(units))


LAYOUT_MODELS = {f"SL{rank + 1}": (split_sl, rank) for rank in range(1, 8)}
LAYOUT_MODELS.update(
    {f"SU({dim},{witt})": (special_unitary, dim, witt)
     for witt in range(1, 6) for dim in range(2 * witt + 1, 13)}
)


@pytest.mark.parametrize("name", LAYOUT_MODELS)
def test_layout_cells_are_distinct_and_off_the_diagonal(name):
    """`_is_pin` counts g's stored entries against the cells it matched, which
    is exact only when every layout's link, partner and corner positions are
    pairwise distinct and off the diagonal: SL2-SL8 and SU(3,1)-SU(12,5)."""
    make, *args = LAYOUT_MODELS[name]
    model = make(*args)
    for a in model.system.roots:
        cells = _layout_cells(model.layout(a))
        assert len(set(cells)) == len(cells)
        assert all(i != j for i, j in cells)


# -- the pinnings onto their root groups, against sympy ----------------------------


def _sympy_scalar(sympy, x, r):
    """The FieldScalar x as base + ext * r, r standing for sqrt(d)."""
    return sympy.Rational(x.base.numerator, x.base.denominator) + sympy.Rational(
        x.ext.numerator, x.ext.denominator
    ) * r


def _weight_block(sympy, model, b, r):
    """(positions, A) for the weight-b block of the Lie algebra of the model,
    solved from the slot weights and the form F alone: the positions (p, q)
    with weight(p) - weight(q) = b, and the rational matrix A whose nullspace
    is the block, on coordinates (u, v) per position for an entry u + v r
    (r = sqrt(d)) with X* F + F X = 0 and trace 0, or u alone in sl_n."""
    n = model.n
    w = [model.slot_weight(p) for p in range(n)]
    positions = [(p, q) for p in range(n) for q in range(n) if sub(w[p], w[q]) == b]
    unknowns, x = [], sympy.zeros(n, n)
    for p, q in positions:
        u, v = sympy.symbols(f"u{p}_{q} v{p}_{q}")
        unknowns += [u] if model.gram is None else [u, v]
        x[p, q] = u if model.gram is None else u + v * r
    eqs = [x.trace()]
    if model.gram is not None:
        f = sympy.Matrix(n, n, lambda i, j: _sympy_scalar(sympy, model.gram.entry(i, j).coeff(0), r))
        e = x.T.subs(r, -r) * f + f * x
        for entry in e:
            entry = sympy.expand(entry).subs(r**2, model.disc)
            eqs += [entry.coeff(r, 0), entry.coeff(r, 1)]
    a, _ = sympy.linear_eq_to_matrix(eqs, unknowns)
    return positions, a


def _pinning_violations(model):
    """How the level-zero generators of each U_a fail to pin the root group
    exp(g_a + g_2a): the linear parts N of the c-slot generators must lie in
    sympy's weight-a block, be k-linearly independent and as many as its
    dimension, and each generator must be exp(N) = I + N + N^2 / 2; the d-slot
    generators must do the same on the weight-2a block, each as I + M."""
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    n, out = model.n, []

    def coords(g, positions):
        """g - I as a sympy matrix, g having constant entries, and its
        realified entries at positions."""
        m = sympy.Matrix(n, n, lambda i, j: _sympy_scalar(sympy, g.entry(i, j).coeff(0), r) - int(i == j))
        vec = []
        for p, q in positions:
            x = g.entry(p, q).coeff(0)
            vec += [x.base] if model.gram is None else [x.base, x.ext]
        return m, sympy.Matrix(vec)

    for a in model.system.roots:
        gens = basis_generators(model, affine_root(a, 0))
        nc, _ = model.coord_lengths(a)
        for what, b, part in (("c", a, gens[:nc]), ("d", scale(2, a), gens[nc:])):
            positions, eqs = _weight_block(sympy, model, b, r)
            dim = len(positions) * (1 if model.gram is None else 2) - eqs.rank()
            vecs = []
            for coord in part:
                g = model.relative_pinning(coord)
                m, vec = coords(g, positions)
                lin = sympy.Matrix(n, n, lambda i, j: m[i, j] if (i, j) in positions else 0)
                want = lin + lin * lin / 2 if what == "c" else lin
                if not all(e.is_constant() for _, e in g.items()) or m != want:
                    out.append(f"{a}: a {what}-slot generator is not exp of its block part")
                if any(eqs * vec):
                    out.append(f"{a}: a {what}-slot generator leaves the weight block")
                vecs.append(vec)
            if len(part) != dim:
                out.append(f"{a}: {len(part)} {what}-slots on a block of dimension {dim}")
            elif vecs and sympy.Matrix.hstack(*vecs).rank() < len(vecs):
                out.append(f"{a}: the {what}-slot generators are dependent")
    return out


class DroppedLinkSU(SUModel):
    """SU whose multipliable root groups lose their last middle link, so each
    pins a proper subgroup of U_a."""

    def _build_layout(self, a_rel):
        lay = super()._build_layout(a_rel)
        if lay.corner is not None:
            lay = lay._replace(links=lay.links[:-1])
        return lay


class DuplicatedLinkSU(SUModel):
    """SU whose multipliable root groups repeat their first link in place of
    their last: the slot count holds, but two slots pin the same entries."""

    def _build_layout(self, a_rel):
        lay = super()._build_layout(a_rel)
        if lay.corner is not None:
            lay = lay._replace(links=lay.links[:-1] + lay.links[:1])
        return lay


class FlippedFactorSU(SUModel):
    """SU whose partner entries all carry the wrong sign, off su(F)."""

    def _build_layout(self, a_rel):
        lay = super()._build_layout(a_rel)
        return lay._replace(links=tuple((p, q, None if f is None else -f) for p, q, f in lay.links))


class UncorrectedSU(SUModel):
    """SU whose corners leave out the correction N^2 / 2 of the linear part."""

    @staticmethod
    def _correction(lay, zs):
        return zs[0] * 0


ALGEBRA_MODELS = {
    "SL3": lambda: split_sl(2),
    "SL4": lambda: split_sl(3),
    "SU(3,1)": lambda: special_unitary(3, 1),
    "SU(4,1)": lambda: special_unitary(4, 1),
    "SU(5,1)": lambda: special_unitary(5, 1),
    "SU(5,2)": lambda: special_unitary(5, 2),
    "SU(6,2)": lambda: special_unitary(6, 2),
    "SU(7,3) d=-5": lambda: special_unitary(7, 3, -5),
}


@pytest.mark.parametrize("name", ALGEBRA_MODELS)
def test_pinnings_map_onto_the_root_groups_sympy_solves(name):
    """Each layout read off the form pins all of U_a = exp(g_a + g_2a): sympy
    solves each weight block from F and the slot weights alone."""
    assert _pinning_violations(ALGEBRA_MODELS[name]()) == []


@pytest.mark.parametrize("mutant, why", [
    (DroppedLinkSU, "-slots on a block of dimension"),
    (DuplicatedLinkSU, "generators are dependent"),
    (FlippedFactorSU, "generator leaves the weight block"),
    (UncorrectedSU, "generator is not exp of its block part"),
])
@pytest.mark.parametrize("dim, witt", [(5, 1), (6, 2)])
def test_layout_mutants_fail_the_root_group_check(mutant, why, dim, witt):
    found = _pinning_violations(mutant(dim, witt))
    assert found and all(why in f for f in found)


def _substituted(p, values, shifts):
    """p in slot variables with x_k -> values[k] t^(shifts[k] / 4), read off
    its keys by `slots.degrees` and `slots.t_exponent`."""
    out = {}
    for key, coeff in p.coeffs.items():
        e = slots.t_exponent(key)
        for value, shift, degree in zip(values, shifts, slots.degrees(key, len(values))):
            coeff, e = coeff * value**degree, e + shift * degree
        out[e] = out.get(e, FieldScalar(0)) + coeff
    return LaurentPoly(out)


@pytest.mark.parametrize("name", ["SL3", "SU(3,1)", "SU(4,1)", "SU(5,2)"])
def test_a_pinning_is_the_level_zero_map_at_substituted_slot_variables(name):
    """relative_pinning(c, d) at level l is X_a on free slot variables with
    x_k -> c_k t^-l on the link slots and d -> d t^-2l: the lemma by which
    one form check of X_a certifies every pinning of a (see
    `SUModel._form_certified`), true while numeric and symbolic pinnings
    share one code path."""
    model = ALGEBRA_MODELS[name]()
    rng = random.Random(0)
    for a in model.system.roots:
        nc, nd = model.coord_lengths(a)
        xs = [slots.var(k) for k in range(nc + nd)]
        x = model._symbolic_pin(a, xs[:nc], xs[nc:])
        for level in range(-2, 3):
            shifts = [exp4(-level)] * nc + [exp4(-2 * level)] * nd
            for idx in range(5):
                u = sample_coords(model, affine_root(a, level), rng, idx)
                image = [[_substituted(e, u.c + u.d, shifts) for e in row] for row in x.rows]
                assert model.relative_pinning(u) == LaurentMatrix(image), (a, level, u)


def _k_entries(model, alpha):
    """(entry, exponent key) of every slot of U_alpha whose coordinate lies in k."""
    lay = model.layout(alpha.root)
    e4 = exp4(-alpha.level)
    links = [] if lay.field else [(pos, e4) for pos, _, _ in lay.links]
    return links + ([] if lay.corner is None else [(lay.corner, 2 * e4)])


@pytest.mark.parametrize(
    "make", [lambda: split_sl(2), lambda: special_unitary(5, 2)], ids=["SL3", "SU(5,2)"]
)
def test_peel_is_peel_product_along_one_root(make):
    """peel(g, alpha) and peel_product(g, [alpha]) are one reader: peel
    passes, and builds nothing, exactly where peel_product returns the
    coordinates, on every root group at levels -1..1, and a coordinate in k
    that is not rational is NotInRootGroup from peel and ResidueNotIdentity
    from peel_product."""
    model = make()
    rng = random.Random(7)
    for a in model.system.roots:
        for level in (-1, 0, 1):
            alpha = affine_root(a, level)
            draws = basis_generators(model, alpha) + [
                sample_coords(model, alpha, rng, s) for s in range(5)
            ]
            for coords in draws:
                g = model.relative_pinning(coords)
                assert model.peel(g, alpha) is None
                assert model.peel_product(g, [alpha]) == [coords]
                # the same element one level up is in neither reading
                above = model.relative_pinning(coords._replace(alpha=affine_root(a, level + 1)))
                with pytest.raises(NotInRootGroup):
                    model.peel(above, alpha)
                with pytest.raises(ResidueNotIdentity):
                    model.peel_product(above, [alpha])
            for entry, e4 in _k_entries(model, alpha):
                bad = LaurentMatrix.from_entries(model.n, {entry: LaurentPoly({e4: 1 + I})})
                with pytest.raises(NotInRootGroup):
                    model.peel(bad, alpha)
                with pytest.raises(ResidueNotIdentity):
                    model.peel_product(bad, [alpha])


def test_peel_product_orders_out_of_filtration():
    # g = E13(b) E12(a) E23(c): the sum root's entry holds b + a c, so an order
    # holding a root with its two summands has no single read and is refused
    # as a misuse, whichever comes first, never as an axiom verdict
    sl3 = split_sl(2)
    a1, a2 = sl3.system.simple
    asum = vec(1, 0, -1)
    b, a, c = Q(5), Q(2), Q(3)
    g = (
        su_pinning(sl3, asum, 0, (b,))
        @ su_pinning(sl3, a1, 0, (a,))
        @ su_pinning(sl3, a2, 0, (c,))
    )
    order = [affine_root(asum, 0), affine_root(a1, 0), affine_root(a2, 0)]
    order2 = [affine_root(a1, 0), affine_root(a2, 0), affine_root(asum, 0)]
    for bad in (order, order2):
        assert not _one_read(bad)
        with pytest.raises(ValueError):
            sl3.peel_product(g, bad)
    # an interval order peels: the commutator of x_a1(a) and x_a2(c) is the
    # single factor x_asum(a c) of the open interval between them
    x1, x2 = affine_root(a1, 0), affine_root(a2, 0)
    comm = (
        su_pinning(sl3, a1, 0, (a,))
        @ su_pinning(sl3, a2, 0, (c,))
        @ su_pinning(sl3, a1, 0, (-a,))
        @ su_pinning(sl3, a2, 0, (-c,))
    )
    interval = open_interval(sl3.system, x1, x2)
    assert _one_read(interval)
    assert [cs.c for cs in sl3.peel_product(comm, interval)] == [(a * c,)]
    # a product that is not in the interval's groups is an axiom verdict
    with pytest.raises(ResidueNotIdentity):
        sl3.peel_product(g, interval)


def test_an_order_with_a_sum_of_three_members_is_refused():
    # e14 = e12 + e23 + e34: its entry in the product also holds the product
    # of the other three coordinates, so one read is not exact, and the
    # mismatch is an internal error, not an axiom verdict
    sl4 = split_sl(3)
    roots = [vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(1, 0, 0, -1)]
    order = [affine_root(a, 0) for a in roots]
    g = LaurentMatrix.identity(4)
    for a in roots:
        g = g @ su_pinning(sl4, a, 0, (2,))
    assert not _one_read(order)
    with pytest.raises(ValueError, match="two or more"):
        sl4.peel_product(g, order)
    # on BC1: a member twice another breaks the rule, and so does a sum of two
    # members at the corner 2 (e1, 1) of a third; a doubled root at an odd
    # level, as intervals keep it, does not
    x = affine_root(vec(1), 0)
    assert not _one_read([x, affine_root(vec(2), 0)])
    assert not _one_read([x, affine_root(vec(1), 1), affine_root(vec(1), 2)])
    assert _one_read([x, affine_root(vec(2), 1)])


@pytest.mark.parametrize("kind, rank", [(k, r) for k in ("A", "BC") for r in (1, 2, 3, 4)])
def test_every_interval_shape_meets_the_one_read_rule(kind, rank):
    """Every open interval of a prenilpotent pair at levels -1..1 meets the
    one-read rule, so a residue along it is an axiom verdict."""
    system = build_root_system(kind, rank)
    window = [affine_root(a, l) for a in system.roots for l in (-1, 0, 1)]
    pairs = [(x, y) for x in window for y in window if x != y and is_prenilpotent(x, y)]
    assert pairs
    for x, y in pairs:
        assert _one_read(open_interval(system, x, y)), (x, y)


def _symbolic_product(model, order):
    """The product over order of each member's element at level zero on its
    own slot variables, a corner variable included, with the link scalars and
    d of each member and the number of variables used."""
    g, built, k = LaurentMatrix.identity(model.n), [], 0
    for alpha in order:
        nc, nd = model.coord_lengths(alpha.root)
        c = tuple(slots.var(k + i) for i in range(nc))
        d = tuple(slots.var(k + nc + i) for i in range(nd))
        k += nc + nd
        lay, zs, corner = model._pin_scalars(RootGroupCoords(alpha, c, d))
        g = g @ model._pin(lay, zs, corner)
        built.append((alpha, zs, d[0] if d else None))
    return g, built, k


class CallersError(Exception):
    pass


@pytest.mark.parametrize(
    "model, orders, members",
    [(split_sl(2), 12, 12), (special_unitary(5, 2), 48, 80)],
    ids=["SL3", "SU(5,2)"],
)
def test_every_interval_at_level_zero_reads_back_whole(model, orders, members):
    """For every nonempty open interval of a prenilpotent pair at level 0, the
    product of the members' elements on disjoint slot variables reads back
    whole, with exactly the link scalars built and d as d0.  Along the order
    without its last member the read raises the caller's error."""
    window = [affine_root(a, 0) for a in model.system.roots]
    intervals = [
        open_interval(model.system, x, y)
        for x in window
        for y in window
        if x != y and is_prenilpotent(x, y)
    ]
    intervals = [order for order in intervals if order]
    assert (len(intervals), sum(map(len, intervals))) == (orders, members)
    for order in intervals:
        g, built, k = _symbolic_product(model, order)
        width = (k + 1) // 2
        assert model._read(g, order, CallersError, width) == built
        with pytest.raises(CallersError, match="^mismatch$"):
            model._read(g, order[:-1], CallersError, width)


def test_the_whole_read_checks_rationality():
    """On SU(3,1) an element of U_(2a) on slot variables whose link has a
    coefficient outside k is refused, printed in slot variables; the same link
    times 2 in place of sqrt(-1) reads back."""
    su = special_unitary(3, 1)
    double = affine_root(vec(2), 0)
    u0, u1, v0, v1 = map(slots.var, range(4))
    q2 = u0 * v1 - u1 * v0
    lay = su.layout(double.root)
    bad = su._pin(lay, [q2 * I], None)
    text = re.escape(slots.text(q2 * I, 2))
    with pytest.raises(ValueError, match=f"^coefficient {text} is not rational$"):
        su._read(bad, [double], ValueError, 2)
    good = su._pin(lay, [q2 * FieldScalar(2)], None)
    assert su._read(good, [double], ValueError, 2) == [(double, [q2 * FieldScalar(2)], None)]


def test_project_root_split_is_identity():
    sl3 = split_sl(2)
    for a in sl3.system.roots:
        assert sl3.project_root(a) == a
    with pytest.raises(IndexOutOfRange):
        sl3.project_root(vec(1, -1))


# -- special unitary ----------------------------------------------------------


def test_su_gram_matrix_frozen():
    su = special_unitary(3, 1)
    f = su.gram
    assert f.entry(0, 2) == LaurentPoly.one()
    assert f.entry(2, 0) == LaurentPoly.const(-1)
    assert f.entry(1, 1) == LaurentPoly.const(I)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)):
        assert f.entry(p, q).is_zero()


def test_su_module_dimensions():
    su31 = special_unitary(3, 1)
    dims31 = su31.descriptor()["module_dims"]
    assert dims31 == {"1": 2, "-1": 2, "2": 1, "-2": 1}
    su52 = special_unitary(5, 2)
    dims52 = su52.descriptor()["module_dims"]
    assert dims52["1,0"] == 2  # single roots see the one middle column twice
    assert dims52["1,-1"] == 2  # pair roots carry one extension scalar
    assert dims52["2,0"] == 1
    su73 = special_unitary(7, 3, -2)
    dims73 = su73.descriptor()["module_dims"]
    assert dims73["1,0,0"] == 2
    assert dims73["0,1,1"] == 2


def test_layouts_are_built_once_per_model():
    for model in (split_sl(2), special_unitary(3, 1), special_unitary(5, 2)):
        for a in model.system.roots:
            assert model.layout(a) is model.layout(tuple(a))
        # a vector that is not a relative root has no layout
        a = model.system.roots[0]
        for bad in (tuple(3 * x for x in a), a[:-1]):
            with pytest.raises(ReflectionLeftSystem):
                model.layout(bad)


def test_su_single_pinning_frozen_matrix():
    su = special_unitary(3, 1)
    g = su_pinning(su, vec(1), 0, (1, 0), (0,))
    assert g.entry(0, 1) == LaurentPoly.one()
    assert g.entry(1, 2) == LaurentPoly.const(I)
    assert g.entry(0, 2) == LaurentPoly.const(I * Q(1, 2))
    assert g.entry(0, 0).is_one() and g.entry(1, 1).is_one() and g.entry(2, 2).is_one()
    assert g.entry(1, 0).is_zero() and g.entry(2, 0).is_zero() and g.entry(2, 1).is_zero()
    assert su.contains(g)


def test_su_pinning_membership_all_types():
    """Pinnings of every root type land in the group and read back, also with
    factors -1/sqrt(d), d != -1, and corners summed over two or more links."""
    models = [
        special_unitary(3, 1),
        special_unitary(5, 2),
        special_unitary(4, 1, -15),
        special_unitary(6, 2, -7),
        special_unitary(7, 3, -5),
    ]
    rng = random.Random(43)
    for model in models:
        for a in model.system.roots:
            nc, nd = model.coord_lengths(a)
            for level in (-1, 0, 1, 2):
                c = tuple(Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(nc))
                d = tuple(Q(rng.randint(-4, 4)) for _ in range(nd))
                alpha = affine_root(a, level)
                g = model.relative_pinning(RootGroupCoords(alpha, c, d))
                assert model.contains(g)
                (back,) = model.peel_product(g, [alpha])
                assert back.c == c and back.d == d


def test_su_double_corner_exponent_is_doubled():
    su = special_unitary(3, 1)
    g = su_pinning(su, vec(1), 1, (1, 0), (0,))
    # linear part sits at t^-1, the corner at t^-2
    assert g.entry(0, 1) == LaurentPoly.t_power(-1)
    assert g.entry(0, 2) == LaurentPoly.term(I * Q(1, 2), -2)
    d = su_pinning(su, vec(2), 1, (1,))
    assert d.entry(0, 2) == LaurentPoly.term(1, -1)


def test_su_pair_pinning_conjugates_secondary():
    su = special_unitary(5, 2)
    g = su_pinning(su, vec(1, -1), 0, (2, 3))
    z = FieldScalar(2, 3, -1)
    assert g.entry(0, 1) == LaurentPoly.const(z)
    assert g.entry(3, 4) == LaurentPoly.const(-z.conj())
    assert su.contains(g)
    h = su_pinning(su, vec(1, 1), 0, (1, 1))
    w = FieldScalar(1, 1, -1)
    assert h.entry(0, 3) == LaurentPoly.const(w)
    assert h.entry(1, 4) == LaurentPoly.const(w.conj())


def test_su_strict_read_rejects_tampering():
    su = special_unitary(3, 1)
    g = su_pinning(su, vec(1), 0, (1, 0), (0,))
    rows = [list(r) for r in g.rows]
    rows[0][2] = LaurentPoly.const(I)  # break the corner constraint
    bad = LaurentMatrix(rows)
    with pytest.raises(NotInRootGroup):
        su.peel(bad, affine_root(vec(1), 0))


def _one_entry(entry, exponent, value):
    """The identity of SU(3,1) with value t^exponent at entry."""
    return LaurentMatrix.from_entries(3, {entry: LaurentPoly.term(value, exponent)})


def _corner_off_its_correction(value):
    """x_(e1, 1)(z = 1 + 2 sqrt(-1), d = 0) in SU(3,1), nonzero links and all,
    with value t^-2 added to its corner entry, so d0 = value."""
    su = special_unitary(3, 1)
    g = su_pinning(su, vec(1), 1, (1, 2), (0,))
    rows = [list(r) for r in g.rows]
    rows[0][2] = rows[0][2] + LaurentPoly.term(value, -2)
    return LaurentMatrix(rows)


@pytest.mark.parametrize(
    "alpha, make",
    [
        (affine_root(vec(2), 1), lambda v: _one_entry((0, 2), -1, v)),
        (affine_root(vec(-2), 0), lambda v: _one_entry((2, 0), 0, v)),
        (affine_root(vec(1), 1), lambda v: _one_entry((0, 2), -2, v)),
        (affine_root(vec(1), 1), _corner_off_its_correction),
    ],
    ids=["long-root-link", "long-root-link-below", "corner", "corner-off-its-correction"],
)
def test_peel_rejects_a_coordinate_in_k_that_is_not_rational(alpha, make):
    """The entry at a long root's link, or d0 = corner - correction at a
    single root's corner, with or without links set, matches its rebuild but
    lies in k' and not in k.  The check runs on d0, not on the corner entry,
    which is not rational once a link is set."""
    su = special_unitary(3, 1)
    bad = make(1 + I)
    miss = f"^{re.escape(str(alpha))}: matrix is not in this root group$"
    with pytest.raises(NotInRootGroup, match=miss):
        su.peel(bad, alpha)
    residue = f"^residue left after peeling along {re.escape(str([str(alpha)]))}$"
    with pytest.raises(ResidueNotIdentity, match=residue):
        su.peel_product(bad, [alpha])
    with pytest.raises(ValueError, match=r"^coefficient 1\+1\*sqrt\(-1\) is not rational$"):
        su._read(bad, [alpha], ValueError)
    # the same entry with a rational value peels, and reads back as 3
    good = make(3)
    su.peel(good, alpha)
    (coords,) = su.peel_product(good, [alpha])
    assert coords.alpha == alpha and Q(3) in coords.c + coords.d


def test_membership_violation_on_wrong_coordinate_count():
    su = special_unitary(3, 1)
    with pytest.raises(MembershipViolation):
        su.relative_pinning(RootGroupCoords(affine_root(vec(1), 0), (Q(1),), ()))


def q2_at(q2, u, v):
    """The certified q2 evaluated at rational u and v."""
    point = (*u, *v)
    total = Q(0)
    for key, c in q2.coeffs.items():
        term = c.base
        for x, d in zip(point, slots.degrees(key, len(point))):
            term *= Q(x) ** d
        total += term
    return total


def test_q2_frozen_value_and_skewness():
    su = special_unitary(3, 1)
    q2 = su.q2_additive(vec(1))
    assert slots.text(q2, 2) == "u0*v1 - u1*v0"
    assert q2_at(q2, (1, 0), (0, 1)) == 1
    assert q2_at(q2, (0, 1), (1, 0)) == -1
    assert slots.swap(q2, 2) == -q2
    # q2(v, v) = 0 so equal arguments are strictly additive
    assert q2_at(q2, (2, 3), (2, 3)) == 0


def test_q2_empty_on_pair_roots():
    # pair and long roots are not multipliable: the certificate is strict
    # additivity, and no doubled-root factor is returned
    su = special_unitary(5, 2)
    assert su.q2_additive(vec(1, -1)) is None
    assert su.q2_additive(vec(2, 0)) is None
    assert all(split_sl(2).q2_additive(a) is None for a in split_sl(2).system.roots)


@pytest.mark.parametrize(
    "dim, witt, disc", [(3, 1, -1), (4, 1, -1), (5, 2, -1), (5, 2, -3)]
)
def test_symbolic_q2_matches_the_sampled_product(dim, witt, disc):
    """The certified q2 at seeded rational points is the doubled-root
    coordinate of the numeric x(-(v + w)) x(v) x(w), peeled at (2a, 2l), at
    every level of the default window; off the multipliable roots the numeric
    product is the identity."""
    model = special_unitary(dim, witt, disc)
    rng = random.Random(dim * 100 + witt * 10 - disc)
    for a in model.system.roots:
        q2 = model.q2_additive(a)
        nc, nd = model.coord_lengths(a)
        for level in range(-2, 3):
            alpha = affine_root(a, level)
            for _ in range(2):
                v, w = (
                    tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc))
                    for _ in "vw"
                )
                pins = [
                    model.relative_pinning(RootGroupCoords(alpha, c, (Q(0),) * nd))
                    for c in (tuple(-x - y for x, y in zip(v, w)), v, w)
                ]
                g = pins[0] @ pins[1] @ pins[2]
                if q2 is None:
                    assert g.is_identity()
                    continue
                (got,) = model.peel_product(g, [affine_root(vec(*(2 * x for x in a)), 2 * level)])
                assert got.c == (q2_at(q2, v, w),)


def test_coords_neg_inverts_pinnings():
    # every inverse rgdcheck builds rests on x(c) x(-c) = x(-c) x(c) = 1
    rng = random.Random(43)
    models = [split_sl(2)]
    models += [special_unitary(dim, witt) for dim, witt in ((3, 1), (4, 1), (5, 2))]

    def draw(k):
        return tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k))

    for model in models:
        for a in model.system.roots:
            nc, nd = model.coord_lengths(a)
            for level in (-1, 0, 1):
                alpha = affine_root(a, level)
                for _ in range(3):
                    cs = RootGroupCoords(alpha, draw(nc), draw(nd))
                    g = model.relative_pinning(cs)
                    ginv = model.relative_pinning(coords_neg(cs))
                    assert (g @ ginv).is_identity(), (model.kind, model.n, cs)
                    assert (ginv @ g).is_identity(), (model.kind, model.n, cs)
                    assert coords_neg(coords_neg(cs)) == cs


def test_w_element_split_frozen():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    u = RootGroupCoords(affine_root(a, 0), (Q(3),), ())
    w = sl2.w_element_parts(u)[0]
    assert w.entry(0, 1) == LaurentPoly.const(3)
    assert w.entry(1, 0) == LaurentPoly.const(Q(-1, 3))
    assert w.entry(0, 0).is_zero() and w.entry(1, 1).is_zero()
    # at level 1 the corners pick up t^-1 and t
    u1 = RootGroupCoords(affine_root(a, 1), (Q(1),), ())
    w1 = sl2.w_element_parts(u1)[0]
    assert w1.entry(0, 1) == LaurentPoly.t_power(-1)
    assert w1.entry(1, 0) == LaurentPoly.const(-1) * LaurentPoly.t_power(1)


def test_w_element_su_frozen():
    su = special_unitary(3, 1)
    u = RootGroupCoords(affine_root(vec(1), 0), (Q(1), Q(0)), (Q(0),))
    w, w_inv, v1, v2, x = su.w_element_parts(u)
    assert w.entry(0, 2) == LaurentPoly.const(I * Q(1, 2))
    assert w.entry(1, 1) == LaurentPoly.const(-1)
    assert w.entry(2, 0) == LaurentPoly.const(I * Q(-2))
    assert w == v1 @ x @ v2
    # the two side factors live in the opposite root group
    neg = affine_root(vec(-1), 0)
    su.peel(v1, neg)
    su.peel(v2, neg)
    # conjugation by w reflects the positive generator to the negative side
    g = su_pinning(su, vec(1), 0, (1, 0), (0,))
    conj = w @ g @ w_inv
    (got,) = su.peel_product(conj, [neg])
    assert got.c == (Q(-2), Q(0))


def test_w_element_levels_conjugate_consistently():
    su = special_unitary(3, 1)
    rng = random.Random(47)
    for level in (-1, 0, 1):
        for a in (vec(1), vec(-1), vec(2)):
            nc, nd = su.coord_lengths(a)
            c = tuple(Q(rng.randint(-3, 3)) for _ in range(nc))
            if all(x == 0 for x in c):
                c = (Q(1),) + c[1:]
            d = tuple(Q(rng.randint(-2, 2)) for _ in range(nd))
            u = RootGroupCoords(affine_root(a, level), c, d)
            try:
                w, w_inv, v1, v2, x = su.w_element_parts(u)
            except RankOneSolveFailed:
                continue
            assert su.contains(w)
            assert w == v1 @ x @ v2
            # the inverse built from the factors is the inverse
            assert (w @ w_inv).is_identity() and (w_inv @ w).is_identity()


SU_MODELS = {"SU(4,1)": special_unitary(4, 1), "SU(5,2)": special_unitary(5, 2)}
SU_ROOT_CASES = [
    pytest.param(model, a, level, id=f"{name}_a{','.join(map(str, a))}_l{level}")
    for name, model in SU_MODELS.items()
    for a in model.system.roots
    for level in (-1, 0, 1)
]


@pytest.mark.parametrize("model, a, level", SU_ROOT_CASES)
def test_every_su_root_group_peels_back_and_reflects(model, a, level):
    # every layout shape, both signs of every root, and every corner; on
    # SU(4,1) the single roots +-e1 have two links each
    rng = random.Random(f"{model.n}-{a}-{level}")
    nc, nd = model.coord_lengths(a)
    alpha = affine_root(a, level)
    c = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nc))
    if not any(c):
        c = (Q(1),) + c[1:]
    d = tuple(Q(rng.randint(-3, 3)) for _ in range(nd))
    samples = [RootGroupCoords(alpha, c, d)]
    if nd:
        # a pure doubled-root part takes the corner route of the rank one solver
        samples.append(RootGroupCoords(alpha, (Q(0),) * nc, (Q(rng.randint(1, 3)),)))
    for u in samples:
        x = model.relative_pinning(u)
        assert model.peel_product(x, [alpha]) == [u]
        w, w_inv, v1, v2, x_again = model.w_element_parts(u)
        assert x_again == x
        assert w == v1 @ x @ v2
        assert (w @ w_inv).is_identity()
        assert model.contains(w)


W_MODELS = {
    "SL2": split_sl(1),
    "SL3": split_sl(2),
    "SU(3,1)": special_unitary(3, 1),
    "SU(4,1)": special_unitary(4, 1),
    "SU(5,2)": special_unitary(5, 2),
}


@pytest.mark.parametrize("name", W_MODELS)
def test_w_element_at_a_level_is_the_coroot_conjugate_of_level_zero(name):
    """x_(a, l)(c, d) = k x_(a, 0)(c, d) k^-1 for k = a^vee(t^(-l/2)), so the
    representative built at level l from three pinnings is the conjugate of
    the level-zero one with the same coordinates, factor by factor."""
    model = W_MODELS[name]
    for a in model.system.roots:
        nc, nd = model.coord_lengths(a)
        coords = [((Q(2),) + (Q(-1, 3),) * (nc - 1), (Q(1, 2),) * nd)]
        if nd:
            # a pure doubled-root part delegates to the corner group (2a, 2l)
            coords.append(((Q(0),) * nc, (Q(3),)))
        for level in range(-2, 3):
            kappa = model.coroot(a, LaurentPoly.t_power(Q(-level, 2)))
            kinv = kappa.inverse()
            for c, d in coords:
                parts = model.w_element_parts(
                    RootGroupCoords(affine_root(a, level), c, d)
                )
                at0 = model.w_element_parts(RootGroupCoords(affine_root(a, 0), c, d))
                for got, base in zip(parts[:4], at0):
                    assert got == kappa @ base @ kinv, (a, level, c, d)
                w, w_inv = parts[:2]
                assert (w @ w_inv).is_identity()


def test_w_element_rejects_trivial_input():
    sl2 = split_sl(1)
    a = sl2.system.simple[0]
    zero = RootGroupCoords(affine_root(a, 0), (Q(0),), ())
    with pytest.raises(RankOneSolveFailed):
        sl2.w_element_parts(zero)


def test_project_root_su52_table():
    su = special_unitary(5, 2)

    def e(i, j):
        v = [Q(0)] * 5
        v[i], v[j] = Q(1), Q(-1)
        return tuple(v)

    expected = {
        (0, 1): vec(1, -1),
        (0, 2): vec(1, 0),
        (0, 3): vec(1, 1),
        (0, 4): vec(2, 0),
        (1, 2): vec(0, 1),
        (1, 3): vec(0, 2),
        (1, 4): vec(1, 1),
        (2, 3): vec(0, 1),
        (2, 4): vec(1, 0),
        (3, 4): vec(1, -1),
    }
    for (i, j), rel in expected.items():
        assert su.project_root(e(i, j)) == rel
        assert su.project_root(e(j, i)) == tuple(-x for x in rel)
        # upper triangular absolute roots project to positive relative roots
        assert su.system.is_positive_root(rel)


def test_project_root_vanishes_on_middle_differences():
    su = special_unitary(5, 2)
    v = [Q(0)] * 5
    # only one middle slot in SU(5, 2), so build the case in SU(4, 1)
    su41 = special_unitary(4, 1)
    v = [Q(0)] * 4
    v[1], v[2] = Q(1), Q(-1)
    assert su41.project_root(tuple(v)) is None
    with pytest.raises(IndexOutOfRange):
        su.project_root(vec(1, -1))
    with pytest.raises(IndexOutOfRange):
        su.project_root(vec(1, 1, 0, 0, -2))


def test_su_constructor_validation():
    with pytest.raises(UnsupportedType):
        special_unitary(2, 1)  # dim < 2*witt + 1
    with pytest.raises(UnsupportedType):
        special_unitary(3, 0)
    with pytest.raises(UnsupportedType):
        special_unitary(3, 1, disc=5)
    with pytest.raises(UnsupportedType):
        special_unitary(3, 1, disc=-4)  # not squarefree


def test_build_model_registry():
    sl = build_model("sl", rank=2)
    assert sl.kind == "sl" and sl.n == 3
    su = build_model("su", dim=5, witt=2)
    assert su.kind == "su" and su.disc == -1
    with pytest.raises(UnsupportedType):
        build_model("sp", rank=2)


def test_centralizer_samples_are_members():
    rng = random.Random(53)
    for model in (split_sl(2), special_unitary(3, 1), special_unitary(5, 2)):
        for g, ginv in model.sample_centralizer_elements(rng, 9):
            assert model.contains(g)
            assert model.is_centralizer_element(g)
            assert (g @ ginv).is_identity() and (ginv @ g).is_identity()


def test_centralizer_samples_with_two_anisotropic_slots():
    # every third sample mixes in a rotation of the first two middle slots
    for dim, witt in ((4, 1), (6, 2)):
        model = special_unitary(dim, witt)
        samples = model.sample_centralizer_elements(random.Random(59), 3)
        assert len(samples) == 3
        assert all(model.is_centralizer_element(g) for g, _ in samples)
        # the sampler inverts the rotation by transposing it
        assert all((g @ ginv).is_identity() for g, ginv in samples)
        h0, h1 = model.middles[:2]
        assert not samples[2][0].entry(h0, h1).is_zero()


def test_split_centralizer_sampler_raises_on_a_non_member(monkeypatch):
    # the check survives python -O: it is a raise, not an assert
    sl3 = split_sl(2)
    monkeypatch.setattr(type(sl3), "is_centralizer_element", lambda self, g: False)
    with pytest.raises(MembershipViolation, match="centralizer sample left the group"):
        sl3.sample_centralizer_elements(random.Random(61), 1)


def test_is_centralizer_element_rejections():
    sl2 = split_sl(1)
    # unipotent elements move between weight blocks
    assert not sl2.is_centralizer_element(su_pinning(sl2, sl2.system.simple[0], 0, (1,)))
    # torus cocharacter values are non-constant in t
    tdiag = sl2.coroot(sl2.system.simple[0], LaurentPoly.t_power(1))
    assert not sl2.is_centralizer_element(tdiag)
    const = LaurentMatrix.diagonal([LaurentPoly.const(2), LaurentPoly.const(Q(1, 2))])
    assert sl2.is_centralizer_element(const)
    su = special_unitary(3, 1)
    # diag(lam, tau(lam)/lam, tau(lam)^-1) has determinant one, preserves the
    # form, and acts on each weight slot by a constant
    lam = FieldScalar(1, -2, -1)
    mid = lam.conj() / lam
    rot = LaurentMatrix.diagonal(
        [
            LaurentPoly.const(lam),
            LaurentPoly.const(mid),
            LaurentPoly.const(lam.conj().inverse()),
        ]
    )
    assert su.contains(rot)
    assert su.is_centralizer_element(rot)
    # the same shape with a det-breaking middle is rejected
    bad = LaurentMatrix.diagonal(
        [LaurentPoly.one(), LaurentPoly.const(mid), LaurentPoly.one()]
    )
    assert not su.is_centralizer_element(bad)


def test_generator_coords_cover_every_slot():
    su = special_unitary(3, 1)
    alpha = affine_root(vec(1), 0)
    got = basis_generators(su, alpha)
    assert len(got) == 3  # two linear slots and one corner slot
    slots = [cs.c + cs.d for cs in got]
    assert (Q(1), Q(0), Q(0)) in slots
    assert (Q(0), Q(1), Q(0)) in slots
    assert (Q(0), Q(0), Q(1)) in slots


# -- the pinning builder ----------------------------------------------------------------

BUILDER_MODELS = [
    ("SL2", lambda: split_sl(1)),
    ("SL3", lambda: split_sl(2)),
    ("SL4", lambda: split_sl(3)),
    ("SU(3,1)", lambda: special_unitary(3, 1)),
    ("SU(4,1)", lambda: special_unitary(4, 1)),
    ("SU(5,2)", lambda: special_unitary(5, 2)),
    ("SU(6,2)", lambda: special_unitary(6, 2)),
]


@pytest.mark.parametrize(
    "make", [m for _, m in BUILDER_MODELS], ids=[n for n, _ in BUILDER_MODELS]
)
def test_pinning_builder_round_trips_through_peel(make):
    """peel(relative_pinning(c)) == c for every relative root at levels -2..2,
    with the three fixed draws (1, -1, 1/2 on every slot) and three random
    draws, including draws with zero slots."""
    model = make()
    rng = random.Random(7)
    for a_rel in model.system.roots:
        for level in range(-2, 3):
            alpha = affine_root(a_rel, level)
            draws = [sample_coords(model, alpha, rng, s) for s in range(6)]
            nc, nd = model.coord_lengths(a_rel)
            # one slot set, the others zero
            one_slot = (Q(0),) * (nc - 1) + (Q(-3, 2),)
            draws.append(RootGroupCoords(alpha, one_slot, (Q(0),) * nd))
            for coords in draws:
                assert model.peel_product(model.relative_pinning(coords), [alpha]) == [coords]
