"""Concrete matrix models carrying affine root group data.

Two families are implemented over the rational Laurent ring:

  * split_sl(rank): SL_(rank+1) over Q[t, t^-1]; the relative roots are the
    type A roots e_i - e_j and the root groups are elementary matrices.
  * special_unitary(dim, witt, disc): SU of a skew-hermitian form over
    Q(sqrt(disc))[t, t^-1], built on a basis with `witt` hyperbolic pairs at
    the outer indices and an anisotropic diagonal sqrt(disc) block in the
    middle.  The relative roots form BC_witt; root groups for the short
    relative roots are two-step unipotent and carry a quadratic correction.

Coordinates on a root group are rational tuples: for each relative root a
the group U_(a, level) is parametrized by RootGroupCoords(alpha, c, d) where
c has one rational slot per k-basis vector of the root module of a, and d
(possibly empty) covers the module of the doubled root 2a.  Every root group
has one RootLayout shape, read off the slot weights and the form F by one
rule, as U_a = exp(g_a + g_2a): each matrix position of weight a is a link
holding a linear coordinate z, unless it is the partner of an earlier one.
The partner of (p, q) is its image under X -> -F^-1 X* F and holds
factor * tau(z); a position that is its own partner, or any position of a
model with no form (SL), holds z in k, and the others z in k'.  The position
of weight 2a, if any, is the corner: it carries d shifted by the corner
entry of N^2 / 2, N the linear part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .affine import AffineRoot, affine_root
from .errors import (
    IndexOutOfRange,
    MembershipViolation,
    NotInRootGroup,
    NotMonomial,
    RankOneSolveFailed,
    ResidueNotIdentity,
    PeelFailure,
    ReflectionLeftSystem,
    UnsupportedType,
)
from .laurent import ONE, ZERO, LaurentMatrix, LaurentPoly, _nonzero_poly, _unit_plus, exp4, form_check
from .roots import (
    RootSystem,
    Vector,
    add,
    build_root_system,
    pairing,
    reflect_vector,
    scale,
    sub,
)
from . import slots
from .scalars import FieldScalar, from_parts, is_squarefree, sqrt_of

Q = Fraction

_HALF = FieldScalar(Q(1, 2))


class RootGroupCoords(NamedTuple):
    """Coordinates of one affine root group element.

    c: rational coordinates on the root module of alpha.root
    d: rational coordinates on the module of the doubled root (empty if none)
    """

    alpha: AffineRoot
    c: tuple[Q, ...]
    d: tuple[Q, ...] = ()

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c) and all(x == 0 for x in self.d)


def coords_neg(x: RootGroupCoords) -> RootGroupCoords:
    """Coordinates of the inverse element: the quadratic correction is skew,
    so negating every coordinate inverts the pinning exactly."""
    return RootGroupCoords(
        x.alpha, tuple(-a for a in x.c), tuple(-a for a in x.d)
    )


class RootLayout(NamedTuple):
    """Matrix entry positions and module data of one relative root group.

    Each linear coordinate z has one link (position, partner, factor): z sits
    at position, a matrix entry of weight a, and factor * tau(z) at partner,
    the image of position under X -> -F^-1 X* F, when that is another entry.
    z lies in k' (two rational slots) when the links have partners (field),
    else in k (one slot).  On a multipliable root the doubled-root coordinate
    sits at corner, the entry of weight 2a, at twice the exponent, shifted by
    half the sum of factor * z * tau(z) over the links; corner is None
    otherwise.  `GroupModel._build_layout` gives every layout.
    """

    links: tuple[tuple, ...]  # (position, partner, factor) for each z
    field: bool = False
    corner: tuple[int, int] | None = None


def _slot_counts(lay: RootLayout) -> tuple[int, int]:
    """Rational slots: 1 per link (2 in k') and 1 at a corner, if any."""
    return len(lay.links) * (1 + lay.field), (0 if lay.corner is None else 1)


def _one_read(order: list[AffineRoot]) -> bool:
    """One read of a product over the order is exact: no member, and no corner
    2c of a member c, is a sum over two or more distinct members, each adding
    its root or twice its root (levels summed alike), and no member is twice
    another.  A corner is counted on every member, which is conservative; every
    open interval meets the rule, since its members are p*a + q*b, p + q <= 3."""
    some: set = set()  # sums over one or more members
    multi: set = set()  # sums over two or more members
    for a in order:
        terms = {(a.root, a.level), (scale(2, a.root), 2 * a.level)}
        sums = {(add(r, s), l + m) for r, l in some for s, m in terms}
        multi |= sums
        some |= sums | terms
    members = {(a.root, a.level) for a in order}
    doubles = {(scale(2, a.root), 2 * a.level) for a in order}
    return multi.isdisjoint(members | doubles) and members.isdisjoint(doubles)


class GroupModel:
    """Common interface of the concrete matrix models."""

    kind: str
    n: int
    disc: int | None
    system: RootSystem
    gram: LaurentMatrix | None  # the form F, None for SL
    _layouts: dict[Vector, RootLayout]

    # -- per-model hooks -------------------------------------------------------

    def slot_weight(self, slot: int) -> Vector:
        """Weight of a basis vector under the maximal split torus."""
        raise NotImplementedError

    def contains(self, g: LaurentMatrix) -> bool:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def sample_centralizer_elements(
        self, rng, count: int
    ) -> list[tuple[LaurentMatrix, LaurentMatrix]]:
        """Sampled (h, h^-1) pairs of torus centralizer elements."""
        raise NotImplementedError

    # -- shared operations -------------------------------------------------------

    def _build_layouts(self) -> None:
        """Lay out every relative root group once, when the model is built."""
        self._layouts = {a: self._build_layout(a) for a in self.system.roots}

    def _build_layout(self, a_rel: Vector) -> RootLayout:
        """The layout of U_a read off the slot weights and the form F, as U_a
        = exp(g_a + g_2a) in characteristic 0: one link at each position
        (p, q) of weight a, in lexicographic order.  Row p of F holds one
        entry, at column s(p), and X -> -F^-1 X* F sends (p, q) to its
        partner (s(q), s(p)) with factor -F[p][s(p)] / F[q][s(q)].  Of two
        partners the first carries z; a position that is its own partner, or
        any position with no form, is a link in k.  The corner is the
        position of weight 2a, if there is one."""
        w = [self.slot_weight(p) for p in range(self.n)]

        def at(b: Vector) -> list[tuple[int, int]]:
            return [(p, q) for p, wp in enumerate(w) for q, wq in enumerate(w) if sub(wp, wq) == b]

        form = None if self.gram is None else [next(iter(r.items())) for r in self.gram.sparse]
        links, partners = [], set()
        for p, q in at(a_rel):
            if (p, q) in partners:
                continue
            link = ((p, q), None, None)
            if form is not None:
                (sp, fp), (sq, fq) = form[p], form[q]
                if (sq, sp) != (p, q):
                    partners.add((sq, sp))
                    link = ((p, q), (sq, sp), -fp.coeff(0) / fq.coeff(0))
            links.append(link)
        corner = at(scale(2, a_rel))
        return RootLayout(tuple(links), links[0][1] is not None, corner[0] if corner else None)

    def layout(self, a_rel: Vector) -> RootLayout:
        lay = self._layouts.get(tuple(a_rel))
        if lay is None:
            raise ReflectionLeftSystem(f"{a_rel} is not a relative root")
        return lay

    def coord_lengths(self, a_rel: Vector) -> tuple[int, int]:
        """Rational slots (in c, in d) of the root group of a_rel."""
        return _slot_counts(self.layout(a_rel))

    def _module_dims(self) -> dict[str, int]:
        """k-dimension of each root module, keyed by the root's coordinates."""
        dims = {",".join(map(str, a)): self.coord_lengths(a)[0] for a in self.system.roots}
        return dict(sorted(dims.items()))

    def project_root(self, absolute: Vector) -> Vector | None:
        """Restriction of an absolute root e_i - e_j to the split torus.

        Returns the relative root, or None when the restriction vanishes
        (both indices in the anisotropic middle block of SU).
        """
        if sorted(absolute) != [-1] + [0] * (self.n - 2) + [1]:
            raise IndexOutOfRange(f"{absolute} is not e_i - e_j in Q^{self.n}")
        i, j = list(absolute).index(1), list(absolute).index(-1)
        w = sub(self.slot_weight(i), self.slot_weight(j))
        if not any(w):
            return None
        if not self.system.contains(w):
            raise IndexOutOfRange(f"projection {w} is not a relative root")
        return w

    def coroot(self, a_rel: Vector, lam: LaurentPoly) -> LaurentMatrix:
        """The coroot cocharacter of the relative root, evaluated at lam.

        lam must be a unit monomial with rational coefficient; the result is
        the diagonal matrix acting on each weight slot by lam^<weight, a^vee>.
        """
        if not self.system.contains(a_rel):
            raise ReflectionLeftSystem(f"{a_rel} is not a relative root")
        if not lam.is_monomial():
            raise NotMonomial(f"coroot argument {lam} is not a unit monomial")
        if not lam.is_rational:
            raise NotMonomial("coroot argument must have a rational coefficient")
        # a slot weight is 0 or +-e_i, so each exponent is an int
        g = LaurentMatrix.diagonal(
            [lam.monomial_pow(pairing(self.slot_weight(p), a_rel)) for p in range(self.n)]
        )
        if not self.contains(g):
            raise MembershipViolation("coroot value left the group")
        return g

    def relative_pinning(self, coords: RootGroupCoords) -> LaurentMatrix:
        """The canonical element of U_alpha with the given coordinates; it only
        builds, as RGD0 and RGD1 check membership on the inputs they draw."""
        lay, zs, corner = self._pin_scalars(coords)
        return self._pin(lay, zs, corner, exp4(-coords.alpha.level))

    def _pin_scalars(
        self, coords: RootGroupCoords
    ) -> tuple[RootLayout, list, FieldScalar | None]:
        """(layout, link scalars, corner entry) from which `_pin` builds the
        element of U_alpha with the given coordinates, rational or in slot
        variables, at any level: the corner is the links' correction plus d."""
        lay = self.layout(coords.alpha.root)
        nc, nd = _slot_counts(lay)
        if len(coords.c) != nc or len(coords.d) != nd:
            got = f"{len(coords.c)}+{len(coords.d)}"
            raise MembershipViolation(f"expected {nc}+{nd} coordinates, got {got}")
        zs = self._link_scalars(lay, coords.c)
        corner = None
        if nd:
            corner = self._correction(lay, zs) + coords.d[0]
        return lay, zs, corner

    def _pin(self, lay: RootLayout, zs: list, corner, e4: int | None = None) -> LaurentMatrix:
        """The identity with each link scalar z at its position, factor * tau(z)
        at its partner and the corner: field scalars at exponents e4 and 2 * e4,
        or, for e4 None, polynomials in slot variables (see `slots`) as they
        are.  Entries lie off the diagonal; unset rows are shared unit rows."""
        entries = []
        for (pos, partner, factor), z in zip(lay.links, zs):
            if not z.is_zero():
                entries.append((pos, z if e4 is None else _nonzero_poly({e4: z})))
                if partner is not None:
                    w = z.conj() * factor
                    entries.append((partner, w if e4 is None else _nonzero_poly({e4: w})))
        if corner is not None and not corner.is_zero():
            entry = corner if e4 is None else _nonzero_poly({2 * e4: corner})
            entries.append((lay.corner, entry))
        return _unit_plus(self.n, entries)

    def _is_pin(self, g: LaurentMatrix, lay: RootLayout, zs: list, corner, e4=None) -> bool:
        """Whether g == `_pin(lay, zs, corner, e4)`, decided on g's stored
        entries with nothing built: every diagonal entry is 1, each cell the
        pinning sets holds its entry (the one term at e4, 2 * e4 at the corner,
        or the whole entry for e4 None), and g stores n entries more than the
        cells matched.  A layout's cells are distinct and off the diagonal, so
        that count leaves no other entry."""
        rows, n = g.sparse, self.n
        if g.n != n or [*map(dict.get, rows, range(n))].count(ONE) != n:
            return False
        cells = []
        for (pos, partner, factor), z in zip(lay.links, zs):
            if not z.is_zero():
                cells.append((pos, z, e4))
                if partner is not None:
                    cells.append((partner, z.conj() * factor, e4))
        if corner is not None and not corner.is_zero():
            cells.append((lay.corner, corner, None if e4 is None else 2 * e4))
        for (i, j), x, e in cells:
            p = rows[i].get(j)
            if p is None or p.coeffs != (x.coeffs if e is None else {e: x}):
                return False
        return sum(map(len, rows)) == n + len(cells)

    def _link_scalars(self, lay: RootLayout, c: tuple) -> list:
        """The link scalars z named by rational or slot variable coordinates c."""
        if c[0].__class__ is LaurentPoly:
            if lay.field:
                return [c[k] + c[k + 1] * self.s for k in range(0, len(c), 2)]
            return list(c)
        if not lay.field:
            return list(map(FieldScalar.coerce, c))
        return [from_parts(c[k], c[k + 1], self.disc) for k in range(0, len(c), 2)]

    @staticmethod
    def _correction(lay: RootLayout, zs: list):
        """The corner shift fixed by the linear part N: the corner entry of
        N^2 / 2, half the sum of factor * z * tau(z) over the links."""
        terms = [z * z.conj() * factor for (_, _, factor), z in zip(lay.links, zs)]
        return sum(terms[1:], terms[0]) * _HALF

    def _check_scalars(
        self, lay: RootLayout, zs: list, corner, error: Callable[[str], Exception], width=None
    ) -> FieldScalar | None:
        """The doubled-root scalar d0 = corner - correction of zs, or None off a
        corner, once every coordinate in k is checked rational: each link of a
        layout in k, and d0.  One that is not raises error, which prints it by
        `slots.text` at width if width is set (a polynomial in slot variables)."""
        d0 = None if lay.corner is None else corner - self._correction(lay, zs)
        for x in ([] if lay.field else zs) + ([] if d0 is None else [d0]):
            if not x.is_rational:
                text = x if width is None else slots.text(x, width)
                raise error(f"coefficient {text} is not rational")
        return d0

    def _coords(self, alpha: AffineRoot, zs: list, d0) -> RootGroupCoords:
        """Coordinates of the element of U_alpha with link scalars zs and, on a
        multipliable root, doubled-root scalar d0, as `_check_scalars` passes
        them."""
        field = self.layout(alpha.root).field
        c = tuple(x for z in zs for x in ((z.base, z.ext) if field else (z.base,)))
        return RootGroupCoords(alpha, c, () if d0 is None else (d0.base,))

    def _read(
        self,
        g: LaurentMatrix,
        order: list[AffineRoot],
        error: Callable[[str], Exception],
        width: int | None = None,
    ) -> list[tuple]:
        """(alpha, link scalars, d0) for each member of order, read off g once
        as the ordered product over order: each member's link scalars and corner
        come off g at its own entries, at its exponent, or whole for width set
        (level-zero members on slot variables, as `_pin` puts them with no e4).
        One member is compared with g where g stores it (`_is_pin`), and nothing
        is built; for two or more, whose product has cross terms, the product of
        their pinnings is rebuilt by `_pin` and compared with g (a member read
        as zero pins the identity and is not built).  Only then does
        `_check_scalars` check the scalars and give d0.  A mismatch, or a
        coordinate in k that is not rational, raises error."""
        reads, built = [], None
        one = len(order) == 1
        zero = FieldScalar.is_zero if width is None else LaurentPoly.is_zero
        for alpha in order:
            lay = self.layout(alpha.root)
            if width is None:
                e4 = exp4(-alpha.level)
                zs = [g.entry(p, q).coeff(e4) for (p, q), _, _ in lay.links]
                corner = None if lay.corner is None else g.entry(*lay.corner).coeff(2 * e4)
            else:
                e4, zs = None, [g.entry(p, q) for (p, q), _, _ in lay.links]
                corner = None if lay.corner is None else g.entry(*lay.corner)
            reads.append((alpha, lay, zs, corner))
            if not one and not (all(map(zero, zs)) and (corner is None or zero(corner))):
                x = self._pin(lay, zs, corner, e4)
                built = x if built is None else built @ x
        if one:
            same = self._is_pin(g, lay, zs, corner, e4)
        else:
            same = g.is_identity() if built is None else built == g
        if not same:
            raise error("mismatch")
        return [(a, zs, self._check_scalars(lay, zs, c, error, width)) for a, lay, zs, c in reads]

    def peel(self, g: LaurentMatrix, alpha: AffineRoot) -> None:
        """Check that g lies in U_alpha, read once and compared where g stores
        it (see `_read`), or raise NotInRootGroup; no matrix and no coordinates
        are built, and membership in G is not checked.
        `peel_product(g, [alpha])` reads the coordinates."""

        def miss(_: str) -> NotInRootGroup:
            return NotInRootGroup(f"{alpha}: matrix is not in this root group")

        self._read(g, [alpha], miss)

    def peel_product(
        self, g: LaurentMatrix, order: list[AffineRoot]
    ) -> list[RootGroupCoords]:
        """Coordinates of g as an ordered product over the given affine roots,
        read once (see `_read`): one member is compared where g stores it, two
        or more are rebuilt and multiplied.  A mismatch raises
        ResidueNotIdentity on an order that meets the rule of `_one_read`, as
        every open interval does, and ValueError, an internal error, on any
        other."""

        def residue(_: str) -> Exception:
            where = [str(a) for a in order]
            if not _one_read(order):
                return ValueError(
                    f"{where} has a member or corner that is a sum of two or more members"
                )
            return ResidueNotIdentity(f"residue left after peeling along {where}")

        return [self._coords(*read) for read in self._read(g, order, residue)]

    def q2_additive(self, a_rel: Vector) -> LaurentPoly | None:
        """Certificate of the additive law of U_a for all coordinates and levels:
        g = X(-(u + v)) X(u) X(v), X the level-zero map of a_rel on disjoint
        tau-fixed slot variables u, v (see `slots`), is read whole by `_read`
        along [(2a, 0)], or along [] with None returned if a is not multipliable;
        else its rational link q2 is returned once skew and of bidegree (1, 1).
        A failed claim raises PeelFailure.  As x_(a, l)(c, d) is X(c t^-l,
        d t^-2l), u -> u t^-l gives every level."""
        nc, nd = self.coord_lengths(a_rel)
        order = [affine_root(scale(2, a_rel), 0)] if self.system.is_multipliable(a_rel) else []
        level0 = affine_root(a_rel, 0)

        def pin(c: list) -> LaurentMatrix:
            return self._pin(*self._pin_scalars(RootGroupCoords(level0, tuple(c), (ZERO,) * nd)))

        def fails(why: str) -> PeelFailure:
            return PeelFailure(f"additivity fails on {a_rel} along {list(map(str, order))}: {why}")

        u, v = [slots.var(k) for k in range(nc)], [slots.var(nc + k) for k in range(nc)]
        g = pin([-(x + y) for x, y in zip(u, v)]) @ (pin(u) @ pin(v))
        reads = self._read(g, order, fails, nc)
        if not reads:
            return None
        ((_, (q2,), _),) = reads
        if not slots.bidegrees(q2, nc) <= {(0, 1, 1)}:
            raise fails(f"q2 = {slots.text(q2, nc)} is not of bidegree (1, 1)")
        if slots.swap(q2, nc) != -q2:
            raise fails(f"q2 = {slots.text(q2, nc)} is not skew")
        return q2

    # -- rank one Weyl representatives ---------------------------------------------

    def w_element_parts(self, u: RootGroupCoords) -> tuple[LaurentMatrix, ...]:
        """The Weyl representative m(u) of a nontrivial u in U_alpha, with its
        inverse and factors: returns (w, w_inv, v1, v2, x) where x = pinning(u),
        v1 and v2 lie in U_(-alpha), w = v1 x v2 induces the affine reflection
        in the wall of alpha, and w_inv = v2^-1 x^-1 v1^-1 is built from the
        negated coordinates of the three factors."""
        if u.is_zero():
            raise RankOneSolveFailed("w_element needs a nontrivial element")
        c1, c2 = self._rank_one_witnesses(u)
        pin = self.relative_pinning
        x, v1, v2 = pin(u), pin(c1), pin(c2)
        w = v1 @ x @ v2
        for (p, q), _ in w.items():  # w vanishes off the entries s_a allows
            if reflect_vector(u.alpha.root, self.slot_weight(q)) != self.slot_weight(p):
                raise RankOneSolveFailed(
                    f"entry ({p},{q}) of the representative should vanish"
                )
        w_inv = pin(coords_neg(c2)) @ pin(coords_neg(u)) @ pin(coords_neg(c1))
        return w, w_inv, v1, v2, x

    def _rank_one_witnesses(
        self, u: RootGroupCoords
    ) -> tuple[RootGroupCoords, RootGroupCoords]:
        """Coordinates of v1, v2 in U_(-alpha) with v1 u v2 inducing the
        reflection.  The coordinates do not depend on the level, since
        x_(a, l)(c, d) is X_a(c t^-l, d t^-2l) for the level-zero map X_a."""
        a_rel, level = u.alpha
        lay, zs, corner = self._pin_scalars(u)
        neg = -u.alpha

        def witness(ys: list, at_corner) -> RootGroupCoords:
            d0 = self._check_scalars(self.layout(neg.root), ys, at_corner, RankOneSolveFailed)
            return self._coords(neg, ys, d0)

        if lay.corner is None:
            # one link: v1 = v2 = x(-1/z)
            (z,) = zs
            if z.is_zero():
                raise RankOneSolveFailed("zero coordinate on a one-parameter group")
            v = witness([-z.inverse()], None)
            return v, v
        if all(z.is_zero() for z in zs):
            # pure doubled part: delegate to the corner one-parameter group,
            # whose reflection fixes the same wall
            dbl = affine_root(scale(2, a_rel), 2 * Q(level))
            return self._rank_one_witnesses(RootGroupCoords(dbl, u.d))
        if corner.is_zero():
            raise RankOneSolveFailed("degenerate corner on a single root group")
        cinvn = -corner.inverse()  # -1/c
        cinvt = -corner.conj().inverse()  # -1/tau(c)
        ws = [factor * z.conj() for (_, _, factor), z in zip(lay.links, zs)]
        # k'-parameters of the two witnesses on the opposite root group
        if sum(a_rel) > 0:
            y1 = [w * cinvn for w in ws]  # -w_h / c
            y2 = [-w * cinvt for w in ws]  # +w_h / tau(c)
        else:
            y1 = [-w * cinvt for w in ws]
            y2 = [w * cinvn for w in ws]
        return witness(y1, cinvt), witness(y2, cinvt)

    # -- torus centralizer ----------------------------------------------------------

    def is_centralizer_element(self, g: LaurentMatrix) -> bool:
        """Member of C_G(S)(k): constant entries, block-diagonal over weights."""
        if not self.contains(g):
            return False
        return all(
            e.is_constant() and self.slot_weight(p) == self.slot_weight(q)
            for (p, q), e in g.items()
        )


class SplitSLModel(GroupModel):
    """SL_n over Q[t, t^-1] with its diagonal torus, n = rank + 1."""

    def __init__(self, rank: int):
        if rank < 1:
            raise UnsupportedType(f"sl rank {rank} < 1")
        self.kind = "sl"
        self.rank = rank
        self.n = rank + 1
        self.disc = None
        self.system = build_root_system("A", rank)
        self.gram = None
        self.witt = None
        self._build_layouts()

    def slot_weight(self, slot: int) -> Vector:
        w = [0] * self.n
        w[slot] = 1
        return tuple(w)

    def contains(self, g: LaurentMatrix) -> bool:
        return g.n == self.n and g.det().is_one()

    def descriptor(self) -> dict:
        return {
            "kind": "sl",
            "rank": self.rank,
            "matrix_size": self.n,
            "relative_system": f"A{self.rank}",
            "module_dims": self._module_dims(),
        }

    def sample_centralizer_elements(
        self, rng, count: int
    ) -> list[tuple[LaurentMatrix, LaurentMatrix]]:
        out = []
        for _ in range(count):
            diag = []
            prod = Q(1)
            for _ in range(self.n - 1):
                x = Q(0)
                while x == 0:
                    x = Q(rng.randint(-5, 5), rng.randint(1, 4))
                diag.append(x)
                prod *= x
            diag.append(1 / prod)
            g = LaurentMatrix.diagonal([LaurentPoly.const(x) for x in diag])
            if not self.is_centralizer_element(g):
                raise MembershipViolation("centralizer sample left the group")
            out.append((g, g.inverse()))
        return out


class SUModel(GroupModel):
    """SU(dim) of a skew-hermitian form over Q(sqrt(disc))[t, t^-1].

    The Gram matrix pairs index i with index dim-1-i for the first `witt`
    indices (entries +1 above, -1 below) and is sqrt(disc) times the identity
    on the middle block; disc must be a negative squarefree integer so the
    middle block is anisotropic.
    """

    def __init__(self, dim: int, witt: int, disc: int = -1):
        if witt < 1:
            raise UnsupportedType(f"witt index {witt} < 1")
        if dim < 2 * witt + 1:
            raise UnsupportedType(f"dim {dim} < 2*witt+1 = {2 * witt + 1}")
        if disc >= 0 or not is_squarefree(disc):
            raise UnsupportedType(f"disc {disc} must be negative and squarefree")
        self.kind = "su"
        self.n = dim
        self.witt = witt
        self.disc = disc
        self.s = sqrt_of(disc)
        self.system = build_root_system("BC", witt)
        self.middles = tuple(range(witt, dim - witt))
        gram: dict[tuple[int, int], LaurentPoly] = {}
        for i in range(witt):
            gram[(i, dim - 1 - i)] = ONE
            gram[(dim - 1 - i, i)] = LaurentPoly.const(-1)
        for h in self.middles:
            gram[(h, h)] = LaurentPoly.const(self.s)
        rows = [[gram.get((p, q), ZERO) for q in range(dim)] for p in range(dim)]
        self.gram = LaurentMatrix(rows)
        self._preserves_form = form_check(self.gram)
        self._build_layouts()

    def _mirror(self, x: int) -> int:
        return self.n - 1 - x

    def slot_weight(self, slot: int) -> Vector:
        w = [0] * self.witt
        if slot < self.witt:
            w[slot] = 1
        elif slot >= self.n - self.witt:
            w[self._mirror(slot)] = -1
        return tuple(w)

    def contains(self, g: LaurentMatrix) -> bool:
        return g.n == self.n and g.det().is_one() and self._preserves_form(g)

    def descriptor(self) -> dict:
        return {
            "kind": "su",
            "dim": self.n,
            "witt": self.witt,
            "disc": self.disc,
            "matrix_size": self.n,
            "relative_system": f"BC{self.witt}",
            "gram": [[str(e) for e in row] for row in self.gram.rows],
            "module_dims": self._module_dims(),
        }

    def sample_centralizer_elements(
        self, rng, count: int
    ) -> list[tuple[LaurentMatrix, LaurentMatrix]]:
        def nonzero() -> FieldScalar:
            z = FieldScalar(0)
            while z.is_zero():
                z = FieldScalar(
                    Q(rng.randint(-4, 4), rng.randint(1, 3)),
                    Q(rng.randint(-4, 4), rng.randint(1, 3)),
                    self.disc,
                )
            return z

        out = []
        for idx in range(count):
            entries: list[FieldScalar] = [FieldScalar(0)] * self.n
            det = FieldScalar(1)
            for i in range(self.witt):
                lam = nonzero()
                entries[i] = lam
                entries[self._mirror(i)] = lam.conj().inverse()
                det = det * lam * lam.conj().inverse()
            # middle block: norm-one diagonal entries z / tau(z), with the
            # last one correcting the determinant back to 1
            for h in self.middles[:-1]:
                z = nonzero()
                mu = z * z.conj().inverse()
                entries[h] = mu
                det = det * mu
            entries[self.middles[-1]] = det.inverse()
            g = LaurentMatrix.diagonal([LaurentPoly.const(x) for x in entries])
            ginv = g.inverse()
            if len(self.middles) >= 2 and idx % 3 == 2:
                # mix in a rational rotation of the first two middle slots,
                # which is unitary for the scalar middle form
                h0, h1 = self.middles[0], self.middles[1]
                rot = LaurentMatrix.from_entries(
                    self.n,
                    {
                        (h0, h0): LaurentPoly.const(Q(3, 5)),
                        (h0, h1): LaurentPoly.const(Q(4, 5)),
                        (h1, h0): LaurentPoly.const(Q(-4, 5)),
                        (h1, h1): LaurentPoly.const(Q(3, 5)),
                    },
                )
                # the rotation is orthogonal: its inverse is its transpose
                g = g @ rot
                ginv = rot.transpose() @ ginv
            if not self.is_centralizer_element(g):
                raise MembershipViolation("centralizer sample left the group")
            out.append((g, ginv))
        return out


def split_sl(rank: int) -> SplitSLModel:
    return SplitSLModel(rank)


def special_unitary(dim: int, witt: int, disc: int = -1) -> SUModel:
    return SUModel(dim, witt, disc)


def basis_generators(model: GroupModel, alpha: AffineRoot) -> list[RootGroupCoords]:
    """One generator of U_alpha per rational slot: 1 there and 0 elsewhere."""
    nc, nd = model.coord_lengths(alpha.root)
    out = []
    for slot in range(nc + nd):
        unit = [Q(0)] * (nc + nd)
        unit[slot] = Q(1)
        out.append(RootGroupCoords(alpha, tuple(unit[:nc]), tuple(unit[nc:])))
    return out


def build_model(kind: str, **kw) -> GroupModel:
    if kind == "sl":
        return split_sl(kw["rank"])
    if kind == "su":
        return special_unitary(kw["dim"], kw["witt"], kw.get("disc", -1))
    raise UnsupportedType(f"model kind {kind!r}")
