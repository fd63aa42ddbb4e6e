"""Affine roots as half-spaces over a finite root system.

An affine root alpha_(a, l) is the half-space {v : (a, v) >= -l} attached to
the gradient root a and the level l; levels are integers except on doubled
roots of BC systems, where proper half-integers occur.  An integral level is
an int and a proper half-integer a Fraction, so negation, reflection and
interval members built from integral levels stay in integer arithmetic.  The
reflection in the wall of alpha_(a, l) acts on points by
v -> s_a(v) - l * a^vee and on affine roots by
alpha_(b, m) -> alpha_(s_a(b), m - l * <b, a^vee>).

What depends on the gradients alone is computed once and kept, each table
filling on first use.  Per pair of roots, (s_a(b), <b, a^vee>) and the
interval shape are the `RootSystem`'s own tables, which `affine_reflect` and
`open_interval` only read.  Prenilpotency and the oracles' pair geometry sit
in `functools.cache` tables here, as do the interval oracle's combinations
per triple; per root, `roots.neg` and `coroot` keep theirs.  The oracles
work in the Gram coordinates of a gradient pair: the prenilpotency oracle's
interior point is (x, y, D), the point (x a + y b) / D, checked through the
pair's Gram dots, and an interval member's gradient is solved as p a + q b.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    HalfIntegerLevel,
    NotPrenilpotent,
    RgdcheckError,
)
from .roots import (
    RootSystem,
    Vector,
    _quotient,
    coroot,
    dot,
    neg,
    proportionality,
    vec,
)

Q = Fraction


class AffineRoot(NamedTuple):
    root: Vector
    level: int | Q  # a Fraction only for a proper half-integer

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(neg(self.root), -self.level)

    def __str__(self):
        coords = ",".join(str(x) for x in self.root)
        return f"a[({coords}), {self.level}]"


def affine_root(a: Vector, level) -> AffineRoot:
    """alpha_(a, level), the level an int when integral; raises ValueError on
    a gradient that is not integral and HalfIntegerLevel off the half-integers."""
    level = Q(level)
    if level.denominator > 2:
        raise HalfIntegerLevel(f"level {level} is not a half-integer")
    return AffineRoot(vec(*a), _level(level))


def _level(x):
    """The level x as an int when integral; a proper half-integer stays a Fraction."""
    return x.numerator if x.denominator == 1 else x


def half_space_contains(alpha: AffineRoot, v: Vector, strict: bool = False) -> bool:
    """Membership of the point v in the half-space alpha."""
    s = dot(alpha.root, v) + alpha.level
    return s > 0 if strict else s >= 0


def reflect_point(alpha: AffineRoot, v: Vector) -> Vector:
    """Reflection of an ambient point in the wall of alpha."""
    a = alpha.root
    c = dot(a, v) + alpha.level
    return tuple(x - c * y for x, y in zip(v, coroot(a)))


def affine_reflect(system: RootSystem, alpha: AffineRoot, beta: AffineRoot) -> AffineRoot:
    """Image of beta under the reflection in the wall of alpha; the level is
    the only arithmetic once the pair's (s_a(b), <b, a^vee>) is kept."""
    c, k = system.reflections[alpha.root, beta.root]
    level = beta.level - alpha.level * k
    return AffineRoot(c, level if type(level) is int else _level(level))


def is_positive(system: RootSystem, alpha: AffineRoot) -> bool:
    """Positivity: gradient positive and level >= 0, or gradient negative and level >= 1.

    Only defined for integer levels; doubled-root half-levels have no sign.
    """
    if alpha.level.denominator != 1:
        raise HalfIntegerLevel(f"positivity undefined at level {alpha.level}")
    if system.is_positive_root(alpha.root):
        return alpha.level >= 0
    return alpha.level >= 1


def is_prenilpotent(alpha: AffineRoot, beta: AffineRoot) -> bool:
    """True unless some positive multiples satisfy k*a = -n*b.

    Positive multiples of the gradients collide exactly when the gradients
    are proportional with a negative ratio: when (a, b) < 0 and the
    Cauchy-Schwarz inequality (a, b)^2 <= (a, a)(b, b) is an equality.
    The answer depends on the gradients alone and is kept per pair of them.
    """
    return _prenilpotent_gradients(alpha.root, beta.root)


@functools.cache
def _prenilpotent_gradients(a: Vector, b: Vector) -> bool:
    ab = dot(a, b)
    return ab >= 0 or ab * ab != dot(a, a) * dot(b, b)


def open_interval(
    system: RootSystem, alpha: AffineRoot, beta: AffineRoot
) -> list[AffineRoot]:
    """The affine root groups alpha_(p*a + q*b, p*l + q*m), integers p, q > 0.

    This is the index set of the commutator law for the pair (alpha, beta):
    [U_alpha, U_beta] lands in the product of these groups, in the order of
    p + q, then p.  The endpoints never appear since p, q >= 1.  Members are
    root groups, not root vectors: U_(2c, 2L) lies inside U_(c, L)
    (Bruhat-Tits, Publ. IHES 41, 1972), so (2c, 2L) is left out when (c, L)
    is a member; a doubled root at an odd level, which no U_(c, L) covers, is
    kept.  Both define the same half-apartment, 2c.x + 2L >= 0 iff
    c.x + L >= 0.  Requires a prenilpotent pair.
    """
    if not is_prenilpotent(alpha, beta):
        raise NotPrenilpotent(f"{alpha} and {beta} share opposed gradient rays")
    l, m = alpha.level, beta.level
    return [
        AffineRoot(c, p * l + q * m)
        for p, q, c in system.interval_shapes[alpha.root, beta.root]
    ]


def simple_affine_roots(system: RootSystem) -> list[AffineRoot]:
    """The simple affine roots: (a_i, 0) for simple a_i, then (-theta, 1)."""
    out = [AffineRoot(a, 0) for a in system.simple]
    out.append(AffineRoot(neg(system.highest), 1))
    return out


# -- independent oracles ------------------------------------------------------
#
# These re-derive positivity, prenilpotency and open interval members from
# the half-space geometry alone, with no reference to the sign conventions or
# interval shapes above, so the two routes can be compared in tests.


def chamber_oracle(system: RootSystem, alpha: AffineRoot) -> bool:
    """Does alpha contain the fundamental chamber point?

    The fundamental point v0 satisfies 0 < (a, v0) < 1 for every positive
    root a, so alpha_(a, l) contains it exactly when alpha is a positive
    affine root.
    """
    return half_space_contains(alpha, system.fundamental_point, strict=True)


@functools.cache
def _pair_geometry(a: Vector, b: Vector) -> tuple:
    """proportionality(a, b), the Gram dots (a,a), (a,b), (b,b) and the Gram
    determinant (a,a)(b,b) - (a,b)^2, kept per pair of gradients."""
    aa, ab, bb = dot(a, a), dot(a, b), dot(b, b)
    return proportionality(a, b), aa, ab, bb, aa * bb - ab * ab


def _interior_point(geometry: tuple, l2: int, m2: int) -> tuple[int, int, int] | None:
    """(x, y, D) with D > 0 such that V / D, V = x a + y b, is interior to
    both half-spaces of the gradients a, b at the doubled levels l2, m2, or
    None if no point is.  y = 0 on parallel walls.

    geometry is `_pair_geometry(a, b)`; l2 and m2 are 2 * level, integers even
    on doubled roots.  The pair (-a, -b) has the same geometry, and its point
    is (x, y, D) in the basis (-a, -b) at the levels -l2, -m2.
    """
    r, aa, ab, bb, det = geometry
    if r is None:
        # independent gradients: solve (a,v) = 1 - l, (b,v) = 1 - m exactly
        # on the 2-plane spanned by a and b, v = (x a + y b) / (2 det);
        # det > 0 by Cauchy-Schwarz for independent vectors
        ta, tb = 2 - l2, 2 - m2
        return ta * bb - tb * ab, tb * aa - ta * ab, 2 * det
    # parallel walls, b = r a with r = n/d: (a,v) must exceed -l and
    # r*(a,v) must exceed -m; both bounds below are on 2|n| (a,v)
    n, d = r.numerator, r.denominator
    if n > 0:
        # both constraints open upward: any large enough value works
        s, e = max(-l2 * n, -m2 * d) + 2 * n, 2 * n
    else:
        # opposite orientations: -l2 |n| < 2|n| (a,v) < m2 d needed
        lo, hi = l2 * n, m2 * d
        if lo >= hi:
            return None
        s, e = lo + hi, -4 * n
    # (a,v) = s / e, with v = s a / (e (a,a))
    return s, 0, e * aa


def prenilpotent_oracle(alpha: AffineRoot, beta: AffineRoot) -> bool:
    """Geometric prenilpotency: both intersections of interiors are nonempty.

    The pair is prenilpotent exactly when alpha and beta share an interior
    point and so do their negatives.  Both points come from the one pair
    geometry of (a, b), as (x, y, D) in the basis (a, b), respectively
    (-a, -b), and are checked in integers through its Gram dots: V / D is
    interior to alpha_(a, l) iff 2 (x (a,a) + y (a,b)) + D 2l > 0, and to
    alpha_(b, m) iff 2 (x (a,b) + y (b,b)) + D 2m > 0.
    """
    geometry = _pair_geometry(alpha.root, beta.root)
    _, aa, ab, bb, _ = geometry
    # 2 * a half-integer level is an integral int or Fraction; int() is exact
    l2, m2 = int(2 * alpha.level), int(2 * beta.level)
    for sign, k2, n2 in (("", l2, m2), ("-", -l2, -m2)):
        point = _interior_point(geometry, k2, n2)
        if point is None:
            return False
        x, y, d = point
        if 2 * (x * aa + y * ab) + d * k2 <= 0 or 2 * (x * ab + y * bb) + d * n2 <= 0:
            raise RgdcheckError(
                f"point (x, y, D) = {point} is not interior to both {sign}{alpha} and {sign}{beta}"
            )
    return True


@functools.cache
def _combination(a: Vector, b: Vector, c: Vector) -> tuple | None:
    """(p, q, 0) with c = p a + q b, from the Gram dots of independent a and
    b; (s, 0, r) for b = r a and c = s a, whose solutions are the line
    (s - r t, t); None off the span.  Kept per triple of gradients."""
    r, aa, ab, bb, det = _pair_geometry(a, b)
    if r is not None:
        s = proportionality(a, c)
        return None if s is None else (s, 0, r)
    ac, bc = dot(a, c), dot(b, c)
    p, q = _quotient(ac * bb - bc * ab, det), _quotient(bc * aa - ac * ab, det)
    if any(p * x + q * y != z for x, y, z in zip(a, b, c)):
        return None
    return p, q, 0


def interval_oracle(alpha: AffineRoot, beta: AffineRoot, gamma: AffineRoot) -> bool:
    """Is gamma = p alpha + q beta as affine functionals, for some p, q > 0?

    Exactly then (Farkas) gamma contains the intersection of alpha and beta,
    and -gamma that of -alpha and -beta, at every point.  The gradient
    c = p a + q b is solved apart from `open_interval`; the level is p l + q m.
    """
    solution = _combination(alpha.root, beta.root, gamma.root)
    if solution is None:
        return False
    p, q, r = solution
    l, m, level = alpha.level, beta.level, gamma.level
    if r:
        # on the line (p - r t, t) the level p l + t (m - r l) fixes t
        # unless m = r l; then every t > 0 with p - r t > 0 will do
        k = m - r * l
        if not k:
            return level == p * l and (p > 0 or r < 0)
        q = Q(level - p * l) / k
        p -= r * q
    return p > 0 and q > 0 and p * l + q * m == level
