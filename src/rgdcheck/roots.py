"""Finite root systems of types A_n and BC_n with integer coordinates.

A system is given by its simple roots: e_i - e_(i+1) in Z^(n+1) for A_n, and
those in Z^n with e_n for BC_n.  Its roots are the orbit of the simple roots
under the reflections they define, and BC_n adds 2a for every short root a,
so it is non-reduced (Bourbaki, Lie VI 1).  Heights, the highest root and the
fundamental point follow.  Pairings and reflections use the standard dot
product and 2(a,b)/(a,a).  Roots are int tuples; the helpers stay exact on a
rational point (the fundamental point) as well.  A `RootSystem` owns and
fills its per-pair tables of reflections and interval shapes.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul

from .errors import ReflectionLeftSystem, UnsupportedType

Q = Fraction

Vector = tuple[int, ...]


def integral(x) -> int:
    """x as an int; raises ValueError unless x is an integer (no truncation)."""
    if x.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return int(x)


def vec(*xs) -> Vector:
    return tuple(integral(x) for x in xs)


def dot(u: Vector, v: Vector) -> int | Q:
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


@functools.cache
def neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def scale(c, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def _quotient(n, d) -> int | Q:
    """n / d exactly: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return q if r == 0 else Q(n, d)


def pairing(b: Vector, a: Vector) -> int | Q:
    """Cartan pairing <b, a^vee> = 2 (a,b) / (a,a); an int on two roots."""
    aa = dot(a, a)
    if aa == 0:
        raise ValueError("pairing against the zero vector")
    return _quotient(2 * dot(a, b), aa)


@functools.cache
def coroot(a: Vector) -> Vector:
    """a^vee = 2a / (a,a); an integer vector for every A_n and BC_n root."""
    aa = dot(a, a)
    return tuple(_quotient(2 * x, aa) for x in a)


def reflect_vector(a: Vector, v: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to a."""
    return sub(v, scale(pairing(v, a), a))


def proportionality(a: Vector, b: Vector) -> int | Q | None:
    """The ratio r with b = r * a (an int when it is one), or None if a, b
    are not proportional or a is zero."""
    i = next((i for i, x in enumerate(a) if x != 0), None)
    if i is None:
        return None
    x0, y0 = a[i], b[i]
    if any(x * y0 != y * x0 for x, y in zip(a, b)):
        return None
    return _quotient(y0, x0)


class _PairTable(dict):
    """A table per pair of roots (a, b) that keeps fill(a, b) from its first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(*key)
        return value


class RootSystem:
    """A finite root system, derived from its simple roots.

    A kind chooses only its ambient dimension (rank + 1 for A, rank for BC)
    and its simple roots a_i.  Out come the orbit of the a_i under their
    reflections, for BC the doubles 2a of the roots with (a, a) = 1, and the
    heights: the height of a root a is (a, h) with h = (rank - i)_i, as
    (a_i, h) = 1 on every simple root.

    Attributes:
      kind: "A" or "BC"
      rank: number of simple roots
      roots: all roots, sorted for deterministic iteration
      simple: the simple roots
      highest: the root of largest height
      fundamental_point: h / (height of the highest root + 1), so that
        0 < (a, v) < 1 for all positive a
      reflections: per pair of roots (a, b), (s_a(b), <b, a^vee>)
      interval_shapes: per pair of roots (a, b), the (p, q, p*a + q*b) that
        are roots, for (p, q) = (1, 1), (1, 2), (2, 1) (see `_shape`)
      Both fill a pair on its first lookup.  Helpers that take no system keep
        `functools.cache` tables: `neg` and `coroot` per root, and `affine`'s
        prenilpotency and pair geometry per pair of gradients.
    """

    __slots__ = (
        "kind",
        "rank",
        "roots",
        "simple",
        "highest",
        "fundamental_point",
        "interval_shapes",
        "reflections",
        "_root_set",
        "_positive",
    )

    def __init__(self, kind: str, rank: int):
        if rank < 1:
            raise UnsupportedType(f"rank {rank} < 1")
        if kind not in ("A", "BC"):
            raise UnsupportedType(f"root system kind {kind!r}")
        # a kind chooses its ambient dimension and its simple roots only
        dim = rank + 1 if kind == "A" else rank
        e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        simple = tuple(sub(e[i], e[i + 1]) for i in range(dim - 1))
        if kind == "BC":
            simple += (e[-1],)
        roots, new = set(), set(simple)
        while new:  # the orbit of the simple roots under their reflections
            roots |= new
            new = {reflect_vector(a, b) for a in simple for b in new} - roots
        if kind == "BC":
            roots |= {scale(2, a) for a in roots if dot(a, a) == 1}
        # (a_i, h) = 1 on every simple root, so (a, h) is the height of a
        h = tuple(range(rank, rank - dim, -1))
        highest = max(roots, key=lambda a: dot(a, h))
        fundamental = tuple(Q(x, dot(highest, h) + 1) for x in h)
        self.kind = kind
        self.rank = rank
        self.roots = tuple(sorted(roots))
        self.simple = simple
        self.highest = highest
        self.fundamental_point = fundamental
        self.reflections = _PairTable(lambda a, b: (self.reflect_root(a, b), pairing(b, a)))
        self.interval_shapes = _PairTable(self._shape)
        self._root_set = frozenset(self.roots)
        self._positive = frozenset(a for a in self.roots if dot(a, h) > 0)

    def contains(self, v: Vector) -> bool:
        return tuple(v) in self._root_set

    def is_positive_root(self, a: Vector) -> bool:
        if not self.contains(a):
            raise ReflectionLeftSystem(f"{a} is not a root")
        return a in self._positive

    def reflect_root(self, a: Vector, b: Vector) -> Vector:
        """s_a(b) = b - <b, a^vee> a, checked to stay inside the system."""
        if not self.contains(a) or not self.contains(b):
            raise ReflectionLeftSystem("reflection needs two roots of the system")
        c = reflect_vector(a, b)
        if not self.contains(c):
            raise ReflectionLeftSystem(f"s_{a}({b}) = {c} left the system")
        return c

    def _shape(self, a: Vector, b: Vector) -> tuple:
        """The interval shape of (a, b).  Larger p or q give no root in A_n or
        BC_n (Bourbaki, Lie VI, on root strings); 2a + 2b is a root only when
        a + b is one, and (2a + 2b, 2L) then doubles the interval member
        (a + b, L), so (2, 2) is left out."""
        return tuple(
            (p, q, c)
            for p, q in ((1, 1), (1, 2), (2, 1))
            if self.contains(c := tuple(p * x + q * y for x, y in zip(a, b)))
        )

    def is_multipliable(self, a: Vector) -> bool:
        return self.contains(scale(2, a))

    def __repr__(self):
        return f"RootSystem({self.kind}{self.rank}, {len(self.roots)} roots)"


def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)

