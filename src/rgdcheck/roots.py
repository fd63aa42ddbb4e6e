"""Finite root systems of types A_n and BC_n with integer coordinates.

Type A_n lives in the sum-zero hyperplane of Z^(n+1) as the vectors e_i - e_j.
Type BC_n lives in Z^n and contains +-e_i, +-2e_i and +-e_i +- e_j, so some
roots have proportional doubles; pairings and reflections use the standard
dot product and 2(a,b)/(a,a).  Roots are int tuples; the helpers stay exact
on a rational point (the fundamental point) as well.  A `RootSystem` owns and
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
    """A finite root system with a chosen simple system.

    Attributes:
      kind: "A" or "BC"
      rank: number of simple roots
      roots: all roots, sorted for deterministic iteration
      simple: the simple roots
      highest: the highest root
      fundamental_point: rational point v with 0 < (a, v) < 1 for all positive a
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
        if kind == "A":
            dim = rank + 1
            roots = []
            for i in range(dim):
                for j in range(dim):
                    if i != j:
                        r = [0] * dim
                        r[i] = 1
                        r[j] = -1
                        roots.append(tuple(r))
            simple = []
            for i in range(rank):
                r = [0] * dim
                r[i] = 1
                r[i + 1] = -1
                simple.append(tuple(r))
            highest = tuple([1] + [0] * (rank - 1) + [-1])
            # (a_i, v) = 1/N for every simple root, N = max height + 1
            n_height = rank + 1
            fundamental = tuple(Q(rank - i, n_height) for i in range(dim))
        elif kind == "BC":
            dim = rank
            roots = []
            for i in range(dim):
                for c in (1, -1, 2, -2):
                    r = [0] * dim
                    r[i] = c
                    roots.append(tuple(r))
            for i in range(dim):
                for j in range(i + 1, dim):
                    for ci in (1, -1):
                        for cj in (1, -1):
                            r = [0] * dim
                            r[i] = ci
                            r[j] = cj
                            roots.append(tuple(r))
            simple = []
            for i in range(rank - 1):
                r = [0] * dim
                r[i] = 1
                r[i + 1] = -1
                simple.append(tuple(r))
            last = [0] * dim
            last[rank - 1] = 1
            simple.append(tuple(last))
            highest = tuple([2] + [0] * (rank - 1))
            # heights reach 2*rank for the doubled first coordinate
            n_height = 2 * rank + 1
            fundamental = tuple(Q(rank - i, n_height) for i in range(dim))
        else:
            raise UnsupportedType(f"root system kind {kind!r}")
        self.kind = kind
        self.rank = rank
        self.roots = tuple(sorted(roots))
        self.simple = tuple(simple)
        self.highest = highest
        self.fundamental_point = fundamental
        self.reflections = _PairTable(lambda a, b: (self.reflect_root(a, b), pairing(b, a)))
        self.interval_shapes = _PairTable(self._shape)
        self._root_set = frozenset(self.roots)
        self._positive = frozenset(
            a for a in self.roots if dot(a, fundamental) > 0
        )

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

