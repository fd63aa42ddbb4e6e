"""Finite root systems of types A_n and BC_n with exact rational coordinates.

Type A_n lives in the sum-zero hyperplane of Q^(n+1) as the vectors e_i - e_j.
Type BC_n lives in Q^n and contains +-e_i, +-2e_i and +-e_i +- e_j, so some
roots have proportional doubles; pairings and reflections use the standard
dot product and 2(a,b)/(a,a).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ReflectionLeftSystem, UnsupportedType

Q = Fraction

Vector = tuple[Q, ...]


def vec(*xs) -> Vector:
    return tuple(Q(x) for x in xs)


def dot(u: Vector, v: Vector) -> Q:
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    # Accumulate over a common denominator so the gcd reduction runs once at
    # the end instead of once per term; dot is the hottest rational kernel.
    num = 0
    den = 1
    for a, b in zip(u, v):
        n = a.numerator * b.numerator
        d = a.denominator * b.denominator
        num = num * d + n * den
        den *= d
    return Q(num, den)


def add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def scale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def pairing(b: Vector, a: Vector) -> Q:
    """Cartan pairing <b, a^vee> = 2 (a,b) / (a,a)."""
    aa = dot(a, a)
    if aa == 0:
        raise ValueError("pairing against the zero vector")
    return 2 * dot(a, b) / aa


def reflect_vector(a: Vector, v: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to a."""
    return sub(v, scale(pairing(v, a), a))


def proportionality(a: Vector, b: Vector) -> Q | None:
    """The ratio r with b = r * a, or None if a, b are not proportional."""
    r = None
    for x, y in zip(a, b):
        if x == 0:
            if y != 0:
                return None
            continue
        s = y / x
        if r is None:
            r = s
        elif r != s:
            return None
    if r is None:
        return None  # a was zero
    return r if b == scale(r, a) else None


class RootSystem:
    """A finite root system with a chosen simple system.

    Attributes:
      kind: "A" or "BC"
      rank: number of simple roots
      roots: all roots, sorted for deterministic iteration
      simple: the simple roots
      highest: the highest root
      fundamental_point: rational point v with 0 < (a, v) < 1 for all positive a
    """

    __slots__ = (
        "kind",
        "rank",
        "roots",
        "simple",
        "highest",
        "fundamental_point",
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
                        r = [Q(0)] * dim
                        r[i] = Q(1)
                        r[j] = Q(-1)
                        roots.append(tuple(r))
            simple = []
            for i in range(rank):
                r = [Q(0)] * dim
                r[i] = Q(1)
                r[i + 1] = Q(-1)
                simple.append(tuple(r))
            highest = tuple([Q(1)] + [Q(0)] * (rank - 1) + [Q(-1)])
            # (a_i, v) = 1/N for every simple root, N = max height + 1
            n_height = rank + 1
            fundamental = tuple(Q(rank - i, n_height) for i in range(dim))
        elif kind == "BC":
            dim = rank
            roots = []
            for i in range(dim):
                for c in (1, -1, 2, -2):
                    r = [Q(0)] * dim
                    r[i] = Q(c)
                    roots.append(tuple(r))
            for i in range(dim):
                for j in range(i + 1, dim):
                    for ci in (1, -1):
                        for cj in (1, -1):
                            r = [Q(0)] * dim
                            r[i] = Q(ci)
                            r[j] = Q(cj)
                            roots.append(tuple(r))
            simple = []
            for i in range(rank - 1):
                r = [Q(0)] * dim
                r[i] = Q(1)
                r[i + 1] = Q(-1)
                simple.append(tuple(r))
            last = [Q(0)] * dim
            last[rank - 1] = Q(1)
            simple.append(tuple(last))
            highest = tuple([Q(2)] + [Q(0)] * (rank - 1))
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

    @property
    def positive(self) -> tuple[Vector, ...]:
        return tuple(a for a in self.roots if a in self._positive)

    def reflect_root(self, a: Vector, b: Vector) -> Vector:
        """s_a(b) = b - <b, a^vee> a, checked to stay inside the system."""
        if not self.contains(a) or not self.contains(b):
            raise ReflectionLeftSystem("reflection needs two roots of the system")
        c = reflect_vector(a, b)
        if not self.contains(c):
            raise ReflectionLeftSystem(f"s_{a}({b}) = {c} left the system")
        return c

    def is_multipliable(self, a: Vector) -> bool:
        return self.contains(scale(2, a))

    def __repr__(self):
        return f"RootSystem({self.kind}{self.rank}, {len(self.roots)} roots)"


def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)

