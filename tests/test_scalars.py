"""Tests for exact scalars in Q and in imaginary quadratic extensions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgdcheck import DivisionByZero, FieldMismatch, FieldScalar, scalars, sqrt_of
from rgdcheck.scalars import is_squarefree

Q = Fraction


def test_rational_arithmetic_matches_fraction():
    rng = random.Random(11)
    for _ in range(200):
        a = Q(rng.randint(-20, 20), rng.randint(1, 9))
        b = Q(rng.randint(-20, 20), rng.randint(1, 9))
        x = FieldScalar(a)
        y = FieldScalar(b)
        assert (x + y).base == a + b
        assert (x - y).base == a - b
        assert (x * y).base == a * b
        if b != 0:
            assert (x / y).base == a / b


def test_known_products_in_gaussian_field():
    i = sqrt_of(-1)
    one = FieldScalar(1)
    # (1 + i)(1 - i) = 2, checked by hand before freezing
    assert (one + i) * (one - i) == FieldScalar(2)
    # (3 + 2i)(1 - i) = 5 - i, so (3 + 2i)/(1 + i) = 5/2 - 1/2 i
    lhs = FieldScalar(3, 2, -1) / FieldScalar(1, 1, -1)
    assert lhs == FieldScalar(Q(5, 2), Q(-1, 2), -1)
    # back-multiplication confirms the quotient
    assert lhs * FieldScalar(1, 1, -1) == FieldScalar(3, 2, -1)


def test_sqrt_squares_to_discriminant():
    for d in (-1, -2, -3, -5, -7):
        s = sqrt_of(d)
        assert s * s == FieldScalar(d)
        assert s.conj() == FieldScalar(0, -1, d)
        assert (s * s.conj()).base == -d


def test_conj_is_a_ring_involution():
    rng = random.Random(5)
    for _ in range(100):
        x = FieldScalar(Q(rng.randint(-9, 9), rng.randint(1, 4)), Q(rng.randint(-9, 9)), -2)
        y = FieldScalar(Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9), rng.randint(1, 3)), -2)
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


def test_norm_is_multiplicative_and_rational():
    """The norm N(x) = x tau(x): rational, multiplicative, and positive on
    nonzero x for an imaginary discriminant."""
    rng = random.Random(7)
    for _ in range(100):
        x = FieldScalar(rng.randint(-9, 9), rng.randint(-9, 9), -3)
        y = FieldScalar(rng.randint(-9, 9), rng.randint(-9, 9), -3)
        nx, ny, nxy = (z * z.conj() for z in (x, y, x * y))
        assert nx.is_rational and nx == nx.base
        assert nx.base == x.base**2 + 3 * x.ext**2
        assert nx * ny == nxy
        if not x.is_zero():
            assert nx.base > 0


def test_inverse_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        x = FieldScalar(
            Q(rng.randint(-9, 9), rng.randint(1, 4)),
            Q(rng.randint(-9, 9), rng.randint(1, 4)),
            -1,
        )
        if x.is_zero():
            continue
        assert x * x.inverse() == FieldScalar(1)
        assert x.inverse().inverse() == x


def test_integer_powers():
    x = FieldScalar(1, 1, -1)
    assert x**0 == FieldScalar(1)
    assert x**2 == FieldScalar(0, 2, -1)
    assert x**-1 == x.inverse()
    assert x**3 * x**-3 == FieldScalar(1)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        FieldScalar(1).inverse() * FieldScalar(0).inverse()
    with pytest.raises(DivisionByZero):
        FieldScalar(1, 2, -1) / FieldScalar(0)


def test_mixing_different_extensions_raises():
    with pytest.raises(FieldMismatch):
        sqrt_of(-1) + sqrt_of(-2)
    with pytest.raises(FieldMismatch):
        sqrt_of(-1) * sqrt_of(-3)
    # rational scalars coerce into any extension
    assert FieldScalar(2) + sqrt_of(-1) == FieldScalar(2, 1, -1)


def test_squarefree_validation():
    assert is_squarefree(-1)
    assert is_squarefree(-7)
    assert not is_squarefree(-4)
    assert not is_squarefree(-12)
    with pytest.raises(FieldMismatch):
        FieldScalar(0, 1, -4)
    with pytest.raises(FieldMismatch):
        FieldScalar(0, 1, 1)
    with pytest.raises(FieldMismatch):
        FieldScalar(1, 2)  # extension part with no discriminant


def test_zero_extension_normalizes_to_rational():
    x = FieldScalar(Q(3, 2), 0, -1)
    assert x.is_rational
    assert x.disc is None
    assert x == FieldScalar(Q(3, 2))


def test_string_formats():
    assert str(FieldScalar(Q(1, 2))) == "1/2"
    assert str(FieldScalar(2, 3, -5)) == "2+3*sqrt(-5)"
    assert str(FieldScalar(0)) == "0"


def test_equality_and_hash_agree():
    a = FieldScalar(1, 2, -1)
    b = FieldScalar(1) + FieldScalar(0, 2, -1)
    assert a == b
    assert a != FieldScalar(1, 2, -2)
    # equal values never hash apart: a FieldScalar has no hash
    with pytest.raises(TypeError):
        hash(a)


# -- differential tests against the Fraction-pair reference -------------------


class RefScalar:
    """base + ext * sqrt(disc); disc None means a plain rational.

    The earlier Fraction-pair FieldScalar, kept verbatim (renamed) as the
    reference the integer-triple kernel is tested against.
    """

    __slots__ = ("base", "ext", "disc")

    def __init__(self, base, ext=0, disc: int | None = None):
        base = Q(base)
        ext = Q(ext)
        if disc is not None:
            if not is_squarefree(disc) or disc == 1:
                raise FieldMismatch(f"discriminant {disc} is not squarefree != 1")
            if ext == 0:
                disc = None
        elif ext != 0:
            raise FieldMismatch("extension part requires a discriminant")
        self.base = base
        self.ext = ext
        self.disc = disc

    # -- field bookkeeping ------------------------------------------------

    @staticmethod
    def coerce(value) -> "RefScalar":
        if isinstance(value, RefScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return RefScalar(value)
        raise TypeError(f"cannot make a scalar from {value!r}")

    def _join(self, other: "RefScalar") -> int | None:
        if self.disc is None:
            return other.disc
        if other.disc is None or other.disc == self.disc:
            return self.disc
        raise FieldMismatch(f"sqrt({self.disc}) vs sqrt({other.disc})")

    @property
    def is_rational(self) -> bool:
        return self.ext == 0

    def is_zero(self) -> bool:
        return self.base == 0 and self.ext == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = RefScalar.coerce(other)
        d = self._join(other)
        return RefScalar(self.base + other.base, self.ext + other.ext, d)

    __radd__ = __add__

    def __neg__(self):
        return RefScalar(-self.base, -self.ext, self.disc)

    def __sub__(self, other):
        return self + (-RefScalar.coerce(other))

    def __rsub__(self, other):
        return RefScalar.coerce(other) - self

    def __mul__(self, other):
        other = RefScalar.coerce(other)
        d = self._join(other)
        dd = d if d is not None else 0
        base = self.base * other.base + dd * self.ext * other.ext
        ext = self.base * other.ext + self.ext * other.base
        return RefScalar(base, ext, d)

    __rmul__ = __mul__

    def conj(self) -> "RefScalar":
        """The involution tau: sqrt(d) -> -sqrt(d), identity on Q."""
        return RefScalar(self.base, -self.ext, self.disc)

    def norm(self) -> Fraction:
        """self * conj(self) as a rational: base^2 - d * ext^2."""
        dd = self.disc if self.disc is not None else 0
        return self.base * self.base - dd * self.ext * self.ext

    def inverse(self) -> "RefScalar":
        if self.is_zero():
            raise DivisionByZero("scalar inverse of zero")
        n = self.norm()
        # norm vanishes on nonzero elements only if d were a rational square,
        # which the squarefree check excludes
        return RefScalar(self.base / n, -self.ext / n, self.disc)

    def __truediv__(self, other):
        return self * RefScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RefScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = RefScalar(1)
        acc = self
        while n:
            if n & 1:
                out = out * acc
            acc = acc * acc
            n >>= 1
        return out

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefScalar(other)
        if not isinstance(other, RefScalar):
            return NotImplemented
        if self.ext != 0 and other.ext != 0 and self.disc != other.disc:
            return False
        return self.base == other.base and self.ext == other.ext

    def __repr__(self):
        return f"RefScalar({self})"

    def __str__(self):
        if self.ext == 0:
            return str(self.base)
        return f"{self.base}+{self.ext}*sqrt({self.disc})"



# 2 also takes the inverse through a negative norm
DISCS = (None, -1, -2, -3, -7, 2)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def scalar_specs(draw):
    """(base, ext, disc) accepted by both constructors; ext is 0 over Q."""
    disc = draw(st.sampled_from(DISCS))
    base = draw(rationals)
    ext = Q(0) if disc is None else draw(rationals)
    return base, ext, disc


def both(spec):
    return FieldScalar(*spec), RefScalar(*spec)


def outcome(fn, *args):
    """Everything readable of a scalar result, the type and value of any
    other result, or ("raises", type) of an error."""
    try:
        r = fn(*args)
    except (DivisionByZero, FieldMismatch) as exc:
        return ("raises", type(exc))
    if isinstance(r, (FieldScalar, RefScalar)):
        return ("value", r.base, r.ext, r.disc, str(r), r.is_rational, r.is_zero())
    return ("plain", type(r), r)


BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
}
UNARY = {
    "neg": lambda x: -x,
    "conj": lambda x: x.conj(),
    "norm": lambda x: x * x.conj(),
    "inverse": lambda x: x.inverse(),
    "str": str,
    "repr": lambda x: repr(x).replace("RefScalar", "FieldScalar"),
    "base": lambda x: x.base,
    "ext": lambda x: x.ext,
    "disc": lambda x: x.disc,
    **{f"pow{k}": (lambda x, k=k: x**k) for k in range(-3, 4)},
}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scalar_specs(), scalar_specs())
def test_integer_kernel_agrees_with_fraction_pairs(xs, ys):
    x, rx = both(xs)
    y, ry = both(ys)
    for name, op in UNARY.items():
        assert outcome(op, x) == outcome(op, rx), name
    for name, op in BINARY.items():
        assert outcome(op, x, y) == outcome(op, rx, ry), name
    # the stored triple is reduced, so equal values are equal triples
    assert x._den > 0 and gcd(x._a, x._b, x._den) == 1
    assert (x._b == 0) == (x.disc is None)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scalar_specs(), st.one_of(st.integers(-30, 30), rationals))
def test_integer_kernel_mixes_with_int_and_fraction_like_the_reference(xs, r):
    x, rx = both(xs)
    for name, op in BINARY.items():
        assert outcome(op, x, r) == outcome(op, rx, r), f"x {name} r"
        assert outcome(op, r, x) == outcome(op, r, rx), f"r {name} x"
    assert outcome(FieldScalar.coerce, r) == outcome(RefScalar.coerce, r)
    # r (an int or a Fraction), its Fraction and its scalar coerce to one
    # stored scalar; a scalar coerces to itself
    same = [FieldScalar.coerce(v) for v in (r, Q(r), FieldScalar(r))]
    assert len({(v._a, v._b, v._den, v.disc) for v in same}) == 1 and same[0] == r
    assert FieldScalar.coerce(x) is x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scalar_specs(), scalar_specs(), scalar_specs())
def test_equality_follows_the_reference(xs, ys, zs):
    # equal values compare equal, whichever way they were built
    x, rx = both(xs)
    y, ry = both(ys)
    z, rz = both(zs)
    pairs = []
    for a, b in ((x, y), (y, z)):
        try:
            pairs.append(((a + b) * z, a * z + b * z))
        except FieldMismatch:
            pass
    pairs.append((x, FieldScalar(x.base, x.ext, xs[2])))
    pairs.append((x - x, FieldScalar(0)))
    for u, v in pairs:
        assert u == v
    assert (x == y) == (rx == ry)


def test_reference_and_kernel_raise_alike_on_bad_construction():
    for args in ((0, 1, -4), (0, 1, 1), (1, 2), (0, 1, 0)):
        with pytest.raises(FieldMismatch):
            RefScalar(*args)
        with pytest.raises(FieldMismatch):
            FieldScalar(*args)


def test_arithmetic_builds_no_fraction(monkeypatch):
    x = FieldScalar(Q(3, 4), Q(-5, 6), -7)
    y = FieldScalar(Q(2, 9), Q(1, 3), -7)
    r = FieldScalar(Q(-7, 5))
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kw):
            built.append(args)
            return super().__new__(cls, *args, **kw)

    monkeypatch.setattr(scalars, "Fraction", Counting)
    monkeypatch.setattr(scalars, "Q", Counting)
    for u, v in ((x, y), (x, r), (r, x), (r, r)):
        results = [u + v, u - v, u * v, u / v, u**3, u**-2, -u, u.conj(), u.inverse()]
        results += [u == v, u.is_zero(), u.is_rational]
        results += [u + 2, 2 * u, u - 1, 1 / u, u == 1]
    assert built == []
    assert x.base == Q(3, 4) and x.ext == Q(-5, 6) and (x * x.conj()).base == Q(9, 16) + 7 * Q(25, 36)
    assert built  # the readers and display build fractions
