"""Exact scalars in Q or in a quadratic extension Q(sqrt(d)).

A scalar is base + ext * sqrt(d) with base, ext rational and d a fixed
squarefree integer.  Plain rationals are scalars with no extension part;
they mix freely with scalars from any one extension.  The involution tau
fixes Q and sends sqrt(d) to -sqrt(d).

A scalar is stored as three reduced integers, (a + b * sqrt(d)) / den with
den > 0 and gcd(a, b, den) == 1, so equal values are equal triples and
arithmetic never builds a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, FieldMismatch

Q = Fraction


def is_squarefree(d: int) -> bool:
    if d == 0:
        return False
    n = abs(d)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


class FieldScalar:
    """base + ext * sqrt(disc); disc None means a plain rational."""

    __slots__ = ("_a", "_b", "_den", "disc")

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
        self._a, self._b, self._den = _triple(base, ext)
        self.disc = disc

    # -- field bookkeeping ------------------------------------------------

    @staticmethod
    def coerce(value) -> "FieldScalar":
        if isinstance(value, FieldScalar):
            return value
        if isinstance(value, int):
            return _make(value, 0, 1, None)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator, None)
        raise TypeError(f"cannot make a scalar from {value!r}")

    def _join(self, other: "FieldScalar") -> int | None:
        if self.disc is None:
            return other.disc
        if other.disc is None or other.disc == self.disc:
            return self.disc
        raise FieldMismatch(f"sqrt({self.disc}) vs sqrt({other.disc})")

    @property
    def base(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def ext(self) -> Fraction:
        return Fraction(self._b, self._den)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FieldScalar):
            other = FieldScalar.coerce(other)
        d = self._join(other)
        n1, n2 = self._den, other._den
        if n1 == n2:
            return _reduced(self._a + other._a, self._b + other._b, n1, d)
        return _reduced(
            self._a * n2 + other._a * n1, self._b * n2 + other._b * n1, n1 * n2, d
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._den, self.disc)

    def __sub__(self, other):
        return self + (-FieldScalar.coerce(other))

    def __rsub__(self, other):
        return FieldScalar.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, FieldScalar):
            other = FieldScalar.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        den = self._den * other._den
        if not b2:
            return _reduced(a1 * a2, b1 * a2, den, self.disc)
        if not b1:
            return _reduced(a1 * a2, a1 * b2, den, other.disc)
        d = self._join(other)
        return _reduced(a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, den, d)

    __rmul__ = __mul__

    def conj(self) -> "FieldScalar":
        """The involution tau: sqrt(d) -> -sqrt(d), identity on Q."""
        return _make(self._a, -self._b, self._den, self.disc)

    def inverse(self) -> "FieldScalar":
        a, b, den = self._a, self._b, self._den
        if a == 0 and b == 0:
            raise DivisionByZero("scalar inverse of zero")
        # 1 / ((a + b sqrt d) / den) = den (a - b sqrt d) / (a^2 - d b^2); the
        # norm vanishes on nonzero elements only if d were a rational square,
        # which the squarefree check excludes
        n = a * a - self.disc * b * b if b else a * a
        if n < 0:
            n, den = -n, -den
        return _reduced(den * a, -den * b, n, self.disc)

    def __truediv__(self, other):
        return self * FieldScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FieldScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        acc = self
        while n:
            if n & 1:
                out = out * acc
            acc = acc * acc
            n >>= 1
        return out

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return (
                self._a == other._a
                and self._b == other._b
                and self._den == other._den
                and self.disc == other.disc
            )
        if isinstance(other, (int, Fraction)):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __repr__(self):
        return f"FieldScalar({self})"

    def __str__(self):
        if self._b == 0:
            return str(self.base)
        return f"{self.base}+{self.ext}*sqrt({self.disc})"


_new = object.__new__


def _make(a: int, b: int, den: int, disc: int | None) -> FieldScalar:
    """Trusted constructor: (a, b, den) already reduced with den > 0, and
    disc an operand's already validated discriminant."""
    s = _new(FieldScalar)
    s._a = a
    s._b = b
    s._den = den
    s.disc = disc if b else None
    return s


def _reduced(a: int, b: int, den: int, disc: int | None) -> FieldScalar:
    """Trusted constructor for a triple with den > 0 that may share a factor."""
    g = gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    return _make(a, b, den, disc)


def _triple(base, ext) -> tuple[int, int, int]:
    """(a, b, den) of base + ext * sqrt(d) for int or Fraction parts; over the
    lcm of the denominators it is reduced, as a prime of den divides one
    denominator fully and so not that part's numerator."""
    bd, ed = base.denominator, ext.denominator
    den = bd * ed // gcd(bd, ed)
    return base.numerator * (den // bd), ext.numerator * (den // ed), den


def from_parts(base, ext, disc: int | None) -> FieldScalar:
    """Trusted constructor of base + ext * sqrt(disc) for int or Fraction
    parts and a discriminant the caller has already validated."""
    return _make(*_triple(base, ext), disc)


_ONE = _make(1, 0, 1, None)


def sqrt_of(disc: int) -> FieldScalar:
    """The scalar sqrt(disc)."""
    return FieldScalar(0, 1, disc)
