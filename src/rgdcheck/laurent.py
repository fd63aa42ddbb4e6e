"""Laurent polynomials with quarter-integer exponents, and matrices over them.

Exponents live on the lattice (1/4)Z and are stored as integers scaled by 4,
so t^(1/2) has key 2 and t^(-1) has key -4.  The honest coordinate ring
k[t, t^-1] is the sublattice of keys divisible by 4; the finer lattice exists
only to host torus elements like diag(t^(1/2), t^(-1/2)) used for conjugation.
Coefficients are FieldScalar values; coefficient maps never store zeros.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, NotInvertibleOverRing
from .scalars import FieldScalar

Q = Fraction

EXP_SCALE = 4  # stored exponent units per power of t

_SCALAR_ZERO = FieldScalar(0)
_SCALAR_ONE = FieldScalar(1)


def _as_scalar(c) -> FieldScalar:
    return FieldScalar.coerce(c)


class LaurentPoly:
    """Finite sum of c * t^(e/4) terms, keyed by the scaled exponent e."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, FieldScalar] | None = None):
        clean: dict[int, FieldScalar] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _as_scalar(c)
                if not c.is_zero():
                    clean[int(e)] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: FieldScalar(1)})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: _as_scalar(c)})

    @staticmethod
    def term(c, exponent) -> "LaurentPoly":
        """c * t^exponent for a Fraction or int exponent on the (1/4)Z lattice."""
        e4 = Q(exponent) * EXP_SCALE
        if e4.denominator != 1:
            raise ValueError(f"exponent {exponent} off the quarter lattice")
        return LaurentPoly({int(e4): _as_scalar(c)})

    @staticmethod
    def t_power(exponent) -> "LaurentPoly":
        return LaurentPoly.term(1, exponent)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs.get(0) == _SCALAR_ONE

    def coeff(self, e4: int) -> FieldScalar:
        """Coefficient at scaled exponent e4 (zero if absent)."""
        return self.coeffs.get(e4, _SCALAR_ZERO)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def monomial_parts(self) -> tuple[int, FieldScalar]:
        if not self.is_monomial():
            raise NotInvertibleOverRing(f"{self} is not a monomial")
        ((e4, c),) = self.coeffs.items()
        return e4, c

    def exponents(self) -> list[int]:
        return sorted(self.coeffs)

    def on_integer_lattice(self) -> bool:
        """True when every exponent is an integer power of t."""
        return all(e % EXP_SCALE == 0 for e in self.coeffs)

    def in_poly_ring(self) -> bool:
        """True when the polynomial lies in k[t] (all exponents >= 0)."""
        return all(e >= 0 for e in self.coeffs)

    def in_inv_poly_ring(self) -> bool:
        """True when the polynomial lies in k[t^-1] (all exponents <= 0)."""
        return all(e <= 0 for e in self.coeffs)

    def is_constant(self) -> bool:
        return all(e == 0 for e in self.coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out: dict[int, FieldScalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return _poly(out)

    __rmul__ = __mul__

    def conj(self) -> "LaurentPoly":
        """Apply the field involution to every coefficient (t is fixed)."""
        return _poly({e: c.conj() for e, c in self.coeffs.items()})

    def monomial_inverse(self) -> "LaurentPoly":
        e4, c = self.monomial_parts()
        return _poly({-e4: c.inverse()})

    def monomial_pow(self, k: int) -> "LaurentPoly":
        e4, c = self.monomial_parts()
        return _poly({e4 * k: c**k})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldScalar)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c) if c.is_rational else f"({c})"
            parts.append(cs if e == 0 else f"{cs}*t^{Q(e, EXP_SCALE)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _poly(coeffs: dict[int, FieldScalar]) -> LaurentPoly:
    """Trusted constructor: integer keys and FieldScalar values; only drops
    zero coefficients."""
    p = object.__new__(LaurentPoly)
    p.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
    return p


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


class LaurentMatrix:
    """Square matrix over LaurentPoly, used for group elements (det a unit)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        self.n = n
        self.rows = rows

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_entries(n: int, entries: dict[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        """The identity with each given entry set to the given polynomial."""
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for (i, j), p in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"entry ({i},{j}) outside {n}x{n}")
            rows[i][j] = p
        return LaurentMatrix(rows)

    @staticmethod
    def diagonal(entries) -> "LaurentMatrix":
        entries = list(entries)
        n = len(entries)
        return LaurentMatrix(
            [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n}x{self.n} @ {other.n}x{other.n}")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc: dict[int, FieldScalar] = {}
                for k in range(n):
                    a = self.rows[i][k]
                    b = other.rows[k][j]
                    if not a.coeffs or not b.coeffs:
                        continue
                    for e1, c1 in a.coeffs.items():
                        for e2, c2 in b.coeffs.items():
                            e = e1 + e2
                            prod = c1 * c2
                            cur = acc.get(e)
                            acc[e] = prod if cur is None else cur + prod
                row.append(_poly(acc))
            out.append(row)
        return LaurentMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_identity(self) -> bool:
        return self == LaurentMatrix.identity(self.n)

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    def conj_transpose(self) -> "LaurentMatrix":
        """Transpose with the field involution applied entrywise."""
        return LaurentMatrix(
            [[self.rows[j][i].conj() for j in range(self.n)] for i in range(self.n)]
        )

    def det(self) -> LaurentPoly:
        """Division-free determinant: dynamic programming over column subsets."""
        n = self.n
        # best[mask] = signed sum over ways to fill the first popcount(mask)
        # rows using exactly the columns in mask
        best: dict[int, LaurentPoly] = {0: ONE}
        for i in range(n):
            nxt: dict[int, LaurentPoly] = {}
            for mask, val in best.items():
                if val.is_zero():
                    continue
                below = 0  # columns of mask below j: inversions added = i - below
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        below += 1
                        continue
                    a = self.rows[i][j]
                    if a.is_zero():
                        continue
                    term = val * a
                    if (i - below) & 1:
                        term = -term
                    m2 = mask | bit
                    cur = nxt.get(m2)
                    nxt[m2] = term if cur is None else cur + term
            best = nxt
        return best.get((1 << n) - 1, ZERO)

    def inverse(self) -> "LaurentMatrix":
        """Inverse of a diagonal matrix whose diagonal entries are unit monomials.

        Nothing else is inverted here: every other matrix rgdcheck inverts is a
        product of known factors and is inverted factor by factor where it is
        built.  Any other input raises NotInvertibleOverRing.
        """
        n = self.n
        rows = self.rows
        if any(rows[i][j].coeffs for i in range(n) for j in range(n) if i != j):
            raise NotInvertibleOverRing("only diagonal matrices are inverted")
        return LaurentMatrix.diagonal([rows[i][i].monomial_inverse() for i in range(n)])

    def constant_part(self) -> "LaurentMatrix":
        """Entrywise coefficient of t^0."""
        return LaurentMatrix(
            [
                [LaurentPoly({0: e.coeff(0)}) for e in row]
                for row in self.rows
            ]
        )

    def conj(self) -> "LaurentMatrix":
        return LaurentMatrix([[e.conj() for e in row] for row in self.rows])

    def __str__(self):
        cells = [[str(e) for e in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def __repr__(self):
        return f"LaurentMatrix of size {self.n}:\n{self}"
