"""Laurent polynomials with quarter-integer exponents, and matrices over them.

Exponents live on the lattice (1/4)Z and are stored as integers scaled by 4,
so t^(1/2) has key 2 and t^(-1) has key -4.  The honest coordinate ring
k[t, t^-1] is the sublattice of keys divisible by 4; the finer lattice exists
only to host torus elements like diag(t^(1/2), t^(-1/2)) used for conjugation.
Coefficients are FieldScalar values; coefficient maps never store zeros.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, NotInvertibleOverRing, NotMonomial
from .scalars import FieldScalar

Q = Fraction

EXP_SCALE = 4  # stored exponent units per power of t

_SCALAR_ZERO = FieldScalar(0)
_SCALAR_ONE = FieldScalar(1)


def exp4(q) -> int:
    """EXP_SCALE * q, the stored key of an int or Fraction exponent q on (1/4)Z."""
    if EXP_SCALE % q.denominator:
        raise ValueError(f"exponent {q} off the quarter lattice")
    return EXP_SCALE // q.denominator * q.numerator


class LaurentPoly:
    """Finite sum of c * t^(e/4) terms, keyed by the scaled exponent e."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, FieldScalar] | None = None):
        clean: dict[int, FieldScalar] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = FieldScalar.coerce(c)
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
        return LaurentPoly({0: FieldScalar.coerce(c)})

    @staticmethod
    def term(c, exponent) -> "LaurentPoly":
        """c * t^exponent for a Fraction or int exponent on the (1/4)Z lattice."""
        return LaurentPoly({exp4(exponent): FieldScalar.coerce(c)})

    @staticmethod
    def t_power(exponent) -> "LaurentPoly":
        return LaurentPoly.term(1, exponent)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self is ONE or (len(self.coeffs) == 1 and self.coeffs.get(0) == _SCALAR_ONE)

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

    def in_inv_poly_ring(self) -> bool:
        """True when the polynomial lies in k[t^-1] (all exponents <= 0)."""
        return all(e <= 0 for e in self.coeffs)

    def is_constant(self) -> bool:
        return all(e == 0 for e in self.coeffs)

    @property
    def is_rational(self) -> bool:
        """Every coefficient lies in Q, as `FieldScalar.is_rational` asks of one."""
        return all(c.is_rational for c in self.coeffs.values())

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        _add_into(out, other.coeffs)
        return _nonzero_poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _nonzero_poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out: dict[int, FieldScalar] = {}
        _add_product(out, self.coeffs, other.coeffs)
        return _nonzero_poly(out)

    __rmul__ = __mul__

    def conj(self) -> "LaurentPoly":
        """tau on every coefficient; t and slot variables (`slots`) are fixed."""
        return _nonzero_poly({e: c.conj() for e, c in self.coeffs.items()})

    def monomial_pow(self, k: int) -> "LaurentPoly":
        e4, c = self.monomial_parts()
        return _nonzero_poly({e4 * k: c**k})

    def __eq__(self, other):
        # a polynomial operand first: it is the only one LaurentMatrix passes
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction, FieldScalar)):
                other = LaurentPoly.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        return self.coeffs == other.coeffs

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


def _add_product(acc: dict, a: dict, b: dict, negate=False) -> None:
    """acc += a * b (acc -= a * b when negate) on coefficient maps; a product
    of nonzero scalars is nonzero, so only a sum can leave a zero to drop."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            prod = -(c1 * c2) if negate else c1 * c2
            cur = acc.get(e)
            if cur is None:
                acc[e] = prod
                continue
            cur = cur + prod
            if cur.is_zero():
                del acc[e]
            else:
                acc[e] = cur


def _add_into(acc: dict, a: dict) -> None:
    """acc += a on coefficient maps, dropping a sum that cancels."""
    for e, c in a.items():
        cur = acc.get(e)
        if cur is None:
            acc[e] = c
            continue
        cur = cur + c
        if cur.is_zero():
            del acc[e]
        else:
            acc[e] = cur


def _nonzero_poly(coeffs: dict[int, FieldScalar]) -> LaurentPoly:
    """Trusted constructor for coefficients that are already all nonzero."""
    p = object.__new__(LaurentPoly)
    p.coeffs = coeffs
    return p


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
_MINUS_ONE = LaurentPoly.const(-1)


def _row_sum(base: dict, coefs: dict, rows, skip=-1) -> dict:
    """The sparse row base + sum of c * rows[k] over the entries (k, c) of
    coefs but column skip, as a new dict.  A cell that one term reaches is
    the other factor itself when either factor is the shared ONE, else a
    fresh product; a cell that two or more terms reach (base's counts as one)
    is summed in a copy and dropped if it cancels.  ONE is multiplied by
    nothing, and no input row or polynomial is written."""
    cells = dict(base)
    summed: dict = {}
    for k, a in coefs.items():
        if k == skip:
            continue
        for j, b in rows[k].items():
            # the factor that is not the shared ONE, if either is
            p = b if a is ONE else a if b is ONE else None
            acc = summed.get(j)
            if acc is None:
                cur = cells.get(j)
                if cur is None:
                    if p is None:
                        p = {}
                        _add_product(p, a.coeffs, b.coeffs)
                        p = _nonzero_poly(p)
                    cells[j] = p
                    continue
                acc = summed[j] = dict(cur.coeffs)
            if p is None:
                _add_product(acc, a.coeffs, b.coeffs)
            else:
                _add_into(acc, p.coeffs)
    for j, acc in summed.items():
        if acc:
            cells[j] = _nonzero_poly(acc)
        else:
            del cells[j]
    return cells


class LaurentMatrix:
    """Square matrix over LaurentPoly, used for group elements (det a unit).

    Stored as sparse rows, `sparse[i] = {j: entry}` over the nonzero entries
    only, so products and determinants of the mostly unipotent group elements
    walk few entries; `rows` builds the dense grid for display.

    Rows are never written once `_matrix` has stored them, so matrices share
    rows freely.  The identity's rows `{i: ONE}` are one table per size
    (`_UNIT_ROWS`): `identity`, `from_entries` and the pinnings build through
    `_unit_plus`, which copies only the rows it writes.  The kernels skip a
    unit row: in `@` a left row that is the shared ONE alone, at column k,
    becomes the right operand's row k itself, `det` neither tests nor
    multiplies it, and `_minus_identity` gives it an empty row of E.

    Every other row that `@` or `conjugator` builds comes from one row rule,
    `_row_sum`, and E = g - I is a list of rows in this same format.
    """

    __slots__ = ("n", "sparse")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        self.n = n
        self.sparse = tuple({j: p for j, p in enumerate(r) if p.coeffs} for r in rows)

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return _unit_plus(n, ())

    @staticmethod
    def from_entries(n: int, entries: dict[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        """The identity with each given entry set to the given polynomial."""
        for i, j in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"entry ({i},{j}) outside {n}x{n}")
        return _unit_plus(n, entries.items())

    @staticmethod
    def diagonal(entries) -> "LaurentMatrix":
        return _matrix([{i: p} if p.coeffs else {} for i, p in enumerate(entries)])

    @property
    def rows(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The dense grid, zeros included."""
        return tuple(tuple(r.get(j, ZERO) for j in range(self.n)) for r in self.sparse)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.sparse[i].get(j, ZERO)

    def items(self):
        """((i, j), entry) for every nonzero entry, row by row."""
        return (((i, j), p) for i, r in enumerate(self.sparse) for j, p in r.items())

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Product over stored entries.  A left row that is the shared ONE
        alone, at column k, gives right row k itself.  Any other row i is
        `_row_sum` of its entries times the right rows: starting from right
        row i, and leaving out column i, when the row holds the shared ONE on
        its diagonal, else from nothing."""
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n}x{self.n} @ {other.n}x{other.n}")
        right = other.sparse
        out = []
        for i, row in enumerate(self.sparse):
            if len(row) == 1:
                ((k, a),) = row.items()
                if a is ONE:
                    out.append(right[k])
                    continue
            unit = row.get(i) is ONE
            out.append(_row_sum(right[i] if unit else {}, row, right, i if unit else -1))
        return _matrix(out)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.n == other.n and self.sparse == other.sparse

    def is_identity(self) -> bool:
        # a shared unit row compares equal to itself by identity
        return self.sparse == (_UNIT_ROWS.get(self.n) or _unit_plus(self.n, ()).sparse)

    def transpose(self) -> "LaurentMatrix":
        out: list[dict[int, LaurentPoly]] = [{} for _ in range(self.n)]
        for (i, j), p in self.items():
            out[j][i] = p
        return _matrix(out)

    def det(self) -> LaurentPoly:
        """Division-free determinant: the diagonal's product for a triangular
        matrix, else dynamic programming over column subsets.  One pass over
        the rows tests triangularity, each side only while it still holds; a
        row that is its diagonal entry alone fits either side, and a diagonal
        entry that is the shared ONE adds nothing to the product."""
        rows = self.sparse
        upper = lower = True
        diag = []
        for i, r in enumerate(rows):
            p = r.get(i, ZERO)
            if len(r) > 1 or p is ZERO:
                if upper:
                    upper = min(r, default=i) >= i
                if lower:
                    lower = max(r, default=i) <= i
                if not (upper or lower):
                    break
            if p is not ONE:
                diag.append(p)
        else:
            out = ONE
            for p in diag:
                out = p if out is ONE else out * p
            return out
        # best[mask] = coefficients of the signed sum over ways to fill the
        # first popcount(mask) rows using exactly the columns in mask
        best: dict[int, dict[int, FieldScalar]] = {0: {0: _SCALAR_ONE}}
        for i, row in enumerate(rows):
            nxt: dict[int, dict[int, FieldScalar]] = {}
            for mask, val in best.items():
                if not val:
                    continue
                for j, a in row.items():
                    bit = 1 << j
                    if mask & bit:
                        continue
                    acc = nxt.get(mask | bit)
                    if acc is None:
                        acc = nxt[mask | bit] = {}
                    # inversions added: the columns of mask above j
                    odd = (i - (mask & (bit - 1)).bit_count()) & 1
                    _add_product(acc, val, a.coeffs, odd)
            best = nxt
        return _nonzero_poly(best.get((1 << self.n) - 1, {}))

    def inverse(self) -> "LaurentMatrix":
        """Inverse of a diagonal matrix whose diagonal entries are unit monomials.

        Nothing else is inverted here: every other matrix rgdcheck inverts is a
        product of known factors and is inverted factor by factor where it is
        built.  Any other input raises NotInvertibleOverRing.
        """
        if any(j != i for (i, j), _ in self.items()):
            raise NotInvertibleOverRing("only diagonal matrices are inverted")
        return LaurentMatrix.diagonal(
            [self.entry(i, i).monomial_pow(-1) for i in range(self.n)]
        )

    def constant_part(self) -> "LaurentMatrix":
        """Entrywise coefficient of t^0."""
        return _matrix(
            [
                {j: _nonzero_poly({0: p.coeffs[0]}) for j, p in r.items() if 0 in p.coeffs}
                for r in self.sparse
            ]
        )

    def __str__(self):
        cells = [[str(e) for e in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def __repr__(self):
        return f"LaurentMatrix of size {self.n}:\n{self}"


def _minus_identity(g: LaurentMatrix) -> list[dict[int, LaurentPoly]]:
    """Rows of E = g - I in the `LaurentMatrix.sparse` format, {column:
    entry} over the nonzero entries: a unit row of g gives {}, a diagonal
    entry that is the shared ONE adds nothing, and a missing one adds -1.
    g is not written to."""
    rows = []
    for p, row in enumerate(g.sparse):
        if len(row) == 1 and row.get(p) is ONE:
            rows.append({})
            continue
        out = dict(row)
        e = row.get(p)
        e = _MINUS_ONE if e is None else ZERO if e is ONE else e - ONE
        if e.coeffs:
            out[p] = e
        else:
            del out[p]
        rows.append(out)
    return rows


def conjugator(h: LaurentMatrix, hinv: LaurentMatrix):
    """The map E -> h @ g @ hinv for one h and hinv and many g near I, each
    given as the rows of E = g - I that `_minus_identity(g)` returns.

    By distributivity h (I + E) hinv = h hinv + h E hinv, so h hinv is formed
    once and each stored entry e = E[p][q] adds e times the outer row
    h[i][p] hinv[q] to every row i of column p of h, through `_row_sum`.  The
    outer row is row q of hinv itself when h[i][p] is the shared ONE, else a
    product row built the first time an E reaches (p, q) and kept in row i's
    table for the conjugator's life.  A row of the result that no entry of E
    reaches is the row of h hinv itself (the shared unit row when h hinv is
    the identity).  Exact for any hinv, an inverse of h or not.  The
    operands, E and h hinv are never written to.
    """
    n = h.n
    base = h @ hinv
    base = (_unit_plus(n, ()) if base.is_identity() else base).sparse
    cols = h.transpose().sparse
    right = hinv.sparse
    # table[i][(p, q)] is the outer row h[i][p] hinv[q]
    table: list[dict[tuple[int, int], dict]] = [{} for _ in range(n)]

    def conj(e_rows: list) -> LaurentMatrix:
        if len(e_rows) != n:
            raise DimensionMismatch(f"{n}x{n} conjugating {len(e_rows)}x{len(e_rows)}")
        rows = list(base)
        for p, row in enumerate(e_rows):
            for q, e in row.items():
                for i, a in cols[p].items():
                    outer = table[i].get((p, q))
                    if outer is None:
                        outer = right[q] if a is ONE else _row_sum({}, {q: a}, right)
                        table[i][p, q] = outer
                    if outer:
                        rows[i] = _row_sum(rows[i], {(p, q): e}, table[i])
        return _matrix(rows)

    return conj


def form_check(form: LaurentMatrix):
    """The test g -> (g* @ form @ g == form) for a monomial form F, one
    stored entry f_k in each row k, at column s(k), that is hermitian or
    skew-hermitian, F* = eps F with eps = +-1; any other form raises
    NotMonomial.

    With E = g - I (see `_minus_identity`), D = g* F g - F = E* F + F E +
    E* F E = E* (F g) + F E, where row k of F g is f_k g[s(k)] and row k of
    F E is f_k E[s(k)].  So each stored entry (k, i) of E adds conj(E[k][i])
    f_k g[s(k)] to row i, each row k adds f_k E[s(k)], and g is in the group
    of F when everything cancels.  D* = eps D for every g, so D[j][i] is
    eps conj(D[i][j]) and only the cells (i, j) with i <= j are summed.
    Exact for any g; for a root group element, a few entries off the
    identity, it is a few scalar products, and the shared ONE, in F or on
    g's diagonal, is multiplied by nothing.  Every term is summed into one
    coefficient map per cell, not through `_row_sum`: only whether all cells
    cancel is asked, so no row is built.  Neither g nor F is written to.
    """
    n = form.n
    entries = []
    for k, row in enumerate(form.sparse):
        if len(row) != 1:
            raise NotMonomial(f"row {k} of the form holds {len(row)} entries")
        ((s, f),) = row.items()
        entries.append((s, f))
    # F* = eps F: row s(k) holds eps conj(f_k), at column k
    mirrors = [(entries[s], k, f.conj()) for k, (s, f) in enumerate(entries)]
    if not any(all(e == (k, eps * c) for e, k, c in mirrors) for eps in (ONE, _MINUS_ONE)):
        raise NotMonomial("the form is neither hermitian nor skew-hermitian")

    def check(g: LaurentMatrix) -> bool:
        if g.n != n:
            raise DimensionMismatch(f"{n}x{n} form checking {g.n}x{g.n}")
        diff = _minus_identity(g)
        rows = g.sparse
        acc: dict[tuple[int, int], dict[int, FieldScalar]] = {}
        for k, (s, f) in enumerate(entries):
            for j, x in diff[s].items():
                if j >= k:
                    _add_product(acc.setdefault((k, j), {}), f.coeffs, x.coeffs)
            for i, e in diff[k].items():
                left = {x: c.conj() for x, c in e.coeffs.items()}
                if f is not ONE:
                    scaled: dict[int, FieldScalar] = {}
                    _add_product(scaled, left, f.coeffs)
                    left = scaled
                for j, x in rows[s].items():
                    if j < i:
                        continue
                    cell = acc.setdefault((i, j), {})
                    if x is ONE:
                        _add_into(cell, left)
                    else:
                        _add_product(cell, left, x.coeffs)
        return not any(acc.values())

    return check


def _matrix(rows: list[dict[int, LaurentPoly]]) -> LaurentMatrix:
    """Trusted constructor: sparse rows of in-range columns holding no zero
    polynomial.  The rows are stored as given and never written after."""
    m = object.__new__(LaurentMatrix)
    m.n = len(rows)
    m.sparse = tuple(rows)
    return m


# the identity's rows {i: ONE} for each size n built so far, shared by every
# matrix that leaves them unwritten
_UNIT_ROWS: dict[int, tuple[dict[int, LaurentPoly], ...]] = {}


def _unit_plus(n: int, entries) -> LaurentMatrix:
    """Trusted builder: the n x n identity with each ((i, j), p) of entries
    written at in-range (i, j), a zero p clearing the cell.  A row that no
    entry writes is the shared unit row; a written row is a copy."""
    units = _UNIT_ROWS.get(n)
    if units is None:
        units = _UNIT_ROWS[n] = tuple({i: ONE} for i in range(n))
    rows = list(units)
    for (i, j), p in entries:
        row = rows[i]
        if row is units[i]:
            row = rows[i] = {i: ONE}
        if p.coeffs:
            row[j] = p
        else:
            row.pop(j, None)
    return _matrix(rows)
