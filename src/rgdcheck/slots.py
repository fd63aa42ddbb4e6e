"""Slot variables packed into the integer keys of LaurentPoly.

A certificate builds root group elements on variables u0, u1, ..., v0, ...,
proving a claim for every coordinate at once.  The term c t^(e/4) x0^d0 ...
sits at the key with e in its lowest BITS bits and d_k in field k + 1, each a
balanced digit.  While no field overflows, a product of terms adds their keys,
so `laurent`'s kernels run on packed keys unchanged; only this module reads one.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import EXP_SCALE, LaurentPoly, _nonzero_poly
from .scalars import FieldScalar

BITS = 20
_HALF = 1 << (BITS - 1)


def pack(degrees, e: int = 0) -> int:
    """The key of t^(e/4) x_k^degrees[k]; a field out of range raises."""
    key = 0
    for d in reversed((e, *degrees)):
        if not -_HALF <= d < _HALF:
            raise OverflowError(f"{d} overflows a {BITS}-bit field")
        key = (key << BITS) + d
    return key


def t_exponent(key: int) -> int:
    """The scaled t-exponent e of a key: its lowest field."""
    return ((key + _HALF) & ((1 << BITS) - 1)) - _HALF


def degrees(key: int, count: int) -> tuple[int, ...]:
    """The degrees of variables 0 .. count - 1; a higher variable raises."""
    out = []
    for _ in range(count + 1):
        low = t_exponent(key)
        out.append(low)
        key = (key - low) >> BITS
    if key:
        raise OverflowError(f"a key holds more than {count} variables")
    return tuple(out[1:])


def bidegrees(p: LaurentPoly, width: int) -> set[tuple[int, int, int]]:
    """(t-exponent, degree in u0 .. u(width - 1), degree in v0 .. v(width - 1))
    of each term of p."""
    terms = [(t_exponent(key), degrees(key, 2 * width)) for key in p.coeffs]
    return {(e, sum(d[:width]), sum(d[width:])) for e, d in terms}


def var(k: int) -> LaurentPoly:
    """The slot variable x_k, fixed by tau."""
    return _nonzero_poly({pack((0,) * k + (1,)): FieldScalar(1)})


def swap(p: LaurentPoly, width: int) -> LaurentPoly:
    """p with variables k and width + k exchanged for every k < width."""
    out = {}
    for key, c in p.coeffs.items():
        d = degrees(key, 2 * width)
        out[pack(d[width:] + d[:width], t_exponent(key))] = c
    return _nonzero_poly(out)


def text(p: LaurentPoly, width: int) -> str:
    """p in variables u0 .. u(width - 1) and v0 .. v(width - 1) as text."""
    count, out = 2 * width, ""
    for key in sorted(p.coeffs, key=lambda e: degrees(e, count), reverse=True):
        c, e = p.coeffs[key], t_exponent(key)
        neg = c.is_rational and c.base < 0
        ds = enumerate(degrees(key, count))
        mono = [f"{'uv'[k // width]}{k % width}" + f"^{d}" * (d != 1) for k, d in ds if d]
        mono += [f"t^{Fraction(e, EXP_SCALE)}"] * (e != 0)
        coeff = str(-c if neg else c) if c.is_rational else f"({c})"
        term = "*".join(mono if coeff == "1" and mono else [coeff, *mono])
        out += (" - " if neg else " + ") + term
    return (out[3:] if out[:3] == " + " else "-" + out[3:]) if out else "0"
