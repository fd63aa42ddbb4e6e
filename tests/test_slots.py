"""Tests for the packing of slot variables into LaurentPoly keys."""

import random
from fractions import Fraction

import pytest

from rgdcheck import LaurentPoly, SuiteConfig, run_suites, special_unitary
from rgdcheck.laurent import EXP_SCALE, ZERO
from rgdcheck.scalars import FieldScalar
from rgdcheck.slots import BITS, degrees, pack, swap, t_exponent, text, var

TOP = (1 << (BITS - 1)) - 1  # the largest degree a field holds
BOTTOM = -(1 << (BITS - 1))


def test_signed_degrees_round_trip():
    rng = random.Random(5)
    cases = [((TOP, BOTTOM, -1, 1), BOTTOM), ((0, 0, 0), TOP), ((-3,), -4)]
    for _ in range(200):
        k = rng.randint(1, 6)
        cases.append(
            (tuple(rng.randint(BOTTOM, TOP) for _ in range(k)), rng.randint(BOTTOM, TOP))
        )
    for ds, e in cases:
        key = pack(ds, e)
        assert degrees(key, len(ds)) == ds
        assert t_exponent(key) == e


def test_products_add_degrees_through_the_kernel():
    # x0^-2 x1 t^(1/2) times x0^3 x1^-1 t^-1 is x0 t^(-1/2): the keys add
    a = LaurentPoly({pack((-2, 1), 2): FieldScalar(3)})
    b = LaurentPoly({pack((3, -1), -EXP_SCALE): FieldScalar(-1)})
    ((key, c),) = (a * b).coeffs.items()
    assert (degrees(key, 2), t_exponent(key), c) == ((1, 0), -2, FieldScalar(-3))


@pytest.mark.parametrize(
    "ds, e", [((TOP + 1,), 0), ((BOTTOM - 1,), 0), ((0, 0), TOP + 1), ((1,), BOTTOM - 1)]
)
def test_an_overflowing_field_raises(ds, e):
    with pytest.raises(OverflowError):
        pack(ds, e)


def test_a_key_with_more_variables_than_read_raises():
    with pytest.raises(OverflowError):
        degrees(pack((0, 0, 1)), 2)
    assert degrees(pack((0, 0, 1)), 3) == (0, 0, 1)


def test_the_t_exponent_slice():
    assert t_exponent(0) == 0
    assert t_exponent(pack((5, -7), -8)) == -8
    assert t_exponent(pack((1,), 3)) == 3
    # a key without variables is its own t-exponent
    assert all(t_exponent(e) == e for e in range(-40, 41))
    assert all(degrees(e, 4) == (0, 0, 0, 0) for e in range(-40, 41))


def test_text_prints_slot_variables():
    u0, u1, v0, v1 = map(var, range(4))
    assert text(u0 * v1 - u1 * v0, 2) == "u0*v1 - u1*v0"
    assert text(swap(u0 * v1 - u1 * v0, 2), 2) == "-u0*v1 + u1*v0"
    assert text(ZERO, 2) == "0"
    i = FieldScalar(0, 1, -1)
    poly = u0 * u0 * FieldScalar(2) + v0 * i + LaurentPoly.const(-3)
    assert text(poly, 2) == "2*u0^2 + (0+1*sqrt(-1))*v0 - 3"
    inverse = LaurentPoly({pack((-1,), 2 * EXP_SCALE): FieldScalar(Fraction(1, 2))})
    assert text(inverse, 1) == "1/2*u0^-1*t^2"
    # a constant 1, and a coefficient outside Q whose rational part is negative
    assert text(LaurentPoly.const(1) - u1, 2) == "-u1 + 1"
    assert text(u0 * FieldScalar(-1, 2, -1), 2) == "(-1+2*sqrt(-1))*u0"


def test_swap_exchanges_u_and_v():
    u0, u1, v0, v1 = map(var, range(4))
    assert swap(u0 * u1 * v1, 2) == v0 * v1 * u1
    assert swap(swap(u0 * v1 + u1, 2), 2) == u0 * v1 + u1


def test_t_exponent_methods_never_see_a_packed_key(monkeypatch):
    """A certified SU(5,2) run gives no key that holds a slot variable to the
    LaurentPoly methods that read keys as t-exponents, `coeff` among them,
    through which every numeric read goes."""
    seen, packed = [], []
    for name in ("in_inv_poly_ring", "is_constant", "monomial_parts", "coeff", "__str__"):
        inner = getattr(LaurentPoly, name)

        def watched(self, *args, _inner=inner, _name=name):
            seen.append(_name)
            packed.extend(e for e in self.coeffs if t_exponent(e) != e)
            return _inner(self, *args)

        monkeypatch.setattr(LaurentPoly, name, watched)
    model = special_unitary(5, 2)
    reports = run_suites(model, SuiteConfig(level_min=-1, level_max=0, samples=1))
    assert all(r.passed for r in reports)
    (q2,) = [r for r in reports if r.axiom == "Q2Additive"]
    assert q2.cases == len(model.system.roots) == 12
    # the watched methods ran, on unpacked keys only
    assert {"in_inv_poly_ring", "is_constant", "monomial_parts", "coeff"} <= set(seen)
    assert packed == []
