"""Error types shared across the package.

Every failure mode that callers are expected to catch gets its own class,
so tests can assert on the exact condition instead of matching messages.
"""


class RgdcheckError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(RgdcheckError):
    """Division by the zero scalar."""


class FieldMismatch(RgdcheckError):
    """Arithmetic between scalars living in incompatible quadratic fields."""


class DimensionMismatch(RgdcheckError):
    """Matrix or vector sizes do not line up."""


class NotInvertibleOverRing(RgdcheckError):
    """Determinant is not a unit monomial, so no inverse exists over the ring."""


class UnsupportedType(RgdcheckError):
    """Requested a root system kind or model outside the supported families."""


class ReflectionLeftSystem(RgdcheckError):
    """A reflection produced a vector that is not a root of the system."""


class HalfIntegerLevel(RgdcheckError):
    """Operation defined only for integer levels got a proper half-integer."""


class NotPrenilpotent(RgdcheckError):
    """Pair of affine roots is not prenilpotent, so the interval is undefined."""


class NotMonomial(RgdcheckError):
    """A coroot argument that is not a unit monomial c * t^e with c != 0, or
    a form without exactly one entry per row."""


class IndexOutOfRange(RgdcheckError):
    """Absolute root index does not fit the model's matrix size."""


class MembershipViolation(RgdcheckError):
    """Constructed matrix fails the group membership test."""


class NotInRootGroup(RgdcheckError):
    """Matrix is not an element of the requested affine root group."""


class ResidueNotIdentity(RgdcheckError):
    """Peeling a product left a nonidentity residue."""


class RankOneSolveFailed(RgdcheckError):
    """Could not express the rank-one Weyl representative in the expected shape."""


class PeelFailure(RgdcheckError):
    """Product of root group elements did not decompose as expected."""


class ConfigError(RgdcheckError):
    """Invalid run configuration."""
