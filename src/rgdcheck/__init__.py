"""Exact verification of root group data axioms for matrix groups over
Laurent polynomial rings.

The package builds two families of concrete matrix models (split special
linear groups and quasi-split special unitary groups), realizes their affine
root groups by explicit pinnings with exact rational or quadratic-field
coefficients, and mechanically checks the defining axioms of a root group
datum together with the supporting combinatorics.
"""

from .affine import (
    AffineRoot,
    affine_reflect,
    affine_root,
    chamber_oracle,
    is_positive,
    is_prenilpotent,
    open_interval,
    prenilpotent_oracle,
    reflect_point,
    simple_affine_roots,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    HalfIntegerLevel,
    IndexOutOfRange,
    MembershipViolation,
    NotInRootGroup,
    NotInvertibleOverRing,
    NotMonomial,
    NotPrenilpotent,
    PeelFailure,
    RankOneSolveFailed,
    ReflectionLeftSystem,
    ResidueNotIdentity,
    RgdcheckError,
    UnsupportedType,
)
from .laurent import LaurentMatrix, LaurentPoly
from .models import (
    GroupModel,
    RootGroupCoords,
    SplitSLModel,
    SUModel,
    basis_generators,
    build_model,
    coords_neg,
    special_unitary,
    split_sl,
)
from .roots import RootSystem, build_root_system, pairing
from .scalars import FieldScalar, sqrt_of
from .verify import ALL_SUITES, AxiomReport, SuiteConfig, run_suites

__version__ = "0.1.0"
