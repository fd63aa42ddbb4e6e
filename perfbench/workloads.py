"""The benchmark's workloads.

Each workload names the models it builds, the affine level window, the
sample count handed to ``SuiteConfig`` and the suites it runs.  The seed is
not part of a workload: it comes from the command line.  Sample counts are
trimmed from the ``rgdcheck`` defaults so that one verification pass takes a
few seconds and a run holds several passes.

A workload's ``known_defects`` are (model, suite) pairs on which rgdcheck
gives a wrong verdict today.  The timed passes leave them out, so that every
output the benchmark checks is expected to be right; ``defects.py`` runs
them on their own and prints each wrong output by name.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = "all"


@dataclass(frozen=True)
class ModelSpec:
    label: str
    kind: str
    params: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[ModelSpec, ...]
    level_min: int
    level_max: int
    samples: int
    suites: str | tuple[str, ...]
    known_defects: tuple[tuple[str, str], ...] = ()


SL3 = ModelSpec("SL3", "sl", (("rank", 2),))
SL4 = ModelSpec("SL4", "sl", (("rank", 3),))
SU31 = ModelSpec("SU(3,1)", "su", (("dim", 3), ("witt", 1), ("disc", -1)))
SU41 = ModelSpec("SU(4,1)", "su", (("dim", 4), ("witt", 1), ("disc", -1)))
SU52 = ModelSpec("SU(5,2)", "su", (("dim", 5), ("witt", 2), ("disc", -1)))

# Why each workload is here, and what it should and should not move:
WORKLOADS = {
    w.name: w
    for w in (
        # Rational scalars and det-only membership; most pinnings repeat
        # earlier coordinates.  A rational fast path or a pinning memo shows
        # here; quadratic-field or hermitian-membership work should not.
        Workload("split-a2", (SL3,), -2, 2, 4, ALL),
        # Quadratic-field scalars, quadratic corners, adjugate inverses in
        # RGD2 and hermitian membership on every pinning.  Moving membership
        # out of relative_pinning shows most here.
        Workload("unitary-bc1", (SU31,), -2, 2, 4, ALL),
        # The only 4x4 and 5x5 matrices, the non-reduced BC2 intervals and two
        # anisotropic slots.  Its two known defects are run by defects.py:
        # false SU(5,2) RGD1 failures after peel_product's cap, and an
        # SU(4,1) RGD5 raise.
        Workload(
            "unitary-bc2", (SU52, SU41), -1, 0, 1, ALL,
            known_defects=(("SU(5,2)", "rgd1"), ("SU(4,1)", "rgd5")),
        ),
        # roots and affine alone: no pinning, matrix or field-scalar work, so
        # changes to laurent, scalars or models should leave it unchanged.
        Workload("affine-combinatorics", (SL4, SU52), -2, 2, 8, ("combinatorics",)),
    )
}
