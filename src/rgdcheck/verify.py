"""Axiom suites: mechanical checks of the root group data axioms.

Each suite runs a deterministic, seeded batch of exact checks against one
concrete group model and fills one AxiomReport.  A failure record carries
the offending inputs plus expected and actual values as strings, so reports
are reproducible byte for byte under a fixed configuration.

A suite is one entry of `SUITES`: its tag, its axiom name and a case body
`body(model, cfg, report)`.  The body runs its own loops and sampling and
opens each case with `with report.case(inputs, expected) as case:`, which
counts it; `run_suites` creates, times and returns the reports.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import (
    AffineRoot,
    _level,
    affine_reflect,
    affine_root,
    chamber_oracle,
    interval_oracle,
    is_positive,
    is_prenilpotent,
    open_interval,
    prenilpotent_oracle,
    reflect_point,
    simple_affine_roots,
)
from .errors import (
    ConfigError,
    NotInRootGroup,
    PeelFailure,
    RankOneSolveFailed,
    ResidueNotIdentity,
)
from .laurent import LaurentMatrix, LaurentPoly, _minus_identity, conjugator, exp4
from .models import GroupModel, RootGroupCoords, basis_generators, coords_neg
from .roots import dot, pairing

Q = Fraction

# The errors by which a check says that an axiom failed on its inputs.  A case
# records one of these as its failure; any other exception is a bug and
# propagates.
VERDICT_ERRORS = (NotInRootGroup, ResidueNotIdentity, PeelFailure, RankOneSolveFailed)


@dataclass
class AxiomReport:
    axiom: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def case(self, inputs, expected) -> Case:
        """Count one case and return it, to be run as a `with` block; see Case."""
        self.cases += 1
        return Case(self, inputs, expected)

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "cases": self.cases,
            "failures": list(self.failures),
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class Case:
    """One case of a suite, open while its `with` block runs.

    A verdict error raised in the block becomes the case's failure record,
    with `expected` as the expectation and `str(error)` as the actual value,
    and the block is left; any other exception propagates.  `inputs` is a
    callable that builds the inputs text, and `expected` a text or a callable
    that builds it: they are called only when the case fails, so a passing
    case formats nothing.  Every failure record comes from `fail`, at most one
    per case: once failed, a case leaves its block or checks nothing more.
    """

    __slots__ = ("report", "inputs", "expected")

    def __init__(self, report: AxiomReport, inputs, expected):
        self.report = report
        self.inputs = inputs
        self.expected = expected

    def fail(self, actual: str, expected=None) -> None:
        """Record a failure of this case; `expected` defaults to the case's."""
        if expected is None:
            expected = self.expected
        if callable(expected):
            expected = expected()
        self.report.failures.append(
            {"inputs": self.inputs(), "expected": expected, "actual": actual}
        )

    def __enter__(self) -> Case:
        return self

    def __exit__(self, etype, exc, tb) -> bool:
        if etype is None or not issubclass(etype, VERDICT_ERRORS):
            return False
        self.fail(str(exc))
        return True


# -- shared helpers ----------------------------------------------------------


def _text(x) -> str:
    """Readable text of a case input, never a Fraction repr: rationals as 1/2,
    tuples as (1, -1/2), root group coordinates as their parts c+d."""
    if isinstance(x, RootGroupCoords):
        return f"{_text(x.c)}+{_text(x.d)}"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_text, x)) + ")"
    return str(x)


def in_range_affine_roots(model: GroupModel, cfg: SuiteConfig) -> list[AffineRoot]:
    return [
        affine_root(a, l)
        for a in model.system.roots
        for l in range(cfg.level_min, cfg.level_max + 1)
    ]


# the values of the first draws of `sample_coords`, on every slot
FIXED_DRAWS = (Q(1), Q(-1), Q(1, 2))


def sample_coords(
    model: GroupModel, alpha: AffineRoot, rng: random.Random, idx: int
) -> RootGroupCoords:
    """Deterministic nonzero coordinate sample; the first draws are the
    mandatory values of FIXED_DRAWS, which take nothing from rng."""
    nc, nd = model.coord_lengths(alpha.root)
    if idx < len(FIXED_DRAWS):
        return RootGroupCoords(alpha, (FIXED_DRAWS[idx],) * nc, (FIXED_DRAWS[idx],) * nd)
    total = nc + nd
    vals = [0] * total
    while not any(vals):
        vals = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(total)]
    return RootGroupCoords(alpha, tuple(vals[:nc]), tuple(vals[nc:]))


def _in_group(
    model: GroupModel, case: Case, coords: RootGroupCoords, g: LaurentMatrix
) -> bool:
    """Whether the pinning g of drawn coordinates lies in G, checked once; what
    is built from it stays in G unchecked.  A pinning outside G fails the case.
    det g is computed for every pinning; on SU the form identity g* F g = F
    is its root's certificate (`SUModel._form_certified`), one check of the
    level-zero map on slot variables, of which g is the image under
    x_k -> c_k t^-l, d -> d t^-2l.  Where the certificate fails, g is checked
    itself.  Tori, RGD2 quotients, RGD4 words and coroot values get the full
    check."""
    if model.contains(g, coords.alpha.root):
        return True
    case.fail(f"alpha={coords.alpha} {_text(coords)} left the group", "pinning lands in G")
    return False


def _generator_pinnings(model: GroupModel, cfg: SuiteConfig, keep=lambda coords, g: g) -> list:
    """(beta, [(coords, keep(coords, g))]) for every in-range U_beta: each
    basis generator with what the suite keeps of its pinning g (g itself, or
    E = g - I for `laurent.conjugator`), built once for one suite call."""
    pin = model.relative_pinning
    return [
        (beta, [(c, keep(c, pin(c))) for c in basis_generators(model, beta)])
        for beta in in_range_affine_roots(model, cfg)
    ]


def _conjugation(
    model: GroupModel,
    conjugands: list,
    report: AxiomReport,
    prefix: str,
    h: LaurentMatrix,
    hinv: LaurentMatrix,
    target,
) -> None:
    """h carries U_beta onto U_target(beta): one case per basis generator g of
    every U_beta in `conjugands`, given as E = g - I (see `_generator_pinnings`),
    peels h g h^-1 in U_target(beta).  Inputs: "<prefix> beta=... gen=..."."""
    conj = conjugator(h, hinv)
    for beta, gens in conjugands:
        image = target(beta)
        for coords, e in gens:
            with report.case(
                lambda: f"{prefix} beta={beta} gen={_text(coords)}",
                lambda: f"conjugate in U_{image}",
            ):
                model.peel(conj(e), image)


# -- the suites ------------------------------------------------------------------


def _rgd0(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Every affine root group in range is nontrivial and pinned inside G."""
    for alpha, gens in _generator_pinnings(model, cfg):
        for coords, g in gens:
            with report.case(
                lambda: f"alpha={alpha} c={_text(coords.c)} d={_text(coords.d)}",
                "nonidentity",
            ) as case:
                if _in_group(model, case, coords, g) and g.is_identity():
                    case.fail("identity")


def _rgd1(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Commutators of prenilpotent pairs peel over the open interval."""
    rng = random.Random(cfg.seed + 1)
    groups = in_range_affine_roots(model, cfg)
    pin = model.relative_pinning

    def draw(alpha: AffineRoot, s: int) -> tuple[RootGroupCoords, RootGroupCoords]:
        u = sample_coords(model, alpha, rng, s)
        return u, coords_neg(u)

    # (u, -u) of each fixed draw, built once per suite call: the fixed draws
    # take nothing from rng, and at 4 samples they are 3 in 4 of RGD1's draws
    fixed = {(a, s): draw(a, s) for a in groups for s in range(min(cfg.samples, len(FIXED_DRAWS)))}
    for i, alpha in enumerate(groups):
        for beta in groups[i + 1 :]:
            if not is_prenilpotent(alpha, beta):
                continue
            interval = open_interval(model.system, alpha, beta)
            for s in range(cfg.samples):
                u, u_inv = fixed.get((alpha, s)) or draw(alpha, s)
                v, v_inv = fixed.get((beta, s)) or draw(beta, s)
                with report.case(
                    lambda: f"alpha={alpha} beta={beta} u={_text(u)} v={_text(v)}",
                    lambda: f"commutator in product over {[str(g) for g in interval]}",
                ) as case:
                    gu, gv, gu_inv, gv_inv = pin(u), pin(v), pin(u_inv), pin(v_inv)
                    if (
                        _in_group(model, case, u, gu)
                        and _in_group(model, case, v, gv)
                        and _in_group(model, case, u_inv, gu_inv)
                        and _in_group(model, case, v_inv, gv_inv)
                    ):
                        model.peel_product(gu @ gv @ gu_inv @ gv_inv, interval)


def _rgd2(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Weyl representatives m(u) for the simple affine roots.

    For sampled u in U_alpha the representative m(u) = v1 x(u) v2, v1 and v2
    in U_(-alpha), must exist and vanish off the entries the reflection allows
    (`w_element_parts`), conjugate every in-range root group onto the reflected
    one, and differ between samples by a torus centralizer element.
    """
    rng = random.Random(cfg.seed + 2)
    n_samples = max(cfg.samples, 4)
    conjugands = _generator_pinnings(model, cfg, lambda c, g: _minus_identity(g))
    for alpha in simple_affine_roots(model.system):
        reflect = functools.partial(affine_reflect, model.system, alpha)
        reps = []  # (sample index, w, w^-1) of each representative built
        for s in range(n_samples):
            u = sample_coords(model, alpha, rng, s)
            w = None
            with report.case(lambda: f"alpha={alpha} u={_text(u)}", "representative"):
                w, w_inv, *_ = model.w_element_parts(u)
                reps.append((s, w, w_inv))
            if w is None:
                continue
            # conjugation: w U_beta w^-1 = U_(reflected beta)
            _conjugation(
                model, conjugands, report, f"alpha={alpha} u={_text(u)}", w, w_inv, reflect
            )
        # different samples differ by a torus centralizer element
        for (s0, w0, _), (s1, _, w1_inv) in zip(reps, reps[1:]):
            with report.case(
                lambda: f"alpha={alpha} samples {s0},{s1}",
                "m(u) m(u')^-1 centralizes the split torus",
            ) as case:
                quot = w0 @ w1_inv
                if not model.is_centralizer_element(quot):
                    case.fail("not a torus centralizer element")


def rgd3_case(model: GroupModel, alpha: AffineRoot) -> str:
    """Triangular profile class of U_alpha: upper or lower by the sign of its
    gradient, on which side of t^0 by `is_positive`."""
    upper = model.system.is_positive_root(alpha.root)
    if is_positive(model.system, alpha):
        return "upper-nonneg" if upper else "lower-strict-tinv"
    return "upper-strict-t" if upper else "lower-nonneg"


def _triangular_profile(g: LaurentMatrix, upper: bool, exp_ok) -> bool:
    ones = 0  # unit diagonal entries
    for (p, q), e in g.items():
        if p == q:
            if not e.is_one():
                return False
            ones += 1
        elif (q > p) != upper or not all(exp_ok(x) for x in e.coeffs):
            return False
    return ones == g.n


_KEY_T, _KEY_TINV = exp4(1), exp4(-1)  # the stored keys of t and t^-1
_PROFILE_TESTS = {
    # positive gradient, alpha positive: upper triangular over k[t^-1]
    "upper-nonneg": lambda g: _triangular_profile(g, True, lambda e: e <= 0),
    # positive gradient, alpha negative: upper triangular over t k[t]
    "upper-strict-t": lambda g: _triangular_profile(g, True, lambda e: e >= _KEY_T),
    # negative gradient, alpha positive: lower triangular over t^-1 k[t^-1]
    "lower-strict-tinv": lambda g: _triangular_profile(g, False, lambda e: e <= _KEY_TINV),
    # negative gradient, alpha negative: lower triangular over k[t]
    "lower-nonneg": lambda g: _triangular_profile(g, False, lambda e: e >= 0),
}


def positive_side_profile(g: LaurentMatrix) -> bool:
    """Profile satisfied by everything in the group generated by the positive
    affine root groups: entries in k[t^-1] whose value at t^-1 = 0 is upper
    unipotent."""
    return all(e.in_inv_poly_ring() for _, e in g.items()) and _triangular_profile(
        g.constant_part(), True, lambda e: e == 0
    )


def _rgd3(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Negative simple root groups escape the positive side.

    First classifies every in-range root group into its triangular profile,
    then exhibits, for each simple affine root, a generator of the opposite
    group violating the shared profile of the positive side.
    """
    for alpha, gens in _generator_pinnings(model, cfg):
        profile = rgd3_case(model, alpha)
        test = _PROFILE_TESTS[profile]
        for coords, g in gens:
            with report.case(
                lambda: f"alpha={alpha} gen={_text(coords)}",
                lambda: f"profile {profile}",
            ) as case:
                if not test(g):
                    case.fail("profile violated")
    for alpha in simple_affine_roots(model.system):
        for coords in basis_generators(model, -alpha):
            g = model.relative_pinning(coords)
            with report.case(
                lambda: f"-alpha={-alpha} gen={_text(coords)}",
                "witness escapes the positive-side profile",
            ) as case:
                if g.is_identity() or positive_side_profile(g):
                    case.fail("witness fits the positive side")


def _rgd4(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Structural generation check: sampled words in root group elements and
    torus centralizer elements stay inside the model group.  Generation of
    the full group is not decidable at this scale and is not attempted."""
    rng = random.Random(cfg.seed + 4)
    groups = in_range_affine_roots(model, cfg)
    torus = model.sample_centralizer_elements(rng, max(2, cfg.samples // 2))
    for s in range(cfg.samples):
        word = LaurentMatrix.identity(model.n)
        for _ in range(3 + s % 3):
            alpha = groups[rng.randrange(len(groups))]
            word = word @ model.relative_pinning(
                sample_coords(model, alpha, rng, 3 + s)
            )
        word = word @ torus[s % len(torus)][0]
        with report.case(lambda: f"sample {s}", "word stays in the group") as case:
            if not model.contains(word):
                case.fail("membership fails")


def _rgd5(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Torus centralizer elements normalize every affine root group."""
    rng = random.Random(cfg.seed + 5)
    torus = model.sample_centralizer_elements(rng, max(8, cfg.samples))
    conjugands = _generator_pinnings(model, cfg, lambda c, g: _minus_identity(g))
    for k, (h, hinv) in enumerate(torus):
        _conjugation(model, conjugands, report, f"h={k}", h, hinv, lambda beta: beta)


def _coroot_shift(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """kappa = a^vee(t^(-l/2)) moves x_(b, n)(c) to x_(b, n + l <b, a^vee> / 2)(c):
    one matrix equation per basis generator g, kappa g kappa^-1 compared, where
    it stores its entries (`GroupModel._is_pin`), with the pinning at the
    shifted level of the layout, link scalars and corner of g's coordinates,
    which do not depend on the level.  The shift is an int, or a proper
    half-integer Fraction when l <b, a^vee> is odd.  Each partner value
    factor * tau(z) is computed once per generator, as a link of its own
    that holds it and has no partner, not once per (a, l)."""

    def keep(coords: RootGroupCoords, g: LaurentMatrix) -> tuple:
        lay, zs, corner = model._pin_scalars(coords)
        cells = [((pos, None, None), z) for (pos, _, _), z in zip(lay.links, zs)]
        cells += [((pt, None, None), z.conj() * f) for (_, pt, f), z in zip(lay.links, zs) if pt]
        links, xs = zip(*cells)
        return _minus_identity(g), (lay._replace(links=links), list(xs), corner)

    shifted = _generator_pinnings(model, cfg, keep)
    for a_rel in model.system.roots:
        for l in range(cfg.level_min, cfg.level_max + 1):
            if l == 0:
                continue
            kappa = model.coroot(a_rel, LaurentPoly.t_power(Q(-l, 2)))
            conj = conjugator(kappa, kappa.inverse())
            shift = {}
            for b in model.system.roots:
                m = l * pairing(b, a_rel)
                shift[b] = Q(m, 2) if m % 2 else m // 2
            for beta, gens in shifted:
                level = beta.level + shift[beta.root]
                image = AffineRoot(beta.root, level if type(level) is int else _level(level))
                e4 = exp4(-image.level)
                for coords, (e, (lay, zs, corner)) in gens:
                    with report.case(
                        lambda: f"a={a_rel} l={l} beta={beta} gen={_text(coords)}",
                        lambda: f"same coordinates in U_{image}",
                    ) as case:
                        if not model._is_pin(conj(e), lay, zs, corner, e4):
                            case.fail("conjugate differs")


def _q2_additive(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Pinnings additive up to a skew q2 in U_2a: `GroupModel.q2_additive` per root."""
    for a_rel in model.system.roots:
        with report.case(lambda: f"a={a_rel}", "additive up to a skew q2"):
            model.q2_additive(a_rel)


def _combinatorics(model: GroupModel, cfg: SuiteConfig, report: AxiomReport) -> None:
    """Affine root combinatorics cross-checked against half-space geometry,
    each case by an identity that holds at every point.

    Covers the reflection involution, equivariance of reflections,
    positivity against the fundamental chamber point, prenilpotency against
    the interior-point oracle, and open interval members against
    `interval_oracle`.  A reflection is affine, so f_beta(v) = (b, v) + m
    equal to f_s(beta)(s(v)) at 0 and the e_i is equal everywhere: v lies in
    beta iff s(v) lies in s(beta).  Cases read the per-pair and per-root
    tables of `affine` and `roots` (filled on first use).
    """
    system = model.system
    groups = in_range_affine_roots(model, cfg)
    dim = len(system.roots[0])

    # positivity against the chamber oracle
    for alpha in groups:
        with report.case(lambda: f"alpha={alpha}", "sign matches chamber oracle") as case:
            if is_positive(system, alpha) != chamber_oracle(system, alpha):
                case.fail("mismatch")

    # integer points: the levels and the coroots are integral
    basis = [(0,) * dim] + [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    # f_beta on the basis: m at 0 and b_i + m at e_i
    values = [[x + beta.level for x in (0, *beta.root)] for beta in groups]
    for alpha in groups:
        refl = [reflect_point(alpha, v) for v in basis]
        # reflection is an involution on points
        with report.case(lambda: f"alpha={alpha}", "point involution") as case:
            if any(reflect_point(alpha, rv) != v for v, rv in zip(basis, refl)):
                case.fail("mismatch")
        reflected = {a: [dot(a, v) for v in refl] for a in system.roots}
        for beta, before in zip(groups, values):
            rbeta = affine_reflect(system, alpha, beta)
            with report.case(
                lambda: f"alpha={alpha} beta={beta}", "root involution"
            ) as case:
                if affine_reflect(system, alpha, rbeta) != beta:
                    case.fail(f"{rbeta}")
                    continue
                # equivariance: f_beta(v) = f_s(beta)(s(v)) on the basis
                after = [x + rbeta.level for x in reflected[rbeta.root]]
                if before != after:
                    v, x, y = next(t for t in zip(basis, before, after) if t[1] != t[2])
                    case.fail(
                        f"v={_text(v)}: f_beta(v)={x}, f_s(beta)(s(v))={y}",
                        "membership equivariance",
                    )

    for i, alpha in enumerate(groups):
        for beta in groups[i:]:
            with report.case(
                lambda: f"alpha={alpha} beta={beta}",
                "prenilpotency matches the oracle",
            ) as case:
                algebraic = is_prenilpotent(alpha, beta)
                geometric = prenilpotent_oracle(alpha, beta)
                if algebraic != geometric:
                    case.fail(f"{geometric}", f"prenilpotent oracle {algebraic}")
                    continue
            if not algebraic or alpha == beta:
                continue
            interval = open_interval(system, alpha, beta)
            if not interval:
                continue
            with report.case(
                lambda: f"alpha={alpha} beta={beta}",
                "interval members contain the intersection",
            ) as case:
                stray = next((g for g in interval if not interval_oracle(alpha, beta, g)), None)
                if stray is not None:
                    case.fail(f"gamma={stray} is not p alpha + q beta with p, q > 0")


# -- the suite table, its configuration and runner ---------------------------------

# tag -> (axiom name, case body), in the order the suites run
SUITES = {
    "rgd0": ("RGD0", _rgd0),
    "rgd1": ("RGD1", _rgd1),
    "rgd2": ("RGD2", _rgd2),
    "rgd3": ("RGD3", _rgd3),
    "rgd4": ("RGD4", _rgd4),
    "rgd5": ("RGD5", _rgd5),
    "coroot-shift": ("CorootShift", _coroot_shift),
    "q2-additive": ("Q2Additive", _q2_additive),
    "combinatorics": ("Combinatorics", _combinatorics),
}

ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class SuiteConfig:
    level_min: int = -2
    level_max: int = 2
    samples: int = 8
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        if not (self.level_min <= 0 <= self.level_max):
            raise ConfigError(
                f"level range [{self.level_min}, {self.level_max}] must contain 0"
            )
        if self.samples < 1:
            raise ConfigError(f"samples {self.samples} < 1")
        if not self.suites:
            raise ConfigError(f"no suite selected; known: {list(ALL_SUITES)}")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown}; known: {list(ALL_SUITES)}")
        # the selection as it runs: table order, each suite once
        object.__setattr__(self, "suites", tuple(s for s in SUITES if s in self.suites))


def run_suites(model: GroupModel, cfg: SuiteConfig) -> list[AxiomReport]:
    """One report per selected suite, in table order."""
    reports = []
    for tag in cfg.suites:
        axiom, body = SUITES[tag]
        report = AxiomReport(axiom)
        start = time.perf_counter()
        body(model, cfg, report)
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        reports.append(report)
    return reports
