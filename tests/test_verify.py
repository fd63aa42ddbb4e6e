"""Tests for the axiom verification suites."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from rgdcheck import (
    ALL_SUITES,
    ConfigError,
    LaurentMatrix,
    LaurentPoly,
    MembershipViolation,
    NotInRootGroup,
    PeelFailure,
    RankOneSolveFailed,
    ResidueNotIdentity,
    RootGroupCoords,
    SplitSLModel,
    SUModel,
    SuiteConfig,
    affine_root,
    basis_generators,
    coords_neg,
    run_suites,
    special_unitary,
    split_sl,
)
from rgdcheck import cli, laurent, slots, verify
from rgdcheck.affine import (
    AffineRoot,
    affine_reflect,
    is_positive,
    is_prenilpotent,
    open_interval,
)
from rgdcheck.roots import dot, pairing, vec

SMALL = SuiteConfig(level_min=-1, level_max=1, samples=3)


def run_one(tag, model, cfg):
    """The report of one suite, run through `run_suites`."""
    (report,) = run_suites(model, replace(cfg, suites=(tag,)))
    return report


def test_all_suites_pass_on_the_split_rank_one_model():
    reports = run_suites(split_sl(1), SMALL)
    assert [r.axiom for r in reports] == [
        "RGD0",
        "RGD1",
        "RGD2",
        "RGD3",
        "RGD4",
        "RGD5",
        "CorootShift",
        "Q2Additive",
        "Combinatorics",
    ]
    for r in reports:
        assert r.passed, (r.axiom, r.failures[:2])
        assert r.cases > 0


def test_all_suites_pass_on_the_quasi_split_unitary_model():
    reports = run_suites(special_unitary(3, 1), SMALL)
    for r in reports:
        assert r.passed, (r.axiom, r.failures[:2])


def test_suite_selection_and_order():
    cfg = SuiteConfig(level_min=-1, level_max=1, samples=2, suites=("rgd3", "rgd0"))
    reports = run_suites(split_sl(1), cfg)
    # runs in the canonical order regardless of the requested order
    assert [r.axiom for r in reports] == ["RGD0", "RGD3"]


def test_suite_results_are_deterministic():
    cfg = SuiteConfig(level_min=-1, level_max=1, samples=3, seed=11)
    first = [r.to_dict() for r in run_suites(special_unitary(3, 1), cfg)]
    second = [r.to_dict() for r in run_suites(special_unitary(3, 1), cfg)]
    for a, b in zip(first, second):
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
    assert first == second


def test_seed_changes_sampled_inputs_but_not_verdicts():
    cfg_a = SuiteConfig(level_min=-1, level_max=1, samples=4, seed=1)
    cfg_b = SuiteConfig(level_min=-1, level_max=1, samples=4, seed=2)
    ra = run_one("rgd1", split_sl(2), cfg_a)
    rb = run_one("rgd1", split_sl(2), cfg_b)
    assert ra.passed and rb.passed
    assert ra.cases == rb.cases


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(level_min=1, level_max=2)
    with pytest.raises(ConfigError):
        SuiteConfig(level_min=-2, level_max=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(samples=0)
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("rgd0", "rgd9"))
    with pytest.raises(ConfigError):
        SuiteConfig(suites=())  # an empty selection would pass vacuously
    assert set(ALL_SUITES) == {
        "rgd0",
        "rgd1",
        "rgd2",
        "rgd3",
        "rgd4",
        "rgd5",
        "coroot-shift",
        "q2-additive",
        "combinatorics",
    }


def test_rgd0_counts_every_generator_slot():
    r = run_one("rgd0", special_unitary(3, 1), SMALL)
    # BC1 has 4 roots over 3 levels; singles carry 3 slots, doubles 1
    assert r.cases == 3 * (2 * 3 + 2 * 1)
    assert r.passed


def test_rgd1_covers_prenilpotent_pairs_only():
    r = run_one("rgd1", split_sl(1), SuiteConfig(level_min=-1, level_max=1, samples=2))
    assert r.passed
    # A1 pairs with distinct roots are never prenilpotent, so every case
    # comes from equal-gradient pairs at distinct levels
    assert r.cases > 0


def test_rgd1_passes_on_su41_at_the_default_window():
    r = run_one("rgd1", special_unitary(4, 1), SuiteConfig())
    assert r.passed, r.failures[:2]
    assert r.cases == 720


WIDE_BC2 = SuiteConfig(level_min=-1, level_max=1, samples=2)


def test_rgd1_passes_on_su52_on_a_wide_window():
    # BC2 intervals hold multipliable roots with their doubles; U_(2c, 2L)
    # lies in U_(c, L), so the commutator peels only without the double
    r = run_one("rgd1", special_unitary(5, 2), WIDE_BC2)
    assert r.passed, r.failures[:2]
    assert r.cases == 1080


def test_rgd1_sees_doubled_roots_missing_from_the_interval(monkeypatch):
    # a mutant interval without any doubled root, also at odd levels where no
    # U_(c, L) covers it, must fail RGD1
    original = verify.open_interval

    def without_doubles(system, alpha, beta):
        return [
            g
            for g in original(system, alpha, beta)
            if not system.contains(tuple(Q(x, 2) for x in g.root))
        ]

    monkeypatch.setattr(verify, "open_interval", without_doubles)
    r = run_one("rgd1", special_unitary(5, 2), WIDE_BC2)
    assert r.cases == 1080
    assert len(r.failures) == 180


def test_rgd1_draws_each_fixed_sample_once(monkeypatch):
    """The fixed draws take nothing from the rng: RGD1 draws each once per
    (affine root, index) it uses, and a random one twice per case."""
    model = split_sl(2)
    cfg = SuiteConfig(level_min=-1, level_max=1, samples=5)
    drawn = []
    inner = verify.sample_coords

    def counted(model, alpha, rng, idx):
        drawn.append((alpha, idx))
        return inner(model, alpha, rng, idx)

    monkeypatch.setattr(verify, "sample_coords", counted)
    r = run_one("rgd1", model, cfg)
    window = verify.in_range_affine_roots(model, cfg)
    pairs = [
        (a, b) for i, a in enumerate(window) for b in window[i + 1 :] if is_prenilpotent(a, b)
    ]
    assert r.passed and r.cases == cfg.samples * len(pairs)
    n_fixed = len(verify.FIXED_DRAWS)
    fixed = [(a, s) for a, s in drawn if s < n_fixed]
    used = {a for pair in pairs for a in pair}
    assert sorted(fixed, key=str) == sorted(
        ((a, s) for a in used for s in range(n_fixed)), key=str
    )
    assert len(drawn) - len(fixed) == 2 * len(pairs) * (cfg.samples - n_fixed)


@pytest.mark.parametrize("model", [split_sl(2), special_unitary(4, 1)], ids=["SL3", "SU(4,1)"])
def test_suites_leave_the_shared_unit_rows_alone(model):
    """Rows are never written once stored: after every suite the identity's
    shared rows still read {i: ONE}, and a pinning, and a product of two,
    keep the rows that they do not write as those very objects."""
    assert all(r.passed for r in run_suites(model, SMALL))
    units = laurent._UNIT_ROWS[model.n]
    assert all(len(row) == 1 and row.get(i) is laurent.ONE for i, row in enumerate(units))
    pins = [
        model.relative_pinning(coords)
        for alpha in verify.in_range_affine_roots(model, SMALL)
        for coords in basis_generators(model, alpha)
    ]
    for g, h in zip(pins, pins[1:]):
        written = {p for (p, q), _ in g.items() if p != q}
        assert written
        prod = g @ h
        for i in set(range(model.n)) - written:
            assert g.sparse[i] is units[i] and prod.sparse[i] is h.sparse[i]


def test_rgd3_records_profile_of_every_group():
    r = run_one("rgd3", special_unitary(3, 1), SMALL)
    assert r.passed
    # classification: 2 single roots x 3 levels x 3 generators plus
    # 2 double roots x 3 levels x 1 generator = 24 cases; witnesses: the
    # negated simple affine roots contribute 3 + 1 generators
    assert r.cases == 24 + 4


def test_coroot_shift_reports_case_volume():
    cfg = SuiteConfig(level_min=-1, level_max=1, samples=2)
    r = run_one("coroot-shift", split_sl(1), cfg)
    assert r.passed
    # 2 roots x 2 nonzero shifts x (2 roots x 3 levels) x 1 generator
    assert r.cases == 24


def test_q2_additive_rank_one():
    r = run_one("q2-additive", special_unitary(3, 1), SMALL)
    assert r.passed and r.cases == 4  # one certified case per relative root
    r2 = run_one("q2-additive", split_sl(2), SMALL)
    assert r2.passed and r2.cases == 6  # strict additivity on every root of A2
    # the certificate draws nothing: samples, seed and window leave it alone
    other = SuiteConfig(level_min=-3, level_max=0, samples=7, seed=11)
    again = run_one("q2-additive", special_unitary(3, 1), other)
    assert (again.cases, again.failures) == (r.cases, r.failures)


class FlippedCornerSU(SUModel):
    """SU whose corner correction has the wrong sign, so X(-(u+v)) X(u) X(v)
    keeps symmetric terms in its corner on every multipliable root."""

    def _correction(self, lay, zs):
        return -super()._correction(lay, zs)


class SquaredLinkSL(SplitSLModel):
    """SL whose first root links z + z^2 in place of z: that pinning is not
    additive, and the others are."""

    def _link_scalars(self, lay, c):
        zs = super()._link_scalars(lay, c)
        if lay is self.layout(self.system.roots[0]):
            return [z + z * z for z in zs]
        return zs


@pytest.mark.parametrize("dim, witt, failed", [(5, 2, 4), (3, 1, 2)])
def test_a_flipped_corner_correction_fails_exactly_the_multipliable_roots(
    monkeypatch, tmp_path, dim, witt, failed
):
    model = FlippedCornerSU(dim, witt)
    r = run_one("q2-additive", model, SMALL)
    multipliable = [a for a in model.system.roots if model.system.is_multipliable(a)]
    assert (len(r.failures), r.cases) == (failed, len(model.system.roots))
    assert [f["inputs"] for f in r.failures] == [f"a={a}" for a in multipliable]
    # the whole run, through the command line, exits 1
    monkeypatch.setattr(cli, "_make_model", lambda cfg: model)
    argv = ["--group", "su", "--dim", str(dim), "--witt", str(witt)]
    argv += ["--level-min", "0", "--level-max", "0", "--samples", "1"]
    assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 1


def test_q2_failures_print_the_link_in_slot_variables():
    """A flipped corner leaves the link of U_(2a) outside k: the failure names
    the root and the order read, and prints the link in u and v."""
    r = run_one("q2-additive", FlippedCornerSU(3, 1), SMALL)
    sym = "u0^2 + {i}*u0*v0 + u0*v1 + {i}*u1^2 - u1*v0 + {i}*u1*v1 + {i}*v0^2 + {i}*v1^2"
    assert [f["actual"] for f in r.failures] == [
        f"additivity fails on {a} along ['a[({2 * a[0]}), 0]']: coefficient "
        + f"{i}*" + sym.format(i=i) + " is not rational"
        for a, i in (((-1,), "(0+2*sqrt(-1))"), ((1,), "(0+-2*sqrt(-1))"))
    ]


def test_a_pinning_that_is_not_additive_fails_its_root():
    model = SquaredLinkSL(2)
    r = run_one("q2-additive", model, SMALL)
    assert r.cases == 6
    assert [f["inputs"] for f in r.failures] == [f"a={model.system.roots[0]}"]
    assert "additivity fails" in r.failures[0]["actual"]


def test_combinatorics_matches_oracles():
    r = run_one("combinatorics", special_unitary(3, 1), SMALL)
    assert r.passed


# the Combinatorics window of the CLI defaults: levels [-2, 2]; the seed and
# the sample count reach no case
COMBINATORICS = SuiteConfig(level_min=-2, level_max=2, samples=8, seed=0)
COMBINATORICS_MODELS = {
    "SL3": (lambda: split_sl(2), 1575),
    "SU(3,1)": (lambda: special_unitary(3, 1), 670),
    "SU(5,2)": (lambda: special_unitary(5, 2), 6190),
    "SL4": (lambda: split_sl(3), 6150),
}


def run_combinatorics(label, model=None):
    build, cases = COMBINATORICS_MODELS[label]
    r = run_one("combinatorics", model or build(), COMBINATORICS)
    assert r.cases == cases
    return r


@pytest.mark.parametrize("label", ["SL4", "SU(5,2)"])
def test_combinatorics_case_counts_of_the_benchmark_window(label):
    """The affine-combinatorics workload runs this window on SL4 and SU(5,2):
    6,150 + 6,190 = 12,340 cases per pass."""
    assert run_combinatorics(label).passed


def reflect_with_flipped_level(system, alpha, beta):
    """affine_reflect with +l <b, a^vee> in place of -l <b, a^vee>: still an
    involution, but no longer the reflection of the half-spaces."""
    image = affine_reflect(system, alpha, beta)
    return AffineRoot(image.root, image.level + 2 * alpha.level * pairing(beta.root, alpha.root))


def level_term_pairs(model):
    """The (alpha, beta) of the window with l <b, a^vee> != 0: the pairs whose
    reflected level the flipped sign moves."""
    groups = verify.in_range_affine_roots(model, COMBINATORICS)
    return sum(a.level * pairing(b.root, a.root) != 0 for a in groups for b in groups)


def positive_from_level_one(system, alpha):
    """is_positive asking level >= 1 of positive gradients as well."""
    system.is_positive_root(alpha.root)
    return alpha.level >= 1


def shifted_interval(shift):
    """open_interval with every member `shift` levels off."""

    def interval(system, alpha, beta):
        return [AffineRoot(g.root, g.level + shift) for g in open_interval(system, alpha, beta)]

    return interval


def shifted_member_cases(model):
    """The containment cases a shifted member fails: all but the same-gradient
    pairs with |m - l| >= 2, whose member (2a, l + m +- 1) is still
    p alpha + q beta with p = 1 +- 1/(l - m) and q = 2 - p both positive."""
    groups = verify.in_range_affine_roots(model, COMBINATORICS)
    return sum(
        alpha.root != beta.root or abs(alpha.level - beta.level) < 2
        for i, alpha in enumerate(groups)
        for beta in groups[i + 1 :]
        if is_prenilpotent(alpha, beta) and open_interval(model.system, alpha, beta)
    )


@pytest.mark.parametrize(
    "name, mutant, expected, failed",
    [
        ("affine_reflect", reflect_with_flipped_level, "membership equivariance", level_term_pairs),
        (
            "is_prenilpotent",
            lambda alpha, beta: True,
            "prenilpotent oracle True",
            {"SL3": 75, "SU(3,1)": 100, "SU(5,2)": 250, "SL4": 150},
        ),
        (
            "prenilpotent_oracle",
            lambda alpha, beta: True,
            "prenilpotent oracle False",
            {"SL3": 75, "SU(3,1)": 100, "SU(5,2)": 250, "SL4": 150},
        ),
        (
            "is_positive",
            positive_from_level_one,
            "sign matches chamber oracle",
            # the positive roots at level 0
            {"SL3": 3, "SU(3,1)": 2, "SU(5,2)": 6, "SL4": 6},
        ),
        (
            "open_interval",
            shifted_interval(1),
            "interval members contain the intersection",
            shifted_member_cases,
        ),
        (
            "open_interval",
            shifted_interval(-1),
            "interval members contain the intersection",
            shifted_member_cases,
        ),
    ],
    ids=[
        "reflect-level-sign",
        "prenilpotent-always",
        "oracle-always",
        "positive-from-1",
        "interval-level-up",
        "interval-level-down",
    ],
)
def test_combinatorics_mutants_fail_exact_case_counts(
    monkeypatch, name, mutant, expected, failed
):
    """Counts are pinned per model, or derived from the window by `failed`."""
    monkeypatch.setattr(verify, name, mutant)
    for label, (build, _) in COMBINATORICS_MODELS.items():
        model = build()
        r = run_combinatorics(label, model)
        assert len(r.failures) == (failed(model) if callable(failed) else failed[label]), label
        assert {f["expected"] for f in r.failures} == {expected}


def test_derived_mutant_counts():
    """What the derived counts read on the four models of the window."""
    counts = {
        label: (level_term_pairs(build()), shifted_member_cases(build()))
        for label, (build, _) in COMBINATORICS_MODELS.items()
    }
    assert counts == {
        "SL3": (720, 150),
        "SU(3,1)": (320, 8),
        "SU(5,2)": (2080, 616),
        "SL4": (2400, 600),
    }


@pytest.mark.parametrize("label", list(COMBINATORICS_MODELS))
def test_a_fundamental_point_outside_the_alcove_fails_positivity(monkeypatch, label):
    model = COMBINATORICS_MODELS[label][0]()
    # twice the fundamental point: (theta, 2 v0) > 1, outside the alcove
    point = tuple(2 * x for x in model.system.fundamental_point)
    monkeypatch.setattr(model.system, "fundamental_point", point)
    r = run_combinatorics(label, model)
    # the affine roots whose sign differs from containing the point strictly
    moved = sum(
        is_positive(model.system, g) != (dot(g.root, point) + g.level > 0)
        for g in verify.in_range_affine_roots(model, COMBINATORICS)
    )
    assert moved > 0 and len(r.failures) == moved
    assert {f["expected"] for f in r.failures} == {"sign matches chamber oracle"}


def positive_from_level_zero(system, alpha):
    """is_positive asking level >= 0 of negative gradients as well."""
    system.is_positive_root(alpha.root)
    return alpha.level >= 0


@pytest.mark.parametrize(
    "label, rgd3, positivity",
    [("SL3", (3, 21), 3), ("SU(3,1)", (4, 28), 2), ("SU(5,2)", (12, 78), 6)],
)
def test_a_sign_mutant_fails_rgd3_and_positivity(monkeypatch, label, rgd3, positivity):
    """RGD3 classifies by `is_positive`: calling the negative gradients
    positive from level 0 fails exactly the generators of the negative root
    groups at level 0 (failed, cases), and the positivity cases of
    Combinatorics as many as there are such groups."""
    monkeypatch.setattr(verify, "is_positive", positive_from_level_zero)
    model = COMBINATORICS_MODELS[label][0]()
    r = run_one("rgd3", model, replace(SMALL, samples=2))
    assert (len(r.failures), r.cases) == rgd3
    assert {f["inputs"] for f in r.failures} == {
        f"alpha={alpha} gen={verify._text(coords)}"
        for alpha in verify.in_range_affine_roots(model, SMALL)
        if alpha.level == 0 and not model.system.is_positive_root(alpha.root)
        for coords in basis_generators(model, alpha)
    }
    assert {f["expected"] for f in r.failures} == {"profile lower-strict-tinv"}
    r = run_combinatorics(label, model)
    assert len(r.failures) == positivity
    assert {f["expected"] for f in r.failures} == {"sign matches chamber oracle"}


def test_combinatorics_draws_nothing(monkeypatch):
    """The seed and the sample count reach no case: under a mutant, the
    failure records are the same at any of them."""
    monkeypatch.setattr(verify, "affine_reflect", reflect_with_flipped_level)
    model = split_sl(2)
    runs = [
        run_one("combinatorics", model, SuiteConfig(-2, 2, samples, seed)).failures
        for seed, samples in ((0, 8), (3, 1))
    ]
    assert runs[0] and runs[0] == runs[1]


def test_report_dict_shape():
    r = run_one("rgd3", split_sl(1), SMALL)
    d = r.to_dict()
    assert set(d) == {"axiom", "cases", "failures", "pass", "elapsed_ms"}
    assert d["pass"] is True
    assert isinstance(d["elapsed_ms"], float)


def test_failures_are_recorded_with_inputs_expected_actual():
    from rgdcheck import AxiomReport

    r = AxiomReport("RGD1")
    with r.case(lambda: "alpha=x beta=y", "commutator in the open interval") as case:
        case.fail("residue left")
    with r.case(lambda: "alpha=x beta=z", "unused"):
        pass
    assert r.cases == 2 and not r.passed
    d = r.to_dict()
    assert d["pass"] is False
    assert d["failures"] == [
        {
            "inputs": "alpha=x beta=y",
            "expected": "commutator in the open interval",
            "actual": "residue left",
        }
    ]


# -- where membership in the group is checked -----------------------------------


def is_pair(lay):
    """A pair root group: links in k' and no doubled-root corner."""
    return lay.field and lay.corner is None


class FlippedPairSU(SUModel):
    """SU(5,2) whose pair pinnings carry the wrong sign on the partner
    entry, so those pinnings leave the group."""

    def _build_layout(self, a_rel):
        lay = super()._build_layout(a_rel)
        if is_pair(lay):
            ((pos, partner, factor),) = lay.links
            lay = lay._replace(links=((pos, partner, -factor),))
        return lay


def count_calls(monkeypatch, model, method):
    """The first argument of every call of the model's method, which still runs."""
    calls = []
    inner = getattr(model, method)

    def counted(arg, *rest):
        calls.append(arg)
        return inner(arg, *rest)

    monkeypatch.setattr(model, method, counted)
    return calls


ZERO_WINDOW = SuiteConfig(level_min=0, level_max=0, samples=1)


def test_pinnings_outside_the_group_are_recorded_by_rgd0():
    model = FlippedPairSU(5, 2)
    r = run_one("rgd0", model, ZERO_WINDOW)
    pair_cases = sum(
        model.coord_lengths(a)[0]
        for a in model.system.roots
        if is_pair(model.layout(a))
    )
    assert len(r.failures) == pair_cases > 0
    assert all(f["expected"] == "pinning lands in G" for f in r.failures)
    assert r.cases == run_one("rgd0", special_unitary(5, 2), ZERO_WINDOW).cases


def test_pinnings_outside_the_group_are_recorded_by_rgd1():
    r = run_one("rgd1", FlippedPairSU(5, 2), ZERO_WINDOW)
    outside = [f for f in r.failures if f["expected"] == "pinning lands in G"]
    assert outside
    assert all("left the group" in f["actual"] for f in outside)


def test_pinnings_and_peels_never_check_membership(monkeypatch):
    su = special_unitary(3, 1)
    calls = count_calls(monkeypatch, su, "contains")
    alpha = affine_root(vec(1), 0)
    u = RootGroupCoords(alpha, (Q(1), Q(2)), (Q(3),))
    g = su.relative_pinning(u)
    su.peel(g, alpha)
    assert su.peel_product(g, [alpha]) == [u]
    # the certificate builds on slot variables, which never pass through
    # relative_pinning (the benchmark's tracer hashes its coordinates)
    pins = count_calls(monkeypatch, su, "relative_pinning")
    u0, u1, v0, v1 = map(slots.var, range(4))
    assert su.q2_additive(vec(1)) == u0 * v1 - u1 * v0
    assert pins == []
    # a representative is built at its own level, with no coroot value and
    # its own check
    su.w_element_parts(u._replace(alpha=affine_root(vec(1), 1)))
    assert calls == []


def test_rgd0_checks_membership_once_per_case(monkeypatch):
    model = special_unitary(3, 1)
    calls = count_calls(monkeypatch, model, "contains")
    r = run_one("rgd0", model, SMALL)
    assert r.passed and len(calls) == r.cases


def test_rgd1_checks_the_four_pinnings_of_each_case(monkeypatch):
    model = split_sl(1)
    calls = count_calls(monkeypatch, model, "contains")
    r = run_one("rgd1", model, SMALL)
    assert r.passed and len(calls) == 4 * r.cases


@pytest.mark.parametrize("dim, witt", [(3, 1), (5, 2)])
def test_rgd0_and_rgd1_check_the_form_once_per_root(monkeypatch, dim, witt):
    """Each drawn pinning still gets one `contains` (its det), but the form
    identity is checked once per relative root, on the symbolic X_a."""
    model = special_unitary(dim, witt)
    forms = count_calls(monkeypatch, model, "_preserves_form")
    calls = count_calls(monkeypatch, model, "contains")
    r0, r1 = run_one("rgd0", model, SMALL), run_one("rgd1", model, SMALL)
    assert r0.passed and r1.passed
    assert len(calls) == r0.cases + 4 * r1.cases
    assert len(forms) == len(model.system.roots)
    assert model._form_certificates == dict.fromkeys(model.system.roots, True)


@pytest.mark.parametrize("make", [lambda: FlippedPairSU(5, 2), lambda: FlippedCornerSU(3, 1)],
                         ids=["FlippedPairSU(5,2)", "FlippedCornerSU(3,1)"])
@pytest.mark.parametrize("tag", ["rgd0", "rgd1"])
def test_a_failed_certificate_falls_back_to_each_pinning(monkeypatch, make, tag):
    """Where a root's map leaves the group its pinnings are checked one by
    one, so the failure records are those of a run with no certificate at
    all, the pure-corner pinnings (z = 0) of a flipped corner, which lie in
    G, included."""
    model, uncertified = make(), make()
    r = run_one(tag, model, SMALL)
    assert not all(model._form_certificates.values())
    monkeypatch.setattr(
        uncertified, "_form_certificates", dict.fromkeys(uncertified.system.roots, False)
    )
    forced = run_one(tag, uncertified, SMALL)
    assert r.failures and (r.cases, r.failures) == (forced.cases, forced.failures)


# -- the suite skeleton -------------------------------------------------------------


def install_body(monkeypatch, body):
    """Run `body` as the case body of the rgd0 suite."""
    monkeypatch.setitem(verify.SUITES, "rgd0", ("RGD0", body))


@pytest.mark.parametrize(
    "error", [NotInRootGroup, ResidueNotIdentity, PeelFailure, RankOneSolveFailed]
)
def test_a_verdict_error_in_a_case_becomes_one_failure(monkeypatch, error):
    built = []

    def inputs(k):
        built.append(k)
        return f"k={k}"

    def body(model, cfg, report):
        for k in range(3):
            with report.case(lambda: inputs(k), lambda: f"no error at {k}"):
                if k == 1:
                    raise error("residue left")

    install_body(monkeypatch, body)
    (r,) = run_suites(split_sl(1), replace(SMALL, suites=("rgd0",)))
    assert r.axiom == "RGD0" and r.cases == 3
    assert r.failures == [
        {"inputs": "k=1", "expected": "no error at 1", "actual": "residue left"}
    ]
    # passing cases build no failure text
    assert built == [1]


def test_other_errors_propagate_out_of_run_suites(monkeypatch):
    def body(model, cfg, report):
        with report.case(lambda: "k=0", "group closed under products"):
            raise MembershipViolation("product left the group")

    install_body(monkeypatch, body)
    with pytest.raises(MembershipViolation):
        run_suites(split_sl(1), replace(SMALL, suites=("rgd0",)))


# -- conjugation: the shared check of RGD2 and RGD5, and CorootShift's equation ----


class IdentityCorootSL(SplitSLModel):
    """SL whose coroot values are the identity, so no level ever shifts."""

    def coroot(self, a_rel, lam):
        return LaurentMatrix.identity(self.n)


class DoubledCorootSU(SUModel):
    """SU whose coroot is evaluated at 2 t^(-l/2): levels shift as they should,
    but every coordinate is scaled by a power of 2."""

    def coroot(self, a_rel, lam):
        return super().coroot(a_rel, LaurentPoly.const(2) * lam)


class FlippedCorootSL(SplitSLModel):
    """SL whose coroot is evaluated at t^(l/2): every level that should shift
    shifts the other way."""

    def coroot(self, a_rel, lam):
        return super().coroot(a_rel, lam.monomial_pow(-1))


class FlippedCorootSU(SUModel):
    """SU whose coroot is evaluated at t^(l/2), as FlippedCorootSL."""

    def coroot(self, a_rel, lam):
        return super().coroot(a_rel, lam.monomial_pow(-1))


class PinningTorusSL(SplitSLModel):
    """SL whose torus centralizer samples are all the root group element
    x_a(1), which normalizes U_beta only when a + beta is no root."""

    def sample_centralizer_elements(self, rng, count):
        u = RootGroupCoords(affine_root(self.system.roots[0], 0), (Q(1),))
        pair = (self.relative_pinning(u), self.relative_pinning(coords_neg(u)))
        return [pair] * count


class IdentityWeylSL(SplitSLModel):
    """SL whose Weyl representatives m(u) are the identity."""

    def w_element_parts(self, u):
        _, _, v1, v2, x = super().w_element_parts(u)
        one = LaurentMatrix.identity(self.n)
        return one, one, v1, v2, x


class TransposedLinkSL(SplitSLModel):
    """SL whose root groups through slot 0 (+-a1 and +-theta on A2) put their
    coordinate at the transposed entry, the entry of the opposite root."""

    def _build_layout(self, a_rel):
        lay = super()._build_layout(a_rel)
        if a_rel[0]:
            ((pos, partner, factor),) = lay.links
            lay = lay._replace(links=((pos[::-1], partner, factor),))
        return lay


@pytest.mark.parametrize(
    "tag, model, failed, cases, prefix, expected, conjugations",
    [
        # A2 has no pair of orthogonal roots: every case shifts its level
        ("coroot-shift", IdentityCorootSL(2), 216, 216, "a=", "same coordinates", 216),
        # the level shifts as it should, the coordinates do not survive
        ("coroot-shift", DoubledCorootSU(3, 1), 192, 192, "a=", "same coordinates", 192),
        # x_a(1) moves 3 of the 6 root directions of A2
        ("rgd5", PinningTorusSL(2), 72, 144, "h=", "conjugate in U_", 72),
        # 216 conjugates do not reflect; the 12 representative cases pass, as
        # RGD2 leaves how m(u) is built to w_element_parts, and the 9
        # quotients of identities still centralize the torus
        ("rgd2", IdentityWeylSL(2), 216, 237, "alpha=", "conjugate in U_", 216),
    ],
    ids=["coroot-identity", "coroot-doubled", "rgd5-pinning", "rgd2-identity"],
)
def test_conjugation_mutants_are_caught(
    tag, model, failed, cases, prefix, expected, conjugations
):
    r = run_one(tag, model, SMALL)
    assert (len(r.failures), r.cases) == (failed, cases)
    assert len(r.failures) <= r.cases
    # the records the conjugation check wrote
    shared = [f for f in r.failures if f["expected"].startswith(expected)]
    assert len(shared) == conjugations
    for f in shared:
        assert f["inputs"].startswith(prefix) and " beta=" in f["inputs"]
        assert " gen=" in f["inputs"]
        if tag == "coroot-shift":
            assert f["actual"] == "conjugate differs"


def test_rgd2_leaves_the_coroot_shift_to_its_own_suite():
    """RGD2 builds each representative at its own level, so a model whose
    coroot shift is broken fails RGD2 only where conjugates miss their target
    group, and the shift itself is CorootShift's to catch."""
    model = TransposedLinkSL(2)
    rgd2 = run_one("rgd2", model, SMALL)
    assert (len(rgd2.failures), rgd2.cases) == (96, 237)
    assert all(f["expected"].startswith("conjugate in U_") for f in rgd2.failures)
    shift = run_one("coroot-shift", model, SMALL)
    assert (len(shift.failures), shift.cases) == (144, 216)


@pytest.mark.parametrize(
    "model, failed, cases",
    [(FlippedCorootSL(2), 216, 216), (FlippedCorootSU(5, 2), 1248, 1728)],
    ids=["SL3", "SU(5,2)"],
)
def test_flipped_coroot_shift_fails_exactly_where_the_level_moves(model, failed, cases):
    """A coroot evaluated at t^(l/2) moves U_(b, n) to n - l <b, a^vee> / 2, so
    CorootShift fails every case with <b, a^vee> != 0 and no other."""
    r = run_one("coroot-shift", model, SMALL)
    moved = Counter(
        f"a={a} l={l} beta={beta}"
        for a in model.system.roots
        for l in (-1, 1)
        for beta in verify.in_range_affine_roots(model, SMALL)
        for _ in basis_generators(model, beta)
        if pairing(beta.root, a) != 0
    )
    assert (len(r.failures), r.cases) == (failed, cases)
    assert Counter(f["inputs"].split(" gen=")[0] for f in r.failures) == moved


def test_rgd2_centralizer_cases_name_the_samples_they_compare(monkeypatch):
    """A sample whose representative fails is left out of the centralizer
    cases, which then compare samples 0 and 2: the label names the sample
    indices, not positions in the list of representatives built."""
    model = split_sl(1)
    inner = model.w_element_parts

    def fails_sample_1(u):
        if u.c == (verify.FIXED_DRAWS[1],):
            raise RankOneSolveFailed("no representative")
        return inner(u)

    monkeypatch.setattr(model, "w_element_parts", fails_sample_1)
    monkeypatch.setattr(model, "is_centralizer_element", lambda g: False)
    r = run_one("rgd2", model, SMALL)
    torus = [f["inputs"] for f in r.failures if f["expected"].endswith("split torus")]
    assert torus and all(f.endswith((" samples 0,2", " samples 2,3")) for f in torus)
    assert len(torus) == 2 * len([f for f in r.failures if f["actual"] == "no representative"])


@pytest.mark.parametrize("tag", ["rgd5", "coroot-shift"])
def test_conjugations_build_each_generator_pinning_once(monkeypatch, tag):
    """One pinning per basis generator in the window, built once for the
    suite call, and none per case.  RGD5 peels each conjugate, and the peel
    compares it in place without `relative_pinning`; CorootShift never peels
    and compares each conjugate in place with `_is_pin`, from the
    generator's scalars at the shifted level."""
    model = split_sl(2)
    calls = count_calls(monkeypatch, model, "relative_pinning")
    peeled = count_calls(monkeypatch, model, "peel")
    r = run_one(tag, model, SMALL)
    window = verify.in_range_affine_roots(model, SMALL)
    generators = [c for beta in window for c in basis_generators(model, beta)]
    assert r.passed and r.cases > len(generators) == 18
    assert calls == generators
    assert len(peeled) == (r.cases if tag == "rgd5" else 0)


@pytest.mark.parametrize("tag", ["rgd2", "rgd5"])
def test_conjugation_cases_build_no_fraction_and_one_e_per_generator(monkeypatch, tag):
    """A passing SU(5,2) suite call takes each generator pinning apart into
    E = g - I once, and its conjugation cases build no E and no Fraction:
    `peel` checks the conjugate and reads no coordinates."""
    model = special_unitary(5, 2)
    inside = []  # nonempty while `_conjugation` runs
    built, e_suite, e_cases = [], [], []
    new, minus_identity, conjugation = Q.__new__, laurent._minus_identity, verify._conjugation

    def counting_new(cls, *args, **kw):
        if inside:
            built.append(args)
        return new(cls, *args, **kw)

    def suite_e(g):
        e_suite.append(g)
        return minus_identity(g)

    def kernel_e(g):
        if inside:
            e_cases.append(g)
        return minus_identity(g)

    def conjugating(*args):
        inside.append(True)
        try:
            return conjugation(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Q, "__new__", counting_new)
    monkeypatch.setattr(verify, "_minus_identity", suite_e)
    monkeypatch.setattr(laurent, "_minus_identity", kernel_e)
    monkeypatch.setattr(verify, "_conjugation", conjugating)
    r = run_one(tag, model, SMALL)
    window = verify.in_range_affine_roots(model, SMALL)
    generators = [c for beta in window for c in basis_generators(model, beta)]
    assert r.passed and r.cases > len(generators)
    assert len(e_suite) == len(generators) and not e_cases
    assert built == []


# -- readable failure records ----------------------------------------------------------


def all_failure_text(reports):
    return [v for r in reports for f in r.failures for v in f.values()]


@pytest.mark.parametrize(
    "model", [split_sl(1), special_unitary(3, 1)], ids=["SL2", "SU(3,1)"]
)
def test_failure_records_print_coordinates_as_rationals(monkeypatch, model):
    """A forced RGD1 failure prints its drawn coordinates (the third fixed
    draw is 1/2 on every slot) as rationals, never as Fraction reprs."""

    def residue(self, g, order):
        raise ResidueNotIdentity("forced residue")

    monkeypatch.setattr(type(model), "peel_product", residue)
    r = run_one("rgd1", model, SMALL)
    assert r.cases > 0 and len(r.failures) == r.cases
    text = all_failure_text([r])
    assert not any("Fraction(" in t for t in text)
    assert any("1/2" in f["inputs"] for f in r.failures)
    if model.kind == "su":
        # u and v print as c+d: a short root of BC1 has two rational slots on
        # its root module and one on its doubled root
        assert any("u=(1/2, 1/2)+(1/2)" in f["inputs"] for f in r.failures)


def test_rgd0_failure_prints_alpha_c_and_d(monkeypatch):
    model = special_unitary(3, 1)
    monkeypatch.setattr(model, "contains", lambda g, root: False)
    r = run_one("rgd0", model, ZERO_WINDOW)
    assert len(r.failures) == r.cases > 0
    first = r.failures[0]
    assert first["inputs"].startswith("alpha=") and " c=(" in first["inputs"]
    assert " d=(" in first["inputs"]
    assert "left the group" in first["actual"]
    text = all_failure_text([r])
    assert not any("Fraction(" in t or "RootGroupCoords(" in t for t in text)


def test_profiles_read_every_stored_entry_and_the_whole_diagonal():
    t, tinv = LaurentPoly.t_power(1), LaurentPoly.t_power(-1)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    upper_tinv = LaurentMatrix.from_entries(3, {(0, 2): tinv + one})
    assert verify._PROFILE_TESTS["upper-nonneg"](upper_tinv)
    assert not verify._PROFILE_TESTS["upper-strict-t"](upper_tinv)
    assert not verify._PROFILE_TESTS["lower-nonneg"](upper_tinv)
    # a unit diagonal is required: a missing (zero) or non-unit entry fails
    for diag in ([one, zero, one], [one, t, one]):
        g = LaurentMatrix.diagonal(diag)
        assert not any(test(g) for test in verify._PROFILE_TESTS.values())
        assert not verify.positive_side_profile(g)
    # the positive side: k[t^-1] entries, upper unipotent at t^-1 = 0
    assert verify.positive_side_profile(upper_tinv)
    assert verify.positive_side_profile(LaurentMatrix.from_entries(2, {(1, 0): tinv}))
    assert not verify.positive_side_profile(LaurentMatrix.from_entries(2, {(1, 0): one}))
    assert not verify.positive_side_profile(LaurentMatrix.from_entries(2, {(0, 1): t}))
