"""Tests for affine roots, reflections, positivity and prenilpotency."""

import random
from fractions import Fraction as Q

import pytest

from rgdcheck import (
    AffineRoot,
    HalfIntegerLevel,
    NotPrenilpotent,
    RgdcheckError,
    affine_reflect,
    affine_root,
    build_root_system,
    chamber_oracle,
    is_positive,
    is_prenilpotent,
    open_interval,
    prenilpotent_oracle,
    reflect_point,
    simple_affine_roots,
)
from rgdcheck import affine
from rgdcheck.affine import half_space_contains, interval_oracle
from rgdcheck.roots import vec


def test_levels_live_on_the_half_integer_lattice():
    a = vec(1, -1)
    assert affine_root(a, Q(1, 2)).level == Q(1, 2)
    assert type(affine_root(a, Q(1, 2)).level) is Q
    assert affine_root(a, -3).level == Q(-3)
    # integral levels are ints, whether given as int or as Fraction
    assert type(affine_root(a, -3).level) is int
    assert type(affine_root(a, Q(4, 2)).level) is int
    assert type(affine_root(a, Q(-6, 4)).level) is Q
    with pytest.raises(HalfIntegerLevel):
        affine_root(a, Q(1, 3))
    with pytest.raises(HalfIntegerLevel):
        affine_root(a, Q(1, 4))


SYSTEMS = [(k, r) for k in ("A", "BC") for r in (1, 2, 3)]


def _level_typed(alpha):
    """An integral level is an int, a proper half-integer a Fraction."""
    return type(alpha.level) is (int if alpha.level.denominator == 1 else Q)


@pytest.mark.parametrize("kind,rank", SYSTEMS)
def test_integral_levels_stay_ints(kind, rank):
    # every affine root built from integral levels carries an int level, so
    # no Fraction arithmetic creeps back into the affine layer; a proper
    # half-integer level stays a Fraction
    system = build_root_system(kind, rank)
    affs = [affine_root(a, l) for a in system.roots for l in (-2, -1, 0, 1, 2)]
    made = list(affs) + [-alpha for alpha in affs] + simple_affine_roots(system)
    for alpha in affs[::3]:
        for beta in affs:
            made.append(affine_reflect(system, alpha, beta))
            if is_prenilpotent(alpha, beta):
                made.extend(open_interval(system, alpha, beta))
    bad = [g for g in made if type(g.level) is not int]
    assert not bad, bad[:3]
    halves = [
        affine_root(a, Q(l, 2))
        for a in system.roots
        if all(x % 2 == 0 for x in a)  # the doubled roots +-2e_i
        for l in (-3, -1, 1, 3)
    ]
    assert bool(halves) == (kind == "BC")
    assert all(type(g.level) is Q and type((-g).level) is Q for g in halves)
    # a half-integer input may give an integral level, as in the reflection
    # of (2e_i, 0) in the wall of (2e_i, 1/2); that level is an int too
    made = []
    for gamma in halves:
        for alpha in affs[::7] + halves:
            made.append(affine_reflect(system, alpha, gamma))
            made.append(affine_reflect(system, gamma, alpha))
            for pair in ((alpha, gamma), (gamma, alpha)):
                if is_prenilpotent(*pair):
                    made.extend(open_interval(system, *pair))
    bad = [g for g in made if not _level_typed(g)]
    assert not bad, bad[:3]
    assert any(type(g.level) is int for g in made) == (kind == "BC")


def test_negation_flips_gradient_and_level():
    alpha = affine_root(vec(1, 0), 2)
    assert -alpha == affine_root(vec(-1, 0), -2)
    assert -(-alpha) == alpha


def test_half_space_membership():
    alpha = affine_root(vec(1, 0), 1)  # points v with v_1 >= -1
    assert half_space_contains(alpha, vec(0, 5))
    assert half_space_contains(alpha, vec(-1, 0))
    assert not half_space_contains(alpha, vec(-1, 0), strict=True)
    assert not half_space_contains(alpha, (Q(-3, 2), 0))


def test_point_reflection_fixes_the_wall():
    alpha = affine_root(vec(1, 0), -1)  # wall v_1 = 1
    assert reflect_point(alpha, vec(1, 7)) == vec(1, 7)
    assert reflect_point(alpha, vec(0, 0)) == vec(2, 0)
    assert reflect_point(alpha, vec(3, -2)) == vec(-1, -2)


def test_affine_reflection_hand_example():
    # reflecting alpha_(a, 0) in the wall of alpha_(a, 1) gives alpha_(-a, -2)
    a2 = build_root_system("A", 2)
    a = a2.simple[0]
    alpha = affine_root(a, 1)
    beta = affine_root(a, 0)
    assert affine_reflect(a2, alpha, beta) == affine_root(vec(-1, 1, 0), -2)
    # the linear reflection of a distinct simple root keeps its level
    b = a2.simple[1]
    assert affine_reflect(a2, affine_root(a, 0), affine_root(b, 5)) == affine_root(
        vec(1, 0, -1), 5
    )


def test_affine_reflection_matches_point_geometry():
    rng = random.Random(3)
    for kind, rank in (("A", 2), ("BC", 2)):
        system = build_root_system(kind, rank)
        dim = len(system.roots[0])
        affs = [
            affine_root(a, l) for a in system.roots for l in (-2, -1, 0, 1, 2)
        ]
        for _ in range(150):
            alpha = rng.choice(affs)
            beta = rng.choice(affs)
            v = tuple(Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim))
            rbeta = affine_reflect(system, alpha, beta)
            rv = reflect_point(alpha, v)
            assert half_space_contains(beta, v) == half_space_contains(rbeta, rv)


def test_positivity_frozen_examples():
    bc1 = build_root_system("BC", 1)
    e = vec(1)
    assert is_positive(bc1, affine_root(e, 0))
    assert is_positive(bc1, affine_root(e, 3))
    assert not is_positive(bc1, affine_root(e, -1))
    assert is_positive(bc1, affine_root(vec(-1), 1))
    assert not is_positive(bc1, affine_root(vec(-1), 0))
    with pytest.raises(HalfIntegerLevel):
        is_positive(bc1, affine_root(e, Q(1, 2)))


def test_positivity_agrees_with_chamber_oracle():
    for kind, rank in (("A", 1), ("A", 2), ("BC", 1), ("BC", 2)):
        system = build_root_system(kind, rank)
        for a in system.roots:
            for l in range(-3, 4):
                alpha = affine_root(a, l)
                assert is_positive(system, alpha) == chamber_oracle(system, alpha)


def test_exactly_one_of_alpha_and_minus_alpha_is_positive():
    bc2 = build_root_system("BC", 2)
    for a in bc2.roots:
        for l in range(-3, 4):
            alpha = affine_root(a, l)
            assert is_positive(bc2, alpha) != is_positive(bc2, -alpha)


def test_prenilpotency_signs():
    e = vec(1)
    assert is_prenilpotent(affine_root(e, 0), affine_root(e, 1))
    assert is_prenilpotent(affine_root(e, 0), affine_root(vec(2), -1))
    assert not is_prenilpotent(affine_root(e, 0), affine_root(vec(-1), 0))
    assert not is_prenilpotent(affine_root(e, 2), affine_root(vec(-2), 5))
    a2 = build_root_system("A", 2)
    a, b = a2.simple
    assert is_prenilpotent(affine_root(a, 0), affine_root(b, 0))


def _strictly_inside(pair, point):
    """V / D, V = x a + y b on the pair's gradients a, b, is interior to both
    half-spaces, checked in Fractions."""
    x, y, d = point
    assert all(type(c) is int for c in point) and d > 0
    a, b = (g.root for g in pair)
    v = tuple(Q(x * p + y * q, d) for p, q in zip(a, b))
    return all(sum(Q(c) * t for c, t in zip(g.root, v)) + g.level > 0 for g in pair)


def test_prenilpotency_matches_geometric_oracle():
    for kind, rank in SYSTEMS:
        system = build_root_system(kind, rank)
        affs = [affine_root(a, l) for a in system.roots for l in (-2, 0, 1)]
        # doubled BC roots (+-2e_i) at half-integer levels, where the
        # oracle's doubled-level arithmetic matters
        affs += [
            affine_root(a, l)
            for a in system.roots
            if all(x % 2 == 0 for x in a)
            for l in (Q(-1, 2), Q(1, 2), Q(3, 2))
        ]
        assert any(type(g.level) is Q for g in affs) == (kind == "BC")
        points = 0
        for alpha in affs:
            for beta in affs:
                assert is_prenilpotent(alpha, beta) == prenilpotent_oracle(
                    alpha, beta
                ), (alpha, beta)
                geometry = affine._pair_geometry(alpha.root, beta.root)
                # the negatives share the pair's geometry, which the oracle reuses
                assert affine._pair_geometry((-alpha).root, (-beta).root) == geometry
                for pair in ((alpha, beta), (-alpha, -beta)):
                    # doubled levels, as the oracle passes them
                    point = affine._interior_point(
                        geometry, *(int(2 * g.level) for g in pair)
                    )
                    if point is not None:
                        points += 1
                        assert _strictly_inside(pair, point), (pair, point)
                        if geometry[0] is not None:
                            assert point[1] == 0  # parallel walls: V = x a
        assert points > len(affs) ** 2


def test_prenilpotent_oracle_raises_when_its_point_is_not_interior(monkeypatch):
    # the self-check survives python -O: it is a raise, not an assert
    a2 = build_root_system("A", 2)
    a, b = a2.simple
    # the origin lies on both walls at level 0, interior to neither
    monkeypatch.setattr(affine, "_interior_point", lambda geometry, l2, m2: (0, 0, 1))
    with pytest.raises(RgdcheckError, match="not interior to both"):
        prenilpotent_oracle(affine_root(a, 0), affine_root(b, 0))


@pytest.mark.parametrize("kind,rank,raised", [("A", 2, 480), ("BC", 2, 2080)])
def test_swapped_solve_fails_the_gram_self_check(monkeypatch, kind, rank, raised):
    # the mutant solves (a,v) = 1 - m, (b,v) = 1 - l on independent
    # gradients (ta <-> tb); the Gram check must catch its stray points
    solve = affine._interior_point

    def swapped(geometry, l2, m2):
        return solve(geometry, m2, l2) if geometry[0] is None else solve(geometry, l2, m2)

    monkeypatch.setattr(affine, "_interior_point", swapped)
    system = build_root_system(kind, rank)
    affs = [affine_root(a, l) for a in system.roots for l in range(-2, 3)]
    caught = 0
    for alpha in affs:
        for beta in affs:
            try:
                prenilpotent_oracle(alpha, beta)
            except RgdcheckError:
                caught += 1
    assert (len(affs) ** 2, caught) == ({"A": 900, "BC": 3600}[kind], raised)


def test_prenilpotent_oracle_reads_only_the_pair_geometry(monkeypatch):
    # once the pair's geometry is kept, the oracle does no vector arithmetic
    a2 = build_root_system("A", 2)
    affs = [affine_root(a, l) for a in a2.roots for l in (-1, 0, 1)]
    want = {(x, y): prenilpotent_oracle(x, y) for x in affs for y in affs}

    def banned(*args):
        raise AssertionError(f"vector arithmetic on {args}")

    monkeypatch.setattr(affine, "dot", banned)
    monkeypatch.setattr(affine, "neg", banned)
    assert all(prenilpotent_oracle(x, y) == v for (x, y), v in want.items())


def test_prenilpotent_oracle_agrees_on_rank_four():
    # every ordered pair of A4 and BC4 at levels -4..4, and the doubled BC
    # roots at +-1/2 and +-3/2
    for kind in ("A", "BC"):
        system = build_root_system(kind, 4)
        affs = [affine_root(a, l) for a in system.roots for l in range(-4, 5)]
        affs += [
            affine_root(a, Q(l, 2))
            for a in system.roots
            if all(x % 2 == 0 for x in a)
            for l in (-3, -1, 1, 3)
        ]
        assert len(affs) == {"A": 20 * 9, "BC": 40 * 9 + 8 * 4}[kind]
        for alpha in affs:
            for beta in affs:
                assert prenilpotent_oracle(alpha, beta) == is_prenilpotent(
                    alpha, beta
                ), (alpha, beta)


def test_open_interval_same_gradient():
    # two parallel walls of a multipliable root meet only in the doubled root
    bc1 = build_root_system("BC", 1)
    e = vec(1)
    got = open_interval(bc1, affine_root(e, 0), affine_root(e, 1))
    assert got == [affine_root(vec(2), 1)]
    # non multipliable gradients give an empty interval
    a2 = build_root_system("A", 2)
    a = a2.simple[0]
    assert open_interval(a2, affine_root(a, 0), affine_root(a, 2)) == []


def test_open_interval_distinct_gradients():
    a2 = build_root_system("A", 2)
    a, b = a2.simple
    got = open_interval(a2, affine_root(a, 1), affine_root(b, -1))
    assert got == [affine_root(vec(1, 0, -1), 0)]
    bc2 = build_root_system("BC", 2)
    s1, s2 = bc2.simple  # e1 - e2 and e2
    got2 = open_interval(bc2, affine_root(s1, 0), affine_root(s2, 0))
    # p*s1 + q*s2 is a root for (1,1), (1,2) and (2,2), all at level 0; the
    # (2,2) member (2e1, 0) doubles (e1, 0), and U_(2e1, 0) lies in U_(e1, 0)
    assert got2 == [affine_root(vec(1, 0), 0), affine_root(vec(1, 1), 0)]


def test_open_interval_levels_follow_the_endpoints():
    bc2 = build_root_system("BC", 2)
    s1, s2 = bc2.simple
    got = open_interval(bc2, affine_root(s1, 2), affine_root(s2, -1))
    # p + q-weighted levels: (1,1) -> 1, (1,2) -> 0; (2,2) -> (2e1, 2) doubles
    # the (1,1) member (e1, 1) and is left out
    assert got == [affine_root(vec(1, 0), 1), affine_root(vec(1, 1), 0)]


def test_open_interval_keeps_doubled_roots_at_odd_levels():
    # no U_(e1, L) covers a doubled root at an odd level, so it stays
    bc1 = build_root_system("BC", 1)
    e = vec(1)
    assert open_interval(bc1, affine_root(e, 0), affine_root(e, 1)) == [
        affine_root(vec(2), 1)
    ]
    bc2 = build_root_system("BC", 2)
    got = open_interval(bc2, affine_root(vec(1, -1), 0), affine_root(vec(0, 2), 1))
    # (1,1) -> (e1 + e2, 1) and (2,1) -> (2e1, 1)
    assert got == [affine_root(vec(1, 1), 1), affine_root(vec(2, 0), 1)]


def _scanned_interval(system, alpha, beta, bound=10):
    """Every (p*a + q*b, p*l + q*m) with 1 <= p, q <= bound and p*a + q*b a
    root, ordered by p + q, then p."""
    found = []
    for total in range(2, 2 * bound + 1):
        for p in range(max(1, total - bound), min(bound, total - 1) + 1):
            q = total - p
            c = tuple(p * x + q * y for x, y in zip(alpha.root, beta.root))
            if not system.contains(c):
                continue
            gamma = AffineRoot(c, p * alpha.level + q * beta.level)
            if gamma not in found:
                found.append(gamma)
    return found


def _without_doubles(members):
    """Leave out (2c, 2L) when (c, L) is a member: U_(2c, 2L) lies in U_(c, L)."""
    return [
        g
        for g in members
        if (tuple(Q(x, 2) for x in g.root), Q(g.level) / 2) not in members
    ]


@pytest.mark.parametrize("kind,rank", [(k, r) for k in ("A", "BC") for r in (1, 2, 3)])
def test_open_interval_matches_a_wide_scan(kind, rank):
    # the per-pair tables (p, q <= 2) agree with a p, q <= 10 scan, members
    # and order alike, on every prenilpotent pair at levels -1..1
    system = build_root_system(kind, rank)
    assert system.interval_shapes == {}  # built on first use only
    affs = [affine_root(a, l) for a in system.roots for l in (-1, 0, 1)]
    dropped = 0
    for alpha in affs:
        for beta in affs:
            if not is_prenilpotent(alpha, beta):
                continue
            scanned = _scanned_interval(system, alpha, beta)
            want = _without_doubles(scanned)
            assert open_interval(system, alpha, beta) == want, (alpha, beta)
            dropped += len(scanned) - len(want)
    # the rule bites exactly where a multipliable root is a sum a + b
    assert (dropped > 0) == (kind == "BC" and rank >= 2)
    assert len(system.interval_shapes) <= len(system.roots) ** 2


def test_open_interval_rejects_non_prenilpotent_pairs():
    bc1 = build_root_system("BC", 1)
    with pytest.raises(NotPrenilpotent):
        open_interval(bc1, affine_root(vec(1), 0), affine_root(vec(-1), 1))


def test_interval_members_contain_the_intersection():
    rng = random.Random(17)
    bc2 = build_root_system("BC", 2)
    affs = [affine_root(a, l) for a in bc2.roots for l in (-1, 0, 1)]
    checked = 0
    for alpha in affs:
        for beta in affs:
            if alpha == beta or not is_prenilpotent(alpha, beta):
                continue
            members = open_interval(bc2, alpha, beta)
            if not members:
                continue
            checked += 1
            for _ in range(12):
                v = (Q(rng.randint(-24, 24), 4), Q(rng.randint(-24, 24), 4))
                if half_space_contains(alpha, v) and half_space_contains(beta, v):
                    assert all(half_space_contains(g, v) for g in members)
    assert checked > 50


@pytest.mark.parametrize("kind, rank", [(k, r) for k in ("A", "BC") for r in (1, 2, 3, 4)])
def test_interval_oracle_accepts_every_member(kind, rank):
    system = build_root_system(kind, rank)
    affs = [affine_root(a, l) for a in system.roots for l in (-1, 0, 1)]
    members = 0
    for alpha in affs:
        for beta in affs:
            if alpha == beta or not is_prenilpotent(alpha, beta):
                continue
            for gamma in open_interval(system, alpha, beta):
                members += 1
                assert interval_oracle(alpha, beta, gamma), (alpha, beta, gamma)
    # A1 has no two roots with a root for a sum
    assert (members > 0) == ((kind, rank) != ("A", 1))


def test_interval_oracle_refuses_what_is_no_positive_combination():
    a2 = build_root_system("A", 2)
    a, b = a2.simple
    alpha, beta = affine_root(a, 0), affine_root(b, 1)
    assert interval_oracle(alpha, beta, affine_root(vec(1, 0, -1), 1))
    # a member one level off
    for level in (0, 2):
        assert not interval_oracle(alpha, beta, affine_root(vec(1, 0, -1), level))
    # p = 0: beta itself is no member
    assert not interval_oracle(alpha, beta, beta)
    # a gradient outside the span of a and b
    a3 = build_root_system("A", 3)
    a, b, c = a3.simple
    assert not interval_oracle(affine_root(a, 0), affine_root(b, 0), affine_root(c, 0))
    # same gradient: (2e, l + m) is the member; one level off is refused
    # while |m - l| < 2, and p = 0 or q = 0 (2e at 2m or 2l) always
    e, e2 = vec(1), vec(2)
    assert interval_oracle(affine_root(e, 0), affine_root(e, 1), affine_root(e2, 1))
    for level in (0, 2):
        assert not interval_oracle(affine_root(e, 0), affine_root(e, 1), affine_root(e2, level))
    assert interval_oracle(affine_root(e, -1), affine_root(e, 1), affine_root(e2, 1))
    assert not interval_oracle(affine_root(e, -1), affine_root(e, 1), affine_root(e2, 2))
    assert not interval_oracle(affine_root(e, 0), affine_root(e, 0), affine_root(e2, 1))
    # one half-space twice: 2e at 2l is alpha + alpha
    assert interval_oracle(affine_root(e, 0), affine_root(e, 0), affine_root(e2, 0))


def test_simple_affine_roots_shape():
    a2 = build_root_system("A", 2)
    simples = simple_affine_roots(a2)
    assert simples == [
        affine_root(vec(1, -1, 0), 0),
        affine_root(vec(0, 1, -1), 0),
        affine_root(vec(-1, 0, 1), 1),
    ]
    for alpha in simples:
        assert is_positive(a2, alpha)
    bc1 = build_root_system("BC", 1)
    assert simple_affine_roots(bc1) == [
        affine_root(vec(1), 0),
        affine_root(vec(-2), 1),
    ]


def test_str_format():
    alpha = affine_root(vec(1, -1), Q(1, 2))
    s = str(alpha)
    assert "1/2" in s and "-1" in s
