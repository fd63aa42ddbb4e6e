"""Tests for the finite root systems of types A and BC."""

from fractions import Fraction as Q

import pytest

from rgdcheck import (
    ReflectionLeftSystem,
    UnsupportedType,
    affine_root,
    build_root_system,
    pairing,
)
from rgdcheck.roots import add, coroot, dot, proportionality, reflect_vector, scale, sub, vec


def test_root_counts():
    # A_n has n(n+1) roots, BC_n has 2n(n+1)
    assert len(build_root_system("A", 1).roots) == 2
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("A", 3).roots) == 12
    assert len(build_root_system("BC", 1).roots) == 4
    assert len(build_root_system("BC", 2).roots) == 12
    assert len(build_root_system("BC", 3).roots) == 24


@pytest.mark.parametrize("kind,rank", [(k, r) for k in ("A", "BC") for r in range(1, 9)])
def test_derived_systems_match_their_closed_forms(kind, rank):
    """The system derived from the simple roots is the classical one: the
    roots {e_i - e_j : i != j} of A and {+-e_i, +-2e_i, +-e_i +- e_j : i < j}
    of BC, the highest root e_1 - e_(rank+1) or 2e_1, the height vector
    h = (rank - i)_i with (a_i, h) = 1 on every simple root, and the
    fundamental point h / N with N = rank + 1 for A and 2 rank + 1 for BC."""
    system = build_root_system(kind, rank)
    dim = rank + 1 if kind == "A" else rank
    e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    simple = [sub(e[i], e[i + 1]) for i in range(dim - 1)]
    if kind == "A":
        roots = {sub(e[i], e[j]) for i in range(dim) for j in range(dim) if i != j}
        highest, n = sub(e[0], e[-1]), rank + 1
    else:
        simple.append(e[-1])
        roots = {scale(c, e[i]) for i in range(dim) for c in (1, -1, 2, -2)}
        roots |= {
            add(scale(c, e[i]), scale(d, e[j]))
            for i in range(dim)
            for j in range(i + 1, dim)
            for c in (1, -1)
            for d in (1, -1)
        }
        highest, n = scale(2, e[0]), 2 * rank + 1
    assert system.roots == tuple(sorted(roots))
    assert system.simple == tuple(simple)
    assert system.highest == highest
    h = tuple(rank - i for i in range(dim))
    assert system.fundamental_point == tuple(Q(x, n) for x in h)
    for a in system.simple:
        assert dot(a, h) == 1
        assert dot(a, system.fundamental_point) == Q(1, n)


@pytest.mark.parametrize("kind,rank", [(k, r) for k in ("A", "BC") for r in (1, 2, 3, 4)])
def test_pair_tables_fill_on_lookup(kind, rank):
    """reflections[a, b] is (s_a(b), <b, a^vee>) and interval_shapes[a, b]
    the (p, q, p*a + q*b) that are roots for (p, q) = (1, 1), (1, 2), (2, 1),
    on every pair; each table keeps one entry per pair looked up."""
    system = build_root_system(kind, rank)
    assert system.reflections == {} and system.interval_shapes == {}
    roots = set(system.roots)
    for a in system.roots:
        for b in system.roots:
            assert system.reflections[a, b] == (system.reflect_root(a, b), pairing(b, a))
            want = []
            for p, q in ((1, 1), (1, 2), (2, 1)):
                c = add(tuple(p * x for x in a), tuple(q * y for y in b))
                if c in roots:
                    want.append((p, q, c))
            assert system.interval_shapes[a, b] == tuple(want), (a, b)
    pairs = len(system.roots) ** 2
    assert len(system.reflections) == len(system.interval_shapes) == pairs


def test_simple_and_highest_roots():
    a2 = build_root_system("A", 2)
    assert a2.simple == (vec(1, -1, 0), vec(0, 1, -1))
    assert a2.highest == vec(1, 0, -1)
    bc2 = build_root_system("BC", 2)
    assert bc2.simple == (vec(1, -1), vec(0, 1))
    assert bc2.highest == vec(2, 0)
    # the highest root is maximal: adding a simple root leaves the system
    for kind, rank in (("A", 1), ("A", 2), ("A", 3), ("BC", 1), ("BC", 2), ("BC", 3)):
        system = build_root_system(kind, rank)
        assert system.is_positive_root(system.highest)
        for s in system.simple:
            assert not system.contains(add(system.highest, s))


def test_positive_negative_split():
    for kind, rank in (("A", 1), ("A", 2), ("A", 3), ("BC", 1), ("BC", 2)):
        system = build_root_system(kind, rank)
        pos = [a for a in system.roots if system.is_positive_root(a)]
        neg = [a for a in system.roots if not system.is_positive_root(a)]
        assert len(pos) == len(neg)
        for a in pos:
            assert tuple(-x for x in a) in neg
        for a in system.simple:
            assert system.is_positive_root(a)


def test_fundamental_point_separates_signs():
    for kind, rank in (("A", 1), ("A", 2), ("A", 3), ("BC", 1), ("BC", 2), ("BC", 3)):
        system = build_root_system(kind, rank)
        v0 = system.fundamental_point
        for a in filter(system.is_positive_root, system.roots):
            assert 0 < dot(a, v0) < 1


def test_pairing_frozen_values():
    bc1 = build_root_system("BC", 1)
    e = vec(1)
    assert pairing(e, vec(2)) == Q(1)  # <e, (2e)^vee>
    assert pairing(vec(2), e) == Q(4)  # <2e, e^vee>
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    assert pairing(a1, a2s) == Q(-1)
    assert pairing(a2s, a1) == Q(-1)
    assert pairing(a1, a1) == Q(2)


def test_reflections_preserve_each_system():
    for kind, rank in (("A", 1), ("A", 2), ("A", 3), ("BC", 1), ("BC", 2), ("BC", 3)):
        system = build_root_system(kind, rank)
        for a in system.roots:
            for b in system.roots:
                rb = system.reflect_root(a, b)
                assert system.contains(rb)
                # involution
                assert system.reflect_root(a, rb) == b
                # reflections are isometries of the pairing
                ra = system.reflect_root(a, a)
                assert ra == tuple(-x for x in a)
                assert pairing(rb, ra) == -pairing(rb, a)


def test_reflect_vector_geometry():
    a = vec(1, -1, 0)
    assert reflect_vector(a, vec(1, 0, 0)) == vec(0, 1, 0)
    assert reflect_vector(a, vec(0, 0, 1)) == vec(0, 0, 1)


def test_reflect_root_rejects_outsiders():
    a2 = build_root_system("A", 2)
    with pytest.raises(ReflectionLeftSystem):
        a2.is_positive_root(vec(2, -1, -1))


def test_proportional_sets_and_multipliable_roots():
    bc2 = build_root_system("BC", 2)
    e1 = vec(1, 0)
    assert bc2.is_multipliable(e1)
    assert not bc2.is_multipliable(vec(2, 0))
    assert not bc2.is_multipliable(vec(1, 1))
    props = {b for b in bc2.roots if proportionality(e1, b) is not None}
    assert props == {vec(1, 0), vec(2, 0), vec(-1, 0), vec(-2, 0)}
    a2 = build_root_system("A", 2)
    for a in a2.roots:
        assert not a2.is_multipliable(a)


def test_roots_pairings_and_coroots_are_integers():
    for kind, rank in (("A", 1), ("A", 3), ("BC", 1), ("BC", 3)):
        system = build_root_system(kind, rank)
        for a in system.roots:
            assert all(type(x) is int for x in a)
            assert all(type(x) is int for x in coroot(a))
            for b in system.roots:
                assert type(dot(a, b)) is int
                assert type(pairing(b, a)) is int
    assert vec(1, Q(-2)) == (1, -2)
    assert all(type(x) is int for x in vec(1, Q(-2)))
    with pytest.raises(ValueError):
        vec(Q(1, 2))  # never truncated to 0


def test_affine_roots_reject_non_integer_gradients():
    with pytest.raises(ValueError):
        affine_root((Q(1, 2), 0), 0)
    assert affine_root((Q(1), Q(-1)), 0).root == (1, -1)


def test_proportionality_ratios():
    half = proportionality(vec(2, 0), vec(1, 0))
    assert half == Q(1, 2) and isinstance(half, Q)  # exact, never a float
    assert proportionality(vec(1, 0), vec(2, 0)) == Q(2)
    assert proportionality(vec(1, -1), vec(-1, 1)) == Q(-1)
    assert proportionality(vec(1, 0), vec(0, 1)) is None
    assert proportionality(vec(1, 1), vec(2, 1)) is None
    assert proportionality(vec(0, 0), vec(1, 0)) is None


def test_unsupported_kinds_raise():
    with pytest.raises(UnsupportedType):
        build_root_system("D", 4)
    with pytest.raises(UnsupportedType):
        build_root_system("A", 0)


def test_simple_coordinates_reconstruct_roots():
    # both simple systems are e_i - e_(i+1) plus, for BC, e_n, so the k-th
    # simple coordinate of a root is the partial sum a_1 + ... + a_k
    for kind, rank in (("A", 2), ("BC", 2), ("BC", 3)):
        system = build_root_system(kind, rank)
        for a in system.roots:
            coords = [sum(a[: k + 1], Q(0)) for k in range(rank)]
            rebuilt = tuple(
                sum((c * s[i] for c, s in zip(coords, system.simple)), Q(0))
                for i in range(len(a))
            )
            assert rebuilt == a
            assert all(c.denominator == 1 for c in coords)
            signs = {c > 0 for c in coords if c != 0}
            assert len(signs) == 1  # all nonzero coordinates share a sign
