"""Tests for the permutation layer."""

import itertools
import random
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.errors import CapExceeded, NotASubgroup
from quandlekit.perm import (
    Perm,
    PermGroup,
    closure,
    direct_product,
    is_k_transitive,
    orbit_partition,
    stabilizer,
    symmetric_group,
)


def naive_closure(gens, degree):
    """Fixed-point iteration oracle: multiply the set by itself until stable."""
    current = {Perm.identity(degree)} | set(gens)
    while True:
        nxt = {a * b for a in current for b in current}
        if nxt == current:
            return current
        current = nxt


def test_compose_is_function_composition():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    for x in range(3):
        assert (p * q)(x) == p(q(x))


def test_inverse_and_identity():
    rng = random.Random(7)
    for _ in range(20):
        images = list(range(6))
        rng.shuffle(images)
        p = Perm(images)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_perm_rejects_non_rearrangement():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_pow_matches_repeated_product():
    p = Perm((1, 2, 3, 0))
    assert p**2 == p * p
    assert p**-1 == p.inverse()
    assert (p**4).is_identity()


def test_cycle_and_transposition_helpers():
    assert Perm.cycle(4, (0, 1, 2)) == Perm((1, 2, 0, 3))
    assert Perm.transposition(3, 0, 2) == Perm((2, 1, 0))
    assert Perm.cycle(5, (0, 3)).cycle_type() == (1, 1, 1, 2)


def test_closure_of_single_transposition():
    group = closure([Perm.transposition(3, 0, 1)])
    assert group.order == 2
    assert Perm((1, 0, 2)) in group and (1, 0, 2) not in group


def test_closure_matches_naive_oracle_on_random_generators():
    rng = random.Random(2024)
    for _ in range(10):
        degree = rng.randrange(2, 6)
        gens = []
        for _g in range(rng.randrange(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        expected = naive_closure(gens, degree)
        got = closure(gens, degree=degree)
        assert set(got.elements) == expected


def test_closure_element_order_independent_of_generator_order():
    gens = [Perm.transposition(4, 0, 1), Perm.cycle(4, (0, 1, 2, 3))]
    a = closure(gens)
    b = closure(list(reversed(gens)))
    assert a.elements == b.elements


def test_closure_elements_sorted_and_group_axioms_hold():
    group = closure([Perm.transposition(4, 0, 1), Perm.cycle(4, (1, 2, 3))])
    assert list(group.elements) == sorted(group.elements)
    for g in group.elements:
        assert g.inverse() in group
        for h in group.elements:
            assert g * h in group


def test_closure_cap():
    gens = [Perm.transposition(5, 0, 1), Perm.cycle(5, (0, 1, 2, 3, 4))]
    with pytest.raises(CapExceeded):
        closure(gens, cap=30)


def test_dihedral_r4_translation_closure_has_order_four():
    # the two distinct right translations of the 4-element dihedral quandle
    s0 = Perm((0, 3, 2, 1))
    s1 = Perm((2, 1, 0, 3))
    group = closure([s0, s1])
    assert group.order == 4
    assert all((g * g).is_identity() for g in group.elements)


def test_dihedral_r6_translation_closure_matches_oracle():
    # right translations i -> 2j - i mod 6 for j = 0, 1, 2
    gens = [Perm(tuple((2 * j - i) % 6 for i in range(6))) for j in range(3)]
    expected = naive_closure(gens, 6)
    assert len(expected) == 6
    assert closure(gens).order == 6


def test_orbit_partition_basic():
    assert orbit_partition([], 3) == [[0], [1], [2]]
    assert orbit_partition([Perm.transposition(4, 1, 2)], 4) == [[0], [1, 2], [3]]
    assert orbit_partition([Perm.cycle(4, (0, 1)), Perm.cycle(4, (2, 3))], 4) == [[0, 1], [2, 3]]


def test_orbit_partition_matches_naive_reachability():
    rng = random.Random(5)
    for _ in range(10):
        degree = rng.randrange(2, 7)
        gens = []
        for _g in range(rng.randrange(1, 4)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        # naive: expand each point's orbit by applying generators repeatedly
        orbits = []
        remaining = set(range(degree))
        while remaining:
            x = min(remaining)
            orbit = {x}
            while True:
                grown = orbit | {g(y) for g in gens for y in orbit}
                if grown == orbit:
                    break
                orbit = grown
            orbits.append(sorted(orbit))
            remaining -= orbit
        assert orbit_partition(gens, degree) == orbits


def test_k_transitivity_of_symmetric_group():
    s4 = symmetric_group(4)
    for k in (1, 2, 3, 4):
        assert is_k_transitive(s4, k)
    assert is_k_transitive(s4, 5)  # beyond the degree: vacuous


def test_k_transitivity_of_cyclic_rotations():
    c4 = closure([Perm.cycle(4, (0, 1, 2, 3))])
    assert is_k_transitive(c4, 1)
    assert not is_k_transitive(c4, 2)


def test_k_transitivity_against_naive_definition():
    rng = random.Random(11)
    for _ in range(6):
        degree = rng.randrange(2, 6)
        images = list(range(degree))
        rng.shuffle(images)
        group = closure([Perm(images), Perm.transposition(degree, 0, degree - 1)])
        for k in range(1, degree + 1):
            tuples = list(itertools.permutations(range(degree), k))
            naive = all(
                any(tuple(g(i) for i in src) == dst for g in group.elements)
                for src in tuples
                for dst in tuples
            )
            assert is_k_transitive(group, k) == naive


def test_stabilizer_of_point():
    s3 = symmetric_group(3)
    fixing = stabilizer(s3, lambda g, x: g(x), 2)
    assert len(fixing) == 2
    assert all(g(2) == 2 for g in fixing)


def test_stabilizer_rejects_non_action():
    s3 = symmetric_group(3)

    def bogus(g, x):
        # not an action: fixes a set that is not closed under composition
        return x if g.images in ((0, 1, 2), (1, 0, 2), (2, 1, 0)) else x + 1

    with pytest.raises(NotASubgroup):
        stabilizer(s3, bogus, 0)


def test_stabilizer_under_conjugation_action():
    s4 = symmetric_group(4)
    target = Perm((1, 0, 3, 2))
    fixing = stabilizer(s4, lambda g, p: g * p * g.inverse(), target)
    assert len(fixing) == 8  # centralizer of a double transposition in S4


def test_from_elements_reduces_generators():
    s3 = symmetric_group(3)
    rebuilt = PermGroup.from_elements(s3.elements)
    assert rebuilt == s3
    assert len(rebuilt.generators) <= 2
    assert closure(rebuilt.generators, degree=3) == s3


def test_from_elements_rejects_a_set_not_closed_under_composition():
    identity, rotation = Perm.identity(3), Perm((1, 2, 0))
    with pytest.raises(NotASubgroup, match=r"Perm\(1, 2, 0\) \* Perm\(1, 2, 0\) is not in the set"):
        PermGroup.from_elements([identity, rotation])
    with pytest.raises(NotASubgroup, match="identity"):
        PermGroup.from_elements([Perm((1, 0))])
    s3 = symmetric_group(3).elements
    with pytest.raises(NotASubgroup):
        PermGroup.from_elements([p for p in s3 if p != Perm((2, 0, 1))])


def test_closure_cap_is_exact():
    gens = [Perm.transposition(5, 0, 1), Perm.cycle(5, (0, 1, 2, 3, 4))]
    assert closure(gens, cap=120).order == 120
    with pytest.raises(CapExceeded):
        closure(gens, cap=119)


def _bfs_span(gens, degree):
    """Images of every product of the generators, found breadth-first."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    return degree, [tuple(g) for g in gens]


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_closure_matches_breadth_first_span(case):
    degree, gens = case
    group = closure([Perm(g) for g in gens], degree=degree)
    assert [p.images for p in group.elements] == sorted(_bfs_span(gens, degree))
    assert [p.images for p in group.generators] == gens


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_from_elements_matches_greedy_reference(case, rng):
    degree, gens = case
    elements = sorted(_bfs_span(gens, degree))
    kept, span = [], {tuple(range(degree))}
    for p in elements:
        if p not in span:
            kept.append(p)
            span = _bfs_span(kept, degree)
    shuffled = [Perm(p) for p in elements]
    rng.shuffle(shuffled)
    group = PermGroup.from_elements(shuffled, degree=degree)
    assert [p.images for p in group.generators] == kept
    assert [p.images for p in group.elements] == elements


@st.composite
def chain_cases(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    probes = draw(st.lists(st.permutations(range(degree)), max_size=20))
    return degree, [tuple(g) for g in gens], [Perm(p) for p in probes]


@settings(max_examples=100, deadline=None)
@given(chain_cases())
def test_stabilizer_chain_agrees_with_the_closure(case):
    degree, gens, probes = case
    closed = closure([Perm(g) for g in gens], degree=degree)
    chained = PermGroup.generated(degree, gens)
    assert chained.order == closed.order
    members = set(closed.elements)
    for p in list(closed.elements) + probes:
        assert (p in chained) == (p in members)
    assert chained == closed and closed == chained
    assert PermGroup.generated(degree, gens).generators == (
        PermGroup.from_elements(closed.elements).generators
    )
    assert chained.elements == closed.elements
    for k in range(1, min(degree, 3) + 1):
        tuples = {p.images[:k] for p in closed.elements}
        assert is_k_transitive(chained, k) == (len(tuples) == perm(degree, k))


def test_direct_product_order_and_degree():
    prod = direct_product(symmetric_group(3), symmetric_group(2))
    assert prod.degree == 5
    assert prod.order == 12
    # the two factors act on disjoint blocks
    assert orbit_partition(list(prod.generators), 5) == [[0, 1, 2], [3, 4]]
