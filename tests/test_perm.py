"""Tests for the permutation layer."""

import itertools
import random
from math import lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.perm import Perm, PermGroup, _compose, _cycle_type, _invert, _orbits

try:
    from sympy import combinatorics
except ImportError:  # sympy is a test-only oracle
    combinatorics = None


def naive_closure(gens, degree):
    """Fixed-point iteration oracle: multiply the set by itself until stable."""
    current = {Perm.identity(degree)} | set(gens)
    while True:
        nxt = {a * b for a in current for b in current}
        if nxt == current:
            return current
        current = nxt


def transposition(n, a, b):
    """The image tuple of the permutation of 0..n-1 that swaps a and b."""
    return tuple({a: b, b: a}.get(x, x) for x in range(n))


def symmetric_group(n):
    """S_n for n >= 3, generated by a transposition and an n-cycle."""
    return PermGroup(n, [transposition(n, 0, 1), (*range(1, n), 0)])


def steps(gens, degree):
    """The neighbour lists `_orbits` walks: x -> g(x) for each generator g."""
    return [[g(x) for g in gens] for x in range(degree)]


def test_compose_is_function_composition():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    for x in range(3):
        assert (p * q)(x) == p(q(x))


def test_products_at_degrees_zero_and_one():
    assert (Perm(()) * Perm(())).images == ()
    assert (Perm((0,)) * Perm((0,))).images == (0,)


@pytest.mark.parametrize("left, right", [((), (0,)), ((0,), (1, 0)), ((1, 0), (0, 2, 1))])
def test_product_of_different_degrees_is_refused(left, right):
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm(left) * Perm(right)
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm(right) * Perm(left)


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(0, 24))
    return Perm(draw(st.permutations(range(n)))), Perm(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(pair=perm_pairs())
def test_product_images_are_the_composed_tuple(pair):
    p, q = pair
    product = (p * q).images
    assert type(product) is tuple
    assert product == tuple(p.images[x] for x in q.images)


def test_inverse_and_identity():
    rng = random.Random(7)
    for _ in range(20):
        images = list(range(6))
        rng.shuffle(images)
        p = tuple(images)
        assert _compose(p, _invert(p)) == tuple(range(6))
        assert _compose(_invert(p), p) == tuple(range(6))


def test_perm_rejects_non_rearrangement():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


@pytest.mark.parametrize("images", [(0.0, 1.0), (True, False), (1, 0.0), (None, 0)])
def test_perm_rejects_images_that_are_not_ints(images):
    # each but the last sorts equal to [0, 1], so only the type check refuses them
    with pytest.raises(ValueError, match=r"^images must be ints"):
        Perm(images)


def test_product_across_degrees_is_refused():
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm((1, 0)) * Perm((0, 2, 1))
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm.identity(3) * Perm.identity(2)


@st.composite
def perm_pairs(draw):
    degree = draw(st.integers(0, 7))
    return tuple(tuple(draw(st.permutations(range(degree)))) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(perm_pairs())
def test_products_and_inverses_equal_checked_perms(images):
    # the oracle composes and inverts image tuples directly
    p, q = images
    degree = len(p)
    composed = Perm(tuple(p[q[x]] for x in range(degree)))
    inverted = Perm(tuple(sorted(range(degree), key=p.__getitem__)))
    for built, checked in ((Perm(p) * Perm(q), composed), (Perm(_invert(p)), inverted)):
        assert built == checked and checked == built
        assert hash(built) == hash(checked)
        assert type(built.images) is tuple and built.images == checked.images


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))), st.integers(1, 12))
def test_order_from_cycle_type_divides_exactly_the_identity_powers(images, m):
    # the oracle multiplies p by itself m times
    p = Perm(images)
    power = Perm.identity(len(images))
    for _ in range(m):
        power = power * p
    assert (m % lcm(*_cycle_type(p.images)) == 0) == (power.images == tuple(range(len(images))))


def test_cycle_type_of_a_transposition_and_a_three_cycle():
    assert _cycle_type(transposition(5, 0, 3)) == (1, 1, 1, 2)
    assert _cycle_type((1, 2, 0, 3)) == (1, 3)


@pytest.mark.parametrize("degree", [0, 5])
def test_a_group_of_no_generators_is_trivial(degree):
    trivial = PermGroup(degree)
    assert trivial.order == 1
    assert list(trivial) == [Perm.identity(degree)]
    assert trivial == PermGroup(degree, [])
    assert trivial.generators == () and trivial.strong_generators == ()


def test_closure_of_single_transposition():
    group = PermGroup(3, [(1, 0, 2)])
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
        got = PermGroup(degree, [g.images for g in gens])
        assert set(got) == expected


def test_closure_element_order_independent_of_generator_order():
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    a = PermGroup(4, gens)
    b = PermGroup(4, list(reversed(gens)))
    assert list(a) == list(b)


def test_closure_elements_sorted_and_group_axioms_hold():
    group = PermGroup(4, [(1, 0, 2, 3), (0, 2, 3, 1)])
    elements = list(group)
    assert elements == sorted(elements)
    for g in elements:
        assert Perm(_invert(g.images)) in group
        for h in elements:
            assert g * h in group


def test_dihedral_r4_translation_closure_has_order_four():
    # the two distinct right translations of the 4-element dihedral quandle
    group = PermGroup(4, [(0, 3, 2, 1), (2, 1, 0, 3)])
    assert group.order == 4
    assert all(_compose(g.images, g.images) == (0, 1, 2, 3) for g in group)


def test_dihedral_r6_translation_closure_matches_oracle():
    # right translations i -> 2j - i mod 6 for j = 0, 1, 2
    gens = [Perm(tuple((2 * j - i) % 6 for i in range(6))) for j in range(3)]
    expected = naive_closure(gens, 6)
    assert len(expected) == 6
    assert PermGroup(6, [g.images for g in gens]).order == 6


def test_orbit_partition_basic():
    assert _orbits(steps([], 3)) == [[0], [1], [2]]
    assert _orbits(steps([Perm(transposition(4, 1, 2))], 4)) == [[0], [1, 2], [3]]
    assert _orbits(steps([Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))], 4)) == [[0, 1], [2, 3]]


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
        assert _orbits(steps(gens, degree)) == orbits


def test_k_transitivity_of_symmetric_group():
    s4 = symmetric_group(4)
    for k in (1, 2, 3, 4):
        assert s4.is_k_transitive(k)
    assert s4.is_k_transitive(5)  # beyond the degree: vacuous


def test_k_transitivity_of_cyclic_rotations():
    c4 = PermGroup(4, [(1, 2, 3, 0)])
    assert c4.is_k_transitive(1)
    assert not c4.is_k_transitive(2)


def test_k_transitivity_against_naive_definition():
    rng = random.Random(11)
    for _ in range(6):
        degree = rng.randrange(2, 6)
        images = list(range(degree))
        rng.shuffle(images)
        group = PermGroup(degree, [tuple(images), transposition(degree, 0, degree - 1)])
        for k in range(1, degree + 1):
            tuples = list(itertools.permutations(range(degree), k))
            naive = all(
                any(tuple(g(i) for i in src) == dst for g in group)
                for src in tuples
                for dst in tuples
            )
            assert group.is_k_transitive(k) == naive


def test_from_elements_reduces_generators():
    s3 = symmetric_group(3)
    shuffled = [p.images for p in reversed(list(s3))]
    rebuilt = PermGroup(3, shuffled)
    assert rebuilt == s3
    assert rebuilt.order == len(shuffled)
    assert len(rebuilt.generators) <= 2
    assert PermGroup(3, [p.images for p in rebuilt.generators]) == s3


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


def _greedy_generators(elements, degree):
    """Walk the sorted elements, keeping each one outside the span of those kept before."""
    kept, span = [], {tuple(range(degree))}
    for p in elements:
        if p not in span:
            kept.append(p)
            span = _bfs_span(kept, degree)
    return kept


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    return degree, [tuple(g) for g in gens]


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_closure_matches_breadth_first_span(case):
    degree, gens = case
    group = PermGroup(degree, gens)
    assert [p.images for p in group] == sorted(_bfs_span(gens, degree))


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_from_elements_matches_greedy_reference(case, rng):
    degree, gens = case
    elements = sorted(_bfs_span(gens, degree))
    kept = _greedy_generators(elements, degree)
    shuffled = [Perm(p) for p in elements]
    rng.shuffle(shuffled)
    group = PermGroup(degree, [p.images for p in shuffled])
    assert group.order == len(elements)
    assert [p.images for p in group.generators] == kept
    assert [p.images for p in group] == elements


@st.composite
def chain_cases(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    probes = draw(st.lists(st.permutations(range(degree)), max_size=20))
    return degree, [tuple(g) for g in gens], [Perm(p) for p in probes]


@settings(max_examples=100, deadline=None)
@given(chain_cases())
def test_stabilizer_chain_agrees_with_the_closure(case):
    # the oracles are the breadth-first span and the greedy walk over it; the
    # chain built from the generators in reverse order must be the same group
    degree, gens, probes = case
    closed = PermGroup(degree, gens[::-1])
    chained = PermGroup(degree, gens)
    span = sorted(_bfs_span(gens, degree))
    assert chained.order == closed.order == len(span)
    members = set(span)
    for p in [Perm(q) for q in span] + probes:
        assert (p in chained) == (p.images in members)
    assert chained == closed and closed == chained
    assert [p.images for p in chained.generators] == _greedy_generators(span, degree)
    assert [p.images for p in chained] == span
    for k in range(1, min(degree, 3) + 1):
        tuples = {p[:k] for p in span}
        assert chained.is_k_transitive(k) == (len(tuples) == perm(degree, k))


@pytest.mark.skipif(combinatorics is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(chain_cases())
def test_stabilizer_chain_agrees_with_sympy(case):
    # sympy's Schreier-Sims and element generation share no code with `perm`
    degree, gens, probes = case
    group = PermGroup(degree, gens)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in [tuple(range(degree)), *gens]]
    )
    assert group.order == oracle.order()
    for p in probes:
        assert (p in group) == oracle.contains(combinatorics.Permutation(list(p.images)))
    assert [p.images for p in group] == sorted(tuple(q.array_form) for q in oracle.generate())
