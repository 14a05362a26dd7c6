"""Tests for the quandle core: validation, invariants, searches, enumeration."""

import itertools
import random
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.errors import (
    Axiom1Violation,
    Axiom2Violation,
    Axiom3Violation,
    CapExceeded,
    ParseError,
)
from quandlekit.fingroup import DEFAULT_GROUP_CAP, core_quandle, make_group
from quandlekit import quandle as quandlemod
from quandlekit.perm import Perm, PermGroup, _compose, _cycle_type, _invert
from quandlekit.quandle import (
    Quandle,
    _canonical_table,
    _first_unpreserved,
    _labeled_quandle_tables,
    aut,
    build,
    center,
    enumerate_quandles,
    find_isomorphism,
    inn,
    inner_generators,
    is_connected,
    is_involutory,
    is_isomorphic,
    is_quasi_inner_strong,
    orbit_partition,
    qinn,
)
from quandlekit.theorems import (
    _cyclic_sum_name,
    _dihedral_orders,
    _elementary_powers,
    _odd_components,
    _REFLECTION_SPECS,
    _reflection_case,
)

JOYCE_TABLE = [[0, 2, 0], [1, 1, 1], [2, 0, 2]]


def naive_aut(q):
    """All table-preserving bijections, found by filtering every permutation."""
    n = q.order
    found = []
    for images in itertools.permutations(range(n)):
        if all(
            images[q.table[x][y]] == q.table[images[x]][images[y]]
            for x in range(n)
            for y in range(n)
        ):
            found.append(images)
    return set(found)


def relabel(table, sigma):
    n = len(table)
    sinv = [0] * n
    for i, s in enumerate(sigma):
        sinv[s] = i
    return [[sigma[table[sinv[x]][sinv[y]]] for y in range(n)] for x in range(n)]


def test_from_table_accepts_joyce_example():
    q = Quandle.from_table(JOYCE_TABLE)
    assert q.order == 3
    assert center(q) == [1]


def test_axiom_violations_carry_witnesses():
    with pytest.raises(Axiom1Violation) as e1:
        Quandle.from_table([[1, 0], [0, 1]])
    assert e1.value.x == 0
    with pytest.raises(Axiom2Violation) as e2:
        Quandle.from_table([[0, 0, 0], [0, 1, 1], [2, 2, 2]])
    assert e2.value.y == 0
    # idempotent, columns bijective, but not self-distributive
    bad = [
        [0, 0, 1, 1],
        [1, 1, 0, 0],
        [3, 2, 2, 2],
        [2, 3, 3, 3],
    ]
    with pytest.raises(Axiom3Violation) as e3:
        Quandle.from_table(bad)
    assert e3.value.triple == (2, 0, 2)


def test_from_table_rejects_ragged_and_out_of_range():
    with pytest.raises(ValueError):
        Quandle.from_table([[0, 0], [1]])
    with pytest.raises(ValueError):
        Quandle.from_table([[0, 5], [1, 1]])


def test_json_round_trip():
    q = build("dihedral", 5)
    doc = q.to_json()
    assert doc["order"] == 5
    assert Quandle.from_json(doc) == q
    with pytest.raises(ValueError):
        Quandle.from_json({"order": 3, "table": [[0]]})


def test_build_trivial():
    q = build("trivial", 4)
    assert all(q.table[x][y] == x for x in range(4) for y in range(4))
    assert center(q) == [0, 1, 2, 3]


def test_build_dihedral_table_formula():
    q = build("dihedral", 4)
    assert q.table == tuple(
        tuple((2 * y - x) % 4 for y in range(4)) for x in range(4)
    )


def test_dihedral_connected_iff_odd():
    for n in range(3, 9):
        assert is_connected(build("dihedral", n)) == (n % 2 == 1)


def test_center_of_dihedral_is_empty():
    for n in (3, 4, 5, 6):
        assert center(build("dihedral", n)) == []


def test_inner_generator_counts():
    assert len(inner_generators(build("dihedral", 4))) == 2
    assert len(inner_generators(build("dihedral", 5))) == 5
    assert len(inner_generators(build("dihedral", 6))) == 3
    assert len(inner_generators(build("trivial", 7))) == 1


def test_inn_orders_of_small_dihedral_quandles():
    assert inn(build("dihedral", 3)).order == 6
    assert inn(build("dihedral", 4)).order == 4
    assert inn(build("dihedral", 5)).order == 10
    assert inn(build("dihedral", 6)).order == 6


def test_aut_orders_of_small_dihedral_quandles():
    assert aut(build("dihedral", 3)).order == 6
    assert aut(build("dihedral", 4)).order == 8
    assert aut(build("dihedral", 5)).order == 20


def test_aut_matches_naive_filter():
    for q in (build("dihedral", 3), build("dihedral", 4), Quandle.from_table(JOYCE_TABLE), build("trivial", 4)):
        assert {g.images for g in aut(q)} == naive_aut(q)


SMALL_CLASSES = [q.table for n in range(1, 6) for q in enumerate_quandles(n)]
ORDER_SIX_SAMPLE = [q.table for q in enumerate_quandles(6)[::6]]


def reference_rejection(table):
    """(class, message) of the first failure a direct reading of the axioms meets, or None.

    Rows are checked in order for length, entry type and range; then
    x * x = x for each x; then each column for bijectivity; then
    (x * y) * z = (x * z) * (y * z) over all triples, z innermost.
    """
    n = len(table)
    for x, row in enumerate(table):
        if len(row) != n:
            return ValueError, f"row {x} has length {len(row)}, expected {n}"
        if any(type(v) is not int for v in row):
            return ParseError, f"row {x} has an entry that is not an integer"
        if any(v < 0 or v >= n for v in row):
            return ValueError, f"row {x} has out-of-range entries"
    for x in range(n):
        if table[x][x] != x:
            return Axiom1Violation, f"idempotence fails at element {x}"
    for y in range(n):
        if sorted(table[x][y] for x in range(n)) != list(range(n)):
            return Axiom2Violation, f"right translation by {y} is not a bijection"
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[table[x][z]][table[y][z]]:
                    return Axiom3Violation, f"(x*y)*z != (x*z)*(y*z) at ({x}, {y}, {z})"
    return None


def assert_rejected_as_reference(table):
    expected = reference_rejection(table)
    if expected is None:
        assert Quandle.from_table(table).table == tuple(map(tuple, table))
        return
    cls, message = expected
    with pytest.raises(ValueError) as e:
        Quandle.from_table(table)
    assert type(e.value) is cls
    assert str(e.value) == message


PERTURBED_BASES = (
    SMALL_CLASSES
    + [q.table for q in enumerate_quandles(6)]
    + [build("dihedral", n).table for n in range(3, 13)]
)


@st.composite
def perturbed_tables(draw):
    """A valid table with one to three changes to its entries.

    Most are swaps of two off-diagonal entries of one column, which keep
    the columns bijective and x * x = x, and so break axiom 3 if anything;
    the rest put in a bool, an out-of-range int or another in-range int.
    """
    table = [list(row) for row in draw(st.sampled_from(PERTURBED_BASES))]
    n = len(table)
    points = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["swap"] * 5 + ["bool", "out of range", "in range"]))
        x, y = draw(points), draw(points)
        if kind == "swap":
            if n > 2:
                off_diagonal = st.sampled_from([v for v in range(n) if v != y])
                x, w = draw(st.lists(off_diagonal, min_size=2, max_size=2, unique=True))
                table[x][y], table[w][y] = table[w][y], table[x][y]
        elif kind == "bool":
            table[x][y] = draw(st.booleans())
        elif kind == "out of range":
            table[x][y] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=n)))
        else:
            table[x][y] = draw(points)
    return table


@settings(max_examples=300, deadline=None)
@given(table=perturbed_tables())
def test_from_table_rejects_perturbed_tables_as_the_triple_loop_does(table):
    assert_rejected_as_reference(table)


def test_from_table_above_256_points_walks_every_column():
    table = [list(row) for row in build("dihedral", 257).table]
    assert Quandle.from_table(table).order == 257
    # swap two off-diagonal entries of the last column, which stays bijective;
    # every column now fails, and the least witness lies in the last one
    table[1][256], table[2][256] = table[2][256], table[1][256]
    assert reference_rejection(table) == (Axiom3Violation, "(x*y)*z != (x*z)*(y*z) at (0, 1, 256)")
    assert_rejected_as_reference(table)


def naive_orbits(q):
    """The translation orbit of each element, grown until no translation leaves it."""
    orbits = []
    for x in range(q.order):
        orbit = {x}
        while True:
            grown = orbit | {q.table[y][z] for y in orbit for z in range(q.order)}
            if grown == orbit:
                break
            orbit = grown
        orbits.append(orbit)
    return orbits


def assert_aut_is_brute_force_group(q):
    """aut(q) and qinn(q) against the brute-force automorphisms, on elements and generators."""
    automorphisms = naive_aut(q)
    orbits = naive_orbits(q)
    quasi_inner = [p for p in automorphisms if all(p[x] in orbits[x] for x in range(q.order))]
    for found, brute in ((aut(q), automorphisms), (qinn(q), quasi_inner)):
        expected = PermGroup(q.order, brute)
        assert expected.order == len(brute)
        assert list(found) == list(expected)
        assert found.generators == expected.generators


@pytest.mark.parametrize("index", range(len(SMALL_CLASSES)))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_aut_of_relabeled_small_class_matches_brute_force(index, data):
    table = SMALL_CLASSES[index]
    sigma = data.draw(st.permutations(range(len(table))))
    assert_aut_is_brute_force_group(Quandle.from_table(relabel(table, sigma)))


@settings(max_examples=25, deadline=None)
@given(table=st.sampled_from(ORDER_SIX_SAMPLE), sigma=st.permutations(range(6)))
def test_aut_of_relabeled_order_six_class_matches_brute_force(table, sigma):
    assert_aut_is_brute_force_group(Quandle.from_table(relabel(table, sigma)))


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_aut_of_odd_dihedral_quandle_is_the_affine_group(n):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    group = aut(build("dihedral", n), cap=n)
    assert group.order == n * len(units)
    affine = {tuple((a * x + b) % n for x in range(n)) for a in units for b in range(n)}
    assert {g.images for g in group} == affine


def test_aut_cap():
    with pytest.raises(CapExceeded):
        aut(build("trivial", 9))
    assert aut(build("trivial", 9), cap=9).order == 362880


def _corrupted_search(monkeypatch, corrupt):
    """Make `_automorphisms`' search return `corrupt(g, pairs, fixed)` for each map g it finds."""
    real = quandlemod._iso_search

    def search_factory(*args):
        search = real(*args)
        return lambda pairs, fixed=(): corrupt(search(pairs, fixed), pairs, fixed)

    monkeypatch.setattr(quandlemod, "_iso_search", search_factory)


def test_aut_refuses_a_found_map_that_is_not_an_automorphism(monkeypatch):
    def swap_two_images(g, pairs, fixed):
        if g is None or g == tuple(range(len(g))):
            return g
        return (g[1], g[0], *g[2:])

    _corrupted_search(monkeypatch, swap_two_images)
    with pytest.raises(AssertionError, match="the search returned a map that is not an automorphism"):
        aut(build("dihedral", 5))


def test_aut_refuses_generators_short_of_the_orbit_product(monkeypatch):
    missed = []

    def miss_first_candidate(g, pairs, fixed):
        [(b, v)] = pairs
        if len(fixed) == 1 and v not in fixed and v != b and not missed:
            missed.append(v)
            return None
        return g

    _corrupted_search(monkeypatch, miss_first_candidate)
    message = "the generators do not generate the product of the orbit lengths"
    with pytest.raises(AssertionError, match=message):
        aut(build("trivial", 4))
    assert missed


@pytest.mark.parametrize("n", range(9, 13))
def test_aut_of_trivial_quandle_is_the_symmetric_group(n):
    # every permutation preserves x * y = x
    group = aut(build("trivial", n), cap=n)
    assert group.order == factorial(n)
    adjacent = [Perm((*range(k), k + 1, k, *range(k + 2, n))) for k in reversed(range(n - 1))]
    assert list(group.generators) == adjacent


def test_aut_caps_the_element_list_not_the_answer():
    group = aut(build("trivial", 16), cap=16)
    assert group.order == factorial(16)
    assert len(group.generators) == 15
    assert Perm((*range(1, 16), 0)) in group
    # iterating walks the chain lazily, in sorted order, and lists nothing
    least = [Perm((*range(13), *p)) for p in ((13, 14, 15), (13, 15, 14), (14, 13, 15))]
    assert list(itertools.islice(group, 3)) == least


def test_aut_preserves_center_setwise():
    q = Quandle.from_table(JOYCE_TABLE)
    for g in aut(q):
        assert g(1) == 1


def test_inn_is_normal_in_aut():
    for q in (build("dihedral", 4), build("dihedral", 5), Quandle.from_table(JOYCE_TABLE)):
        inner = inn(q)
        for g in aut(q):
            for h in inner.generators:
                assert Perm(_compose(_compose(g.images, h.images), _invert(g.images))) in inner


def test_translation_conjugation_identity():
    # phi S_x phi^{-1} = S_{phi(x)} for every automorphism
    q = build("dihedral", 5)
    cols = dict(enumerate(zip(*q.table)))
    for g in aut(q):
        for x in range(5):
            assert _compose(_compose(g.images, cols[x]), _invert(g.images)) == cols[g(x)]


def test_orbit_partition_and_connectivity():
    assert orbit_partition(build("dihedral", 4)) == [[0, 2], [1, 3]]
    assert orbit_partition(build("trivial", 3)) == [[0], [1], [2]]
    assert is_connected(build("dihedral", 5))


def test_isomorphism_finds_witness_on_relabeled_table():
    rng = random.Random(99)
    q = build("dihedral", 5)
    for _ in range(5):
        sigma = list(range(5))
        rng.shuffle(sigma)
        other = Quandle.from_table(relabel(q.table, sigma))
        w = find_isomorphism(q, other)
        assert w is not None
        assert all(other.table[w(x)][w(y)] == w(q.table[x][y]) for x in range(5) for y in range(5))


RELABEL_CORPUS = [q for n in range(1, 6) for q in enumerate_quandles(n)] + [
    build("dihedral", 6), build("trivial", 7), core_quandle(make_group("Z2xZ4")),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RELABEL_CORPUS), st.data())
def test_relabeled_quandle_is_isomorphic_with_equal_group_orders(q, data):
    sigma = data.draw(st.permutations(range(q.order)))
    other = Quandle.from_table(relabel(q.table, sigma))
    w = find_isomorphism(q, other)
    assert w is not None
    assert _first_unpreserved(q.table, other.table, w.images) is None
    orders = [(aut(x).order, inn(x).order, qinn(x).order) for x in (q, other)]
    assert orders[0] == orders[1]


def test_isomorphism_negative_cases():
    assert not is_isomorphic(build("dihedral", 3), build("trivial", 3))
    assert not is_isomorphic(build("dihedral", 4), build("trivial", 4))
    assert find_isomorphism(build("trivial", 3), build("trivial", 4)) is None


def test_isomorphism_invariants_agree():
    qs = enumerate_quandles(4)
    for a in qs:
        for b in qs:
            if a.table != b.table:
                assert not is_isomorphic(a, b)


def test_qinn_trivial_quandle_is_trivial_group():
    group = qinn(build("trivial", 3))
    assert group.order == 1


def test_qinn_of_r4_equals_inn():
    q = build("dihedral", 4)
    assert set(qinn(q)) == set(inn(q))
    assert qinn(q).order == 4


def test_qinn_of_r5_equals_aut():
    q = build("dihedral", 5)
    assert set(qinn(q)) == set(aut(q))
    assert qinn(q).order == 20


def test_inn_subset_qinn_subset_aut():
    for q in (build("dihedral", 4), build("dihedral", 5), Quandle.from_table(JOYCE_TABLE)):
        inner = set(inn(q))
        quasi = set(qinn(q))
        full = set(aut(q))
        assert inner <= quasi <= full


def test_strong_quasi_inner_predicate():
    q = build("dihedral", 5)
    for s in inner_generators(q):
        assert is_quasi_inner_strong(q, s)
    doubling = Perm(tuple((2 * x) % 5 for x in range(5)))
    assert doubling in aut(q)
    assert is_quasi_inner_strong(q, doubling)
    swap = Perm((1, 0))
    assert not is_quasi_inner_strong(build("trivial", 2), swap)


def test_involutory_checks():
    assert is_involutory(build("dihedral", 7))
    assert is_involutory(build("trivial", 5))
    # a connected quandle that is not involutory: x * y = 2(y - x) + x on Z_5
    alex = Quandle.from_table([[(3 * x + 3 * y) % 5 for y in range(5)] for x in range(5)])
    assert not is_involutory(alex)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_unpreserved_is_the_first_failing_pair(data):
    n = data.draw(st.integers(2, 5))
    source = build(data.draw(st.sampled_from(["trivial", "dihedral"])), n).table
    target = build(data.draw(st.sampled_from(["trivial", "dihedral"])), n).table
    images = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    failing = [
        (x, y) for x in range(n) for y in range(n)
        if images[source[x][y]] != target[images[x]][images[y]]
    ]
    assert _first_unpreserved(source, target, images) == (failing[0] if failing else None)


def test_enumeration_counts_small_orders():
    assert [len(enumerate_quandles(n)) for n in range(1, 6)] == [1, 1, 3, 7, 22]


def test_enumeration_count_order_six():
    assert len(enumerate_quandles(6)) == 73


@pytest.fixture(scope="module")
def order_seven():
    return enumerate_quandles(7, cap=7)


def test_enumeration_matches_published_counts_through_order_seven(order_seven):
    """OEIS A181769 (all quandles) and A181771 (connected ones); Vendramin (2012)."""
    classes = [enumerate_quandles(n) for n in range(1, 7)] + [order_seven]
    assert [len(qs) for qs in classes] == [1, 1, 3, 7, 22, 73, 298]
    assert [sum(map(is_connected, qs)) for qs in classes] == [1, 0, 1, 1, 3, 2, 5]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_quandles(7)


def test_enumeration_representatives_are_canonical_and_distinct():
    qs = enumerate_quandles(4)
    tables = [q.table for q in qs]
    assert tables == sorted(tables)
    for q in qs:
        # the representative is its own lexicographic minimum over relabelings
        best = min(
            tuple(tuple(r) for r in relabel(q.table, sigma))
            for sigma in itertools.permutations(range(4))
        )
        assert q.table == best


def naive_tables(n):
    """Every quandle table on 0..n-1, by filtering every choice of columns."""
    fixing = [
        [p for p in itertools.permutations(range(n)) if p[y] == y] for y in range(n)
    ]
    valid = []
    for cols in itertools.product(*fixing):
        table = [[cols[y][x] for y in range(n)] for x in range(n)]
        ok = True
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                for z in range(n):
                    if table[xy][z] != table[table[x][z]][table[y][z]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            valid.append(tuple(tuple(r) for r in table))
    return valid


def naive_enumerate(n):
    """Independent path: filter every column choice, then split by brute-force iso."""
    valid = naive_tables(n)
    classes = []
    for t in valid:
        for cls in classes:
            rep = cls[0]
            if any(
                tuple(tuple(r) for r in relabel(list(map(list, t)), sigma)) == rep
                for sigma in itertools.permutations(range(n))
            ):
                cls.append(t)
                break
        else:
            classes.append([t])
    return classes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_cross_checked_by_naive_filter(n):
    classes = naive_enumerate(n)
    enumerated = enumerate_quandles(n)
    assert len(classes) == len(enumerated)
    naive_canon = sorted(
        min(
            tuple(tuple(r) for r in relabel(list(map(list, cls[0])), sigma))
            for sigma in itertools.permutations(range(n))
        )
        for cls in classes
    )
    assert naive_canon == [q.table for q in enumerated]


def takasaki_by_hand(components):
    """x * y = 2y - x on the coordinate tuples of a cyclic sum, in tuple-lexicographic order."""
    elems = list(itertools.product(*[range(c) for c in components]))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[tuple((2 * b - a) % c for a, b, c in zip(x, y, components))] for y in elems]
        for x in elems
    ]
    return table, [",".join(map(str, e)) for e in elems]


def _suite_cyclic_sums():
    """The cyclic sums suites 5.2-5.5 build, past their default order bounds, and two more."""
    odd = [c for _, c in _odd_components({"max_order": 27})]
    even = [(m,) for _, m in _dihedral_orders(6, "Z{}")({"max_order": 12})]
    powers = [(4,) * k for _, k in _elementary_powers({"max_order": 3})]
    return list(dict.fromkeys(odd + list(_REFLECTION_SPECS) + even + powers + [(1, 4), (2, 2, 4)]))


@pytest.mark.parametrize("components", _suite_cyclic_sums(), ids=_cyclic_sum_name)
def test_takasaki_is_the_core_of_the_cyclic_sum(components):
    table, labels = takasaki_by_hand(components)
    q = core_quandle(make_group(_cyclic_sum_name(components)))
    assert q.table == tuple(map(tuple, table))
    assert q.labels == tuple(labels)


def test_takasaki_matches_dihedral_on_single_component():
    for n in (3, 4, 5, 6):
        assert core_quandle(make_group(f"Z{n}")).table == build("dihedral", n).table


def test_takasaki_is_involutory():
    assert is_involutory(core_quandle(make_group("Z2xZ4")))
    assert is_involutory(core_quandle(make_group("Z3xZ3")))


def test_coxeter_report_single_even_components():
    r4 = _reflection_case((4,), DEFAULT_GROUP_CAP)
    assert r4["distinct_translations"] == 2
    assert r4["relation_exponent"] == 2
    assert r4["inn_order"] == 4
    assert r4["coxeter_order"] == 4
    assert r4["orders_match"] and not r4["mismatch_flag"]
    assert r4["relations_pass"]

    r6 = _reflection_case((6,), DEFAULT_GROUP_CAP)
    assert r6["distinct_translations"] == 3
    assert r6["relation_exponent"] == 3
    assert r6["inn_order"] == 6
    assert r6["coxeter_order"] is None
    assert r6["mismatch_flag"]
    assert r6["relations_pass"]

    r8 = _reflection_case((8,), DEFAULT_GROUP_CAP)
    assert r8["distinct_translations"] == 4
    assert r8["inn_order"] == 8
    assert r8["coxeter_order"] is None
    assert r8["relations_pass"]


def test_coxeter_report_two_components():
    r24 = _reflection_case((2, 4), DEFAULT_GROUP_CAP)
    assert r24["distinct_translations"] == 2
    assert r24["relation_exponent"] == 2
    assert r24["inn_order"] == 4
    assert r24["coxeter_order"] == 4
    assert r24["orders_match"]

    r34 = _reflection_case((3, 4), DEFAULT_GROUP_CAP)
    assert r34["distinct_translations"] == 6
    assert r34["translation_count_matches"]
    assert r34["relation_exponent"] == 6
    assert r34["inn_order"] == 12
    assert r34["coxeter_order"] is None
    assert r34["relations_pass"]


def test_coxeter_report_doubling_rule():
    for spec in ((4,), (6,), (8,), (2, 4), (3, 4), (2, 2, 4)):
        assert _reflection_case(spec, DEFAULT_GROUP_CAP)["doubling_rule_matches"]


def test_coxeter_report_hypothesis_checks():
    with pytest.raises(CapExceeded):
        _reflection_case((4,), 3)


def test_inn_of_the_transposition_quandle_of_s10_is_uncapped():
    # the 45 transpositions of S10 under conjugation: (a b) * (c d) swaps c and d in {a, b}
    points = list(itertools.combinations(range(10), 2))
    index = {p: i for i, p in enumerate(points)}

    def swap(x, c, d):
        return d if x == c else c if x == d else x

    table = [
        [index[tuple(sorted(swap(x, c, d) for x in p))] for c, d in points] for p in points
    ]
    q = Quandle.from_table(table)
    assert len(inner_generators(q)) == 45
    assert inn(q).order == factorial(10)


def test_inn_three_transitivity_examples():
    # right translations of the 3-element dihedral quandle generate S_3
    assert inn(build("dihedral", 3)).is_k_transitive(3)
    assert not inn(build("dihedral", 4)).is_k_transitive(2)


def reference_canonical(table):
    """The lexicographic minimum over all n! relabelings, with no early exit."""
    n = len(table)
    return min(
        tuple(tuple(r) for r in relabel(table, sigma))
        for sigma in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_labelings_keep_every_class(n):
    pruned = _labeled_quandle_tables(n)
    brute = naive_tables(n)
    assert set(pruned) <= set(brute)
    assert {_canonical_table(t, n) for t in pruned} == {reference_canonical(t) for t in brute}
    if n == 4:
        assert len(pruned) < len(brute)


def test_enumeration_refuses_two_classes_with_one_canonical_table(monkeypatch):
    """The check survives `python -O`, which strips a bare assert."""
    monkeypatch.setattr(quandlemod, "_canonical_table", lambda t, n: ((0,),))
    with pytest.raises(AssertionError, match="two classes share a canonical table"):
        enumerate_quandles(3)


ORDER_FIVE = [q.table for q in enumerate_quandles(5)]


@pytest.mark.parametrize("index", range(len(ORDER_FIVE)))
@settings(max_examples=8, deadline=None)
@given(sigma=st.permutations(range(5)))
def test_canonical_table_of_relabeled_order_five_class(index, sigma):
    table = relabel(ORDER_FIVE[index], sigma)
    assert _canonical_table(table, 5) == reference_canonical(table) == ORDER_FIVE[index]


@settings(max_examples=25, deadline=None)
@given(table=st.sampled_from(ORDER_SIX_SAMPLE), sigma=st.permutations(range(6)))
def test_canonical_table_of_relabeled_order_six_class(table, sigma):
    relabeled = relabel(table, sigma)
    assert _canonical_table(relabeled, 6) == reference_canonical(relabeled) == table


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_canonical_table_of_relabeled_order_seven_class(order_seven, data):
    table = data.draw(st.sampled_from(order_seven)).table
    relabeled = relabel(table, data.draw(st.permutations(range(7))))
    assert _canonical_table(relabeled, 7) == reference_canonical(relabeled) == table


@pytest.mark.parametrize("n", range(1, 7))
def test_first_columns_are_one_normal_form_per_cycle_type(n):
    columns = {tuple(row[0] for row in t) for t in _labeled_quandle_tables(n)}
    types = [_cycle_type(column) for column in columns]
    assert len(types) == len(set(types))
