"""Tests for finite group tables, automorphisms, and group-based quandles."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.errors import (
    CapExceeded,
    NotAbelian,
    NotAutomorphism,
    ParseError,
    UnsupportedSpec,
)
from quandlekit.fingroup import (
    FiniteGroup,
    alexander_quandle,
    automorphism_group,
    center,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    is_abelian,
    make_group,
    quaternion_group,
    symmetric_group_table,
)
from quandlekit.construct import inner_assignment
from quandlekit.quandle import _iso_images, build
from quandlekit.quandle import is_isomorphic as quandle_isomorphic
from quandlekit.theorems import GROUP_CATALOG, LARGER_GROUP_CATALOG


def group_iso(a, b):
    """The images of a table isomorphism between groups of equal order, or None."""
    return _iso_images(a.table, b.table, a.order)


def element_order(g, x):
    """The least k >= 1 with x^k the identity, by repeated table products."""
    k, acc = 1, x
    while acc != g.identity:
        acc = g.table[acc][x]
        k += 1
    return k


def exponent(g):
    return math.lcm(*(element_order(g, x) for x in range(g.order)))


def naive_automorphisms(g):
    """Filter every bijection for the homomorphism property."""
    n, t = g.order, g.table
    out = []
    for images in itertools.permutations(range(n)):
        if all(
            images[t[x][y]] == t[images[x]][images[y]]
            for x in range(n)
            for y in range(n)
        ):
            out.append(images)
    return set(out)


def test_table_validation_rejects_non_groups():
    with pytest.raises(ValueError, match=r"^row 1 is not a rearrangement$"):
        FiniteGroup([[0, 1], [1, 1]])  # not Latin
    # Latin square without associativity, whose least failing z is not 0
    with pytest.raises(ValueError, match=r"^associativity fails at \(1, 1, 2\)$"):
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def reference_group_rejection(table):
    """(message, identity, inverses): the first failure a direct reading of the axioms meets.

    The table must be square; then each row, then each column, must be a
    rearrangement; the identity is an e with e*x = x*e = x for every x;
    then (x*y)*z = x*(y*z) over all triples, z innermost.  A group gives
    message None, its identity and the two-sided inverse of each element.
    """
    n = len(table)
    if any(len(row) != n for row in table):
        return "table is not square", None, None
    for x in range(n):
        if sorted(table[x]) != list(range(n)):
            return f"row {x} is not a rearrangement", None, None
    for y in range(n):
        if sorted(table[x][y] for x in range(n)) != list(range(n)):
            return f"column {y} is not a rearrangement", None, None
    identities = [
        e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))
    ]
    if not identities:
        return "no identity element", None, None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return f"associativity fails at ({x}, {y}, {z})", None, None
    e = identities[0]
    inverses = tuple(
        next(y for y in range(n) if table[x][y] == e == table[y][x]) for x in range(n)
    )
    return None, e, inverses


PERTURBATIONS = (
    "swap in a row", "swap in a column", "change an entry", "swap two columns",
    "swap two values", "swap the identity row", "flip an intercalate", "move the identity",
)


@functools.cache
def intercalates(spec):
    """Corners (x, a, b, y) of the 2 x 2 Latin subsquares p q / q p of a group table, off its identity."""
    g = make_group(spec)
    t, n = g.table, g.order
    return [
        (x, a, b, y)
        for x in range(n)
        for a in range(x + 1, n)
        for b in range(n)
        for y in [t[a].index(t[x][b])]
        if b < y and t[x][y] == t[a][b] and g.identity not in (x, a, b, y)
    ]


@st.composite
def perturbed_group_tables(draw):
    """A catalog group table with one or two changes, and one time in ten a short row.

    Swapping two entries of a row keeps the rows rearrangements and breaks
    two columns.  Swapping two whole columns or values, or the identity row
    with another, keeps a Latin square without an identity, although after
    a row swap one row is still 0..n-1.  Flipping a 2 x 2 Latin subsquare
    p q / q p outside the identity's row and column keeps the identity and
    may break associativity.  Moving the identity renames it and another
    element everywhere, which keeps a group.
    """
    spec = draw(st.sampled_from(GROUP_CATALOG + ("D5", "Z3xZ3", "S4")))
    g = make_group(spec)
    table = [list(row) for row in g.table]
    n, e = len(table), g.identity
    points = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(PERTURBATIONS))
        a, b, x = draw(points), draw(points), draw(points)
        if kind == "move the identity":
            a = e
        swap = list(range(n))
        swap[a], swap[b] = b, a
        if kind == "swap in a row":
            table[x][a], table[x][b] = table[x][b], table[x][a]
        elif kind == "swap in a column":
            table[a][x], table[b][x] = table[b][x], table[a][x]
        elif kind == "change an entry":
            table[x][a] = b
        elif kind == "swap two columns":
            table = [[row[v] for v in swap] for row in table]
        elif kind == "swap two values":
            table = [[swap[v] for v in row] for row in table]
        elif kind == "swap the identity row":
            table[e], table[b] = table[b], table[e]
        elif kind == "flip an intercalate":
            if intercalates(spec):
                x, a, b, y = draw(st.sampled_from(intercalates(spec)))
                if table[x][b] == table[a][y] and table[x][y] == table[a][b]:
                    table[x][b], table[x][y] = table[x][y], table[x][b]
                    table[a][b], table[a][y] = table[a][y], table[a][b]
        else:
            table = [[swap[table[swap[x]][swap[y]]] for y in range(n)] for x in range(n)]
    if draw(st.integers(0, 9)) == 0:
        table[draw(points)].pop()
    return table


@settings(max_examples=300, deadline=None)
@given(table=perturbed_group_tables())
def test_table_validation_matches_the_triple_loop_reference(table):
    message, identity, inverses = reference_group_rejection(table)
    if message is None:
        g = FiniteGroup(table)
        assert (g.identity, g.inverses) == (identity, inverses)
        return
    with pytest.raises(ValueError) as e:
        FiniteGroup(table)
    assert type(e.value) is ValueError
    assert str(e.value) == message


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert element_order(g, 1) == 6
    assert element_order(g, 2) == 3
    assert exponent(g) == 6
    assert is_abelian(g)
    assert center(g) == list(range(6))


def test_symmetric_group_table():
    s3 = symmetric_group_table(3)
    assert s3.order == 6
    assert not is_abelian(s3)
    assert center(s3) == [0]
    assert sorted(element_order(s3, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


def test_quaternion_group():
    q8 = quaternion_group()
    assert q8.order == 8
    assert not is_abelian(q8)
    assert len(center(q8)) == 2
    # exactly one involution
    assert sum(1 for x in range(8) if element_order(q8, x) == 2) == 1
    assert exponent(q8) == 4


def test_quaternion_labels_follow_hamiltons_rule():
    q8 = quaternion_group()
    at = {name: x for x, name in enumerate(q8.labels)}

    def times(a, b):
        return q8.labels[q8.table[at[a]][at[b]]]

    assert (times("i", "j"), times("j", "k"), times("k", "i")) == ("k", "i", "j")
    assert times("i", "i") == times("j", "j") == times("k", "k") == "-1"
    assert times("j", "i") == "-k"


def test_dihedral_group():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert not is_abelian(d4)
    assert len(center(d4)) == 2
    assert sum(1 for x in range(8) if element_order(d4, x) == 2) == 5
    assert d4.labels[0] == "r0"


def test_direct_product_group():
    g = direct_product_group(cyclic_group(2), cyclic_group(3))
    assert group_iso(g, cyclic_group(6)) is not None
    v4 = direct_product_group(cyclic_group(2), cyclic_group(2))
    assert exponent(v4) == 2
    assert group_iso(v4, cyclic_group(4)) is None


def test_make_group_parsing():
    assert make_group("Z5").order == 5
    assert make_group("Z2xZ2xZ2").order == 8
    assert make_group("S3").order == 6
    assert make_group("D4").order == 8
    assert make_group("Q8").order == 8
    assert group_iso(make_group("Z2xZ3"), make_group("Z6")) is not None
    with pytest.raises(ParseError):
        make_group("Z")
    with pytest.raises(ParseError):
        make_group("F4")
    with pytest.raises(UnsupportedSpec):
        make_group("S6")
    with pytest.raises(CapExceeded):
        make_group("Z1000", cap=200)


def test_dihedral_atoms_of_any_order():
    assert make_group("D7").order == 14
    assert make_group("D1").order == 2
    with pytest.raises(UnsupportedSpec):
        make_group("D0")


def test_dihedral_atoms_are_capped_before_building(monkeypatch):
    import quandlekit.fingroup as fingroup

    def refuse(n):
        raise AssertionError("a dihedral group was built")

    monkeypatch.setattr(fingroup, "dihedral_group", refuse)
    with pytest.raises(CapExceeded, match=r"^D101: group order 202 exceeds cap 200$"):
        make_group("D101")
    with pytest.raises(CapExceeded):
        make_group("D6", cap=11)


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_automorphism_orders_are_n_phi_n(n):
    # Aut(D_n) is the affine group of Z_n, of order n * phi(n), for n >= 3
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert automorphism_group(make_group(f"D{n}")).order == n * phi


def test_automorphism_group_orders():
    assert automorphism_group(cyclic_group(5)).order == 4
    assert automorphism_group(cyclic_group(6)).order == 2
    assert automorphism_group(make_group("Z2xZ2")).order == 6
    assert automorphism_group(make_group("S3")).order == 6
    assert automorphism_group(make_group("Q8")).order == 24
    assert automorphism_group(make_group("D4")).order == 8


def test_automorphism_group_of_elementary_abelian_eight():
    assert automorphism_group(make_group("Z2xZ2xZ2")).order == 168


def test_automorphism_group_matches_naive_filter():
    for g in (cyclic_group(4), cyclic_group(5), make_group("Z2xZ2"), symmetric_group_table(3)):
        assert {p.images for p in automorphism_group(g)} == naive_automorphisms(g)


def test_find_isomorphism_returns_checked_witness():
    a = make_group("Z2xZ3")
    b = cyclic_group(6)
    f = group_iso(a, b)
    assert f is not None
    assert all(
        f[a.table[x][y]] == b.table[f[x]][f[y]] for x in range(6) for y in range(6)
    )
    assert group_iso(make_group("D4"), make_group("Q8")) is None


def test_search_separates_groups_with_equal_element_orders():
    a, b = make_group("Z4xZ4"), make_group("Z2xQ8")

    def orders(g):
        return sorted(element_order(g, x) for x in range(g.order))

    assert orders(a) == orders(b)
    assert group_iso(a, b) is None


def relabel_group(g, sigma):
    """The table of g with each element x renamed sigma[x]."""
    n = g.order
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[g.table[x][y]]
    return FiniteGroup(table)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(GROUP_CATALOG + LARGER_GROUP_CATALOG), data=st.data())
def test_relabeled_catalog_group_is_isomorphic_to_it(spec, data):
    g = make_group(spec)
    n = g.order
    h = relabel_group(g, data.draw(st.permutations(range(n))))
    f = group_iso(g, h)
    assert f is not None
    assert sorted(f) == list(range(n))
    assert all(f[g.table[x][y]] == h.table[f[x]][f[y]] for x in range(n) for y in range(n))
    assert automorphism_group(h).order == automorphism_group(g).order


def table_power(t, e, y, k):
    """y^k by square-and-multiply on the table t with identity e; k < 0 uses the inverse of y."""
    if k < 0:
        y, k = next(z for z in range(len(t)) if t[y][z] == e), -k
    acc = e
    while k:
        if k & 1:
            acc = t[acc][y]
        y, k = t[y][y], k >> 1
    return acc


@pytest.mark.parametrize("spec", GROUP_CATALOG + LARGER_GROUP_CATALOG)
def test_group_quandles_match_table_products(spec):
    """Conj^n, Core, the inner assignment and Alexander quandles, entry by entry.

    The oracle reads only the table and the identity, and finds inverses by
    searching rows, so it shares no code with the builders.
    """
    g = make_group(spec)
    t, e, n = g.table, g.identity, g.order
    inv = [next(z for z in range(n) if t[x][z] == e) for x in range(n)]
    for k in [*range(-13, 14), 10**11, -(10**11)]:
        powers = [table_power(t, e, y, k) for y in range(n)]
        conj = conj_quandle(g, k).table
        assert all(
            conj[x][y] == t[t[inv[powers[y]]][x]][powers[y]] for x in range(n) for y in range(n)
        ), k
    core = core_quandle(g).table
    assert all(core[x][y] == t[t[y][inv[x]]][y] for x in range(n) for y in range(n))
    assignment = inner_assignment(g)
    assert all(assignment[a][h] == t[t[a][h]][inv[a]] for a in range(n) for h in range(n))
    if is_abelian(g):
        for phi in automorphism_group(g).generators:
            alex = alexander_quandle(g, phi).table
            assert all(
                alex[x][y] == t[phi(t[x][inv[y]])][y] for x in range(n) for y in range(n)
            ), phi


def test_conj_quandle_of_abelian_group_is_trivial():
    q = conj_quandle(cyclic_group(5))
    assert q.table == build("trivial", 5).table


def test_conj_quandle_orbits_are_conjugacy_classes():
    q = conj_quandle(symmetric_group_table(3))
    from quandlekit.quandle import orbit_partition

    assert sorted(len(b) for b in orbit_partition(q)) == [1, 2, 3]


def test_conj_quandle_zero_power_is_trivial():
    q = conj_quandle(make_group("Q8"), 0)
    assert q.table == build("trivial", 8).table


def test_conj_quandle_power_two_on_q8_is_trivial():
    # squares of Q8 elements are central, so conjugation by them is trivial
    q = conj_quandle(make_group("Q8"), 2)
    assert q.table == build("trivial", 8).table


def test_conj_quandle_center_matches_group_center():
    from quandlekit.quandle import center as qcenter

    g = make_group("D4")
    assert qcenter(conj_quandle(g)) == center(g)


def test_core_quandle_is_involutory():
    from quandlekit.quandle import is_involutory

    for name in ("Z5", "S3", "Q8"):
        assert is_involutory(core_quandle(make_group(name)))


def test_core_of_cyclic_group_is_dihedral_quandle():
    for n in (3, 4, 5, 6):
        assert core_quandle(cyclic_group(n)).table == build("dihedral", n).table


def test_alexander_quandle_validation():
    g = cyclic_group(5)
    with pytest.raises(NotAbelian):
        alexander_quandle(symmetric_group_table(3), tuple(range(6)))
    with pytest.raises(NotAutomorphism):
        alexander_quandle(g, (0, 2, 1, 3, 4))


@pytest.mark.parametrize("images", [[0.0, 2.0, 4.0, 1.0, 3.0], [0, 2, 4, 1, True]])
def test_alexander_quandle_refuses_images_that_are_not_ints(images):
    with pytest.raises(ValueError, match="images must be ints"):
        alexander_quandle(make_group("Z5"), images)


def test_automorphism_checks_name_the_map_and_the_witness():
    g = cyclic_group(5)
    with pytest.raises(NotAutomorphism, match=r"^phi has degree 4, not 5$"):
        alexander_quandle(g, (0, 1, 2, 3))
    with pytest.raises(NotAutomorphism, match=r"^phi breaks the product at \(0, 0\)$"):
        alexander_quandle(g, (1, 0, 2, 3, 4))


def test_alexander_with_identity_map_is_trivial():
    g = cyclic_group(4)
    q = alexander_quandle(g, tuple(range(4)))
    assert q.table == build("trivial", 4).table


def test_alexander_with_inversion_is_core():
    g = make_group("Z2xZ4")
    q = alexander_quandle(g, g.inverses)
    assert q.table == core_quandle(g).table


def test_alexander_doubling_on_z5():
    g = cyclic_group(5)
    q = alexander_quandle(g, tuple((2 * x) % 5 for x in range(5)))
    from quandlekit.quandle import is_connected

    assert is_connected(q)
    assert not quandle_isomorphic(q, build("dihedral", 5))


def test_group_quandles_carry_group_labels():
    q = conj_quandle(symmetric_group_table(3))
    assert q.labels is not None
    assert len(set(q.labels)) == 6
