"""Tests for presentations, Smith normal form and coset enumeration."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import envgroup, theorems
from quandlekit.envgroup import (
    Presentation,
    abelianization,
    commutator_generators,
    free_reduce,
    presentation_of,
    smith_normal_form,
    todd_coxeter,
    word_from_json,
)
from quandlekit.errors import CosetLimitExceeded
from quandlekit.fingroup import conj_quandle, symmetric_group_table
from quandlekit.perm import Perm, PermGroup
from quandlekit.quandle import build, enumerate_quandles, orbit_partition
from integer_h2 import condition_matrix, quotient_matrix, smith_form_of

R3 = build("dihedral", 3)
SQUARE_OF_GEN0 = (((0, 1), (0, 1)),)

def random_word(rng, ngens, length):
    return tuple((rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length))


def test_free_reduce_examples():
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((1, 1), (0, 1), (0, -1), (1, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (1, 1))) == ((0, 1), (1, 1), (1, 1))


def test_free_reduce_is_idempotent_and_shrinking():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng, 3, rng.randrange(12))
        r = free_reduce(w)
        assert len(r) <= len(w)
        assert free_reduce(r) == r


def test_word_from_json():
    w = ((0, 1), (2, -1), (1, 1))
    assert word_from_json([1, -3, 2]) == w
    with pytest.raises(ValueError):
        word_from_json([0])


def test_presentation_of_counts_and_shape():
    p = presentation_of(R3)
    assert p.ngens == 3
    assert len(p.relators) == 6
    assert all(len(w) == 4 for w in p.relators)


def test_presentation_of_trivial_two_is_a_commutator():
    p = presentation_of(build("trivial", 2))
    # a_i^{-1} a_j a_i a_j^{-1} for both ordered pairs
    assert ((0, -1), (1, 1), (0, 1), (1, -1)) in p.relators
    assert ((1, -1), (0, 1), (1, 1), (0, -1)) in p.relators


def test_commutator_generators_trivial_quandle_all_cancel():
    assert commutator_generators(build("trivial", 4)) == []


def test_commutator_generators_r3():
    words = commutator_generators(R3)
    assert 0 < len(words) <= 9
    assert all(w == free_reduce(w) and w for w in words)
    assert len(set(words)) == len(words)


def test_commutator_generator_count_bound_on_enumerated_quandles():
    for n in range(1, 6):
        for q in enumerate_quandles(n):
            assert len(commutator_generators(q)) <= n * n


def test_smith_normal_form_zero_matrix():
    s = smith_form_of([[0, 0], [0, 0]])
    assert s.invariant_factors == ()
    assert s.free_rank == 2
    assert dense_d(s) == [[0, 0], [0, 0]]


def test_smith_normal_form_diag_2_3():
    s = smith_form_of([[2, 0], [0, 3]])
    assert s.invariant_factors == (1, 6)
    assert s.free_rank == 0


def test_smith_normal_form_rectangular():
    s = smith_form_of([[1, 2, 3]])
    assert s.invariant_factors == (1,)
    assert s.free_rank == 2
    s2 = smith_form_of([[2, 4], [6, 8], [10, 12]])
    assert s2.invariant_factors == (2, 4)


def test_smith_normal_form_empty_edge_cases():
    s = smith_normal_form([], 0)
    assert s.invariant_factors == ()
    assert s.free_rank == 0
    s = smith_normal_form([], 3)
    assert s.invariant_factors == ()
    assert s.free_rank == 3
    assert s.v_inv == ({0: 1}, {1: 1}, {2: 1})
    for row in ({0: 1, 3: 2}, {-1: 1}, {1: 0}):
        with pytest.raises(ValueError):
            smith_normal_form([{0: 1}, row], 3)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_d(s) -> list:
    """D of a SmithForm: its invariant factors down the diagonal of an m x n zero matrix."""
    d = [[0] * len(s.v) for _ in s.u]
    for i, x in enumerate(s.invariant_factors):
        d[i][i] = x
    return d


def dense_transforms(s) -> tuple:
    """U, V and V^-1 of a SmithForm as dense lists of rows."""
    def dense(vectors, size):
        out = [[0] * size for _ in vectors]
        for row, vec in zip(out, vectors):
            for k, x in vec.items():
                row[k] = x
        return out

    n = len(s.v)
    return dense(s.u, len(s.u)), [list(row) for row in zip(*dense(s.v, n))], dense(s.v_inv, n)


def test_smith_normal_form_certificate_on_random_matrices():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        s = smith_form_of(a)
        u, v, _ = dense_transforms(s)
        assert matmul(matmul(u, a), v) == dense_d(s)
        factors = s.invariant_factors
        assert all(x > 0 for x in factors)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))


def integer_matrices(rows, cols):
    """Integer matrices with a row count drawn from rows and a column count from cols."""
    return st.tuples(rows, cols).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(-9, 9), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        )
    )


SMALL_MATRICES = integer_matrices(st.integers(1, 6), st.integers(1, 6))
TALL_MATRICES = integer_matrices(st.integers(8, 24), st.integers(1, 3))


def sympy_invariant_factors(mat) -> tuple:
    """Nonzero invariant factors from sympy's Smith normal form over ZZ."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
    return tuple(abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i] != 0)


def assert_agrees_with_sympy(mat):
    s = smith_form_of(mat)
    expected = sympy_invariant_factors(mat)
    assert s.invariant_factors == expected
    assert s.free_rank == len(mat[0]) - len(expected)


@settings(max_examples=150, deadline=None)
@given(st.one_of(SMALL_MATRICES, TALL_MATRICES))
def test_smith_normal_form_agrees_with_sympy(mat):
    assert_agrees_with_sympy(mat)


def test_smith_normal_form_agrees_with_sympy_on_h2_relations_of_r5():
    """The integer condition matrix of R5 and its quotient matrices over Z2, Z3 and Z5."""
    q = build("dihedral", 5)
    mats = [condition_matrix(q)]
    cond = smith_form_of(mats[0])
    mats += [quotient_matrix(q, m, cond) for m in (2, 3, 5)]
    for mat in mats:
        assert_agrees_with_sympy(mat)


def fraction_inverse(mat) -> list:
    """Exact inverse of an invertible integer matrix, by Gauss-Jordan over Fractions."""
    n = len(mat)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [v / pv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


@settings(max_examples=100, deadline=None)
@given(st.one_of(SMALL_MATRICES, TALL_MATRICES))
def test_v_inv_is_the_inverse_of_v(mat):
    _, v, v_inv = dense_transforms(smith_form_of(mat))
    n = len(mat[0])
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert matmul(v, v_inv) == identity
    assert v_inv == fraction_inverse(v)


# Nonsingular, so D has no zero row or column and dropping any one
# elementary operation from U or V changes U*A*V.
NONSINGULAR = [[2, 4, 4], [-6, 6, 12], [10, -4, -15]]


def transform_updates(monkeypatch, mat) -> int:
    """How many sparse updates of U, U^-1, V and V^-1 reducing mat makes."""
    real = envgroup._axpy
    calls = []
    monkeypatch.setattr(envgroup, "_axpy", lambda dst, src, c: calls.append(c) or real(dst, src, c))
    assert smith_form_of(mat).invariant_factors == (1, 2, 54)
    monkeypatch.setattr(envgroup, "_axpy", real)
    return len(calls)


def test_a_corrupted_transform_update_fails_the_certificate(monkeypatch):
    """Each update of U, U^-1, V or V^-1, made off by one in turn, is caught."""
    real = envgroup._axpy
    count = transform_updates(monkeypatch, NONSINGULAR)
    assert count > 20
    for target in range(count):
        seen = []

        def off_by_one(dst, src, c):
            real(dst, src, c)
            if len(seen) == target:
                k = next(iter(src))
                dst[k] = dst.get(k, 0) + 1
            seen.append(c)

        monkeypatch.setattr(envgroup, "_axpy", off_by_one)
        with pytest.raises(AssertionError, match="unimodularity"):
            smith_form_of(NONSINGULAR)


def test_a_dropped_elementary_operation_fails_the_product_check(monkeypatch):
    """Dropping one operation from both U and U^-1 (or V and V^-1) keeps them
    inverse to each other, so only U*A*V = D can catch it."""
    real = envgroup._axpy
    count = transform_updates(monkeypatch, NONSINGULAR)
    for target in range(0, count, 2):
        seen = []

        def drop_pair(dst, src, c):
            if len(seen) not in (target, target + 1):
                real(dst, src, c)
            seen.append(c)

        monkeypatch.setattr(envgroup, "_axpy", drop_pair)
        with pytest.raises(AssertionError, match="U\\*A\\*V"):
            smith_form_of(NONSINGULAR)


def test_inverse_pair_check_rejects_one_changed_entry():
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}, {2: -1}]
    cols = [{0: 1, 1: -1}, {0: -1, 1: 2}, {2: -1}]
    assert envgroup._is_inverse_pair(rows, cols)
    for i in range(3):
        for j in range(3):
            changed = [dict(col) for col in cols]
            changed[j][i] = changed[j].get(i, 0) + 1
            assert not envgroup._is_inverse_pair(rows, changed)
    assert not envgroup._is_inverse_pair([{0: 1}], [{0: 1}, {1: 1}])


def test_abelianization_trivial_quandles_are_free():
    for n in (1, 2, 3, 5):
        assert abelianization(presentation_of(build("trivial", n))) == (n, ())


def test_abelianization_of_r3_is_z():
    assert abelianization(presentation_of(R3)) == (1, ())


def test_abelianization_of_conj_s3_is_z_cubed():
    q = conj_quandle(symmetric_group_table(3))
    assert len(orbit_partition(q)) == 3
    assert abelianization(presentation_of(q)) == (3, ())


def exponent_sum_matrix(p) -> list:
    """One row per relator, zero and repeated rows kept."""
    rows = [[0] * p.ngens for _ in p.relators]
    for row, w in zip(rows, p.relators):
        for g, s in w:
            row[g] += s
    return rows


def assert_abelianization_agrees_with_sympy(p):
    """The cokernel of the full exponent-sum matrix, by sympy's Smith normal form."""
    mat = exponent_sum_matrix(p)
    factors = sympy_invariant_factors(mat) if mat else ()
    expected = (p.ngens - len(factors), tuple(d for d in factors if d > 1))
    assert abelianization(p) == expected


@st.composite
def presentations_with_repeats(draw):
    """Relators drawn with repeats from a few words, their inverses and words of zero exponent sum."""
    ngens = draw(st.integers(1, 4))
    letters = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, max_size=6).map(tuple), min_size=1, max_size=4))
    inverses = [tuple((g, -s) for g, s in reversed(w)) for w in words]
    zero_sums = [w + tuple((g, -s) for g, s in w) for w in words]
    relators = draw(st.lists(st.sampled_from(words + inverses + zero_sums), min_size=1, max_size=12))
    return Presentation(ngens, tuple(relators))


@settings(max_examples=150, deadline=None)
@given(presentations_with_repeats())
def test_abelianization_agrees_with_sympy_on_repeated_and_zero_relators(p):
    assert_abelianization_agrees_with_sympy(p)


def difference_word(a, b, k=1, conjugator=()):
    """x a^-k b^k x^-1, whose exponent-sum row is k(e_b - e_a)."""
    inverse = tuple((g, -s) for g, s in reversed(conjugator))
    return tuple(conjugator) + ((a, -1),) * k + ((b, 1),) * k + inverse


@st.composite
def presentations_with_differences(draw):
    """Relators mixing random words with difference words: edges a^-1 b
    (a == b and repeats included), chains, cycles, conjugated edges, and
    multiples a^-k b^k with k > 1, whose rows must not be contracted."""
    ngens = draw(st.integers(1, 6))
    gen = st.integers(0, ngens - 1)
    letters = st.tuples(gen, st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, max_size=6).map(tuple), max_size=4))
    edges = draw(st.lists(st.tuples(gen, gen), max_size=8))
    chain = draw(st.lists(gen, max_size=5))
    edges += list(zip(chain, chain[1:]))
    if draw(st.booleans()) and chain:
        edges.append((chain[-1], chain[0]))
    edges += draw(st.lists(st.tuples(gen, gen), max_size=3).map(lambda es: es + es))
    differences = [difference_word(a, b) for a, b in edges]
    differences += [difference_word(a, b, conjugator=w) for (a, b), w in
                    draw(st.lists(st.tuples(st.tuples(gen, gen), st.lists(letters, max_size=2)),
                                  max_size=3))]
    differences += [difference_word(a, b, k) for a, b, k in
                    draw(st.lists(st.tuples(gen, gen, st.integers(2, 3)), max_size=3))]
    relators = draw(st.permutations(words + differences))
    return Presentation(ngens, tuple(relators))


@settings(max_examples=200, deadline=None)
@given(presentations_with_differences())
def test_abelianization_agrees_with_sympy_on_contracted_differences(p):
    assert_abelianization_agrees_with_sympy(p)


def test_multiples_of_a_difference_are_not_contracted():
    double = difference_word(0, 1, 2)
    assert abelianization(Presentation(2, (double,))) == (1, (2,))
    assert abelianization(Presentation(3, (double, difference_word(1, 2)))) == (1, (2,))
    orbit, rest = envgroup._orbit_map(Presentation(2, (double, difference_word(1, 1))))
    assert orbit == [0, 1] and rest == [{0: -2, 1: 2}]


def test_orbit_map_numbers_components_by_least_generator():
    p = Presentation(5, (difference_word(4, 1), difference_word(3, 0), difference_word(1, 3),
                         difference_word(2, 2)))
    assert envgroup._orbit_map(p) == ([0, 0, 1, 0, 0], [])
    assert envgroup._orbit_map(presentation_of(build("trivial", 3))) == ([0, 1, 2], [])


def test_a_forged_forest_fails_its_check():
    p = Presentation(4, (difference_word(0, 1), difference_word(2, 3, 2), difference_word(1, 2)))
    envgroup._check_forest(p, [0, 0, 0, 1], [(0, 1, 0), (2, 1, 2)])
    forged = [
        ([0, 0, 0, 0], [(0, 1, 0), (2, 1, 2), (2, 3, 1)], "not the row of relator 1"),
        ([0, 0, 0, 1], [(0, 2, 0), (2, 1, 2)], "not the row of relator 0"),
        ([0, 1, 1, 2], [(0, 1, 0), (2, 1, 2)], "joins two components"),
        ([0, 0, 0, 0], [(0, 1, 0), (2, 1, 2)], "does not span"),
        ([0, 0, 0, 1], [(0, 1, 0), (2, 1, 2), (1, 0, 0)], "does not span"),
    ]
    for orbit, forest, message in forged:
        with pytest.raises(AssertionError, match=message):
            envgroup._check_forest(p, orbit, forest)


def test_abelianization_checks_the_forest_it_built(monkeypatch):
    """An edge slipped into the forest that abelianization builds is caught."""
    real = envgroup._check_forest
    monkeypatch.setattr(envgroup, "_check_forest",
                        lambda p, orbit, forest: real(p, orbit, [(0, 1, 1)] + forest))
    p = Presentation(3, (difference_word(1, 2), difference_word(0, 1, 2)))
    with pytest.raises(AssertionError, match="not the row of relator 1"):
        abelianization(p)


def test_abelianization_matches_orbit_count_up_to_order_five():
    for n in range(1, 6):
        for q in enumerate_quandles(n):
            p = presentation_of(q)
            assert abelianization(p) == (len(orbit_partition(q)), ())
            assert_abelianization_agrees_with_sympy(p)


def test_todd_coxeter_whole_group_is_index_one():
    p = presentation_of(R3)
    gens = [((i, 1),) for i in range(3)]
    assert todd_coxeter(p, gens) == 1


def test_todd_coxeter_cyclic_three():
    p = Presentation(1, (((0, 1), (0, 1), (0, 1)),))
    assert todd_coxeter(p, ()) == 3


def test_todd_coxeter_braid_presentation_index_six():
    braid = Presentation(
        2,
        (
            ((1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1)),
            ((0, 1), (0, 1), (1, -1), (1, -1)),
        ),
    )
    assert todd_coxeter(braid, SQUARE_OF_GEN0) == 6


def test_todd_coxeter_r3_presentation_index_six():
    assert todd_coxeter(presentation_of(R3), SQUARE_OF_GEN0) == 6


def multiplication_table_presentation(elements):
    """One generator g_a per element a, with the relators g_a g_b g_(a*b)^-1."""
    index = {g: i for i, g in enumerate(elements)}
    relators = tuple(
        ((index[a], 1), (index[b], 1), (index[a * b], -1)) for a in elements for b in elements
    )
    return Presentation(len(elements), relators), index


# Generators of S4, A4, D4, S3 x C2 (on five points), Z4, V4, S3 and C3.
SMALL_GROUP_GENERATORS = [
    [Perm((1, 2, 3, 0)), Perm((1, 0, 2, 3))],
    [Perm((1, 2, 0, 3)), Perm((0, 2, 3, 1))],
    [Perm((1, 2, 3, 0)), Perm((0, 3, 2, 1))],
    [Perm((1, 2, 0, 3, 4)), Perm((1, 0, 2, 3, 4)), Perm((0, 1, 2, 4, 3))],
    [Perm((1, 2, 3, 0))],
    [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))],
    [Perm((1, 2, 0)), Perm((1, 0, 2))],
    [Perm((1, 2, 0))],
]


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from(SMALL_GROUP_GENERATORS),
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.permutations(range(d)).map(Perm), min_size=1, max_size=2)
    ),
), st.data())
def test_todd_coxeter_on_a_multiplication_table_gives_the_index_of_the_chain_orders(gens, data):
    """At any cap the outcome is the index or CosetLimitExceeded, and a cap
    that completes is followed by larger caps that complete."""
    group = PermGroup(len(gens[0].images), [g.images for g in gens])
    elements = list(group)
    presentation, index = multiplication_table_presentation(elements)
    sub_gens = data.draw(st.lists(st.sampled_from(elements), max_size=2))
    sub = PermGroup(group.degree, [h.images for h in sub_gens])
    words = [((index[h], 1),) for h in sub_gens]
    assert todd_coxeter(presentation, words) * sub.order == group.order
    caps = data.draw(st.lists(st.integers(1, 2 * group.order + 4), min_size=2, max_size=2))
    outcomes = []
    for cap in sorted(caps):
        try:
            outcomes.append(todd_coxeter(presentation, words, max_cosets=cap))
        except CosetLimitExceeded:
            outcomes.append(None)
    assert all(x in (None, group.order // sub.order) for x in outcomes)
    assert outcomes[0] is None or outcomes[1] is not None


def test_todd_coxeter_order_independent():
    p = presentation_of(R3)
    reordered = Presentation(p.ngens, tuple(reversed(p.relators)))
    assert todd_coxeter(p, SQUARE_OF_GEN0) == todd_coxeter(reordered, SQUARE_OF_GEN0)


def test_todd_coxeter_symmetric_group_presentation():
    # <s,t | s^2, t^2, (st)^3> has order 6; trivial subgroup
    p = Presentation(
        2,
        (
            ((0, 1), (0, 1)),
            ((1, 1), (1, 1)),
            ((0, 1), (1, 1)) * 3,
        ),
    )
    assert todd_coxeter(p, ()) == 6
    assert todd_coxeter(p, (((0, 1),),)) == 3


def test_todd_coxeter_limit():
    # Z has infinite index over the trivial subgroup
    p = Presentation(1, ())
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(p, (), max_cosets=50)


# The benchmark's subgroup words for coset enumeration (`perfbench/plan.py`),
# copied so that the pin below does not move with the benchmark.
COSET_WORD_POOL = ([[1, 1]], [[1, 2]], [[2, 1]], [[2, 3]], [[1, 3]])

# The sweep below, as sorted JSON.  Recorded when the lookahead at the cap
# stopped writing through cosets it had retired.  Before that, 103 of its 920
# cells raised AssertionError; every other cell is as it was then.
COSET_CAP_SWEEP_DIGEST = "e4efaa5550930f65ff4dd00f9a74c067554d1427202746b10bd474b407de6b87"


def coset_cap_sweep():
    """Outcome per presentation, pool word and cap 1-40: the index, or "cap"."""
    presentations = {
        "As(R3)": presentation_of(R3),
        "As(R5)": presentation_of(build("dihedral", 5)),
        "As(R7)": presentation_of(build("dihedral", 7)),
        "As(Conj(S3))": presentation_of(conj_quandle(symmetric_group_table(3))),
        "braid": theorems._BRAID_STYLE,
    }
    sweep = {}
    for name, p in presentations.items():
        for letters in COSET_WORD_POOL:
            words = [word_from_json(w) for w in letters]
            if any(g >= p.ngens for w in words for g, _ in w):
                continue
            row = []
            for cap in range(1, 41):
                try:
                    row.append(todd_coxeter(p, words, max_cosets=cap))
                except CosetLimitExceeded:
                    row.append("cap")
            sweep[f"{name} {json.dumps(letters)}"] = row
    return sweep


def test_coset_cap_sweep_is_pinned_and_completes_from_one_cap_on():
    sweep = coset_cap_sweep()
    for row in sweep.values():
        done = [x for x in row if x != "cap"]
        assert row[len(row) - len(done):] == done
        assert len(set(done)) <= 1
    text = json.dumps(sweep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COSET_CAP_SWEEP_DIGEST


ORDER_FIVE = enumerate_quandles(5)


@pytest.mark.parametrize(
    "q, letters, caps",
    [(R3, [[1, 1]], range(7, 12)),
     (ORDER_FIVE[9], [[1], [2]], range(13, 16)),
     (ORDER_FIVE[16], [[1, 1]], range(42, 45))],
    ids=["R3", "order5.class9", "order5.class16"],
)
def test_no_coset_is_defined_from_a_retired_one(monkeypatch, q, letters, caps):
    """Around these caps the lookahead at the cap retires cosets of a scan in
    progress, its start among them on the order-5 classes; the scan must
    then restart or stop, not define a coset from one it retired."""
    real = envgroup._CosetTable.define
    retired = []

    def define(self, c, col):
        if self.parent[c] != c:
            retired.append(c)
        return real(self, c, col)

    monkeypatch.setattr(envgroup._CosetTable, "define", define)
    words = [word_from_json(w) for w in letters]
    for cap in caps:
        try:
            todd_coxeter(presentation_of(q), words, max_cosets=cap)
        except CosetLimitExceeded:
            pass
    assert retired == []


def test_todd_coxeter_rejects_bad_input():
    with pytest.raises(ValueError):
        todd_coxeter(Presentation(1, ()), (((3, 1),),))
    with pytest.raises(ValueError):
        todd_coxeter(Presentation(1, ()), (), max_cosets=0)
