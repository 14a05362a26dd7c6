"""Tests for constant/abelian cocycles, extensions, stabilizers, and H^2."""

import functools
import itertools
import random
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import cocycle as cocyclemod
from quandlekit.cocycle import (
    AbelianCocycle,
    ConstantCocycle,
    abelian_to_constant,
    act,
    all_constant_cocycles,
    are_cohomologous,
    cocycle_stabilizer,
    compute_h2,
    extend,
    lift,
    trivial_cocycle,
    validate_abelian,
    validate_constant,
)
from quandlekit.errors import (
    CapExceeded,
    CocycleViolation,
    DiagonalViolation,
    NotAutomorphism,
)
from quandlekit.fingroup import conj_quandle, core_quandle, make_group
from quandlekit.perm import Perm, PermGroup, _invert
from quandlekit.quandle import (
    Quandle,
    _first_unpreserved,
    aut,
    build,
    enumerate_quandles,
    inn,
    is_isomorphic,
    orbit_partition,
)
from integer_h2 import predicted_h2
from test_digests import H2_FACTORS, H2_MULTI_FACTOR_COEFFICIENTS

T2 = build("trivial", 2)
R3 = build("dihedral", 3)
SWAP = Perm((1, 0))
ID2 = Perm.identity(2)


def as_perms(table):
    """A cocycle table of image tuples as rows of `Perm`s."""
    return tuple(tuple(map(Perm, row)) for row in table)


def spec_example():
    # base trivial(2), fiber of size 2, only alpha(0,1) is the swap
    return validate_constant(T2, 2, [[ID2, SWAP], [ID2, ID2]])


def test_products_on_a_fiber_of_one_point():
    # at degree 1 `_compose` takes its loop path; act and lift run `_transport` and `_invert` there
    alpha = validate_constant(R3, 1, [[(0,)] * 3] * 3)
    assert extend(alpha).table == R3.table
    assert are_cohomologous(alpha, trivial_cocycle(R3, 1)) is not None
    assert len(all_constant_cocycles(R3, 1)) == 1
    phi, thetas = Perm((0, 2, 1)), (Perm((0,)),) * 3
    beta = act(phi, thetas, alpha)
    assert beta == alpha
    gamma = lift(phi, thetas, 1)
    assert gamma == phi.images
    assert _first_unpreserved(extend(alpha).table, extend(beta).table, gamma) is None


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("base, phi", [(R3, Perm((0, 2, 1))), (T2, SWAP)], ids=["R3", "T2"])
def test_perm_products_stay_at_the_api_boundary(base, phi, s, monkeypatch):
    """No cocycle routine multiplies or builds a `Perm` once its arguments are built.

    Inside the layer and in what it returns, fiber permutations are image
    tuples; `Perm` has no inverse to call.
    """
    def refuse(*args):
        raise AssertionError("a Perm was multiplied or built inside the cocycle layer")

    monkeypatch.setattr(Perm, "__mul__", refuse)
    n = base.order
    off_diagonal = 1 if base is T2 else 0  # on a trivial quandle every such table is a cocycle
    mu = validate_abelian(base, (s,), [[(off_diagonal * (x != y),) for y in range(n)]
                                       for x in range(n)])
    alpha = abelian_to_constant(mu)
    assert validate_constant(base, s, alpha.table) == alpha
    thetas = tuple(Perm((x + u) % s for x in range(s)) for u in range(n))
    identity = Perm.identity(n)
    monkeypatch.setattr(Perm, "__init__", refuse)
    monkeypatch.setattr(Perm, "_trusted", refuse)  # it builds a Perm without __init__
    beta = act(phi, thetas, alpha)
    gamma = lift(phi, thetas, s)
    assert _first_unpreserved(extend(alpha).table, extend(beta).table, gamma) is None
    assert are_cohomologous(alpha, act(identity, thetas, alpha)) is not None
    assert are_cohomologous(beta, beta) is not None
    assert alpha in all_constant_cocycles(base, s)
    assert cocycle_stabilizer(alpha).order >= 1
    assert extend(beta).order == n * s


def test_validate_all_identity():
    a = trivial_cocycle(R3, 3)
    assert a.fiber_size == 3
    assert all(p == (0, 1, 2) for row in a.table for p in row)


def test_validate_spec_example():
    a = spec_example()
    assert Perm(a.table[0][1]) == SWAP


def test_validate_diagonal_violation():
    with pytest.raises(DiagonalViolation) as e:
        validate_constant(T2, 2, [[SWAP, ID2], [ID2, ID2]])
    assert e.value.x == 0


def test_validate_cocycle_violation_carries_witness():
    # over R_3 a single nontrivial entry breaks pair coherence
    table = [[ID2] * 3 for _ in range(3)]
    table[0][1] = SWAP
    with pytest.raises(CocycleViolation) as e:
        validate_constant(R3, 2, table)
    assert e.value.triple == (0, 1, 0)


def test_validate_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        validate_constant(T2, 2, [[ID2, ID2]])
    with pytest.raises(ValueError):
        validate_constant(T2, 3, [[ID2, ID2], [ID2, ID2]])


def test_constant_json_round_trip():
    a = spec_example()
    assert ConstantCocycle.from_json(a.to_json()).table == a.table


def test_extend_sizes_and_projection():
    a = trivial_cocycle(R3, 2)
    ext = extend(a)
    assert ext.order == 6
    images = tuple(i // 2 for i in range(6))
    assert _first_unpreserved(ext.table, R3.table, images) is None
    assert set(images) == {0, 1, 2}


def test_extend_fibers_are_trivial_subquandles():
    a = spec_example()
    ext = extend(a)
    s = a.fiber_size
    for x in range(a.base.order):
        for t in range(s):
            for u in range(s):
                assert ext.table[x * s + t][x * s + u] == x * s + t


def test_extend_spec_example_inner_group():
    assert inn(extend(spec_example())).order == 2


def test_cohomologous_reflexive():
    a = spec_example()
    w = are_cohomologous(a, a)
    assert w is not None and all(p == (0, 1) for p in w)


def test_cohomologous_negative_spec_example():
    assert are_cohomologous(spec_example(), trivial_cocycle(T2, 2)) is None


def test_cohomologous_refuses_cocycles_over_different_bases_or_fibers():
    with pytest.raises(ValueError, match="different base quandles"):
        are_cohomologous(trivial_cocycle(T2, 2), trivial_cocycle(R3, 2))
    with pytest.raises(ValueError, match="different fibers"):
        are_cohomologous(trivial_cocycle(T2, 2), trivial_cocycle(T2, 3))


def random_lambda(rng, n, s):
    return tuple(Perm(tuple(rng.sample(range(s), s))) for _ in range(n))


def push_through_lambda(alpha, lam):
    n = alpha.base.order
    t = alpha.base.table
    table = tuple(
        tuple(lam[t[x][y]] * Perm(alpha.table[x][y]) * Perm(_invert(lam[x].images))
              for y in range(n))
        for x in range(n)
    )
    return validate_constant(alpha.base, alpha.fiber_size, table)


def test_cohomologous_constructed_witness_found():
    rng = random.Random(17)
    for alpha in (trivial_cocycle(R3, 3), spec_example()):
        for _ in range(5):
            lam = random_lambda(rng, alpha.base.order, alpha.fiber_size)
            beta = push_through_lambda(alpha, lam)
            w = are_cohomologous(alpha, beta)
            assert w is not None


def test_cohomologous_witness_gives_extension_isomorphism():
    rng = random.Random(23)
    alpha = trivial_cocycle(R3, 3)
    lam = random_lambda(rng, 3, 3)
    beta = push_through_lambda(alpha, lam)
    w = are_cohomologous(alpha, beta)
    ea, eb = extend(alpha), extend(beta)
    s = alpha.fiber_size
    f = Perm(tuple((i // s) * s + Perm(w[i // s])(i % s) for i in range(ea.order)))
    for i in range(ea.order):
        for j in range(ea.order):
            assert f(ea.table[i][j]) == eb.table[f(i)][f(j)]
    assert is_isomorphic(ea, eb)


def test_act_identity_fixes():
    a = spec_example()
    assert act(ID2, (ID2,) * 2, a).table == a.table


def test_act_commuting_theta_fixes_spec_example():
    a = spec_example()
    assert act(ID2, (SWAP,) * 2, a).table == a.table


def test_act_rejects_non_automorphism():
    a = trivial_cocycle(build("dihedral", 4), 2)
    with pytest.raises(NotAutomorphism):
        act(Perm((1, 0, 2, 3)), (ID2,) * 4, a)


def test_act_is_a_left_action():
    a = spec_example()
    base_auts = list(aut(T2))
    fiber_perms = [Perm(p) for p in itertools.permutations(range(2))]
    for p1 in itertools.product(base_auts, fiber_perms):
        for p2 in itertools.product(base_auts, fiber_perms):
            lhs = act(p1[0], (p1[1],) * 2, act(p2[0], (p2[1],) * 2, a))
            rhs = act(p1[0] * p2[0], (p1[1] * p2[1],) * 2, a)
            assert lhs.table == rhs.table


def test_act_preserves_cohomologous_pairs():
    # transported witness: x -> theta * lambda(phi^{-1} x) * theta^{-1}
    rng = random.Random(5)
    alpha = trivial_cocycle(R3, 2)
    lam = random_lambda(rng, 3, 2)
    beta = push_through_lambda(alpha, lam)
    for phi in aut(R3):
        for theta in (ID2, SWAP):
            ta = act(phi, (theta,) * 3, alpha)
            tb = act(phi, (theta,) * 3, beta)
            pinv = _invert(phi.images)
            moved = tuple(theta * lam[pinv[x]] * Perm(_invert(theta.images)) for x in range(3))
            rebuilt = push_through_lambda(ta, moved)
            assert rebuilt.table == tb.table
            assert are_cohomologous(ta, tb) is not None


def pairs_of(group, n):
    """The members phi + (n + theta) of a stabilizer, split into (phi, theta) pairs."""
    return [(Perm(g.images[:n]), Perm(v - n for v in g.images[n:])) for g in group]


def joined(phi, theta):
    """The pair (phi, theta) as the permutation phi + (n + theta) of a stabilizer."""
    n = len(phi.images)
    return Perm(phi.images + tuple(n + v for v in theta.images))


def test_stabilizer_of_trivial_cocycle_is_everything():
    a = trivial_cocycle(R3, 2)
    assert cocycle_stabilizer(a).order == aut(R3).order * 2


def test_stabilizer_of_spec_example():
    stab = cocycle_stabilizer(spec_example())
    assert stab.order == 2
    assert joined(ID2, ID2) in stab
    assert joined(ID2, SWAP) in stab


def forbid_walks(monkeypatch):
    def walk(group):
        raise AssertionError("a group was walked")

    monkeypatch.setattr(PermGroup, "__iter__", walk)


def test_stabilizer_of_a_base_past_the_old_element_cap_needs_no_walk(monkeypatch):
    # Aut(trivial 10) is Sym(10), of order 10! = 3628800, above the 10**6 the walk refused
    forbid_walks(monkeypatch)
    assert cocycle_stabilizer(trivial_cocycle(build("trivial", 10), 2)).order == 2 * factorial(10)


def test_stabilizer_at_the_fiber_cap_needs_no_walk(monkeypatch):
    forbid_walks(monkeypatch)
    assert cocycle_stabilizer(trivial_cocycle(T2, 9)).order == 2 * factorial(9)
    with pytest.raises(CapExceeded, match="fiber size 10 exceeds cap 9"):
        cocycle_stabilizer(trivial_cocycle(T2, 10))


def test_stabilizer_certificate_rejects_an_unfaithful_restriction(monkeypatch):
    # without its swap columns the table no longer ties (x, u) to x and n + u, so
    # its automorphisms move the extension points on their own
    real = cocyclemod._automorphisms

    def base_columns_only(table, cap, colours):
        n = colours.count(0)
        return real([row[:n] + (r,) * (len(row) - n) for r, row in enumerate(table)], cap, colours)

    monkeypatch.setattr(cocyclemod, "_automorphisms", base_columns_only)
    with pytest.raises(AssertionError, match="do not restrict faithfully"):
        cocycle_stabilizer(trivial_cocycle(T2, 3))


def test_stabilizer_size_divides_group_order():
    for a in (spec_example(), trivial_cocycle(R3, 2)):
        total = aut(a.base).order * factorial(a.fiber_size)
        assert total % cocycle_stabilizer(a).order == 0


def test_stabilizer_reaches_a_64_point_fiber_past_its_cap(monkeypatch):
    # alpha(0, 1) translates Z8 x Z8 by a generator, whose 8 cycles of 8 points
    # have the centralizer Z8 wr S8 of order 8**8 * 8!; the swap of T2 is no member
    monkeypatch.setattr(cocyclemod, "_STABILIZER_CAP", 64)
    alpha = next(a for a in Z8Z8_COCYCLES if a.base == T2)
    assert cocycle_stabilizer(alpha).order == 8**8 * factorial(8) == 676_457_349_120


# The stabilizer embeds into Aut(extend(a)) by (phi, theta) -> lift(phi, (theta,) * n, s).


def test_embed_identity_pair():
    assert lift(ID2, (ID2, ID2), 2) == (0, 1, 2, 3)


def test_lift_numbers_points_as_extend_does():
    # (x, t) -> (phi x, thetas[x] t) on the points x * s + t
    assert Perm(lift(SWAP, (ID2, SWAP), 2)) == Perm((2, 3, 1, 0))
    assert Perm(lift(Perm.identity(3), (Perm((1, 2, 0)),) * 3, 3)) == Perm((1, 2, 0, 4, 5, 3, 7, 8, 6))


def test_embed_is_injective_homomorphism_into_aut():
    a = spec_example()
    stab = pairs_of(cocycle_stabilizer(a), 2)
    full = set(aut(extend(a)))
    images = {pair: Perm(lift(pair[0], (pair[1],) * 2, 2)) for pair in stab}
    assert set(images.values()) <= full
    assert len(set(images.values())) == len(stab)
    for p1 in stab:
        for p2 in stab:
            combined = (p1[0] * p2[0], p1[1] * p2[1])
            assert images[combined] == images[p1] * images[p2]


def test_embed_rejects_non_stabilizing_pair():
    a = spec_example()
    assert joined(SWAP, ID2) not in cocycle_stabilizer(a)
    ext = extend(a)
    gamma = lift(SWAP, (ID2, ID2), 2)
    assert _first_unpreserved(ext.table, ext.table, gamma) is not None


def naive_constant_cocycles(base, s):
    n = base.order
    t = base.table
    perms = [Perm(p) for p in itertools.permutations(range(s))]
    ident = Perm.identity(s)
    free = [(x, y) for x in range(n) for y in range(n) if x != y]
    found = []
    for combo in itertools.product(perms, repeat=len(free)):
        table = [[ident] * n for _ in range(n)]
        for (x, y), p in zip(free, combo):
            table[x][y] = p
        if all(
            table[t[x][y]][z] * table[x][y] == table[t[x][z]][t[y][z]] * table[x][z]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            found.append(tuple(tuple(row) for row in table))
    return found


def test_all_constant_cocycles_matches_naive_filter():
    for base in (T2, R3):
        ours = {as_perms(a.table) for a in all_constant_cocycles(base, 2)}
        assert ours == set(naive_constant_cocycles(base, 2))


def test_all_constant_cocycles_cap():
    with pytest.raises(CapExceeded, match="tried 24 candidate entries, over cap 10"):
        all_constant_cocycles(build("trivial", 4), 4, cap=10)


def test_all_constant_cocycles_over_s2_are_the_z2_coboundaries_of_r5():
    # S_2 is Z_2, so the cocycles are Z_2 2-cocycles; H^2(R_5; Z_2) = 0 leaves
    # exactly the coboundaries (x, y) -> f(x) - f(x*y) of the 2**5 maps f
    r5 = build("dihedral", 5)
    assert compute_h2(r5, (2,))[0] == ()
    coboundaries = {
        tuple(
            tuple(SWAP if f[x] != f[r5.table[x][y]] else ID2 for y in range(5))
            for x in range(5)
        )
        for f in itertools.product((0, 1), repeat=5)
    }
    assert len(coboundaries) == 16
    found = all_constant_cocycles(r5, 2)  # its unpruned space 2**20 is over the cap
    assert len(found) == 16
    assert {as_perms(a.table) for a in found} == coboundaries


def test_constant_classes_over_trivial_base():
    # conjugation by lambda cannot change anything inside an abelian fiber group
    classes = []
    for alpha in all_constant_cocycles(T2, 2):
        if all(are_cohomologous(alpha, rep) is None for rep in classes):
            classes.append(alpha)
    assert len(classes) == 4


def zero_abelian(base, moduli):
    """The zero cocycle with these moduli, built by validate_abelian."""
    zero = (0,) * len(moduli)
    return validate_abelian(base, moduli, [[zero] * base.order] * base.order)


def test_abelian_validation_and_json():
    mu = validate_abelian(T2, (2,), [[(0,), (1,)], [(0,), (0,)]])
    assert AbelianCocycle.from_json(mu.to_json()).table == mu.table
    with pytest.raises(DiagonalViolation):
        validate_abelian(T2, (2,), [[(1,), (0,)], [(0,), (0,)]])
    with pytest.raises(CocycleViolation):
        validate_abelian(R3, (2,), [[(0,), (1,), (0,)], [(0,)] * 3, [(0,)] * 3])
    with pytest.raises(ValueError):
        validate_abelian(T2, (0,), [[(0,), (0,)], [(0,), (0,)]])


def test_abelian_to_constant_translations():
    mu = validate_abelian(T2, (2,), [[(0,), (1,)], [(0,), (0,)]])
    a = abelian_to_constant(mu)
    assert a.fiber_size == 2
    assert Perm(a.table[0][1]) == SWAP
    assert a.table[0][0] == (0, 1)


def test_abelian_to_constant_caps_the_fiber():
    mu = zero_abelian(T2, (8, 9))
    with pytest.raises(CapExceeded, match="order 72 exceeds the fiber cap 64"):
        abelian_to_constant(mu)
    assert abelian_to_constant(mu, cap=72).fiber_size == 72
    assert abelian_to_constant(zero_abelian(T2, (8, 8))).fiber_size == 64


def test_abelian_extension_matches_direct_formula():
    mu = validate_abelian(T2, (2, 2), [
        [(0, 0), (1, 1)],
        [(0, 1), (0, 0)],
    ])
    ext = extend(abelian_to_constant(mu))
    elements = list(itertools.product(range(2), range(2)))
    index = {e: i for i, e in enumerate(elements)}
    s = 4
    for x in range(2):
        for a in elements:
            for y in range(2):
                for b in elements:
                    val = tuple((c + d) % 2 for c, d in zip(a, mu.table[x][y]))
                    i = x * s + index[a]
                    j = y * s + index[b]
                    assert ext.table[i][j] == T2.table[x][y] * s + index[val]


def both_validations_agree(table):
    try:
        validate_abelian(R3, (3,), table)
        abelian_ok = True
    except (DiagonalViolation, CocycleViolation):
        abelian_ok = False
    perm_table = [
        [Perm(tuple((e + v[0]) % 3 for e in range(3))) for v in row]
        for row in table
    ]
    try:
        validate_constant(R3, 3, perm_table)
        constant_ok = True
    except (DiagonalViolation, CocycleViolation):
        constant_ok = False
    assert abelian_ok == constant_ok
    return abelian_ok


def test_abelian_valid_iff_constant_valid():
    rng = random.Random(11)
    for _ in range(200):
        table = [[(rng.randrange(3),) for _ in range(3)] for _ in range(3)]
        both_validations_agree(table)
    # random tables are essentially never valid, so exercise that side too
    assert both_validations_agree([[(0,)] * 3] * 3)
    lam = (0, 1, 2)
    coboundary = [
        [((lam[x] - lam[R3.table[x][y]]) % 3,) for y in range(3)] for x in range(3)
    ]
    assert both_validations_agree(coboundary)


def h2_oracle(base, m):
    """Exhaustive cocycle/coboundary counts: order-dividing-k profile of H^2."""
    n = base.order
    t = base.table
    free = [(x, y) for x in range(n) for y in range(n) if x != y]
    valid = []
    for combo in itertools.product(range(m), repeat=len(free)):
        tab = [[0] * n for _ in range(n)]
        for (x, y), val in zip(free, combo):
            tab[x][y] = val
        if all(
            (tab[t[x][y]][z] + tab[x][y] - tab[t[x][z]][t[y][z]] - tab[x][z]) % m == 0
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            valid.append(tuple(tuple(r) for r in tab))
    cobs = set()
    for lam in itertools.product(range(m), repeat=n):
        cobs.add(
            tuple(tuple((lam[x] - lam[t[x][y]]) % m for y in range(n)) for x in range(n))
        )
    order = len(valid) // len(cobs)
    profile = {}
    for k in range(1, m + 1):
        count = sum(
            1
            for v in valid
            if tuple(tuple((k * c) % m for c in row) for row in v) in cobs
        )
        profile[k] = count // len(cobs)
    return order, profile, cobs


@pytest.mark.parametrize(
    "base,m",
    [(T2, 2), (T2, 4), (R3, 2), (R3, 3), (build("trivial", 3), 2)],
)
def test_h2_matches_exhaustive_oracle(base, m):
    factors, reps = compute_h2(base, (m,))
    order, profile, cobs = h2_oracle(base, m)
    total = 1
    for f in factors:
        total *= f
    assert total == order
    for k, expected in profile.items():
        predicted = 1
        for f in factors:
            predicted *= gcd(k, f)
        assert predicted == expected
    for f, rep in zip(factors, reps):
        flat = tuple(tuple(v[0] for v in row) for row in rep.table)
        for k in range(1, f):
            scaled = tuple(tuple((k * c) % m for c in row) for row in flat)
            assert scaled not in cobs
        killed = tuple(tuple((f * c) % m for c in row) for row in flat)
        assert killed in cobs


def test_h2_trivial_point():
    assert compute_h2(build("trivial", 1), (7,)) == ((), [])


def test_h2_known_values():
    assert compute_h2(T2, (2,))[0] == (2, 2)
    assert compute_h2(T2, (2, 2))[0] == (2, 2, 2, 2)
    assert compute_h2(R3, (2,))[0] == ()
    assert compute_h2(R3, (3,))[0] == ()


def test_h2_over_a_large_prime_modulus():
    """Factoring the modulus stops trial division at its square root."""
    p = 1_000_000_007
    assert compute_h2(T2, (p,))[0] == (p, p)
    assert compute_h2(T2, (2 * p,))[0] == (2 * p, 2 * p)


def test_h2_over_products_of_large_primes():
    """Coefficient orders with no prime factor below 2**16 split only where they share one."""
    p, q = 1_000_000_007, 1_000_000_009
    assert compute_h2(T2, (p * p,))[0] == (p * p,) * 2
    assert compute_h2(T2, (p * q, p))[0] == (p, p, p * q, p * q)
    assert compute_h2(T2, (4 * p * q, 2 * q))[0] == (2 * q, 2 * q, 4 * p * q, 4 * p * q)
    # over a trivial base no coboundary is nonzero, so a representative has its
    # factor's order exactly when its cells do
    factors, reps = compute_h2(T2, (p * q,))
    assert factors == (p * q, p * q)
    for rep in reps:
        cells = [v[0] for row in rep.table for v in row]
        assert all(any(k * v % (p * q) for v in cells) for k in (p, q))


def test_h2_zero_class_extension_is_product():
    mu = zero_abelian(R3, (2,))
    assert extend(abelian_to_constant(mu)).table == extend(trivial_cocycle(R3, 2)).table


def test_h2_reps_link_to_constant_classes():
    factors, reps = compute_h2(T2, (2,))
    constants = [abelian_to_constant(r) for r in reps]
    assert are_cohomologous(constants[0], constants[1]) is None
    for c in constants:
        assert are_cohomologous(c, trivial_cocycle(T2, 2)) is None


def test_h2_cap():
    with pytest.raises(CapExceeded):
        compute_h2(build("trivial", 9), (2,))


TETRAHEDRAL = next(q for q in enumerate_quandles(4) if len(orbit_partition(q)) == 1)


CERTIFIED_CASES = [(T2, (2,)), (TETRAHEDRAL, (2,)), (TETRAHEDRAL, (4, 6)), (build("dihedral", 4), (4,))]


def _wrapped(monkeypatch, name, change):
    """Replace cocycle.`name` by a call of the real one whose result `change` corrupts."""
    real = getattr(cocyclemod, name)
    monkeypatch.setattr(cocyclemod, name, lambda *args: change(real(*args)))


@pytest.mark.parametrize("base, moduli", CERTIFIED_CASES[1:])
def test_h2_with_a_corrupted_stated_combination_fails(monkeypatch, base, moduli):
    """One coefficient of the stated combination of the last pivot row of the conditions is off by one."""
    real = cocyclemod._echelon

    def corrupted(rows, m):
        form = real(rows, m)
        if len(rows) > base.order:  # the conditions, not the coboundaries
            row, combo = form[max(form)]
            i = next(i for i, r in enumerate(rows) if any(v % m for v in r.values()))
            form[max(form)] = (row, {**combo, i: combo.get(i, 0) + 1})
        return form

    monkeypatch.setattr(cocyclemod, "_echelon", corrupted)
    with pytest.raises(AssertionError, match="stated combination"):
        compute_h2(base, moduli)


@pytest.mark.parametrize("base, moduli", CERTIFIED_CASES)
@pytest.mark.parametrize("drop", [0, -1], ids=["first", "last"])
def test_h2_that_drops_a_kernel_generator_fails(monkeypatch, base, moduli, drop):
    _wrapped(monkeypatch, "_kernel", lambda gens: [g for g in gens if g is not gens[drop]])
    with pytest.raises(AssertionError):
        compute_h2(base, moduli)


@pytest.mark.parametrize("base, moduli", CERTIFIED_CASES)
def test_h2_that_drops_a_cyclic_piece_fails(monkeypatch, base, moduli):
    """T2 has free pieces only; the tetrahedral quandle's pieces come from H_2 = Z_2."""
    _wrapped(monkeypatch, "_cyclic_pieces", lambda pieces: pieces[1:])
    with pytest.raises(AssertionError, match=r"\|Z\^2\| / \|B\^2\|"):
        compute_h2(base, moduli)


@pytest.mark.parametrize("moduli", [(2,), (2, 3), (4, 1, 3), (2, 3, 5), (2, 2, 4, 2)])
def test_h2_reduces_the_rows_once_per_modulus(monkeypatch, moduli):
    """One echelon form of the coboundaries and one of the conditions per distinct modulus."""
    calls = []
    real = cocyclemod._echelon
    monkeypatch.setattr(cocyclemod, "_echelon", lambda rows, m: calls.append((len(rows), m))
                        or real(rows, m))
    base = build("dihedral", 5)
    compute_h2(base, moduli)
    distinct = sorted({m for m in moduli if m > 1})
    assert sorted(m for _, m in calls) == sorted(distinct * 2)
    for m in distinct:
        sizes = sorted(size for size, k in calls if k == m)
        assert sizes[0] == base.order and sizes[1] > base.order


@pytest.mark.parametrize("base, rows", [(build("dihedral", 7), 91), (build("dihedral", 16), 492),
                                        (build("trivial", 6), 6)], ids=["R7", "R16", "T6"])
def test_h2_reduces_only_the_conditions_of_a_generating_set(monkeypatch, base, rows):
    """The diagonal rows and the distinct rows (x, y, z) with z in `_base`: 301 and 3,488 for all z.

    Over a trivial base every triple row vanishes, so only the diagonal is left.
    """
    calls = []
    real = cocyclemod._echelon
    monkeypatch.setattr(cocyclemod, "_echelon", lambda r, m: calls.append(len(r)) or real(r, m))
    compute_h2(base, (2,), max_order=base.order)
    assert calls == [base.order, rows]


@pytest.mark.parametrize("base", [R3, build("dihedral", 4), build("dihedral", 5),
                                  conj_quandle(make_group("S3"))], ids=["R3", "R4", "R5", "Conj(S3)"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_h2_certificate_checks_every_triple_past_a_wrong_generating_set(monkeypatch, base, m):
    """Cut to its first element, the set no longer generates: its conditions admit non-cocycles."""
    real = cocyclemod._base
    monkeypatch.setattr(cocyclemod, "_base", lambda table, order: real(table, order)[:1])
    with pytest.raises(AssertionError, match="an H\\^2 generator is not a cocycle"):
        compute_h2(base, (m,))


CLASSES_TO_ORDER_6 = [q.table for n in range(1, 7) for q in enumerate_quandles(n)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASSES_TO_ORDER_6), st.data())
def test_h2_is_invariant_under_relabeling(table, data):
    """A new labeling gives a new generating set, and the same invariant factors."""
    n = len(table)
    sigma = data.draw(st.permutations(range(n)))
    relabeled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabeled[sigma[x]][sigma[y]] = sigma[table[x][y]]
    q, p = Quandle.from_table(table), Quandle.from_table(relabeled)
    for moduli in ((2,), (3,), (4,), (2, 3)):
        assert compute_h2(p, moduli)[0] == compute_h2(q, moduli)[0]


# An order-6 quandle with H_2 torsion Z_2 + Z_4, labeled so that the element
# of order 4 in H^2(Q, Z_m) leads with a cell value of order 2: the kernel
# generators alone are not a direct sum, and `_cyclic_pieces` needs the
# Smith normal form of their relations.
UNALIGNED = Quandle.from_table([[0, 0, 5, 1, 3, 1], [1, 1, 3, 0, 5, 0], [4, 4, 2, 4, 2, 4],
                                [5, 5, 0, 3, 1, 3], [2, 2, 4, 2, 4, 2], [3, 3, 1, 5, 0, 5]])


@pytest.mark.parametrize("moduli", [(4,), (8,), (2, 4), (8, 6)])
def test_h2_diagonalizes_generators_that_are_not_a_direct_sum(monkeypatch, moduli):
    calls = []
    real = cocyclemod.smith_normal_form
    monkeypatch.setattr(cocyclemod, "smith_normal_form", lambda rows, n: calls.append(rows) or real(rows, n))
    factors, reps = compute_h2(UNALIGNED, moduli)
    assert calls and factors == predicted_h2(UNALIGNED, moduli)
    for f, rep in zip(factors, reps):
        cells = [v for row in rep.table for v in row]
        assert all(not any(f * c % m for c, m in zip(v, moduli)) for v in cells)


def _cochains(q, p):
    """Every normalized Z_p-cochain of q, by cell x*n + y, with the cocycles and coboundaries."""
    n = q.order
    t = q.table
    off = [x * n + y for x in range(n) for y in range(n) if x != y]
    conditions = {c for _, c in cocyclemod._conditions(t)}
    cocycles = []
    for values in itertools.product(range(p), repeat=len(off)):
        f = [0] * (n * n)
        for cell, v in zip(off, values):
            f[cell] = v
        if all((f[i] + f[j] - f[k] - f[l]) % p == 0 for i, j, k, l in conditions):
            cocycles.append(tuple(f))
    coboundaries = {tuple((lam[x] - lam[t[x][y]]) % p for x in range(n) for y in range(n))
                    for lam in itertools.product(range(p), repeat=n)}
    return cocycles, coboundaries


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_h2_order_is_the_brute_force_count_of_cocycles_over_coboundaries(n, p):
    for q in enumerate_quandles(n):
        cocycles, coboundaries = _cochains(q, p)
        assert prod(compute_h2(q, (p,))[0]) == len(cocycles) // len(coboundaries)
        assert len(cocycles) % len(coboundaries) == 0


def _lead(v):
    return next(i for i, x in enumerate(v) if x)


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_h2_representatives_over_a_prime_follow_the_stated_rule(n, p):
    """The reduced echelon basis of the cocycles that vanish on the leading cells of B^2."""
    for q in enumerate_quandles(n):
        cocycles, coboundaries = _cochains(q, p)
        b2_leads = {_lead(b) for b in coboundaries if any(b)}
        w = [z for z in cocycles if not any(z[c] for c in b2_leads)]
        leads = sorted({_lead(z) for z in w if any(z)})
        basis = [next(z for z in w if z[c] == 1 and not any(z[d] for d in leads if d != c))
                 for c in leads]
        factors, reps = compute_h2(q, (p,))
        assert factors == (p,) * len(basis)
        assert [tuple(v[0] for row in r.table for v in row) for r in reps] == basis


H2_ORACLE_MODULI = ((2,), (3,), (4, 6), (8, 9))


def test_h2_matches_universal_coefficients_on_every_class_of_order_at_most_6():
    """The integer Smith form of the conditions predicts H^2; `compute_h2` never reduces over Z."""
    for n in range(1, 7):
        for q in enumerate_quandles(n):
            for moduli in H2_ORACLE_MODULI:
                assert compute_h2(q, moduli)[0] == predicted_h2(q, moduli), (q.table, moduli)


def _pinned_h2():
    """(base, moduli) of every `h2` pin and of the multi-factor corpus of `test_digests`."""
    sources = {"trivial": lambda v: build("trivial", int(v)),
               "dihedral": lambda v: build("dihedral", int(v)),
               "conj": lambda v: conj_quandle(make_group(v)),
               "core": lambda v: core_quandle(make_group(v))}
    cases = []
    for command in H2_FACTORS:
        _, flag, value, _, coeff = command.split()
        cases.append((sources[flag[2:]](value), tuple(int(z[1:]) for z in coeff.split("x"))))
    bases = [build("trivial", 2), build("trivial", 3), build("dihedral", 3),
             build("dihedral", 4), build("dihedral", 5), conj_quandle(make_group("S3"))]
    return cases + [(q, moduli) for q in bases for moduli in H2_MULTI_FACTOR_COEFFICIENTS]


def test_h2_matches_universal_coefficients_on_the_pin_corpus():
    for q, moduli in _pinned_h2():
        assert compute_h2(q, moduli)[0] == predicted_h2(q, moduli), (q.table, moduli)


def test_h2_over_the_pin_corpus_has_the_betti_property():
    """Over Z_m with m prime to |Inn(Q)|, H^2 is Z_m^(o^2 - o): for the corpus' own moduli and small primes."""
    checked = 0
    for q, moduli in _pinned_h2():
        o = len(orbit_partition(q))
        order = inn(q).order
        for m in sorted(set(moduli) | {2, 3, 5, 7}):
            if gcd(m, order) == 1:
                assert compute_h2(q, (m,))[0] == (m,) * (o * o - o), (q.table, m)
                checked += 1
    assert checked > 0


# Valid cocycles to corrupt: every one over four small bases and fibers.
VALID_COCYCLES = [
    alpha
    for base, s in ((T2, 3), (build("trivial", 3), 2), (R3, 2), (build("dihedral", 4), 2))
    for alpha in all_constant_cocycles(base, s)
]


def first_cocycle_violation(t, a):
    """The first (x, y, z), x outer and z inner, breaking the cocycle condition."""
    n = len(t)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if a[t[x][y]][z] * a[x][y] != a[t[x][z]][t[y][z]] * a[x][z]:
                    return x, y, z
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID_COCYCLES), st.data())
def test_one_changed_cell_fails_at_the_first_broken_triple(alpha, data):
    n, s = alpha.base.order, alpha.fiber_size
    x, y = data.draw(
        st.sampled_from([(x, y) for x in range(n) for y in range(n) if x != y])
    )
    p = data.draw(st.sampled_from([Perm(i) for i in itertools.permutations(range(s))]))
    table = [list(row) for row in as_perms(alpha.table)]
    table[x][y] = p
    expected = first_cocycle_violation(alpha.base.table, table)
    if expected is None:
        assert Perm(validate_constant(alpha.base, s, table).table[x][y]) == p
    else:
        with pytest.raises(CocycleViolation) as e:
            validate_constant(alpha.base, s, table)
        assert e.value.triple == expected


# Valid cocycles on fibers of 4 to 8 points: coboundaries of the trivial
# cocycle, and the translation cocycles of H^2 representatives, each twisted.
_WIDE_RNG = random.Random(41)
WIDE_COCYCLES = [
    push_through_lambda(alpha, random_lambda(_WIDE_RNG, alpha.base.order, alpha.fiber_size))
    for alpha in (
        [trivial_cocycle(base, s)
         for base in (T2, build("trivial", 3), R3, build("dihedral", 4)) for s in range(4, 9)]
        + [abelian_to_constant(rep)
           for base in (T2, build("trivial", 3), build("dihedral", 4))
           for moduli in ((4,), (5,), (2, 3), (7,), (8,), (2, 4))
           for rep in compute_h2(base, moduli)[1]]
    )
]

# Translation cocycles with values in Z8 x Z8, on a fiber of 64 points.
Z8Z8_COCYCLES = [
    abelian_to_constant(rep)
    for base in (T2, build("dihedral", 4))
    for rep in compute_h2(base, (8, 8))[1]
]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(WIDE_COCYCLES), st.sampled_from(Z8Z8_COCYCLES)), st.data())
def test_wide_fibers_fail_at_the_first_broken_triple(alpha, data):
    n, s = alpha.base.order, alpha.fiber_size
    x, y = data.draw(
        st.sampled_from([(x, y) for x in range(n) for y in range(n) if x != y])
    )
    cells = [p for other in WIDE_COCYCLES + Z8Z8_COCYCLES if other.fiber_size == s
             for row in other.table for p in row]
    p = data.draw(st.one_of(st.sampled_from(cells), st.permutations(range(s))).map(Perm))
    table = [list(row) for row in as_perms(alpha.table)]
    table[x][y] = p
    expected = first_cocycle_violation(alpha.base.table, table)
    if expected is None:
        assert Perm(validate_constant(alpha.base, s, table).table[x][y]) == p
    else:
        with pytest.raises(CocycleViolation) as e:
            validate_constant(alpha.base, s, table)
        assert e.value.triple == expected


# Valid abelian cocycles to corrupt: the H^2 representatives over five bases.
VALID_ABELIAN = [
    rep
    for base in (T2, build("trivial", 3), build("dihedral", 4), build("dihedral", 6),
                 conj_quandle(make_group("S3")))
    for moduli in ((2,), (4,), (2, 3))
    for rep in compute_h2(base, moduli)[1]
]


def first_abelian_violation(t, moduli, a):
    """The first (x, y, z), x outer and z inner, breaking the additive cocycle condition."""
    n = len(t)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = [u + v for u, v in zip(a[t[x][y]][z], a[x][y])]
                right = [u + v for u, v in zip(a[t[x][z]][t[y][z]], a[x][z])]
                if any((u - v) % m for u, v, m in zip(left, right, moduli)):
                    return x, y, z
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID_ABELIAN), st.data())
def test_one_changed_abelian_cell_fails_at_the_first_broken_triple(mu, data):
    n, moduli = mu.base.order, mu.moduli
    x, y = data.draw(
        st.sampled_from([(x, y) for x in range(n) for y in range(n) if x != y])
    )
    value = tuple(data.draw(st.integers(-m, 2 * m - 1)) for m in moduli)
    table = [list(row) for row in mu.table]
    table[x][y] = value
    expected = first_abelian_violation(mu.base.table, moduli, table)
    if expected is None:
        reduced = tuple(c % m for c, m in zip(value, moduli))
        assert validate_abelian(mu.base, moduli, table).table[x][y] == reduced
    else:
        with pytest.raises(CocycleViolation) as e:
            validate_abelian(mu.base, moduli, table)
        assert e.value.triple == expected


def off_diagonal_cocycles(base, s):
    """The valid cocycles equal to one fiber permutation c off the diagonal."""
    n = base.order
    ident = Perm.identity(s)
    found = []
    for images in itertools.permutations(range(s)):
        c = Perm(images)
        table = [[ident if x == y else c for y in range(n)] for x in range(n)]
        try:
            found.append(validate_constant(base, s, table))
        except CocycleViolation:
            continue
    return found


def full_walk_violation(t, a):
    """(DiagonalViolation, x) for the first x with a(x, x) other than the identity, else
    (CocycleViolation, triple) for the triple of the walk over all n**3; None for a cocycle."""
    diagonal = next(
        (x for x in range(len(t)) if a[x][x] != Perm.identity(len(a[x][x].images))), None
    )
    if diagonal is not None:
        return DiagonalViolation, diagonal
    triple = first_cocycle_violation(t, a)
    return None if triple is None else (CocycleViolation, triple)


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("base", [R3, build("dihedral", 4), build("trivial", 3),
                                  conj_quandle(make_group("S3"))], ids=["R3", "R4", "T3", "Conj(S3)"])
def test_perturbed_cocycles_fail_with_the_witness_of_a_full_walk(base, s):
    """`_checked` skips the triples with x = y or y = z; its witnesses are still the first of all n**3."""
    rng = random.Random(s * 100 + base.order)
    seeds = ([trivial_cocycle(base, s)] + off_diagonal_cocycles(base, s)
             + [abelian_to_constant(rep) for rep in compute_h2(base, (s,))[1]])
    n, perms = base.order, [Perm(p) for p in itertools.permutations(range(s))]
    seen = set()
    for _ in range(60):
        alpha = push_through_lambda(rng.choice(seeds), random_lambda(rng, n, s))
        table = [list(row) for row in as_perms(alpha.table)]
        for _ in range(rng.choice((1, 2))):
            table[rng.randrange(n)][rng.randrange(n)] = rng.choice(perms)
        expected = full_walk_violation(base.table, table)
        seen.add(None if expected is None else expected[0])
        if expected is None:
            assert as_perms(validate_constant(base, s, table).table) == tuple(map(tuple, table))
        else:
            kind, witness = expected
            with pytest.raises(kind) as e:
                validate_constant(base, s, table)
            assert (e.value.x if kind is DiagonalViolation else e.value.triple) == witness
    kinds = {None, DiagonalViolation, CocycleViolation}
    if s == 2 and base.table == build("trivial", 3).table:
        kinds.remove(CocycleViolation)  # a trivial base asks only that a row's entries commute
    assert seen == kinds


# Seeds for the gauge action over trivial 2-3 and dihedral 3-4 with fibers 2-3:
# every cocycle where the search is cheap, else the off-diagonal ones.
GAUGE_SEEDS = VALID_COCYCLES + [
    alpha
    for base, s, find in (
        (T2, 2, all_constant_cocycles),
        (R3, 3, all_constant_cocycles),
        (build("trivial", 3), 3, off_diagonal_cocycles),
        (build("dihedral", 4), 3, off_diagonal_cocycles),
    )
    for alpha in find(base, s)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GAUGE_SEEDS), st.randoms(use_true_random=False))
def test_act_is_the_gauge_action_that_lift_realizes(seed, rng):
    n, s = seed.base.order, seed.fiber_size
    alpha = push_through_lambda(seed, random_lambda(rng, n, s))
    auts = list(aut(alpha.base))
    phi1, phi2 = rng.choice(auts), rng.choice(auts)
    thetas1, thetas2 = random_lambda(rng, n, s), random_lambda(rng, n, s)
    beta = act(phi2, thetas2, alpha)
    gamma = lift(phi2, thetas2, s)
    assert _first_unpreserved(extend(alpha).table, extend(beta).table, gamma) is None
    # act(phi1, thetas1) after act(phi2, thetas2) is act(phi1 phi2, x -> thetas1[phi2 x] thetas2[x])
    composite = tuple(thetas1[phi2(x)] * thetas2[x] for x in range(n))
    assert act(phi1, thetas1, beta).table == act(phi1 * phi2, composite, alpha).table
    assert Perm(lift(phi1, thetas1, s)) * Perm(gamma) == Perm(lift(phi1 * phi2, composite, s))


def oracle_cohomologous(alpha, beta):
    """The lambda search on `Perm` products: per orbit, the first root candidate that floods."""
    n, s, t = alpha.base.order, alpha.fiber_size, alpha.base.table
    candidates = [Perm(p) for p in itertools.permutations(range(s))]
    lam = [None] * n
    for block in orbit_partition(alpha.base):
        for choice in candidates:
            assignment = {block[0]: choice}
            queue = [block[0]]
            ok = True
            while queue and ok:
                x = queue.pop()
                for y in range(n):
                    forced = Perm(beta.table[x][y]) * assignment[x] * Perm(_invert(alpha.table[x][y]))
                    target = t[x][y]
                    if target not in assignment:
                        assignment[target] = forced
                        queue.append(target)
                    elif assignment[target] != forced:
                        ok = False
                        break
            if ok and len(assignment) == len(block):
                for x, p in assignment.items():
                    lam[x] = p
                break
        else:
            return None
    return tuple(p.images for p in lam)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GAUGE_SEEDS), st.sampled_from(GAUGE_SEEDS), st.randoms(use_true_random=False))
def test_cohomologous_witness_matches_the_perm_product_search(seed, other, rng):
    n, s = seed.base.order, seed.fiber_size
    alpha = push_through_lambda(seed, random_lambda(rng, n, s))
    beta = push_through_lambda(seed, random_lambda(rng, n, s))
    assert are_cohomologous(alpha, beta) == oracle_cohomologous(alpha, beta) is not None
    if other.base.table == seed.base.table and other.fiber_size == s:
        gamma = push_through_lambda(other, random_lambda(rng, n, s))
        assert are_cohomologous(alpha, gamma) == oracle_cohomologous(alpha, gamma)


def oracle_constant_cocycles(base, s):
    """The backtrack over off-diagonal pairs on `Perm` products, checking each condition in full."""
    n, t = base.order, base.table
    candidates = [Perm(p) for p in itertools.permutations(range(s))]
    free = [(x, y) for x in range(n) for y in range(n) if x != y]
    table = [[Perm.identity(s)] * n for _ in range(n)]
    assigned = set((x, x) for x in range(n))
    found = []

    def holds(x, y, z):
        pairs = ((t[x][y], z), (x, y), (t[x][z], t[y][z]), (x, z))
        if not assigned.issuperset(pairs):
            return True
        return table[t[x][y]][z] * table[x][y] == table[t[x][z]][t[y][z]] * table[x][z]

    def rec(k):
        if k == len(free):
            found.append(tuple(tuple(row) for row in table))
            return
        x, y = free[k]
        assigned.add((x, y))
        for p in candidates:
            table[x][y] = p
            if all(holds(*triple) for triple in itertools.product(range(n), repeat=3)):
                rec(k + 1)
        assigned.discard((x, y))
        table[x][y] = Perm.identity(s)

    rec(0)
    return found


@pytest.mark.parametrize("base", [T2, R3], ids=["trivial2", "dihedral3"])
@pytest.mark.parametrize("s", [2, 3])
def test_all_constant_cocycles_match_the_perm_product_backtrack(base, s):
    assert [as_perms(a.table) for a in all_constant_cocycles(base, s)] == oracle_constant_cocycles(base, s)


def oracle_stabilizer(alpha):
    """The stabilizer pairs on `Perm` products: gauge every theta, then walk Aut(base).

    Aut(base) is every permutation of the base preserving its table, in
    lexicographic order, and (phi, theta) is kept when alpha pulled back
    along phi equals theta alpha theta^-1, so the pairs come out sorted.
    """
    n, s, t, a = alpha.base.order, alpha.fiber_size, alpha.base.table, as_perms(alpha.table)
    gauged = []
    for images in itertools.permutations(range(s)):
        theta = Perm(images)
        gauged.append((theta, [[theta * p * Perm(_invert(images)) for p in row] for row in a]))
    pairs = []
    for images in itertools.permutations(range(n)):
        if any(images[t[x][y]] != t[images[x]][images[y]] for x in range(n) for y in range(n)):
            continue
        pulled = [[a[x][y] for y in images] for x in images]
        pairs += [(Perm(images), theta) for theta, table in gauged if table == pulled]
    return pairs


def test_stabilizer_matches_the_gauging_walk_on_the_corpus_of_suite_7_3():
    corpus = [a for base in (T2, R3) for s in (2, 3) for a in all_constant_cocycles(base, s)]
    assert len(corpus) == 80
    for alpha in corpus:
        assert pairs_of(cocycle_stabilizer(alpha), alpha.base.order) == oracle_stabilizer(alpha)


STABILIZER_BASES = [
    build("trivial", 2), build("trivial", 3), build("trivial", 4), R3, build("dihedral", 4),
    build("dihedral", 5), conj_quandle(make_group("S3")), core_quandle(make_group("Z4")),
]
_FIBER_MODULI = {2: ((2,),), 3: ((3,),), 4: ((4,), (2, 2))}


@functools.cache
def stabilizer_seeds(base_index, s):
    """The trivial cocycle and the translation cocycles of the H^2 representatives."""
    base = STABILIZER_BASES[base_index]
    reps = [rep for moduli in _FIBER_MODULI[s] for rep in compute_h2(base, moduli)[1]]
    return [trivial_cocycle(base, s)] + [abelian_to_constant(rep) for rep in reps]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(STABILIZER_BASES) - 1), st.integers(2, 4), st.data())
def test_stabilizer_matches_the_gauging_walk_on_gauge_twists(base_index, s, data):
    seeds = stabilizer_seeds(base_index, s)
    seed = seeds[data.draw(st.integers(0, len(seeds) - 1))]
    n = seed.base.order
    phi = data.draw(st.sampled_from(list(aut(seed.base))))
    thetas = data.draw(st.lists(st.permutations(range(s)).map(Perm), min_size=n, max_size=n))
    alpha = act(phi, thetas, seed)
    assert pairs_of(cocycle_stabilizer(alpha), n) == oracle_stabilizer(alpha)


def test_act_refuses_thetas_of_the_wrong_count_or_degree():
    a = spec_example()
    with pytest.raises(ValueError, match="one fiber permutation per base element"):
        act(ID2, (ID2,), a)
    with pytest.raises(ValueError, match="one fiber permutation per base element"):
        act(ID2, (ID2,) * 3, a)
    with pytest.raises(ValueError, match="permute the fiber"):
        act(ID2, (ID2, Perm.identity(3)), a)


@pytest.mark.parametrize(
    "base,s",
    [(build("trivial", 8), 3), (build("trivial", 6), 4), (build("trivial", 4), 5),
     (build("trivial", 3), 6)],
)
def test_are_cohomologous_caps_the_work_not_the_product_over_orbits(base, s):
    # s! * n**2 stays under the cap although s! ** (orbit count) does not
    alpha = trivial_cocycle(base, s)
    lam = random_lambda(random.Random(s), base.order, s)
    w = are_cohomologous(alpha, push_through_lambda(alpha, lam))
    assert w is not None


def test_are_cohomologous_cap_counts_permutations_times_pairs():
    alpha = trivial_cocycle(build("trivial", 3), 9)
    with pytest.raises(CapExceeded, match=r"9! \* 3\*\*2"):
        are_cohomologous(alpha, alpha)


def test_h2_with_coefficients_prime_to_inn_is_free_of_betti_rank():
    """H^2(Q; Z_p) = Z_p^(o^2 - o) for o orbits when p does not divide |Inn(Q)|.

    The torsion of the quandle homology H_2(Q) is annihilated by |Inn(Q)|
    (Etingof and Graña, "On rack cohomology", 2003), and its free rank is
    o^2 - o, so this oracle reads neither Smith normal form of `compute_h2`.
    """
    bases = ([q for n in range(1, 6) for q in enumerate_quandles(n)]
             + [build("dihedral", n) for n in range(6, 10)]
             + [build("trivial", n) for n in (6, 7)])
    pairs = [(q, p) for q in bases for p in (2, 3, 5, 7)]
    pairs.append((build("dihedral", 12), 5))  # past the default order cap of 8
    cases = 0
    for q, p in pairs:
        if inn(q).order % p:
            o = len(orbit_partition(q))
            factors, _ = compute_h2(q, (p,), max_order=q.order)
            assert factors == (p,) * (o * o - o), (q.table, p)
            cases += 1
    assert cases == 114
