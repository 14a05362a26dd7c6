"""Tests for compatible-map quandles and disjoint-union gluings."""

import random

import pytest

from quandlekit.construct import (
    UnionSpec,
    assemble_union_table,
    inner_assignment,
    involutory_double,
    is_compatible,
    make_union_spec,
    quandle_from_compatible,
    union_quandle,
)
from quandlekit.errors import (
    Axiom3Violation,
    Condition1Violated,
    Condition2Violated,
    FixedPointHypothesisViolated,
    NotAutomorphism,
    NotInvolutory,
    QuandleKitError,
    SigmaNotHom,
    TauNotHom,
)
from quandlekit.fingroup import (
    conj_quandle,
    cyclic_group,
    make_group,
    symmetric_group_table,
)
from quandlekit.perm import Perm
from quandlekit.quandle import Quandle, aut, build, is_isomorphic, orbit_partition
from quandlekit.theorems import CATALOG, run_suite

R3 = build("dihedral", 3)
JOYCE_PAPER_ORDER = [[0, 2, 0], [1, 1, 1], [2, 0, 2]]


def identity_assignment(g):
    return [Perm.identity(g.order) for _ in range(g.order)]


def test_identity_assignment_is_compatible():
    g = symmetric_group_table(3)
    assert is_compatible(g, identity_assignment(g)) == (True, None)


def test_inner_assignment_is_compatible():
    for g in (symmetric_group_table(3), make_group("Q8"), cyclic_group(5)):
        assert is_compatible(g, inner_assignment(g)) == (True, None)


def test_inversion_assignment_on_z3_is_compatible():
    g = cyclic_group(3)
    inversion = Perm((0, 2, 1))
    maps = [Perm.identity(3), inversion, inversion]
    assert is_compatible(g, maps) == (True, None)


def test_incompatible_assignment_reports_first_witness():
    g = cyclic_group(4)
    inversion = Perm((0, 3, 2, 1))
    maps = [Perm.identity(4), inversion, Perm.identity(4), Perm.identity(4)]
    ok, witness = is_compatible(g, maps)
    assert not ok
    assert witness == (1, 1)


def test_is_compatible_rejects_non_automorphism_entries():
    g = cyclic_group(3)
    with pytest.raises(NotAutomorphism):
        is_compatible(g, [Perm((1, 0, 2))] * 3)
    with pytest.raises(ValueError):
        is_compatible(g, [Perm.identity(3)] * 2)


def test_quandle_from_identity_assignment_is_trivial():
    g = symmetric_group_table(3)
    q = quandle_from_compatible(g, identity_assignment(g))
    assert q.table == build("trivial", 6).table
    assert q.labels == g.labels


def test_quandle_from_inner_assignment_is_conjugation_quandle():
    for g in (symmetric_group_table(3), make_group("D4")):
        q = quandle_from_compatible(g, inner_assignment(g))
        assert q.table == conj_quandle(g, -1).table


def test_fixed_point_hypothesis_enforced():
    g = cyclic_group(3)
    inversion = Perm((0, 2, 1))
    with pytest.raises(FixedPointHypothesisViolated) as e:
        quandle_from_compatible(g, [Perm.identity(3), inversion, inversion])
    assert e.value.x == 1


def test_quandle_from_incompatible_assignment_fails():
    g = cyclic_group(4)
    inversion = Perm((0, 3, 2, 1))
    with pytest.raises(ValueError):
        quandle_from_compatible(
            g, [Perm.identity(4), inversion, Perm.identity(4), Perm.identity(4)]
        )


def identity_union_spec(q1, q2):
    return make_union_spec(
        q1,
        q2,
        [Perm.identity(q2.order)] * q1.order,
        [Perm.identity(q1.order)] * q2.order,
    )


def test_union_with_identity_gluing_is_disjoint_union():
    q1, q2 = R3, build("dihedral", 4)
    q = union_quandle(identity_union_spec(q1, q2))
    assert q.order == 7
    for x in range(3):
        for y in range(4):
            assert q.table[x][3 + y] == x
            assert q.table[3 + y][x] == 3 + y
    assert len(orbit_partition(q)) == len(orbit_partition(q1)) + len(
        orbit_partition(q2)
    )


def test_union_blocks_restrict_to_the_inputs():
    q1, q2 = build("trivial", 2), R3
    spec = identity_union_spec(q1, q2)
    q = union_quandle(spec)
    assert tuple(tuple(q.table[x][y] for y in range(2)) for x in range(2)) == q1.table
    assert (
        tuple(tuple(q.table[2 + x][2 + y] - 2 for y in range(3)) for x in range(3))
        == q2.table
    )


def test_union_reproduces_joyce_quandle():
    q1 = build("trivial", 2)
    q2 = build("trivial", 1)
    spec = make_union_spec(q1, q2, [Perm.identity(1)] * 2, [Perm((1, 0))])
    q = union_quandle(spec)
    assert q.table == ((0, 0, 1), (1, 1, 0), (2, 2, 2))
    assert is_isomorphic(q, Quandle.from_table(JOYCE_PAPER_ORDER))


def test_union_spec_json_round_trip():
    q1 = build("trivial", 2)
    q2 = build("trivial", 1)
    spec = make_union_spec(q1, q2, [Perm.identity(1)] * 2, [Perm((1, 0))])
    doc = spec.to_json()
    assert doc["sigma"] == [[0], [0]]
    assert doc["tau"] == [[1, 0]]
    again = UnionSpec.from_json(doc)
    assert union_quandle(again).table == union_quandle(spec).table


def test_make_union_spec_validates_shapes():
    with pytest.raises(ValueError):
        make_union_spec(R3, R3, [Perm.identity(3)] * 2, [Perm.identity(3)] * 3)
    with pytest.raises(ValueError):
        make_union_spec(R3, R3, [Perm.identity(4)] * 3, [Perm.identity(3)] * 3)


def test_union_sigma_hom_violation():
    # noncommuting automorphism values over a trivial base break the
    # homomorphism condition immediately
    q1 = build("trivial", 2)
    q2 = build("dihedral", 4)
    rotate = Perm((1, 2, 3, 0))
    reflect = Perm((0, 3, 2, 1))
    spec = make_union_spec(q1, q2, [rotate, reflect], [Perm.identity(2)] * 4)
    with pytest.raises(SigmaNotHom):
        union_quandle(spec)


def test_union_tau_hom_violation():
    q1 = build("dihedral", 4)
    q2 = build("trivial", 2)
    rotate = Perm((1, 2, 3, 0))
    reflect = Perm((0, 3, 2, 1))
    spec = make_union_spec(q1, q2, [Perm.identity(2)] * 4, [rotate, reflect])
    with pytest.raises(TauNotHom):
        union_quandle(spec)


def test_union_condition_one_violation():
    rotate = Perm((1, 2, 0))
    spec = make_union_spec(R3, build("trivial", 1), [Perm.identity(1)] * 3, [rotate])
    with pytest.raises(Condition1Violated) as e:
        union_quandle(spec)
    assert len(e.value.triple) == 3


def test_union_condition_two_violation():
    rotate = Perm((1, 2, 0))
    spec = make_union_spec(build("trivial", 1), R3, [rotate], [Perm.identity(1)] * 3)
    with pytest.raises(Condition2Violated):
        union_quandle(spec)


def test_union_checks_match_table_validity():
    # the staged checks accept a spec exactly when the raw table is a quandle
    rng = random.Random(41)
    q1, q2 = R3, build("dihedral", 4)
    auts1 = list(aut(q1))
    auts2 = list(aut(q2))
    agreements = 0
    for _ in range(120):
        sigma = [rng.choice(auts2) for _ in range(3)]
        tau = [rng.choice(auts1) for _ in range(4)]
        spec = make_union_spec(q1, q2, sigma, tau)
        try:
            union_quandle(spec)
            staged_ok = True
        except QuandleKitError:
            staged_ok = False
        try:
            Quandle.from_table(assemble_union_table(q1, q2, spec.sigma, spec.tau))
            raw_ok = True
        except Axiom3Violation:
            raw_ok = False
        assert staged_ok == raw_ok
        agreements += 1
    assert agreements == 120


def test_involutory_double_of_trivial_is_trivial():
    assert involutory_double(build("trivial", 3)).table == build("trivial", 6).table


def test_involutory_double_of_r3():
    q = involutory_double(R3)
    assert q.order == 6
    n = 3
    assert tuple(tuple(q.table[x][y] for y in range(n)) for x in range(n)) == R3.table
    assert (
        tuple(tuple(q.table[n + x][n + y] - n for y in range(n)) for x in range(n))
        == R3.table
    )


def test_involutory_double_mixed_products_use_translations():
    q = involutory_double(R3)
    for x in range(3):
        for y in range(3):
            assert q.table[x][3 + y] == R3.table[x][y]
            assert q.table[3 + x][y] == 3 + R3.table[x][y]


def test_involutory_double_rejects_non_involutory():
    with pytest.raises(NotInvolutory):
        involutory_double(conj_quandle(symmetric_group_table(3)))


def test_union_labels_are_prefixed():
    q = conj_quandle(cyclic_group(2))
    doubled = involutory_double(q)
    assert doubled.labels == ("1.0", "1.1", "2.0", "2.1")


def test_no_suite_or_construction_multiplies_perms(monkeypatch):
    """Every catalog suite and construction composes image tuples, never `Perm`s."""
    def refuse(*args):
        raise AssertionError("a Perm was multiplied")

    monkeypatch.setattr(Perm, "__mul__", refuse)
    for tid in CATALOG:
        assert run_suite(tid)["passed"], tid
    s3, z4 = symmetric_group_table(3), cyclic_group(4)
    inversion = Perm((0, 3, 2, 1))
    assert is_compatible(s3, inner_assignment(s3)) == (True, None)
    maps = [Perm.identity(4), inversion, Perm.identity(4), Perm.identity(4)]
    assert is_compatible(z4, maps) == (False, (1, 1))
    assert quandle_from_compatible(s3, inner_assignment(s3)).table == conj_quandle(s3, -1).table
    with pytest.raises(FixedPointHypothesisViolated):
        quandle_from_compatible(cyclic_group(3), [(0, 1, 2), (0, 2, 1), (0, 2, 1)])
    two, one = build("trivial", 2), build("trivial", 1)
    spec = make_union_spec(two, one, [Perm.identity(1)] * 2, [Perm((1, 0))])
    assert union_quandle(spec).table == ((0, 0, 1), (1, 1, 0), (2, 2, 2))
    rotate, reflect = Perm((1, 2, 3, 0)), Perm((0, 3, 2, 1))
    with pytest.raises(SigmaNotHom):
        union_quandle(make_union_spec(two, build("dihedral", 4), [rotate, reflect], [(0, 1)] * 4))
    with pytest.raises(Condition1Violated):
        union_quandle(make_union_spec(R3, one, [(0,)] * 3, [(1, 2, 0)]))
    assert involutory_double(R3).order == 6


def outcome(f, *args):
    """What a call gives: its result, or the type and message of the error it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def as_arrays(maps):
    return [list(p.images) for p in maps]


Z4_INVERSION = Perm((0, 3, 2, 1))
ASSIGNMENTS = {
    "identity": (cyclic_group(3), [Perm.identity(3)] * 3),
    "inner": (make_group("D4"), [Perm(p) for p in inner_assignment(make_group("D4"))]),
    "fixed_point": (cyclic_group(3), [Perm.identity(3), Perm((0, 2, 1)), Perm((0, 2, 1))]),
    "incompatible": (cyclic_group(4), [Perm.identity(4), Z4_INVERSION, *[Perm.identity(4)] * 2]),
    "not_automorphism": (cyclic_group(3), [Perm((1, 0, 2))] * 3),
    "too_few": (cyclic_group(3), [Perm.identity(3)] * 2),
    "wrong_degree": (cyclic_group(3), [Perm.identity(4)] * 3),
}


@pytest.mark.parametrize("name", sorted(ASSIGNMENTS))
def test_assignments_read_the_same_as_perms_and_as_int_arrays(name):
    group, maps = ASSIGNMENTS[name]
    assert outcome(is_compatible, group, maps) == outcome(is_compatible, group, as_arrays(maps))
    built = [outcome(quandle_from_compatible, group, m) for m in (maps, as_arrays(maps))]
    assert built[0] == built[1]


_ROTATE, _REFLECT = Perm((1, 2, 3, 0)), Perm((0, 3, 2, 1))
GLUES = {
    "identity": (R3, build("dihedral", 4), [Perm.identity(4)] * 3, [Perm.identity(3)] * 4),
    "joyce": (build("trivial", 2), build("trivial", 1), [Perm.identity(1)] * 2, [Perm((1, 0))]),
    "sigma_not_hom": (build("trivial", 2), build("dihedral", 4), [_ROTATE, _REFLECT],
                      [Perm.identity(2)] * 4),
    "tau_not_hom": (build("dihedral", 4), build("trivial", 2), [Perm.identity(2)] * 4,
                    [_ROTATE, _REFLECT]),
    "condition1": (R3, build("trivial", 1), [Perm.identity(1)] * 3, [Perm((1, 2, 0))]),
    "condition2": (build("trivial", 1), R3, [Perm((1, 2, 0))], [Perm.identity(1)] * 3),
    "short_sigma": (R3, R3, [Perm.identity(3)] * 2, [Perm.identity(3)] * 3),
    "wrong_degree": (R3, R3, [Perm.identity(4)] * 3, [Perm.identity(3)] * 3),
}


@pytest.mark.parametrize("name", sorted(GLUES))
def test_union_specs_read_the_same_as_perms_and_as_int_arrays(name):
    q1, q2, sigma, tau = GLUES[name]
    specs = [outcome(make_union_spec, q1, q2, sigma, tau),
             outcome(make_union_spec, q1, q2, as_arrays(sigma), as_arrays(tau))]
    assert specs[0] == specs[1]
    if isinstance(specs[0], UnionSpec):
        assert outcome(union_quandle, specs[0]) == outcome(union_quandle, specs[1])
