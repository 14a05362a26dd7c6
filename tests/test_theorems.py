import itertools
import math
import pathlib
import types

import pytest

from quandlekit.errors import QuandleKitError, UnsupportedSpec
from quandlekit.fingroup import is_abelian, make_group
from quandlekit.perm import Perm, PermGroup, _invert
from quandlekit import cocycle as cocyclemod
from quandlekit import envgroup, fingroup, theorems
from quandlekit import construct as constructmod
from quandlekit import quandle as quandlemod
from quandlekit.theorems import (
    CATALOG,
    GROUP_CATALOG,
    LARGER_GROUP_CATALOG,
    _cocycle_pool,
    run_suite,
)

ALL_IDS = (
    "3.1",
    "3.3",
    "4.3",
    "4.4",
    "4.5",
    "4.6",
    "5.1",
    "5.2",
    "5.3",
    "5.4",
    "5.5",
    "5.6",
    "5.7",
    "6.3",
    "7.1",
    "7.3",
    "8.2",
    "8.3",
    "8.4",
    "9.1",
    "9.2",
)


@pytest.fixture(scope="module")
def reports():
    return {tid: run_suite(tid) for tid in ALL_IDS}


def by_case(report, name):
    matches = [c for c in report["cases"] if c["case"] == name]
    assert len(matches) == 1
    return matches[0]


def test_catalog_is_complete():
    assert set(CATALOG) == set(ALL_IDS)


def test_unknown_id_rejected():
    with pytest.raises(UnsupportedSpec):
        run_suite("1.1")


def test_every_suite_passes(reports):
    failed = [tid for tid in ALL_IDS if not reports[tid]["passed"]]
    assert failed == []


def test_report_shape(reports):
    for tid, rep in reports.items():
        assert rep["id"] == tid
        assert isinstance(rep["cases"], list) and rep["cases"]
        for case in rep["cases"]:
            assert "case" in case and "passed" in case


def test_reports_are_reproducible():
    for tid in ("5.3", "7.1", "9.1", "9.2"):
        assert run_suite(tid) == run_suite(tid)


def test_envelope_suite_indices(reports):
    case = by_case(reports["3.1"], "central_square_subgroup_index")
    assert case["index_two_generators"] == 6
    assert case["index_from_table"] == 6


def test_abelianization_suite_covers_all_classes(reports):
    assert len(reports["3.3"]["cases"]) == 1 + 1 + 3 + 7 + 22


def test_center_swap_runs_on_every_catalog_group(reports):
    assert len(reports["4.3"]["cases"]) == len(GROUP_CATALOG)
    trivial_center = [
        c["case"] for c in reports["4.3"]["cases"] if not c["hypothesis_holds"]
    ]
    assert trivial_center == ["S3"]


# |Aut(G)| from the literature, e.g. |Aut(Z3xZ3)| = |GL(2, 3)| and
# |Aut(Z2xZ2xZ2xZ2)| = |GL(4, 2)|.
PUBLISHED_AUT_ORDERS = {
    "Z3xZ3": 48,
    "D5": 20,
    "D6": 12,
    "Z2xS3": 12,
    "Z3xS3": 12,
    "Z2xD4": 64,
    "Z2xQ8": 192,
    "Z4xZ4": 96,
    "Z2xZ8": 16,
    "Z2xZ2xZ2xZ2": 20160,
    "S4": 24,
}


@pytest.fixture(scope="module")
def larger_sweep():
    return run_suite("4.4", {"max_order": 24})


def test_larger_catalog_runs_only_past_the_default_bound(reports, larger_sweep):
    assert {c["case"] for c in reports["4.4"]["cases"]} == set(GROUP_CATALOG)
    assert len(larger_sweep["cases"]) == len(GROUP_CATALOG) + len(LARGER_GROUP_CATALOG)
    assert larger_sweep["passed"]
    for tid in ("4.3", "4.5", "4.6"):
        assert run_suite(tid, {"max_order": 24})["passed"]


def test_larger_catalog_matches_published_aut_orders(larger_sweep):
    assert set(PUBLISHED_AUT_ORDERS) == set(LARGER_GROUP_CATALOG)
    for spec, order in PUBLISHED_AUT_ORDERS.items():
        assert by_case(larger_sweep, spec)["aut_group_order"] == order


def test_conj_quandle_of_abelian_group_has_every_permutation(larger_sweep):
    # Conj(G) of an abelian G is the trivial quandle, kept by all of S_|G|
    abelian = [c for c in larger_sweep["cases"] if is_abelian(make_group(c["case"]))]
    assert len(abelian) == 11
    for case in abelian:
        assert case["aut_conj_order"] == math.factorial(make_group(case["case"]).order)


def test_centerless_groups_share_aut_with_their_conj_quandle(larger_sweep):
    for spec in ("S3", "D5", "S4"):
        case = by_case(larger_sweep, spec)
        assert case["center_order"] == 1
        assert case["aut_conj_order"] == case["aut_group_order"]


def test_conj_aut_equality_only_for_trivial_center(reports):
    equal = [c["case"] for c in reports["4.4"]["cases"] if c["equality_observed"]]
    assert equal == ["S3"]


def test_conj_direct_product_equality_cases(reports):
    equal = {c["case"] for c in reports["4.5"]["cases"] if c["equality_observed"]}
    assert equal == {"Z2", "S3"}


def test_conj_semidirect_equality_cases(reports):
    rep = reports["4.6"]
    equal = {c["case"] for c in rep["cases"] if c["equality_observed"]}
    assert equal == {"Z2", "Z3", "Z2xZ2", "S3"}
    z4 = by_case(rep, "Z4")
    assert (z4["aut_conj_order"], z4["semidirect_order"]) == (24, 8)
    q8 = by_case(rep, "Q8")
    assert q8["aut_conj_order"] > 48


def test_core_subgroup_orders(reports):
    rep = reports["5.1"]
    for case in rep["cases"]:
        assert case["aut_core_order"] % case["subgroup_order"] == 0
    assert by_case(rep, "Q8")["subgroup_order"] == 48
    assert by_case(rep, "Z2xZ2xZ2")["aut_core_order"] == math.factorial(8)


def test_odd_takasaki_structure(reports):
    rep = reports["5.2"]
    assert [c["case"] for c in rep["cases"]] == ["Z3", "Z5", "Z7"]
    z5 = by_case(rep, "Z5")
    assert z5["aut_order"] == 20 and z5["inn_order"] == 10
    assert z5["aut_isomorphic_to_semidirect"]
    assert z5["inn_isomorphic_to_semidirect"]


# |Aut(G)| for the odd abelian groups of order at most 27 (Euler's phi for
# the cyclic ones): |GL(2,3)| = 48, |GL(2,5)| = 480, |Aut(Z3xZ9)| = 108 and
# |GL(3,3)| = 11232.
ODD_ABELIAN_AUT_ORDERS = {
    "Z3": 2, "Z5": 4, "Z7": 6, "Z9": 6, "Z3xZ3": 48, "Z11": 10, "Z13": 12, "Z15": 8,
    "Z17": 16, "Z19": 18, "Z21": 12, "Z23": 22, "Z25": 20, "Z5xZ5": 480, "Z27": 18,
    "Z3xZ9": 108, "Z3xZ3xZ3": 11232,
}


def test_odd_takasaki_sweep_matches_published_aut_orders():
    rep = run_suite("5.2", {"max_order": 27, "cap_order": 27})
    assert rep["passed"]
    assert {c["case"] for c in rep["cases"]} == set(ODD_ABELIAN_AUT_ORDERS)
    for case in rep["cases"]:
        size = make_group(case["case"]).order
        assert case["aut_order"] == size * ODD_ABELIAN_AUT_ORDERS[case["case"]]
        assert case["inn_order"] == 2 * size
    assert [by_case(rep, name)["aut_order"] for name in ("Z5xZ5", "Z3xZ9", "Z3xZ3xZ3")] == [
        12000, 2916, 303264,
    ]


def test_odd_takasaki_certificates_fail_with_the_wrong_aut_group(monkeypatch):
    monkeypatch.setattr(fingroup, "automorphism_group", lambda g: PermGroup(g.order, []))
    rep = run_suite("5.2")
    assert not rep["passed"]
    for case in rep["cases"]:
        assert not case["aut_isomorphic_to_semidirect"] and not case["passed"]


def test_r4_extension_certificate_fails_when_aut_is_inn(monkeypatch):
    monkeypatch.setattr(quandlemod, "aut", lambda q, cap=None: quandlemod.inn(q))
    rep = run_suite("5.6")
    assert not by_case(rep, "isomorphic_to_wreath_style_product")["passed"]


def test_reflection_report_flags(reports):
    rep = reports["5.3"]
    assert by_case(rep, "Z4")["orders_match"]
    assert by_case(rep, "Z2xZ4")["orders_match"]
    assert by_case(rep, "Z6")["mismatch_flag"]
    assert by_case(rep, "Z6")["inn_order"] == 6
    assert not by_case(rep, "Z6")["coxeter_finite"]


def test_even_dihedral_reflection_counts(reports):
    rep = reports["5.4"]
    for case in rep["cases"]:
        assert case["distinct_translations"] == case["expected_generators"]
        assert case["relation_exponent"] == case["expected_generators"]


def test_elementary_inner_quotient_flag(reports):
    rep = reports["5.5"]
    k1 = by_case(rep, "k1")
    assert k1["inn_order"] == 4 and k1["orders_match"]
    k2 = by_case(rep, "k2")
    assert k2["inn_order"] == 8 and k2["mismatch_flag"]
    assert k2["all_involutions"] and k2["all_commute"]


def test_r4_structure_cases(reports):
    rep = reports["5.6"]
    assert by_case(rep, "aut_order")["aut_order"] == 8
    assert by_case(rep, "pairwise_swap_is_outer")["in_aut"]
    assert not by_case(rep, "pairwise_swap_is_outer")["in_inn"]


def test_orbit_swap_boundary(reports):
    rep = reports["5.7"]
    observed = {c["case"]: c["swap_is_automorphism"] for c in rep["cases"]}
    assert observed == {
        "order2": True,
        "order4": True,
        "order6": False,
        "order8": False,
        "order10": False,
    }


def test_three_transitive_classification(reports):
    rep = reports["6.3"]
    named = [c for c in rep["cases"] if c.get("named_class")]
    # one trivial quandle per order, plus the 3-element dihedral one
    assert len(named) == 6
    inner = [c for c in rep["cases"] if c["case"].startswith("inner_order")]
    assert [c["classes"] for c in inner] == [7, 22, 73]
    assert all(c["inner_three_transitive"] == 0 for c in inner)


def test_cohomologous_extension_trials(reports):
    case = reports["7.1"]["cases"][0]
    assert case["trials"] >= 100
    assert case["failures"] == []


def test_stabilizer_embedding_corpus(reports):
    rep = reports["7.3"]
    counts = {c["case"]: c["valid_cocycles"] for c in rep["cases"]}
    assert counts["trivial2.fiber2"] == 4
    assert counts["trivial2.fiber3"] == 36
    for case in rep["cases"]:
        assert case["injective"]
        assert case["multiplicative"]
        assert case["shape_matches_stabilizer"]


def _add_a_non_member(alpha, stab):
    """The stabilizer plus the first pair of Aut(base) x Sym(fiber) outside it, as a generator."""
    n = alpha.base.order
    pairs = itertools.product(
        quandlemod.aut(alpha.base),
        (Perm(p) for p in itertools.permutations(range(alpha.fiber_size))),
    )
    joined = (Perm(phi.images + tuple(n + v for v in theta.images)) for phi, theta in pairs)
    extra = next((g for g in joined if g not in stab), None)
    return stab if extra is None else PermGroup(stab.degree, [*stab.strong_generators, extra.images])


def _drop_a_generator(alpha, stab):
    """A proper subgroup: the greedy generators but the last, which lies outside their span."""
    return PermGroup(stab.degree, [g.images for g in stab.generators[:-1]])


@pytest.mark.parametrize(
    "change", [_add_a_non_member, _drop_a_generator], ids=["extra-pair", "missing-pair"]
)
def test_stabilizer_suite_fails_when_the_stabilizer_is_wrong(monkeypatch, change):
    real = cocyclemod.cocycle_stabilizer
    monkeypatch.setattr(
        cocyclemod, "cocycle_stabilizer", lambda alpha: change(alpha, real(alpha))
    )
    rep = run_suite("7.3")
    assert not rep["passed"]
    for case in rep["cases"]:
        assert not case["shape_matches_stabilizer"]
        assert not case["passed"]


def test_stabilizer_suite_fails_when_the_lifts_are_not_multiplicative(monkeypatch):
    """Inverted lifts preserve the same extensions but reverse products, which
    shows on every case but trivial2.fiber2, whose Aut(base) x Sym(2) is abelian."""
    real = cocyclemod.lift
    monkeypatch.setattr(cocyclemod, "lift", lambda phi, thetas, s: _invert(real(phi, thetas, s)))
    rep = run_suite("7.3")
    assert not rep["passed"]
    assert [c["case"] for c in rep["cases"] if c["multiplicative"]] == ["trivial2.fiber2"]
    for case in rep["cases"]:
        assert case["injective"] and case["shape_matches_stabilizer"]
        assert case["passed"] == case["multiplicative"]


def test_abelianization_suite_fails_with_commutators_outside_the_kernel(monkeypatch):
    """Read off the transposed table, the words a_(i*j)^-1 a_j leave the kernel
    of As(Q) -> Z^orbits exactly on the classes with two orbits or more."""
    real = envgroup.commutator_generators
    monkeypatch.setattr(
        envgroup,
        "commutator_generators",
        lambda q: real(types.SimpleNamespace(order=q.order, table=tuple(zip(*q.table)))),
    )
    rep = run_suite("3.3")
    assert not rep["passed"]
    for case in rep["cases"]:
        assert case["passed"] == (case["orbits"] == 1)


def test_braid_relator_case_fails_without_the_braid_relator(monkeypatch):
    # (a b a)^-1 (b a b), a rotation of the braid relator: the same group, another word
    rotated = ((0, -1), (1, -1), (0, -1), (1, 1), (0, 1), (1, 1))
    relators = (rotated,) + theorems._BRAID_STYLE.relators[1:]
    monkeypatch.setattr(theorems, "_BRAID_STYLE", envgroup.Presentation(2, relators))
    rep = run_suite("3.1")
    assert not by_case(rep, "braid_relator_present")["passed"]
    assert [c["case"] for c in rep["cases"] if not c["passed"]] == ["braid_relator_present"]


def test_symmetric_image_case_fails_when_the_image_is_a_proper_subgroup(monkeypatch):
    real = theorems.PermGroup
    monkeypatch.setattr(theorems, "PermGroup", lambda degree, gens: real(degree, gens[:1]))
    rep = run_suite("3.1")
    case = by_case(rep, "symmetric_image_two_generators")
    assert case["relators_hold"]
    assert (case["elements_explored"], case["all_targets_reached"]) == (2, False)
    assert not case["passed"] and not rep["passed"]


def test_connected_quasi_inner_cases(reports):
    for case in reports["8.2"]["cases"]:
        assert case["qinn_order"] == case["aut_order"]


def test_quasi_inner_gap_orders(reports):
    rep = reports["8.3"]
    r5 = by_case(rep, "order5")
    assert (r5["inn_order"], r5["qinn_order"], r5["aut_order"]) == (10, 20, 20)
    r7 = by_case(rep, "order7")
    assert (r7["inn_order"], r7["aut_order"]) == (14, 42)


def test_r4_quasi_inner_collapse(reports):
    rep = reports["8.4"]
    case = by_case(rep, "groups_coincide")
    assert case["inn_order"] == case["qinn_order"] == 4
    swap = by_case(rep, "outer_swap_not_quasi_inner")
    assert swap["in_aut"] and not swap["weak_sense"] and not swap["strong_sense"]


def test_compatible_maps_catalog(reports):
    rep = reports["9.1"]
    assert len(rep["cases"]) == len(GROUP_CATALOG) + 1
    neg = by_case(rep, "Z3-inversion-fixed-point")
    assert neg["compatible"] and neg["rejected"]


def test_union_gluing_cases(reports):
    rep = reports["9.2"]
    glue = by_case(rep, "three_element_swap_glue")
    assert glue["table"] == [[0, 0, 1], [1, 1, 0], [2, 2, 2]]
    bad = by_case(rep, "randomized_bad_glue")
    assert bad["inconsistent"] == 0
    assert bad["axiom_failures"] >= math.ceil(0.95 * bad["trials"])


def test_reports_name_the_catalog_options(reports):
    for tid, (_, defaults) in CATALOG.items():
        assert reports[tid]["options"] == dict(sorted(defaults.items()))


def test_readme_lists_the_catalog_options():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    listed = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in CATALOG:
            listed[cells[0]] = cells[1]
    expected = {
        tid: " ".join(f"--{key.replace('_', '-')} {value}" for key, value in defaults.items())
        for tid, (_, defaults) in CATALOG.items()
    }
    assert listed == {tid: f"`{text}`" if text else "none" for tid, text in expected.items()}


def test_every_suite_of_one_case_shape_is_a_sweep(reports):
    """A suite whose default report has more than one case, all with one key set, is a `_sweep`."""
    swept = theorems._sweep(None, None).__qualname__
    uniform = [
        tid for tid, rep in reports.items()
        if len(rep["cases"]) > 1 and len({frozenset(case) for case in rep["cases"]}) == 1
    ]
    assert "5.3" in uniform and "7.3" in uniform
    assert [tid for tid in uniform if CATALOG[tid][0].__qualname__ != swept] == []


def test_reflection_suite_reads_no_cap(reports):
    assert run_suite("5.3", {"cap_group": 1}) == reports["5.3"]


def test_three_transitive_suite_enumerates_each_order_once(monkeypatch):
    orders = []
    real = quandlemod.enumerate_quandles
    monkeypatch.setattr(
        quandlemod, "enumerate_quandles", lambda n, cap: orders.append(n) or real(n, cap)
    )
    run_suite("6.3")
    assert orders == [1, 2, 3, 4, 5, 6]
    orders.clear()
    run_suite("6.3", {"max_order": 6, "cap_order": 4})
    assert orders == [1, 2, 3, 4, 5, 6]


def test_empty_sweep_is_an_error():
    with pytest.raises(QuandleKitError, match="suite 4.6"):
        run_suite("4.6", {"max_order": -3})


def test_compatible_maps_suite_refuses_an_empty_catalog_sweep():
    with pytest.raises(QuandleKitError, match="suite 9.1 has no catalog group with max_order 1"):
        run_suite("9.1", {"max_order": 1})


def test_options_narrow_the_sweep():
    rep = run_suite("3.3", {"max_order": 3})
    assert len(rep["cases"]) == 5
    rep = run_suite("4.6", {"max_order": 6})
    assert {c["case"] for c in rep["cases"]} == {"Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3"}


def test_a_type_error_in_the_glue_trials_is_not_a_rejection(monkeypatch):
    real = constructmod.union_quandle

    def broken(spec):
        if (spec.q1.order, spec.q2.order) == (3, 4):  # only the randomized trials glue R3 to R4
            raise TypeError("bug in the gluing code")
        return real(spec)

    monkeypatch.setattr(constructmod, "union_quandle", broken)
    with pytest.raises(TypeError):
        run_suite("9.2", {"trials": 5})


def test_a_type_error_in_the_axiom_check_is_not_an_axiom_failure(monkeypatch):
    real = quandlemod.Quandle.from_table

    def broken(table, labels=None):
        if len(table) == 7:  # only the randomized trials build order-7 tables
            raise TypeError("bug in the axiom check")
        return real(table, labels=labels)

    monkeypatch.setattr(quandlemod.Quandle, "from_table", broken)
    with pytest.raises(TypeError):
        run_suite("9.2", {"trials": 5})


def test_a_type_error_in_the_cocycle_pool_is_not_a_rejection(monkeypatch):
    def broken(base, fiber_size, table):
        raise TypeError("bug in the cocycle check")

    monkeypatch.setattr(cocyclemod, "validate_constant", broken)
    with pytest.raises(TypeError):
        _cocycle_pool(quandlemod.build("trivial", 2), 2)
