"""Acceptance gate.

Each test is one promised behavior of the package, checked end to end at
its stated tolerance, and prints a single PASS or FAIL line (visible with
pytest -s).  The whole file is meant to run green in well under five
minutes.
"""

import time
from itertools import permutations, product
from math import ceil

import pytest

from quandlekit import cocycle, envgroup, quandle, theorems
from quandlekit.errors import QuandleKitError
from quandlekit.perm import Perm, PermGroup


def conclude(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    cache = {}

    def run(tid, options=None):
        key = (tid, None if options is None else tuple(sorted(options.items())))
        if key not in cache:
            cache[key] = theorems.run_suite(tid, options)
        return cache[key]

    return run


def case(report, name):
    for c in report["cases"]:
        if c["case"] == name:
            return c
    raise AssertionError(f"no case named {name} in suite {report['id']}")


def test_01_small_dihedral_automorphisms():
    started = time.perf_counter()
    r4 = quandle.build("dihedral", 4)
    r5 = quandle.build("dihedral", 5)
    aut4 = quandle.aut(r4)
    inn4 = quandle.inn(r4)
    aut5 = quandle.aut(r5)
    inn5 = quandle.inn(r5)
    elapsed = time.perf_counter() - started

    klein = inn4.order == 4 and all(g * g == g.identity(4) for g in inn4)
    ok = (
        aut4.order == 8
        and klein
        and aut5.order == 20
        and inn5.order == 10
        and elapsed < 1.0
    )
    conclude(
        "small dihedral automorphism groups",
        ok,
        f"aut4={aut4.order} inn4={inn4.order} aut5={aut5.order} "
        f"inn5={inn5.order} in {elapsed:.3f}s",
    )


def test_02_conjugation_semidirect_bound_sweep(suite):
    started = time.perf_counter()
    report = suite("4.6", {"max_order": 8})
    elapsed = time.perf_counter() - started
    equal = {c["case"] for c in report["cases"] if c["equality_observed"]}
    z4 = case(report, "Z4")
    q8 = case(report, "Q8")
    ok = (
        report["passed"]
        and len(report["cases"]) == 10
        and equal == {"Z2", "Z3", "Z2xZ2", "S3"}
        and z4["aut_conj_order"] == 24
        and z4["semidirect_order"] == 8
        and q8["aut_conj_order"] > 48
        and elapsed < 60.0
    )
    conclude(
        "conjugation sweep, center-times-aut bound",
        ok,
        f"equality on {sorted(equal)} in {elapsed:.1f}s",
    )


def test_03_conjugation_factorial_bound_sweep(suite):
    report = suite("4.5", {"max_order": 8})
    equal = {c["case"] for c in report["cases"] if c["equality_observed"]}
    ok = report["passed"] and equal == {"Z2", "S3"}
    conclude(
        "conjugation sweep, factorial bound",
        ok,
        f"equality on {sorted(equal)}",
    )


def naive_classes(n):
    """Brute-force isomorphism classes: all diagonal-fixing column tuples."""
    columns = [
        [p for p in permutations(range(n)) if p[y] == y] for y in range(n)
    ]
    found = []
    for combo in product(*columns):
        table = [[combo[y][x] for y in range(n)] for x in range(n)]
        try:
            q = quandle.Quandle.from_table(table)
        except QuandleKitError:
            continue
        if not any(quandle.is_isomorphic(q, seen) for seen in found):
            found.append(q)
    return found


def test_04_full_symmetric_automorphism_classification(suite):
    counts = [len(quandle.enumerate_quandles(n)) for n in range(1, 6)]
    naive = [len(naive_classes(n)) for n in range(1, 5)]
    report = suite("6.3")

    named_per_order = {}
    for c in report["cases"]:
        if c["case"].startswith("order") and "class" in c["case"]:
            order = int(c["case"].split(".")[0][len("order"):])
            named_per_order.setdefault(order, 0)
            if c["named_class"]:
                named_per_order[order] += 1
    inner = [case(report, f"inner_order{n}") for n in (4, 5, 6)]

    ok = (
        counts == [1, 1, 3, 7, 22]
        and naive == [1, 1, 3, 7]
        and report["passed"]
        and named_per_order == {1: 1, 2: 1, 3: 2, 4: 1, 5: 1}
        and [c["classes"] for c in inner] == [7, 22, 73]
        and all(c["inner_three_transitive"] == 0 for c in inner)
    )
    conclude(
        "full-symmetric classification and inner 3-transitivity",
        ok,
        f"counts={counts} naive={naive}",
    )


def test_05_abelianization_free_on_orbits(suite):
    report = suite("3.3")
    ok = (
        report["passed"]
        and len(report["cases"]) == 34
        and all(c["torsion"] == [] for c in report["cases"])
        and all(c["free_rank"] == c["orbits"] for c in report["cases"])
    )
    conclude(
        "envelope abelianization free on orbits",
        ok,
        f"{len(report['cases'])} classes through order 5",
    )


def test_06_two_generator_envelope():
    braid = envgroup.Presentation(
        2,
        (
            ((1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1)),
            ((0, 1), (0, 1), (1, -1), (1, -1)),
        ),
    )
    started = time.perf_counter()
    index = envgroup.todd_coxeter(
        braid, subgroup_words=[((0, 1), (0, 1))], max_cosets=5000
    )

    def evaluate(word, images, mul, inv, identity):
        value = identity
        for g, sign in word:
            value = mul(value, images[g] if sign > 0 else inv(images[g]))
        return value

    # Z3 extended by Z on pairs (a, m), where m acts on Z3 by inversion when it is odd
    z3_by_z = (
        lambda x, y: ((x[0] + (-1) ** (x[1] % 2) * y[0]) % 3, x[1] + y[1]),
        lambda x: (-(-1) ** (x[1] % 2) * x[0] % 3, -x[1]),
        (0, 0),
    )
    twisted = [(0, 1), (1, 1)]
    twisted_relators = all(
        evaluate(rel, twisted, *z3_by_z) == (0, 0) for rel in braid.relators
    )
    # the targets (1, 0) and (0, 1) are the images of b a^-1 and a
    twisted_targets = [
        evaluate(((1, 1), (0, -1)), twisted, *z3_by_z),
        evaluate(((0, 1),), twisted, *z3_by_z),
    ]
    # S3 on image tuples: (p q)(x) = p(q(x)), and the inverse sorts the points by image
    symmetric = [(1, 0, 2), (0, 2, 1)]
    symmetric_relators = all(
        evaluate(
            rel,
            symmetric,
            lambda p, q: tuple(p[x] for x in q),
            lambda p: tuple(sorted(range(3), key=p.__getitem__)),
            (0, 1, 2),
        )
        == (0, 1, 2)
        for rel in braid.relators
    )
    symmetric_order = PermGroup(3, symmetric).order
    elapsed = time.perf_counter() - started
    ok = (
        index == 6
        and twisted_relators
        and twisted_targets == [(1, 0), (0, 1)]
        and symmetric_relators
        and symmetric_order == 6
        and elapsed < 1.0
    )
    conclude(
        "two-generator envelope: index and homomorphisms",
        ok,
        f"index={index} in {elapsed:.3f}s",
    )


def test_07_cohomologous_pairs_give_isomorphic_extensions(suite):
    report = suite("7.1")
    c = report["cases"][0]
    ok = report["passed"] and c["trials"] >= 100 and c["failures"] == []
    conclude(
        "cohomologous pairs give isomorphic extensions",
        ok,
        f"{c['trials']} randomized trials",
    )


def test_08_stabilizer_embedding(suite):
    report = suite("7.3")
    names = {c["case"] for c in report["cases"]}
    ok = (
        report["passed"]
        and names
        == {"trivial2.fiber2", "trivial2.fiber3", "dihedral3.fiber2",
            "dihedral3.fiber3"}
        and all(c["injective"] for c in report["cases"])
        and all(c["multiplicative"] for c in report["cases"])
        and all(c["shape_matches_stabilizer"] for c in report["cases"])
    )
    conclude(
        "stabilizer pairs embed into extension automorphisms",
        ok,
        f"cocycles checked: {[c['checked'] for c in report['cases']]}",
    )


def test_09_quasi_inner_groups(suite):
    r5 = quandle.build("dihedral", 5)
    r4 = quandle.build("dihedral", 4)
    qinn5 = quandle.qinn(r5)
    aut5 = quandle.aut(r5)
    inn5 = quandle.inn(r5)
    qinn4 = quandle.qinn(r4)
    inn4 = quandle.inn(r4)
    ok = (
        qinn5.order == aut5.order == 20
        and inn5.order == 10
        and set(qinn5) == set(aut5)
        and set(qinn4) == set(inn4)
        and suite("8.3")["passed"]
        and suite("8.4")["passed"]
    )
    conclude(
        "quasi-inner groups: gap at order 5, collapse at order 4",
        ok,
        f"qinn5={qinn5.order} inn5={inn5.order} qinn4={qinn4.order}",
    )


def test_10_reflection_reports(suite):
    report = suite("5.3")
    names = [c["case"] for c in report["cases"]]
    z4 = case(report, "Z4")
    z6 = case(report, "Z6")
    z2z4 = case(report, "Z2xZ4")
    ok = (
        report["passed"]
        and names == ["Z4", "Z6", "Z8", "Z2xZ4", "Z3xZ4"]
        and all(c["relations_pass"] for c in report["cases"])
        and all(c["translation_count_matches"] for c in report["cases"])
        and z4["inn_order"] == z4["coxeter_order"] == 4
        and z2z4["inn_order"] == z2z4["coxeter_order"] == 4
        and z6["mismatch_flag"]
        and z6["passed"]
    )
    conclude(
        "reflection presentation reports",
        ok,
        f"translation counts {[c['distinct_translations'] for c in report['cases']]}",
    )


def test_11_construction_toolkit(suite):
    maps = suite("9.1")
    glue = suite("9.2")
    swap = case(glue, "three_element_swap_glue")
    double = case(glue, "involutory_double.dihedral3")
    bad = case(glue, "randomized_bad_glue")
    ok = (
        maps["passed"]
        and len(maps["cases"]) == 11
        and glue["passed"]
        and swap["table"] == [[0, 0, 1], [1, 1, 0], [2, 2, 2]]
        and double["passed"]
        and bad["trials"] == 200
        and bad["axiom_failures"] >= ceil(0.95 * bad["trials"])
        and bad["axiom_failures"] + bad["accidentally_valid"] == bad["trials"]
        and bad["inconsistent"] == 0
    )
    conclude(
        "construction toolkit: compatible maps, gluing, corruption",
        ok,
        f"axiom failures {bad['axiom_failures']}/{bad['trials']}",
    )


def test_12_second_cohomology_against_oracle():
    base = quandle.build("trivial", 2)
    factors, reps = cocycle.compute_h2(base, (2,))

    n = base.order
    valid = []
    for bits in product(range(2), repeat=n * n - n):
        it = iter(bits)
        table = [
            [(0,) if x == y else (next(it),) for y in range(n)]
            for x in range(n)
        ]
        try:
            valid.append(cocycle.validate_abelian(base, (2,), table))
        except QuandleKitError:
            continue
    coboundaries = set()
    for lam in product(range(2), repeat=n):
        table = tuple(
            tuple(((lam[x] - lam[base.table[x][y]]) % 2,) for y in range(n))
            for x in range(n)
        )
        coboundaries.add(table)
    quotient_order = len(valid) // len(coboundaries)

    ok = (
        tuple(factors) == (2, 2)
        and len(reps) == 2
        and all(r.moduli == (2,) for r in reps)
        and quotient_order == 4
        and len(coboundaries) == 1
    )
    conclude(
        "second cohomology of the two-element trivial quandle",
        ok,
        f"factors={list(factors)} oracle quotient order {quotient_order}",
    )
