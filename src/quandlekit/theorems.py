"""Named check suites that bundle the library's facts into reports.

Every suite function takes an options dict and returns a JSON-ready report:
the suite id, the effective options, a deterministically ordered list of
per-case dicts, and an overall "passed" flag.  Equal options always produce
equal reports, so the command line can digest them byte for byte.

Suites check exact statements where the statement is exact, and run in
report mode where a known discrepancy exists (the reflection-group suites
record order mismatches instead of asserting them away).
"""

from __future__ import annotations

import itertools
import math
import random

from . import cocycle as cocyclemod
from . import construct as constructmod
from . import envgroup
from . import fingroup
from . import quandle as quandlemod
from .errors import (
    FixedPointHypothesisViolated,
    NotInvolutory,
    QuandleKitError,
    UnsupportedSpec,
)
from .perm import Perm, closure, is_k_transitive
from .quandle import _first_unpreserved

GROUP_CATALOG = (
    "Z2",
    "Z3",
    "Z4",
    "Z5",
    "Z6",
    "Z2xZ2",
    "Z2xZ2xZ2",
    "S3",
    "D4",
    "Q8",
)

DEFAULT_SEED = 20260814


def _opt(options, key, default):
    value = options.get(key)
    return default if value is None else value


def _trials(options, default):
    """The trial count of a randomized suite; one with no trials would check nothing."""
    trials = _opt(options, "trials", default)
    if trials < 1:
        raise QuandleKitError(f"--trials {trials} is below the floor of 1 trial")
    return trials


def _preserves(table, p: Perm) -> bool:
    return _first_unpreserved(table, table, p.images) is None


def _catalog_groups(options):
    """Catalog groups within the order bound, sorted by (order, spec)."""
    max_order = _opt(options, "max_order", 8)
    cap_group = _opt(options, "cap_group", fingroup.DEFAULT_GROUP_CAP)
    picked = []
    for spec in GROUP_CATALOG:
        group = fingroup.make_group(spec, cap=cap_group)
        if group.order <= max_order:
            picked.append((spec, group))
    picked.sort(key=lambda item: (item[1].order, item[0]))
    return picked


def _finish(tid: str, options_used: dict, cases: list) -> dict:
    """The suite report; a sweep its options leave empty is an error, not a pass."""
    options = dict(sorted(options_used.items()))
    if not cases:
        raise QuandleKitError(f"suite {tid} has no cases with options {options}")
    return {
        "id": tid,
        "options": options,
        "cases": cases,
        "passed": all(c.get("passed", False) for c in cases),
    }


# --- enveloping groups -----------------------------------------------------

_BRAID_STYLE = envgroup.Presentation(
    2,
    (
        ((1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1)),
        ((0, 1), (0, 1), (1, -1), (1, -1)),
    ),
)


def _suite_two_generator_envelope(options: dict) -> dict:
    """The order-3 dihedral quandle's enveloping group, in two presentations.

    The three-generator presentation read off the quandle table and the
    two-generator presentation with a braid-style relator must agree on the
    abelianization, on the index of the central-square subgroup, and both
    must map onto the symmetric group on 3 points.
    """
    max_cosets = _opt(options, "cap_order", 10_000)
    r3 = quandlemod.build("dihedral", 3)
    from_table = envgroup.presentation_of(r3)
    cases = []

    free_rank, torsion = envgroup.abelianization(_BRAID_STYLE)
    cases.append(
        {
            "case": "abelianization_two_generators",
            "free_rank": free_rank,
            "torsion": list(torsion),
            "passed": free_rank == 1 and not torsion,
        }
    )
    free_rank, torsion = envgroup.abelianization(from_table)
    cases.append(
        {
            "case": "abelianization_from_table",
            "free_rank": free_rank,
            "torsion": list(torsion),
            "passed": free_rank == 1 and not torsion,
        }
    )

    braid_relator = envgroup.free_reduce(_BRAID_STYLE.relators[0])
    reduced = {envgroup.free_reduce(rel) for rel in _BRAID_STYLE.relators}
    cases.append(
        {
            "case": "braid_relator_present",
            "passed": braid_relator in reduced,
        }
    )

    idx_two = envgroup.todd_coxeter(
        _BRAID_STYLE, subgroup_words=[((0, 1), (0, 1))], max_cosets=max_cosets
    )
    idx_table = envgroup.todd_coxeter(
        from_table, subgroup_words=[((0, 1), (0, 1))], max_cosets=max_cosets
    )
    cases.append(
        {
            "case": "central_square_subgroup_index",
            "index_two_generators": idx_two,
            "index_from_table": idx_table,
            "passed": idx_two == 6 and idx_table == 6,
        }
    )

    model = envgroup.permutation_model(3)
    report = envgroup.verify_hom(
        _BRAID_STYLE,
        model,
        [Perm.transposition(3, 0, 1), Perm.transposition(3, 1, 2)],
        targets=[Perm(p) for p in itertools.permutations(range(3))],
    )
    cases.append(
        {
            "case": "symmetric_image_two_generators",
            "relators_hold": report["relators_hold"],
            "elements_explored": report["elements_explored"],
            "all_targets_reached": report["all_targets_reached"],
            "passed": report["relators_hold"]
            and report["all_targets_reached"]
            and report["elements_explored"] == 6,
        }
    )
    return _finish("3.1", {"cap_order": max_cosets}, cases)


def _suite_abelianization(options: dict) -> dict:
    """Abelianized enveloping groups are free of rank the orbit count."""
    max_order = _opt(options, "max_order", 5)
    cases = []
    for n in range(1, max_order + 1):
        for idx, q in enumerate(quandlemod.enumerate_quandles(n)):
            orbits = len(quandlemod.orbit_partition(q))
            free_rank, torsion = envgroup.abelianization(envgroup.presentation_of(q))
            commutators = envgroup.commutator_generators(q)
            cases.append(
                {
                    "case": f"order{n}.class{idx}",
                    "orbits": orbits,
                    "free_rank": free_rank,
                    "torsion": list(torsion),
                    "commutator_generators": len(commutators),
                    "passed": free_rank == orbits
                    and not torsion
                    and len(commutators) <= n * n,
                }
            )
    return _finish("3.3", {"max_order": max_order}, cases)


# --- conjugation quandles --------------------------------------------------


def _conj_survey(options):
    """Shared sweep data: aut orders of group and conjugation quandle."""
    rows = []
    for spec, group in _catalog_groups(options):
        cap_order = _opt(options, "cap_order", max(quandlemod.DEFAULT_AUT_CAP, group.order))
        q = fingroup.conj_quandle(group)
        rows.append(
            {
                "spec": spec,
                "group": group,
                "quandle": q,
                "center": fingroup.center(group),
                "aut_group_order": fingroup.automorphism_group(group).order,
                "aut_conj_order": quandlemod.aut(q, cap=cap_order).order,
            }
        )
    return rows


def _suite_center_swap(options: dict) -> dict:
    """A nontrivial center forces extra conjugation-quandle automorphisms.

    Swapping the identity with a central element while fixing the rest is
    an automorphism of the conjugation quandle, never of the group, so the
    two automorphism groups differ whenever the center is nontrivial.
    """
    cases = []
    for row in _conj_survey(options):
        group, q = row["group"], row["quandle"]
        nontrivial = len(row["center"]) > 1
        case = {
            "case": row["spec"],
            "center_order": len(row["center"]),
            "aut_group_order": row["aut_group_order"],
            "aut_conj_order": row["aut_conj_order"],
            "hypothesis_holds": nontrivial,
        }
        if not nontrivial:
            case["passed"] = True
        else:
            e = group.identity
            a = min(x for x in row["center"] if x != e)
            images = list(range(group.order))
            images[e], images[a] = a, e
            swap = Perm(images)
            swap_ok = _preserves(q.table, swap)
            case["swap_is_automorphism"] = swap_ok
            case["passed"] = swap_ok and row["aut_conj_order"] > row["aut_group_order"]
        cases.append(case)
    return _finish("4.3", {"max_order": _opt(options, "max_order", 8)}, cases)


def _suite_conj_aut_equality(options: dict) -> dict:
    """Group and conjugation-quandle automorphisms agree iff the center is trivial."""
    cases = []
    for row in _conj_survey(options):
        equal = row["aut_conj_order"] == row["aut_group_order"]
        expected = len(row["center"]) == 1
        cases.append(
            {
                "case": row["spec"],
                "center_order": len(row["center"]),
                "aut_group_order": row["aut_group_order"],
                "aut_conj_order": row["aut_conj_order"],
                "equality_observed": equal,
                "equality_expected": expected,
                "passed": equal == expected,
            }
        )
    return _finish("4.4", {"max_order": _opt(options, "max_order", 8)}, cases)


def _suite_conj_direct_product(options: dict) -> dict:
    """When |Aut(Conj(G))| equals |Aut(G)| times factorial of the center size.

    Equality is expected exactly for trivial-center groups and the 2-element
    cyclic group; every other catalog group must break it.
    """
    cases = []
    for row in _conj_survey(options):
        group = row["group"]
        z = len(row["center"])
        bound = row["aut_group_order"] * math.factorial(z)
        equal = row["aut_conj_order"] == bound
        expected = z == 1 or group.order == 2
        cases.append(
            {
                "case": row["spec"],
                "aut_conj_order": row["aut_conj_order"],
                "product_order": bound,
                "equality_observed": equal,
                "equality_expected": expected,
                "passed": equal == expected,
            }
        )
    return _finish("4.5", {"max_order": _opt(options, "max_order", 8)}, cases)


def _suite_conj_semidirect(options: dict) -> dict:
    """When |Aut(Conj(G))| equals |Z(G)| times |Aut(G)|.

    Equality is expected exactly for trivial-center groups and for the
    abelian groups of order 2, 3 and the Klein four-group.
    """
    cases = []
    for row in _conj_survey(options):
        group = row["group"]
        z = len(row["center"])
        bound = z * row["aut_group_order"]
        equal = row["aut_conj_order"] == bound
        small_abelian = group.order == 2 or group.order == 3 or (
            group.order == 4 and fingroup.exponent(group) == 2
        )
        expected = z == 1 or small_abelian
        cases.append(
            {
                "case": row["spec"],
                "aut_conj_order": row["aut_conj_order"],
                "semidirect_order": bound,
                "equality_observed": equal,
                "equality_expected": expected,
                "passed": equal == expected,
            }
        )
    return _finish("4.6", {"max_order": _opt(options, "max_order", 8)}, cases)


# --- core and doubled-cyclic quandles --------------------------------------


def _central_translations(group):
    return [
        (a, Perm(tuple(group.table[a][x] for x in range(group.order))))
        for a in fingroup.center(group)
    ]


def _suite_core_subgroup(options: dict) -> dict:
    """Central translations and group automorphisms act on the core quandle.

    Together they generate a subgroup of the expected product order inside
    the core quandle's automorphism group, with the translations forming a
    normal subgroup permuted by the automorphisms.
    """
    cases = []
    for spec, group in _catalog_groups(options):
        cap_order = _opt(options, "cap_order", max(quandlemod.DEFAULT_AUT_CAP, group.order))
        core = fingroup.core_quandle(group)
        autg = fingroup.automorphism_group(group)
        translations = _central_translations(group)
        members_ok = all(_preserves(core.table, p) for p in autg.elements) and all(
            _preserves(core.table, p) for _, p in translations
        )
        transported = all(
            phi * p * phi.inverse() == Perm(tuple(group.table[phi(a)][x] for x in range(group.order)))
            for phi in autg.elements
            for a, p in translations
        )
        gens = list(autg.generators) + [p for _, p in translations]
        sub = closure(gens, degree=group.order)
        expected = len(translations) * autg.order
        total = quandlemod.aut(core, cap=cap_order).order
        cases.append(
            {
                "case": spec,
                "center_order": len(translations),
                "aut_group_order": autg.order,
                "subgroup_order": sub.order,
                "aut_core_order": total,
                "passed": members_ok
                and transported
                and sub.order == expected
                and total % sub.order == 0,
            }
        )
    return _finish("5.1", {"max_order": _opt(options, "max_order", 8)}, cases)


def _odd_components(options):
    max_order = _opt(options, "max_order", 8)
    specs = [(3,), (5,), (7,), (9,), (3, 3)]
    picked = [c for c in specs if math.prod(c) <= max_order]
    picked.sort(key=lambda c: (math.prod(c), c))
    return picked


def _suite_odd_takasaki(options: dict) -> dict:
    """Structure of 2y - x quandles over odd cyclic sums.

    The automorphism group is carrier-by-automorphisms as a semidirect
    product and the inner group is the carrier extended by negation; both
    are checked by explicit isomorphism, not just by order.
    """
    cap_order = _opt(options, "cap_order", quandlemod.DEFAULT_AUT_CAP)
    cases = []
    for components in _odd_components(options):
        group = fingroup.cyclic_group(components[0])
        for c in components[1:]:
            group = fingroup.direct_product_group(group, fingroup.cyclic_group(c))
        q = quandlemod.takasaki_quandle(components)
        autg = fingroup.automorphism_group(group)
        aut_q = quandlemod.aut(q, cap=max(cap_order, 0))
        inn_q = quandlemod.inn(q)

        acting = fingroup.from_permgroup(autg)
        semidirect_full = fingroup.semidirect(group, acting, list(autg.elements))
        aut_match = fingroup.is_isomorphic(
            fingroup.from_permgroup(aut_q), semidirect_full
        )

        negation = Perm(tuple(group.inv(x) for x in range(group.order)))
        semidirect_inner = fingroup.semidirect(
            group,
            fingroup.cyclic_group(2),
            [Perm.identity(group.order), negation],
        )
        inn_match = fingroup.is_isomorphic(
            fingroup.from_permgroup(inn_q), semidirect_inner
        )
        cases.append(
            {
                "case": "x".join(f"Z{c}" for c in components),
                "aut_order": aut_q.order,
                "expected_aut_order": group.order * autg.order,
                "inn_order": inn_q.order,
                "expected_inn_order": 2 * group.order,
                "aut_isomorphic_to_semidirect": aut_match,
                "inn_isomorphic_to_semidirect": inn_match,
                "passed": aut_q.order == group.order * autg.order
                and inn_q.order == 2 * group.order
                and aut_match
                and inn_match,
            }
        )
    return _finish(
        "5.2",
        {"max_order": _opt(options, "max_order", 8), "cap_order": cap_order},
        cases,
    )


_REFLECTION_SPECS = ((4,), (6,), (8,), (2, 4), (3, 4))


def _reflection_case(components) -> dict:
    report = quandlemod.coxeter_report(components)
    case = dict(report)
    case["case"] = "x".join(f"Z{c}" for c in components)
    case["passed"] = report["relations_pass"] and report["doubling_rule_matches"]
    return case


def _suite_reflection_report(options: dict) -> dict:
    """Report-mode comparison of inner groups with reflection groups.

    Involution and braid-style relations plus the translation-count rules
    must hold; order mismatches with the comparison group are recorded via
    the mismatch flag and do not fail the suite.
    """
    cases = [_reflection_case(c) for c in _REFLECTION_SPECS]
    return _finish("5.3", {}, cases)


def _suite_even_dihedral_reflection(options: dict) -> dict:
    """The doubled-cyclic special case of the reflection-group report.

    For the 2n-element dihedral quandle the report must count n distinct
    translations with relation exponent n; order comparisons stay report
    mode for the same reason as the general suite.
    """
    max_order = _opt(options, "max_order", 10)
    cases = []
    for n in range(3, max_order // 2 + 1):
        case = _reflection_case((2 * n,))
        case["expected_generators"] = n
        case["passed"] = (
            case["passed"]
            and case["distinct_translations"] == n
            and case["relation_exponent"] == n
        )
        cases.append(case)
    return _finish("5.4", {"max_order": max_order}, cases)


def _suite_elementary_inner(options: dict) -> dict:
    """Inner groups of order-4 cyclic powers are elementary abelian.

    For k components the quandle has 2^k distinct translations, all
    commuting involutions, so the inner group is elementary abelian.  The
    comparison group of order 2^(2^k) is only an upper bound: for k = 2 the
    four generators multiply out to the identity and the inner group is a
    proper quotient, so the order comparison stays report mode.
    """
    max_k = _opt(options, "max_order", 2)
    cases = []
    for k in range(1, max_k + 1):
        q = quandlemod.takasaki_quandle((4,) * k)
        gens = quandlemod.inner_generators(q)
        involutions = all((p * p).is_identity() for _, p in gens)
        commuting = all(
            p1 * p2 == p2 * p1 for _, p1 in gens for _, p2 in gens
        )
        order = quandlemod.inn(q).order
        elementary = involutions and commuting
        cases.append(
            {
                "case": f"k{k}",
                "distinct_translations": len(gens),
                "inn_order": order,
                "all_involutions": involutions,
                "all_commute": commuting,
                "comparison_order": 2 ** (2**k),
                "orders_match": order == 2 ** (2**k),
                "mismatch_flag": order != 2 ** (2**k),
                "passed": len(gens) == 2**k and elementary,
            }
        )
    return _finish("5.5", {"max_order": max_k}, cases)


def _suite_r4_aut_structure(options: dict) -> dict:
    """The 4-element dihedral quandle's automorphism group, pinned exactly.

    It has order 8, is the Klein four-group extended by a component swap,
    and the explicit pairwise swap is an outer automorphism conjugating one
    translation generator to the other.
    """
    q = quandlemod.build("dihedral", 4)
    aut_q = quandlemod.aut(q)
    inn_q = quandlemod.inn(q)
    klein = fingroup.direct_product_group(
        fingroup.cyclic_group(2), fingroup.cyclic_group(2)
    )
    swap_components = Perm((0, 2, 1, 3))
    model = fingroup.semidirect(
        klein, fingroup.cyclic_group(2), [Perm.identity(4), swap_components]
    )
    iso = fingroup.is_isomorphic(fingroup.from_permgroup(aut_q), model)

    phi = Perm((1, 0, 3, 2))
    s0 = Perm(tuple(q.table[x][0] for x in range(4)))
    s1 = Perm(tuple(q.table[x][1] for x in range(4)))
    cases = [
        {
            "case": "aut_order",
            "aut_order": aut_q.order,
            "passed": aut_q.order == 8,
        },
        {
            "case": "isomorphic_to_wreath_style_product",
            "passed": iso,
        },
        {
            "case": "pairwise_swap_is_outer",
            "in_aut": phi in aut_q,
            "in_inn": phi in inn_q,
            "passed": phi in aut_q and phi not in inn_q,
        },
        {
            "case": "swap_conjugates_translations",
            "passed": phi * s0 * phi.inverse() == s1,
        },
    ]
    return _finish("5.6", {}, cases)


def _suite_orbit_swap(options: dict) -> dict:
    """Swapping the two orbits of an even dihedral quandle pairwise.

    The map a(2i) <-> a(2i+1) is an automorphism exactly for carriers of
    size 2 and 4; larger even dihedral quandles reject it, so permuting
    orbits is not automatically an automorphism.
    """
    max_n = _opt(options, "max_order", 10)
    cases = []
    for n in range(1, max_n // 2 + 1):
        q = quandlemod.build("dihedral", 2 * n)
        images = []
        for i in range(0, 2 * n, 2):
            images.extend((i + 1, i))
        swap = Perm(images)
        observed = _preserves(q.table, swap)
        expected = n <= 2
        cases.append(
            {
                "case": f"order{2 * n}",
                "swap_is_automorphism": observed,
                "expected": expected,
                "passed": observed == expected,
            }
        )
    return _finish("5.7", {"max_order": max_n}, cases)


# --- transitivity ----------------------------------------------------------


def _suite_three_transitive(options: dict) -> dict:
    """Quandles whose automorphism group is 3-transitive, by exhaustion.

    Over all isomorphism classes up to the order bound, 3-transitivity,
    having the full symmetric group as automorphisms, and being trivial or
    the 3-element dihedral quandle are one and the same condition.  The
    inner group is additionally never 3-transitive from order 4 on.
    """
    max_order = _opt(options, "max_order", 5)
    inner_max = _opt(options, "cap_order", 6)
    r3 = quandlemod.build("dihedral", 3)
    cases = []
    for n in range(1, max_order + 1):
        for idx, q in enumerate(quandlemod.enumerate_quandles(n)):
            trivial = all(q.table[x][y] == x for x in range(n) for y in range(n))
            named = trivial or quandlemod.is_isomorphic(q, r3)
            aut_q = quandlemod.aut(q)
            full = aut_q.order == math.factorial(n)
            three = is_k_transitive(aut_q, 3)
            cases.append(
                {
                    "case": f"order{n}.class{idx}",
                    "named_class": named,
                    "full_symmetric": full,
                    "three_transitive": three,
                    "passed": named == full == three,
                }
            )
    for n in range(4, inner_max + 1):
        bad = 0
        total = 0
        for q in quandlemod.enumerate_quandles(n):
            total += 1
            if is_k_transitive(quandlemod.inn(q), 3):
                bad += 1
        cases.append(
            {
                "case": f"inner_order{n}",
                "classes": total,
                "inner_three_transitive": bad,
                "passed": bad == 0,
            }
        )
    return _finish(
        "6.3", {"max_order": max_order, "cap_order": inner_max}, cases
    )


# --- extensions ------------------------------------------------------------


def _extension_bases():
    return [
        ("trivial2", quandlemod.build("trivial", 2)),
        ("trivial3", quandlemod.build("trivial", 3)),
        ("trivial4", quandlemod.build("trivial", 4)),
        ("dihedral3", quandlemod.build("dihedral", 3)),
        ("dihedral4", quandlemod.build("dihedral", 4)),
    ]


def _cocycle_pool(base, fiber_size):
    """A few valid cocycles to seed randomized twisting."""
    pool = [cocyclemod.trivial_cocycle(base, fiber_size)]
    n = base.order
    identity = Perm.identity(fiber_size)
    for images in itertools.permutations(range(fiber_size)):
        c = Perm(images)
        if c.is_identity():
            continue
        table = tuple(
            tuple(identity if x == y else c for y in range(n)) for x in range(n)
        )
        try:
            pool.append(cocyclemod.validate_constant(base, fiber_size, table))
        except Exception:
            continue
    return pool


def _twist(alpha, lam):
    """The cocycle obtained by sliding alpha along a fiber-permutation map."""
    n = alpha.base.order
    t = alpha.base.table
    table = tuple(
        tuple(lam[t[x][y]] * alpha.table[x][y] * lam[x].inverse() for y in range(n))
        for x in range(n)
    )
    return cocyclemod.validate_constant(alpha.base, alpha.fiber_size, table)


def _suite_cohomologous_extensions(options: dict) -> dict:
    """Cohomologous cocycles give isomorphic extensions, with the map shown.

    Each trial twists a valid cocycle by a random per-element fiber
    permutation, asks the search for a witness, and verifies the explicit
    isomorphism (x, t) -> (x, lambda_x(t)) entry by entry.
    """
    trials = _trials(options, 120)
    seed = _opt(options, "seed", DEFAULT_SEED)
    rng = random.Random(seed)
    bases = _extension_bases()
    fiber_perms = {s: [Perm(p) for p in itertools.permutations(range(s))] for s in (2, 3)}
    pools = {
        (name, s): _cocycle_pool(q, s) for name, q in bases for s in (2, 3)
    }
    base_auts = {name: quandlemod.aut(q).elements for name, q in bases}
    failures = []
    for trial in range(trials):
        name, base = bases[rng.randrange(len(bases))]
        s = rng.choice((2, 3))
        pool = pools[(name, s)]
        alpha = pool[rng.randrange(len(pool))]
        auts = base_auts[name]
        alpha = cocyclemod.act(
            auts[rng.randrange(len(auts))],
            fiber_perms[s][rng.randrange(len(fiber_perms[s]))],
            alpha,
        )
        lam = tuple(
            fiber_perms[s][rng.randrange(len(fiber_perms[s]))]
            for _ in range(base.order)
        )
        beta = _twist(alpha, lam)
        witness = cocyclemod.are_cohomologous(alpha, beta)
        ext_a = cocyclemod.extend(alpha)
        ext_b = cocyclemod.extend(beta)
        f = Perm(
            tuple(
                (i // s) * s + lam[i // s](i % s) for i in range(base.order * s)
            )
        )
        explicit_ok = _first_unpreserved(ext_a.table, ext_b.table, f.images) is None
        if witness is None or not explicit_ok:
            failures.append(
                {"trial": trial, "base": name, "fiber": s, "witness_found": witness is not None}
            )
    cases = [
        {
            "case": "randomized_twists",
            "trials": trials,
            "failures": failures,
            "passed": not failures,
        }
    ]
    return _finish("7.1", {"trials": trials, "seed": seed}, cases)


def _suite_stabilizer_embedding(options: dict) -> dict:
    """Stabilizer pairs embed into the extension's automorphism group.

    For every valid cocycle up to the cap, the pairwise map is injective
    and multiplicative, and a coordinate-shaped bijection is an extension
    automorphism exactly when its pair fixes the cocycle.
    """
    max_cocycles = _opt(options, "cap_order", 40)
    corpus = [
        ("trivial2", quandlemod.build("trivial", 2)),
        ("dihedral3", quandlemod.build("dihedral", 3)),
    ]
    cases = []
    for name, base in corpus:
        base_aut = quandlemod.aut(base).elements
        for s in (2, 3):
            found = cocyclemod.all_constant_cocycles(base, s)
            kept = found[:max_cocycles]
            fiber_perms = [Perm(p) for p in itertools.permutations(range(s))]
            injective = True
            multiplicative = True
            converse = True
            for alpha in kept:
                stab = cocyclemod.cocycle_stabilizer(alpha)
                gammas = {pair: cocyclemod.embed(pair, alpha) for pair in stab}
                if len(set(gammas.values())) != len(stab):
                    injective = False
                for p1 in stab:
                    for p2 in stab:
                        product = (p1[0] * p2[0], p1[1] * p2[1])
                        if gammas[product] != gammas[p1] * gammas[p2]:
                            multiplicative = False
                ext = cocyclemod.extend(alpha)
                members = set(stab)
                for phi in base_aut:
                    for theta in fiber_perms:
                        gamma = Perm(
                            tuple(
                                phi(i // s) * s + theta(i % s)
                                for i in range(base.order * s)
                            )
                        )
                        if _preserves(ext.table, gamma) != ((phi, theta) in members):
                            converse = False
            cases.append(
                {
                    "case": f"{name}.fiber{s}",
                    "valid_cocycles": len(found),
                    "checked": len(kept),
                    "injective": injective,
                    "multiplicative": multiplicative,
                    "shape_matches_stabilizer": converse,
                    "passed": injective and multiplicative and converse,
                }
            )
    return _finish("7.3", {"cap_order": max_cocycles}, cases)


# --- quasi-inner automorphisms ----------------------------------------------


def _suite_connected_quasi_inner(options: dict) -> dict:
    """On connected quandles every automorphism is quasi-inner."""
    max_order = _opt(options, "max_order", 5)
    cases = []
    for n in range(1, max_order + 1):
        for idx, q in enumerate(quandlemod.enumerate_quandles(n)):
            if not quandlemod.is_connected(q):
                continue
            aut_q = quandlemod.aut(q)
            qinn_q = quandlemod.qinn(q)
            cases.append(
                {
                    "case": f"order{n}.class{idx}",
                    "aut_order": aut_q.order,
                    "qinn_order": qinn_q.order,
                    "passed": qinn_q.order == aut_q.order,
                }
            )
    return _finish("8.2", {"max_order": max_order}, cases)


def _suite_quasi_inner_gap(options: dict) -> dict:
    """Odd dihedral quandles from order 5 have non-inner quasi-inner maps."""
    max_order = _opt(options, "max_order", 7)
    cases = []
    for n in range(5, max_order + 1, 2):
        q = quandlemod.build("dihedral", n)
        inn_q = quandlemod.inn(q)
        aut_q = quandlemod.aut(q, cap=max(quandlemod.DEFAULT_AUT_CAP, n))
        qinn_q = quandlemod.qinn(q, cap=max(quandlemod.DEFAULT_AUT_CAP, n))
        cases.append(
            {
                "case": f"order{n}",
                "inn_order": inn_q.order,
                "qinn_order": qinn_q.order,
                "aut_order": aut_q.order,
                "passed": inn_q.order == 2 * n
                and qinn_q.order == aut_q.order
                and inn_q.order < qinn_q.order,
            }
        )
    return _finish("8.3", {"max_order": max_order}, cases)


def _suite_r4_quasi_inner(options: dict) -> dict:
    """For the 4-element dihedral quandle quasi-inner means inner.

    The outer pairwise swap is an automorphism but fails both quasi-inner
    tests, so the quasi-inner group collapses onto the inner one.
    """
    q = quandlemod.build("dihedral", 4)
    inn_q = quandlemod.inn(q)
    aut_q = quandlemod.aut(q)
    qinn_q = quandlemod.qinn(q)
    phi = Perm((1, 0, 3, 2))
    same = qinn_q.order == inn_q.order and all(g in inn_q for g in qinn_q.elements)
    cases = [
        {
            "case": "groups_coincide",
            "inn_order": inn_q.order,
            "qinn_order": qinn_q.order,
            "passed": same,
        },
        {
            "case": "outer_swap_not_quasi_inner",
            "in_aut": phi in aut_q,
            "weak_sense": phi in qinn_q,
            "strong_sense": quandlemod.is_quasi_inner_strong(q, phi),
            "passed": phi in aut_q
            and phi not in qinn_q
            and not quandlemod.is_quasi_inner_strong(q, phi),
        },
    ]
    return _finish("8.4", {}, cases)


# --- constructions ----------------------------------------------------------


def _suite_compatible_maps(options: dict) -> dict:
    """Quandles built from per-element automorphism assignments.

    The identity assignment reproduces the trivial quandle and the
    conjugation assignment reproduces the conjugation quandle on every
    catalog group; a compatible assignment without fixed points is
    rejected by the fixed-point check.
    """
    cases = []
    for spec, group in _catalog_groups(options):
        n = group.order
        identity = [Perm.identity(n)] * n
        ok_id, _ = constructmod.is_compatible(group, identity)
        from_id = constructmod.quandle_from_compatible(group, identity)
        trivial_ok = all(from_id.table[x][y] == x for x in range(n) for y in range(n))

        inner = constructmod.inner_assignment(group)
        ok_inner, _ = constructmod.is_compatible(group, inner)
        from_inner = constructmod.quandle_from_compatible(group, inner)
        conj_ok = from_inner.table == fingroup.conj_quandle(group, -1).table
        cases.append(
            {
                "case": spec,
                "identity_compatible": ok_id,
                "identity_gives_trivial": trivial_ok,
                "inner_compatible": ok_inner,
                "inner_gives_conjugation": conj_ok,
                "passed": ok_id and trivial_ok and ok_inner and conj_ok,
            }
        )

    z3 = fingroup.cyclic_group(3)
    inversion = Perm((0, 2, 1))
    assignment = [Perm.identity(3), inversion, inversion]
    compatible, _ = constructmod.is_compatible(z3, assignment)
    try:
        constructmod.quandle_from_compatible(z3, assignment)
        rejected = False
    except FixedPointHypothesisViolated:
        rejected = True
    cases.append(
        {
            "case": "Z3-inversion-fixed-point",
            "compatible": compatible,
            "rejected": rejected,
            "passed": compatible and rejected,
        }
    )
    return _finish("9.1", {"max_order": _opt(options, "max_order", 8)}, cases)


_JOYCE_TABLE = ((0, 2, 0), (1, 1, 1), (2, 0, 2))


def _suite_union_gluing(options: dict) -> dict:
    """Gluing two quandles along automorphism maps, and what breaks it.

    The three-element example with a swap glue reproduces Joyce's table,
    translation doubles of involutory quandles validate, a non-involutory
    carrier is rejected, and random bad glue data fails the distributivity
    axiom nearly always (accidental survivors are re-validated).
    """
    trials = _trials(options, 200)
    seed = _opt(options, "seed", DEFAULT_SEED)
    cases = []

    two = quandlemod.build("trivial", 2)
    one = quandlemod.build("trivial", 1)
    spec = constructmod.make_union_spec(
        two, one, [Perm.identity(1), Perm.identity(1)], [Perm((1, 0))]
    )
    glued = constructmod.union_quandle(spec)
    expected = ((0, 0, 1), (1, 1, 0), (2, 2, 2))
    joyce = quandlemod.Quandle.from_table([list(r) for r in _JOYCE_TABLE])
    cases.append(
        {
            "case": "three_element_swap_glue",
            "table": [list(r) for r in glued.table],
            "passed": tuple(tuple(r) for r in glued.table) == expected
            and quandlemod.is_isomorphic(glued, joyce),
        }
    )

    for name, q in (("dihedral3", quandlemod.build("dihedral", 3)),
                    ("dihedral4", quandlemod.build("dihedral", 4))):
        doubled = constructmod.involutory_double(q)
        cases.append(
            {
                "case": f"involutory_double.{name}",
                "order": doubled.order,
                "passed": doubled.order == 2 * q.order,
            }
        )

    conj_s3 = fingroup.conj_quandle(fingroup.symmetric_group_table(3))
    try:
        constructmod.involutory_double(conj_s3)
        rejected = False
    except NotInvolutory:
        rejected = True
    cases.append({"case": "non_involutory_rejected", "passed": rejected})

    rng = random.Random(seed)
    q1 = quandlemod.build("dihedral", 3)
    q2 = quandlemod.build("dihedral", 4)
    aut1 = quandlemod.aut(q1).elements
    aut2 = quandlemod.aut(q2).elements
    axiom_failures = 0
    accidental = 0
    broken = 0
    for _ in range(trials):
        sigma = [aut2[rng.randrange(len(aut2))] for _ in range(q1.order)]
        tau = [aut1[rng.randrange(len(aut1))] for _ in range(q2.order)]
        try:
            constructmod.union_quandle(constructmod.make_union_spec(q1, q2, sigma, tau))
            accidental += 1
            continue
        except Exception:
            pass
        table = constructmod.assemble_union_table(q1, q2, sigma, tau)
        try:
            quandlemod.Quandle.from_table(table)
            broken += 1
        except Exception:
            axiom_failures += 1
    rejected_specs = trials - accidental
    cases.append(
        {
            "case": "randomized_bad_glue",
            "trials": trials,
            "condition_failures": rejected_specs,
            "axiom_failures": axiom_failures,
            "accidentally_valid": accidental,
            "inconsistent": broken,
            "passed": broken == 0 and axiom_failures >= math.ceil(0.95 * trials),
        }
    )
    return _finish("9.2", {"trials": trials, "seed": seed}, cases)


CATALOG = {
    "3.1": _suite_two_generator_envelope,
    "3.3": _suite_abelianization,
    "4.3": _suite_center_swap,
    "4.4": _suite_conj_aut_equality,
    "4.5": _suite_conj_direct_product,
    "4.6": _suite_conj_semidirect,
    "5.1": _suite_core_subgroup,
    "5.2": _suite_odd_takasaki,
    "5.3": _suite_reflection_report,
    "5.4": _suite_even_dihedral_reflection,
    "5.5": _suite_elementary_inner,
    "5.6": _suite_r4_aut_structure,
    "5.7": _suite_orbit_swap,
    "6.3": _suite_three_transitive,
    "7.1": _suite_cohomologous_extensions,
    "7.3": _suite_stabilizer_embedding,
    "8.2": _suite_connected_quasi_inner,
    "8.3": _suite_quasi_inner_gap,
    "8.4": _suite_r4_quasi_inner,
    "9.1": _suite_compatible_maps,
    "9.2": _suite_union_gluing,
}


def run_suite(tid: str, options: dict | None = None) -> dict:
    """Run one catalog suite and return its report."""
    if tid not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise UnsupportedSpec(f"unknown suite id {tid!r}; known ids: {known}")
    return CATALOG[tid](options or {})
