"""Named check suites that bundle the library's facts into reports.

Each `CATALOG` entry declares a suite: the function that lists its cases
and the options its report names, with their defaults.  `run_suite` fills
in the defaults and returns a JSON-ready report: the suite id, the
effective options, a deterministically ordered list of per-case dicts, and
an overall "passed" flag.  Equal options always produce equal reports, so
the command line can digest them byte for byte.  A suite whose cases share
one shape is a `_sweep`: a list of (case name, input) pairs and one check
per input.

Suites check exact statements where the statement is exact, and run in
report mode where a known discrepancy exists (the reflection-group suites
record order mismatches instead of asserting them away).
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from . import cocycle as cocyclemod
from . import construct as constructmod
from . import envgroup
from . import fingroup
from . import quandle as quandlemod
from .errors import (
    CapExceeded,
    FixedPointHypothesisViolated,
    NotInvolutory,
    QuandleKitError,
    UnsupportedSpec,
    _cap_flag,
)
from .perm import Perm, PermGroup, _compose, _cycle_type, _invert
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

# Catalog groups of order 9 to 24.  `_catalog_groups` builds them only when
# the order bound exceeds 8, the largest order in GROUP_CATALOG, so the
# default sweep never pays for their tables.
LARGER_GROUP_CATALOG = (
    "Z3xZ3", "D5", "D6", "Z2xS3", "Z3xS3", "Z2xD4",
    "Z2xQ8", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ2xZ2", "S4",
)

DEFAULT_SEED = 20260814


def _sweep(items, check):
    """A suite with one case per (name, input) pair of `items(options)`; `check` makes the rest."""
    return lambda options: [{"case": name, **check(value, options)} for name, value in items(options)]


def _cyclic_sum_name(components) -> str:
    return "x".join(f"Z{c}" for c in components)


def _preserves(table, images) -> bool:
    return _first_unpreserved(table, table, images) is None


def _catalog_groups(options):
    """Items (spec, group) for the catalog groups within the order bound, sorted by (order, spec)."""
    max_order = options["max_order"]
    cap_group = options.get("cap_group", fingroup.DEFAULT_GROUP_CAP)
    specs = GROUP_CATALOG + (LARGER_GROUP_CATALOG if max_order > 8 else ())
    picked = []
    with _cap_flag("--cap-group"):
        for spec in specs:
            group = fingroup.make_group(spec, cap=cap_group)
            if group.order <= max_order:
                picked.append((spec, group))
    picked.sort(key=lambda item: (item[1].order, item[0]))
    return picked


def _check_cap_group(options, orders) -> None:
    """Refuse a sweep before it builds anything if one of its ascending orders exceeds the cap."""
    cap = options.get("cap_group", fingroup.DEFAULT_GROUP_CAP)
    over = next((m for m in orders if m > cap), None)
    if over is not None:
        with _cap_flag("--cap-group"):
            raise CapExceeded(f"quandle order {over} exceeds the construction cap {cap}")


def _dihedral_orders(first: int, name_format: str):
    """Items (name, m) for the dihedral quandles of orders m = first, first + 2, ... up to `--max-order`."""
    def items(options):
        orders = range(first, options["max_order"] + 1, 2)
        _check_cap_group(options, orders)
        return [(name_format.format(m), m) for m in orders]
    return items


# --- enveloping groups -----------------------------------------------------

_BRAID_STYLE = envgroup.Presentation(
    2,
    (
        ((1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1)),
        ((0, 1), (0, 1), (1, -1), (1, -1)),
    ),
)


def _suite_two_generator_envelope(options: dict) -> list:
    """The order-3 dihedral quandle's enveloping group, in two presentations.

    The three-generator presentation read off the quandle table and the
    two-generator presentation with a braid-style relator must agree on the
    abelianization and on the index of the central-square subgroup.  Two
    transpositions must satisfy the two-generator relators and generate the
    symmetric group on 3 points, whose order the stabilizer chain of
    `PermGroup` decides.
    """
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

    a, b, a_inv, b_inv = ((0, 1),), ((1, 1),), ((0, -1),), ((1, -1),)
    braid_relator = envgroup.free_reduce(b + a + b + a_inv + b_inv + a_inv)
    reduced = {envgroup.free_reduce(rel) for rel in _BRAID_STYLE.relators}
    cases.append(
        {
            "case": "braid_relator_present",
            "passed": braid_relator in reduced,
        }
    )

    with _cap_flag("--cap-order"):
        idx_two, idx_table = (
            envgroup.todd_coxeter(p, subgroup_words=[a + a], max_cosets=options["cap_order"])
            for p in (_BRAID_STYLE, from_table)
        )
    cases.append(
        {
            "case": "central_square_subgroup_index",
            "index_two_generators": idx_two,
            "index_from_table": idx_table,
            "passed": idx_two == 6 and idx_table == 6,
        }
    )

    images = [(1, 0, 2), (0, 2, 1)]
    letters = {(g, e): x if e > 0 else _invert(x) for g, x in enumerate(images) for e in (1, -1)}
    relators_hold = all(
        functools.reduce(_compose, map(letters.get, rel)) == (0, 1, 2)
        for rel in _BRAID_STYLE.relators
    )
    image = PermGroup(3, images)
    cases.append(
        {
            "case": "symmetric_image_two_generators",
            "relators_hold": relators_hold,
            "elements_explored": image.order,
            "all_targets_reached": image.order == 6,
            "passed": relators_hold and image.order == 6,
        }
    )
    return cases


def _classes(options):
    """Items (name, quandle) for every isomorphism class of order 1 to `--max-order`."""
    cap = options.get("cap_order", quandlemod.DEFAULT_ENUM_CAP)
    for n in range(1, options["max_order"] + 1):
        with _cap_flag("--cap-order"):
            classes = quandlemod.enumerate_quandles(n, cap)
        for idx, q in enumerate(classes):
            yield f"order{n}.class{idx}", q


def _abelianization_case(q, options) -> dict:
    """Abelianized enveloping groups are free of rank the orbit count.

    Each commutator-subgroup generator must lie in the kernel of the map
    As(Q) -> Z^orbits, that is, have exponent sum zero on every orbit.
    """
    partition = quandlemod.orbit_partition(q)
    orbit_of = {x: k for k, block in enumerate(partition) for x in block}
    free_rank, torsion = envgroup.abelianization(envgroup.presentation_of(q))
    commutators = envgroup.commutator_generators(q)
    in_kernel = True
    for word in commutators:
        sums = [0] * len(partition)
        for g, e in word:
            sums[orbit_of[g]] += e
        in_kernel &= not any(sums)
    return {
        "orbits": len(partition),
        "free_rank": free_rank,
        "torsion": list(torsion),
        "commutator_generators": len(commutators),
        "passed": free_rank == len(partition) and not torsion and in_kernel,
    }


# --- conjugation quandles --------------------------------------------------


def _conj_survey(options):
    """Items (spec, row) per catalog group: aut orders of group and conjugation quandle."""
    for spec, group in _catalog_groups(options):
        cap_order = options.get("cap_order", max(quandlemod.DEFAULT_AUT_CAP, group.order))
        q = fingroup.conj_quandle(group)
        with _cap_flag("--cap-order"):
            aut_conj_order = quandlemod.aut(q, cap=cap_order).order
        yield spec, {
            "group": group,
            "quandle": q,
            "center": fingroup.center(group),
            "aut_group_order": fingroup.automorphism_group(group).order,
            "aut_conj_order": aut_conj_order,
        }


def _center_swap_case(row, options) -> dict:
    """A nontrivial center forces extra conjugation-quandle automorphisms.

    Swapping the identity with a central element while fixing the rest is
    an automorphism of the conjugation quandle, never of the group, so the
    two automorphism groups differ whenever the center is nontrivial.
    """
    group, q = row["group"], row["quandle"]
    nontrivial = len(row["center"]) > 1
    case = {
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
        swap = tuple({e: a, a: e}.get(x, x) for x in range(group.order))
        swap_ok = _preserves(q.table, swap)
        case["swap_is_automorphism"] = swap_ok
        case["passed"] = swap_ok and row["aut_conj_order"] > row["aut_group_order"]
    return case


# Suites 4.4-4.6 compare |Aut(Conj(G))| with a bound made of |Aut(G)| and
# |Z(G)|.  Each entry: the report key of the bound, the keys shown before
# the equality flags, the bound, and the groups for which equality is expected.
_CONJ_BOUNDS = {
    # Aut(G): equal exactly when the center is trivial.
    "4.4": ("aut_group_order", ("center_order", "aut_group_order", "aut_conj_order"),
            lambda aut_g, z: aut_g,
            lambda group, z: z == 1),
    # Aut(G) times the factorial of the center size: trivial center, or Z2.
    "4.5": ("product_order", ("aut_conj_order", "product_order"),
            lambda aut_g, z: aut_g * math.factorial(z),
            lambda group, z: z == 1 or group.order == 2),
    # Z(G) x| Aut(G): trivial center, or Z2, Z3 and the Klein four-group.
    "4.6": ("semidirect_order", ("aut_conj_order", "semidirect_order"),
            lambda aut_g, z: z * aut_g,
            lambda group, z: z == 1 or group.order in (2, 3)
            or (group.order == 4 and group.inverses == (0, 1, 2, 3))),
}


def _conj_bound_case(tid: str, row, options) -> dict:
    """When |Aut(Conj(G))| equals a bound made of |Aut(G)| and |Z(G)|, per `_CONJ_BOUNDS`.

    Every catalog group must meet its suite's bound exactly when the
    expectation says so.
    """
    bound_key, shown, bound_of, expected_of = _CONJ_BOUNDS[tid]
    z = len(row["center"])
    bound = bound_of(row["aut_group_order"], z)
    equal = row["aut_conj_order"] == bound
    expected = expected_of(row["group"], z)
    values = {
        "center_order": z,
        "aut_group_order": row["aut_group_order"],
        "aut_conj_order": row["aut_conj_order"],
        bound_key: bound,
    }
    return {
        **{key: values[key] for key in shown},
        "equality_observed": equal,
        "equality_expected": expected,
        "passed": equal == expected,
    }


# --- core and doubled-cyclic quandles --------------------------------------


def _central_translations(group):
    return [(a, group.table[a]) for a in fingroup.center(group)]


def _core_subgroup_case(group, options) -> dict:
    """Central translations and group automorphisms act on the core quandle.

    Together they generate a subgroup of the expected product order inside
    the core quandle's automorphism group, with the translations forming a
    normal subgroup permuted by the automorphisms.  Preserving the core
    table and phi p_a phi^-1 = p_phi(a) both hold for a product when they
    hold for its factors, so they are checked on generators of Aut(G).
    """
    cap_order = options.get("cap_order", max(quandlemod.DEFAULT_AUT_CAP, group.order))
    core = fingroup.core_quandle(group)
    autg = fingroup.automorphism_group(group)
    translations = _central_translations(group)
    members_ok = all(_preserves(core.table, p.images) for p in autg.generators) and all(
        _preserves(core.table, p) for _, p in translations
    )
    transported = all(
        _compose(phi.images, p) == _compose(group.table[phi(a)], phi.images)
        for phi in autg.generators
        for a, p in translations
    )
    sub = PermGroup(group.order, [*autg.strong_generators, *(p for _, p in translations)])
    expected = len(translations) * autg.order
    with _cap_flag("--cap-order"):
        total = quandlemod.aut(core, cap=cap_order).order
    return {
        "center_order": len(translations),
        "aut_group_order": autg.order,
        "subgroup_order": sub.order,
        "aut_core_order": total,
        "passed": members_ok
        and transported
        and sub.order == expected
        and total % sub.order == 0,
    }


def _odd_components(options):
    """Items (name, components) for the odd abelian groups of order up to `--max-order`, at most 27."""
    specs = [
        (3,), (5,), (7,), (9,), (3, 3), (11,), (13,), (15,), (17,), (19,), (21,), (23,),
        (25,), (5, 5), (27,), (3, 9), (3, 3, 3),
    ]
    picked = [c for c in specs if math.prod(c) <= options["max_order"]]
    picked.sort(key=lambda c: (math.prod(c), c))
    return [(_cyclic_sum_name(c), c) for c in picked]


def _odd_takasaki_case(components, options) -> dict:
    """Structure of 2y - x quandles over odd cyclic sums.

    The automorphism group must equal the affine group x -> phi(x) + a,
    generated by the translations (the rows of the group table, since the
    quandle is Core(G) and lists its elements in G's order) and Aut(G);
    the inner group must equal the translations extended by
    negation.  Equality proves the semidirect products: the translations
    form a normal subgroup isomorphic to G, and Aut(G) (or {1, -1}) fixes
    0, so it meets them trivially and is a complement.
    """
    group = fingroup.make_group(_cyclic_sum_name(components))
    q = fingroup.core_quandle(group)
    autg = fingroup.automorphism_group(group)
    with _cap_flag("--cap-order"):
        aut_q = quandlemod.aut(q, cap=options["cap_order"])
    inn_q = quandlemod.inn(q)
    n = group.order
    translations = list(group.table)
    aut_match = aut_q == PermGroup(n, translations + [g.images for g in autg.generators])
    inn_match = inn_q == PermGroup(n, translations + [group.inverses])
    return {
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


_REFLECTION_SPECS = ((4,), (6,), (8,), (2, 4), (3, 4))


def _coxeter_group_order(ngens: int, m: int) -> int | None:
    """Order of the Coxeter group with all off-diagonal labels m, None if infinite."""
    if ngens == 1:
        return 2
    if m == 2:
        return 2**ngens
    if ngens == 2:
        return 2 * m
    return None


def _reflection_case(components, cap) -> dict:
    """Compare the translation group of 2y - x on a cyclic sum with a Coxeter group.

    The quandle is Core(G) of the cyclic sum G, whose x * y = y x^-1 y is
    2y - x, and the exponent of G is even and above 2.  The reflection-style
    relations are checked directly; the counted number of distinct
    translations is compared against the product formula (odd components
    contribute their order, even ones half of it) and against the doubling
    rule (translations by y and z coincide exactly when 2y = 2z, so they are
    counted by the set 2G read off G's table).  These must hold.  A size
    mismatch with the Coxeter group is flagged, not failed: for some inputs
    the comparison group is infinite while the translation group is small,
    and the report records exactly that.
    """
    m = math.lcm(*components) // 2
    group = fingroup.make_group(_cyclic_sum_name(components), cap=cap)
    q = fingroup.core_quandle(group)
    gens = [p.images for p in quandlemod.inner_generators(q)]
    identity = tuple(range(group.order))
    n_counted = len(gens)
    n_formula = math.prod(c if c % 2 else c // 2 for c in components)
    n_doubled = len({group.table[e][e] for e in range(group.order)})
    involutions_ok = all(_compose(p, p) == identity for p in gens)
    # (p1 p2)^m = 1 exactly when the order of p1 p2 divides m
    braid_ok = all(
        m % math.lcm(*_cycle_type(_compose(p1, p2))) == 0 for p1 in gens for p2 in gens
    )
    inn_order = quandlemod.inn(q).order
    coxeter_order = _coxeter_group_order(n_counted, m)
    match = coxeter_order == inn_order
    relations_pass = involutions_ok and braid_ok and n_counted == n_formula
    return {
        "components": list(components),
        "carrier_order": group.order,
        "relation_exponent": m,
        "distinct_translations": n_counted,
        "translation_count_formula": n_formula,
        "translation_count_matches": n_counted == n_formula,
        "doubling_rule_count": n_doubled,
        "doubling_rule_matches": n_doubled == n_counted,
        "involution_relations_hold": involutions_ok,
        "braid_relations_hold": braid_ok,
        "inn_order": inn_order,
        "coxeter_order": coxeter_order,
        "coxeter_finite": coxeter_order is not None,
        "orders_match": match,
        "mismatch_flag": not match,
        "relations_pass": relations_pass,
        "passed": relations_pass and n_doubled == n_counted,
    }


def _even_dihedral_case(m, options) -> dict:
    """The doubled-cyclic special case of the reflection-group report.

    For the 2n-element dihedral quandle the report must count n distinct
    translations with relation exponent n; order comparisons stay report
    mode for the same reason as the general suite.
    """
    n = m // 2
    case = _reflection_case((m,), options.get("cap_group", fingroup.DEFAULT_GROUP_CAP))
    return {
        **case,
        "expected_generators": n,
        "passed": case["passed"]
        and case["distinct_translations"] == n
        and case["relation_exponent"] == n,
    }


def _elementary_powers(options):
    """Items (name, k) for the k-fold powers of Z4, k up to `--max-order`."""
    ks = range(1, options["max_order"] + 1)
    _check_cap_group(options, (4**k for k in ks))
    return [(f"k{k}", k) for k in ks]


def _elementary_inner_case(k, options) -> dict:
    """Inner groups of order-4 cyclic powers are elementary abelian.

    This is the reflection case of Z4^k, with relation exponent 2: its braid
    relations say that the involutions commute, and its Coxeter group, of
    order 2^(2^k), is the comparison group.  The quandle has 2^k distinct
    translations, all commuting involutions, so the inner group is
    elementary abelian.  The comparison order is only an upper bound: for
    k = 2 the four generators multiply out to the identity and the inner
    group is a proper quotient, so the order comparison stays report mode.
    """
    case = _reflection_case((4,) * k, options.get("cap_group", fingroup.DEFAULT_GROUP_CAP))
    involutions, commuting = case["involution_relations_hold"], case["braid_relations_hold"]
    return {
        "distinct_translations": case["distinct_translations"],
        "inn_order": case["inn_order"],
        "all_involutions": involutions,
        "all_commute": commuting,
        "comparison_order": case["coxeter_order"],
        "orders_match": case["orders_match"],
        "mismatch_flag": case["mismatch_flag"],
        "passed": case["distinct_translations"] == 2**k and involutions and commuting,
    }


def _suite_r4_aut_structure(options: dict) -> list:
    """The 4-element dihedral quandle's automorphism group, pinned exactly.

    It has order 8, is the Klein four-group extended by a component swap,
    and the explicit pairwise swap is an outer automorphism conjugating one
    translation generator to the other.  The extension is checked as an
    equality: s0 and s1 commute, s0 is an involution and the involution phi
    outside K = <s0, s1> (of order 4) conjugates s0 to s1, so <s0, s1, phi>
    is K extended by the swap of its generators, and it must equal Aut.
    """
    q = quandlemod.build("dihedral", 4)
    aut_q = quandlemod.aut(q)
    inn_q = quandlemod.inn(q)
    phi = Perm((1, 0, 3, 2))
    s0, s1, *_ = zip(*q.table)
    conjugates = _compose(phi.images, s0) == _compose(s1, phi.images)  # phi s0 phi^-1 = s1
    klein = PermGroup(4, [s0, s1])
    iso = (
        klein.order == 4
        and _compose(s0, s1) == _compose(s1, s0)
        and _compose(s0, s0) == _compose(phi.images, phi.images) == (0, 1, 2, 3)
        and phi not in klein
        and conjugates
        and PermGroup(4, [s0, s1, phi.images]) == aut_q
    )
    return [
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
            "passed": conjugates,
        },
    ]


def _orbit_swap_case(m, options) -> dict:
    """Swapping the two orbits of an even dihedral quandle pairwise.

    The map a(2i) <-> a(2i+1) is an automorphism exactly for carriers of
    size 2 and 4; larger even dihedral quandles reject it, so permuting
    orbits is not automatically an automorphism.
    """
    q = quandlemod.build("dihedral", m)
    observed = _preserves(q.table, tuple(i ^ 1 for i in range(m)))  # a(2i) <-> a(2i+1)
    expected = m <= 4
    return {
        "swap_is_automorphism": observed,
        "expected": expected,
        "passed": observed == expected,
    }


# --- transitivity ----------------------------------------------------------


def _suite_three_transitive(options: dict) -> list:
    """Quandles whose automorphism group is 3-transitive, by exhaustion.

    Over all isomorphism classes up to the order bound, 3-transitivity,
    having the full symmetric group as automorphisms, and being trivial or
    the 3-element dihedral quandle are one and the same condition.  The
    inner group is additionally never 3-transitive from order 4 on.
    """
    max_order, inner_max = options["max_order"], options["cap_order"]
    if max_order < 1:
        raise QuandleKitError(f"--max-order {max_order} is below the floor of order 1")
    if inner_max < 4:
        raise QuandleKitError(f"--cap-order {inner_max} is below the floor of order 4")
    cap = max(quandlemod.DEFAULT_ENUM_CAP, inner_max)
    with _cap_flag("--cap-order"):
        classes = {
            n: quandlemod.enumerate_quandles(n, cap)
            for n in range(1, max(max_order, inner_max) + 1)
        }
    r3 = quandlemod.build("dihedral", 3)
    cases = []
    for n in range(1, max_order + 1):
        for idx, q in enumerate(classes[n]):
            trivial = all(q.table[x][y] == x for x in range(n) for y in range(n))
            named = trivial or quandlemod.is_isomorphic(q, r3)
            aut_q = quandlemod.aut(q)
            full = aut_q.order == math.factorial(n)
            three = aut_q.is_k_transitive(3)
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
        bad = sum(quandlemod.inn(q).is_k_transitive(3) for q in classes[n])
        cases.append(
            {
                "case": f"inner_order{n}",
                "classes": len(classes[n]),
                "inner_three_transitive": bad,
                "passed": bad == 0,
            }
        )
    return cases


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
    identity, *others = map(Perm, itertools.permutations(range(fiber_size)))
    for c in others:
        table = [[identity if x == y else c for y in range(base.order)] for x in range(base.order)]
        try:
            pool.append(cocyclemod.validate_constant(base, fiber_size, table))
        except QuandleKitError:
            continue
    return pool


def _suite_cohomologous_extensions(options: dict) -> list:
    """Cohomologous cocycles give isomorphic extensions, with the map shown.

    Each trial moves a valid cocycle by a random pair in Aut(base) x
    Sym(fiber), twists it by a random per-element fiber permutation (both
    through `cocycle.act`), asks the search for a witness, and verifies the
    explicit isomorphism (x, t) -> (x, lambda_x(t)) entry by entry.
    """
    trials = options["trials"]
    rng = random.Random(options["seed"])
    bases = _extension_bases()
    fiber_perms = {s: [Perm(p) for p in itertools.permutations(range(s))] for s in (2, 3)}
    pools = {
        (name, s): _cocycle_pool(q, s) for name, q in bases for s in (2, 3)
    }
    base_auts = {name: list(quandlemod.aut(q)) for name, q in bases}
    failures = []
    for trial in range(trials):
        name, base = bases[rng.randrange(len(bases))]
        s = rng.choice((2, 3))
        pool = pools[(name, s)]
        alpha = pool[rng.randrange(len(pool))]
        auts = base_auts[name]
        identity = Perm.identity(base.order)
        alpha = cocyclemod.act(
            auts[rng.randrange(len(auts))],
            (fiber_perms[s][rng.randrange(len(fiber_perms[s]))],) * base.order,
            alpha,
        )
        lam = tuple(
            fiber_perms[s][rng.randrange(len(fiber_perms[s]))]
            for _ in range(base.order)
        )
        beta = cocyclemod.act(identity, lam, alpha)
        witness = cocyclemod.are_cohomologous(alpha, beta)
        ext_a = cocyclemod.extend(alpha)
        ext_b = cocyclemod.extend(beta)
        f = cocyclemod.lift(identity, lam, s)
        explicit_ok = _first_unpreserved(ext_a.table, ext_b.table, f) is None
        if witness is None or not explicit_ok:
            failures.append(
                {"trial": trial, "base": name, "fiber": s, "witness_found": witness is not None}
            )
    return [
        {
            "case": "randomized_twists",
            "trials": trials,
            "failures": failures,
            "passed": not failures,
        }
    ]


def _stabilizer_extensions(options):
    """Items (name, (base, fiber size)) for trivial2 and dihedral3 with fibers of size 2 and 3."""
    if options["cap_order"] < 1:
        raise QuandleKitError(f"--cap-order {options['cap_order']} is below the floor of 1 cocycle")
    bases = (
        ("trivial2", quandlemod.build("trivial", 2)),
        ("dihedral3", quandlemod.build("dihedral", 3)),
    )
    return [(f"{name}.fiber{s}", (base, s)) for name, base in bases for s in (2, 3)]


def _stabilizer_embedding_case(extension, options) -> dict:
    """Stabilizer pairs embed into the extension's automorphism group.

    For every valid cocycle up to `--cap-order`, the lift (x, t) -> (phi x,
    theta t) of a pair in Aut(base) x Sym(fiber) is an automorphism of the
    extension exactly when the pair is in `cocycle_stabilizer`, and the
    lifts of those pairs are injective and multiplicative.
    """
    base, s = extension
    n = base.order
    base_aut = quandlemod.aut(base)
    found = cocyclemod.all_constant_cocycles(base, s)
    kept = found[:options["cap_order"]]
    fiber_perms = [Perm(p) for p in itertools.permutations(range(s))]
    injective = True
    multiplicative = True
    converse = True
    for alpha in kept:
        ext = cocyclemod.extend(alpha)
        stab = cocyclemod.cocycle_stabilizer(alpha)
        lifts = {}
        graph = []  # phi + theta + gamma on n + s + n*s points
        for phi in base_aut:
            for theta in fiber_perms:
                gamma = cocyclemod.lift(phi, (theta,) * n, s)
                if _preserves(ext.table, gamma):
                    lifts[(phi, theta)] = gamma
                    joined = phi.images + tuple(n + t for t in theta.images)
                    converse &= Perm(joined) in stab
                    graph.append(joined + tuple(n + s + x for x in gamma))
        converse &= len(lifts) == stab.order
        if len(set(lifts.values())) != len(lifts):
            injective = False
        # The graph is finite and holds the identity, so it is closed
        # under products exactly when it generates no more than itself.
        if PermGroup(n + s + n * s, graph).order != len(graph):
            multiplicative = False
    return {
        "valid_cocycles": len(found),
        "checked": len(kept),
        "injective": injective,
        "multiplicative": multiplicative,
        "shape_matches_stabilizer": converse,
        "passed": injective and multiplicative and converse,
    }


# --- quasi-inner automorphisms ----------------------------------------------


def _connected_classes(options):
    return ((name, q) for name, q in _classes(options) if quandlemod.is_connected(q))


def _connected_quasi_inner_case(q, options) -> dict:
    """On connected quandles every automorphism is quasi-inner."""
    aut_q = quandlemod.aut(q)
    qinn_q = quandlemod.qinn(q)
    return {
        "aut_order": aut_q.order,
        "qinn_order": qinn_q.order,
        "passed": qinn_q.order == aut_q.order,
    }


def _quasi_inner_gap_case(n, options) -> dict:
    """Odd dihedral quandles from order 5 have non-inner quasi-inner maps."""
    q = quandlemod.build("dihedral", n)
    inn_q = quandlemod.inn(q)
    aut_q = quandlemod.aut(q, cap=max(quandlemod.DEFAULT_AUT_CAP, n))
    qinn_q = quandlemod.qinn(q, cap=max(quandlemod.DEFAULT_AUT_CAP, n))
    return {
        "inn_order": inn_q.order,
        "qinn_order": qinn_q.order,
        "aut_order": aut_q.order,
        "passed": inn_q.order == 2 * n
        and qinn_q.order == aut_q.order
        and inn_q.order < qinn_q.order,
    }


def _suite_r4_quasi_inner(options: dict) -> list:
    """For the 4-element dihedral quandle quasi-inner means inner.

    The outer pairwise swap is an automorphism but fails both quasi-inner
    tests, so the quasi-inner group collapses onto the inner one.
    """
    q = quandlemod.build("dihedral", 4)
    inn_q = quandlemod.inn(q)
    aut_q = quandlemod.aut(q)
    qinn_q = quandlemod.qinn(q)
    phi = Perm((1, 0, 3, 2))
    same = qinn_q == inn_q
    return [
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


# --- constructions ----------------------------------------------------------


def _compatible_maps_case(group, options) -> dict:
    """The identity and conjugation assignments give the trivial and conjugation quandles."""
    n = group.order
    identity = [tuple(range(n))] * n
    ok_id, _ = constructmod.is_compatible(group, identity)
    from_id = constructmod.quandle_from_compatible(group, identity)
    trivial_ok = all(from_id.table[x][y] == x for x in range(n) for y in range(n))

    inner = constructmod.inner_assignment(group)
    ok_inner, _ = constructmod.is_compatible(group, inner)
    from_inner = constructmod.quandle_from_compatible(group, inner)
    conj_ok = from_inner.table == fingroup.conj_quandle(group, -1).table
    return {
        "identity_compatible": ok_id,
        "identity_gives_trivial": trivial_ok,
        "inner_compatible": ok_inner,
        "inner_gives_conjugation": conj_ok,
        "passed": ok_id and trivial_ok and ok_inner and conj_ok,
    }


def _suite_compatible_maps(options: dict) -> list:
    """Quandles built from per-element automorphism assignments.

    The identity assignment reproduces the trivial quandle and the
    conjugation assignment reproduces the conjugation quandle on every
    catalog group; a compatible assignment without fixed points is
    rejected by the fixed-point check.  That fixed case would pass alone,
    so a `max_order` that keeps no catalog group is an error.
    """
    cases = _sweep(_catalog_groups, _compatible_maps_case)(options)
    if not cases:
        max_order = options["max_order"]
        raise QuandleKitError(f"suite 9.1 has no catalog group with max_order {max_order}")
    z3 = fingroup.cyclic_group(3)
    inversion = (0, 2, 1)
    assignment = [(0, 1, 2), inversion, inversion]
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
    return cases


_JOYCE_TABLE = ((0, 2, 0), (1, 1, 1), (2, 0, 2))


def _suite_union_gluing(options: dict) -> list:
    """Gluing two quandles along automorphism maps, and what breaks it.

    The three-element example with a swap glue reproduces Joyce's table,
    translation doubles of involutory quandles validate, a non-involutory
    carrier is rejected, and random bad glue data fails the distributivity
    axiom nearly always (accidental survivors are re-validated).
    """
    trials = options["trials"]
    cases = []

    two = quandlemod.build("trivial", 2)
    one = quandlemod.build("trivial", 1)
    spec = constructmod.make_union_spec(two, one, [(0,), (0,)], [(1, 0)])
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

    rng = random.Random(options["seed"])
    q1 = quandlemod.build("dihedral", 3)
    q2 = quandlemod.build("dihedral", 4)
    aut1 = list(quandlemod.aut(q1))
    aut2 = list(quandlemod.aut(q2))
    axiom_failures = 0
    accidental = 0
    broken = 0
    for _ in range(trials):
        sigma = [aut2[rng.randrange(len(aut2))] for _ in range(q1.order)]
        tau = [aut1[rng.randrange(len(aut1))] for _ in range(q2.order)]
        spec = constructmod.make_union_spec(q1, q2, sigma, tau)
        try:
            constructmod.union_quandle(spec)
            accidental += 1
            continue
        except QuandleKitError:
            pass
        table = constructmod.assemble_union_table(q1, q2, spec.sigma, spec.tau)
        try:
            quandlemod.Quandle.from_table(table)
            broken += 1
        except QuandleKitError:
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
    return cases


# Each suite: the function that lists its cases, and the options its report
# names, with their defaults.
CATALOG = {
    "3.1": (_suite_two_generator_envelope, {"cap_order": 10_000}),
    "3.3": (_sweep(_classes, _abelianization_case), {"max_order": 5}),
    "4.3": (_sweep(_conj_survey, _center_swap_case), {"max_order": 8}),
    **{
        tid: (_sweep(_conj_survey, functools.partial(_conj_bound_case, tid)), {"max_order": 8})
        for tid in _CONJ_BOUNDS
    },
    "5.1": (_sweep(_catalog_groups, _core_subgroup_case), {"max_order": 8}),
    "5.2": (_sweep(_odd_components, _odd_takasaki_case),
            {"max_order": 8, "cap_order": quandlemod.DEFAULT_AUT_CAP}),
    "5.3": (_sweep(lambda options: [(_cyclic_sum_name(c), c) for c in _REFLECTION_SPECS],
                   lambda c, options: _reflection_case(c, fingroup.DEFAULT_GROUP_CAP)), {}),
    "5.4": (_sweep(_dihedral_orders(6, "Z{}"), _even_dihedral_case), {"max_order": 10}),
    "5.5": (_sweep(_elementary_powers, _elementary_inner_case), {"max_order": 2}),
    "5.6": (_suite_r4_aut_structure, {}),
    "5.7": (_sweep(_dihedral_orders(2, "order{}"), _orbit_swap_case), {"max_order": 10}),
    "6.3": (_suite_three_transitive, {"max_order": 5, "cap_order": 6}),
    "7.1": (_suite_cohomologous_extensions, {"trials": 120, "seed": DEFAULT_SEED}),
    "7.3": (_sweep(_stabilizer_extensions, _stabilizer_embedding_case), {"cap_order": 40}),
    "8.2": (_sweep(_connected_classes, _connected_quasi_inner_case), {"max_order": 5}),
    "8.3": (_sweep(_dihedral_orders(5, "order{}"), _quasi_inner_gap_case), {"max_order": 7}),
    "8.4": (_suite_r4_quasi_inner, {}),
    "9.1": (_suite_compatible_maps, {"max_order": 8}),
    "9.2": (_suite_union_gluing, {"trials": 200, "seed": DEFAULT_SEED}),
}


def run_suite(tid: str, options: dict | None = None) -> dict:
    """Run one catalog suite and return its report.

    Options left out or None take their catalog defaults, and an option the
    suite does not declare is an error; only the caps `cap_order` and
    `cap_group` are taken by every suite.  A randomized suite needs a trial,
    and a sweep its options leave empty is an error, not a pass.
    """
    if tid not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise UnsupportedSpec(f"unknown suite id {tid!r}; known ids: {known}")
    suite, defaults = CATALOG[tid]
    given = {key: value for key, value in (options or {}).items() if value is not None}
    undeclared = sorted(given.keys() - defaults.keys() - {"cap_order", "cap_group"})
    if undeclared:
        flags = ", ".join("--" + key.replace("_", "-") for key in undeclared)
        raise QuandleKitError(f"suite {tid} does not take {flags}")
    used = {key: given.get(key, default) for key, default in sorted(defaults.items())}
    if used.get("trials", 1) < 1:
        raise QuandleKitError(f"--trials {used['trials']} is below the floor of 1 trial")
    cases = suite({**given, **used})
    if not cases:
        raise QuandleKitError(f"suite {tid} has no cases with options {used}")
    return {
        "id": tid,
        "options": used,
        "cases": cases,
        "passed": all(c.get("passed", False) for c in cases),
    }
