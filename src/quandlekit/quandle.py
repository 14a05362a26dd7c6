"""Finite quandles as explicit operation tables.

A table row x lists x * y for y across the columns, so column y is the right
translation by y.  Validation enforces the three axioms (idempotence,
bijective columns, self-distributivity) with witnesses on failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    Axiom1Violation,
    Axiom2Violation,
    Axiom3Violation,
    CapExceeded,
    HypothesisViolated,
    NotAHomomorphism,
    ParseError,
)
from .perm import (
    DEFAULT_ORDER_CAP,
    Perm,
    PermGroup,
    _cycle_type,
    closure,
)

DEFAULT_AUT_CAP = 8
DEFAULT_ENUM_CAP = 6


class Quandle:
    """A finite quandle; construct through from_table or build."""

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def from_table(
        cls, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
    ) -> "Quandle":
        """Validate all three axioms and wrap the table."""
        n = len(table)
        rows = [tuple(row) for row in table]
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            if any(type(v) is not int for v in row):
                raise ParseError(f"row {x} has an entry that is not an integer")
            if any(not 0 <= v < n for v in row):
                raise ValueError(f"row {x} has out-of-range entries")
        for x in range(n):
            if rows[x][x] != x:
                raise Axiom1Violation(x)
        for y in range(n):
            if sorted(rows[x][y] for x in range(n)) != list(range(n)):
                raise Axiom2Violation(y)
        for x in range(n):
            for y in range(n):
                xy = rows[x][y]
                for z in range(n):
                    if rows[xy][z] != rows[rows[x][z]][rows[y][z]]:
                        raise Axiom3Violation(x, y, z)
        q = cls(rows, labels=labels)
        return q

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Quandle(order={self.order})"

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def to_json(self) -> dict:
        doc: dict = {
            "kind": "quandle",
            "order": self.order,
            "table": [list(row) for row in self.table],
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Quandle":
        if not isinstance(doc, dict):
            raise ParseError("a quandle document must be a JSON object")
        if doc.get("kind", "quandle") != "quandle":
            raise ValueError(f"expected a quandle document, got kind {doc['kind']!r}")
        if "order" not in doc or "table" not in doc:
            raise ValueError("quandle JSON needs 'order' and 'table'")
        table = doc["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError("quandle 'table' must be an array of arrays")
        if len(table) != doc["order"]:
            raise ValueError("declared order does not match table size")
        labels = doc.get("labels")
        if labels is not None and not (
            isinstance(labels, list)
            and len(labels) == len(table)
            and all(isinstance(label, str) for label in labels)
        ):
            raise ParseError("quandle 'labels' must be an array of one string per element")
        return cls.from_table(table, labels=labels)


def _first_unpreserved(source, target, images) -> tuple[int, int] | None:
    """The first (x, y), x outer and y inner, with f(x * y) != f(x) * f(y).

    f is the map x -> images[x] from the `source` table to the `target`
    table; None means f preserves the operation.
    """
    for x, row in enumerate(source):
        target_row = target[images[x]]
        for y, xy in enumerate(row):
            if images[xy] != target_row[images[y]]:
                return x, y
    return None


@dataclass(frozen=True)
class QuandleMap:
    """A quandle homomorphism given by its images, verified on construction."""

    source: Quandle
    target: Quandle
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise NotAHomomorphism("image list has the wrong length")
        pair = _first_unpreserved(self.source.table, self.target.table, self.images)
        if pair is not None:
            raise NotAHomomorphism(f"operation not preserved at {pair}")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.target.order == self.source.order


def build(kind: str, n: int) -> Quandle:
    """Named constructions: "trivial" (x * y = x) or "dihedral" (i * j = 2j - i mod n)."""
    if n < 1:
        raise ValueError("order must be positive")
    if kind == "trivial":
        table = [[x] * n for x in range(n)]
    elif kind == "dihedral":
        table = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    else:
        raise ValueError(f"unknown construction {kind!r}")
    return Quandle.from_table(table)


def takasaki_quandle(components: Sequence[int]) -> Quandle:
    """The quandle x * y = 2y - x on a direct sum of cyclic groups.

    Elements are the coordinate tuples in tuple-lexicographic order, matching
    the ordering of direct products in the group module.
    """
    if not components or any(c < 1 for c in components):
        raise ValueError("components must be positive")
    elems = list(itertools.product(*[range(c) for c in components]))
    index = {e: i for i, e in enumerate(elems)}
    k = len(components)
    table = [
        [index[tuple((2 * y[t] - x[t]) % components[t] for t in range(k))] for y in elems]
        for x in elems
    ]
    labels = [",".join(map(str, e)) for e in elems]
    return Quandle.from_table(table, labels=labels)


def center(q: Quandle) -> list[int]:
    """Elements fixed by every right translation; may well be empty."""
    return [x for x in range(q.order) if all(v == x for v in q.table[x])]


def is_involutory(q: Quandle) -> bool:
    """Whether every right translation squares to the identity."""
    t = q.table
    return all(t[t[x][y]][y] == x for x in range(q.order) for y in range(q.order))


def inner_generators(q: Quandle) -> list[tuple[int, Perm]]:
    """Distinct right translations, each tagged with its smallest representative."""
    out: list[tuple[int, Perm]] = []
    seen = set()
    for y in range(q.order):
        images = tuple(q.table[x][y] for x in range(q.order))
        if images not in seen:
            seen.add(images)
            out.append((y, Perm(images)))
    return out


def inn(q: Quandle, cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Group generated by the right translations."""
    gens = [p for _, p in inner_generators(q)]
    return closure(gens, cap=cap, degree=q.order)


def orbit_partition(q: Quandle) -> list[list[int]]:
    return _orbits(q.table)


def _orbits(table) -> list[list[int]]:
    """Orbits of the right translations, each sorted, listed by minimum.

    The orbit of x is what the steps z -> z * y reach from it: a finite set
    closed under bijections is closed under their inverses too.
    """
    seen = [False] * len(table)
    orbits = []
    for start in range(len(table)):
        if not seen[start]:
            seen[start] = True
            orbit = [start]
            for z in orbit:  # grows while it is walked
                for w in table[z]:
                    if not seen[w]:
                        seen[w] = True
                        orbit.append(w)
            orbits.append(sorted(orbit))
    return orbits


def is_connected(q: Quandle) -> bool:
    return len(orbit_partition(q)) == 1


def _element_invariants(table, n):
    """(number of y with x * y != x, cycle type of R_x) for each element x."""
    return [(n - table[x].count(x), _cycle_type([row[x] for row in table])) for x in range(n)]


def _search_order(inv):
    """Elements most constrained first: most elements moved, then by index."""
    return sorted(range(len(inv)), key=lambda x: (-inv[x][0], x))


def _iso_images(t1, t2, n, pairs=(), inv1=None, inv2=None):
    """The first table isomorphism t1 -> t2 found by backtracking, or None.

    Each `(x, v)` in `pairs` is assigned x -> v before the search starts.
    Candidates are filtered by per-element invariants (row fixedness,
    column cycle type), which may be passed in precomputed; see `_iso_search`.
    """
    if inv1 is None:
        inv1 = _element_invariants(t1, n)
    if inv2 is None:
        inv2 = _element_invariants(t2, n)
    if sorted(inv1) != sorted(inv2):
        return None
    return _iso_search(t1, t2, n, inv1, inv2)(pairs)


def _iso_search(t1, t2, n, inv1, inv2):
    """A function from pre-assigned pairs to the first isomorphism extending them.

    The remaining elements are chosen most-constrained first, each tried
    on the elements of t2 with its invariants, in increasing order.  Forced
    values propagate through the tables: as soon as x and y have images, so
    does x * y, and every pair of assigned elements is checked against both
    tables.  The search order and candidate lists are set up once, so one
    function serves every search of a backtrack over base images.  Each
    element of its `fixed` argument starts out mapped to itself, unchecked,
    as propagation from the identity on it would map it; so with t1 == t2,
    `fixed` must be a subquandle.
    """
    static_order = _search_order(inv1)
    cand = [[v for v in range(n) if inv2[v] == inv1[x]] for x in range(n)]

    def first(pairs, fixed=()):
        mapping = [-1] * n
        used = [False] * n
        for x in fixed:
            mapping[x] = x
            used[x] = True
        assigned: list[int] = list(fixed)

        def process(start: int) -> bool:
            """Propagate from `assigned[start]` on; a pair is checked by its later element."""
            qi = start
            while qi < len(assigned):
                a = assigned[qi]
                qi += 1
                va = mapping[a]
                row1, row2 = t1[a], t2[va]
                for b in assigned[:qi]:
                    vb = mapping[b]
                    for c, w in ((row1[b], row2[vb]), (t1[b][a], t2[vb][va])):
                        mc = mapping[c]
                        if mc == -1:
                            if used[w] or inv1[c] != inv2[w]:
                                return False
                            mapping[c] = w
                            used[w] = True
                            assigned.append(c)
                        elif mc != w:
                            return False
            return True

        def rec(k: int) -> bool:
            while k < n and mapping[static_order[k]] != -1:
                k += 1
            if k == n:
                return True
            x = static_order[k]
            for v in cand[x]:
                if used[v]:
                    continue
                mark = len(assigned)
                mapping[x] = v
                used[v] = True
                assigned.append(x)
                if process(mark) and rec(k + 1):
                    return True
                for idx in assigned[mark:]:
                    used[mapping[idx]] = False
                    mapping[idx] = -1
                del assigned[mark:]
            return False

        for x, v in pairs:
            if mapping[x] == v:
                continue
            if mapping[x] != -1 or used[v] or inv1[x] != inv2[v]:
                return None
            mapping[x] = v
            used[v] = True
            assigned.append(x)
            if not process(len(assigned) - 1):
                return None
        return tuple(mapping) if rec(0) else None

    return first


def _base(table, order):
    """Elements of `order` outside the subquandle generated by the earlier ones.

    Each comes with that subquandle, as a list.  These are the choice points
    on the identity path of `_iso_images`: once the earlier ones are mapped
    to themselves, propagation fixes their whole subquandle.  An
    automorphism fixing the base fixes every element.
    """
    inside: set[int] = set()
    base = []
    for x in order:
        if x in inside:
            continue
        base.append((x, list(inside)))
        inside.add(x)
        fresh = [x]
        while fresh:
            a = fresh.pop()
            for b in list(inside):
                for c in (table[a][b], table[b][a]):
                    if c not in inside:
                        inside.add(c)
                        fresh.append(c)
    return base


def _orbit(x, gens):
    """Orbit of x under the group generated by image tuples."""
    orbit = [x]
    seen = {x}
    for y in orbit:  # grows while it is walked
        for g in gens:
            z = g[y]
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return seen


def _automorphisms(q: Quandle, cap: int, colours: Sequence[int] | None = None) -> PermGroup:
    """Automorphisms of q that keep each element's colour, by a search along a base.

    Candidates are filtered by each element's invariants, extended by its
    colour when colours are given, so every map found keeps them.  The base
    b_1, ..., b_k is `_base` over the search order of `_iso_images`.
    Levels are searched deepest first.  At level i the earlier base points
    are fixed, and one first-match search sends b_i to each candidate v (same
    invariants) not yet in the orbit of b_i under the generators found so
    far.  A map found is kept as a generator; a failed v proves that no point
    of its orbit is an image either, and the orbit is skipped.  The
    generators then reach the whole orbit of each b_i under the stabilizer of
    b_1, ..., b_(i-1), so they generate the group, of order the product of
    those orbit lengths (Seress, Permutation Group Algorithms, 2003, ch. 4;
    McKay and Piperno, Practical graph isomorphism II, 2014).

    Each generator is re-checked against the table.  The generators are
    then built into a stabilizer chain on the base 0, ..., n-1 by
    Schreier-Sims, and the chain's order must equal that product.
    """
    n = q.order
    if n > cap:
        raise CapExceeded(f"order {n} exceeds automorphism cap {cap}")
    t = q.table
    inv = _element_invariants(t, n)
    if colours is not None:
        inv = [x_inv + (colour,) for x_inv, colour in zip(inv, colours)]
    search = _iso_search(t, t, n, inv, inv)
    gens: list[tuple[int, ...]] = []
    order = 1
    for b, fixed in reversed(_base(t, _search_order(inv))):
        orbit = {b}
        failed: set[int] = set()
        for v in range(n):
            if v in orbit or v in failed or inv[v] != inv[b]:
                continue
            g = search([(b, v)], fixed)
            if g is None:
                failed |= _orbit(v, gens)
            else:
                if not QuandleMap(q, q, g).is_bijective():
                    raise AssertionError("the search returned a map that is not a bijection")
                gens.append(g)
                orbit = _orbit(b, gens)
        order *= len(orbit)
    group = PermGroup.generated(n, gens)
    if group.order != order:
        raise AssertionError("the generators do not generate the product of the orbit lengths")
    return group


def aut(q: Quandle, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """Full automorphism group, as a stabilizer chain on generators found by a search.

    See `_automorphisms`.  The order and membership come from the chain;
    the sorted elements and the reported generators, picked greedily over
    the sorted elements as in `PermGroup.from_elements`, are computed only
    when read.
    """
    return _automorphisms(q, cap)


def find_isomorphism(a: Quandle, b: Quandle) -> Perm | None:
    """An isomorphism a -> b as a permutation of indices, or None."""
    if a.order != b.order:
        return None
    images = _iso_images(a.table, b.table, a.order)
    return None if images is None else Perm(images)


def is_isomorphic(a: Quandle, b: Quandle) -> bool:
    return find_isomorphism(a, b) is not None


def qinn(q: Quandle, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """Automorphisms moving every element within its translation orbit.

    The same search as `aut`, with each element's invariants extended by
    the index of its translation orbit, so only maps keeping every orbit
    are found; the group is a stabilizer chain on the generators found.
    """
    where = [0] * q.order
    for i, block in enumerate(orbit_partition(q)):
        for x in block:
            where[x] = i
    return _automorphisms(q, cap, where)


def is_quasi_inner_strong(q: Quandle, phi: Perm) -> bool:
    """Whether every image phi(x) is reachable as x * y for some y."""
    return all(phi(x) in q.table[x] for x in range(q.order))


def _canonical_table(table, n):
    """The lexicographically smallest relabeling of `table` over all of S_n.

    Each candidate is built row by row and dropped at the first row that
    compares greater than the same row of the best table so far.
    """
    best = None
    for sinv in itertools.permutations(range(n)):
        sigma = [0] * n
        for i, s in enumerate(sinv):
            sigma[s] = i
        rows = []
        smaller = best is None
        for x in range(n):
            src = table[sinv[x]]
            row = tuple([sigma[src[s]] for s in sinv])
            if not smaller:
                if row > best[x]:
                    break
                smaller = row < best[x]
            rows.append(row)
        else:
            if smaller:
                best = tuple(rows)
    return best


def _fingerprint(table, n):
    inv = _element_invariants(table, n)
    orbit_sizes = tuple(sorted(map(len, _orbits(table))))
    centre = sum(1 for x in range(n) if inv[x][0] == 0)
    return (tuple(sorted(inv)), orbit_sizes, centre)


def _labeled_quandle_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """At least one quandle table on 0..n-1 per isomorphism class.

    Columns are right translations; the third axiom says conjugating one
    column by another must land on a column again, which both prunes and
    forces later columns during the search.

    A labeling is kept only if its element invariants are non-decreasing in
    label order.  The invariant of x is the cycle type of its column R_x,
    ranked by decreasing sorted cycle lengths (the identity comes last, so
    the most constraining columns are placed first), then the number of y
    with x * y != x.  Relabeling by sigma puts sigma R_x sigma^-1 at sigma(x), so
    both parts travel with their element, and sorting the elements of any
    quandle by them gives a labeling that passes: every class survives.
    The column part is checked whenever a column is chosen or forced, and
    the first violation prunes the branch; the row part is known only at
    the leaves.
    """
    perms = list(itertools.permutations(range(n)))
    pindex = {p: i for i, p in enumerate(perms)}
    types = [_cycle_type(p) for p in perms]
    type_rank = {t: r for r, t in enumerate(sorted(set(types), reverse=True))}
    rank = [type_rank[t] for t in types]
    invp = [pindex[tuple(sorted(range(n), key=p.__getitem__))] for p in perms]
    fixing = [[i for i, p in enumerate(perms) if p[y] == y] for y in range(n)]
    known = [-1] * n
    col_rank = [-1] * n
    out: list[tuple[tuple[int, ...], ...]] = []

    def fits(w: int, r: int) -> bool:
        """Whether a column of rank r at label w keeps the ranks sorted."""
        for u in range(w):
            if col_rank[u] > r:
                return False
        for u in range(w + 1, n):
            if -1 != col_rank[u] < r:
                return False
        return True

    def propagate(queue: list[int], trail: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for b in range(n):
                if known[b] == -1 or b == a:
                    continue
                for outer, inner in ((a, b), (b, a)):
                    # R_w = R_outer R_inner R_outer^-1 at w = inner * outer,
                    # so R_w has the cycle type of R_inner
                    po = perms[known[outer]]
                    w = po[inner]
                    r = col_rank[inner]
                    if known[w] == -1:
                        if not fits(w, r):
                            return False
                    elif col_rank[w] != r:
                        return False
                    pi_ = perms[known[inner]]
                    conj = tuple([po[pi_[x]] for x in perms[invp[known[outer]]]])
                    if known[w] == -1:
                        known[w] = pindex[conj]
                        col_rank[w] = r
                        trail.append(w)
                        queue.append(w)
                    elif perms[known[w]] != conj:
                        return False
        return True

    def leaf():
        table = tuple(tuple(perms[known[y]][x] for y in range(n)) for x in range(n))
        inv = _element_invariants(table, n)
        keys = [(col_rank[x], moved) for x, (moved, _) in enumerate(inv)]
        if keys == sorted(keys):
            out.append(table)

    def rec(y: int):
        while y < n and known[y] != -1:
            y += 1
        if y == n:
            leaf()
            return
        for pi in fixing[y]:
            if not fits(y, rank[pi]):
                continue
            trail = [y]
            known[y] = pi
            col_rank[y] = rank[pi]
            if propagate([y], trail):
                rec(y + 1)
            for i in trail:
                known[i] = -1
                col_rank[i] = -1

    rec(0)
    return out


def enumerate_quandles(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[Quandle]:
    """One canonical representative per isomorphism class of order-n quandles.

    The labeled tables come from `_labeled_quandle_tables`, which keeps only
    labelings whose element invariants are non-decreasing in label order;
    every class has such a labeling, because relabeling carries invariants
    along with their elements.  Tables are bucketed by fingerprint and
    de-duplicated by isomorphism tests.  The canonical form is the
    lexicographically smallest table over all relabelings; the output list
    is sorted by table.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > cap:
        raise CapExceeded(f"order {n} exceeds enumeration cap {cap}")
    tables = _labeled_quandle_tables(n)
    buckets: dict[object, list] = {}
    reps = []
    for t in tables:
        fp = _fingerprint(t, n)
        bucket = buckets.setdefault(fp, [])
        for rep in bucket:
            if _iso_images(t, rep, n) is not None:
                break
        else:
            bucket.append(t)
            reps.append(t)
    canon = sorted(_canonical_table(t, n) for t in reps)
    assert len(set(canon)) == len(reps)
    return [Quandle.from_table(t) for t in canon]


def _coxeter_group_order(ngens: int, m: int) -> int | None:
    """Order of the Coxeter group with all off-diagonal labels m, None if infinite."""
    if ngens == 1:
        return 2
    if m == 2:
        return 2**ngens
    if ngens == 2:
        return 2 * m
    return None


def coxeter_report(components: Sequence[int], cap: int = 64) -> dict:
    """Compare the translation group of 2y - x on a cyclic-sum with a Coxeter group.

    The reflection-style relations are checked directly; the counted number
    of distinct translations is compared against the product formula (odd
    components contribute their order, even ones half of it) and against the
    doubling rule (translations by y and z coincide exactly when 2y = 2z).
    A size mismatch with the Coxeter group is flagged, not raised: for some
    inputs the comparison group is infinite while the translation group is
    small, and the report records exactly that.
    """
    components = tuple(int(c) for c in components)
    if not components or any(c < 1 for c in components):
        raise HypothesisViolated("components must be positive integers")
    total = 1
    for c in components:
        total *= c
    if total > cap:
        raise CapExceeded(f"carrier order {total} exceeds cap {cap}")
    exp = lcm(*components)
    if exp <= 2 or exp % 2:
        raise HypothesisViolated("the exponent of the carrier must be even and > 2")
    m = exp // 2
    q = takasaki_quandle(components)
    gens = inner_generators(q)
    n_counted = len(gens)
    n_formula = 1
    for c in components:
        n_formula *= c if c % 2 else c // 2
    elems = list(itertools.product(*[range(c) for c in components]))
    doubled = {tuple((2 * e[t]) % components[t] for t in range(len(components))) for e in elems}
    involutions_ok = all((p * p).is_identity() for _, p in gens)
    braid_ok = all(
        ((p1 * p2) ** m).is_identity() for _, p1 in gens for _, p2 in gens
    )
    inn_order = inn(q).order
    coxeter_order = _coxeter_group_order(n_counted, m)
    match = coxeter_order == inn_order
    return {
        "components": list(components),
        "carrier_order": total,
        "relation_exponent": m,
        "distinct_translations": n_counted,
        "translation_count_formula": n_formula,
        "translation_count_matches": n_counted == n_formula,
        "doubling_rule_count": len(doubled),
        "doubling_rule_matches": len(doubled) == n_counted,
        "involution_relations_hold": involutions_ok,
        "braid_relations_hold": braid_ok,
        "inn_order": inn_order,
        "coxeter_order": coxeter_order,
        "coxeter_finite": coxeter_order is not None,
        "orders_match": match,
        "mismatch_flag": not match,
        "relations_pass": involutions_ok and braid_ok and n_counted == n_formula,
    }
