"""Finite quandles as explicit operation tables.

A table row x lists x * y for y across the columns, so column y is the right
translation by y.  Validation enforces the three axioms (idempotence,
bijective columns, self-distributivity) with witnesses on failure.
Self-distributivity is checked one column z at a time, as "R_z preserves
the table": whole rows at once through `bytes.translate` up to 256 points,
pair by pair above that and in any column that fails.  The witness raised
is the least failing (x, y, z), x outermost and z innermost, the first a
loop over all triples in that order would meet.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import (
    Axiom1Violation,
    Axiom2Violation,
    Axiom3Violation,
    CapExceeded,
    NotAutomorphism,
    ParseError,
    require_int,
)
from .perm import (
    Perm,
    PermGroup,
    _cycle_type,
    _orbit,
    _orbits,
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
        """Validate all three axioms and wrap the table.

        Axiom 3 is checked column by column: column z is the right
        translation R_z, and (x * y) * z = (x * z) * (y * z) for all x, y
        says that R_z preserves the table (see `_axiom3_witness`).  A
        failure raises at the least (x, y, z), x outermost and z innermost.
        """
        n = len(table)
        rows = [tuple(row) for row in table]
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            if set(map(type, row)) != {int}:
                raise ParseError(f"row {x} has an entry that is not an integer")
            if min(row) < 0 or max(row) >= n:
                raise ValueError(f"row {x} has out-of-range entries")
        for x in range(n):
            if rows[x][x] != x:
                raise Axiom1Violation(x)
        columns = list(zip(*rows))
        for y, column in enumerate(columns):
            if len(set(column)) != n:
                raise Axiom2Violation(y)
        witness = _axiom3_witness(rows, columns)
        if witness is not None:
            raise Axiom3Violation(*witness)
        q = cls(rows, labels=labels)
        return q

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Quandle(order={self.order})"

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
        if len(table) != require_int(doc["order"], "quandle 'order'"):
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


def _axiom3_witness(rows, columns) -> tuple[int, int, int] | None:
    """The least (x, y, z) with (x * y) * z != (x * z) * (y * z), or None.

    Column z is R_z, and the condition says that R_z preserves the table.
    Up to 256 points each column is first checked whole in bytes: the
    table with every entry sent through R_z must equal, row by row, the
    rows x * z re-indexed by R_z.  Only a failing column, and every column
    of a larger table, is walked pair by pair by `_first_unpreserved`,
    which gives its least (x, y).
    """
    n = len(rows)
    if n <= 256:
        pad = bytes(256 - n)
        flat = bytes(itertools.chain.from_iterable(rows))
        padded = [bytes(row) + pad for row in rows]
        failing = []
        for z, column in enumerate(columns):
            r = bytes(column)
            if flat.translate(r + pad) != b"".join(map(r.translate, map(padded.__getitem__, r))):
                failing.append(z)
    else:
        failing = range(n)
    witnesses = []
    for z in failing:
        pair = _first_unpreserved(rows, rows, columns[z])
        if pair is not None:
            witnesses.append((*pair, z))
    return min(witnesses, default=None)


def _require_automorphism(table, p: Perm, what: str = "map") -> None:
    """Raise NotAutomorphism unless p is a permutation of the table's elements preserving it."""
    if len(p.images) != len(table):
        raise NotAutomorphism(f"{what} has degree {len(p.images)}, not {len(table)}")
    pair = _first_unpreserved(table, table, p.images)
    if pair is not None:
        raise NotAutomorphism(f"{what} breaks the product at {pair}")


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


def center(q: Quandle) -> list[int]:
    """Elements fixed by every right translation; may well be empty."""
    return [x for x in range(q.order) if all(v == x for v in q.table[x])]


def is_involutory(q: Quandle) -> bool:
    """Whether every right translation squares to the identity."""
    t = q.table
    return all(t[t[x][y]][y] == x for x in range(q.order) for y in range(q.order))


def inner_generators(q: Quandle) -> list[Perm]:
    """Distinct right translations, in order of their smallest representative."""
    out: list[Perm] = []
    seen = set()
    for y in range(q.order):
        images = tuple(q.table[x][y] for x in range(q.order))
        if images not in seen:
            seen.add(images)
            out.append(Perm(images))
    return out


def inn(q: Quandle) -> PermGroup:
    """Group generated by the right translations."""
    return closure(inner_generators(q), degree=q.order)


def orbit_partition(q: Quandle) -> list[list[int]]:
    """Orbits of the right translations, each sorted, listed by minimum; row x lists x * y."""
    return _orbits(q.table)


def is_connected(q: Quandle) -> bool:
    return len(orbit_partition(q)) == 1


def _element_invariants(table, n):
    """(number of y with x * y != x, cycle type of R_x) for each element x."""
    return [(n - table[x].count(x), _cycle_type([row[x] for row in table])) for x in range(n)]


def _search_order(inv):
    """Elements most constrained first: most elements moved, then by index."""
    return sorted(range(len(inv)), key=lambda x: (-inv[x][0], x))


def _iso_images(t1, t2, n):
    """The first table isomorphism t1 -> t2 found by backtracking, or None.

    Candidates are filtered by per-element invariants (row fixedness,
    column cycle type); see `_iso_search`.
    """
    inv1 = _element_invariants(t1, n)
    inv2 = _element_invariants(t2, n)
    if sorted(inv1) != sorted(inv2):
        return None
    return _iso_search(t1, t2, n, inv1, inv2)(())


def _iso_search(t1, t2, n, inv1, inv2):
    """A function from pre-assigned pairs to the first isomorphism extending them.

    t1 and t2 may be any operation tables with bijective columns, such as
    quandle or group tables.  The remaining elements are chosen
    most-constrained first, each tried on the elements of t2 with its
    invariants, in increasing order.  Forced values propagate through the
    tables: as soon as x and y have images, so does x * y, and every pair of
    assigned elements is checked against both tables.  The search order and
    candidate lists are set up once, so one function serves every search of
    a backtrack over base images.  Each element of its `fixed` argument
    starts out mapped to itself, unchecked, as propagation from the identity
    on it would map it; so with t1 == t2, `fixed` must be a closed subset.
    Passing that subset as checked pairs instead finds the same maps, but
    re-checks pairs the identity already satisfies, and made the rounds of
    the aut-groups benchmark workload about 5% slower.
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
    """Elements of `order` outside the closed subset generated by the earlier ones.

    `table` is any operation table with bijective columns.  Each element
    comes with that closed subset, as a list.  These are the choice points
    on the identity path of `_iso_images`: once the earlier ones are mapped
    to themselves, propagation fixes their whole closed subset.  An
    automorphism fixing the base fixes every element.  Its other caller is
    `cocycle.compute_h2`, which reduces only the cocycle conditions (x, y, z)
    with z in the base: over a quandle the base generates, they imply the rest.
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


def _automorphisms(table, cap: int, colours: Sequence[int] | None = None) -> PermGroup:
    """Automorphisms of `table` that keep each element's colour, by a search along a base.

    `table` is any operation table with bijective columns: a quandle, a group,
    or the coloured table of `cocycle.cocycle_stabilizer`.  Every automorphism
    keeps the invariants of `_element_invariants` (for a group, the cycle type
    of R_x encodes the order of x), so candidates are filtered by them,
    extended by each element's colour when colours are given, and every map
    found keeps them.  The base b_1, ..., b_k is `_base` over the search order
    of `_iso_images`.  Levels are searched deepest first.  At level i the
    earlier base points are fixed, and one first-match search sends b_i to
    each candidate v (same invariants) not yet in the orbit of b_i under the
    generators found so far.  A map found is kept as a generator; a failed v
    proves that no point of its orbit is an image either, and the orbit is
    skipped.  The generators then reach the whole orbit of each b_i under the
    stabilizer of b_1, ..., b_(i-1), so they generate the group, of order the
    product of those orbit lengths (Seress, Permutation Group Algorithms,
    2003, ch. 4; McKay and Piperno, Practical graph isomorphism II, 2014).

    Each generator is re-checked against the table and for bijectivity.  The
    generators are then built into a stabilizer chain on the base
    0, ..., n-1 by Schreier-Sims, and the chain's order must equal that
    product.
    """
    n = len(table)
    if n > cap:
        raise CapExceeded(f"order {n} exceeds automorphism cap {cap}")
    inv = _element_invariants(table, n)
    if colours is not None:
        inv = [x_inv + (colour,) for x_inv, colour in zip(inv, colours)]
    search = _iso_search(table, table, n, inv, inv)
    gens: list[tuple[int, ...]] = []
    order = 1

    def step(x):  # one step under each generator found so far
        return [g[x] for g in gens]

    for b, fixed in reversed(_base(table, _search_order(inv))):
        orbit = {b}
        failed: set[int] = set()
        for v in range(n):
            if v in orbit or v in failed or inv[v] != inv[b]:
                continue
            g = search([(b, v)], fixed)
            if g is None:
                failed |= _orbit(v, step)
            else:
                if _first_unpreserved(table, table, g) is not None or len(set(g)) != n:
                    raise AssertionError("the search returned a map that is not an automorphism")
                gens.append(g)
                orbit = _orbit(b, step)
        order *= len(orbit)
    group = PermGroup.generated(n, gens)
    if group.order != order:
        raise AssertionError("the generators do not generate the product of the orbit lengths")
    return group


def aut(q: Quandle, cap: int = DEFAULT_AUT_CAP) -> PermGroup:
    """Full automorphism group, as a stabilizer chain on generators found by a search.

    See `_automorphisms`.  The order and membership come from the chain,
    iteration walks it in sorted order, and the reported generators are
    computed only when read.  The generators are greedy: walk the sorted
    elements and keep each one outside the span of those kept before.
    """
    return _automorphisms(q.table, cap)


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
    return _automorphisms(q.table, cap, where)


def is_quasi_inner_strong(q: Quandle, phi: Perm) -> bool:
    """Whether every image phi(x) is reachable as x * y for some y."""
    return all(phi(x) in q.table[x] for x in range(q.order))


def _canonical_table(table, n):
    """The lexicographically smallest relabeling of `table` over all of S_n.

    An exact branch and bound: order[k] gets label k, and the relabeled
    entries are settled in row-major order, each to the least value any
    relabeling extending the labels so far gives it.  An unlabeled product
    of labeled elements takes the next label.  An entry that needs a new
    column (or row) element branches on the free elements giving the least
    value: the label of a labeled product, the new label when the product
    is the element itself, else the label after it, which the product takes.
    A row whose free columns all hold one labeled product is settled
    without labeling them.  A branch ends once its entries exceed the best
    table's.  Label 0 goes only to an x with the most y such that
    x * y = x, the zeros of row 0.  As sigma and sigma o alpha give the
    same table for alpha in Aut(Q), a leaf equal to the best gives an
    automorphism, and branches in one orbit of those found fixing the
    labeled elements are tried once (McKay and Piperno, Practical graph
    isomorphism II, 2014).
    """
    top = max(row.count(x) for x, row in enumerate(table))
    sigma = [-1] * n
    order: list[int] = []
    flat: list[int] = []  # the entries settled so far, row-major
    best = [n] * (n * n)  # above every table
    best_sigma: list[int] = []
    autos: list[list[int]] = []

    def label(y):
        sigma[y] = len(order)
        order.append(y)

    def orbit(y):
        """The orbit of y under the automorphisms found that fix every labeled element."""
        gens = [g for g in autos if all(g[z] == z for z in order)]
        return _orbit(y, lambda x: [g[x] for g in gens]) if gens else set()

    def search(start, mark):
        """Settle the entries that follow; flat[start:] and order[mark:] are undone on return."""
        i, c = divmod(len(flat), n)
        while i < len(order) and c < len(order):
            p = table[order[i]][order[c]]
            if sigma[p] == -1:
                label(p)
            flat.append(sigma[p])
            i, c = divmod(len(flat), n)
        m = len(order)
        if i == n and flat < best:
            best[:], best_sigma[:] = flat, sigma
        elif i == n and flat == best:
            autos.append([order[best_sigma[x]] for x in range(n)])
        elif i < n and flat <= best[: len(flat)]:
            free = [y for y in range(n) if sigma[y] == -1]
            prods = [table[order[i]][y] if i < m else table[y][order[c]] for y in free]
            vals = [sigma[p] if sigma[p] != -1 else m + (p != y) for y, p in zip(free, prods)]
            low = min(vals)
            if i < m and low < m and vals.count(low) == len(free):
                flat.extend([low] * (n - c))
                search(len(flat), m)
            else:
                done: set[int] = set()
                for y, p, v in zip(free, prods, vals):
                    if v == low and y not in done:
                        label(y)
                        if sigma[p] == -1:
                            label(p)
                        flat.append(v)
                        search(len(flat) - 1, m)
                        done |= orbit(y)
        for z in order[mark:]:
            sigma[z] = -1
        del order[mark:], flat[start:]

    done: set[int] = set()
    for x in range(n):
        if table[x].count(x) == top and x not in done:
            label(x)
            search(0, 0)
            done |= orbit(x)
    return tuple(tuple(best[k : k + n]) for k in range(0, n * n, n))


def _labeled_quandle_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """At least one quandle table on 0..n-1 per isomorphism class.

    Columns are right translations; the third axiom says conjugating one
    column by another must land on a column again, which both prunes and
    forces later columns during the search.

    The key of x is the rank of the cycle type of R_x (by decreasing sorted
    cycle lengths, the identity last), then the number of y with
    x * y != x; relabeling by sigma puts sigma R_x sigma^-1 at sigma(x), so
    keys travel with their elements.  Label 0 goes to an element of least
    key, and conjugating inside Sym(1..n-1) brings R_0 to the normal form of
    its cycle type: cycles in decreasing length on consecutive labels, fixed
    points last.  So R_0 ranges over normal forms, every column chosen has
    rank at least rank(R_0) (a forced one is a conjugate of a placed one),
    and a leaf is kept when no key is below the key of 0.
    """
    perms = list(itertools.permutations(range(n)))
    pindex = {p: i for i, p in enumerate(perms)}
    types = [_cycle_type(p) for p in perms]
    type_rank = {t: r for r, t in enumerate(sorted(set(types), reverse=True))}
    rank = [type_rank[t] for t in types]
    invp = [pindex[tuple(sorted(range(n), key=p.__getitem__))] for p in perms]
    fixing = [[i for i, p in enumerate(perms) if p[y] == y] for y in range(n)]
    known = [-1] * n
    out: list[tuple[tuple[int, ...], ...]] = []

    def propagate(queue: list[int], trail: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for b in range(n):
                if known[b] == -1 or b == a:
                    continue
                for outer, inner in ((a, b), (b, a)):
                    # R_w = R_outer R_inner R_outer^-1 at w = inner * outer
                    po = perms[known[outer]]
                    w = po[inner]
                    pi_ = perms[known[inner]]
                    conj = tuple([po[pi_[x]] for x in perms[invp[known[outer]]]])
                    if known[w] == -1:
                        known[w] = pindex[conj]
                        trail.append(w)
                        queue.append(w)
                    elif perms[known[w]] != conj:
                        return False
        return True

    def rec(y: int, allowed: list[list[int]]):
        while y < n and known[y] != -1:
            y += 1
        if y == n:
            table = tuple(tuple(perms[known[y]][x] for y in range(n)) for x in range(n))
            keys = [(rank[known[x]], n - table[x].count(x)) for x in range(n)]
            if min(keys) == keys[0]:
                out.append(table)
            return
        for pi in allowed[y]:
            trail = [y]
            known[y] = pi
            if propagate([y], trail):
                rec(y + 1, allowed)
            for i in trail:
                known[i] = -1

    for t in sorted({types[i] for i in fixing[0]}):
        images = [0]
        for length in reversed(t[1:]):  # t[0] is the fixed point 0
            images += [len(images) + (k + 1) % length for k in range(length)]
        known[0] = pindex[tuple(images)]
        rec(1, [[pi for pi in fix if rank[pi] >= rank[known[0]]] for fix in fixing])
    return out


def enumerate_quandles(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[Quandle]:
    """One canonical representative per isomorphism class of order-n quandles.

    The labeled tables of `_labeled_quandle_tables` cover every class.  They
    are bucketed by their sorted element invariants, computed once per
    table, and de-duplicated by `_iso_search` within a bucket, and each one
    kept is replaced by its canonical form, the lexicographically smallest
    relabeling (`_canonical_table`).  The output is sorted by table.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > cap:
        raise CapExceeded(f"order {n} exceeds enumeration cap {cap}")
    tables = _labeled_quandle_tables(n)
    buckets: dict[object, list] = {}
    reps = []
    for t in tables:
        inv = _element_invariants(t, n)
        bucket = buckets.setdefault(tuple(sorted(inv)), [])
        if all(_iso_search(t, rep, n, inv, rep_inv)(()) is None for rep, rep_inv in bucket):
            bucket.append((t, inv))
            reps.append(t)
    canon = sorted(_canonical_table(t, n) for t in reps)
    assert len(set(canon)) == len(reps)
    return [Quandle.from_table(t) for t in canon]

