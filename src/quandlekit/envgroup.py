"""Enveloping groups of quandles.

A quandle embeds its structure into a finitely presented group with one
generator per element and one conjugation relator per ordered pair.  This
module builds those presentations and answers the questions about them that
stay decidable: abelianization through an exact Smith normal form on sparse
rows, from its callers to its certificate, commutator-subgroup generators,
and coset enumeration (Todd-Coxeter).

Everything runs on exact integers.  Python integers are unbounded, so the
overflow failure mode that plagues fixed-width Smith normal form code cannot
occur here; certificates are still re-verified after every computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, CosetLimitExceeded, ParseError, QuandleKitError
from .quandle import Quandle

# A word is a tuple of (generator, sign) letters with sign +1 or -1.
Word = tuple


def free_reduce(word: Sequence[tuple[int, int]]) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[tuple[int, int]] = []
    for g, s in word:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def word_from_json(letters: Sequence[int]) -> Word:
    """Decode 1-based signed integers, the on-disk word format."""
    if not isinstance(letters, (list, tuple)):
        raise ParseError(f"a word is an array of letters, got {letters!r}")
    out = []
    for k in letters:
        if type(k) is not int or k == 0:
            raise ParseError(f"word letters are nonzero integers, got {k!r}")
        out.append((abs(k) - 1, 1 if k > 0 else -1))
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation: ngens generators, a tuple of relator words."""

    ngens: int
    relators: tuple[Word, ...]


def presentation_of(q: Quandle) -> Presentation:
    """One generator per element; conjugation by a_i sends a_j to a_{j*i}.

    Diagonal pairs are skipped because idempotence makes those relators
    freely trivial.
    """
    rels = []
    for i in range(q.order):
        for j in range(q.order):
            if i == j:
                continue
            rels.append(((i, -1), (j, 1), (i, 1), (q.table[j][i], -1)))
    return Presentation(q.order, tuple(rels))


def commutator_generators(q: Quandle) -> list[Word]:
    """Words generating the commutator subgroup of the enveloping group.

    The commutator of two generators collapses to a_{j*i}^{-1} a_j, so the
    whole (possibly infinite) commutator subgroup is normally generated by
    at most |Q|^2 short words.  Duplicates and freely trivial words are
    dropped; for a trivial quandle the list is empty.
    """
    seen = set()
    out = []
    for i in range(q.order):
        for j in range(q.order):
            w = free_reduce(((q.table[j][i], -1), (j, 1)))
            if w and w not in seen:
                seen.add(w)
                out.append(w)
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """U*A*V = D, D the m x n zero matrix with the invariant factors leading its diagonal;
    U, V unimodular, v_inv = V^-1; U and v_inv by sparse rows, V by sparse columns."""

    u: tuple
    v: tuple
    v_inv: tuple
    invariant_factors: tuple
    free_rank: int


def _axpy(target: dict, source: dict, c: int) -> None:
    """target += c * source, on sparse vectors that store no zeros."""
    for k, x in source.items():
        y = target.get(k, 0) + c * x
        if y:
            target[k] = y
        else:
            target.pop(k, None)


def _is_inverse_pair(rows, cols) -> bool:
    """Whether the matrix with these sparse rows times the one with these
    sparse columns is the identity.

    Two square integer matrices whose product is I both have determinant
    +1 or -1, so this certifies that both are unimodular.
    """
    size = len(rows)
    if len(cols) != size:
        return False
    by_row = [{} for _ in range(size)]
    for j, col in enumerate(cols):
        for k, x in col.items():
            by_row[k][j] = x
    for i, row in enumerate(rows):
        acc: dict = {}
        for k, x in row.items():
            for j, y in by_row[k].items():
                acc[j] = acc.get(j, 0) + x * y
        if acc.pop(i, 0) != 1 or any(acc.values()):
            return False
    return True


def smith_normal_form(rows, ncols: int) -> SmithForm:
    """Diagonalize an integer matrix, given as sparse rows on ncols columns, with certified transforms.

    Each row maps columns in range(ncols) to nonzero entries, else ValueError.
    Returns U, V with U*A*V = D, U and V unimodular, and the diagonal entries
    nonnegative with each dividing the next, plus the inverse of V.  The pivot
    is the smallest nonzero |a_ij| of the remaining block, first in row-major
    order; no entry is smaller than a unit, so the scan stops at the first one.
    A pivot of 1 divides every entry, so the divisibility scan is skipped under
    it.  Elimination runs on copies of the rows, and column operations walk
    only the block's rows: those above it hold just their diagonal entry.
    Every elementary operation on U or V applies its inverse to a running U^-1
    or V^-1, all held as sparse rows or columns.  Before returning, U*U^-1 = I
    and V^-1*V = I are re-checked exactly, and then A = U^-1*D*V^-1 as a sum of
    sparse outer products, which given those inverses is U*A*V = D.  So a
    returned SmithForm is a verified certificate.
    """
    a = [dict(row) for row in rows]
    if not all(j in range(ncols) and x for row in a for j, x in row.items()):
        raise ValueError(f"rows must map columns in range({ncols}) to nonzero entries")
    m = len(rows)
    u = [{i: 1} for i in range(m)]  # rows of U
    u_inv = [{i: 1} for i in range(m)]  # columns of U^-1
    v = [{i: 1} for i in range(ncols)]  # columns of V
    v_inv = [{i: 1} for i in range(ncols)]  # rows of V^-1

    def row_op(i, k, c):  # row i -= c * row k
        target = a[i]
        for j, x in a[k].items():
            if y := target.get(j, 0) - c * x:
                target[j] = y
            else:
                target.pop(j, None)
        _axpy(u[i], u[k], -c)
        _axpy(u_inv[k], u_inv[i], c)

    def col_op(j, k, c):  # col j -= c * col k; both are zero above row t
        for row in a[t:]:
            if k in row:
                if y := row.get(j, 0) - c * row[k]:
                    row[j] = y
                else:
                    row.pop(j, None)
        _axpy(v[j], v[k], -c)
        _axpy(v_inv[k], v_inv[j], c)

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        u_inv[i], u_inv[k] = u_inv[k], u_inv[i]

    def swap_cols(j, k):  # both are zero above row t
        for row in a[t:]:
            if j in row or k in row:
                x, y = row.pop(j, 0), row.pop(k, 0)
                if y:
                    row[j] = y
                if x:
                    row[k] = x
        v[j], v[k] = v[k], v[j]
        v_inv[j], v_inv[k] = v_inv[k], v_inv[j]

    def negate_row(i):
        a[i] = {j: -x for j, x in a[i].items()}
        u[i] = {j: -x for j, x in u[i].items()}
        u_inv[i] = {j: -x for j, x in u_inv[i].items()}

    t = 0
    while t < min(m, ncols):
        # the smallest nonzero entry in the remaining block
        pivot, best = None, 0
        for i in range(t, m):
            if a[i]:
                x, j = min((abs(x), j) for j, x in a[i].items())
                if pivot is None or x < best:
                    pivot, best = (i, j), x
                    if best == 1:
                        break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if t in a[i]:
                row_op(i, t, a[i][t] // p)
                if t in a[i]:
                    dirty = True
        for j in sorted(a[t])[1:]:  # the keys after t
            col_op(j, t, a[t][j] // p)
            if j in a[t]:
                dirty = True
        if dirty:
            continue
        # pivot clean; pull in any entry it does not divide yet
        if p != 1:  # 1 divides every entry
            culprit = next((i for i in range(t + 1, m) if any(x % p for x in a[i].values())), None)
            if culprit is not None:
                row_op(t, culprit, -1)  # row t += row culprit
                continue
        t += 1

    if not _is_inverse_pair(u, u_inv) or not _is_inverse_pair(v_inv, v):
        raise AssertionError("transform matrices lost unimodularity")
    factors = tuple(a[i][i] for i in range(t))  # the block from row t on is zero
    product = [{} for _ in range(m)]  # U^-1 * D * V^-1, by rows
    for i, x in enumerate(factors):
        for r, y in u_inv[i].items():
            for k, z in v_inv[i].items():
                product[r][k] = product[r].get(k, 0) + x * y * z
    if any({k: x for k, x in got.items() if x} != row for got, row in zip(product, rows)):
        raise AssertionError("certificate U*A*V = D failed to re-verify")
    return SmithForm(
        u=tuple(u),
        v=tuple(v),
        v_inv=tuple(v_inv),
        invariant_factors=factors,
        free_rank=ncols - len(factors),
    )


def _exponent_sums(word) -> dict:
    """The nonzero exponent sums of a word, by generator."""
    sums: dict = {}
    for g, s in word:
        sums[g] = sums.get(g, 0) + s
    return {g: x for g, x in sums.items() if x}


def _find(parent: list, x: int) -> int:
    """The root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _orbit_map(p: Presentation) -> tuple[list[int], list[dict]]:
    """The component of each generator in the graph whose edges are the
    relators with exponent-sum row +-(e_a - e_b), numbered in order of least
    generator, and the other nonzero exponent-sum rows, by relator.

    Components are merged by union-find, and each merge keeps the relator it
    came from as an edge of a spanning forest, which `_check_forest`
    re-derives from the relator's letters before the map is returned.  For
    presentation_of(q) every nonzero row is such an edge and the components
    are the orbits of q; a word's exponent sums added up over each component
    are its per-orbit exponent sums.
    """
    parent = list(range(p.ngens))
    forest = []
    rest = []
    for i, w in enumerate(p.relators):
        row = _exponent_sums(w)
        if len(row) == 2 and sorted(row.values()) == [-1, 1]:
            a, b = row
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
                forest.append((a, b, i))
        elif row:
            rest.append(row)
    label: dict = {}
    orbit = [label.setdefault(_find(parent, g), len(label)) for g in range(p.ngens)]
    _check_forest(p, orbit, forest)
    return orbit, rest


def _check_forest(p: Presentation, orbit: Sequence[int], forest) -> None:
    """Certify that relator rows span the kernel of e_g -> e_orbit[g].

    Each edge (a, b, i) must be the exponent-sum row +-(e_a - e_b) of relator
    i, re-derived from its letters, with orbit[a] == orbit[b], and the orbit
    map must take ngens - |forest| values.  Union-find keeps an edge only
    where it joins two components, so the forest is acyclic and has
    ngens - |forest| components; the map is constant on each, so they are
    its fibres, and the forest edges span its kernel.
    """
    for a, b, i in forest:
        if _exponent_sums(p.relators[i]) not in ({a: 1, b: -1}, {a: -1, b: 1}):
            raise AssertionError(f"forest edge ({a}, {b}) is not the row of relator {i}")
        if orbit[a] != orbit[b]:
            raise AssertionError(f"forest edge ({a}, {b}) joins two components")
    if len(set(orbit)) != p.ngens - len(forest):
        raise AssertionError("the forest does not span the components")


def abelianization(p: Presentation) -> tuple[int, tuple]:
    """Cokernel of the exponent-sum matrix: (free rank, nontrivial torsion factors).

    Lemma: if the rows +-(e_a - e_b) among the relators join the generators
    into c components, the map e_g -> (the basis vector of g's component)
    from Z^ngens onto Z^c has for kernel the span of the edges of any
    spanning forest of those rows.  That kernel lies in the row lattice, so
    the cokernel of the rows is the cokernel of their images in Z^c, where
    the difference rows vanish.  So only the images of the other rows reach
    the Smith form, on c columns, and of those only the nonzero ones.
    """
    orbit, rest = _orbit_map(p)
    rows = []
    for row in rest:
        image: dict = {}
        for g, x in row.items():
            image[orbit[g]] = image.get(orbit[g], 0) + x
        if image := {k: x for k, x in image.items() if x}:
            rows.append(image)
    snf = smith_normal_form(rows, len(set(orbit)))
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    return snf.free_rank, torsion


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------

# Live cosets no enumeration exceeds, whatever cap its caller passes.  A table
# on an infinite index grows until a bound stops it: on the three generators
# of As(R3) this one stops it at about 185 MB after 8.7 s, whole process, on a
# 2-CPU Xeon host with Python 3.11 (median of 5 runs).
_COSET_CEILING = 1_000_000


def _columns(word) -> tuple:
    """A word as table columns: (g, +1) is 2g and (g, -1) is 2g + 1, so c ^ 1 inverts c."""
    return tuple(2 * g + (s < 0) for g, s in free_reduce(word))


def _trace(table, c: int, word) -> int:
    """The coset a word of columns sends coset c to, in a complete table."""
    for col in word:
        c = table[c][col]
    return c


class _CosetTable:
    """HLT with coincidences (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005, section 5.1).  Row c maps each column to a coset or
    None.  A merge retires the higher coset under the lower in the union-find
    forest `parent`, so coset 0 stays live.
    """

    def __init__(self, ngens: int, max_cosets: int, relators):
        self.width = 2 * ngens
        self.limit = min(max_cosets, _COSET_CEILING)
        self.relators = relators
        self.table: list[list] = [[None] * self.width]
        self.parent = [0]
        self.nlive = 1

    def _merge(self, a: int, b: int, queue: list):
        lo, hi = sorted((_find(self.parent, a), _find(self.parent, b)))
        if lo != hi:
            self.parent[hi] = lo
            self.nlive -= 1
            queue.append(hi)

    def coincidence(self, a: int, b: int):
        table, parent = self.table, self.parent
        queue: list[int] = []
        self._merge(a, b, queue)
        for dead in queue:  # grows while it is read
            for col, target in enumerate(table[dead]):  # sees the entries it clears
                if target is None:
                    continue
                table[target][col ^ 1] = None
                mu, nu = _find(parent, dead), _find(parent, target)
                if table[mu][col] is not None:
                    self._merge(nu, table[mu][col], queue)
                elif table[nu][col ^ 1] is not None:
                    self._merge(mu, table[nu][col ^ 1], queue)
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def define(self, c: int, col: int) -> bool:
        """Send coset c along column col to a new coset.

        At the cap a lookahead runs first.  If it merges cosets, nothing is
        defined and False is returned, since c itself may have retired;
        otherwise the cap is exceeded.
        """
        if self.nlive >= self.limit:
            self._lookahead()
            if self.nlive < self.limit:
                return False
            if self.limit == _COSET_CEILING:
                raise QuandleKitError(
                    f"coset enumeration reached the fixed ceiling of {self.limit} live cosets,"
                    " which does not prove the index infinite; no flag raises the ceiling"
                )
            raise CosetLimitExceeded(
                f"coset enumeration exceeded the cap of {self.limit} live cosets,"
                " which does not prove the index infinite"
            )
        d = len(self.table)
        self.table.append([None] * self.width)
        self.table[c][col], self.table[d][col ^ 1] = d, c
        self.parent.append(d)
        self.nlive += 1
        return True

    def _lookahead(self) -> None:
        """Scan every relator at every live coset, coincidences only."""
        for c in range(len(self.table)):
            for rel in self.relators:
                if self.parent[c] != c:
                    break
                self.scan(c, rel)

    def scan(self, start: int, word, fill: bool = False) -> None:
        """Trace a word of columns from `start` forwards and backwards.

        A complete trace that closes up on different cosets records a
        coincidence, and a gap of one letter is a deduction.  A wider gap is
        bridged by defining a coset when `fill` is set; otherwise nothing
        can be deduced and the scan stops.  A definition that the cap's
        lookahead turns down restarts the scan, unless `start` retired.
        """
        table, parent = self.table, self.parent
        f, i, b, j = start, 0, start, len(word) - 1
        while True:
            while i <= j and (nxt := table[f][word[i]]) is not None:
                f = _find(parent, nxt)
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (prv := table[b][word[j] ^ 1]) is not None:
                b = _find(parent, prv)
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            if not fill:
                return
            if not self.define(f, word[i]):
                if parent[start] != start:
                    return
                f, i, b, j = start, 0, start, len(word) - 1


def todd_coxeter(
    p: Presentation,
    subgroup_words: Sequence = (),
    max_cosets: int = 100_000,
) -> int:
    """Index of the subgroup generated by the given words, by HLT enumeration.

    Completes only when the index is finite and fits under max_cosets live
    cosets; hitting the limit raises CosetLimitExceeded after one lookahead
    pass tries to shrink the table, and a cap below 1 raises CapExceeded, so
    a caller's `_cap_flag` names the flag for both.  A cap at or above
    `_COSET_CEILING` stops at the ceiling instead, with a QuandleKitError
    that names no flag, since none raises it.  A completed table is
    renumbered onto its live cosets and verified: every column is a
    bijection, every relator fixes every coset, every subgroup word coset 0.
    """
    if max_cosets < 1:
        raise CapExceeded(f"coset cap {max_cosets} is below the floor of 1")
    relators = [_columns(w) for w in p.relators]
    subgroup = [_columns(w) for w in subgroup_words]
    for w in subgroup:
        for col in w:
            if not 0 <= col < 2 * p.ngens:
                raise ValueError(f"subgroup word uses unknown generator {col // 2}")

    ct = _CosetTable(p.ngens, max_cosets, relators)
    for w in subgroup:
        ct.scan(0, w, fill=True)
    alpha = 0
    while alpha < len(ct.table):
        for rel in relators:
            if ct.parent[alpha] != alpha:
                break
            ct.scan(alpha, rel, fill=True)
        for col in range(ct.width):
            while ct.parent[alpha] == alpha and ct.table[alpha][col] is None:
                ct.define(alpha, col)
        alpha += 1

    live = [c for c, root in enumerate(ct.parent) if root == c]
    number = {c: k for k, c in enumerate(live)}
    table = [[number.get(d) for d in ct.table[c]] for c in live]
    for c, row in enumerate(table):
        if None in row:
            raise AssertionError("incomplete table escaped the loop")
        if any(table[d][col ^ 1] != c for col, d in enumerate(row)):
            raise AssertionError("table lost mirror symmetry")
        if any(_trace(table, c, rel) != c for rel in relators):
            raise AssertionError("relator does not act trivially on completed table")
    if any(_trace(table, 0, w) != 0 for w in subgroup):
        raise AssertionError("subgroup generator moved its own coset")
    return len(table)
