"""Constant quandle cocycles, extensions, and second cohomology.

A constant cocycle decorates each ordered pair of quandle elements with a
permutation of a fiber set; the two validity conditions are exactly what
makes the twisted product on pairs a quandle again.  This module validates
cocycles, builds the extension quandles, searches for cohomologous
witnesses, implements the gauge action of a base automorphism and fiber
permutations and the lift that realizes it on the extensions, and computes
H^2 with finite abelian coefficients by exact integer linear algebra.  A
cocycle's stabilizer is found by the automorphism search of `quandle.aut`.

Permutation products follow the package convention: (p*q)(x) = p(q(x)).
Inside the module a fiber permutation is an integer id of a `_Numbering`,
one per call, which composes two ids by a memoized lookup; `Perm` appears
only at the API boundary (`ConstantCocycle.table`, the arguments of `act`
and `lift`, witnesses and `to_json`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, prod

from .envgroup import smith_normal_form
from .errors import (
    CapExceeded,
    CocycleViolation,
    DiagonalViolation,
    require_field,
    require_int,
    require_ints,
    require_list,
)
from .perm import Perm, PermGroup, _invert
from .quandle import Quandle, _automorphisms, _require_automorphism, orbit_partition

# Largest coefficient group whose translations abelian_to_constant builds.
DEFAULT_FIBER_CAP = 64

# Largest fiber of cocycle_stabilizer; it caps the fiber only.
_STABILIZER_CAP = 9

# Trial division bound of `_coprime_base`: coefficient orders under its square factor into primes.
_TRIAL_BOUND = 2**16

# Largest work bound of are_cohomologous: (fiber size)! candidates at one root
# per orbit, each flood visiting at most |orbit| * n pairs, so s! * n**2 in all.
_LAMBDA_SEARCH_CAP = 10**6


@dataclass(frozen=True)
class ConstantCocycle:
    """A validated fiber-permutation table over a base quandle.

    Construct through validate_constant (or from_json); the dataclass
    itself performs no checking.
    """

    base: Quandle
    fiber_size: int
    table: tuple

    def to_json(self) -> dict:
        return {
            "kind": "constant_cocycle",
            "base": self.base.to_json(),
            "fiber": self.fiber_size,
            "table": [[list(p.images) for p in row] for row in self.table],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConstantCocycle":
        if doc.get("kind", "constant_cocycle") != "constant_cocycle":
            raise ValueError(f"expected a constant cocycle, got kind {doc['kind']!r}")
        return validate_constant(
            Quandle.from_json(require_field(doc, "base", "constant cocycle")),
            require_field(doc, "fiber", "constant cocycle"),
            _json_cells(require_field(doc, "table", "constant cocycle")),
        )


def _json_cells(table) -> list:
    """A cocycle table read from JSON: an array of arrays of cells."""
    rows = require_list(table, "cocycle 'table'")
    return [require_list(row, "cocycle table row") for row in rows]


def _conditions(t):
    """The cocycle condition a(x*y, z) a(x, y) = a(x*z, y*z) a(x, z), one triple at a time.

    Yields ((x, y, z), (i, j, k, l)) for the base table t, x outer and z
    inner, where i, j, k, l are the positions x*n + y of the four pairs in
    the flattened cocycle table: the condition reads a[i] a[j] = a[k] a[l].
    """
    n = len(t)
    for x, tx in enumerate(t):
        for y, xy in enumerate(tx):
            ty = t[y]
            for z in range(n):
                yield (x, y, z), (xy * n + z, x * n + y, tx[z] * n + ty[z], x * n + z)


def _check_conditions(base: Quandle, table, zero, failures) -> None:
    """Raise the first diagonal entry other than `zero`, then the first triple of `failures`.

    `failures` lazily yields the broken triples in `_conditions` order.
    """
    for x in range(base.order):
        if table[x][x] != zero:
            raise DiagonalViolation(x)
    for triple in failures:
        raise CocycleViolation(*triple)


class _Products(dict):
    """Row `left` of a numbering's product table: right id -> id of the product.

    A product is composed the first time it is looked up, and kept.
    """

    __slots__ = ("numbering", "left")

    def __init__(self, numbering: "_Numbering", left: int):
        super().__init__()
        self.numbering = numbering
        self.left = left

    def __missing__(self, right: int) -> int:
        images = self.numbering.images
        p = images[self.left]
        product = self[right] = self.numbering.number(tuple([p[t] for t in images[right]]))
        return product


class _Numbering:
    """The permutations of one fiber that a call meets, numbered in the order met.

    Inside this module a fiber permutation is its id: `images[i]` is the
    image tuple of id i, id 0 is the identity, and `products[i][j]` is the id
    of images[i] * images[j].  Products and inverses are composed on their
    first request and memoized by id, never laid out as an s! x s! table,
    since fibers reach 64 points.  `perm(i)` makes the one `Perm` of id i,
    for the API boundary only.
    """

    __slots__ = ("fiber_size", "images", "ids", "products", "_inverses", "_perms")

    def __init__(self, fiber_size: int):
        self.fiber_size = fiber_size
        self.images: list = []
        self.ids: dict = {}
        self.products: list = []
        self._inverses: dict = {}
        self._perms: dict = {}
        self.number(tuple(range(fiber_size)))

    def number(self, images: tuple) -> int:
        """The id of an image tuple, new if the tuple is."""
        i = self.ids.get(images)
        if i is None:
            i = self.ids[images] = len(self.images)
            self.images.append(images)
            self.products.append(_Products(self, i))
        return i

    def numbered(self, table) -> tuple:
        """A table of `Perm`s as rows of ids."""
        number = self.number
        return tuple(tuple(number(p.images) for p in row) for row in table)

    def inverse(self, i: int) -> int:
        j = self._inverses.get(i)
        if j is None:
            j = self._inverses[i] = self.number(_invert(self.images[i]))
            self._inverses[j] = i
        return j

    def perm(self, i: int) -> Perm:
        p = self._perms.get(i)
        if p is None:
            p = self._perms[i] = Perm._trusted(self.images[i])
        return p

    def table(self, ids) -> tuple:
        """Rows of ids as a table of `Perm`s."""
        perm = self.perm
        return tuple(tuple(map(perm, row)) for row in ids)


def _checked(base: Quandle, numbering: _Numbering, ids) -> ConstantCocycle:
    """The cocycle with the id table `ids`, once its diagonal and every condition hold."""
    flat = [i for row in ids for i in row]
    products = numbering.products
    _check_conditions(base, ids, 0, (
        triple for triple, (i, j, k, l) in _conditions(base.table)
        if products[flat[i]][flat[j]] != products[flat[k]][flat[l]]
    ))
    return ConstantCocycle(base, numbering.fiber_size, numbering.table(ids))


def validate_constant(base: Quandle, fiber_size: int, table) -> ConstantCocycle:
    """Check the diagonal and pair-coherence conditions, with witnesses."""
    if require_int(fiber_size, "cocycle fiber") < 1:
        raise ValueError("fiber must have at least one point")
    n = base.order
    rows = tuple(table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"cocycle table must be {n}x{n}")
    a = tuple(
        tuple(
            p if isinstance(p, Perm) else Perm(require_ints(p, "cocycle entry"))
            for p in row
        )
        for row in rows
    )
    if any(len(p.images) != fiber_size for row in a for p in row):
        raise ValueError("cocycle entries must permute the fiber")
    numbering = _Numbering(fiber_size)
    return _checked(base, numbering, numbering.numbered(a))


def trivial_cocycle(base: Quandle, fiber_size: int) -> ConstantCocycle:
    row = (Perm.identity(fiber_size),) * base.order
    return ConstantCocycle(base, fiber_size, (row,) * base.order)


def extend(alpha: ConstantCocycle) -> Quandle:
    """The twisted product quandle on pairs, encoded as x * fiber + t."""
    n = alpha.base.order
    s = alpha.fiber_size
    bt = alpha.base.table
    table = [[0] * (n * s) for _ in range(n * s)]
    for x in range(n):
        for t in range(s):
            for y in range(n):
                image = alpha.table[x][y](t)
                for u in range(s):
                    table[x * s + t][y * s + u] = bt[x][y] * s + image
    return Quandle.from_table(table)


def lift(phi: Perm, thetas, s: int) -> Perm:
    """The map (x, t) -> (phi x, thetas[x] t) on the extension points x * s + t."""
    return Perm(
        phi.images[x] * s + theta.images[t]
        for x, theta in enumerate(thetas)
        for t in range(s)
    )


def are_cohomologous(alpha: ConstantCocycle, beta: ConstantCocycle):
    """Search for a lambda map linking two cocycles; None when there is none.

    The defining equation propagates lambda along inner orbits, so the
    search tries fiber permutations only at one root per orbit and floods
    the rest.  A returned witness is re-verified on every pair.
    """
    if alpha.base.table != beta.base.table:
        raise ValueError("cocycles live over different base quandles")
    if alpha.fiber_size != beta.fiber_size:
        raise ValueError("cocycles have different fibers")
    n = alpha.base.order
    s = alpha.fiber_size
    t = alpha.base.table
    if factorial(s) * n * n > _LAMBDA_SEARCH_CAP:
        raise CapExceeded(
            f"lambda search work {s}! * {n}**2 (fiber permutations times pairs)"
            f" exceeds cap {_LAMBDA_SEARCH_CAP}"
        )
    numbering = _Numbering(s)
    products = numbering.products
    a = numbering.numbered(alpha.table)
    b = numbering.numbered(beta.table)
    a_inverses = [[numbering.inverse(i) for i in row] for row in a]
    candidates = [numbering.number(p) for p in itertools.permutations(range(s))]

    lam: list = [None] * n

    def settle_orbit(block) -> bool:
        root = block[0]
        for choice in candidates:
            assignment: dict = {root: choice}
            queue = [root]
            ok = True
            while queue and ok:
                x = queue.pop()
                bx, lx, ax, tx = b[x], assignment[x], a_inverses[x], t[x]
                for y in range(n):
                    forced = products[products[bx[y]][lx]][ax[y]]
                    target = tx[y]
                    if target in assignment:
                        if assignment[target] != forced:
                            ok = False
                            break
                    else:
                        assignment[target] = forced
                        queue.append(target)
            if ok and len(assignment) == len(block):
                for x, p in assignment.items():
                    lam[x] = p
                return True
        return False

    for block in orbit_partition(alpha.base):
        if not settle_orbit(block):
            return None
    if _transport(numbering, t, range(n), lam, a) != b:
        raise AssertionError("lambda witness failed re-verification")
    return tuple(map(numbering.perm, lam))


def _transport(numbering: _Numbering, t, pinv, thetas, a) -> tuple:
    """Ids of beta(phi x, phi y) = thetas[x*y] a(x, y) thetas[x]^-1, unvalidated.

    `a` and `thetas` are ids of `numbering`, `t` is the base table and
    `pinv` lists the images of phi^-1.
    """
    products = numbering.products
    inverses = [numbering.inverse(theta) for theta in thetas]
    return tuple(
        tuple(products[products[thetas[t[x][y]]][a[x][y]]][inverses[x]] for y in pinv)
        for x in pinv
    )


def act(phi: Perm, thetas, alpha: ConstantCocycle) -> ConstantCocycle:
    """The gauge action of phi in Aut(base) and thetas, one fiber permutation per base element.

    Returns the validated beta(phi x, phi y) = thetas[x*y] alpha(x, y) thetas[x]^-1;
    lift(phi, thetas, s) maps extend(alpha) onto extend(beta).
    """
    _require_automorphism(alpha.base.table, phi)
    if len(thetas) != alpha.base.order:
        raise ValueError(f"need one fiber permutation per base element, got {len(thetas)}")
    if any(len(theta.images) != alpha.fiber_size for theta in thetas):
        raise ValueError("every theta must permute the fiber")
    numbering = _Numbering(alpha.fiber_size)
    beta = _transport(
        numbering,
        alpha.base.table,
        _invert(phi.images),
        [numbering.number(theta.images) for theta in thetas],
        numbering.numbered(alpha.table),
    )
    return _checked(alpha.base, numbering, beta)


def cocycle_stabilizer(alpha: ConstantCocycle) -> PermGroup:
    """The pairs (phi, theta) with act(phi, (theta,) * n, alpha) == alpha, as a group.

    A pair is held as phi + (n + theta) on n + s points, so the sorted walk
    lists the pairs in order.  The group is `_automorphisms` of one table,
    coloured by kind of point: base points x, fiber points n + u, and
    extension points (x, u) at n + s + x*s + u.  Column x sends y to y*x
    and (y, t) to (y*x, alpha(y, x) t); column n + u swaps each x with
    (x, u); column (x, u) swaps x with n + u.  The swaps force a map that
    is phi + (n + theta) on the first n + s points to send (x, u) to
    (phi x, theta u); the base columns then hold exactly when
    theta alpha(y, x) theta^-1 = alpha(phi y, phi x).  The restriction to
    those n + s points is thus faithful, and equal chain orders certify it.
    """
    n, s, t = alpha.base.order, alpha.fiber_size, alpha.base.table
    if s > _STABILIZER_CAP:
        raise CapExceeded(f"fiber size {s} exceeds cap {_STABILIZER_CAP}")
    e = n + s  # the extension point (x, u) is e + x*s + u
    columns = [
        [t[y][x] for y in range(n)] + list(range(n, e))
        + [e + t[y][x] * s + v for y in range(n) for v in alpha.table[y][x].images]
        for x in range(n)
    ]
    swaps = [[(x, e + x * s + u) for x in range(n)] for u in range(s)]  # columns n + u
    swaps += [[(x, n + u)] for x in range(n) for u in range(s)]  # columns (x, u)
    for pairs in swaps:
        column = list(range(e + n * s))
        for a, b in pairs:
            column[a], column[b] = b, a
        columns.append(column)
    lifts = _automorphisms(list(zip(*columns)), len(columns), [0] * n + [1] * s + [2] * (n * s))
    group = PermGroup.generated(e, [g[:e] for g in lifts._chain.gens[0]])
    if group.order != lifts.order:
        raise AssertionError("the stabilizer's lifts do not restrict faithfully")
    return group


def all_constant_cocycles(base: Quandle, fiber_size: int, cap: int = 10**6) -> list:
    """Every valid cocycle table, by backtracking over off-diagonal pairs.

    `cap` bounds the candidate entries tried, not the unpruned space.
    """
    n = base.order
    t = base.table
    numbering = _Numbering(fiber_size)
    products = numbering.products
    candidates = [numbering.number(p) for p in itertools.permutations(range(fiber_size))]
    # the off-diagonal pairs, as positions x*n + y of the flattened table
    free = [x * n + y for x in range(n) for y in range(n) if x != y]
    slot = {pos: i for i, pos in enumerate(free)}

    # a condition becomes checkable once its last off-diagonal pair is assigned
    due = [[] for _ in range(len(free))]
    for _, positions in _conditions(t):
        last = max(slot.get(p, -1) for p in positions)
        if last >= 0:
            due[last].append(positions)

    entries = [0] * (n * n)  # the identity everywhere
    out = []
    tried = 0

    def rec(k: int):
        nonlocal tried
        if k == len(free):
            ids = tuple(tuple(entries[x * n:(x + 1) * n]) for x in range(n))
            out.append(_checked(base, numbering, ids))
            return
        tried += len(candidates)
        if tried > cap:
            raise CapExceeded(f"cocycle search tried {tried} candidate entries, over cap {cap}")
        for p in candidates:
            entries[free[k]] = p
            if all(
                products[entries[i]][entries[j]] == products[entries[u]][entries[v]]
                for i, j, u, v in due[k]
            ):
                rec(k + 1)
        entries[free[k]] = 0

    rec(0)
    return out


# ---------------------------------------------------------------------------
# Abelian coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianCocycle:
    """A cocycle valued in Z_{m_1} + ... + Z_{m_r}, entries as tuples."""

    base: Quandle
    moduli: tuple
    table: tuple

    def to_json(self) -> dict:
        return {
            "kind": "abelian_cocycle",
            "base": self.base.to_json(),
            "moduli": list(self.moduli),
            "table": [[list(v) for v in row] for row in self.table],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AbelianCocycle":
        if doc.get("kind", "abelian_cocycle") != "abelian_cocycle":
            raise ValueError(f"expected an abelian cocycle, got kind {doc['kind']!r}")
        return validate_abelian(
            Quandle.from_json(require_field(doc, "base", "abelian cocycle")),
            require_field(doc, "moduli", "abelian cocycle"),
            _json_cells(require_field(doc, "table", "abelian cocycle")),
        )


def validate_abelian(base: Quandle, moduli, table) -> AbelianCocycle:
    moduli = tuple(require_ints(moduli, "cocycle moduli"))
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    n = base.order
    rows = tuple(table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"cocycle table must be {n}x{n}")
    r = len(moduli)

    def reduce(v):
        v = tuple(require_ints(v, "cocycle entry"))
        if len(v) != r:
            raise ValueError(f"entries must have {r} coordinates")
        return tuple(c % m for c, m in zip(v, moduli))

    a = tuple(tuple(reduce(v) for v in row) for row in rows)
    # one flat list of residues per coordinate, checked as integers
    lanes = [([v[c] for row in a for v in row], m) for c, m in enumerate(moduli)]
    _check_conditions(base, a, (0,) * r, (
        triple for triple, (i, j, k, l) in _conditions(base.table) for f, m in lanes
        if (f[i] + f[j] - f[k] - f[l]) % m
    ))
    return AbelianCocycle(base, moduli, a)


def abelian_to_constant(mu: AbelianCocycle, cap: int = DEFAULT_FIBER_CAP) -> ConstantCocycle:
    """Replace each coefficient value with its translation permutation.

    Fiber points are the coefficient-group elements in tuple-lexicographic
    order, so the fiber has size prod(moduli); a size above cap raises
    CapExceeded before any fiber point is built.
    """
    size = prod(mu.moduli)
    if size > cap:
        raise CapExceeded(f"coefficient group order {size} exceeds the fiber cap {cap}")
    elements = list(itertools.product(*[range(m) for m in mu.moduli]))
    index = {e: i for i, e in enumerate(elements)}

    def translation(v) -> Perm:
        return Perm(
            tuple(
                index[tuple((c + d) % m for c, d, m in zip(e, v, mu.moduli))]
                for e in elements
            )
        )

    table = tuple(tuple(translation(v) for v in row) for row in mu.table)
    return validate_constant(mu.base, size, table)


# ---------------------------------------------------------------------------
# H^2 with finite abelian coefficients
# ---------------------------------------------------------------------------


def _coprime_base(numbers) -> list:
    """Pairwise coprime integers above 1, ascending, over which each of `numbers` factors.

    Each of the positive `numbers` is a product of powers of the base.  Two
    parts with a common factor g are replaced by g and their cofactors
    until no two share one (E. Bach and J. Shallit, Algorithmic Number
    Theory, 1996, section 4.8); each part is then split by trial division
    below `_TRIAL_BOUND`.  So every part under `_TRIAL_BOUND`**2 is prime,
    and a part with no factor under the bound is kept whole: the parts stay
    coprime, which is all the decomposition needs, at no more than
    `_TRIAL_BOUND` / 2 divisions per part.
    """
    base: list = []
    pending = sorted({k for k in numbers if k > 1})
    while pending:
        k = pending.pop()
        for i, b in enumerate(base):
            g = gcd(k, b)
            if g > 1:
                del base[i]
                pending += [f for f in (g, b // g, k // g) if f > 1]
                break
        else:
            base.append(k)
    split = []
    for k in base:
        p = 2
        while p * p <= k and p < _TRIAL_BOUND:
            if k % p == 0:
                split.append(p)
                while k % p == 0:
                    k //= p
            p += 1 if p == 2 else 2
        if k > 1:
            split.append(k)
    return sorted(split)


def _base_powers(k: int, base) -> list:
    """The parts (b, b^e) of k over a coprime base: b^e divides k, b^(e+1) does not, e >= 1."""
    parts = []
    for b in base:
        power = 1
        while k % b == 0:
            k //= b
            power *= b
        if power > 1:
            parts.append((b, power))
    if k != 1:
        raise AssertionError("a number does not factor over its coprime base")
    return parts


def _condition_form(q: Quandle):
    """Smith normal form of the rows a[x*n + x] and a[i] + a[j] - a[k] - a[l] of `_conditions`."""
    n = q.order
    big = n * n
    rows = []
    for x in range(n):
        row = [0] * big
        row[x * n + x] = 1
        rows.append(row)
    for _, positions in _conditions(q.table):
        row = [0] * big
        for p, sign in zip(positions, (1, 1, -1, -1)):
            row[p] += sign
        if any(row):
            rows.append(row)
    return smith_normal_form(rows)


def _h2_single(q: Quandle, m: int, cond) -> list:
    """Cyclic decomposition of H^2(Q, Z_m): list of (order, flat) pairs.

    Each flat is a representative's n^2 residues at the positions x*n + y.
    `cond` is `_condition_form(q)`: the columns of its V, each scaled by
    m / gcd(d, m) for its diagonal entry d (the invariant factors first,
    then zeros), span the lattice of solutions mod m.  The coboundary plus
    m-multiple subgroup is rewritten in that basis and the quotient read off
    a second Smith normal form.
    """
    n = q.order
    big = n * n
    scale = [m // gcd(d, m) for d in cond.invariant_factors]
    scale += [1] * (big - len(scale))

    # V^-1 by sparse columns: columns[j] lists the (row, entry) pairs of column j
    columns = [[] for _ in range(big)]
    for i, row in enumerate(cond.v_inv):
        for j, c in row.items():
            columns[j].append((i, c))

    def to_lattice_coords(vec: dict) -> list:
        raw = [0] * big
        for j, c in vec.items():
            for i, v in columns[j]:
                raw[i] += v * c
        out = []
        for val, e in zip(raw, scale):
            if val % e:
                raise AssertionError("subgroup vector escaped the cocycle lattice")
            out.append(val // e)
        return out

    # the coboundary of the indicator of u: +1 in row u, -1 where x*y = u
    coboundaries = [Counter() for _ in range(n)]
    for x, tx in enumerate(q.table):
        for y, xy in enumerate(tx):
            coboundaries[x][x * n + y] += 1
            coboundaries[xy][x * n + y] -= 1
    gen_rows = [to_lattice_coords(vec) for vec in coboundaries]
    gen_rows += [to_lattice_coords({j: m}) for j in range(big)]

    quot = smith_normal_form(gen_rows)
    if quot.free_rank != 0:
        raise AssertionError("quotient must be finite")

    pieces = []
    for i, d in enumerate(quot.invariant_factors):
        if d <= 1:
            continue
        flat = [0] * big
        for k, c in quot.v_inv[i].items():
            for r, x in cond.v[k].items():
                flat[r] += x * scale[k] * c
        pieces.append((d, [x % m for x in flat]))
    return pieces


def compute_h2(q: Quandle, moduli, max_order: int = 8) -> tuple:
    """Invariant factors of H^2(Q, A) plus one representative per factor.

    Coefficients split componentwise, so each Z_m is solved on its own from
    the one `_condition_form` of the base and the cyclic pieces are
    recombined into ascending invariant factors over a coprime base of their
    orders (`_coprime_base`), which needs no full factorization; each
    representative is a validated cocycle of exactly that order in H^2.
    The factors are checked
    against universal coefficients: H_2(Q) = Z^(o^2 - o) + T for o orbits,
    where T has the invariant factors t of `_condition_form`, so
    H^2(Q, Z_m) = Z_m^(o^2 - o) + sum_t Z_gcd(t, m).
    """
    if q.order > max_order:
        raise CapExceeded(f"base order {q.order} exceeds cap {max_order}")
    moduli = tuple(int(m) for m in moduli)
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    r = len(moduli)
    n = q.order
    cond = _condition_form(q)
    pieces = [
        (order, c, flat)
        for c, m in enumerate(moduli) if m > 1
        for order, flat in _h2_single(q, m, cond)
    ]
    o = len(orbit_partition(q))
    predicted = [m for m in moduli for _ in range(o * o - o)]
    predicted += [gcd(t, m) for m in moduli for t in cond.invariant_factors]
    base = _coprime_base([order for order, _, _ in pieces] + predicted)

    # the parts (power, coordinate, flat residues) of each cyclic piece, by base element
    buckets: dict = {}
    for order, c, flat in pieces:
        m = moduli[c]
        for b, power in _base_powers(order, base):
            k = order // power
            buckets.setdefault(b, []).append((power, c, [k * v % m for v in flat]))

    for bucket in buckets.values():
        bucket.sort(key=lambda part: -part[0])

    depth = max((len(b) for b in buckets.values()), default=0)
    factors = []
    reps = []
    for i in range(depth):
        order = 1
        cells = [[0] * r for _ in range(n * n)]
        for bucket in buckets.values():
            if i < len(bucket):
                power, c, flat = bucket[i]
                order *= power
                for cell, value in zip(cells, flat):
                    cell[c] += value
        factors.append(order)
        reps.append(validate_abelian(q, moduli, [cells[x * n:(x + 1) * n] for x in range(n)]))
    factors.reverse()
    reps.reverse()

    parts = [sorted(pp for k in orders for pp in _base_powers(k, base))
             for orders in (predicted, factors)]
    if parts[0] != parts[1]:
        raise AssertionError("H^2 disagrees with its universal-coefficient prediction")
    return tuple(factors), reps
