"""Constant quandle cocycles, extensions, and second cohomology.

A constant cocycle decorates each ordered pair of quandle elements with a
permutation of a fiber set; the two validity conditions are exactly what
makes the twisted product on pairs a quandle again.  This module validates
cocycles, builds the extension quandles, searches for cohomologous
witnesses, implements the automorphism-group action with its stabilizers
and the induced embedding into the extension's automorphism group, and
computes H^2 with finite abelian coefficients by exact integer linear
algebra.

Permutation products follow the package convention: (p*q)(x) = p(q(x)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .envgroup import smith_normal_form
from .errors import (
    CapExceeded,
    CocycleViolation,
    DiagonalViolation,
    NotAutomorphism,
    NotInStabilizer,
    require_field,
    require_int,
    require_ints,
    require_list,
)
from .perm import Perm
from .quandle import Quandle, _first_unpreserved, aut, orbit_partition

# A lambda map is one fiber permutation per base element.
LambdaMap = tuple

# Largest coefficient group whose translations abelian_to_constant builds.
DEFAULT_FIBER_CAP = 64


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
    for row in a:
        for p in row:
            if len(p.images) != fiber_size:
                raise ValueError("cocycle entries must permute the fiber")
    for x in range(n):
        if not a[x][x].is_identity():
            raise DiagonalViolation(x)
    t = base.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if a[t[x][y]][z] * a[x][y] != a[t[x][z]][t[y][z]] * a[x][z]:
                    raise CocycleViolation(x, y, z)
    return ConstantCocycle(base, fiber_size, a)


def trivial_cocycle(base: Quandle, fiber_size: int) -> ConstantCocycle:
    ident = Perm.identity(fiber_size)
    row = (ident,) * base.order
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


def are_cohomologous(alpha: ConstantCocycle, beta: ConstantCocycle, cap: int = 10**6):
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
    candidates = [Perm(p) for p in itertools.permutations(range(s))]
    orbits = orbit_partition(alpha.base)
    if len(candidates) ** len(orbits) > cap:
        raise CapExceeded(
            f"lambda search space {len(candidates)}**{len(orbits)} exceeds cap {cap}"
        )

    lam: list = [None] * n

    def settle_orbit(block) -> bool:
        root = block[0]
        for choice in candidates:
            assignment: dict = {root: choice}
            queue = [root]
            ok = True
            while queue and ok:
                x = queue.pop()
                for y in range(n):
                    forced = beta.table[x][y] * assignment[x] * alpha.table[x][y].inverse()
                    target = t[x][y]
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

    for block in orbits:
        if not settle_orbit(block):
            return None
    witness = tuple(lam)
    for x in range(n):
        for y in range(n):
            if alpha.table[x][y] != witness[t[x][y]].inverse() * beta.table[x][y] * witness[x]:
                raise AssertionError("lambda witness failed re-verification")
    return witness


def _check_base_automorphism(q: Quandle, phi: Perm) -> None:
    if len(phi.images) != q.order:
        raise NotAutomorphism(f"permutation degree {len(phi.images)} != {q.order}")
    pair = _first_unpreserved(q.table, q.table, phi.images)
    if pair is not None:
        raise NotAutomorphism(f"map breaks the product at {pair}")


def act(phi: Perm, theta: Perm, alpha: ConstantCocycle) -> ConstantCocycle:
    """Transport a cocycle along a base automorphism and a fiber permutation."""
    _check_base_automorphism(alpha.base, phi)
    if len(theta.images) != alpha.fiber_size:
        raise ValueError("theta must permute the fiber")
    n = alpha.base.order
    pinv = phi.inverse()
    tinv = theta.inverse()
    table = tuple(
        tuple(theta * alpha.table[pinv(x)][pinv(y)] * tinv for y in range(n))
        for x in range(n)
    )
    return validate_constant(alpha.base, alpha.fiber_size, table)


def cocycle_stabilizer(alpha: ConstantCocycle, cap: int = 9) -> list:
    """All pairs (phi, theta) whose action fixes the cocycle table.

    Returns a closure-verified subgroup of Aut(base) x Sym(fiber) as a
    sorted list of permutation pairs.
    """
    n = alpha.base.order
    s = alpha.fiber_size
    if s > cap:
        raise CapExceeded(f"fiber size {s} exceeds cap {cap}")
    base_aut = aut(alpha.base, cap=max(cap, n)).elements
    pairs = []
    for phi in base_aut:
        pinv = phi.inverse()
        moved = [[alpha.table[pinv(x)][pinv(y)] for y in range(n)] for x in range(n)]
        for images in itertools.permutations(range(s)):
            theta = Perm(images)
            tinv = theta.inverse()
            if all(
                theta * moved[x][y] * tinv == alpha.table[x][y]
                for x in range(n)
                for y in range(n)
            ):
                pairs.append((phi, theta))
    members = set(pairs)
    if (Perm.identity(n), Perm.identity(s)) not in members:
        raise AssertionError("stabilizer lost the identity pair")
    for p1, t1 in pairs:
        for p2, t2 in pairs:
            if (p1 * p2, t1 * t2) not in members:
                raise AssertionError("stabilizer is not closed under composition")
    return sorted(pairs)


def embed(pair, alpha: ConstantCocycle) -> Perm:
    """Automorphism (x,t) -> (phi x, theta t) of the extension quandle.

    Works exactly when the pair stabilizes the cocycle; anything else
    raises NotInStabilizer, which is the converse direction of the
    stabilizer embedding.
    """
    phi, theta = pair
    moved = act(phi, theta, alpha)
    if moved.table != alpha.table:
        raise NotInStabilizer("pair does not fix the cocycle")
    n = alpha.base.order
    s = alpha.fiber_size
    gamma = Perm(tuple(phi(i // s) * s + theta(i % s) for i in range(n * s)))
    ext = extend(alpha)
    if _first_unpreserved(ext.table, ext.table, gamma.images) is not None:
        raise AssertionError("stabilizing pair failed to act on the extension")
    return gamma


def all_constant_cocycles(base: Quandle, fiber_size: int, cap: int = 10**6) -> list:
    """Every valid cocycle table, by backtracking over off-diagonal pairs."""
    n = base.order
    t = base.table
    candidates = [Perm(p) for p in itertools.permutations(range(fiber_size))]
    free = [(x, y) for x in range(n) for y in range(n) if x != y]
    if len(candidates) ** len(free) > cap:
        raise CapExceeded(
            f"cocycle space {len(candidates)}**{len(free)} exceeds cap {cap}"
        )
    slot = {p: i for i, p in enumerate(free)}

    def slot_of(x, y):
        return -1 if x == y else slot[(x, y)]

    # triples become checkable once their last involved pair is assigned
    due = [[] for _ in range(len(free))]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                involved = [
                    slot_of(t[x][y], z),
                    slot_of(x, y),
                    slot_of(t[x][z], t[y][z]),
                    slot_of(x, z),
                ]
                last = max(involved)
                if last >= 0:
                    due[last].append((x, y, z))

    ident = Perm.identity(fiber_size)
    entries = [[ident] * n for _ in range(n)]
    out = []

    def value(x, y):
        return entries[x][y]

    def consistent(triple) -> bool:
        x, y, z = triple
        return value(t[x][y], z) * value(x, y) == value(t[x][z], t[y][z]) * value(x, z)

    def rec(k: int):
        if k == len(free):
            out.append(
                validate_constant(
                    base, fiber_size, tuple(tuple(row) for row in entries)
                )
            )
            return
        x, y = free[k]
        for p in candidates:
            entries[x][y] = p
            if all(consistent(tr) for tr in due[k]):
                rec(k + 1)
        entries[x][y] = ident

    rec(0)
    return out


def constant_cocycle_classes(base: Quandle, fiber_size: int, cap: int = 10**6) -> list:
    """One representative per cohomology class of constant cocycles."""
    reps = []
    for alpha in all_constant_cocycles(base, fiber_size, cap=cap):
        if not any(are_cohomologous(alpha, r, cap=cap) is not None for r in reps):
            reps.append(alpha)
    return reps


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
    zero = (0,) * r
    for x in range(n):
        if a[x][x] != zero:
            raise DiagonalViolation(x)

    def add(u, v):
        return tuple((c + d) % m for c, d, m in zip(u, v, moduli))

    t = base.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if add(a[t[x][y]][z], a[x][y]) != add(a[t[x][z]][t[y][z]], a[x][z]):
                    raise CocycleViolation(x, y, z)
    return AbelianCocycle(base, moduli, a)


def zero_abelian_cocycle(base: Quandle, moduli) -> AbelianCocycle:
    moduli = tuple(int(m) for m in moduli)
    zero = (0,) * len(moduli)
    row = (zero,) * base.order
    return AbelianCocycle(base, moduli, (row,) * base.order)


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


def _h2_single(q: Quandle, m: int) -> list:
    """Cyclic decomposition of H^2(Q, Z_m): list of (order, table) pairs.

    Solves the cocycle conditions as a sublattice of Z^(n^2), rewrites the
    coboundary plus m-multiple subgroup in a basis of that lattice, and
    reads the quotient off a second Smith normal form.
    """
    n = q.order
    t = q.table
    big = n * n

    def pos(x, y):
        return x * n + y

    rows = []
    for x in range(n):
        row = [0] * big
        row[pos(x, x)] = 1
        rows.append(row)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = [0] * big
                row[pos(t[x][y], z)] += 1
                row[pos(x, y)] += 1
                row[pos(t[x][z], t[y][z])] -= 1
                row[pos(x, z)] -= 1
                if any(row):
                    rows.append(row)

    cond = smith_normal_form(rows)
    diag = [cond.d[i][i] for i in range(min(len(rows), big))]
    scale = [m // gcd(d, m) if d else 1 for d in diag]
    scale += [1] * (big - len(scale))
    v, v_inv = cond.v, cond.v_inv

    def to_lattice_coords(vec) -> list:
        support = [(j, c) for j, c in enumerate(vec) if c]
        raw = [sum(row[j] * c for j, c in support) for row in v_inv]
        out = []
        for val, e in zip(raw, scale):
            if val % e:
                raise AssertionError("subgroup vector escaped the cocycle lattice")
            out.append(val // e)
        return out

    gen_rows = []
    for u in range(n):
        vec = [0] * big
        for x in range(n):
            for y in range(n):
                if x == u:
                    vec[pos(x, y)] += 1
                if t[x][y] == u:
                    vec[pos(x, y)] -= 1
        gen_rows.append(to_lattice_coords(vec))
    for j in range(big):
        vec = [0] * big
        vec[j] = m
        gen_rows.append(to_lattice_coords(vec))

    quot = smith_normal_form(gen_rows)
    if quot.free_rank != 0:
        raise AssertionError("quotient must be finite")

    pieces = []
    for i, d in enumerate(quot.invariant_factors):
        if d <= 1:
            continue
        coords = quot.v_inv[i]
        ambient = [
            sum(v[r][k] * scale[k] * coords[k] for k in range(big)) % m
            for r in range(big)
        ]
        table = tuple(
            tuple((ambient[pos(x, y)],) for y in range(n)) for x in range(n)
        )
        pieces.append((d, table))
    return pieces


def _scale_table(table, k: int, moduli) -> tuple:
    return tuple(
        tuple(tuple((k * c) % m for c, m in zip(v, moduli)) for v in row)
        for row in table
    )


def _add_tables(a, b, moduli) -> tuple:
    return tuple(
        tuple(
            tuple((c + d) % m for c, d, m in zip(u, v, moduli))
            for u, v in zip(ra, rb)
        )
        for ra, rb in zip(a, b)
    )


def compute_h2(q: Quandle, moduli, max_order: int = 8) -> tuple:
    """Invariant factors of H^2(Q, A) plus one representative per factor.

    Coefficients split componentwise, so each Z_m is solved on its own and
    the cyclic pieces are recombined into ascending invariant factors; each
    representative is a validated cocycle of exactly that order in H^2.
    """
    if q.order > max_order:
        raise CapExceeded(f"base order {q.order} exceeds cap {max_order}")
    moduli = tuple(int(m) for m in moduli)
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    r = len(moduli)
    n = q.order

    def widen(table, c: int) -> tuple:
        return tuple(
            tuple(
                tuple(v[0] if k == c else 0 for k in range(r)) for v in row
            )
            for row in table
        )

    pieces = []
    for c, m in enumerate(moduli):
        if m == 1:
            continue
        for order, table in _h2_single(q, m):
            pieces.append((order, widen(table, c)))

    prime_buckets: dict = {}
    for order, table in pieces:
        rest = order
        p = 2
        while rest > 1:
            if rest % p == 0:
                power = 1
                while rest % p == 0:
                    rest //= p
                    power *= p
                prime_buckets.setdefault(p, []).append(
                    (power, _scale_table(table, order // power, moduli))
                )
            p += 1 if p == 2 else 2

    for bucket in prime_buckets.values():
        bucket.sort(key=lambda pair: -pair[0])

    depth = max((len(b) for b in prime_buckets.values()), default=0)
    zero_table = tuple(tuple((0,) * r for _ in range(n)) for _ in range(n))
    factors = []
    reps = []
    for i in range(depth):
        order = 1
        table = zero_table
        for bucket in prime_buckets.values():
            if i < len(bucket):
                order *= bucket[i][0]
                table = _add_tables(table, bucket[i][1], moduli)
        factors.append(order)
        reps.append(validate_abelian(q, moduli, table))
    factors.reverse()
    reps.reverse()
    return tuple(factors), reps
