"""Constant quandle cocycles, extensions, and second cohomology.

A constant cocycle decorates each ordered pair of quandle elements with a
permutation of a fiber set; the two validity conditions are exactly what
makes the twisted product on pairs a quandle again.  This module validates
cocycles, builds the extension quandles, searches for cohomologous
witnesses, implements the gauge action of a base automorphism and fiber
permutations and the lift that realizes it on the extensions, and computes
H^2 with finite abelian coefficients by certified elimination modulo each
coefficient order.  A cocycle's stabilizer is found by `quandle.aut`'s search.

Permutation products follow the package convention: (p*q)(x) = p(q(x)).
A fiber permutation is its image tuple, composed by `perm._compose` and
inverted by `perm._invert`, in `ConstantCocycle.table`, `lift` and the
witnesses of `are_cohomologous` too.  `Perm` is only for the validated
arguments of `act` and `lift`, and for `validate_constant` input.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
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
from .perm import Perm, PermGroup, _compose, _invert
from .quandle import Quandle, _automorphisms, _base, _require_automorphism, orbit_partition

# Largest coefficient group whose translations abelian_to_constant builds.
DEFAULT_FIBER_CAP = 64

# Largest base quandle of compute_h2.
DEFAULT_H2_CAP = 8

# Largest fiber of cocycle_stabilizer; it caps the fiber only.
_STABILIZER_CAP = 9

# Largest work bound of are_cohomologous: (fiber size)! candidates at one root
# per orbit, each flood visiting at most |orbit| * n pairs, so s! * n**2 in all.
_LAMBDA_SEARCH_CAP = 10**6


@dataclass(frozen=True)
class ConstantCocycle:
    """A validated table of fiber permutations, as image tuples, over a base quandle.

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
            "table": [[list(p) for p in row] for row in self.table],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConstantCocycle":
        if doc.get("kind", "constant_cocycle") != "constant_cocycle":
            raise ValueError(f"expected a constant cocycle, got kind {doc['kind']!r}")
        return validate_constant(Quandle.from_json(require_field(doc, "base", "constant cocycle")),
                                 require_field(doc, "fiber", "constant cocycle"),
                                 _json_cells(require_field(doc, "table", "constant cocycle")))


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


def _first_break(t, lanes):
    """The first diagonal cell (x,), else triple of `_conditions`, where some lane
    (residues by cell x*n + y, modulus) is no cocycle; None when every lane is one."""
    n = len(t)
    for x in range(n):
        if any(f[x * n + x] % m for f, m in lanes):
            return (x,)
    for triple, (i, j, k, l) in _conditions(t):
        if (i != k or j != l) and (i != l or j != k):  # else it holds in every lane
            for f, m in lanes:
                if (f[i] + f[j] - f[k] - f[l]) % m:
                    return triple
    return None


def _checked(base: Quandle, s: int, rows) -> ConstantCocycle:
    """The cocycle with the image-tuple table `rows`, once its diagonal and every condition hold.

    With the diagonal checked, the triples with x = y or y = z read a = a and are skipped.
    """
    flat = [p for row in rows for p in row]
    identity = tuple(range(s))
    for x in range(base.order):
        if rows[x][x] != identity:
            raise DiagonalViolation(x)
    for (x, y, z), (i, j, k, l) in _conditions(base.table):
        if x != y != z and _compose(flat[i], flat[j]) != _compose(flat[k], flat[l]):
            raise CocycleViolation(x, y, z)
    return ConstantCocycle(base, s, rows)


def validate_constant(base: Quandle, fiber_size: int, table) -> ConstantCocycle:
    """Check the diagonal and pair-coherence conditions, with witnesses."""
    if require_int(fiber_size, "cocycle fiber") < 1:
        raise ValueError("fiber must have at least one point")
    n = base.order
    rows = tuple(table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"cocycle table must be {n}x{n}")
    a = tuple(tuple((p if isinstance(p, Perm) else Perm(require_ints(p, "cocycle entry"))).images
                    for p in row) for row in rows)
    if any(len(p) != fiber_size for row in a for p in row):
        raise ValueError("cocycle entries must permute the fiber")
    return _checked(base, fiber_size, a)


def trivial_cocycle(base: Quandle, fiber_size: int) -> ConstantCocycle:
    row = (tuple(range(fiber_size)),) * base.order
    return ConstantCocycle(base, fiber_size, (row,) * base.order)


def extend(alpha: ConstantCocycle) -> Quandle:
    """The twisted product quandle on pairs, encoded as x * fiber + t."""
    s = alpha.fiber_size
    table = []
    for base_row, fibers in zip(alpha.base.table, alpha.table):
        for t in range(s):
            row = []
            for xy, theta in zip(base_row, fibers):
                row += [xy * s + theta[t]] * s
            table.append(row)
    return Quandle.from_table(table)


def lift(phi: Perm, thetas, s: int) -> tuple:
    """The images of (x, t) -> (phi x, thetas[x] t) on the extension points x * s + t.

    phi and the n thetas on s points are `Perm`s, so the map is a bijection, not checked again.
    """
    return tuple(phi.images[x] * s + u for x, theta in enumerate(thetas) for u in theta.images)


def are_cohomologous(alpha: ConstantCocycle, beta: ConstantCocycle):
    """Search for a lambda map linking two cocycles, as image tuples; None when there is none.

    The defining equation propagates lambda along inner orbits, so the
    search tries fiber permutations only at one root per orbit and floods
    the rest.  A returned witness is re-verified on every pair.
    """
    if alpha.base.table != beta.base.table:
        raise ValueError("cocycles live over different base quandles")
    if alpha.fiber_size != beta.fiber_size:
        raise ValueError("cocycles have different fibers")
    n, s, t = alpha.base.order, alpha.fiber_size, alpha.base.table
    if factorial(s) * n * n > _LAMBDA_SEARCH_CAP:
        raise CapExceeded(
            f"lambda search work {s}! * {n}**2 (fiber permutations times pairs)"
            f" exceeds cap {_LAMBDA_SEARCH_CAP}"
        )
    a, b = alpha.table, beta.table
    a_inverses = [[_invert(p) for p in row] for row in a]
    candidates = list(itertools.permutations(range(s)))

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
                    forced = _compose(_compose(bx[y], lx), ax[y])
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
    if _transport(t, range(n), lam, a) != b:
        raise AssertionError("lambda witness failed re-verification")
    return tuple(lam)


def _transport(t, pinv, thetas, a) -> tuple:
    """Image tuples of beta(phi x, phi y) = thetas[x*y] a(x, y) thetas[x]^-1, unvalidated.

    `a` and `thetas` are image tuples, `t` is the base table and `pinv`
    lists the images of phi^-1.
    """
    inverses = [_invert(theta) for theta in thetas]
    return tuple(tuple(_compose(_compose(thetas[t[x][y]], a[x][y]), inverses[x]) for y in pinv)
                 for x in pinv)


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
    beta = _transport(alpha.base.table, _invert(phi.images),
                      [theta.images for theta in thetas], alpha.table)
    return _checked(alpha.base, alpha.fiber_size, beta)


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
        + [e + t[y][x] * s + v for y in range(n) for v in alpha.table[y][x]]
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
    group = PermGroup(e, [g[:e] for g in lifts.strong_generators])
    if group.order != lifts.order:
        raise AssertionError("the stabilizer's lifts do not restrict faithfully")
    return group


def all_constant_cocycles(base: Quandle, fiber_size: int, cap: int = 10**6) -> list:
    """Every valid cocycle table, by backtracking over off-diagonal pairs.

    `cap` bounds the candidate entries tried, not the unpruned space.
    """
    n = base.order
    t = base.table
    identity = tuple(range(fiber_size))
    candidates = list(itertools.permutations(identity))
    # the off-diagonal pairs, as positions x*n + y of the flattened table
    free = [x * n + y for x in range(n) for y in range(n) if x != y]
    slot = {pos: i for i, pos in enumerate(free)}

    # a condition becomes checkable once its last off-diagonal pair is assigned
    due = [[] for _ in range(len(free))]
    for _, positions in _conditions(t):
        last = max(slot.get(p, -1) for p in positions)
        if last >= 0:
            due[last].append(positions)

    entries = [identity] * (n * n)
    out = []
    tried = 0

    def rec(k: int):
        nonlocal tried
        if k == len(free):
            rows = tuple(tuple(entries[x * n:(x + 1) * n]) for x in range(n))
            out.append(_checked(base, fiber_size, rows))
            return
        tried += len(candidates)
        if tried > cap:
            raise CapExceeded(f"cocycle search tried {tried} candidate entries, over cap {cap}")
        for p in candidates:
            entries[free[k]] = p
            if all(
                _compose(entries[i], entries[j]) == _compose(entries[u], entries[v])
                for i, j, u, v in due[k]
            ):
                rec(k + 1)
        entries[free[k]] = identity

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
        return validate_abelian(Quandle.from_json(require_field(doc, "base", "abelian cocycle")),
                                require_field(doc, "moduli", "abelian cocycle"),
                                _json_cells(require_field(doc, "table", "abelian cocycle")))


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
    broken = _first_break(base.table, [([v[c] for row in a for v in row], m)
                                       for c, m in enumerate(moduli)])
    if broken is not None:
        raise (DiagonalViolation if len(broken) == 1 else CocycleViolation)(*broken)
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

    def translation(v) -> tuple:
        return tuple(index[tuple((c + d) % m for c, d, m in zip(e, v, mu.moduli))]
                     for e in elements)

    return _checked(mu.base, size, tuple(tuple(map(translation, row)) for row in mu.table))


# ---------------------------------------------------------------------------
# H^2 with finite abelian coefficients
# ---------------------------------------------------------------------------


def _bezout(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for b > 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _axpy(target: tuple, source: tuple, c: int, moduli) -> None:
    """target += c * source in place; each is a tuple of sparse parts, part j taken mod moduli[j]."""
    for x, y, m in zip(target, source, moduli):
        for k, v in y.items():
            if w := (x.get(k, 0) + c * v) % m:
                x[k] = w
            else:
                x.pop(k, None)


def _scaled(c: int, parts: tuple, moduli) -> tuple:
    return tuple({k: w for k, v in x.items() if (w := c * v % m)} for x, m in zip(parts, moduli))


def _echelon(rows, m: int) -> dict:
    """An echelon form over Z/m of sparse integer rows, each row with its stated combination.

    A row's pivot is its highest key.  Returns {pivot: (row, combination)}:
    the pivot entry divides m, and row = sum c * rows[i] over the items (i, c)
    of the combination, mod m.  The steps are gcd-based, so m is never
    factored (Howell, "Spans in the module (Z_m)^s", 1986): a new pivot b
    becomes gcd(b, m) by a Bezout multiple and (m / gcd(b, m)) times its row
    is reduced in turn; a pivot a that does not divide an entry b yields to
    the Bezout combination of both rows, which are reduced again.  So (m / d)
    times a row of pivot d lies in the span of the rows below it.  For prime
    m this is plain elimination.
    """
    both = (m, m)
    pivots: dict = {}
    pending = [_scaled(1, (row, {i: 1}), both) for i, row in enumerate(rows)][::-1]
    while pending:
        pair = pending.pop()
        while pair[0]:
            c = max(pair[0])
            held = pivots.get(c)
            if held is None:
                g, s, _ = _bezout(pair[0][c], m)
                pivots[c] = _scaled(s, pair, both)
                pending.append(_scaled(m // g, pair, both))
                break
            a, b = held[0][c], pair[0][c]
            if b % a == 0:
                _axpy(pair, held, -(b // a), both)
                continue
            g, s, t = _bezout(a, b)
            pivots[c] = _scaled(s, held, both)
            _axpy(pivots[c], pair, t, both)
            pending += [held, pair, _scaled(m // g, pivots[c], both)]
            break
    return pivots


def _kernel(form: dict, size: int, m: int) -> list:
    """Generators (lead, entry, vector) of the vectors on keys 0..size-1 that the rows of `form` kill.

    One per key f that is no pivot, with entry 1 at f, and one per pivot f
    of entry d other than 1, with entry m / d; each is zero below f and at
    the other keys of the first kind, with least residues at the pivots
    above.  A kernel vector zero below a key is a sum of those led above it.
    """
    above = sorted(form)
    gens = []
    for f in range(size):
        held = form.get(f)
        if held is not None and held[0][f] == 1:
            continue
        vec = {f: 1 if held is None else m // held[0][f]}
        for c in above[bisect_right(above, f):]:
            row = form[c][0]
            total = -sum(v * vec[k] for k, v in row.items() if k in vec) % m
            if total % row[c]:
                raise AssertionError("an echelon row has lost the Howell property")
            if total:
                vec[c] = total // row[c]
        gens.append((f, vec[f], vec))
    return gens


def _cyclic_pieces(gens, m: int) -> list:
    """The group that generators of `_kernel` span, as (order, vector) pieces, ascending.

    When (m / e) times each generator of entry e is zero, the generators are
    the pieces.  Else (m / e) times each reduces through those above it to a
    relation, and piece i is row i of V^-1 of their Smith form on the generators.
    """
    pieces = sorted(((m // e, vec) for _, e, vec in gens), key=lambda piece: piece[0])
    if not any(_scaled(d, (vec,), (m,))[0] for d, vec in pieces):
        return pieces
    relations = [{j: m // e} for j, (_, e, _) in enumerate(gens)]
    for j, (_, e, vec) in enumerate(gens):
        rest = _scaled(m // e, (vec,), (m,))
        for i, (lead, e_i, other) in enumerate(gens[j + 1:], j + 1):
            if c := -(rest[0].get(lead, 0) // e_i):
                relations[j][i] = c
                _axpy(rest, (other,), c, (m,))
        if rest[0]:
            raise AssertionError("a kernel generator has lost the Howell property")
    snf = smith_normal_form(relations, len(gens))
    pieces = [(d, ({},)) for d in snf.invariant_factors]
    for (_, vec), combination in zip(pieces, snf.v_inv):
        for j, c in combination.items():
            _axpy(vec, (gens[j][2],), c, (m,))
    return [(d, vec[0]) for d, vec in pieces if d > 1]


def _h2_cyclic(n: int, conditions, coboundaries, o: int, m: int) -> tuple:
    """The cyclic pieces of H^2(Q, Z_m), and the generators to check as cocycles, by cell.

    `conditions` and `coboundaries` are sparse rows over the cells x*n + y.
    B^2, reduced with its first cells highest, must have n - o pivots, all 1,
    so |B^2| = m^(n - o) and B^2 meets W = {z in Z^2 : z is zero on B^2's
    pivot cells P} in 0.  With P lowest, the conditions' kernel generators led
    outside P span W, and Z^2 = B^2 + W.  Those generators, diagonalized by
    `_cyclic_pieces` if they are no direct sum, are the representatives: when
    every pivot is 1, as for every prime m, W's reduced echelon basis.
    """
    size = n * n
    brows = [{size - 1 - i: v for i, v in row.items()} for row in coboundaries]
    bform = _echelon(brows, m)
    if len(bform) != n - o or any(row[c] != 1 for c, (row, _) in bform.items()):
        raise AssertionError("B^2 does not have order m^(n - o)")
    lead = sorted(size - 1 - c for c in bform)
    order = lead + sorted(set(range(size)) - set(lead))  # the cell at each key
    key = {i: k for k, i in enumerate(order)}
    rows = [{key[i]: v for i, v in row.items()} for row in conditions]
    form = _echelon(rows, m)
    for echelon, reduced in ((bform, brows), (form, rows)):
        for row, combination in echelon.values():
            total: tuple = ({},)
            for i, c in combination.items():
                _axpy(total, (reduced[i],), c, (m,))
            if total[0] != row:
                raise AssertionError("an echelon row is not its stated combination of the rows")
    gens = _kernel(form, size, m)
    if [(f, e) for f, e, _ in gens[:len(lead)]] != [(f, 1) for f in range(len(lead))]:
        raise AssertionError("Z^2 does not reach B^2 on its pivot cells")
    pieces = _cyclic_pieces(gens[len(lead):], m)
    z2 = m ** (size - len(form)) * prod(row[c] for c, (row, _) in form.items())
    if prod(d for d, _ in pieces) * m ** (n - o) != z2:
        raise AssertionError("the pieces of H^2 do not multiply to |Z^2| / |B^2|")
    return ([(d, {order[k]: v for k, v in vec.items()}) for d, vec in pieces],
            [{order[k]: v for k, v in vec.items()} for _, _, vec in gens]
            + [{i: v % m for i, v in row.items()} for row in coboundaries])


def _fold(pieces, moduli) -> list:
    """Invariant factors of a sum of cyclic pieces (order, representative), ascending.

    A representative is a tuple of sparse parts, one per coordinate.  Orders
    a before b where a does not divide b are exchanged for g = gcd(a, b) =
    s*a + t*b and lcm(a, b), and x, y for (s*a/g) x + (t*b/g) y and y - x.
    """
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            (a, x), (b, y) = pieces[i], pieces[j]
            if b % a == 0:
                continue
            g, s, t = _bezout(a, b)
            pieces[i] = (g, _scaled(s * a // g, x, moduli))
            _axpy(pieces[i][1], y, t * b // g, moduli)
            pieces[j] = (a // g * b, _scaled(1, y, moduli))
            _axpy(pieces[j][1], x, -1, moduli)
    return [piece for piece in pieces if piece[0] > 1]


def compute_h2(q: Quandle, moduli, max_order: int = DEFAULT_H2_CAP) -> tuple:
    """Invariant factors of H^2(Q, A) plus one representative per factor.

    The condition rows are reduced once over Z/m per distinct modulus m, and
    the pieces of all coordinates fold into invariant factors.  For prime m
    the representatives are the reduced echelon basis of the cocycles zero on
    the pivot cells of B^2 (`_h2_cyclic` gives the rule for other m).

    Only the conditions (x, y, z) with z in a generating set S (`_base`) are
    reduced, since they have the same solutions as all n^3.  Lemma: for a
    cochain f, the z whose right translation R_z of E = Q x_f Z_m, (x, s) ->
    (x*z, s + f(x, z)), is an endomorphism of E are exactly the z whose
    conditions all hold, and they are closed under *.  Proof: R_z is a
    bijection, and it maps (x, s)*(y, t) as R_z(x, s)*R_z(y, t) iff
    f(x, y) + f(x*y, z) = f(x, z) + f(x*z, y*z).  If R_b is an automorphism,
    R_b R_a = R_{a*b} R_b, so R_{a*b} = R_b R_a R_b^-1 is one when R_a is.
    So the closure of S, which is Q, satisfies every condition.  Over Z/m,
    a quasi-Frobenius ring, equal solution sets mean equal row spans, so the
    pivots, kernel generators and representatives are those of all n^3 rows.

    The certificate does not rely on the lemma: it re-checks each echelon
    row as its stated combination, each kernel generator, coboundary and
    representative as a cocycle in one pass over all n^3 triples of
    `_conditions`, and that the pieces of each modulus multiply to
    |Z^2| / |B^2|; a failure raises AssertionError, a fault of the package.
    """
    if q.order > max_order:
        raise CapExceeded(f"base order {q.order} exceeds cap {max_order}")
    moduli = tuple(int(m) for m in moduli)
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    n, t = q.order, q.table
    generating = {z for z, _ in _base(t, range(n))}
    conditions = {((x * n + x, 1),): {x * n + x: 1} for x in range(n)}  # zero on the diagonal
    for (_, _, z), positions in _conditions(t):
        if z not in generating:
            continue
        row: dict = {}
        for p, sign in zip(positions, (1, 1, -1, -1)):
            row[p] = row.get(p, 0) + sign
        row = {i: v for i, v in row.items() if v}
        if row:
            conditions.setdefault(tuple(sorted(row.items())), row)
    coboundaries = [{} for _ in range(n)]  # of the indicator of u: +1 at (u, y), -1 where x*y = u
    for x, tx in enumerate(t):
        for y, xy in enumerate(tx):
            if xy != x:
                coboundaries[x][x * n + y], coboundaries[xy][x * n + y] = 1, -1
    o = len(orbit_partition(q))
    rows = sorted(conditions.values(), key=len)  # short rows first keep the pivots sparse
    solved = {m: _h2_cyclic(n, rows, coboundaries, o, m) for m in set(moduli) if m > 1}
    lanes = [(vec, m) for m, (_, generators) in solved.items() for vec in generators]
    pieces = [(d, tuple(rep if j == c else {} for j in range(len(moduli))))
              for c, m in enumerate(moduli) if m > 1 for d, rep in solved[m][0]]
    pieces = _fold(pieces, moduli)
    lanes += [(part, m) for _, rep in pieces for part, m in zip(rep, moduli)]
    broken = _first_break(t, [([vec.get(cell, 0) for cell in range(n * n)], m) for vec, m in lanes])
    if broken is not None:
        raise AssertionError(f"an H^2 generator is not a cocycle at {broken}")
    reps = [AbelianCocycle(q, moduli, tuple(
        tuple(tuple(part.get(x * n + y, 0) for part in rep) for y in range(n)) for x in range(n)))
        for _, rep in pieces]
    return tuple(d for d, _ in pieces), reps
