"""Reference mathematics for checking quandlekit's answers.

Nothing here imports quandlekit: tables, groups, automorphism counts,
orbits, cocycle conditions and extension tables are rebuilt from their
definitions so that a bug in the library cannot also hide in its oracle.
Tables are lists of rows with table[x][y] = x * y, and permutations are
image tuples composed as (p * q)(x) = p(q(x)), as in the library.
"""

from __future__ import annotations

import itertools
import math

# Number of isomorphism classes of quandles of order n (OEIS A181769).
CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}


# --- permutations and groups -------------------------------------------------


def compose(p, q):
    return tuple(p[i] for i in q)


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def generated(gens, degree):
    """Every element of the permutation group generated by gens, sorted."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def _cycle(n):
    return tuple((i + 1) % n for i in range(n))


def _quaternion_units():
    # Units are (sign, basis) with basis 0..3 for 1, i, j, k.
    table = {
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    elems = [(s, b) for s in (1, -1) for b in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        if a[1] == 0:
            sign, basis = 1, b[1]
        elif b[1] == 0:
            sign, basis = 1, a[1]
        else:
            sign, basis = table[(a[1], b[1])]
        return (a[0] * b[0] * sign, basis)

    def left(u):
        return tuple(index[mul(u, e)] for e in elems)

    return [left((1, 1)), left((1, 2))], len(elems)


def _atom(token):
    if token == "Q8":
        return _quaternion_units()
    kind, n = token[0], int(token[1:])
    if kind == "Z":
        return [_cycle(n)], n
    if kind == "S":
        return [tuple([1, 0] + list(range(2, n))), _cycle(n)], n
    if kind == "D":
        flip = tuple((-i) % n for i in range(n))
        return [_cycle(n), flip], n
    raise ValueError(f"unknown group atom {token!r}")


def group_elements(spec):
    """The group named by a spec such as "S3" or "Z2xZ4", as permutations."""
    gens, degree = [], 0
    for token in spec.split("x"):
        atom_gens, atom_degree = _atom(token)
        for g in atom_gens:
            gens.append(
                tuple(range(degree)) + tuple(degree + v for v in g)
            )
        degree += atom_degree
        gens = [g + tuple(range(len(g), degree)) for g in gens]
    return generated(gens, degree)


def _group_table(elements, rule):
    index = {e: i for i, e in enumerate(elements)}
    return [[index[rule(x, y)] for y in elements] for x in elements]


def conj_table(spec):
    """x * y = y^-1 x y on the group."""
    return _group_table(
        group_elements(spec), lambda x, y: compose(compose(inverse(y), x), y)
    )


def core_table(spec):
    """x * y = y x^-1 y on the group."""
    return _group_table(
        group_elements(spec), lambda x, y: compose(compose(y, inverse(x)), y)
    )


def trivial_table(n):
    return [[x] * n for x in range(n)]


def dihedral_table(n):
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def alexander_table(n, u):
    """x * y = u (x - y) + y on Z_n."""
    return [[(u * (x - y) + y) % n for y in range(n)] for x in range(n)]


def relabel(table, sigma):
    """The table carried along the bijection sigma: x -> sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out


# --- quandle facts -----------------------------------------------------------


def is_quandle(table):
    n = len(table)
    if any(len(row) != n for row in table):
        return False
    if any(table[x][x] != x for x in range(n)):
        return False
    for y in range(n):
        if sorted(table[x][y] for x in range(n)) != list(range(n)):
            return False
    return all(
        table[table[x][y]][z] == table[table[x][z]][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def preserves(table, images):
    """Whether the map x -> images[x] is an endomorphism of the table."""
    n = len(table)
    return all(
        images[table[x][y]] == table[images[x]][images[y]]
        for x in range(n)
        for y in range(n)
    )


def maps_onto(t1, t2, images):
    n = len(t1)
    return all(
        images[t1[x][y]] == t2[images[x]][images[y]] for x in range(n) for y in range(n)
    )


def count_isomorphisms(t1, t2, allowed=None, stop_at=None):
    """Exhaustive count of bijections f with f(x * y) = f(x) * f(y).

    Walks every injective assignment of 0, 1, ... in turn and abandons a
    partial map as soon as a product among assigned points disagrees, so
    every one of the n! maps is decided.  allowed(x, y) restricts the
    image of x; stop_at ends the walk once that many maps are found.
    """
    n = len(t1)
    if n != len(t2):
        return 0
    checks = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            checks[max(a, b, t1[a][b])].append((a, b, t1[a][b]))
    f = [-1] * n
    used = [False] * n
    found = 0

    def rec(k):
        nonlocal found
        if k == n:
            found += 1
            return stop_at is not None and found >= stop_at
        for y in range(n):
            if used[y] or (allowed is not None and not allowed(k, y)):
                continue
            f[k] = y
            if all(f[c] == t2[f[a]][f[b]] for a, b, c in checks[k]):
                used[y] = True
                if rec(k + 1):
                    return True
                used[y] = False
        f[k] = -1
        return False

    rec(0)
    return found


def orbits(table):
    """Orbits under the right translations, by union-find."""
    n = len(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y in range(n):
        for x in range(n):
            a, b = find(x), find(table[x][y])
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def facts(table):
    """Every invariant the `invariants` report carries, computed from scratch."""
    n = len(table)
    orbit_of = {}
    blocks = orbits(table)
    for i, block in enumerate(blocks):
        for x in block:
            orbit_of[x] = i
    columns = {tuple(table[x][y] for x in range(n)) for y in range(n)}
    return {
        "order": n,
        "aut_order": count_isomorphisms(table, table),
        "inn_order": len(generated(sorted(columns), n)),
        "qinn_order": count_isomorphisms(
            table, table, allowed=lambda x, y: orbit_of[x] == orbit_of[y]
        ),
        "connected": len(blocks) == 1,
        "involutory": all(
            table[table[x][y]][y] == x for x in range(n) for y in range(n)
        ),
        "orbits": blocks,
        "center": [x for x in range(n) if all(v == x for v in table[x])],
    }


def closed_form_checks(kind, n, found):
    """Cross-check brute-force counts against known closed forms."""
    if kind == "trivial" and found["aut_order"] != math.factorial(n):
        raise AssertionError(f"|Aut(T{n})| should be {n}!")
    if kind == "dihedral" and n % 2 == 1:
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        if found["inn_order"] != 2 * n or found["aut_order"] != n * phi:
            raise AssertionError(f"R{n} counts disagree with 2n and n*phi(n)")


# --- cohomology and extensions -----------------------------------------------


def invariant_factors(cyclic_orders):
    """Invariant factors, ascending, of a direct sum of cyclic groups."""
    by_prime = {}
    for m in cyclic_orders:
        p = 2
        while m > 1:
            if m % p == 0:
                power = 1
                while m % p == 0:
                    m //= p
                    power *= p
                by_prime.setdefault(p, []).append(power)
            p += 1
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            factors[i] *= q
    return sorted(factors)


def trivial_h2_factors(n, moduli):
    """H^2(T_n; Z_m1 + ... ) is (Z_m1 + ...)^(n(n-1))."""
    return invariant_factors([m for m in moduli for _ in range(n * (n - 1))])


def is_abelian_cocycle(table, moduli, phi):
    n = len(table)
    zero = [0] * len(moduli)

    def add(u, v):
        return [(a + b) % m for a, b, m in zip(u, v, moduli)]

    if any([c % m for c, m in zip(phi[x][x], moduli)] != zero for x in range(n)):
        return False
    return all(
        add(phi[table[x][y]][z], phi[x][y]) == add(phi[table[x][z]][table[y][z]], phi[x][z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def is_constant_cocycle(table, fiber, alpha):
    n = len(table)
    identity = tuple(range(fiber))
    if any(tuple(alpha[x][x]) != identity for x in range(n)):
        return False
    return all(
        compose(alpha[table[x][y]][z], alpha[x][y])
        == compose(alpha[table[x][z]][table[y][z]], alpha[x][z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def twist(table, alpha, lam):
    """The cohomologous cocycle lam_{x*y} alpha_{x,y} lam_x^-1."""
    n = len(table)
    return [
        [compose(compose(lam[table[x][y]], alpha[x][y]), inverse(lam[x])) for y in range(n)]
        for x in range(n)
    ]


def constant_extension(table, fiber, alpha):
    """(x, t) * (y, u) = (x * y, alpha_{x,y}(t)), encoded as x * fiber + t."""
    n = len(table)
    return [
        [table[i // fiber][j // fiber] * fiber + alpha[i // fiber][j // fiber][i % fiber]
         for j in range(n * fiber)]
        for i in range(n * fiber)
    ]


def abelian_extension(table, moduli, phi):
    """(x, a) * (y, b) = (x * y, a + phi(x, y)), fiber in lexicographic order."""
    elements = list(itertools.product(*[range(m) for m in moduli]))
    index = {e: i for i, e in enumerate(elements)}
    s = len(elements)
    n = len(table)
    out = [[0] * (n * s) for _ in range(n * s)]
    for x in range(n):
        for y in range(n):
            for t, a in enumerate(elements):
                shifted = tuple((c + d) % m for c, d, m in zip(a, phi[x][y], moduli))
                image = table[x][y] * s + index[shifted]
                for u in range(s):
                    out[x * s + t][y * s + u] = image
    return out


def involutory_double(table):
    """Two copies glued along right translations, q1's points first."""
    n = len(table)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for x in range(n):
        for y in range(n):
            out[x][y] = table[x][y]
            out[n + x][n + y] = n + table[x][y]
            out[x][n + y] = table[x][y]
            out[n + y][x] = n + table[y][x]
    return out
