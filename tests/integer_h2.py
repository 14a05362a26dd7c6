"""H^2 of a quandle by integer Smith normal forms, as a test oracle.

`compute_h2` once reduced the integer condition matrix and, per modulus, a
quotient matrix by `smith_normal_form`.  Those matrices are built here the
same way, so the Smith normal form pins keep their inputs, and the
universal-coefficient theorem turns the condition form into a prediction
of H^2(Q, A) that shares no elimination with `compute_h2`.
"""

from collections import Counter
from math import gcd

from quandlekit.cocycle import _conditions
from quandlekit.envgroup import smith_normal_form
from quandlekit.quandle import orbit_partition


def smith_form_of(mat):
    """The Smith form of a matrix given as dense lists of rows, passed as sparse rows."""
    return smith_normal_form([{j: x for j, x in enumerate(row) if x} for row in mat], len(mat[0]))


def condition_matrix(q) -> list:
    """The rows a[x*n + x] and the nonzero rows a[i] + a[j] - a[k] - a[l] of `_conditions`."""
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
    return rows


def quotient_matrix(q, m: int, cond) -> list:
    """Coboundaries and m-multiples in the basis of the cocycle lattice mod m.

    `cond` is the Smith normal form of `condition_matrix(q)`: the columns of
    its V, each scaled by m / gcd(d, m) for its diagonal entry d, span the
    cocycles mod m.  The cokernel of these rows is H^2(Q, Z_m).
    """
    n = q.order
    big = n * n
    scale = [m // gcd(d, m) for d in cond.invariant_factors]
    scale += [1] * (big - len(scale))
    columns = [[] for _ in range(big)]
    for i, row in enumerate(cond.v_inv):
        for j, c in row.items():
            columns[j].append((i, c))

    def coordinates(vec: dict) -> list:
        raw = [0] * big
        for j, c in vec.items():
            for i, v in columns[j]:
                raw[i] += v * c
        assert all(val % e == 0 for val, e in zip(raw, scale))
        return [val // e for val, e in zip(raw, scale)]

    coboundaries = [Counter() for _ in range(n)]
    for x, tx in enumerate(q.table):
        for y, xy in enumerate(tx):
            coboundaries[x][x * n + y] += 1
            coboundaries[xy][x * n + y] -= 1
    return ([coordinates(vec) for vec in coboundaries]
            + [coordinates({j: m}) for j in range(big)])


def prime_powers(k: int) -> list:
    """(p, p^e) for each prime p dividing k, by trial division."""
    parts = []
    p = 2
    while k > 1:
        if p * p > k:
            p = k
        power = 1
        while k % p == 0:
            k //= p
            power *= p
        if power > 1:
            parts.append((p, power))
        p += 1
    return parts


def invariant_factors(orders) -> tuple:
    """The ascending invariant factors of a sum of cyclic groups of the given orders."""
    powers: dict = {}
    for k in orders:
        for p, power in prime_powers(k):
            powers.setdefault(p, []).append(power)
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for v in powers.values():
        for i, power in enumerate(sorted(v, reverse=True)):
            factors[i] *= power
    return tuple(reversed(factors))


def predicted_h2(q, moduli) -> tuple:
    """Invariant factors of H^2(Q, A) by universal coefficients.

    H_2(Q) = Z^(o^2 - o) + T for o orbits, where T has the invariant factors
    t of the condition form, so H^2(Q, Z_m) = Z_m^(o^2 - o) + sum_t Z_gcd(t, m).
    """
    o = len(orbit_partition(q))
    torsion = smith_form_of(condition_matrix(q)).invariant_factors
    return invariant_factors([m for m in moduli for _ in range(o * o - o)]
                             + [gcd(t, m) for m in moduli for t in torsion])
