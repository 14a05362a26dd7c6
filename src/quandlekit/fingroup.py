"""Finite groups as explicit multiplication tables.

Tables are indexed by 0..n-1 and validated in full on construction, on
their rows: every row and column is a rearrangement, the identity is the
element whose row and column are both 0..n-1, and associativity holds when
row x*y, as an image tuple, is row x composed with row y.  A small catalog
of named groups is exposed via a one-line spec grammar: atoms Z<n>, S<n>
(n <= 5), D<n> (the dihedral group of order 2n), Q8 joined by "x" for
direct products, e.g. "Z2xZ4".
Automorphism groups come from `quandle`'s table search.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Sequence

from .errors import CapExceeded, NotAbelian, ParseError, UnsupportedSpec
from .perm import Perm, PermGroup, _compose
from .quandle import Quandle, _automorphisms, _require_automorphism

DEFAULT_GROUP_CAP = 200

_ATOM_RE = re.compile(r"^([ZSD])(\d+)$")


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(table)
        self.table = rows = tuple(tuple(row) for row in table)
        self.order = n
        if any(len(row) != n for row in rows):
            raise ValueError("table is not square")
        elements = set(range(n))
        for i, row in enumerate(rows):
            if set(row) != elements:
                raise ValueError(f"row {i} is not a rearrangement")
        columns = list(zip(*rows))
        for j, column in enumerate(columns):
            if set(column) != elements:
                raise ValueError(f"column {j} is not a rearrangement")
        fixed = tuple(range(n))
        self.identity = next((e for e in range(n) if rows[e] == columns[e] == fixed), None)
        if self.identity is None:
            raise ValueError("no identity element")
        # Row x is the left translation L_x, so (x*y)*z = x*(y*z) for every z
        # says L_{x*y} = L_x L_y; the least failing z is found only on a failure.
        for x, row in enumerate(rows):
            for y, xy in enumerate(row):
                if rows[xy] != _compose(row, rows[y]):
                    z = next(z for z in range(n) if rows[xy][z] != row[rows[y][z]])
                    raise ValueError(f"associativity fails at ({x}, {y}, {z})")
        # In a group a right inverse is also a left inverse.
        self.inverses = tuple(row.index(self.identity) for row in rows)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count mismatch")

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverses[x]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def power(group: FiniteGroup, x: int, k: int) -> int:
    """k-th power of x for any integer k, reduced modulo the order of x first."""
    acc = group.identity
    for _ in range(k % element_order(group, x)):
        acc = group.mul(acc, x)
    return acc


def element_order(group: FiniteGroup, x: int) -> int:
    k = 1
    acc = x
    while acc != group.identity:
        acc = group.mul(acc, x)
        k += 1
    return k


def exponent(group: FiniteGroup) -> int:
    return math.lcm(*(element_order(group, x) for x in range(group.order)))


def is_abelian(group: FiniteGroup) -> bool:
    return group.table == tuple(zip(*group.table))


def center(group: FiniteGroup) -> list[int]:
    """Indices of elements commuting with everything, ascending."""
    columns = list(zip(*group.table))
    return [x for x, row in enumerate(group.table) if row == columns[x]]


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, labels=[str(i) for i in range(n)])


def symmetric_group_table(n: int) -> FiniteGroup:
    """S_n with elements in lexicographic one-line order; product is composition."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels)


def quaternion_group() -> FiniteGroup:
    """The units 1, -1, i, -i, j, -j, k, -k as signed basis 4-vectors, by Hamilton's product."""
    units = [tuple(sign * (axis == a) for a in range(4)) for axis in range(4) for sign in (1, -1)]
    index = {u: pos for pos, u in enumerate(units)}

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    table = [[index[hamilton(p, q)] for q in units] for p in units]
    return FiniteGroup(table, labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def direct_product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Pairs (x, y) ordered tuple-lexicographically: index = x * |b| + y."""
    n, m = a.order, b.order
    table = [
        [a.table[x1][x2] * m + b.table[y1][y2] for x2 in range(n) for y2 in range(m)]
        for x1 in range(n)
        for y1 in range(m)
    ]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"{a.labels[x]},{b.labels[y]}" for x in range(n) for y in range(m)]
    return FiniteGroup(table, labels=labels)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon: pairs (a, f) of Z_n x Z_2 at index 2a + f.

    The flip inverts rotations: (a1, f1)(a2, f2) = (a1 + (-1)^f1 a2, f1 + f2).
    """
    table = [
        [2 * ((a1 + (-1) ** f1 * a2) % n) + (f1 ^ f2) for a2 in range(n) for f2 in range(2)]
        for a1 in range(n)
        for f1 in range(2)
    ]
    labels = [f"r{a}" if f == 0 else f"r{a}s" for a in range(n) for f in range(2)]
    return FiniteGroup(table, labels=labels)


def _parse_atom(token: str, cap: int) -> FiniteGroup:
    if token == "Q8":
        return quaternion_group()
    match = _ATOM_RE.match(token)
    if not match:
        raise ParseError(f"bad group atom {token!r}")
    kind, digits = match.groups()
    n = int(digits)
    if kind == "Z":
        if n < 1:
            raise UnsupportedSpec("Z atoms need n >= 1")
        if n > cap:
            raise CapExceeded(f"Z{n} exceeds group cap {cap}")
        return cyclic_group(n)
    if kind == "S":
        if not 1 <= n <= 5:
            raise UnsupportedSpec("S atoms are built in only for n <= 5")
        return symmetric_group_table(n)
    if n < 1:
        raise UnsupportedSpec("D atoms need n >= 1")
    if 2 * n > cap:
        raise CapExceeded(f"D{n}: group order {2 * n} exceeds cap {cap}")
    return dihedral_group(n)


def make_group(spec: str, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Build a catalog group from a spec like "Z4", "S3", "D4", "Q8" or "Z2xZ4"."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    atoms = [_parse_atom(token.strip(), cap) for token in spec.split("x")]
    group = atoms[0]
    for atom in atoms[1:]:
        if group.order * atom.order > cap:
            raise CapExceeded(f"product order exceeds group cap {cap}")
        group = direct_product_group(group, atom)
    if group.order > cap:
        raise CapExceeded(f"group order {group.order} exceeds cap {cap}")
    return group


def automorphism_group(group: FiniteGroup) -> PermGroup:
    """All table automorphisms, as a permutation group on element indices.

    The search is `quandle._automorphisms`, which needs only a table with
    bijective columns, and which refuses a group above `DEFAULT_GROUP_CAP`.
    """
    return _automorphisms(group.table, DEFAULT_GROUP_CAP)


def conj_quandle(group: FiniteGroup, n: int = 1) -> Quandle:
    """Quandle on the group with x * y = y^-n x y^n; n = 0 gives the trivial one."""
    size = group.order
    powers = [power(group, y, n) for y in range(size)]
    inverses = [group.inv(p) for p in powers]
    table = [
        [group.mul(group.mul(inverses[y], x), powers[y]) for y in range(size)]
        for x in range(size)
    ]
    return Quandle.from_table(table, labels=group.labels)


def core_quandle(group: FiniteGroup) -> Quandle:
    """Quandle on the group with x * y = y x^-1 y; always involutory."""
    size = group.order
    table = [
        [group.mul(group.mul(y, group.inv(x)), y) for y in range(size)]
        for x in range(size)
    ]
    return Quandle.from_table(table, labels=group.labels)


def alexander_quandle(group: FiniteGroup, phi: Perm | Sequence[int]) -> Quandle:
    """Quandle on an abelian group with x * y = phi(x y^-1) y for an automorphism phi."""
    if not is_abelian(group):
        raise NotAbelian("the carrier group must be abelian")
    p = phi if isinstance(phi, Perm) else Perm(phi)
    _require_automorphism(group.table, p, "phi")
    size = group.order
    table = [
        [group.mul(p(group.mul(x, group.inv(y))), y) for y in range(size)]
        for x in range(size)
    ]
    return Quandle.from_table(table, labels=group.labels)
