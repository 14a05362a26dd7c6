"""Quandles built from automorphism data.

Two constructions live here.  The first turns a finite group with a
compatible assignment of automorphisms into a quandle on the group's
carrier.  The second glues two quandles into one structure on their
disjoint union, driven by a pair of mutually coherent maps into each
other's automorphism groups; doubling an involutory quandle is the special
case where both maps send elements to their own right translations.

Assigned and glue maps are image tuples, validated once on the way in and
composed by `perm._compose`; no condition needs an inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    Condition1Violated,
    Condition2Violated,
    FixedPointHypothesisViolated,
    NotInvolutory,
    SigmaNotHom,
    TauNotHom,
    require_field,
    require_ints,
    require_list,
)
from .fingroup import FiniteGroup
from .perm import Perm, _compose
from .quandle import Quandle, _require_automorphism, is_involutory


def _images(p, degree: int, what: str) -> tuple:
    images = p.images if isinstance(p, Perm) else Perm(require_ints(p, what)).images
    if len(images) != degree:
        raise ValueError(f"{what} must act on {degree} points")
    return images


def _checked_assignment(group: FiniteGroup, assignment) -> tuple:
    """The maps of an assignment, validated once, and its first incompatible pair or None.

    (x, y) is incompatible when f_{f_x(y)} f_x != f_x f_y, that is f_{f_x(y)} != f_x f_y f_x^-1.
    """
    n = group.order
    maps = [_images(p, n, "assignment entry") for p in assignment]
    if len(maps) != n:
        raise ValueError(f"need one automorphism per element, got {len(maps)}")
    for f in maps:
        _require_automorphism(group.table, f)
    for x, fx in enumerate(maps):
        for y in range(n):
            if _compose(maps[fx[y]], fx) != _compose(fx, maps[y]):
                return maps, (x, y)
    return maps, None


def is_compatible(group: FiniteGroup, assignment) -> tuple:
    """Whether conjugating an assigned map by another lands back on the table.

    Each entry must itself be a group automorphism.  Returns (True, None)
    or (False, (x, y)) with the first failing pair.
    """
    _, witness = _checked_assignment(group, assignment)
    return witness is None, witness


def inner_assignment(group: FiniteGroup) -> list:
    """The assignment sending each g to conjugation h -> g h g^{-1}: column g^{-1}, then row g."""
    rows, inverses = group.table, group.inverses
    columns = list(zip(*rows))
    return [_compose(rows[g], columns[inverses[g]]) for g in range(group.order)]


def quandle_from_compatible(group: FiniteGroup, assignment) -> Quandle:
    """Quandle on the group carrier with x * y = assignment[y](x).

    Requires compatibility and that every assigned map fixes its own
    element; the finished table is validated again.
    """
    maps, witness = _checked_assignment(group, assignment)
    if witness is not None:
        raise ValueError(f"assignment is not compatible; first failure at {witness}")
    for x, f in enumerate(maps):
        if f[x] != x:
            raise FixedPointHypothesisViolated(x)
    return Quandle.from_table(list(zip(*maps)), labels=group.labels)


@dataclass(frozen=True)
class UnionSpec:
    """Gluing data for a quandle structure on a disjoint union.

    sigma assigns to each element of q1 an automorphism of q2 (its image
    tuple); tau goes the other way.  Indices of q1 come first in the union.
    """

    q1: Quandle
    q2: Quandle
    sigma: tuple
    tau: tuple

    def to_json(self) -> dict:
        return {
            "kind": "union_spec",
            "q1": self.q1.to_json(),
            "q2": self.q2.to_json(),
            "sigma": [list(p) for p in self.sigma],
            "tau": [list(p) for p in self.tau],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "UnionSpec":
        if doc.get("kind", "union_spec") != "union_spec":
            raise ValueError(f"expected a union spec, got kind {doc['kind']!r}")
        q1 = Quandle.from_json(require_field(doc, "q1", "union spec"))
        q2 = Quandle.from_json(require_field(doc, "q2", "union spec"))
        sigma = require_list(require_field(doc, "sigma", "union spec"), "union 'sigma'")
        tau = require_list(require_field(doc, "tau", "union spec"), "union 'tau'")
        return make_union_spec(q1, q2, sigma, tau)


def make_union_spec(q1: Quandle, q2: Quandle, sigma, tau) -> UnionSpec:
    sigma = tuple(_images(p, q2.order, "sigma entry") for p in sigma)
    tau = tuple(_images(p, q1.order, "tau entry") for p in tau)
    if len(sigma) != q1.order:
        raise ValueError("sigma needs one entry per element of q1")
    if len(tau) != q2.order:
        raise ValueError("tau needs one entry per element of q2")
    return UnionSpec(q1, q2, sigma, tau)


def assemble_union_table(q1: Quandle, q2: Quandle, sigma, tau) -> list:
    """Raw four-block union table, with no validity checking at all.

    Exists so that tests can corrupt gluing data and watch the axioms fail;
    use union_quandle for anything real.
    """
    n1, n2 = q1.order, q2.order
    upper = [[*row, *(tau[y][x] for y in range(n2))] for x, row in enumerate(q1.table)]
    lower = [[*(n1 + sigma[x][y] for x in range(n1)), *(n1 + v for v in row)]
             for y, row in enumerate(q2.table)]
    return upper + lower


def union_quandle(spec: UnionSpec) -> Quandle:
    """Glue two quandles along sigma and tau, checking every condition.

    The checks are exactly equivalent to the assembled table being a
    quandle, so the final validation never fires except as a bug trap.
    """
    q1, q2, sigma, tau = spec.q1, spec.q2, spec.sigma, spec.tau
    for p in sigma:
        _require_automorphism(q2.table, p)
    for p in tau:
        _require_automorphism(q1.table, p)
    t1, t2 = q1.table, q2.table
    n1, n2 = q1.order, q2.order
    # sigma_{x*y} = sigma_y sigma_x sigma_y^-1, compared as sigma_{x*y} sigma_y = sigma_y sigma_x
    for x in range(n1):
        for y in range(n1):
            if _compose(sigma[t1[x][y]], sigma[y]) != _compose(sigma[y], sigma[x]):
                raise SigmaNotHom(f"sigma breaks the product at ({x}, {y})")
    for x in range(n2):
        for y in range(n2):
            if _compose(tau[t2[x][y]], tau[y]) != _compose(tau[y], tau[x]):
                raise TauNotHom(f"tau breaks the product at ({x}, {y})")
    for x in range(n1):
        for y in range(n1):
            for z in range(n2):
                if t1[tau[z][x]][y] != tau[sigma[y][z]][t1[x][y]]:
                    raise Condition1Violated(x, y, z)
    for x in range(n2):
        for y in range(n2):
            for z in range(n1):
                if t2[sigma[z][x]][y] != sigma[tau[y][z]][t2[x][y]]:
                    raise Condition2Violated(x, y, z)
    labels = None
    if q1.labels is not None and q2.labels is not None:
        labels = (*(f"1.{lab}" for lab in q1.labels), *(f"2.{lab}" for lab in q2.labels))
    return Quandle.from_table(assemble_union_table(q1, q2, sigma, tau), labels=labels)


def involutory_double(q: Quandle) -> Quandle:
    """Glue two copies of an involutory quandle along right translations."""
    if not is_involutory(q):
        raise NotInvolutory("doubling requires an involutory quandle")
    cols = tuple(zip(*q.table))
    return union_quandle(make_union_spec(q, q, cols, cols))
