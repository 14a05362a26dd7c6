"""Permutations on {0, ..., n-1} and permutation groups held as stabilizer chains.

Everything here is exact and small-scale by design.  Every group is a
stabilizer chain on the base 0, 1, ..., n-1, built by deterministic
Schreier-Sims (A. Seress, Permutation Group Algorithms, 2003, ch. 4-5): the
order is the product of the basic orbit lengths, membership is a sift, and
the sorted elements are listed from the transversals only when read.  The
reported elements, and the greedy generators of a group not built from
given generators, do not depend on how the group was generated.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded, NotASubgroup

DEFAULT_ORDER_CAP = 10**6


def _cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation given by its images (fixed points included)."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


class Perm:
    """A permutation stored as its tuple of images.

    Composition is function composition: (p * q)(x) == p(q(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a rearrangement of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap an image tuple known to be a rearrangement, without checking it again."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Perm":
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return cls(images)

    @classmethod
    def cycle(cls, n: int, points: Sequence[int]) -> "Perm":
        """Cyclic rotation of the listed points, identity elsewhere."""
        images = list(range(n))
        for a, b in zip(points, points[1:] + type(points)((points[0],))):
            images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        oi = other.images
        si = self.images
        return Perm(si[oi[x]] for x in range(len(si)))

    def __pow__(self, k: int) -> "Perm":
        base = self if k >= 0 else self.inverse()
        result = Perm.identity(self.degree)
        for _ in range(abs(k)):
            result = result * base
        return result

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def cycle_type(self) -> tuple[int, ...]:
        return _cycle_type(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.images}"


class PermGroup:
    """A permutation group, held as a stabilizer chain (`_Chain`).

    The order comes from the chain, membership is a sift, and two groups of
    equal order are equal when one's level-0 generators sift through the
    other's chain.  The elements, sorted lexicographically by image tuple,
    and the greedy generators, as `from_elements` picks them, are computed
    only when read, unless the constructor was given them.
    """

    def __init__(
        self,
        chain: "_Chain",
        generators: Sequence[Perm] | None = None,
        elements: Sequence[Perm] | None = None,
    ):
        self.degree = chain.degree
        self._chain = chain
        if generators is not None:
            self.generators = tuple(generators)
        if elements is not None:
            self.elements = tuple(elements)

    @classmethod
    def generated(cls, degree: int, generators: Iterable[tuple[int, ...]]) -> "PermGroup":
        """The group generated by image tuples."""
        return cls(_Chain(degree, generators))

    @property
    def order(self) -> int:
        return self._chain.order()

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """Sorted elements, listed from the chain once the order allows it.

        G^(k) is the disjoint union of the cosets G^(k+1) * u^-1, for u in
        level k's transversal, so the listing grows from the identity level
        by level upwards; each element costs one composition.
        """
        order = self.order
        if order > DEFAULT_ORDER_CAP:
            raise CapExceeded(
                f"listing {order} group elements exceeds the element cap {DEFAULT_ORDER_CAP}"
            )
        elements = [tuple(range(self.degree))]
        for invs in reversed(self._chain.invs):
            if len(invs) > 1:
                elements = [h for v in invs.values() for h in map(itemgetter(*v), elements)]
        elements.sort()
        return tuple(map(Perm._trusted, elements))

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        """Greedy generators, as `from_elements` picks them."""
        return tuple(map(Perm._trusted, self._chain.greedy_generators()))

    def __contains__(self, p) -> bool:
        return (
            isinstance(p, Perm)
            and len(p.images) == self.degree
            and self._chain.contains(p.images)
        )

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.order == other.order
            and all(map(self._chain.contains, other._chain.gens[0]))
        )

    def __hash__(self):
        return hash((self.degree, self.order))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @classmethod
    def from_elements(cls, elements: Iterable[Perm], degree: int | None = None) -> "PermGroup":
        """Wrap a set closed under composition, picking a small generating set.

        The generating set is found greedily: walk the sorted elements and
        keep each one that does not sift through the chain of the ones kept
        before.  Every element then lies in the group H of the kept ones, so
        the set is H exactly when it has |H| elements.  Otherwise the set is
        not closed under right multiplication by the kept ones, since a set
        that holds the identity and is so closed contains H; NotASubgroup
        names the first product a * s, a a member and s a kept element, that
        falls outside it.
        """
        by_images = {p.images: p for p in elements}
        if not by_images:
            raise ValueError("empty element set")
        elements = sorted(by_images.values(), key=attrgetter("images"))
        if degree is None:
            degree = elements[0].degree
        if set(map(len, by_images)) != {degree}:
            raise ValueError(f"elements are not all of degree {degree}")
        if tuple(range(degree)) not in by_images:
            p = elements[0]
            raise NotASubgroup(f"not closed: {p!r}**{p.order()} is the identity, not in the set")
        chain = _Chain(degree)
        kept = []
        for p in elements:
            if not chain.contains(p.images):
                kept.append(p)
                chain.add(p.images)
        if chain.order() != len(elements):
            left, right = next(
                (a, s) for a in elements for s in kept if (a * s).images not in by_images
            )
            raise NotASubgroup(f"not closed: {left!r} * {right!r} is not in the set")
        return cls(chain, kept, elements)


def _compose(p, q):
    """p*q on image tuples of degree at least 2: (p*q)(x) = p(q(x))."""
    return itemgetter(*q)(p)


def _invert(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


class _Chain:
    """A stabilizer chain on the base 0, 1, ..., n-1, over image tuples.

    Level k holds G^(k), the pointwise stabilizer of 0, ..., k-1: the strong
    generators `gens[k]` that fix 0, ..., k-1, the basic orbit `orbits[k]`
    of k under them, and for each point d of that orbit a transversal
    element `reps[k][d]` sending k to d, with its inverse in `invs[k][d]`.
    The order of the group is the product of the basic orbit lengths, and
    g is a member exactly when it sifts: dividing off, level by level, the
    transversal element that agrees with it at k ends at the identity.

    The chain is built by deterministic Schreier-Sims (Seress, Permutation
    Group Algorithms, 2003, ch. 4): each generator that does not sift is
    added at every level whose base prefix its residue fixes, and a level
    is complete once each of its Schreier generators sifts through the
    levels below it.  Points whose orbit is {k} cost nothing beyond a
    comparison.  Degree-1 groups have no non-identity element, so nothing
    is ever composed at degree 1.  `gens[n]` belongs to the trivial group
    G^(n) and stays empty; it keeps `gens[0]` defined at degree 0.
    """

    __slots__ = ("degree", "gens", "orbits", "reps", "invs", "_sifted")

    def __init__(self, degree: int, generators: Iterable[tuple[int, ...]] = ()):
        identity = tuple(range(degree))
        self.degree = degree
        self.gens: list[list[tuple[int, ...]]] = [[] for _ in range(degree + 1)]
        self.orbits = [[k] for k in range(degree)]
        self.reps = [{k: identity} for k in range(degree)]
        self.invs = [{k: identity} for k in range(degree)]
        # the (orbit point, generator index) pairs whose Schreier generator sifts
        self._sifted: list[set[tuple[int, int]]] = [set() for _ in range(degree)]
        for g in generators:
            self.add(g)

    def order(self) -> int:
        total = 1
        for orbit in self.orbits:
            total *= len(orbit)
        return total

    def _strip(self, g, level):
        """Sift g from `level` down: (None, degree) for a member, else (residue, its level)."""
        for k in range(level, self.degree):
            d = g[k]
            if d != k:
                inv = self.invs[k].get(d)
                if inv is None:
                    return g, k
                g = _compose(inv, g)
        return None, self.degree

    def contains(self, g) -> bool:
        return self._strip(g, 0)[0] is None

    def add(self, g) -> None:
        """Extend the group by g, keeping the chain complete."""
        residue, level = self._strip(g, 0)
        if residue is not None:
            self._insert(residue, 0, level)
            self._complete(level)

    def _insert(self, h, first, last):
        """Make h a strong generator at levels first..last and grow their orbits."""
        for k in range(first, last + 1):
            gens, orbit, reps, invs = self.gens[k], self.orbits[k], self.reps[k], self.invs[k]
            gens.append(h)
            for d in orbit:  # grows while it is walked
                u = reps[d]
                for s in gens:
                    e = s[d]
                    if e not in reps:
                        v = _compose(s, u)
                        reps[e] = v
                        invs[e] = _invert(v)
                        orbit.append(e)

    def _complete(self, level):
        """Sift every Schreier generator of levels `level`, ..., 0, adding residues."""
        k = level
        while k >= 0:
            failed = self._first_residue(k)
            if failed is None:
                k -= 1
            else:
                residue, j = failed
                self._insert(residue, k + 1, j)
                k = j

    def _first_residue(self, k):
        """The residue of the first Schreier generator at level k that does not sift."""
        reps, invs, sifted = self.reps[k], self.invs[k], self._sifted[k]
        for d in self.orbits[k]:
            u = reps[d]
            for i, s in enumerate(self.gens[k]):
                if (d, i) in sifted:
                    continue
                e = s[d]
                if d == e == k:  # the Schreier generator is s, strong at level k + 1
                    continue
                su = _compose(s, u)
                if su != reps[e]:
                    residue = self._strip(_compose(invs[e], su), k + 1)
                    if residue[0] is not None:
                        return residue
                sifted.add((d, i))
        return None

    def _least_in_coset(self, g, k):
        """The lexicographically least element of g G^(k)."""
        for j in range(k, self.degree):
            reps = self.reps[j]
            if len(reps) > 1:
                g = _compose(g, reps[min(reps, key=g.__getitem__)])
        return g

    def greedy_generators(self) -> list[tuple[int, ...]]:
        """The generators `PermGroup.from_elements` keeps, found without the element list.

        The next greedy generator is the least element of G outside the span
        H of the ones before it.  Let k be least with G^(k) <= H, which holds
        when every strong generator of level k sifts through H's chain.  The
        elements of G^(k-1) are the least in G, and some lie outside H; they
        fall into the cosets u G^(k), for u in level k-1's transversal, each
        inside H or disjoint from it, and ordered by u(k-1).  So the next
        generator is the least element of the first coset whose
        representative is not in H.
        """
        span = _Chain(self.degree)
        found: list[tuple[int, ...]] = []
        k = self.degree
        while True:
            while k > 0 and all(map(span.contains, self.gens[k - 1])):
                k -= 1
            if k == 0:
                return found
            reps = self.reps[k - 1]
            d = next(d for d in sorted(reps) if not span.contains(reps[d]))
            g = self._least_in_coset(reps[d], k)
            found.append(g)
            span.add(g)


def closure(
    generators: Sequence[Perm],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Group generated by the given permutations, which it keeps as its generators.

    Raises CapExceeded if the group has more than `cap` elements.  The cap
    is checked once the chain is built: a chain holds at most n(n+1)/2
    transversal elements, whatever the order of the group.
    """
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValueError("need generators or an explicit degree")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators have mixed degrees")
    group = PermGroup(_Chain(degree, [g.images for g in generators]), generators)
    if group.order > cap:
        raise CapExceeded(f"closure order {group.order} exceeds cap {cap}")
    return group


def _orbit(start, step) -> set:
    """The points reached from `start` by repeated steps; `step(x)` lists the next ones.

    When each step applies one of a set of permutations, this is the orbit
    of `start` under the group they generate: a finite set closed under
    bijections is closed under their inverses too.
    """
    orbit = [start]
    seen = {start}
    for x in orbit:  # grows while it is walked
        for y in step(x):
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return seen


def _orbits(neighbours) -> list[list[int]]:
    """Orbits of the steps x -> neighbours[x] on 0..n-1, each sorted, listed by minimum."""
    placed: set[int] = set()
    orbits = []
    for x in range(len(neighbours)):
        if x not in placed:
            orbit = _orbit(x, neighbours.__getitem__)
            placed |= orbit
            orbits.append(sorted(orbit))
    return orbits


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """Whether the group moves any ordered k-tuple of distinct points to any other.

    That is, whether the orbit of (0, ..., k-1), walked under a generating
    set, holds all n!/(n-k)! tuples.  For k larger than the degree this is
    vacuously true (there are no such tuples), matching the usual convention.
    """
    n = group.degree
    if k > n or k <= 0:
        return True
    gens = group._chain.gens[0]
    orbit = _orbit(tuple(range(k)), lambda t: [tuple([g[x] for x in t]) for g in gens])
    return len(orbit) == math.perm(n, k)

