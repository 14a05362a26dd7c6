"""Permutations on {0, ..., n-1} and permutation groups held as stabilizer chains.

Everything here is exact and small-scale by design.  `PermGroup(degree,
images)` is the group generated by image tuples (`closure` passes it the
images of `Perm`s), and it is itself a stabilizer chain on the base 0, 1,
..., n-1, built by deterministic Schreier-Sims (A. Seress, Permutation
Group Algorithms, 2003, ch. 4-5): the order is the product of the basic
orbit lengths, membership is a sift, and iteration walks the transversals
in sorted order, one element at a time, with no element list.  The greedy
generators are read off the same chain, level by level, by orbits of the
ones found so far, with no second chain.  The order of the walk, and the
greedy generators, do not depend on how the group was generated.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence


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
    """A validated permutation: the constructor checks that its images are ints rearranging 0..n-1.

    The package composes and inverts image tuples with `_compose` and `_invert`.
    The product is function composition: (p * q)(x) == p(q(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if not set(map(type, images)) <= {int}:
            raise ValueError(f"images must be ints: {images!r}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a rearrangement of 0..{len(images) - 1}: {images!r}")
        _set_images(self, images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap an image tuple known to be a rearrangement, without checking it again."""
        p = object.__new__(cls)
        _set_images(p, images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        si = self.images
        oi = other.images
        if len(si) != len(oi):
            raise ValueError("degree mismatch")
        return Perm._trusted(_compose(si, oi))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.images}"


# The slot's own setter, which the immutable __setattr__ does not reach.
_set_images = Perm.__dict__["images"].__set__


def _compose(p, q):
    """p*q on image tuples of one degree: (p*q)(x) = p(q(x)).

    `itemgetter` returns a scalar for one index and raises for none, so
    degrees 0 and 1 take the loop.
    """
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple([p[x] for x in q])


def _invert(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


class PermGroup:
    """A permutation group, held as a stabilizer chain on the base 0, 1, ..., n-1.

    `PermGroup(n, generators)` is the group of degree n generated by image
    tuples, and with none the trivial group.  Level k of the chain holds
    G^(k), the pointwise stabilizer of 0, ..., k-1: the strong generators
    `_gens[k]` that fix 0, ..., k-1, the basic orbit `_orbits[k]` of k
    under them, and for each point d of that orbit a transversal element
    `_reps[k][d]` sending k to d, with its inverse in `_invs[k][d]`, all as
    image tuples.  The order is the product of the basic orbit lengths, and
    g is a member exactly when it sifts: dividing off, level by level, the
    transversal element that agrees with it at k ends at the identity.  Two
    groups of equal order are equal when one's strong generators sift
    through the other.  A chain holds at most n(n+1)/2 transversal
    elements, whatever the order of the group, so no order cap is needed.

    The chain is built by deterministic Schreier-Sims (Seress, Permutation
    Group Algorithms, 2003, ch. 4): each generator that does not sift is
    added at every level whose base prefix its residue fixes, and a level
    is complete once each of its Schreier generators sifts through the
    levels below it.  Points whose orbit is {k} cost nothing beyond a
    comparison.  Each level keeps one sifted count per orbit point, so no
    Schreier generator is sifted twice.  Degree-1 groups have no non-identity element, so nothing
    is ever composed at degree 1.  `_gens[n]` belongs to the trivial group
    G^(n) and stays empty; it keeps `_gens[0]` defined at degree 0.

    Iterating walks the elements in lexicographic order of their image
    tuples, lazily, from the chain.  The greedy generators, each the least
    element outside the span of those before, are computed only when read,
    from the chain's own levels and the orbits of the ones found so far.
    """

    def __init__(self, degree: int, generators: Iterable[tuple[int, ...]] = ()):
        identity = tuple(range(degree))
        self.degree = degree
        self._gens: list[list[tuple[int, ...]]] = [[] for _ in range(degree + 1)]
        self._orbits = [[k] for k in range(degree)]
        self._reps = [{k: identity} for k in range(degree)]
        self._invs = [{k: identity} for k in range(degree)]
        # per orbit point, how many of the level's generators have sifted there: a level's
        # generators and orbit only grow, and each point scans its generators in order
        self._sifted: list[dict[int, int]] = [{} for _ in range(degree)]
        for g in generators:
            residue, level = self._strip(g, 0)
            if residue is not None:
                self._insert(residue, 0, level)
                self._complete(level)

    @property
    def order(self) -> int:
        total = 1
        for orbit in self._orbits:
            total *= len(orbit)
        return total

    @property
    def strong_generators(self) -> tuple[tuple[int, ...], ...]:
        """The level-0 strong generators, as image tuples; they generate the group."""
        return tuple(self._gens[0])

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        """Greedy generators: each sorted element outside the span of those kept before."""
        return tuple(map(Perm._trusted, self._greedy_generators()))

    def __contains__(self, p) -> bool:
        return isinstance(p, Perm) and len(p.images) == self.degree and self._contains(p.images)

    def __iter__(self):
        return map(Perm._trusted, self._walk(tuple(range(self.degree)), 0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.order == other.order
            and all(map(self._contains, other.strong_generators))
        )

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_k_transitive(self, k: int) -> bool:
        """Whether the group moves any ordered k-tuple of distinct points to any other.

        The orbit of (0, ..., k-1) has the size of the product of the first
        k basic orbits, and basic orbit i has at most n - i points, so the
        group is k-transitive exactly when each of those orbits is full.
        For k larger than the degree this is vacuously true (there are no
        such tuples), matching the usual convention.
        """
        n = self.degree
        return k > n or all(len(self._orbits[i]) == n - i for i in range(k))

    def _strip(self, g, level):
        """Sift g from `level` down: (None, degree) for a member, else (residue, its level)."""
        for k in range(level, self.degree):
            d = g[k]
            if d != k:
                inv = self._invs[k].get(d)
                if inv is None:
                    return g, k
                g = _compose(inv, g)
        return None, self.degree

    def _contains(self, g) -> bool:
        return self._strip(g, 0)[0] is None

    def _insert(self, h, first, last):
        """Make h a strong generator at levels first..last and grow their orbits."""
        for k in range(first, last + 1):
            gens, orbit, reps, invs = self._gens[k], self._orbits[k], self._reps[k], self._invs[k]
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
        gens, reps, invs, sifted = self._gens[k], self._reps[k], self._invs[k], self._sifted[k]
        for d in self._orbits[k]:
            u = reps[d]
            for i in range(sifted.get(d, 0), len(gens)):
                s = gens[i]
                e = s[d]
                if d == e == k:  # the Schreier generator is s, strong at level k + 1
                    continue
                su = _compose(s, u)
                if su != reps[e]:
                    residue = self._strip(_compose(invs[e], su), k + 1)
                    if residue[0] is not None:
                        sifted[d] = i
                        return residue
            sifted[d] = len(gens)
        return None

    def _walk(self, g, k):
        """The elements of g G^(k), in lexicographic order of their image tuples.

        G^(k) fixes 0, ..., k-1, so its elements agree with g there, and
        g G^(k) is the disjoint union of the cosets g u_d G^(k+1), for u_d in
        level k's transversal, whose elements all send k to g(d).  So sorting
        level k's basic orbit by g orders the cosets.  A level whose basic
        orbit is {k} has one coset and composes nothing, so the walk skips
        it.  It descends the other levels with one iterator per level on a
        stack, so each element is yielded from one frame, not passed up
        through one frame per level.
        """
        levels = [j for j in range(k, self.degree) if len(self._reps[j]) > 1]
        if not levels:
            yield g
            return

        def cosets(h, depth):
            j = levels[depth]
            reps = self._reps[j]
            return (h if d == j else _compose(h, reps[d]) for d in sorted(reps, key=h.__getitem__))

        stack = [cosets(g, 0)]
        while stack:
            if len(stack) == len(levels):
                yield from stack.pop()
            else:
                h = next(stack[-1], None)
                if h is None:
                    stack.pop()
                else:
                    stack.append(cosets(h, len(stack)))

    def _greedy_generators(self) -> list[tuple[int, ...]]:
        """The sorted elements each outside the span of those before, read off the chain's levels.

        The next greedy generator is the least element of G outside the span
        H of the ones before it.  The levels are taken from the deepest up;
        once those below k are done, G^(k+1) <= H <= G^(k).  Then H is a union
        of the cosets u_d G^(k+1) of level k's transversal, so an element of
        G^(k) lies in H exactly when its image of k lies in the orbit of k
        under the generators found so far.  The elements of G^(k) are the
        least in G, and those sending k to d form u_d G^(k+1).  So while that
        orbit is not all of level k's basic orbit, the next generator is the
        least element of u_d G^(k+1) for the least d outside it.
        """
        found: list[tuple[int, ...]] = []
        for k in reversed(range(self.degree)):
            reps = self._reps[k]
            while len(reached := _orbit(k, lambda x: [g[x] for g in found])) < len(reps):
                d = min(d for d in reps if d not in reached)
                found.append(next(self._walk(reps[d], k + 1)))
        return found


def closure(generators: Sequence[Perm], degree: int) -> PermGroup:
    """The group of degree `degree` generated by the given permutations."""
    return PermGroup(degree, [g.images for g in generators])


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

