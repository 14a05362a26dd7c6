"""Permutations on {0, ..., n-1} and explicitly materialized permutation groups.

Everything here is exact and small-scale by design: groups are stored as a
sorted tuple of their elements.  The elements are found by Dimino's coset
closure (G. Butler, Fundamental Algorithms for Permutation Groups, LNCS 559,
1991, ch. 6): generators are added one at a time, and the span of the ones
added so far grows by whole right cosets, composed on raw image tuples.
There is no stabilizer-chain machinery; the point of the module is
determinism and easy auditing, not asymptotics.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .errors import CapExceeded, NotASubgroup

DEFAULT_ORDER_CAP = 10**6


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
        """Multiset of cycle lengths, sorted ascending (fixed points included)."""
        seen = [False] * len(self.images)
        lengths = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

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
    """A fully materialized permutation group.

    Elements are kept sorted lexicographically by image tuple, so the
    element list of a group does not depend on how it was generated.  The
    constructor takes them already in that order; `closure` and
    `from_elements` are the ways to build one from unsorted input.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], elements: Sequence[Perm]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._members = frozenset(map(attrgetter("images"), self.elements))
        if tuple(range(degree)) not in self._members:
            raise ValueError("element list lacks the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p) -> bool:
        return isinstance(p, Perm) and p.images in self._members

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.degree, self._members))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @classmethod
    def from_elements(cls, elements: Iterable[Perm], degree: int | None = None) -> "PermGroup":
        """Wrap a set closed under composition, picking a small generating set.

        The generating set is found greedily: walk the sorted elements and
        keep each one that is not already generated by the kept ones.  Each
        kept element extends the span by Dimino's coset step, and every
        element the span gains must lie in the given set; otherwise
        NotASubgroup names a product of two members that falls outside it.
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
        added, _ = _dimino(map(attrgetter("images"), elements), degree, within=by_images)
        return cls(degree, [by_images[t] for t in added], elements)


def _dimino(candidates, degree, cap=None, within=None):
    """Dimino's closure: add each candidate not yet in the span of those added before.

    Candidates and elements are image tuples.  Adding g to the generators of
    H = <added> grows H, in place, to the union of its right cosets H*r in
    <added, g>.  Those cosets are reached from H itself: for a coset
    representative r and a generator s, H*(r*s) is either already present or
    a new coset with representative r*s.  Each element costs one tuple
    composition, h*t being `t`'s images looked up in `h`.

    The order is bounded in one of two ways.  With `cap`, CapExceeded is
    raised before a coset would take the group past `cap` elements.  With
    `within`, every new element must be a key of it, or NotASubgroup names
    a product of two members that is not; the group then cannot outgrow it.

    Returns the added candidates and the group's elements, identity first.
    """
    span_list = [tuple(range(degree))]
    span = set(span_list)
    added: list[tuple[int, ...]] = []
    for g in candidates:
        if g in span:
            continue
        added.append(g)
        old = span_list[:]
        reps = [old[0]]
        for r in reps:  # grows while it is walked
            for s in added:
                t = tuple([r[x] for x in s])
                if t in span:
                    continue
                if within is None and len(span) + len(old) > cap:
                    raise CapExceeded(f"closure order exceeds cap {cap}")
                coset = list(map(itemgetter(*t), old))
                if within is not None and not all(map(within.__contains__, coset)):
                    if t not in within:
                        left, right = r, s
                    else:
                        left, right = next((h, t) for h, ht in zip(old, coset) if ht not in within)
                    raise NotASubgroup(
                        f"not closed: {Perm(left)!r} * {Perm(right)!r} is not in the set"
                    )
                span.update(coset)
                span_list.extend(coset)
                reps.append(t)
    return added, span_list


def closure(
    generators: Sequence[Perm],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Group generated by the given permutations, materialized by Dimino's algorithm.

    The generators are added one at a time; one already in the span adds
    nothing.  Raises CapExceeded once the group is known to have more than
    `cap` elements, before the coset that would exceed it is built.
    """
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValueError("need generators or an explicit degree")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators have mixed degrees")
    _, elements = _dimino([g.images for g in generators], degree, cap=cap)
    elements.sort()
    return PermGroup(degree, generators, [Perm(images) for images in elements])


def orbit_partition(generators: Sequence[Perm], degree: int) -> list[list[int]]:
    """Orbits of the generated group on points, each sorted, listed by minimum."""
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for x in range(degree):
            a, b = find(x), find(g(x))
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for x in range(degree):
        blocks.setdefault(find(x), []).append(x)
    return [blocks[r] for r in sorted(blocks)]


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """Whether the group moves any ordered k-tuple of distinct points to any other.

    For k larger than the degree this is vacuously true (there are no such
    tuples), matching the usual convention.
    """
    n = group.degree
    if k > n:
        return True
    if k <= 0:
        return True
    base = tuple(range(k))
    images = {tuple(g(i) for i in base) for g in group.elements}
    expected = 1
    for i in range(k):
        expected *= n - i
    return len(images) == expected


def stabilizer(
    group: PermGroup,
    action: Callable[[Perm, Hashable], Hashable],
    point: Hashable,
) -> list[Perm]:
    """Elements fixing `point` under an arbitrary action, verified to be a subgroup.

    `action(g, x)` must implement a group action of the materialized group on
    whatever set `point` lives in.  If the fixing set is not closed under
    composition the action was not one, and NotASubgroup reports a witness.
    """
    fixing = [g for g in group.elements if action(g, point) == point]
    members = set(fixing)
    for a in fixing:
        for b in fixing:
            if a * b not in members:
                raise NotASubgroup(f"stabilizer not closed: {a!r} * {b!r}")
    assert group.order % max(len(fixing), 1) == 0, "orbit-stabilizer violated"
    return fixing


def symmetric_group(n: int, cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """The full symmetric group on n points."""
    if n <= 1:
        return PermGroup(n, [], [Perm.identity(n)])
    gens = [Perm.transposition(n, 0, 1)]
    if n > 2:
        gens.append(Perm.cycle(n, tuple(range(n))))
    return closure(gens, cap=cap, degree=n)


def direct_product(left: PermGroup, right: PermGroup, cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Product group acting on the disjoint union of the two point sets."""
    n, m = left.degree, right.degree
    gens = []
    for g in left.generators:
        gens.append(Perm(tuple(g.images) + tuple(n + i for i in range(m))))
    for h in right.generators:
        gens.append(Perm(tuple(range(n)) + tuple(n + h(i) for i in range(m))))
    return closure(gens, cap=cap, degree=n + m)
