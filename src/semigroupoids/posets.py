"""Finite posets, order ideals, order isomorphisms, and semilatticeoids.

A semilatticeoid is an inverse semigroupoid all of whose arrows are
idempotent; it decomposes into a disjoint union of meet semilattices,
one per object, with the product realizing greatest lower bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence, TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .inverse import InverseSemigroupoid


@dataclass(frozen=True)
class FinitePoset:
    """A partial order on elements ``0..size-1`` as a boolean matrix."""

    leq: tuple[tuple[bool, ...], ...]
    names: tuple[str, ...]

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Row bitmasks: bit y of ``up[x]`` is set iff x <= y."""
        bits = [1 << y for y in self.elements()]
        return tuple(sum(compress(bits, row)) for row in self.leq)

    @property
    def size(self) -> int:
        return len(self.leq)

    def elements(self) -> range:
        return range(self.size)

    def le(self, x: int, y: int) -> bool:
        return self.leq[x][y]

    def downset(self, y: int) -> frozenset[int]:
        return frozenset(x for x in self.elements() if self.leq[x][y])

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y) with x < y and nothing strictly between."""
        edges = []
        leq = self.leq
        points = self.elements()
        for x in points:
            # a point strictly between x and y is strictly above x
            above = [z for z in compress(points, leq[x]) if z != x]
            for y in above:
                if not any(z != y and leq[z][y] for z in above):
                    edges.append((x, y))
        return edges

    def restrict(self, elems: Sequence[int]) -> "FinitePoset":
        """The induced order on a subset, reindexed in the given order."""
        return FinitePoset(
            leq=tuple(tuple(self.leq[x][y] for y in elems) for x in elems),
            names=tuple(self.names[x] for x in elems),
        )

    def glb(self, x: int, y: int) -> int | None:
        """Greatest lower bound by brute-force scan, or None."""
        lower = [z for z in self.elements() if self.leq[z][x] and self.leq[z][y]]
        for w in lower:
            if all(self.leq[z][w] for z in lower):
                return w
        return None


def validate_poset(
    pairs: Iterable[tuple[int, int]],
    size: int,
    *,
    names: Sequence[str] | None = None,
    auto_close: bool = False,
) -> FinitePoset:
    """Build a poset from a relation given as (x, y) pairs meaning x <= y.

    With ``auto_close`` the reflexive-transitive closure is taken first;
    otherwise a missing reflexive loop or transitive edge is an error.
    Antisymmetry failures are always errors.
    """
    points = range(size)
    leq = [[False] * size for _ in range(size)]
    up = [0] * size  # row bitmasks of the relation as given
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            raise ValidationError("MalformedRelation", (x, y))
        leq[x][y] = True
        up[x] |= 1 << y

    if auto_close:
        for x in range(size):
            leq[x][x] = True
        # Warshall: after pass y, x <= z for every path from x to z whose
        # inner points are all at most y
        for y in range(size):
            for x in range(size):
                if leq[x][y]:
                    for z in range(size):
                        if leq[y][z]:
                            leq[x][z] = True
    else:
        for x in range(size):
            if not leq[x][x]:
                raise ValidationError("ReflexivityFailure", (x,))
        # the least z in up[y] but not up[x] is the first a scan would find
        for x in points:
            up_x = up[x]
            for y in compress(points, leq[x]):
                missing = up[y] & ~up_x
                if missing:
                    z = (missing & -missing).bit_length() - 1
                    raise ValidationError("TransitivityFailure", (x, y, z))

    for x in points:
        for y in compress(points, leq[x]):
            if y > x and leq[y][x]:
                raise ValidationError("AntisymmetryFailure", (x, y))

    if names is None:
        names = tuple(f"x{i}" for i in range(size))
    return FinitePoset(leq=tuple(tuple(row) for row in leq), names=tuple(names))


def poset_from_matrix(matrix: Sequence[Sequence[bool]], names: Sequence[str] | None = None) -> FinitePoset:
    size = len(matrix)
    points = range(size)
    pairs = [(x, y) for x in points for y in compress(points, matrix[x])]
    return validate_poset(pairs, size, names=names)


def discrete_poset(size: int, names: Sequence[str] | None = None) -> FinitePoset:
    return validate_poset([(x, x) for x in range(size)], size, names=names)


def chain_poset(size: int, names: Sequence[str] | None = None) -> FinitePoset:
    pairs = [(x, y) for x in range(size) for y in range(size) if x <= y]
    return validate_poset(pairs, size, names=names)


def is_order_ideal(poset: FinitePoset, subset: Iterable[int]) -> bool:
    """True iff the subset is a downward closed set of the poset's
    points; a point outside ``0..size-1`` makes the answer False."""
    inside = set(subset)
    points = poset.elements()
    return all(y in points for y in inside) and all(
        poset.downset(y) <= inside for y in inside
    )


def check_order_iso(f: Sequence[int], src: FinitePoset, dst: FinitePoset) -> bool:
    """True iff f is a bijection with x <= y exactly when f(x) <= f(y)."""
    if len(f) != src.size or src.size != dst.size:
        return False
    if len(set(f)) != len(f) or any(not (0 <= v < dst.size) for v in f):
        return False
    return all(
        src.leq[x][y] == dst.leq[f[x]][f[y]]
        for x in src.elements()
        for y in src.elements()
    )


@dataclass(frozen=True)
class Semilatticeoid:
    """An all-idempotent inverse semigroupoid with its per-object fibers."""

    base: "InverseSemigroupoid"
    fibers: tuple[tuple[int, ...], ...]

    @property
    def n_arrows(self) -> int:
        return self.base.n_arrows

    @property
    def order(self) -> FinitePoset:
        return self.base.order

    def meet(self, x: int, y: int) -> int:
        return self.base.base.product(x, y)

    def fiber_of(self, x: int) -> int:
        return self.base.base.dom[x]


def validate_semilatticeoid(inv_sg: "InverseSemigroupoid") -> Semilatticeoid:
    """Check that every arrow is idempotent and products realize meets.

    The greatest lower bound is recomputed by an independent brute-force
    scan over lower bounds and compared with the stored product.
    """
    base = inv_sg.base
    idems = set(inv_sg.idempotents)
    for s in base.arrows():
        if s not in idems:
            raise ValidationError("NonIdempotentArrow", (s,))

    order = inv_sg.order
    for x in base.arrows():
        for y in base.arrows():
            if not base.composable(x, y):
                continue
            if order.glb(x, y) != base.mul[x][y]:
                raise ValidationError("ProductNotMeet", (x, y))

    fibers = tuple(
        tuple(s for s in base.arrows() if base.dom[s] == u)
        for u in range(base.n_objects)
    )
    return Semilatticeoid(base=inv_sg, fibers=fibers)


def comparability_components(poset: FinitePoset) -> list[list[int]]:
    """Connected components of the comparability graph, sorted."""
    seen: set[int] = set()
    components = []
    for start in poset.elements():
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in poset.elements():
                if y not in seen and (poset.leq[x][y] or poset.leq[y][x]):
                    seen.add(y)
                    stack.append(y)
        components.append(sorted(comp))
    return components


def semilatticeoid_from_poset(poset: FinitePoset) -> Semilatticeoid:
    """Build a semilatticeoid from a disjoint union of meet semilattices.

    Comparability components become the objects; every same-component
    pair must admit a greatest lower bound, which becomes the product.
    """
    from .inverse import promote_to_inverse

    components = comparability_components(poset)
    comp_of = {}
    for u, comp in enumerate(components):
        for x in comp:
            comp_of[x] = u

    dom = [comp_of[x] for x in poset.elements()]
    triples = []
    for x in poset.elements():
        for y in poset.elements():
            if comp_of[x] != comp_of[y]:
                continue
            m = poset.glb(x, y)
            if m is None:
                raise ValidationError("ProductNotMeet", (x, y))
            triples.append((x, y, m))

    from .core import validate_semigroupoid

    sg = validate_semigroupoid(
        dom,
        dom,
        triples,
        n_objects=len(components),
        arrow_names=poset.names,
        object_names=tuple(f"c{u}" for u in range(len(components))),
    )
    return validate_semilatticeoid(promote_to_inverse(sg))
