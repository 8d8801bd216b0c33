"""Finite posets, order ideals, order isomorphisms, and semilatticeoids.

A semilatticeoid is an inverse semigroupoid all of whose arrows are
idempotent; it decomposes into a disjoint union of meet semilattices,
one per object, with the product realizing greatest lower bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

from .core import UnionFind, arrows_by_end, classes_of, validate_semigroupoid
from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .inverse import InverseSemigroupoid


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, in increasing order, one big-int step each."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FinitePoset:
    """A partial order on elements ``0..size-1`` as row bitmasks: bit y
    of ``up[x]`` is set iff x <= y."""

    up: tuple[int, ...]
    names: tuple[str, ...]

    @property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order as a boolean matrix, built on each read; a view for
        callers outside the library, which itself reads only ``up``."""
        k = self.size
        return tuple(tuple(c == "1" for c in f"{m:0{k}b}"[::-1]) for m in self.up)

    @property
    def size(self) -> int:
        return len(self.up)

    def elements(self) -> range:
        return range(self.size)

    def le(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def above(self, x: int) -> Iterator[int]:
        """The y with x <= y, in increasing order."""
        return _bits(self.up[x])

    def downset(self, y: int) -> frozenset[int]:
        return frozenset(x for x, m in enumerate(self.up) if m >> y & 1)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y) with x < y and nothing strictly between:
        the y strictly above x and strictly above no other point that is."""
        edges = []
        up = self.up
        for x, m in enumerate(up):
            strict = m & ~(1 << x)
            between = 0
            for z in _bits(strict):
                between |= up[z] & ~(1 << z)
            edges.extend((x, y) for y in _bits(strict & ~between))
        return edges

    def restrict(self, elems: Sequence[int]) -> "FinitePoset":
        """The induced order on a subset, reindexed in the given order."""
        columns = [1 << y for y in elems]
        return FinitePoset(
            up=tuple(
                sum(1 << j for j, c in enumerate(columns) if self.up[x] & c)
                for x in elems
            ),
            names=tuple(self.names[x] for x in elems),
        )


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
    up = [0] * size
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            raise ValidationError("MalformedRelation", (x, y))
        up[x] |= 1 << y

    if auto_close:
        for x in range(size):
            up[x] |= 1 << x
        # Warshall: after pass y, x <= z for every path from x to z whose
        # inner points are all at most y
        for y in range(size):
            bit = 1 << y
            for x in range(size):
                if up[x] & bit:
                    up[x] |= up[y]
    return poset_from_masks(up, names)


def poset_from_masks(
    up: Sequence[int], names: Sequence[str] | None = None
) -> FinitePoset:
    """The poset with row bitmasks ``up``, checked to be a partial order;
    each witness is the first a row-major scan of the relation finds."""
    size = len(up)
    for x, up_x in enumerate(up):
        if up_x < 0 or up_x >> size:
            raise ValidationError("MalformedRelation", (x,), "row mask out of range")
    for x in range(size):
        if not up[x] >> x & 1:
            raise ValidationError("ReflexivityFailure", (x,))
    # the least z in up[y] but not up[x] is the first a scan would find
    for x, up_x in enumerate(up):
        for y in _bits(up_x):
            missing = up[y] & ~up_x
            if missing:
                z = (missing & -missing).bit_length() - 1
                raise ValidationError("TransitivityFailure", (x, y, z))
    for x, up_x in enumerate(up):
        for y in _bits((up_x >> x + 1) << x + 1):
            if up[y] >> x & 1:
                raise ValidationError("AntisymmetryFailure", (x, y))

    if names is None:
        names = tuple(f"x{i}" for i in range(size))
    if len(names) != size:
        raise ValidationError("MalformedRelation", (), "name list has wrong length")
    return FinitePoset(up=tuple(up), names=tuple(names))


def discrete_poset(size: int, names: Sequence[str] | None = None) -> FinitePoset:
    return validate_poset([(x, x) for x in range(size)], size, names=names)


def chain_poset(size: int, names: Sequence[str] | None = None) -> FinitePoset:
    pairs = [(x, y) for x in range(size) for y in range(size) if x <= y]
    return validate_poset(pairs, size, names=names)


def is_order_ideal(poset: FinitePoset, subset: Iterable[int]) -> bool:
    """True iff the subset is a downward closed set of the poset's
    points: no point outside it lies below a point inside it.  A point
    outside ``0..size-1`` makes the answer False."""
    inside = set(subset)
    points = poset.elements()
    if not all(y in points for y in inside):
        return False
    mask = sum(1 << y for y in inside)
    return not any(m & mask for x, m in enumerate(poset.up) if x not in inside)


def check_order_iso(f: Sequence[int], src: FinitePoset, dst: FinitePoset) -> bool:
    """True iff f is a bijection with x <= y exactly when f(x) <= f(y):
    f carries each up-set of src onto the up-set of the image point."""
    if len(f) != src.size or src.size != dst.size:
        return False
    if len(set(f)) != len(f) or any(not (0 <= v < dst.size) for v in f):
        return False
    return all(
        sum(1 << f[y] for y in _bits(m)) == dst.up[f[x]]
        for x, m in enumerate(src.up)
    )


@dataclass(frozen=True)
class Semilatticeoid:
    """An all-idempotent inverse semigroupoid; the fiber of an arrow is
    its object."""

    base: "InverseSemigroupoid"

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


def _down_masks(up: Sequence[int]) -> list[int]:
    """The transpose of the up-set masks: bit x of ``down[y]`` is set iff
    x <= y; O(|<=|)."""
    down = [0] * len(up)
    for x, m in enumerate(up):
        bit = 1 << x
        for y in _bits(m):
            down[y] |= bit
    return down


def validate_semilatticeoid(inv_sg: "InverseSemigroupoid") -> Semilatticeoid:
    """Check that every arrow is idempotent and products realize meets.

    The meet is read from the order, not from the product: in a poset, z
    is the greatest lower bound of x and y iff the points below z are
    exactly those below both, ``down[z] == down[x] & down[y]`` (z is then
    below itself, so a lower bound, and above every lower bound).  The
    down-set masks are built once from the up-sets, O(|<=|), and each
    composable pair costs one mask test, O(c) in all.
    """
    base = inv_sg.base
    idems = set(inv_sg.idempotents)
    for s in base.arrows():
        if s not in idems:
            raise ValidationError("NonIdempotentArrow", (s,))

    down = _down_masks(inv_sg.order.up)
    # into[dom x] is every y composable with x, increasing, so the first
    # failure is the one a row-major scan of all pairs finds
    into = arrows_by_end(base.cod, base.n_objects)
    for x, row in enumerate(base.rows):
        down_x = down[x]
        for y, xy in zip(into[base.dom[x]], row):
            if down[xy] != down_x & down[y]:
                raise ValidationError("ProductNotMeet", (x, y))

    return Semilatticeoid(base=inv_sg)


def comparability_components(poset: FinitePoset) -> list[list[int]]:
    """Connected components of the comparability graph, numbered as
    :func:`~semigroupoids.core.classes_of` numbers every partition: each
    sorted, listed by least point.  x is joined to every point above it,
    in O(|<=|) union-find steps."""
    uf = UnionFind(poset.size)
    for x, m in enumerate(poset.up):
        for y in _bits(m):
            uf.union(x, y)
    return list(map(list, classes_of(uf.reps())[1]))


def semilatticeoid_from_poset(poset: FinitePoset) -> Semilatticeoid:
    """Build a semilatticeoid from a disjoint union of meet semilattices.

    Comparability components become the objects; every same-component
    pair must admit a greatest lower bound, which becomes the product.
    z is the meet of x and y iff ``down[z] == down[x] & down[y]`` (see
    :func:`validate_semilatticeoid`), and distinct points have distinct
    down-sets, so each meet is one lookup of that mask among the points'
    own: O(|<=| + c) in all.  The first pair, in row-major order, whose
    mask names no point is the ``ProductNotMeet`` witness.
    """
    from .inverse import promote_to_inverse

    components = comparability_components(poset)
    dom = [0] * poset.size
    for u, comp in enumerate(components):
        for x in comp:
            dom[x] = u

    down = _down_masks(poset.up)
    point_of = {m: z for z, m in enumerate(down)}
    rows = []
    for x, down_x in enumerate(down):
        ys = components[dom[x]]
        row = [point_of.get(down_x & down[y]) for y in ys]
        if None in row:
            raise ValidationError("ProductNotMeet", (x, ys[row.index(None)]))
        rows.append(row)

    sg = validate_semigroupoid(
        dom,
        dom,
        rows=rows,
        n_objects=len(components),
        arrow_names=poset.names,
        object_names=tuple(f"c{u}" for u in range(len(components))),
    )
    return validate_semilatticeoid(promote_to_inverse(sg))
