"""Finite graphed semigroupoids as validated partial multiplication tables.

Arrows and objects are dense integer indices; names are metadata only.
The product is stored as an n x n table with a ``-1`` sentinel on
non-composable pairs, so the validator can enforce that the sentinel
pattern matches the dom/cod graph exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InternalInconsistencyError, ValidationError

NOT_COMPOSABLE = -1


def _default_names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True)
class FiniteSemigroupoid:
    """A finite semigroupoid over objects ``0..n_objects-1``.

    ``mul[s][t]`` is the product arrow when ``dom[s] == cod[t]`` and
    ``-1`` otherwise.  Instances are immutable after validation; build
    them through :func:`validate_semigroupoid`.  ``generators`` is the
    generating set G that validation found for Light's test: every arrow
    is a product (..((g1 g2) g3)..) gk of arrows in G.  It is derived
    from the table, so it takes no part in equality.
    """

    n_objects: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    mul: tuple[tuple[int, ...], ...]
    arrow_names: tuple[str, ...]
    object_names: tuple[str, ...]
    generators: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def n_arrows(self) -> int:
        return len(self.dom)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def composable(self, s: int, t: int) -> bool:
        return self.dom[s] == self.cod[t]

    def parallel(self, s: int, t: int) -> bool:
        return self.dom[s] == self.dom[t] and self.cod[s] == self.cod[t]

    def product(self, s: int, t: int) -> int:
        r = self.mul[s][t]
        if r == NOT_COMPOSABLE:
            raise ValueError(f"arrows {s} and {t} are not composable")
        return r


def validate_semigroupoid(
    dom: Sequence[int],
    cod: Sequence[int],
    triples: Iterable[tuple[int, int, int]],
    *,
    n_objects: int | None = None,
    arrow_names: Sequence[str] | None = None,
    object_names: Sequence[str] | None = None,
) -> FiniteSemigroupoid:
    """Validate raw multiplication data and build a semigroupoid.

    ``triples`` lists the partial product as (s, t, s*t) arrow triples.
    Raises :class:`ValidationError` naming the first violated axiom with
    the smallest witness under index order.
    """
    n = len(dom)
    if len(cod) != n:
        raise ValidationError("MalformedTable", (), "dom and cod lengths differ")
    if n == 0:
        raise ValidationError("EmptySemigroupoid")
    if n_objects is None:
        n_objects = max([*dom, *cod], default=-1) + 1
    dom = tuple(dom)
    cod = tuple(cod)
    for s in range(n):
        if not (0 <= dom[s] < n_objects and 0 <= cod[s] < n_objects):
            raise ValidationError("MalformedTable", (s,), "object index out of range")

    table = [[NOT_COMPOSABLE] * n for _ in range(n)]
    for s, t, r in sorted(triples):
        for a in (s, t, r):
            if not (0 <= a < n):
                raise ValidationError("MalformedTable", (s, t, r), "arrow index out of range")
        if dom[s] != cod[t]:
            raise ValidationError("DefinedOnNonComposablePair", (s, t))
        if table[s][t] != NOT_COMPOSABLE and table[s][t] != r:
            raise ValidationError("DuplicateProduct", (s, t))
        table[s][t] = r

    # into[dom s] is every t composable with s, increasing, so these walks
    # keep the row-major order of the least witness; past the triples
    # only composable cells can be defined
    into = arrows_by_end(cod, n_objects)
    for s in range(n):
        for t in into[dom[s]]:
            if table[s][t] == NOT_COMPOSABLE:
                raise ValidationError("UndefinedOnComposablePair", (s, t))

    for s in range(n):
        for t in into[dom[s]]:
            r = table[s][t]
            if dom[r] != dom[t] or cod[r] != cod[s]:
                raise ValidationError("DomCodMismatch", (s, t))

    generators = _generators(dom, cod, table, n_objects)
    if not _light_associative(dom, cod, table, into, generators):
        witness = _least_non_associative(dom, cod, table)
        raise ValidationError("AssociativityFailure", witness)

    used = set(dom) | set(cod)
    for u in range(n_objects):
        if u not in used:
            raise ValidationError("OrphanObject", (u,))

    if arrow_names is None:
        arrow_names = _default_names("a", n)
    if object_names is None:
        object_names = _default_names("u", n_objects)
    if len(arrow_names) != n or len(object_names) != n_objects:
        raise ValidationError("MalformedTable", (), "name lists have wrong length")

    return FiniteSemigroupoid(
        n_objects=n_objects,
        dom=dom,
        cod=cod,
        mul=tuple(tuple(row) for row in table),
        arrow_names=tuple(arrow_names),
        object_names=tuple(object_names),
        generators=tuple(generators),
    )


def arrows_by_end(ends: Sequence[int], n_objects: int) -> list[list[int]]:
    """The arrows s with ``ends[s] == u`` at index u, each list increasing:
    pass ``cod`` for the arrows into each object, ``dom`` for those out."""
    by_end: list[list[int]] = [[] for _ in range(n_objects)]
    for s, u in enumerate(ends):
        by_end[u].append(s)
    return by_end


def _generators(dom, cod, table, n_objects: int) -> list[int]:
    """Arrows, picked greedily in index order, from which every arrow is
    reached by multiplying on the right by picked arrows.

    What is reached lies in the closure of the picks under the table's
    product, so that closure is every arrow; on an associative table the
    two coincide.  Each reached arrow is multiplied once by each pick it
    composes with, so the search is O(n |G|).
    """
    reached = [False] * len(dom)
    members = []
    picks_into = [[] for _ in range(n_objects)]  # picks, by codomain
    gens = []
    for g in range(len(dom)):
        if reached[g]:
            continue
        gens.append(g)
        picks_into[cod[g]].append(g)
        pending = [g] + [table[x][g] for x in members if dom[x] == cod[g]]
        while pending:
            x = pending.pop()
            if reached[x]:
                continue
            reached[x] = True
            members.append(x)
            row = table[x]
            pending += [row[h] for h in picks_into[dom[x]]]
    return gens


def _light_associative(dom, cod, table, into, generators) -> bool:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, section 1.2), exact on a table that obeys
    the dom/cod law.

    The middles g for which (x g) y = x (g y) holds for all composable x
    and y are closed under the product: for two of them g and h,
    (x (g h)) y = ((x g) h) y = (x g) (h y) = x (g (h y)) = x ((g h) y).
    So checking the middles in a generating set covers every middle, at
    O(n^2 |G|) instead of O(n^3).  ``into`` lists the arrows by codomain.
    """
    out_of = arrows_by_end(dom, len(into))
    for g in generators:
        row_g = table[g]
        right = into[dom[g]]  # the y with g y defined
        if not right:
            continue
        # the comparison reads whole rows through itemgetter, so one
        # (x, g) costs two C-level gathers; a single y gives scalars
        take_y = itemgetter(*right)
        take_gy = itemgetter(*[row_g[y] for y in right])
        for x in out_of[cod[g]]:
            if take_y(table[table[x][g]]) != take_gy(table[x]):
                return False
    return True


def _least_non_associative(dom, cod, table) -> tuple[int, int, int]:
    """The least (r, s, t) with (r s) t != r (s t), on a table that has
    one; only a failing table pays for this cubic scan."""
    n = len(dom)
    for r in range(n):
        for s in range(n):
            if dom[r] != cod[s]:
                continue
            rs = table[r][s]
            for t in range(n):
                if dom[s] != cod[t]:
                    continue
                if table[rs][t] != table[r][table[s][t]]:
                    return (r, s, t)
    raise InternalInconsistencyError("NoAssociativityWitness", ())


def semigroupoid_triples(sg: FiniteSemigroupoid) -> list[tuple[int, int, int]]:
    """The defined products of ``sg`` as sorted (s, t, s*t) triples; each
    s meets only the arrows t with cod t = dom s, in increasing order."""
    into = arrows_by_end(sg.cod, sg.n_objects)
    return [(s, t, row[t]) for s, row in enumerate(sg.mul) for t in into[sg.dom[s]]]


@dataclass(frozen=True)
class SemigroupoidMorphism:
    """An arrow map with its unique graph-morphism companion on objects."""

    source: FiniteSemigroupoid
    target: FiniteSemigroupoid
    arrow_map: tuple[int, ...]
    object_map: tuple[int, ...]

    def __call__(self, s: int) -> int:
        return self.arrow_map[s]


def validate_morphism(
    source: FiniteSemigroupoid,
    target: FiniteSemigroupoid,
    arrow_map: Sequence[int],
) -> SemigroupoidMorphism:
    """Check multiplicativity and derive the object map."""
    n = source.n_arrows
    if len(arrow_map) != n:
        raise ValidationError("MalformedTable", (), "arrow map has wrong length")
    f = tuple(arrow_map)
    for s in f:
        if not (0 <= s < target.n_arrows):
            raise ValidationError("MalformedTable", (s,), "arrow image out of range")

    into = arrows_by_end(source.cod, source.n_objects)
    for s in range(n):
        for t in into[source.dom[s]]:
            if not target.composable(f[s], f[t]):
                raise ValidationError("ComposabilityNotPreserved", (s, t))
            if target.mul[f[s]][f[t]] != f[source.mul[s][t]]:
                raise ValidationError("NotMultiplicative", (s, t))

    # The object map is forced by the dom/cod squares; conflicting
    # requirements mean no graph-morphism companion exists.
    obj: dict[int, int] = {}
    for s in range(n):
        for u, v in ((source.dom[s], target.dom[f[s]]), (source.cod[s], target.cod[f[s]])):
            if obj.setdefault(u, v) != v:
                raise ValidationError("ObjectMapConflict", (u,))
    derived = tuple(obj[u] for u in range(source.n_objects))
    return SemigroupoidMorphism(source, target, f, derived)


def compose_morphisms(
    g: SemigroupoidMorphism, f: SemigroupoidMorphism
) -> SemigroupoidMorphism:
    """The composite g after f, revalidated."""
    if f.target is not g.source and f.target != g.source:
        raise ValidationError("MalformedTable", (), "morphisms not composable")
    return validate_morphism(
        f.source, g.target, tuple(g.arrow_map[a] for a in f.arrow_map)
    )


def identity_morphism(sg: FiniteSemigroupoid) -> SemigroupoidMorphism:
    return SemigroupoidMorphism(
        sg, sg, tuple(range(sg.n_arrows)), tuple(range(sg.n_objects))
    )


class UnionFind:
    """Disjoint sets over ``0..n-1`` whose root is always the least member
    of its class, so ``find`` doubles as a canonical representative."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; True iff they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def reps(self) -> tuple[int, ...]:
        """The least member of each element's class, element by element."""
        return tuple(self.find(x) for x in range(len(self.parent)))
