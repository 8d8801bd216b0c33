"""Finite graphed semigroupoids as validated partial multiplication tables.

Arrows and objects are dense integer indices; names are metadata only.
The product is stored as one row per arrow s holding only the defined
products s t, over the arrows t with cod t = dom s in increasing order,
so a structure with c composable pairs stores c cells.  The validator
takes only this form; :mod:`semigroupoids.io` turns a file's triples into it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InternalInconsistencyError, ValidationError

NOT_COMPOSABLE = -1


@cache  # one shared tuple per length, not one per structure
def _default_names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True)
class FiniteSemigroupoid:
    """A finite semigroupoid over objects ``0..n_objects-1``.

    ``rows[s]`` lists the products s t for the arrows t with
    ``cod[t] == dom[s]``, in increasing t, and ``slot[t]`` is the
    position of t among the arrows into ``cod[t]``: s t is
    ``rows[s][slot[t]]``.  Instances are immutable after validation;
    build them through :func:`validate_semigroupoid`.  ``generators`` is
    the generating set G that validation found for Light's test: every
    arrow is a product (..((g1 g2) g3)..) gk of arrows in G.  It and
    ``slot`` are derived, so they take no part in equality.
    """

    n_objects: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    arrow_names: tuple[str, ...]
    object_names: tuple[str, ...]
    generators: tuple[int, ...] = field(compare=False, repr=False)
    slot: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """The n x n table, ``-1`` on non-composable pairs, built on each
        read; a view for callers outside the library, which itself reads
        only ``rows``."""
        if self.n_objects == 1:  # every pair composes: the rows are the table
            return self.rows
        cod, slot = self.cod, self.slot
        return tuple(
            tuple(row[slot[t]] if cod[t] == u else NOT_COMPOSABLE for t in self.arrows())
            for u, row in zip(self.dom, self.rows)
        )

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
        if self.dom[s] != self.cod[t]:
            raise ValueError(f"arrows {s} and {t} are not composable")
        return self.rows[s][self.slot[t]]


def validate_semigroupoid(
    dom: Sequence[int],
    cod: Sequence[int],
    *,
    rows: Iterable[Sequence[int]],
    n_objects: int | None = None,
    arrow_names: Sequence[str] | None = None,
    object_names: Sequence[str] | None = None,
) -> FiniteSemigroupoid:
    """Validate raw multiplication data and build a semigroupoid.

    ``rows[s]`` lists the products s t over the arrows t with
    cod t = dom s in increasing t, tuples or lists: the stored form.
    Rows are checked for count, length and range, then for the dom/cod
    law and associativity, each in row-major order.  Raises
    :class:`ValidationError` naming the first violated axiom with the
    smallest witness under index order.  Nothing is allocated per pair
    beyond a tuple of each row given, so memory is bounded by the input.
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

    # into[dom s] is every t composable with s, increasing
    into = arrows_by_end(cod, n_objects)
    rows = tuple(map(tuple, rows))
    if len(rows) != n:
        raise ValidationError("MalformedTable", (), "row count differs from arrow count")
    for s, row in enumerate(rows):
        if len(row) != len(into[dom[s]]):
            raise ValidationError("MalformedTable", (s,), "row length is not |into dom s|")
    for s, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= n):
            t, r = next((t, r) for t, r in zip(into[dom[s]], row) if not 0 <= r < n)
            raise ValidationError("MalformedTable", (s, t, r), "arrow index out of range")

    for s, row in enumerate(rows):
        c = cod[s]
        for t, r in zip(into[dom[s]], row):
            if dom[r] != dom[t] or cod[r] != c:
                raise ValidationError("DomCodMismatch", (s, t))

    slot = [0] * n
    for ts in into:
        for i, t in enumerate(ts):
            slot[t] = i
    generators = _generators(dom, cod, rows, slot, n_objects)
    if not _light_associative(dom, cod, rows, slot, into, generators):
        witness = _least_non_associative(dom, rows, slot, into)
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
        rows=rows,
        arrow_names=tuple(arrow_names),
        object_names=tuple(object_names),
        generators=tuple(generators),
        slot=tuple(slot),
    )


def arrows_by_end(ends: Sequence[int], n_objects: int) -> list[list[int]]:
    """The arrows s with ``ends[s] == u`` at index u, each list increasing:
    pass ``cod`` for the arrows into each object, ``dom`` for those out."""
    by_end: list[list[int]] = [[] for _ in range(n_objects)]
    for s, u in enumerate(ends):
        by_end[u].append(s)
    return by_end


def _generators(dom, cod, rows, slot, n_objects: int) -> list[int]:
    """Arrows, picked greedily in index order, from which every arrow is
    reached by multiplying on the right by picked arrows.

    What is reached lies in the closure of the picks under the table's
    product, so that closure is every arrow; on an associative table the
    two coincide.  Each reached arrow is multiplied once by each pick it
    composes with, so the search is O(n |G|).
    """
    reached = [False] * len(dom)
    members = []
    picks_into = [[] for _ in range(n_objects)]  # slots of the picks, by codomain
    gens = []
    for g in range(len(dom)):
        if reached[g]:
            continue
        gens.append(g)
        i = slot[g]
        picks_into[cod[g]].append(i)
        pending = [g] + [rows[x][i] for x in members if dom[x] == cod[g]]
        while pending:
            x = pending.pop()
            if reached[x]:
                continue
            reached[x] = True
            members.append(x)
            row = rows[x]
            pending += [row[h] for h in picks_into[dom[x]]]
    return gens


def _light_associative(dom, cod, rows, slot, into, generators) -> bool:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, section 1.2), exact on a table that obeys
    the dom/cod law.

    The middles g for which (x g) y = x (g y) holds for all composable x
    and y are closed under the product: for two of them g and h,
    (x (g h)) y = ((x g) h) y = (x g) (h y) = x (g (h y)) = x ((g h) y).
    So checking the middles in a generating set covers every middle, at
    O(sum over g in G of |out(cod g)| |in(dom g)|) <= O(n^2 |G|) instead
    of O(n^3).  ``into`` lists the arrows by codomain.
    """
    out_of = arrows_by_end(dom, len(into))
    for g in generators:
        gy = rows[g]  # g y for the y with g y defined
        if not gy:
            continue
        # dom (x g) = dom g, so row x g is already the (x g) y; the x (g y)
        # are gathered from row x at the slots of the g y, one C-level
        # gather per (x, g); a single y gives a scalar, so wrap it
        where = [slot[p] for p in gy]
        take = itemgetter(*where) if len(where) > 1 else lambda row, i=where[0]: (row[i],)
        i = slot[g]
        for x in out_of[cod[g]]:
            row_x = rows[x]
            if rows[row_x[i]] != take(row_x):
                return False
    return True


def _least_non_associative(dom, rows, slot, into) -> tuple[int, int, int]:
    """The least (r, s, t) with (r s) t != r (s t), on a table that has
    one; only a failing table pays for this cubic scan."""
    for r, row_r in enumerate(rows):
        for s, rs in zip(into[dom[r]], row_r):
            row_rs = rows[rs]
            for t, st in zip(into[dom[s]], rows[s]):
                if row_rs[slot[t]] != row_r[slot[st]]:
                    return (r, s, t)
    raise InternalInconsistencyError("NoAssociativityWitness", ())


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
    t_dom, t_cod, t_rows, t_slot = target.dom, target.cod, target.rows, target.slot
    for s, row in enumerate(source.rows):
        fs = f[s]
        for t, st in zip(into[source.dom[s]], row):
            ft = f[t]
            if t_dom[fs] != t_cod[ft]:
                raise ValidationError("ComposabilityNotPreserved", (s, t))
            if t_rows[fs][t_slot[ft]] != f[st]:
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


def classes_of(labels: Iterable) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(index, classes)`` for ``0..n-1`` grouped by equal label: the
    one class numbering of the library.  Classes are numbered by their
    least member, which is their first appearance, and list their members
    in increasing order; ``classes[index[x]]`` holds x.  One dict pass,
    no sort."""
    number: dict = {}
    index = tuple([number.setdefault(label, len(number)) for label in labels])
    members: list[list[int]] = [[] for _ in number]
    for x, c in enumerate(index):
        members[c].append(x)
    return index, tuple(map(tuple, members))
