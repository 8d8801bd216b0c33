"""Graphed congruences, quotients, the minimal groupoid congruence sigma,
idempotent-pure tests, and E-unitarity.

Sigma is computed from the least idempotent at each object, and
independently by its definition (a common lower bound) and by two
equational forms; redundancy is the test strategy throughout, so the
different routes never share their core loops.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .core import (
    SemigroupoidMorphism,
    UnionFind,
    arrows_by_end,
    classes_of,
    validate_morphism,
    validate_semigroupoid,
)
from .errors import InternalInconsistencyError, ValidationError
from .inverse import (
    InverseSemigroupoid,
    is_groupoid,
    latest_structure_memo,
    promote_to_inverse,
)


@dataclass(frozen=True)
class GraphedCongruence:
    """An equivalence on arrows relating only parallel arrows and
    compatible with multiplication, stored by least-index representative;
    its classes are numbered once, by :func:`~semigroupoids.core.classes_of`."""

    base: InverseSemigroupoid
    rep: tuple[int, ...]

    def related(self, s: int, t: int) -> bool:
        return self.rep[s] == self.rep[t]

    @cached_property
    def _numbering(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return classes_of(self.rep)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes, each increasing, listed by least member."""
        return self._numbering[1]

    def class_index(self) -> tuple[int, ...]:
        """Arrow -> index of its class in classes() order."""
        return self._numbering[0]

    @cached_property
    def quotient(self) -> tuple[InverseSemigroupoid, SemigroupoidMorphism]:
        """The quotient inverse semigroupoid and its projection morphism.

        Objects are kept unchanged; classes are indexed by their least
        member, so quotients are deterministic.
        """
        inv_sg = self.base
        sg = inv_sg.base
        index, classes = self._numbering
        reps = [cls[0] for cls in classes]

        dom = [sg.dom[r] for r in reps]
        cod = [sg.cod[r] for r in reps]
        into = arrows_by_end(cod, sg.n_objects)
        rows, slot = sg.rows, sg.slot
        # class a times class b is the class of ra rb, row by row
        rep_slot = [slot[r] for r in reps]
        qrows = [
            tuple([index[row[rep_slot[b]]] for b in into[dom[a]]])
            for a, row in enumerate(map(rows.__getitem__, reps))
        ]
        names = tuple("[" + sg.arrow_names[r] + "]" for r in reps)
        qsg = validate_semigroupoid(
            dom,
            cod,
            rows=qrows,
            n_objects=sg.n_objects,
            arrow_names=names,
            object_names=sg.object_names,
        )
        q = promote_to_inverse(qsg)
        for s in sg.arrows():
            if q.inv[index[s]] != index[inv_sg.inv[s]]:
                raise InternalInconsistencyError("QuotientInvolutionMismatch", (s,))
        proj = validate_morphism(sg, qsg, index)
        return q, proj


def validate_congruence(cong: GraphedCongruence) -> None:
    """Raise unless the partition is a graphed congruence respecting
    the involution.

    Checks run in order NotGraphed, NotCompatible, InvolutionNotRespected,
    each with its least witness, testing each arrow t only against the
    least member r(t) of its class.  NotGraphed in O(n): a class with two
    non-parallel members has one not parallel to its least member, and no
    pair in it starts below r, so the least witness is the least such
    (r(t), t); so too InvolutionNotRespected, with inv t not ~ inv r(t).
    NotCompatible in O(n |G|): t g ~ r(t) g and g t ~ g r(t) for the
    generators g.  An arrow is g or u' g for a shorter such product u'; for
    parallel x ~ y, x u' ~ y u' by induction, so (x u') g ~ r g ~ (y u') g
    for their class's least member r; and g x ~ g y gives u' (g x) ~
    u' (g y) by induction on u'.  Then s1 s2 ~ t1 s2 ~ t1 t2.
    Only a failing check pays for the witness search.
    """
    sg = cong.base.base
    rep, inv, dom, cod, rows, slot = cong.rep, cong.base.inv, sg.dom, sg.cod, sg.rows, sg.slot
    first: dict[int, int] = {}
    least = [first.setdefault(r, t) for t, r in enumerate(rep)]
    moved = [(t, r) for t, r in enumerate(least) if t != r]
    witness = min(((r, t) for t, r in moved if not sg.parallel(t, r)), default=None)
    if witness:
        raise ValidationError("NotGraphed", witness)
    for g in sg.generators:
        i, row_g = slot[g], rows[g]
        for t, r in moved:
            if dom[t] == cod[g] and rep[rows[t][i]] != rep[rows[r][i]] or (
                dom[g] == cod[t] and rep[row_g[slot[t]]] != rep[row_g[slot[r]]]
            ):
                raise ValidationError("NotCompatible", _least_incompatible(cong))
    witness = min(((r, t) for t, r in moved if rep[inv[t]] != rep[inv[r]]), default=None)
    if witness:
        raise ValidationError("InvolutionNotRespected", witness)


def _least_incompatible(cong: GraphedCongruence) -> tuple[int, int, int, int]:
    """The least (s1, t1, s2, t2) with s1 ~ t1, s2 ~ t2, s1 s2 defined and
    s1 s2 not related to t1 t2, on a graphed partition that has one.
    Only t1 and t2 run over class members, not over all arrows."""
    sg = cong.base.base
    rep, rows, slot = cong.rep, sg.rows, sg.slot
    into = arrows_by_end(sg.cod, sg.n_objects)
    index, classes = classes_of(rep)
    for s1 in sg.arrows():
        for t1 in classes[index[s1]]:
            for s2, s1s2 in zip(into[sg.dom[s1]], rows[s1]):
                for t2 in classes[index[s2]]:
                    if rep[rows[t1][slot[t2]]] != rep[s1s2]:
                        return (s1, t1, s2, t2)
    raise InternalInconsistencyError("NoIncompatibleWitness", ())


def congruence_closure(
    inv_sg: InverseSemigroupoid, seed: Iterable[tuple[int, int]]
) -> GraphedCongruence:
    """Smallest congruence containing the seed pairs.

    A worklist over union-find: every union that merges two classes is
    queued, and popping (s, t) unites s g with t g and g s with g t for
    each g in the stored generating set G, O(|G|) per merge; at most n - 1
    merges precede validate_congruence.  That closes under every product,
    by the generator lemma in validate_congruence: an arrow u is g or u' g
    for a shorter such product u', so s u = (s u') g ~ (t u') g = t u by
    induction and associativity, and u s = u' (g s) ~ u' (g t) = u t.  The
    closure is unique, so its least-member representatives are too.
    """
    sg = inv_sg.base
    dom, cod, rows, slot = sg.dom, sg.cod, sg.rows, sg.slot
    uf = UnionFind(sg.n_arrows)
    pending = []
    for s, t in seed:
        if not sg.parallel(s, t):
            raise ValidationError("NonParallelSeed", (s, t))
        if uf.union(s, t):
            pending.append((s, t))
    while pending:
        s, t = pending.pop()
        for g in sg.generators:
            if dom[s] == cod[g] and uf.union(rows[s][slot[g]], rows[t][slot[g]]):
                pending.append((rows[s][slot[g]], rows[t][slot[g]]))
            if dom[g] == cod[s] and uf.union(rows[g][slot[s]], rows[g][slot[t]]):
                pending.append((rows[g][slot[s]], rows[g][slot[t]]))

    cong = GraphedCongruence(base=inv_sg, rep=uf.reps())
    validate_congruence(cong)
    return cong


@latest_structure_memo
def sigma(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """The minimal groupoid congruence, by least idempotents: s ~ t iff
    s z = t z, where z is the least idempotent at dom s.  A repeat call
    on the same structure object returns the same congruence, and so
    the same quotient.

    The idempotents at an object commute, so their product z lies below
    all of them.  If s e = t e for an idempotent e then
    s z = s e z = t e z = t z.  The arrow s z has the domain and
    codomain of s, so it alone names the class of s: one pass over the
    arrows, O(n), before the congruence and groupoid self-checks.
    """
    sg = inv_sg.base
    dom, rows, slot = sg.dom, sg.rows, sg.slot
    least: dict[int, int] = {}
    for e in inv_sg.idempotents:
        u = dom[e]
        least[u] = rows[least[u]][slot[e]] if u in least else e
    first: dict[int, int] = {}
    rep = tuple(first.setdefault(rows[s][slot[least[dom[s]]]], s) for s in sg.arrows())

    cong = GraphedCongruence(base=inv_sg, rep=rep)
    validate_congruence(cong)
    if not is_groupoid(quotient(inv_sg, cong)[0]):
        raise InternalInconsistencyError("SigmaQuotientNotGroupoid", ())
    return cong


def _partition(rows: list[int], code: str) -> tuple[int, ...]:
    """The least member of each arrow's class, for the relation whose row
    s is the bitmask of the arrows related to s.  The relation must already
    be an equivalence, so every row must equal the class its least bit
    induces: the partition may not silently close it (``code`` otherwise)."""
    rep = [(row & -row).bit_length() - 1 for row in rows]
    members = [0] * len(rows)
    for s, r in enumerate(rep):
        members[r] |= 1 << s
    if any(row != members[r] for row, r in zip(rows, rep)):
        raise InternalInconsistencyError(code, ())
    return tuple(rep)


def sigma_by_lower_bounds(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """Sigma by its definition: s ~ t iff s and t are parallel and some
    arrow lies below both.

    It reads only the order's row bitmasks and the arrows' ends: the OR
    of the up-sets of the r <= s, ANDed with the hom-set of s, is the set
    related to s, in O(|<=|) big-int ORs, and must already be an equivalence.
    """
    sg = inv_sg.base
    n = sg.n_arrows
    order = inv_sg.order
    ends = list(zip(sg.dom, sg.cod))
    hom: dict[tuple[int, int], int] = {}
    for s, key in enumerate(ends):
        hom[key] = hom.get(key, 0) | 1 << s
    related = [0] * n
    for r, up_r in enumerate(order.up):
        for s in order.above(r):
            related[s] |= up_r
    rows = [row & hom[key] for row, key in zip(related, ends)]
    cong = GraphedCongruence(base=inv_sg, rep=_partition(rows, "SigmaNotEquivalence"))
    validate_congruence(cong)
    return cong


def sigma_by_equations(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """Sigma via the equational forms: s e = t e for some idempotent e,
    and independently f s = f t for some idempotent f.  Both must agree.

    It reads only the products, the ends and the idempotent list.  For
    each listed e, the arrows s with s e defined are bucketed by s e, and
    each bucket (parallel arrows, related) is ORed into its members' rows;
    the left rows bucket by f s.  That is O(n |E|) big-int ORs.
    """
    sg = inv_sg.base
    n, rows, slot = sg.n_arrows, sg.rows, sg.slot
    out_of = arrows_by_end(sg.dom, sg.n_objects)
    into = arrows_by_end(sg.cod, sg.n_objects)
    right, left = [0] * n, [0] * n
    for e in inv_sg.idempotents:
        for related, keyed in (
            (right, [(rows[s][slot[e]], s) for s in out_of[sg.cod[e]]]),
            (left, list(zip(rows[e], into[sg.dom[e]]))),
        ):
            buckets: dict[int, int] = {}
            for value, s in keyed:
                buckets[value] = buckets.get(value, 0) | 1 << s
            for value, s in keyed:
                related[s] |= buckets[value]
    for s, diff in enumerate(a ^ b for a, b in zip(right, left)):
        if diff:
            t = (diff & -diff).bit_length() - 1
            raise InternalInconsistencyError("SigmaEquationMismatch", ((s, t),))
    cong = GraphedCongruence(base=inv_sg, rep=_partition(right, "SigmaEquationNotEquivalence"))
    validate_congruence(cong)
    return cong


def quotient(
    inv_sg: InverseSemigroupoid, cong: GraphedCongruence
) -> tuple[InverseSemigroupoid, SemigroupoidMorphism]:
    """The quotient inverse semigroupoid and its projection morphism,
    built once per congruence and kept on it; ``inv_sg`` must be the
    congruence's structure (CongruenceBaseMismatch otherwise)."""
    if inv_sg is not cong.base and inv_sg != cong.base:
        raise ValidationError("CongruenceBaseMismatch", ())
    return cong.quotient


def universal_groupoid_property(
    inv_sg: InverseSemigroupoid,
    phi: SemigroupoidMorphism,
    target: InverseSemigroupoid,
) -> SemigroupoidMorphism:
    """Factor a morphism into a groupoid through the sigma quotient.

    Returns the unique mediating morphism; uniqueness amounts to phi
    being constant on sigma classes, which is checked exhaustively.  The
    mediating map sends the i-th class to the one image of its members,
    and the projection sends each arrow to the index of its class in
    that same order, so it factors phi by construction.
    """
    if not is_groupoid(target):
        raise ValidationError("TargetNotGroupoid", ())
    cong = sigma(inv_sg)
    q, _proj = cong.quotient
    mediating = []
    for cls in cong.classes():
        images = {phi.arrow_map[s] for s in cls}
        if len(images) != 1:
            raise InternalInconsistencyError("NotConstantOnClasses", tuple(cls))
        mediating.append(images.pop())
    return validate_morphism(q.base, target.base, mediating)


def _idempotent_pure_forms(cong: GraphedCongruence, idems: set[int]) -> tuple[bool, bool]:
    """Idempotent purity of ``cong`` by its definition (every member of
    a class that holds an idempotent is idempotent) and through its
    projection (only idempotents map to idempotents of the quotient),
    given the caller's idempotent set."""
    by_definition = all(
        idems.issuperset(cls) for cls in cong.classes() if not idems.isdisjoint(cls)
    )
    q, proj = cong.quotient
    q_idems = set(q.idempotents)
    by_projection = all(
        s in idems for s, c in enumerate(proj.arrow_map) if c in q_idems
    )
    return by_definition, by_projection


def is_idempotent_pure(cong: GraphedCongruence) -> bool:
    """Definition check, cross-validated against both equivalent forms."""
    inv_sg = cong.base
    sg = inv_sg.base
    idems = set(inv_sg.idempotents)
    classes = cong.classes()
    by_definition, by_projection = _idempotent_pure_forms(cong, idems)
    by_equation = all(
        sg.product(inv_sg.inv[s], t) in idems for cls in classes for s in cls for t in cls
    )

    if not (by_definition == by_projection == by_equation):
        raise InternalInconsistencyError(
            "IdempotentPureMismatch",
            (),
            f"def={by_definition} proj={by_projection} eq={by_equation}",
        )
    return by_definition


@dataclass(frozen=True)
class EUnitarityCertificate:
    """Verdict of the five equivalent E-unitarity conditions.

    ``conditions`` holds the five independent evaluations (they must
    agree); ``witness`` is the least (e, s) with e idempotent, e <= s
    and s not idempotent when the verdict is negative; ``sigma`` is the
    congruence the conditions were evaluated on.
    """

    verdict: bool
    conditions: tuple[bool, bool, bool, bool, bool]
    witness: tuple[int, int] | None
    sigma: GraphedCongruence = field(repr=False)

    def __bool__(self) -> bool:
        return self.verdict


@latest_structure_memo
def is_e_unitary(inv_sg: InverseSemigroupoid) -> EUnitarityCertificate:
    """Evaluate all five equivalent E-unitarity conditions independently,
    on the structure's sigma.  A repeat call on the same structure object
    returns the same certificate."""
    return _certify(sigma(inv_sg))


def _certify(sig: GraphedCongruence) -> EUnitarityCertificate:
    """The five conditions, evaluated on ``sig`` as the sigma of its base.

    Conditions (1) and (2) are idempotent purity of sigma by its
    definition and through its projection, from the helper that
    ``is_idempotent_pure`` also reads.
    """
    inv_sg = sig.base
    sg = inv_sg.base
    inv = inv_sg.inv
    idems = set(inv_sg.idempotents)
    up = inv_sg.order.up
    n = sg.n_arrows

    # (1) sigma relates no non-idempotent to an idempotent, and (2) the
    # projection onto the quotient groupoid is idempotent pure
    cond1, cond2 = _idempotent_pure_forms(sig, idems)

    # (3) sigma-related pairs have idempotent s* t and s t*
    rows, slot = sg.rows, sg.slot

    def _pair_idem(s: int, t: int) -> bool:
        return rows[inv[s]][slot[t]] in idems and rows[s][slot[inv[t]]] in idems

    cond3 = all(_pair_idem(s, t) for cls in sig.classes() for s in cls for t in cls)

    # (4) the same, as an exact characterization of sigma on parallel pairs
    homs: dict[tuple[int, int], list[int]] = {}
    for s in range(n):
        homs.setdefault((sg.dom[s], sg.cod[s]), []).append(s)
    cond4 = all(
        sig.related(s, t) == _pair_idem(s, t)
        for hom in homs.values()
        for s in hom
        for t in hom
    )

    # (5) an idempotent below s forces s idempotent; the witness is the
    # least e with a non-idempotent above it, and the least such s
    idem_mask = sum(1 << e for e in idems)
    witness = None
    for e in sorted(idems):
        above = up[e] & ~idem_mask
        if above:
            witness = (e, (above & -above).bit_length() - 1)
            break
    cond5 = witness is None

    conditions = (cond1, cond2, cond3, cond4, cond5)
    if len(set(conditions)) != 1:
        raise InternalInconsistencyError("InternalInconsistency", conditions)
    return EUnitarityCertificate(
        verdict=conditions[0], conditions=conditions, witness=witness, sigma=sig
    )


def check_lemma_sts(cert: EUnitarityCertificate) -> bool:
    """For E-unitary input, given by its certificate: every
    sigma-congruent parallel pair (s, t) satisfies s t* t = t s* s."""
    if not cert.verdict:
        raise ValidationError("NotEUnitary", ())
    sig = cert.sigma
    inv_sg = sig.base
    sg = inv_sg.base
    inv = inv_sg.inv
    for cls in sig.classes():
        for s in cls:
            for t in cls:
                lhs = sg.product(s, sg.product(inv[t], t))
                rhs = sg.product(t, sg.product(inv[s], s))
                if lhs != rhs:
                    return False
    return True
