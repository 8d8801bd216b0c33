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
from itertools import compress
from typing import Iterable

from .core import (
    SemigroupoidMorphism,
    UnionFind,
    validate_morphism,
    validate_semigroupoid,
)
from .errors import InternalInconsistencyError, ValidationError
from .inverse import InverseSemigroupoid, is_groupoid, promote_to_inverse


@dataclass(frozen=True)
class GraphedCongruence:
    """An equivalence on arrows relating only parallel arrows and
    compatible with multiplication, stored by least-index representative."""

    base: InverseSemigroupoid
    rep: tuple[int, ...]

    def related(self, s: int, t: int) -> bool:
        return self.rep[s] == self.rep[t]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        buckets: dict[int, list[int]] = {}
        for s, r in enumerate(self.rep):
            buckets.setdefault(r, []).append(s)
        return tuple(tuple(buckets[r]) for r in sorted(buckets))

    def class_index(self) -> tuple[int, ...]:
        """Arrow -> index of its class in classes() order."""
        reps = sorted(set(self.rep))
        pos = {r: i for i, r in enumerate(reps)}
        return tuple(pos[r] for r in self.rep)

    def pairs(self) -> frozenset[tuple[int, int]]:
        n = len(self.rep)
        return frozenset(
            (s, t) for s in range(n) for t in range(n) if self.rep[s] == self.rep[t]
        )

    @cached_property
    def quotient(self) -> tuple[InverseSemigroupoid, SemigroupoidMorphism]:
        """The quotient inverse semigroupoid and its projection morphism.

        Objects are kept unchanged; classes are indexed by their least
        member, so quotients are deterministic.
        """
        inv_sg = self.base
        sg = inv_sg.base
        classes = self.classes()
        index = self.class_index()
        reps = [cls[0] for cls in classes]

        dom = [sg.dom[r] for r in reps]
        cod = [sg.cod[r] for r in reps]
        triples = []
        for a, ra in enumerate(reps):
            for b, rb in enumerate(reps):
                if sg.dom[ra] != sg.cod[rb]:
                    continue
                triples.append((a, b, index[sg.mul[ra][rb]]))
        names = tuple("[" + sg.arrow_names[r] + "]" for r in reps)
        qsg = validate_semigroupoid(
            dom,
            cod,
            triples,
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
    each with its lexicographically least witness.  Compatibility is
    tested class-wise in O(n^2): every arrow s and the least member r of
    its class must satisfy s u ~ r u and u s ~ u r for each single arrow
    u.  On a graphed partition that is equivalent to s1 s2 ~ t1 t2 for
    all s1 ~ t1 and s2 ~ t2, since s1 s2 ~ t1 s2 ~ t1 t2 and parallel
    arrows have the same composable partners.  Only a failing check pays
    for the witness search.
    """
    sg = cong.base.base
    n = sg.n_arrows
    for s in range(n):
        for t in range(s + 1, n):
            if cong.related(s, t) and not sg.parallel(s, t):
                raise ValidationError("NotGraphed", (s, t))
    rep = cong.rep
    dom, cod, mul = sg.dom, sg.cod, sg.mul
    least: dict[int, int] = {}
    for s in range(n):
        r = least.setdefault(rep[s], s)
        if r == s:
            continue
        for u in range(n):
            if dom[s] == cod[u] and rep[mul[s][u]] != rep[mul[r][u]]:
                raise ValidationError("NotCompatible", _least_incompatible(cong))
            if dom[u] == cod[s] and rep[mul[u][s]] != rep[mul[u][r]]:
                raise ValidationError("NotCompatible", _least_incompatible(cong))
    inv = cong.base.inv
    for s in range(n):
        for t in range(n):
            if cong.related(s, t) and not cong.related(inv[s], inv[t]):
                raise ValidationError("InvolutionNotRespected", (s, t))


def _least_incompatible(cong: GraphedCongruence) -> tuple[int, int, int, int]:
    """The least (s1, t1, s2, t2) with s1 ~ t1, s2 ~ t2, s1 s2 defined and
    s1 s2 not related to t1 t2, on a graphed partition that has one.
    Only t1 and t2 run over class members, not over all arrows."""
    sg = cong.base.base
    rep, mul = cong.rep, sg.mul
    members: dict[int, list[int]] = {}
    for s in sg.arrows():
        members.setdefault(rep[s], []).append(s)
    for s1 in sg.arrows():
        for t1 in members[rep[s1]]:
            for s2 in sg.arrows():
                if not sg.composable(s1, s2):
                    continue
                target = rep[mul[s1][s2]]
                for t2 in members[rep[s2]]:
                    if rep[mul[t1][t2]] != target:
                        return (s1, t1, s2, t2)
    raise InternalInconsistencyError("NoIncompatibleWitness", ())


def congruence_closure(
    inv_sg: InverseSemigroupoid, seed: Iterable[tuple[int, int]]
) -> GraphedCongruence:
    """Smallest congruence containing the seed pairs.

    A worklist over union-find: every union that merges two classes is
    queued, and popping (s, t) unites s u with t u and u s with u t for
    each composable arrow u.  At most n - 1 merges at O(n) each make the
    closure O(n^2) before the final validate_congruence.
    """
    sg = inv_sg.base
    n = sg.n_arrows
    dom, cod, mul = sg.dom, sg.cod, sg.mul
    uf = UnionFind(n)
    pending = []
    for s, t in seed:
        if not sg.parallel(s, t):
            raise ValidationError("NonParallelSeed", (s, t))
        if uf.union(s, t):
            pending.append((s, t))
    while pending:
        s, t = pending.pop()
        for u in range(n):
            if dom[s] == cod[u] and uf.union(mul[s][u], mul[t][u]):
                pending.append((mul[s][u], mul[t][u]))
            if dom[u] == cod[s] and uf.union(mul[u][s], mul[u][t]):
                pending.append((mul[u][s], mul[u][t]))

    cong = GraphedCongruence(base=inv_sg, rep=uf.reps())
    validate_congruence(cong)
    return cong


def sigma(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """The minimal groupoid congruence, by least idempotents: s ~ t iff
    s z = t z, where z is the least idempotent at dom s.

    The idempotents at an object commute, so their product z lies below
    all of them.  If s e = t e for an idempotent e then
    s z = s e z = t e z = t z.  The arrow s z has the domain and
    codomain of s, so it alone names the class of s: one pass over the
    arrows, O(n), before the congruence and groupoid self-checks.
    """
    sg = inv_sg.base
    dom, mul = sg.dom, sg.mul
    least: dict[int, int] = {}
    for e in inv_sg.idempotents:
        u = dom[e]
        least[u] = mul[least[u]][e] if u in least else e
    first: dict[int, int] = {}
    rep = tuple(first.setdefault(mul[s][least[dom[s]]], s) for s in sg.arrows())

    cong = GraphedCongruence(base=inv_sg, rep=rep)
    validate_congruence(cong)
    if not is_groupoid(quotient(inv_sg, cong)[0]):
        raise InternalInconsistencyError("SigmaQuotientNotGroupoid", ())
    return cong


def sigma_by_lower_bounds(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """Sigma by its definition: s ~ t iff s and t are parallel and some
    arrow lies below both.

    It reads only the order's row bitmasks and the arrows' ends: the OR
    of the up-sets of the r <= s, ANDed with the hom-set of s, is the set
    related to s, in O(|<=|) big-int ORs.  That relation must already be
    an equivalence: each arrow's related set must be exactly its class.
    """
    sg = inv_sg.base
    n = sg.n_arrows
    leq, up = inv_sg.order.leq, inv_sg.order.up
    ends = list(zip(sg.dom, sg.cod))
    hom: dict[tuple[int, int], int] = {}
    for s, key in enumerate(ends):
        hom[key] = hom.get(key, 0) | 1 << s
    related = [0] * n
    for r in range(n):
        for s in compress(range(n), leq[r]):
            related[s] |= up[r]
    rep = []
    members = [0] * n
    for s in range(n):
        related[s] &= hom[ends[s]]
        # s <= s, so related[s] holds s and its least bit is at most s
        rep.append((related[s] & -related[s]).bit_length() - 1)
        members[rep[s]] |= 1 << s
    # the scanned relation is an equivalence outright; the partition is
    # not allowed to silently close it
    if any(related[s] != members[r] for s, r in enumerate(rep)):
        raise InternalInconsistencyError("SigmaNotEquivalence", ())
    cong = GraphedCongruence(base=inv_sg, rep=tuple(rep))
    validate_congruence(cong)
    return cong


def sigma_by_equations(inv_sg: InverseSemigroupoid) -> GraphedCongruence:
    """Sigma via the equational forms: s e = t e for some idempotent e,
    and independently f s = f t for some idempotent f.  Both must agree."""
    sg = inv_sg.base
    n = sg.n_arrows
    idems = inv_sg.idempotents

    right = set()
    left = set()
    for s in range(n):
        for t in range(n):
            if not sg.parallel(s, t):
                continue
            for e in idems:
                if sg.composable(s, e) and sg.mul[s][e] == sg.mul[t][e]:
                    right.add((s, t))
                    break
            for f in idems:
                if sg.composable(f, s) and sg.mul[f][s] == sg.mul[f][t]:
                    left.add((s, t))
                    break
    if right != left:
        raise InternalInconsistencyError(
            "SigmaEquationMismatch", tuple(sorted(right ^ left))[:1]
        )

    uf = UnionFind(n)
    for s, t in right:
        uf.union(s, t)
    cong = GraphedCongruence(base=inv_sg, rep=uf.reps())
    # the raw relation must already have been an equivalence
    if cong.pairs() != frozenset(right):
        raise InternalInconsistencyError("SigmaEquationNotEquivalence", ())
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
    being constant on sigma classes, which is checked exhaustively.
    """
    if not is_groupoid(target):
        raise ValidationError("TargetNotGroupoid", ())
    cong = sigma(inv_sg)
    q, proj = cong.quotient
    classes = cong.classes()
    mediating = []
    for cls in classes:
        images = {phi.arrow_map[s] for s in cls}
        if len(images) != 1:
            raise InternalInconsistencyError("NotConstantOnClasses", tuple(cls))
        mediating.append(images.pop())
    tilde = validate_morphism(q.base, target.base, mediating)
    for s in inv_sg.arrows():
        if tilde.arrow_map[proj.arrow_map[s]] != phi.arrow_map[s]:
            raise InternalInconsistencyError("FactorizationFailure", (s,))
    return tilde


def is_idempotent_pure(cong: GraphedCongruence) -> bool:
    """Definition check, cross-validated against both equivalent forms."""
    inv_sg = cong.base
    sg = inv_sg.base
    idems = set(inv_sg.idempotents)
    n = sg.n_arrows

    by_definition = all(
        s in idems
        for s in range(n)
        for e in idems
        if cong.related(s, e)
    )

    q, proj = cong.quotient
    q_idems = set(q.idempotents)
    by_projection = all(
        s in idems for s in range(n) if proj.arrow_map[s] in q_idems
    )

    by_equation = all(
        sg.mul[inv_sg.inv[s]][t] in idems
        for s in range(n)
        for t in range(n)
        if cong.related(s, t)
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


def is_e_unitary(inv_sg: InverseSemigroupoid) -> EUnitarityCertificate:
    """Evaluate all five equivalent E-unitarity conditions independently."""
    sg = inv_sg.base
    inv = inv_sg.inv
    idems = set(inv_sg.idempotents)
    order = inv_sg.order
    n = sg.n_arrows
    sig = sigma(inv_sg)

    # (1) sigma relates no non-idempotent to an idempotent
    cond1 = all(
        s in idems for s in range(n) for e in idems if sig.related(s, e)
    )

    # (2) the projection onto the quotient groupoid is idempotent pure
    q, proj = sig.quotient
    q_idems = set(q.idempotents)
    cond2 = all(s in idems for s in range(n) if proj.arrow_map[s] in q_idems)

    # (3) sigma-related pairs have idempotent s* t and s t*
    def _pair_idem(s: int, t: int) -> bool:
        return (
            sg.mul[inv[s]][t] in idems and sg.mul[s][inv[t]] in idems
        )

    cond3 = all(
        _pair_idem(s, t)
        for s in range(n)
        for t in range(n)
        if sig.related(s, t)
    )

    # (4) the same, as an exact characterization of sigma on parallel pairs
    cond4 = all(
        sig.related(s, t) == _pair_idem(s, t)
        for s in range(n)
        for t in range(n)
        if sg.parallel(s, t)
    )

    # (5) an idempotent below s forces s idempotent
    cond5 = True
    witness = None
    for e in sorted(idems):
        for s in range(n):
            if s not in idems and order.leq[e][s]:
                cond5 = False
                if witness is None:
                    witness = (e, s)
                break
        if witness is not None:
            break

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
    for s in inv_sg.arrows():
        for t in inv_sg.arrows():
            if not sig.related(s, t):
                continue
            lhs = sg.mul[s][sg.mul[inv[t]][t]]
            rhs = sg.mul[t][sg.mul[inv[s]][s]]
            if lhs != rhs:
                return False
    return True
