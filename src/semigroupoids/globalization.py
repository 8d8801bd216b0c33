"""The universal (ordered) globalization of a partial action.

The carrier of the enveloping global action is the quotient of the pair
set D = {(s, x) : x in the domain of the idempotent s* s} by the
equivalence generated by two rules: transport along a composable pair
(theta of t* s sends x to y), and identification of idempotent tags on a
shared point.  Classes are managed by union-find; the generating rules
only need to be seeded since transitivity comes from the partition.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from .actions import (
    EquivariantMap,
    PartialActionData,
    check_built,
    check_equivariant,
    make_action,
    orbit,
    require_valid,
)
from .core import UnionFind, arrows_by_end, classes_of
from .errors import InternalInconsistencyError, ValidationError, Violation
from .inverse import latest_structure_memo
from .posets import FinitePoset, validate_poset


@dataclass(frozen=True)
class GlobalizationResult:
    """The enveloping global action together with its bookkeeping.

    ``pairs`` lists D lexicographically; ``class_of`` maps a pair index
    to its class (a carrier point of ``envelope``); ``embed`` maps each
    original carrier point into the class set.  The induced order on the
    classes is ``envelope.order``, present iff the input was ordered.
    ``globalize`` hands one result to every caller on the same action
    object, so its dicts (``pair_index``, the envelope's maps) must not
    be mutated.
    """

    action: PartialActionData
    pairs: tuple[tuple[int, int], ...]
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    envelope: PartialActionData
    embed: tuple[int, ...]
    # pairs[i] -> i, the index the builder made
    pair_index: dict[tuple[int, int], int] = field(compare=False, repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@latest_structure_memo
def globalize(a: PartialActionData) -> GlobalizationResult:
    """Construct the universal globalization of a valid partial action.

    A repeat call on the same action object returns the same result,
    which callers must not mutate; an equal but distinct action is
    globalized afresh.  The input gate ``require_valid`` reuses a verdict
    already stored on the action; the construction-time self-checks all
    run.  The envelope's maps, and so its domains, are built by the pair
    rule for the actor's generating set G and derived along generator
    words for every other arrow (``_maps_by_words``): O(|G| P + n C) for
    P pairs, n arrows and C classes.  On a clash or a mismatch the pair
    rule runs over every arrow, O(n P), and raises: the least clash, or
    ``EnvelopeWordsMismatch`` when there is none.

    The transport rule makes one union for a pair (s, x) with x in the
    domain of theta_s, the one with t = s s* (then t* s = s and s* t = s*),
    which joins (s, x) to (s s*, theta_s x).  Only the pairs with x
    outside that domain try every t with cod t = cod s.  So the rule
    makes O(P) unions when every x lies in the domain of theta_s, as on
    a global action, and O(sum over u of n_u P_u) at worst, for n_u
    arrows with codomain u.

    Lemma: the other instances at such a pair join nothing new.  Write
    D_a for the range of theta_a, which maps D_{a*} onto D_a.  Let x lie
    in D_{s*}, and let (s, x) ~ (t, y) be an instance: x in D_{s* t} and
    y = theta_{t* s} x.  (D_{ab} <= D_a does not hold in general, so the
    steps do not use it.)
    (1) P's composition-domain clause at (t*, s) reads
        dom(theta_{t*} theta_s) = D_{s*} & D_{s* t}, which holds x; so
        theta_s x lies in D_t and theta_{t*} theta_s x = theta_{t* s} x
        = y.  Then y lies in D_{t*}, so theta_t y is defined, and
        theta_a theta_b <= theta_{ab} gives theta_t y = theta_{t t* s} x.
    (2) a <= b in the natural order gives theta_a <= theta_b.  For x in
        D_{a*}, monotone domains (a* <= b*) put x in D_{b*}, and domain
        containment, D_{a*} <= D_{a* a}, puts x in D_{a* a}, where the
        idempotent a* a acts as the identity (theta_e theta_e <= theta_e,
        and theta_e is injective).  So theta_b x = theta_b theta_{a* a} x
        = theta_{b a* a} x = theta_a x, by theta_a theta_b <= theta_{ab}.
    (3) t t* s <= s, so theta_t y = theta_s x; call it z.  The pair
        (t, y) has y in D_{t*}, so it is joined to (t t*, z) as (s, x)
        is to (s s*, z), and the idempotent rule joins those two tags on
        the one point z.
    Every instance with an end outside its domain is still made, from
    that end's loop, as the rule is symmetric (theta_{s* t} inverts
    theta_{t* s}).
    """
    require_valid(a)
    actor = a.actor
    sg = actor.base
    inv, rows, slot, cod = actor.inv, sg.rows, sg.slot, sg.cod
    domains, maps = a.domains, a.maps

    # into[u]: the arrows with codomain u, in increasing order; pairs
    # lists D lexicographically, as the map of the idempotent s* s, its
    # own inverse, is keyed by D_{s* s} in increasing order
    into = arrows_by_end(cod, sg.n_objects)
    pairs = [(s, x) for s in actor.arrows() for x in maps[rows[inv[s]][slot[s]]]]
    index = {p: i for i, p in enumerate(pairs)}

    uf = UnionFind(len(pairs))
    # transport rule: (s, x) ~ (t, theta_{t* s}(x)) whenever cod t = cod s
    # and x lies in the domain at s* t; with x in the domain of theta_s
    # the instance t = s s* stands for all of them (see the lemma above)
    for i, (s, x) in enumerate(pairs):
        theta_s = maps[s]
        if x in theta_s:
            uf.union(i, index[(rows[s][slot[inv[s]]], theta_s[x])])
            continue
        for t, s_star_t in zip(into[cod[s]], rows[inv[s]]):
            if x not in domains[s_star_t]:
                continue
            y = maps[rows[inv[t]][slot[s]]][x]
            uf.union(i, index[(t, y)])
    # idempotent rule: (e, x) ~ (f, x) for idempotent tags on one point;
    # x embeds as the pair of its least tag
    embed_pairs = []
    for x in range(a.carrier_size):
        tagged = [e for e in actor.idempotents if x in domains[e]]
        first = index[(tagged[0], x)]
        for e in tagged[1:]:
            uf.union(first, index[(e, x)])
        embed_pairs.append(first)

    class_of, classes = classes_of(uf.reps())

    class_names = tuple(
        "[%s,%s]"
        % (sg.arrow_names[pairs[ms[0]][0]], a.carrier_names[pairs[ms[0]][1]])
        for ms in classes
    )

    # the enveloping maps: theta_s sends the class of (p, x) to the class
    # of (s p, x) whenever dom s = cod p and (s p, x) is a pair
    # pairs_at[u]: (slot of p, x, class) for the pairs (p, x) with cod p = u
    pairs_at: list[list[tuple[int, int, int]]] = [[] for _ in range(sg.n_objects)]
    for (p, x), c in zip(pairs, class_of):
        pairs_at[cod[p]].append((slot[p], x, c))
    maps_env = _maps_by_words(sg, index, class_of, pairs_at)
    if maps_env is None:
        # the pair rule over every arrow decides what went wrong
        _, clashes = _pair_rule(actor.arrows(), sg, index, class_of, pairs_at)
        if clashes:
            raise InternalInconsistencyError("EnvelopeMapNotWellDefined", min(clashes))
        raise InternalInconsistencyError("EnvelopeWordsMismatch", ())

    order = None
    if a.order is not None:
        order = _class_order(a, pairs, index, class_of, classes, class_names)

    envelope = make_action(
        actor,
        class_names,
        maps_env,
        order=order,
        global_flag=True,
    )

    embed = tuple(class_of[i] for i in embed_pairs)
    result = GlobalizationResult(
        action=a,
        pairs=tuple(pairs),
        class_of=class_of,
        classes=classes,
        envelope=envelope,
        embed=embed,
        pair_index=index,
    )

    # construction-time self-checks backed by the globalization theorem
    if len(set(embed)) != a.carrier_size:
        raise InternalInconsistencyError("EmbeddingNotInjective", ())
    check_built(envelope, "EnvelopeNotGlobal")
    v = check_equivariant(
        EquivariantMap(a, envelope, embed), ordered=a.order is not None
    )
    if v is not None:
        raise InternalInconsistencyError("EmbeddingNotEquivariant", (v.code, v.witness))
    if orbit(envelope, set(embed)) != frozenset(range(len(classes))):
        raise InternalInconsistencyError("OrbitNotFull", ())
    return result


def _pair_rule(arrows, sg, index, class_of, pairs_at):
    """theta_s by the pair rule for each s in ``arrows``, keyed by s, and
    every (s, c) at which the members of class c give two classes: a
    pair (p, x) with cod p = dom s meets s once, one dict lookup, so this
    costs O(|arrows| P).  ``pairs_at[u]`` lists (slot of p, x, class of
    (p, x)) for the pairs (p, x) with cod p = u, in pair order."""
    rows, dom = sg.rows, sg.dom
    maps: dict[int, dict[int, int]] = {}
    clashes = []
    for s in arrows:
        row, theta = rows[s], {}
        for at_p, x, c in pairs_at[dom[s]]:
            j = index.get((row[at_p], x))
            if j is not None and theta.setdefault(c, class_of[j]) != class_of[j]:
                clashes.append((s, c))
        maps[s] = theta
    return maps, clashes


def _maps_by_words(sg, index, class_of, pairs_at):
    """The envelope maps from generator words, keyed by arrow, or None on
    a clash or a mismatch.

    The generators' maps come from the pair rule over every member of
    every class, with the clash check: O(|G| P).  Every other arrow is
    t = x h, with h a generator and x reached before it (the words the
    actor's generating set reaches by right multiplication), and gets
    theta_t = theta_x theta_h, as a global action composes exactly:
    O(n C) for C classes.  Each such map is then compared with the pair
    rule at the first member of each class at dom t, also O(n C).

    Why one member suffices, on a valid input.  (1) For t = x h and a
    pair (p, y) with cod p = dom t, (t p)*(t p) = (h p)* x*x (h p) is
    below (h p)*(h p), so monotone domains make (h p, y) a pair whenever
    (t p, y) is one.  (2) By induction along the words, each map sends
    the class of every such (p, y) to the class of (t p, y): a
    generator's by the clash check; theta_h sends it to the class of
    (h p, y) by (1), and theta_x sends that class, through its member
    (h p, y), to the class of (x h p, y) = (t p, y).  (3) So t has no
    clash and maps every class the pair rule maps; the comparison adds
    that a class it maps has its first member at dom t in the pair
    rule's domain.  So theta_t is the pair rule's map.
    """
    rows, slot, dom, cod = sg.rows, sg.slot, sg.dom, sg.cod
    gens = sg.generators
    maps, clashes = _pair_rule(gens, sg, index, class_of, pairs_at)
    if clashes:
        return None
    # words[k] = (t, x, h) with t = x h, in the order they are reached
    gens_into: list[list[int]] = [[] for _ in range(sg.n_objects)]
    for g in gens:
        gens_into[cod[g]].append(g)
    reached, words = set(gens), []
    for x in chain(gens, (t for t, _x, _h in words)):
        row_x = rows[x]
        for h in gens_into[dom[x]]:
            t = row_x[slot[h]]
            if t not in reached:
                reached.add(t)
                words.append((t, x, h))
    if len(reached) != sg.n_arrows:
        return None
    if not words:
        return maps
    # the first member of each class at each object
    firsts: list[dict[int, tuple[int, int]]] = [{} for _ in range(sg.n_objects)]
    for first, at in zip(firsts, pairs_at):
        for at_p, y, c in at:
            first.setdefault(c, (at_p, y))
    for t, x, h in words:
        theta_t = _compose(maps[x], maps[h])
        row_t = rows[t]
        by_rule = {}
        for c, (at_p, y) in firsts[dom[t]].items():
            j = index.get((row_t[at_p], y))
            if j is not None:
                by_rule[c] = class_of[j]
        if theta_t != by_rule:
            return None
        maps[t] = theta_t
    return maps


def _compose(theta_x: dict[int, int], theta_h: dict[int, int]) -> dict[int, int]:
    """theta_x theta_h as a partial map: theta_h first."""
    return {c: theta_x[d] for c, d in theta_h.items() if d in theta_x}


def _class_order(a, pairs, index, class_of, classes, class_names) -> FinitePoset:
    """Order on classes via the canonical-representative criterion:
    c1 <= c2 iff the canonical representative (p, z) of c2 admits some
    z' <= z with (p, z') in the class c1."""
    order = a.order
    n = len(classes)
    relation = []
    for c2 in range(n):
        p, z = pairs[classes[c2][0]]
        for zp in sorted(order.downset(z)):
            i = index.get((p, zp))
            if i is not None:
                relation.append((class_of[i], c2))
    try:
        return validate_poset(relation, n, names=class_names, auto_close=False)
    except ValidationError as exc:
        raise InternalInconsistencyError(
            "InternalInconsistency", exc.witness, f"class order: {exc.code}"
        ) from exc


def check_lemma_tec(r: GlobalizationResult) -> list[Violation]:
    """Exhaustively verify the three facts about the pair equivalence on
    an ordered input, plus agreement of both order computations.

    (i) two pairs with the same arrow are related only when their points
    coincide; (ii) relatedness transports downward along the carrier
    order; (iii) the order holds through one representative iff it holds
    through every representative of the upper class.  The order on
    classes by its defining formula (c1 <= c2 iff some representative
    (p, y') of c2 and some x' <= y' put (p, x') in c1) is what (iii) and
    the comparison with the stored order read.

    For each pair (t, y) the classes of the pairs (t, y') with y' <= y
    are collected once, and the defining order once per upper class.
    Clause (ii) is decided per class of ``class_of``: it holds on a class
    iff every step class of every member lies in the intersection of the
    below-sets of all its members.  So the check costs O(P k + C P) for
    P pairs, C classes and k carrier points.  Only when some class fails
    does clause (ii) pair each pair with every pair of its class, at
    O(sum over classes of |class|^2 k), to list the violations.
    Violations come in clause order; within clause (ii) by pair i, pair
    j, then x' in the iteration order of ``order.downset(x)``.
    """
    if r.action.order is None:
        raise ValidationError("NotOrdered", ())
    order = r.action.order
    pairs, class_of, index = r.pairs, r.class_of, r.pair_index
    out: list[Violation] = []

    same_arrow: dict[int, list[int]] = {}
    for i, (s, x) in enumerate(pairs):
        same_arrow.setdefault(s, []).append(i)
    for s, idxs in same_arrow.items():
        for i in idxs:
            for j in idxs:
                if i < j and class_of[i] == class_of[j]:
                    out.append(
                        Violation(
                            "SameArrowRelatednessFailure",
                            (s, pairs[i][1], pairs[j][1]),
                        )
                    )

    down = [order.downset(y) for y in order.elements()]
    # below[i]: the classes of the pairs (t, y') with y' <= y, for pairs[i] = (t, y)
    below: list[set[int]] = []
    # steps[i]: (x', class of (s, x') or None) for x' <= x, for pairs[i] = (s, x)
    steps: list[list[tuple[int, int | None]]] = []
    for s, x in pairs:
        row = []
        for xp in down[x]:
            j = index.get((s, xp))
            row.append((xp, None if j is None else class_of[j]))
        steps.append(row)
        below.append({c for _xp, c in row if c is not None})

    mates: dict[int, list[int]] = {}
    for i, c in enumerate(class_of):
        mates.setdefault(c, []).append(i)
    # clause (ii) holds on a class iff every step class of every member
    # lies in the classes below every member; only when some class fails
    # are the pairs of each class paired, to list the violations
    common = {c: set.intersection(*(below[j] for j in ms)) for c, ms in mates.items()}
    if not all(c in common[class_of[i]] for i, row in enumerate(steps) for _xp, c in row):
        for i, (s, x) in enumerate(pairs):
            for j in mates[class_of[i]]:
                t, y = pairs[j]
                below_j = below[j]
                for xp, c in steps[i]:
                    if c is None or c not in below_j:
                        out.append(Violation("DownwardTransportFailure", (s, x, t, y, xp)))

    n = r.n_classes
    definition = [set().union(*(below[i] for i in cls)) for cls in r.classes]
    for c1 in range(n):
        for c2 in range(n):
            if c1 not in definition[c2]:
                continue
            # every representative of c2 must admit a witness below it
            for j in r.classes[c2]:
                if c1 not in below[j]:
                    p, z = pairs[j]
                    out.append(
                        Violation("RepresentativeCriterionFailure", (c1, c2, p, z))
                    )

    for c1 in range(n):
        row = r.envelope.order.up[c1]
        for c2 in range(n):
            if (row >> c2 & 1) != (c1 in definition[c2]):
                out.append(Violation("OrderComputationMismatch", (c1, c2)))
    return out


def universal_map(
    r: GlobalizationResult, target: PartialActionData, j: Sequence[int]
) -> EquivariantMap:
    """The unique mediating map from the globalization to another global
    ordered action extending the input through ``j``.

    Every class [s, x] is sent to the target map of s applied to j(x),
    and the value is checked independent of the representative.  The
    composite with the embedding recovers j: x embeds as the class of
    (e, x) for its least idempotent tag e, and theta_e is the identity
    on the domain of e on a valid action, so the equivariance of j gives
    zeta_e(j x) = j x.  The envelope is the orbit of the embedded copy,
    as ``globalize`` checks, and an equivariant map is fixed on that
    orbit by its values on the copy, so the map is unique.
    """
    if target.order is None or not target.global_flag:
        raise ValidationError("NotGlobalOrdered", ())
    require_valid(target)
    jmap = tuple(j)
    violation = check_equivariant(
        EquivariantMap(r.action, target, jmap), ordered=True
    )
    if violation is not None:
        raise ValidationError(violation.code, violation.witness)

    k = []
    for cls in range(r.n_classes):
        values = set()
        for i in r.classes[cls]:
            s, x = r.pairs[i]
            zeta = target.maps[s]
            if jmap[x] not in zeta:
                raise InternalInconsistencyError("WellDefinednessFailure", (s, x))
            values.add(zeta[jmap[x]])
        if len(values) != 1:
            raise InternalInconsistencyError("WellDefinednessFailure", (cls,))
        k.append(values.pop())
    mediating = EquivariantMap(r.envelope, target, tuple(k))
    violation = check_equivariant(mediating, ordered=True)
    if violation is not None:
        raise InternalInconsistencyError(
            "WellDefinednessFailure", (violation.code, violation.witness)
        )
    return mediating
