"""Partial and global actions of an inverse semigroupoid on a finite set
or poset: both axiomatizations, equivariant maps, restriction, orbits.

The two validators check genuinely different axiom lists (the bijection/
containment/monotone-domain route versus the identity-on-idempotents/
composition-domain route).  Their verdicts agreeing on every input is a
theorem, exercised by the acceptance suite, so their core loops are kept
independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError, Violation
from .inverse import InverseSemigroupoid
from .posets import FinitePoset, check_order_iso, is_order_ideal


@dataclass(frozen=True)
class PartialActionData:
    """Per-arrow subsets of a carrier with bijections between them.

    ``domains[s]`` is the range of the map attached to arrow ``s``; the
    map itself goes from ``domains[inv(s)]`` to ``domains[s]`` and is
    stored as a sorted pair tuple in ``map_pairs[s]``.  The carrier may
    carry a poset; ``global_flag`` records the claim that composition is
    exact rather than merely contained.
    """

    actor: InverseSemigroupoid
    carrier_names: tuple[str, ...]
    domains: tuple[frozenset[int], ...]
    map_pairs: tuple[tuple[tuple[int, int], ...], ...]
    order: FinitePoset | None = None
    global_flag: bool = False

    @property
    def carrier_size(self) -> int:
        return len(self.carrier_names)

    def carrier(self) -> range:
        return range(self.carrier_size)

    @cached_property
    def maps(self) -> tuple[dict[int, int], ...]:
        return tuple(dict(pairs) for pairs in self.map_pairs)


def make_action(
    actor: InverseSemigroupoid,
    carrier_names: Sequence[str],
    domains: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    maps: Mapping[int, Mapping[int, int]] | Sequence[Mapping[int, int]],
    order: FinitePoset | None = None,
    global_flag: bool = False,
) -> PartialActionData:
    """Normalize raw family data into a PartialActionData.

    Only shape is enforced here (indices in range, map keys matching the
    declared domain of each map); the axioms are the validators' job.
    """
    k = len(carrier_names)
    doms = []
    for s in actor.arrows():
        sub = frozenset(domains[s])
        if any(not (0 <= x < k) for x in sub):
            raise ValidationError("MalformedAction", (s,), "domain point out of range")
        doms.append(sub)
    pair_rows = []
    for s in actor.arrows():
        m = dict(maps[s])
        if set(m.keys()) != set(doms[actor.inv[s]]):
            raise ValidationError(
                "MalformedAction", (s,), "map keys differ from declared domain"
            )
        if any(not (0 <= y < k) for y in m.values()):
            raise ValidationError("MalformedAction", (s,), "map value out of range")
        pair_rows.append(tuple(sorted(m.items())))
    if order is not None and order.size != k:
        raise ValidationError("MalformedAction", (), "order size differs from carrier")
    return PartialActionData(
        actor=actor,
        carrier_names=tuple(carrier_names),
        domains=tuple(doms),
        map_pairs=tuple(pair_rows),
        order=order,
        global_flag=global_flag,
    )


def validate_partial_action_E(a: PartialActionData) -> Violation | None:
    """Bijection/containment/monotone-domain axioms, plus the order and
    exact-composition clauses when the carrier is ordered or the action
    claims to be global.  Returns the first violation or None."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")

    # bijectivity with compatible inverses
    for s in actor.arrows():
        theta = a.maps[s]
        values = list(theta.values())
        if set(theta.keys()) != a.domains[actor.inv[s]]:
            return Violation("NotBijective", (s,))
        if len(set(values)) != len(values) or set(values) != a.domains[s]:
            return Violation("NotBijective", (s,))
    for s in actor.arrows():
        theta = a.maps[s]
        back = a.maps[actor.inv[s]]
        if any(back.get(y) != x for x, y in theta.items()):
            return Violation("InverseMismatch", (s,))

    # the carrier is the union of the ranges
    covered = set()
    for sub in a.domains:
        covered |= sub
    if covered != set(a.carrier()):
        return Violation("NotCovering", ())

    # composition containment on composable pairs
    for s in actor.arrows():
        for t in actor.arrows():
            if not sg.composable(s, t):
                continue
            st = sg.mul[s][t]
            theta_s, theta_t, theta_st = a.maps[s], a.maps[t], a.maps[st]
            for x, y in a.maps[t].items():
                if y not in theta_s:
                    continue
                if x not in theta_st or theta_st[x] != theta_s[y]:
                    return Violation("CompositionNotContained", (s, t, x))

    # domains grow along the natural order of the actor
    for s in actor.arrows():
        for t in actor.arrows():
            if s != t and actor.leq(s, t) and not a.domains[s] <= a.domains[t]:
                return Violation("MonotoneDomainFailure", (s, t))

    if a.order is not None:
        v = _ordered_clauses(a)
        if v is not None:
            return v

    if a.global_flag:
        for s in actor.arrows():
            for t in actor.arrows():
                if not sg.composable(s, t):
                    continue
                st = sg.mul[s][t]
                theta_s, theta_t = a.maps[s], a.maps[t]
                composite = {
                    x: theta_s[y] for x, y in theta_t.items() if y in theta_s
                }
                if composite != a.maps[st]:
                    return Violation("GlobalEqualityFailure", (s, t))
    return None


def validate_partial_action_P(a: PartialActionData) -> Violation | None:
    """Identity-on-idempotents/domain-containment/composition-domain
    axioms; the independent route to the same class of valid actions."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")

    # shape contract of the data type, as in the other route
    for s in actor.arrows():
        if set(a.maps[s].keys()) != a.domains[actor.inv[s]]:
            return Violation("MalformedDomain", (s,))

    # idempotents act as the identity on their domain
    for e in actor.idempotents:
        theta = a.maps[e]
        if any(theta[x] != x for x in theta):
            return Violation("NotIdentityOnIdempotent", (e,))

    # every carrier point lies in some idempotent domain
    for x in a.carrier():
        if not any(x in a.domains[e] for e in actor.idempotents):
            return Violation("IdempotentCoverageFailure", (x,))

    # each domain is contained in the one of its range idempotent
    for s in actor.arrows():
        e = sg.mul[s][actor.inv[s]]
        if not a.domains[s] <= a.domains[e]:
            return Violation("DomainContainmentFailure", (s,))

    # composition domains match exactly and values glue
    for s in actor.arrows():
        for t in actor.arrows():
            if not sg.composable(s, t):
                continue
            st = sg.mul[s][t]
            theta_t = a.maps[t]
            preimage = {
                x
                for x, y in theta_t.items()
                if y in a.domains[t] and y in a.domains[actor.inv[s]]
            }
            expected = a.domains[actor.inv[st]] & a.domains[actor.inv[t]]
            if preimage != expected:
                return Violation("CompositionDomainMismatch", (s, t))
            theta_s, theta_st = a.maps[s], a.maps[st]
            for x in sorted(expected):
                tx = theta_t[x]
                if x not in theta_st or tx not in theta_s or theta_st[x] != theta_s[tx]:
                    return Violation("CompositionValueMismatch", (s, t, x))

    if a.order is not None:
        v = _ordered_clauses(a)
        if v is not None:
            return v

    if a.global_flag:
        for s in actor.arrows():
            e = sg.mul[s][actor.inv[s]]
            if a.domains[s] != a.domains[e]:
                return Violation("GlobalEqualityFailure", (s,))
    return None


def _ordered_clauses(a: PartialActionData) -> Violation | None:
    """Domains are order ideals and maps are order isomorphisms."""
    order = a.order
    assert order is not None
    for s in a.actor.arrows():
        if not is_order_ideal(order, a.domains[s]):
            return Violation("NotIdeal", (s,))
    for s in a.actor.arrows():
        src = sorted(a.domains[a.actor.inv[s]])
        theta = a.maps[s]
        dst = [theta[x] for x in src]
        sub_src = order.restrict(src)
        sub_dst = order.restrict(dst)
        if not check_order_iso(list(range(len(src))), sub_src, sub_dst):
            return Violation("NotOrderIso", (s,))
    return None


def orbit(a: PartialActionData, subset: Iterable[int]) -> frozenset[int]:
    """Union over arrows s of theta_s(Y intersected with the map domain)."""
    y = set(subset)
    out: set[int] = set()
    for s in a.actor.arrows():
        theta = a.maps[s]
        out |= {theta[x] for x in y if x in theta}
    return frozenset(out)


def restrict_global(a: PartialActionData, subset: Iterable[int]) -> PartialActionData:
    """Restrict a global ordered action to an order ideal of the carrier.

    The restricted domains are Y_s = Y & theta_s(Y & X_{s*}); the result
    is revalidated as an ordered partial action and any violation is
    re-raised (an empty ideal under a nonempty carrier is rejected by the
    carrier-coverage clause).
    """
    if a.order is None or not a.global_flag:
        raise ValidationError("NotGlobalOrdered", ())
    ideal = sorted(set(subset))
    if not is_order_ideal(a.order, ideal):
        raise ValidationError("NotAnIdeal", tuple(ideal))

    position = {x: i for i, x in enumerate(ideal)}
    inside = set(ideal)
    actor = a.actor
    new_domains = []
    for s in actor.arrows():
        theta = a.maps[s]
        image = {theta[x] for x in theta if x in inside}
        new_domains.append(frozenset(position[y] for y in (image & inside)))
    new_maps = []
    for s in actor.arrows():
        theta = a.maps[s]
        src = new_domains[actor.inv[s]]
        m = {}
        for xi in src:
            y = theta[ideal[xi]]
            if y not in position:
                # a genuinely global action keeps the ideal stable here
                raise ValidationError("NotGlobalOrdered", (s, ideal[xi]))
            m[xi] = position[y]
        new_maps.append(m)

    restricted = make_action(
        actor,
        tuple(a.carrier_names[x] for x in ideal),
        new_domains,
        new_maps,
        order=a.order.restrict(ideal),
        global_flag=False,
    )
    violation = validate_partial_action_P(restricted)
    if violation is not None:
        raise ValidationError(violation.code, violation.witness)
    return restricted


@dataclass(frozen=True)
class EquivariantMap:
    """A carrier map between two actions of the same actor."""

    source: PartialActionData
    target: PartialActionData
    f: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.f[x]


def check_equivariant(
    m: EquivariantMap,
    *,
    ordered: bool = False,
    equivalence: bool = False,
) -> Violation | None:
    """First violated equivariance condition, or None.

    With ``ordered`` the map must preserve the carrier orders; with
    ``equivalence`` it must additionally be a bijection whose inverse is
    itself (ordered) equivariant.
    """
    a, b, f = m.source, m.target, m.f
    if a.actor is not b.actor and a.actor != b.actor:
        raise ValidationError("MalformedAction", (), "actions have different actors")
    if len(f) != a.carrier_size:
        raise ValidationError("MalformedAction", (), "map has wrong length")

    for s in a.actor.arrows():
        if not {f[x] for x in a.domains[s]} <= b.domains[s]:
            return Violation("DomainNotMapped", (s,))
    for s in a.actor.arrows():
        theta_a = a.maps[s]
        theta_b = b.maps[s]
        for x, y in theta_a.items():
            if f[x] not in theta_b or theta_b[f[x]] != f[y]:
                return Violation("CommutationFailure", (s, x))

    if ordered:
        if a.order is None or b.order is None:
            raise ValidationError("MalformedAction", (), "ordered check needs orders")
        for x in a.carrier():
            for y in a.carrier():
                if a.order.leq[x][y] and not b.order.leq[f[x]][f[y]]:
                    return Violation("OrderNotPreserved", (x, y))

    if equivalence:
        if len(set(f)) != len(f) or len(f) != b.carrier_size:
            return Violation("InverseNotEquivariant", ())
        inverse = [0] * b.carrier_size
        for x, y in enumerate(f):
            inverse[y] = x
        back = check_equivariant(
            EquivariantMap(b, a, tuple(inverse)), ordered=ordered, equivalence=False
        )
        if back is not None:
            return Violation("InverseNotEquivariant", back.witness)
    return None


def point_action(actor: InverseSemigroupoid, name: str = "pt") -> PartialActionData:
    """The one-point global ordered action; every arrow fixes the point."""
    from .posets import discrete_poset

    return make_action(
        actor,
        (name,),
        [{0} for _ in actor.arrows()],
        [{0: 0} for _ in actor.arrows()],
        order=discrete_poset(1, (name,)),
        global_flag=True,
    )


def disjoint_union_actions(
    a: PartialActionData, b: PartialActionData
) -> PartialActionData:
    """Block sum of two actions of the same actor on the disjoint union
    of their carriers (ordered blockwise; global iff both are)."""
    if a.actor != b.actor:
        raise ValidationError("MalformedAction", (), "actors differ")
    shift = a.carrier_size
    names = a.carrier_names + tuple(f"{n}'" for n in b.carrier_names)
    domains = [
        set(a.domains[s]) | {x + shift for x in b.domains[s]}
        for s in a.actor.arrows()
    ]
    maps = []
    for s in a.actor.arrows():
        m = dict(a.maps[s])
        m.update({x + shift: y + shift for x, y in b.maps[s].items()})
        maps.append(m)
    order = None
    if a.order is not None and b.order is not None:
        size = len(names)
        leq = [[False] * size for _ in range(size)]
        for x in range(a.carrier_size):
            for y in range(a.carrier_size):
                leq[x][y] = a.order.leq[x][y]
        for x in range(b.carrier_size):
            for y in range(b.carrier_size):
                leq[x + shift][y + shift] = b.order.leq[x][y]
        order = FinitePoset(tuple(tuple(row) for row in leq), names)
    return make_action(
        a.actor,
        names,
        domains,
        maps,
        order=order,
        global_flag=a.global_flag and b.global_flag,
    )
