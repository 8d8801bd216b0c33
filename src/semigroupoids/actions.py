"""Partial and global actions of an inverse semigroupoid on a finite set
or poset: both axiomatizations, equivariant maps, restriction, orbits.

The two validators check genuinely different axiom lists (the bijection/
containment/monotone-domain route versus the identity-on-idempotents/
composition-domain route).  Their verdicts agreeing on every input is a
theorem, exercised by the acceptance suite, so their core loops are kept
independent.  On a global action each reduces its composition clauses to
the actor's generating set G with its own helper and proof, at
O(n |G| k) for n arrows and k carrier points instead of a scan over the
composable pairs: E composes with a generator on the right, P on the
left.  Other modules reach them through two gates: ``require_valid``
checks an input by E's verdict, stored on the action; ``check_built``
runs both afresh on an action a construction built, with the order
clauses common to both once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import arrows_by_end
from .errors import InternalInconsistencyError, ValidationError, Violation
from .inverse import InverseSemigroupoid
from .posets import FinitePoset, discrete_poset, is_order_ideal


@dataclass(frozen=True)
class PartialActionData:
    """Per-arrow bijections between subsets of a carrier.

    The action is its maps: ``maps[s]`` is the map attached to arrow
    ``s``, stored once as a dict with its keys in increasing order, so
    the type is unhashable.  ``domains[s]`` is derived from them at
    construction as the key set of ``maps[inv(s)]``, so the map of ``s``
    goes from ``domains[inv(s)]`` and, on a valid action, onto
    ``domains[s]``.  The carrier may carry a poset; ``global_flag``
    records the claim that composition is exact rather than merely
    contained.
    """

    actor: InverseSemigroupoid
    carrier_names: tuple[str, ...]
    maps: tuple[dict[int, int], ...]
    order: FinitePoset | None = None
    global_flag: bool = False
    domains: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        maps = self.maps
        domains = tuple(frozenset(maps[t]) for t in self.actor.inv)
        object.__setattr__(self, "domains", domains)

    @property
    def carrier_size(self) -> int:
        return len(self.carrier_names)

    def carrier(self) -> range:
        return range(self.carrier_size)


def make_action(
    actor: InverseSemigroupoid,
    carrier_names: Sequence[str],
    maps: Mapping[int, Mapping[int, int]] | Sequence[Mapping[int, int]],
    order: FinitePoset | None = None,
    global_flag: bool = False,
) -> PartialActionData:
    """Normalize raw maps into a PartialActionData.

    Only shape is enforced here (map keys and values in range, the
    order's size); the axioms are the validators' job.
    """
    k = len(carrier_names)
    map_rows = []
    for s in actor.arrows():
        m = dict(sorted(maps[s].items()))
        # the keys are sorted, so the first and the last bound them all
        if m and not (0 <= next(iter(m)) and next(reversed(m)) < k):
            raise ValidationError("MalformedAction", (s,), "map key out of range")
        if m and not (0 <= min(m.values()) and max(m.values()) < k):
            raise ValidationError("MalformedAction", (s,), "map value out of range")
        map_rows.append(m)
    if order is not None and order.size != k:
        raise ValidationError("MalformedAction", (), "order size differs from carrier")
    return PartialActionData(
        actor=actor,
        carrier_names=tuple(carrier_names),
        maps=tuple(map_rows),
        order=order,
        global_flag=global_flag,
    )


# the key under which validate_partial_action_E stores its verdict on an
# action, read by require_valid; P stores nothing
_VERDICT = "validate_partial_action_E"


def validate_partial_action_E(a: PartialActionData) -> Violation | None:
    """Bijection/containment/monotone-domain axioms, plus the order and
    exact-composition clauses when the carrier is ordered or the action
    claims to be global.  Returns the first violation or None, computed
    on every call and stored on the action for ``require_valid``.

    On a global action the composition clauses are first tested on the
    actor's generating set G only: theta_s theta_g = theta_{sg}, as
    partial maps, for every g in G and every s with dom s = cod g.  This
    costs O(n |G| k) for n arrows and k carrier points, against
    O(c k) for the c composable pairs of the full scans.

    Lemma: if the test passes, theta_s theta_t = theta_{st} for every
    composable pair.  Every arrow t is g or t' g with g in G and t'
    shorter as a word over G.  The case t = g is the test.  Otherwise
    theta_{t'g} = theta_{t'} theta_g by the test, so
    theta_s theta_t = (theta_s theta_{t'}) theta_g = theta_{st'} theta_g
    = theta_{(st')g} = theta_{st}, by induction on the word, the test
    at (st', g), and associativity of composing partial maps and of the
    actor.  That equality is the ``GlobalEqualityFailure`` clause and
    implies the ``CompositionNotContained`` one, so a passing test skips
    both scans and no other clause moves.  A failing test runs every
    clause in order, so the first violation and its witness are the
    full scans'."""
    v = a.__dict__[_VERDICT] = _first_violation_E(a)
    return v


def _first_violation_E(a: PartialActionData) -> Violation | None:
    """The clauses of validate_partial_action_E, in order."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")
    arrows = actor.arrows()
    dom, cod, rows, inv = sg.dom, sg.cod, sg.rows, actor.inv
    maps, domains = a.maps, a.domains

    # bijectivity with compatible inverses: each theta_s is injective
    # onto D_s, so its reversal has the keys of theta_{s*} and equals it
    # exactly when theta_{s*} sends each theta_s x back to x
    for s in arrows:
        theta = maps[s]
        values = set(theta.values())
        if len(values) != len(theta) or values != domains[s]:
            return Violation("NotBijective", (s,))
    for s in arrows:
        theta = maps[s]
        if dict(zip(theta.values(), theta)) != maps[inv[s]]:
            return Violation("InverseMismatch", (s,))

    # the carrier is the union of the ranges
    if set().union(*domains) != set(a.carrier()):
        return Violation("NotCovering", ())

    # composition containment on composable pairs; into[u] lists the
    # arrows with codomain u, so into[dom s] is every t composable with s
    exact = a.global_flag and _composes_on_generators(a)
    if not exact:
        into = arrows_by_end(cod, sg.n_objects)
        for s in arrows:
            theta_s = maps[s]
            for t, st in zip(into[dom[s]], rows[s]):
                theta_st = maps[st]
                for x, y in maps[t].items():
                    if y not in theta_s:
                        continue
                    if x not in theta_st or theta_st[x] != theta_s[y]:
                        return Violation("CompositionNotContained", (s, t, x))

    # domains grow along the natural order of the actor; an arrow with
    # nothing strictly above it has no pair to test
    up = actor.order.up
    for s in arrows:
        if up[s] & ~(1 << s):
            for t in actor.order.above(s):
                if s != t and not domains[s] <= domains[t]:
                    return Violation("MonotoneDomainFailure", (s, t))

    if a.order is not None:
        v = _ordered_clauses(a)
        if v is not None:
            return v

    if a.global_flag and not exact:
        for s in arrows:
            theta_s = maps[s]
            for t, st in zip(into[dom[s]], rows[s]):
                composite = {
                    x: theta_s[y] for x, y in maps[t].items() if y in theta_s
                }
                if composite != maps[st]:
                    return Violation("GlobalEqualityFailure", (s, t))
    return None


def _composes_on_generators(a: PartialActionData) -> bool:
    """Whether theta_s theta_g = theta_{sg} as partial maps for every g
    in the actor's generating set and every s with dom s = cod g: every
    pair x -> theta_s theta_g x of the composite is one of theta_{sg},
    and the two have as many pairs."""
    sg = a.actor.base
    out_of = arrows_by_end(sg.dom, sg.n_objects)
    maps = a.maps
    for g in sg.generators:
        theta_g, i = maps[g].items(), sg.slot[g]
        for s in out_of[sg.cod[g]]:
            theta_s = maps[s]
            theta_sg = maps[sg.rows[s][i]]
            size = 0
            for x, y in theta_g:
                if y in theta_s:
                    if x not in theta_sg or theta_sg[x] != theta_s[y]:
                        return False
                    size += 1
            if size != len(theta_sg):
                return False
    return True


def validate_partial_action_P(a: PartialActionData) -> Violation | None:
    """Identity-on-idempotents/domain-containment/composition-domain
    axioms; the independent route to the same class of valid actions.

    On a global action the composition clauses are first tested by
    composing with the actor's generating set G from the left:
    theta_g theta_t = theta_{gt}, as partial maps, for every g in G and
    every t with cod t = dom g.  This costs O(n |G| k) for n arrows and
    k carrier points, against O(c k) for the c composable pairs of the
    full scan.

    Lemma: if the test passes, neither composition clause can fail.
    Exact composition: every arrow s is a word over G, so s = g or
    s = g s' with g in G and s' shorter.  The case s = g is the test.
    Otherwise theta_s theta_t = theta_g theta_{s'} theta_t =
    theta_g theta_{s't} = theta_{gs't}, by the test at (g, s'),
    induction on the word, the test at (g, s't), and associativity of
    the actor and of composing partial maps.  Ranges: dom theta_t =
    D_{t*} by the definition of the type, and the earlier clauses make
    theta_e the identity on D_e and D_t a subset of D_{tt*}.  Exact
    composition gives theta_t theta_{t*} = theta_{tt*}, so D_{tt*} lies
    in dom theta_{t*} = D_t and the two are equal; and theta_t =
    theta_{tt*} theta_t, so theta_t takes its values in D_{tt*} = D_t.
    The clauses follow: the preimage
    {x in dom theta_t : theta_t x in D_t & D_{s*}} is then
    dom(theta_s theta_t) = dom theta_{st} = D_{(st)*}, which lies in
    D_{t*}; so it equals ``expected`` and the values agree.  In
    particular a value of theta_t outside D_t, which P has no range
    clause for, fails the test and is reported by the scan.  A failing
    test runs the scan, so the first violation and its witness are the
    full scan's."""
    return _first_violation_P(a, order_checked=False)


def _first_violation_P(a: PartialActionData, order_checked: bool) -> Violation | None:
    """The clauses of validate_partial_action_P, in order; with
    ``order_checked`` the order clauses are skipped, for a caller that
    has just seen them pass on the same maps and order."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")
    arrows = actor.arrows()
    dom, cod, rows, slot, inv = sg.dom, sg.cod, sg.rows, sg.slot, actor.inv
    maps, domains = a.maps, a.domains

    # idempotents act as the identity on their domain
    for e in actor.idempotents:
        theta = maps[e]
        if list(theta) != list(theta.values()):
            return Violation("NotIdentityOnIdempotent", (e,))

    # every carrier point lies in some idempotent domain
    idempotent_domains = map(domains.__getitem__, actor.idempotents)
    uncovered = set(a.carrier()).difference(*idempotent_domains)
    if uncovered:
        return Violation("IdempotentCoverageFailure", (min(uncovered),))

    # each domain is contained in the one of its range idempotent
    for s in arrows:
        if not domains[s] <= domains[rows[s][slot[inv[s]]]]:
            return Violation("DomainContainmentFailure", (s,))

    # composition domains match exactly and values glue, over the pairs
    # (s, t) with t in into[dom s], the arrows with codomain dom s; a
    # global action that composes exactly from the left skips the scan
    if not (a.global_flag and _composes_from_the_left(a)):
        into = arrows_by_end(cod, sg.n_objects)
        for s in arrows:
            theta_s = maps[s]
            source_s = domains[inv[s]]
            for t, st in zip(into[dom[s]], rows[s]):
                theta_t = maps[t]
                range_t = domains[t]
                preimage = {
                    x for x, y in theta_t.items() if y in range_t and y in source_s
                }
                expected = domains[inv[st]] & domains[inv[t]]
                if preimage != expected:
                    return Violation("CompositionDomainMismatch", (s, t))
                # each x of expected is a key of theta_st (expected lies in
                # D_{(st)*}) and, being in preimage, sends theta_t x into
                # source_s, the keys of theta_s; the least x that fails
                # is the witness
                theta_st = maps[st]
                for x in expected:
                    if theta_st[x] != theta_s[theta_t[x]]:
                        x = min(
                            x for x in expected if theta_st[x] != theta_s[theta_t[x]]
                        )
                        return Violation("CompositionValueMismatch", (s, t, x))

    if a.order is not None and not order_checked:
        v = _ordered_clauses(a)
        if v is not None:
            return v

    if a.global_flag:
        for s in arrows:
            if domains[s] != domains[rows[s][slot[inv[s]]]]:
                return Violation("GlobalEqualityFailure", (s,))
    return None


def _composes_from_the_left(a: PartialActionData) -> bool:
    """Whether theta_g theta_t = theta_{gt} as partial maps for every g
    in the actor's generating set and every t with cod t = dom g: every
    pair x -> theta_g theta_t x of the composite is one of theta_{gt},
    and the two have as many pairs."""
    sg = a.actor.base
    into = arrows_by_end(sg.cod, sg.n_objects)
    maps = a.maps
    for g in sg.generators:
        theta_g = maps[g]
        for t, gt in zip(into[sg.dom[g]], sg.rows[g]):
            theta_gt = maps[gt]
            size = 0
            for x, y in maps[t].items():
                if y in theta_g:
                    if x not in theta_gt or theta_gt[x] != theta_g[y]:
                        return False
                    size += 1
            if size != len(theta_gt):
                return False
    return True


def require_valid(a: PartialActionData) -> None:
    """The input gate: raise ValidationError with E's first violation.

    Reads the verdict ``validate_partial_action_E`` stored on ``a`` and
    runs E only when none is stored.  P is not asked: where the two
    disagree there is a bug, which ``check_built`` and the CLI's
    comparisons report as one."""
    stored = a.__dict__
    v = stored[_VERDICT] if _VERDICT in stored else validate_partial_action_E(a)
    if v is not None:
        raise ValidationError(v.code, v.witness)


def check_built(a: PartialActionData, code: str) -> None:
    """The self-check on an action a construction built: E and then P's
    own clauses, both run afresh; the first violation v raises
    InternalInconsistencyError(code, (v.code, v.witness)).

    The order clauses are common to both axiom lists, so they run once,
    inside E: when E passes they have passed on the same maps and order,
    and P's run of them could only pass again."""
    v = validate_partial_action_E(a)
    if v is None:
        v = _first_violation_P(a, order_checked=True)
    if v is not None:
        raise InternalInconsistencyError(code, (v.code, v.witness))


def _ordered_clauses(a: PartialActionData) -> Violation | None:
    """Domains are order ideals and maps are order isomorphisms, read
    from the carrier's row bitmasks.

    A domain is an ideal iff every point whose up-set meets it lies in
    it: O(k) mask tests for k carrier points, once per distinct domain.
    A map is an order isomorphism onto its range iff ``x <= y`` exactly
    when ``theta(x) <= theta(y)`` over all pairs of its points,
    O(|domain|^2) bit tests per arrow over one tuple of its pairs (the
    inner loop is slower on the items view); on an antisymmetric order
    this also rejects a map that is not injective.  First violation in
    arrow order, ideals before maps.
    """
    order = a.order
    assert order is not None
    up = order.up
    # the domains found to be ideals so far; plain loops, since on a few
    # points a generator costs more than the tests it makes
    ideals: set[frozenset[int]] = set()
    for s, sub in enumerate(a.domains):
        if sub in ideals:
            continue
        mask = 0
        for y in sub:
            mask |= 1 << y
        for x, m in enumerate(up):
            if m & mask and x not in sub:
                return Violation("NotIdeal", (s,))
        ideals.add(sub)
    for s, theta in enumerate(a.maps):
        pairs = tuple(theta.items())
        for x, tx in pairs:
            row, image_row = up[x], up[tx]
            for y, ty in pairs:
                if row >> y & 1 != image_row >> ty & 1:
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

    The restricted map of s keeps the pairs x -> theta_s(x) with both
    ends in the ideal Y; on a valid action theta_{s*} inverts theta_s, so
    its keys are Y & theta_{s*}(Y & X_s).  The result is revalidated by
    ``validate_partial_action_E``, which stores its verdict for the input
    gate ``require_valid`` of the next construction, and any violation is
    re-raised as a ValidationError.  For a valid global input and a
    nonempty ideal none is reachable; an empty ideal is ``EmptyCarrier``,
    E's first clause.
    """
    if a.order is None or not a.global_flag:
        raise ValidationError("NotGlobalOrdered", ())
    ideal = sorted(set(subset))
    if not is_order_ideal(a.order, ideal):
        raise ValidationError("NotAnIdeal", tuple(ideal))

    pos = {x: i for i, x in enumerate(ideal)}
    new_maps = [
        {pos[x]: pos[y] for x, y in theta.items() if x in pos and y in pos}
        for theta in a.maps
    ]

    restricted = make_action(
        a.actor,
        tuple(a.carrier_names[x] for x in ideal),
        new_maps,
        order=a.order.restrict(ideal),
        global_flag=False,
    )
    violation = validate_partial_action_E(restricted)
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

    for s, sub in enumerate(a.domains):
        if not b.domains[s].issuperset(map(f.__getitem__, sub)):
            return Violation("DomainNotMapped", (s,))
    # zeta_s f x = f theta_s x, one lookup per point: the keys of theta_s
    # are D_{s*} and those of zeta_s are D'_{s*}, and the clause above
    # has put f(D_{s*}) inside D'_{s*}, so zeta_s has every f x
    for s, theta in enumerate(a.maps):
        zeta = b.maps[s]
        for x, y in theta.items():
            if zeta[f[x]] != f[y]:
                return Violation("CommutationFailure", (s, x))
    # a point no domain covers is seen by neither clause above, and the
    # clauses below index by f's values
    k = b.carrier_size
    if f and (min(f) < 0 or max(f) >= k):
        x = next(x for x, y in enumerate(f) if not 0 <= y < k)
        raise ValidationError("MalformedAction", (x,), "map value out of range")

    if ordered:
        if a.order is None or b.order is None:
            raise ValidationError("MalformedAction", (), "ordered check needs orders")
        up_b = b.order.up
        for x, fx in enumerate(f):
            row = up_b[fx]
            for y in a.order.above(x):
                if not row >> f[y] & 1:
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


def point_action(actor: InverseSemigroupoid) -> PartialActionData:
    """The one-point global ordered action on ``pt``; every arrow fixes it."""
    return make_action(
        actor,
        ("pt",),
        [{0: 0} for _ in actor.arrows()],
        order=discrete_poset(1, ("pt",)),
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
    maps = []
    for s in a.actor.arrows():
        m = dict(a.maps[s])
        m.update({x + shift: y + shift for x, y in b.maps[s].items()})
        maps.append(m)
    order = None
    if a.order is not None and b.order is not None:
        order = FinitePoset(a.order.up + tuple(m << shift for m in b.order.up), names)
    return make_action(
        a.actor,
        names,
        maps,
        order=order,
        global_flag=a.global_flag and b.global_flag,
    )
