"""Munn action, semidirect products, McAlister triples, and the
reconstruction of an E-unitary inverse semigroupoid as a semidirect
product of its maximal groupoid image acting on its idempotents.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (
    PartialActionData,
    check_built,
    make_action,
    orbit,
    require_valid,
    restrict_global,
)
from .congruences import EUnitarityCertificate, is_e_unitary
from .core import (
    SemigroupoidMorphism,
    arrows_by_end,
    validate_morphism,
    validate_semigroupoid,
)
from .errors import InternalInconsistencyError, ValidationError
from .globalization import globalize
from .inverse import (
    InverseSemigroupoid,
    is_groupoid,
    is_strong_morphism,
    promote_to_inverse,
)
from .posets import (
    FinitePoset,
    Semilatticeoid,
    is_order_ideal,
    semilatticeoid_from_poset,
    validate_semilatticeoid,
)


def munn_action(inv_sg: InverseSemigroupoid) -> PartialActionData:
    """The global ordered action of a structure on its idempotents:
    the domain at s is the downset of s s* and s acts by e -> s e s*."""
    sg = inv_sg.base
    inv = inv_sg.inv
    idems = inv_sg.idempotents
    pos = {e: i for i, e in enumerate(idems)}
    order = inv_sg.order.restrict(list(idems))

    # the map of s goes from the downset of s* s
    rows, slot = sg.rows, sg.slot
    maps = []
    for s in inv_sg.arrows():
        s_star = inv[s]
        top, row_s, at_s_star = rows[s_star][slot[s]], rows[s], slot[s_star]
        maps.append({
            pos[e]: pos[rows[row_s[slot[e]]][at_s_star]]
            for e in idems
            if inv_sg.leq(e, top)
        })

    action = make_action(
        inv_sg,
        tuple(sg.arrow_names[e] for e in idems),
        maps,
        order=order,
        global_flag=True,
    )
    check_built(action, "MunnActionInvalid")
    return action


def induced_sigma_action(
    cert: EUnitarityCertificate, theta: PartialActionData
) -> PartialActionData:
    """Glue a global ordered action of an E-unitary structure along its
    sigma classes into an ordered partial action of the quotient groupoid.

    ``cert`` is the structure's E-unitarity certificate; it carries
    sigma, whose base is the structure.  The map at a class is glued
    over the union of its members' map keys; values are independent of
    the member used, so any gluing conflict signals a bug and is
    reported as GluingConflict.
    """
    if not cert.verdict:
        raise ValidationError("NotEUnitary", ())
    sig = cert.sigma
    if theta.actor != sig.base:
        raise ValidationError("MalformedAction", (), "action actor differs")
    require_valid(theta)
    if theta.order is None or not theta.global_flag:
        raise ValidationError("NotGlobalOrdered", ())

    q, _proj = sig.quotient
    maps = []
    for cls in sig.classes():
        m: dict[int, int] = {}
        for x in sorted(set().union(*(theta.maps[t] for t in cls))):
            values = {theta.maps[t][x] for t in cls if x in theta.maps[t]}
            if len(values) > 1:
                witnesses = sorted(t for t in cls if x in theta.maps[t])
                raise InternalInconsistencyError(
                    "GluingConflict", (witnesses[0], witnesses[1], x)
                )
            m[x] = values.pop()
        maps.append(m)

    alpha = make_action(
        q,
        theta.carrier_names,
        maps,
        order=theta.order,
        global_flag=False,
    )
    check_built(alpha, "InducedActionInvalid")
    return alpha


@dataclass(frozen=True)
class SemidirectProduct:
    """An inverse semigroupoid of pairs (arrow, carrier point) built from
    an ordered partial action on a semilatticeoid; the actor is
    ``action.actor``."""

    latt: Semilatticeoid
    action: PartialActionData
    product: InverseSemigroupoid
    arrow_pairs: tuple[tuple[int, int], ...]
    # arrow_pairs[i] -> i, the index the builder made
    pair_index: dict[tuple[int, int], int] = field(compare=False, repr=False)


def _check_action_matches_lattice(action: PartialActionData, latt: Semilatticeoid):
    if action.carrier_size != latt.n_arrows:
        raise ValidationError("MalformedAction", (), "carrier size differs from lattice")
    if action.order is None or action.order.up != latt.order.up:
        raise ValidationError(
            "MalformedAction", (), "carrier order differs from lattice order"
        )


def semidirect_product(
    action: PartialActionData, latt: Semilatticeoid
) -> SemidirectProduct:
    """Build the semidirect product of the actor with the semilatticeoid.

    Arrows are the pairs (s, x) with x in the domain of the map of s,
    indexed lexicographically; the product of (s, x) and (t, y) is
    (s t, theta at t* of (x meet theta_t(y))) wherever s t is defined and
    the meet exists in a common fiber.
    """
    actor = action.actor
    _check_action_matches_lattice(action, latt)
    require_valid(action)
    for s in actor.arrows():
        if not action.domains[s]:
            raise ValidationError("EmptyDomain", (s,))

    sg = actor.base
    inv = actor.inv
    # the keys of the map of s are D_{s*}, stored in increasing order
    pairs = [(s, x) for s in actor.arrows() for x in action.maps[s]]
    index = {p: i for i, p in enumerate(pairs)}
    fiber = latt.fiber_of

    def theta(s: int, x: int) -> int:
        return action.maps[s][x]

    dom_list = [(sg.dom[s], fiber(x)) for s, x in pairs]
    cod_list = [(sg.cod[s], fiber(theta(s, x))) for s, x in pairs]
    objects = sorted(set(dom_list) | set(cod_list))
    obj_index = {o: i for i, o in enumerate(objects)}

    # the pairs (t, y) with cod t = u, by increasing index, at index u
    pairs_into = arrows_by_end([sg.cod[t] for t, _y in pairs], sg.n_objects)
    triples = []
    for i, (s, x) in enumerate(pairs):
        for k in pairs_into[sg.dom[s]]:
            t, y = pairs[k]
            ty = theta(t, y)
            if fiber(x) != fiber(ty):
                continue
            st = sg.rows[s][sg.slot[t]]
            z = latt.meet(x, ty)
            if z not in action.maps[inv[t]]:
                raise InternalInconsistencyError("SemidirectMeetEscapes", (i, k))
            w = theta(inv[t], z)
            target = index.get((st, w))
            if target is None:
                raise InternalInconsistencyError("SemidirectProductEscapes", (i, k))
            triples.append((i, k, target))

    arrow_names = tuple(
        f"({sg.arrow_names[s]},{action.carrier_names[x]})" for s, x in pairs
    )
    object_names = tuple(
        f"({sg.object_names[u]},{latt.base.base.object_names[c]})"
        for u, c in objects
    )
    base = validate_semigroupoid(
        [obj_index[d] for d in dom_list],
        [obj_index[c] for c in cod_list],
        triples,
        n_objects=len(objects),
        arrow_names=arrow_names,
        object_names=object_names,
    )
    product = promote_to_inverse(base)

    for i, (s, x) in enumerate(pairs):
        expected = index[(inv[s], theta(s, x))]
        if product.inv[i] != expected:
            raise InternalInconsistencyError("SemidirectInvolutionMismatch", (i,))

    return SemidirectProduct(
        latt=latt,
        action=action,
        product=product,
        arrow_pairs=tuple(pairs),
        pair_index=index,
    )


def check_e_unitary_preservation(p: SemidirectProduct) -> bool:
    """True unless the actor is E-unitary and the product is not."""
    if not is_e_unitary(p.action.actor).verdict:
        return True
    return bool(is_e_unitary(p.product).verdict)


@dataclass(frozen=True)
class McAlisterTriple:
    """A groupoid acting globally on a poset with a distinguished order
    ideal that is a semilatticeoid, meets every translate, and generates
    the whole space."""

    groupoid: InverseSemigroupoid
    space: FinitePoset
    ideal: frozenset[int]
    action: PartialActionData


def validate_mcalister_triple(t: McAlisterTriple) -> McAlisterTriple:
    if not is_groupoid(t.groupoid):
        raise ValidationError("NotGroupoid", ())
    if t.action.actor != t.groupoid:
        raise ValidationError("MalformedAction", (), "action actor differs")
    if t.action.order is None or t.action.order.up != t.space.up:
        raise ValidationError("MalformedAction", (), "order differs from space")
    require_valid(t.action)
    if not t.action.global_flag:
        raise ValidationError("NotGlobalOrdered", ())

    if not is_order_ideal(t.space, t.ideal):
        raise ValidationError("TripleIdealFailure", ())
    ideal = sorted(t.ideal)
    semilatticeoid_from_poset(t.space.restrict(ideal))
    if orbit(t.action, t.ideal) != frozenset(range(t.space.size)):
        raise ValidationError("TripleOrbitFailure", ())
    for g in t.groupoid.arrows():
        theta = t.action.maps[g]
        moved = {theta[x] for x in t.ideal if x in theta}
        if not (moved & t.ideal):
            raise ValidationError("TripleMeetFailure", (g,))
    return t


def mcalister_from_action(
    action: PartialActionData, latt: Semilatticeoid
) -> McAlisterTriple:
    """Globalize a groupoid action on a semilatticeoid with nonempty
    domains into a McAlister triple on the enveloping ordered carrier."""
    actor = action.actor
    if not is_groupoid(actor):
        raise ValidationError("NotGroupoid", ())
    _check_action_matches_lattice(action, latt)
    for g in actor.arrows():
        if not action.domains[g]:
            raise ValidationError("EmptyDomain", (g,))
    result = globalize(action)
    triple = McAlisterTriple(
        groupoid=actor,
        space=result.envelope.order,
        ideal=frozenset(result.embed),
        action=result.envelope,
    )
    return validate_mcalister_triple(triple)


def triple_restriction(t: McAlisterTriple) -> PartialActionData:
    """The ordered partial action of the groupoid on the ideal obtained
    by restricting the global action; all domains stay nonempty."""
    restricted = restrict_global(t.action, t.ideal)
    for g in t.groupoid.arrows():
        if not restricted.domains[g]:
            raise InternalInconsistencyError("EmptyDomain", (g,))
    return restricted


@dataclass(frozen=True)
class PTheoremBundle:
    """All ingredients of the reconstruction isomorphism: the structure
    is ``munn.actor``, the induced action ``semidirect.action`` and the
    semilatticeoid of idempotents ``semidirect.latt``."""

    munn: PartialActionData
    semidirect: SemidirectProduct
    morphism: SemigroupoidMorphism


def idempotent_semilatticeoid(inv_sg: InverseSemigroupoid) -> Semilatticeoid:
    """The idempotents of a structure as a semilatticeoid (product
    inherited; every object keeps its idempotents)."""
    sg = inv_sg.base
    idems = inv_sg.idempotents
    pos = {e: i for i, e in enumerate(idems)}
    dom = [sg.dom[e] for e in idems]
    rows, slot = sg.rows, sg.slot
    triples = [
        (pos[e], pos[f], pos[rows[e][slot[f]]])
        for e in idems for f in idems if sg.composable(e, f)
    ]
    base = validate_semigroupoid(
        dom,
        dom,
        triples,
        n_objects=sg.n_objects,
        arrow_names=tuple(sg.arrow_names[e] for e in idems),
        object_names=sg.object_names,
    )
    return validate_semilatticeoid(promote_to_inverse(base))


def ptheorem_bundle(inv_sg: InverseSemigroupoid) -> PTheoremBundle:
    """Rebuild an E-unitary structure as the semidirect product of its
    maximal groupoid image acting on its idempotents, with the
    isomorphism checked arrow by arrow."""
    cert = is_e_unitary(inv_sg)
    if not cert.verdict:
        raise ValidationError("NotEUnitary", ())
    return bundle_from_certificate(cert, munn_action(inv_sg))


def bundle_from_certificate(
    cert: EUnitarityCertificate, theta: PartialActionData
) -> PTheoremBundle:
    """The reconstruction step of ptheorem_bundle, for a caller that
    already holds the structure's E-unitarity certificate (verdict True)
    and its Munn action."""
    sig = cert.sigma
    inv_sg = sig.base
    alpha = induced_sigma_action(cert, theta)
    latt = idempotent_semilatticeoid(inv_sg)
    if latt.order.up != theta.order.up:
        raise InternalInconsistencyError("LatticeOrderMismatch", ())
    sdp = semidirect_product(alpha, latt)

    cls_index = sig.class_index()
    idems = inv_sg.idempotents
    pos = {e: i for i, e in enumerate(idems)}
    sg = inv_sg.base
    inv = inv_sg.inv

    arrow_map = []
    for s in inv_sg.arrows():
        e = sg.product(inv[s], s)
        arrow_map.append(sdp.pair_index[(cls_index[s], pos[e])])

    phi = validate_morphism(sg, sdp.product.base, arrow_map)
    if not is_strong_morphism(phi):
        raise InternalInconsistencyError("PhiNotStrong", ())
    if len(set(arrow_map)) != inv_sg.n_arrows:
        raise InternalInconsistencyError("PhiNotInjective", ())
    if set(arrow_map) != set(range(sdp.product.n_arrows)):
        raise InternalInconsistencyError("PhiNotSurjective", ())
    return PTheoremBundle(munn=theta, semidirect=sdp, morphism=phi)


def ptheorem_isomorphism(inv_sg: InverseSemigroupoid) -> SemigroupoidMorphism:
    """The isomorphism onto the semidirect-product reconstruction."""
    return ptheorem_bundle(inv_sg).morphism
