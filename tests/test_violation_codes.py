"""Minimal constructions making each public violation code fire."""

import pytest

from semigroupoids import corpus
from semigroupoids.actions import (
    make_action,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from semigroupoids.congruences import is_e_unitary, universal_groupoid_property
from semigroupoids.core import validate_morphism, validate_semigroupoid
from semigroupoids.errors import ValidationError
from semigroupoids.posets import (
    chain_poset,
    poset_from_masks,
    semilatticeoid_from_poset,
    validate_poset,
)
from semigroupoids.ptheorem import munn_action


def test_duplicate_product():
    # identical repeated triples collapse silently
    sg = validate_semigroupoid([0], [0], [(0, 0, 0), (0, 0, 0)])
    assert sg.n_arrows == 1
    # conflicting duplicates are an error
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid(
            [0, 0], [0, 0], [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
        )
    assert err.value.code == "DuplicateProduct"


def test_empty_semigroupoid():
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([], [], [])
    assert err.value.code == "EmptySemigroupoid"


def test_malformed_table():
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0, 0], [0], [])
    assert err.value.code == "MalformedTable"


def test_object_map_conflict():
    # two arrows out of one object, never composable, mapped to loops at
    # different objects: no companion object map can exist
    src = validate_semigroupoid([0, 0], [1, 2], [], n_objects=3)
    dst = corpus.discrete_groupoid(3).base
    with pytest.raises(ValidationError) as err:
        validate_morphism(src, dst, [0, 1])
    assert err.value.code == "ObjectMapConflict"
    assert err.value.witness == (0,)


def test_malformed_relation():
    with pytest.raises(ValidationError) as err:
        validate_poset([(0, 5)], 2)
    assert err.value.code == "MalformedRelation"


def test_poset_name_list_of_wrong_length():
    with pytest.raises(ValidationError) as err:
        validate_poset([(0, 0), (1, 1)], 2, names=["a"])
    assert (err.value.code, err.value.witness) == ("MalformedRelation", ())


@pytest.mark.parametrize("up", [(0b01, 0b110), (0b01, -2)])
def test_poset_row_mask_out_of_range(up):
    with pytest.raises(ValidationError) as err:
        poset_from_masks(up)
    assert (err.value.code, err.value.witness) == ("MalformedRelation", (1,))


def test_reflexivity_failure():
    with pytest.raises(ValidationError) as err:
        validate_poset([(0, 1), (1, 1)], 2)
    assert err.value.code == "ReflexivityFailure"
    assert err.value.witness == (0,)


def test_congruence_not_compatible():
    from semigroupoids.congruences import GraphedCongruence, validate_congruence

    b2 = corpus.brandt_b2()
    rep = list(range(5))
    rep[4] = 3  # relate the two nonzero idempotents only
    with pytest.raises(ValidationError) as err:
        validate_congruence(GraphedCongruence(base=b2, rep=tuple(rep)))
    assert err.value.code == "NotCompatible"


def test_universal_property_needs_groupoid_target():
    c2 = corpus.chain2()
    ident = validate_morphism(c2.base, c2.base, [0, 1])
    with pytest.raises(ValidationError) as err:
        universal_groupoid_property(c2, ident, c2)
    assert err.value.code == "TargetNotGroupoid"


def rotation_action(n, carrier):
    cn = corpus.cyclic_group(n)
    maps = []
    for g in cn.arrows():
        maps.append({x: (x + g) % carrier for x in range(carrier)})
    return cn, make_action(
        cn,
        tuple(f"p{i}" for i in range(carrier)),
        maps,
        order=None,
    )


def test_inverse_mismatch():
    cn, a = rotation_action(3, 3)
    g = 1
    maps = [dict(m) for m in a.maps]
    maps[cn.inv[g]] = {x: x for x in range(3)}  # no longer the inverse of g
    broken = make_action(cn, a.carrier_names, maps)
    v = validate_partial_action_E(broken)
    assert v is not None and v.code == "InverseMismatch"
    assert validate_partial_action_P(broken) is not None


def test_not_covering():
    trivial = corpus.trivial_monoid()
    a = make_action(trivial, ("x", "y"), [{0: 0}])
    ve = validate_partial_action_E(a)
    assert ve is not None and ve.code == "NotCovering"
    vp = validate_partial_action_P(a)
    assert vp is not None and vp.code == "IdempotentCoverageFailure"


def test_monotone_domain_failure():
    c2 = corpus.chain2()
    a = make_action(
        c2,
        ("x", "y"),
        [{0: 0}, {0: 0, 1: 1}],
    )
    v = validate_partial_action_E(a)
    assert v is not None and v.code == "MonotoneDomainFailure"
    assert v.witness == (1, 0)
    assert validate_partial_action_P(a) is not None


def test_not_ideal():
    c2 = corpus.cyclic_group(2)
    g = next(s for s in c2.arrows() if s not in c2.idempotents)
    e = c2.idempotents[0]
    maps = {e: {0: 0, 1: 1}, g: {1: 1}}
    a = make_action(
        c2,
        ("x", "y"),
        [maps[s] for s in c2.arrows()],
        order=chain_poset(2, ("x", "y")),
    )
    ve = validate_partial_action_E(a)
    vp = validate_partial_action_P(a)
    assert ve is not None and ve.code == "NotIdeal" and ve.witness == (g,)
    assert vp is not None and vp.code == "NotIdeal"


def test_not_order_iso():
    c2 = corpus.cyclic_group(2)
    g = next(s for s in c2.arrows() if s not in c2.idempotents)
    maps = [
        {0: 0, 1: 1} if s != g else {0: 1, 1: 0} for s in c2.arrows()
    ]
    a = make_action(
        c2,
        ("x", "y"),
        maps,
        order=chain_poset(2, ("x", "y")),
    )
    ve = validate_partial_action_E(a)
    vp = validate_partial_action_P(a)
    assert ve is not None and ve.code == "NotOrderIso" and ve.witness == (g,)
    assert vp is not None and vp.code == "NotOrderIso"


def test_global_equality_failure():
    theta = munn_action(corpus.brandt_b2())
    ideal = theta.order.downset(1)
    restricted = restrict_global(theta, ideal)
    lying = make_action(
        restricted.actor,
        restricted.carrier_names,
        restricted.maps,
        order=restricted.order,
        global_flag=True,
    )
    ve = validate_partial_action_E(lying)
    vp = validate_partial_action_P(lying)
    assert ve is not None and ve.code == "GlobalEqualityFailure"
    assert vp is not None and vp.code == "GlobalEqualityFailure"


def test_restrict_requires_global_flag():
    theta = munn_action(corpus.brandt_b2())
    partial = restrict_global(theta, theta.order.downset(1))
    with pytest.raises(ValidationError) as err:
        restrict_global(partial, {0})
    assert err.value.code == "NotGlobalOrdered"


def test_malformed_action_shapes():
    trivial = corpus.trivial_monoid()
    with pytest.raises(ValidationError) as err:
        make_action(trivial, ("x",), [{3: 0}])
    assert err.value.code == "MalformedAction"
    with pytest.raises(ValidationError) as err:
        make_action(trivial, ("x",), [{0: 9}])
    assert err.value.code == "MalformedAction"
    with pytest.raises(ValidationError) as err:
        make_action(trivial, ("x",), [{0: 0}], order=chain_poset(2))
    assert err.value.code == "MalformedAction"
    # a key or value one step outside 0..k-1, on the second arrow
    c2 = corpus.chain2()
    for bad_map, detail in (
        ({-1: 0}, "map key out of range"),
        ({0: 0, 2: 1}, "map key out of range"),
        ({0: -1}, "map value out of range"),
        ({0: 1, 1: 2}, "map value out of range"),
    ):
        with pytest.raises(ValidationError) as err:
            make_action(c2, ("x", "y"), [{0: 0, 1: 1}, bad_map])
        assert (err.value.code, err.value.witness, err.value.detail) == (
            "MalformedAction", (1,), detail
        )
        assert str(err.value) == f"MalformedAction(1,): {detail}"


def test_inverse_not_preserved():
    from semigroupoids.inverse import check_partial_morphism

    b2 = corpus.brandt_b2()
    f = [0, 1, 3, 3, 4]  # send a* to aa*, breaking the involution square
    v = check_partial_morphism(f, b2, b2)
    assert v is not None and v.code == "InverseNotPreserved"
    assert v.witness == (1,)


def test_submultiplicativity_composability_branch():
    from semigroupoids.inverse import check_partial_morphism

    c2 = corpus.chain2()
    disc = corpus.discrete_groupoid(2)
    v = check_partial_morphism([0, 1], c2, disc)
    assert v is not None and v.code == "SubmultiplicativityFailure"
    assert v.witness == (0, 1)


def test_submultiplicativity_value_branch():
    from semigroupoids.inverse import check_partial_morphism

    b2 = corpus.brandt_b2()
    f = [0, 1, 2, 0, 4]  # crush a a* to zero: phi(a) phi(a*) lies above it
    v = check_partial_morphism(f, b2, b2)
    assert v is not None and v.code == "SubmultiplicativityFailure"
    assert v.witness == (1, 2)


def test_equivariant_misuse_errors():
    from semigroupoids.actions import EquivariantMap, check_equivariant

    theta = munn_action(corpus.chain2())
    other = munn_action(corpus.brandt_b2())
    with pytest.raises(ValidationError):
        check_equivariant(EquivariantMap(theta, other, (0, 0)))
    with pytest.raises(ValidationError):
        check_equivariant(EquivariantMap(theta, theta, (0,)))
    unordered = make_action(theta.actor, theta.carrier_names, theta.maps)
    with pytest.raises(ValidationError):
        check_equivariant(
            EquivariantMap(unordered, unordered, (0, 1)), ordered=True
        )


def test_inverse_not_equivariant_on_non_bijection():
    from semigroupoids.actions import EquivariantMap, check_equivariant

    theta = munn_action(corpus.chain2())
    collapse = EquivariantMap(theta, theta, (1, 1))
    assert check_equivariant(collapse) is None  # plain equivariance holds
    v = check_equivariant(collapse, equivalence=True)
    assert v is not None and v.code == "InverseNotEquivariant"


def test_triple_failure_gates():
    from semigroupoids.ptheorem import McAlisterTriple, validate_mcalister_triple

    pg = corpus.pair_groupoid(2)
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1)
    gstar = pg.inv[g]
    from semigroupoids.posets import discrete_poset

    order = discrete_poset(2, ("p", "q"))
    swap = make_action(
        pg,
        ("p", "q"),
        [
            {0: 0} if s == loops[0] else {1: 1} if s == loops[1]
            else {0: 1} if s == g else {1: 0}
            for s in pg.arrows()
        ],
        order=order,
        global_flag=True,
    )
    # the one-point ideal generates the space but never meets its translate
    with pytest.raises(ValidationError) as err:
        validate_mcalister_triple(
            McAlisterTriple(pg, order, frozenset({0}), swap)
        )
    assert err.value.code == "TripleMeetFailure"
    assert err.value.witness in ((g,), (gstar,))

    fiber = corpus.fiber_shift_action()
    with pytest.raises(ValidationError) as err:
        validate_mcalister_triple(
            McAlisterTriple(fiber.actor, fiber.order, frozenset({0}), fiber)
        )
    assert err.value.code == "TripleOrbitFailure"
    with pytest.raises(ValidationError) as err:
        validate_mcalister_triple(
            McAlisterTriple(fiber.actor, fiber.order, frozenset({1}), fiber)
        )
    assert err.value.code == "TripleIdealFailure"


def test_mcalister_from_action_rejects_empty_domain():
    from semigroupoids.posets import discrete_poset
    from semigroupoids.ptheorem import mcalister_from_action

    pg = corpus.pair_groupoid(2)
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    maps = [
        {0: 0} if s == loops[0] else {1: 1} if s == loops[1] else {}
        for s in pg.arrows()
    ]
    a = make_action(
        pg, ("p", "q"), maps, order=discrete_poset(2, ("p", "q"))
    )
    latt = semilatticeoid_from_poset(a.order)
    with pytest.raises(ValidationError) as err:
        mcalister_from_action(a, latt)
    assert err.value.code == "EmptyDomain"


def test_actor_mismatch_gates():
    from semigroupoids.ptheorem import induced_sigma_action, semidirect_product

    c2 = corpus.chain2()
    other = munn_action(corpus.cyclic_group(2))
    with pytest.raises(ValidationError) as err:
        induced_sigma_action(is_e_unitary(c2), other)
    assert err.value.code == "MalformedAction"

    theta = munn_action(corpus.chain2())
    from semigroupoids.ptheorem import idempotent_semilatticeoid

    wrong_latt = idempotent_semilatticeoid(corpus.brandt_b2())
    with pytest.raises(ValidationError) as err:
        semidirect_product(theta, wrong_latt)
    assert err.value.code == "MalformedAction"


def test_gen_sa_requires_one_object_base():
    with pytest.raises(ValidationError) as err:
        corpus.gen_SA(corpus.pair_groupoid(2), 2)
    assert err.value.code == "MalformedTable"
    with pytest.raises(ValidationError):
        corpus.gen_SA(corpus.chain2(), 0)
