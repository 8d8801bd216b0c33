"""Munn action, induced action of the quotient groupoid, semidirect
products, McAlister triples, and the reconstruction isomorphism."""

from collections import Counter
from functools import wraps

import pytest

from semigroupoids import actions, congruences, corpus
from semigroupoids.actions import (
    EquivariantMap,
    check_equivariant,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from semigroupoids.congruences import is_e_unitary, sigma
from semigroupoids.errors import ValidationError
from semigroupoids.inverse import is_groupoid, is_strong_morphism, promote_to_inverse
from semigroupoids.posets import semilatticeoid_from_poset
from semigroupoids.ptheorem import (
    check_e_unitary_preservation,
    idempotent_semilatticeoid,
    induced_sigma_action,
    mcalister_from_action,
    munn_action,
    ptheorem_bundle,
    semidirect_product,
    triple_restriction,
    validate_mcalister_triple,
)


def two_fiber_groupoid_action():
    """The pair groupoid shifting one chain fiber onto another."""
    pg = corpus.pair_groupoid(2)
    # carrier: two 2-chains, one per object: a0 < a1 (fiber u), b0 < b1 (fiber v)
    from semigroupoids.posets import validate_poset

    order = validate_poset(
        [(0, 1), (2, 3)], 4, names=("a0", "a1", "b0", "b1"), auto_close=True
    )
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1)
    gstar = pg.inv[g]
    maps = {
        loops[0]: {0: 0, 1: 1},
        loops[1]: {2: 2, 3: 3},
        g: {0: 2, 1: 3},
        gstar: {2: 0, 3: 1},
    }
    from semigroupoids.actions import make_action

    action = make_action(
        pg,
        ("a0", "a1", "b0", "b1"),
        [maps[s] for s in pg.arrows()],
        order=order,
        global_flag=True,
    )
    latt = semilatticeoid_from_poset(action.order)
    return pg, action, latt


def test_munn_chain2_domains_and_maps():
    c2 = corpus.chain2()
    theta = munn_action(c2)
    assert theta.domains == (frozenset({0, 1}), frozenset({1}))
    assert theta.maps[0] == {0: 0, 1: 1}
    assert theta.maps[1] == {1: 1}


def test_munn_groupoid_singletons():
    pg = corpus.pair_groupoid(2)
    theta = munn_action(pg)
    pos = {e: i for i, e in enumerate(pg.idempotents)}
    mul = pg.base.mul
    for s in pg.arrows():
        top = mul[s][pg.inv[s]]
        assert theta.domains[s] == frozenset({pos[top]})


def test_munn_b2_action_of_a():
    b2 = corpus.brandt_b2()
    theta = munn_action(b2)
    idems = b2.idempotents  # (0, aa*, a*a)
    pos = {e: i for i, e in enumerate(idems)}
    a = 1
    sg = b2.base
    mul = sg.mul
    # oracle: evaluate s e s* through the table for every e below a a*
    for i in theta.domains[b2.inv[a]]:
        e = idems[i]
        expected = mul[mul[a][e]][b2.inv[a]]
        assert theta.maps[a][i] == pos[expected]
    asa = pos[mul[b2.inv[a]][a]]
    aas = pos[mul[a][b2.inv[a]]]
    zero = pos[0]
    assert theta.maps[a] == {asa: aas, zero: zero}


def test_munn_is_tight(structures):
    for name, s in structures:
        theta = munn_action(s)
        sg = s.base
        mul = sg.mul
        for a in s.arrows():
            e = mul[a][s.inv[a]]
            assert theta.domains[a] == theta.domains[e], name


def test_induced_action_on_groupoid_is_theta():
    pg = corpus.pair_groupoid(2)
    theta = munn_action(pg)
    alpha = induced_sigma_action(is_e_unitary(pg), theta)
    # sigma is equality on a groupoid, so nothing is glued
    assert alpha.domains == theta.domains
    assert alpha.maps == theta.maps


def test_induced_action_chain2():
    c2 = corpus.chain2()
    alpha = induced_sigma_action(is_e_unitary(c2), munn_action(c2))
    assert alpha.actor.n_arrows == 1
    assert alpha.domains == (frozenset({0, 1}),)
    assert alpha.maps[0] == {0: 0, 1: 1}


def test_induced_action_requires_e_unitary():
    b2 = corpus.brandt_b2()
    with pytest.raises(ValidationError) as err:
        induced_sigma_action(is_e_unitary(b2), munn_action(b2))
    assert err.value.code == "NotEUnitary"


def test_induced_action_validates_small(small_structures):
    for s in small_structures:
        if not is_e_unitary(s).verdict:
            continue
        alpha = induced_sigma_action(is_e_unitary(s), munn_action(s))
        assert validate_partial_action_E(alpha) is None
        assert validate_partial_action_P(alpha) is None


def test_semidirect_trivial_on_point():
    trivial = corpus.trivial_monoid()
    bundle = ptheorem_bundle(trivial)
    assert bundle.semidirect.product.n_arrows == 1


def test_semidirect_chain2_reconstruction():
    c2 = corpus.chain2()
    bundle = ptheorem_bundle(c2)
    product = bundle.semidirect.product
    assert product.n_arrows == 2
    assert product.base.mul == c2.base.mul
    assert bundle.morphism.arrow_map == (0, 1)


def test_semidirect_idempotents_are_tagged_pairs(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures[:20]
    for s in pool:
        if not is_e_unitary(s).verdict:
            continue
        bundle = ptheorem_bundle(s)
        sdp = bundle.semidirect
        actor_idems = set(sdp.action.actor.idempotents)
        expected = {
            i
            for i, (q, _x) in enumerate(sdp.arrow_pairs)
            if q in actor_idems
        }
        assert set(sdp.product.idempotents) == expected


def test_semidirect_rejects_empty_domain():
    # a valid partial action of the pair groupoid moving nothing across
    # objects: the cross arrows have empty domains
    pg = corpus.pair_groupoid(2)
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1)
    gstar = pg.inv[g]
    from semigroupoids.actions import make_action
    from semigroupoids.posets import discrete_poset

    maps = {loops[0]: {0: 0}, loops[1]: {1: 1}, g: {}, gstar: {}}
    a = make_action(
        pg,
        ("p", "q"),
        [maps[s] for s in pg.arrows()],
        order=discrete_poset(2, ("p", "q")),
    )
    assert validate_partial_action_E(a) is None
    latt = semilatticeoid_from_poset(a.order)
    with pytest.raises(ValidationError) as err:
        semidirect_product(a, latt)
    assert err.value.code == "EmptyDomain"
    assert err.value.witness == (min(g, gstar),)


def test_e_unitary_preservation(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures[:20]
    for s in pool:
        if not is_e_unitary(s).verdict:
            continue
        bundle = ptheorem_bundle(s)
        assert check_e_unitary_preservation(bundle.semidirect)


def test_groupoid_semidirect_always_e_unitary():
    pg, action, latt = two_fiber_groupoid_action()
    sdp = semidirect_product(action, latt)
    assert is_e_unitary(sdp.product).verdict
    assert check_e_unitary_preservation(sdp)


def test_triple_from_global_action_is_isomorphic_copy():
    pg, action, latt = two_fiber_groupoid_action()
    triple = mcalister_from_action(action, latt)
    assert len(triple.ideal) == action.carrier_size
    assert triple.space.size == action.carrier_size


def test_triple_from_partial_groupoid_action():
    pg, action, latt = two_fiber_groupoid_action()
    partial = restrict_global(action, {0, 1, 2})  # drop the top of one fiber
    small_latt = semilatticeoid_from_poset(partial.order)
    triple = mcalister_from_action(partial, small_latt)
    validate_mcalister_triple(triple)
    assert triple.space.size >= len(triple.ideal)


def test_triple_restriction_recovers_action():
    pg, action, latt = two_fiber_groupoid_action()
    partial = restrict_global(action, {0, 1, 2})
    small_latt = semilatticeoid_from_poset(partial.order)
    from semigroupoids.globalization import globalize

    result = globalize(partial)
    triple = mcalister_from_action(partial, small_latt)
    restricted = triple_restriction(triple)
    position = {c: i for i, c in enumerate(sorted(triple.ideal))}
    f = tuple(position[c] for c in result.embed)
    assert (
        check_equivariant(
            EquivariantMap(partial, restricted, f), ordered=True, equivalence=True
        )
        is None
    )
    for g in pg.arrows():
        assert restricted.domains[g]


def test_triple_requires_groupoid():
    c2 = corpus.chain2()
    theta = munn_action(c2)
    latt = idempotent_semilatticeoid(c2)
    with pytest.raises(ValidationError) as err:
        mcalister_from_action(theta, latt)
    assert err.value.code == "NotGroupoid"


def test_ptheorem_groupoid_product_isomorphic():
    pg = corpus.pair_groupoid(2)
    bundle = ptheorem_bundle(pg)
    assert bundle.semidirect.product.n_arrows == pg.n_arrows
    assert is_groupoid(bundle.semidirect.product)


def test_ptheorem_requires_e_unitary():
    with pytest.raises(ValidationError) as err:
        ptheorem_bundle(corpus.brandt_b2())
    assert err.value.code == "NotEUnitary"


def test_ptheorem_bundle_runs_each_self_check_once(structures, monkeypatch):
    # sigma's congruence check once; E and P's own clauses once on the
    # Munn action and once on the induced action, with the order clauses
    # common to both once on each; the public P is not called; the
    # verdict is decided on a separate promotion, so the bundle derives
    # its own sigma
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(congruences, "validate_congruence")
    counting(actions, "validate_partial_action_E")
    counting(actions, "validate_partial_action_P")
    counting(actions, "_first_violation_P")
    counting(actions, "_ordered_clauses")
    for name, s in structures:
        if not is_e_unitary(promote_to_inverse(s.base)).verdict:
            continue
        calls.clear()
        ptheorem_bundle(s)
        assert calls == {
            "validate_congruence": 1,
            "validate_partial_action_E": 2,
            "_first_violation_P": 2,
            "_ordered_clauses": 2,
        }, name


def test_ptheorem_small_structures(small_structures):
    for s in small_structures:
        if not is_e_unitary(s).verdict:
            continue
        phi = ptheorem_bundle(s).morphism
        assert is_strong_morphism(phi)
        assert len(set(phi.arrow_map)) == s.n_arrows == phi.target.n_arrows


def test_ptheorem_sa_fixture():
    sa = corpus.gen_SA(corpus.chain2(), 2)
    assert is_e_unitary(sa).verdict
    phi = ptheorem_bundle(sa).morphism
    assert len(set(phi.arrow_map)) == sa.n_arrows == phi.target.n_arrows


def test_ptheorem_larger_generated_fixtures():
    # a chain-based spread (12 arrows) and a three-point fiber structure
    for s in (
        corpus.gen_SA(corpus.chain_semilattice(3), 2),
        corpus.gen_Jpi([0, 0, 1]),
    ):
        cert = is_e_unitary(s)
        if cert.verdict:
            phi = ptheorem_bundle(s).morphism
            assert len(set(phi.arrow_map)) == s.n_arrows
        theta = munn_action(s)
        assert validate_partial_action_E(theta) is None
        from semigroupoids.globalization import check_lemma_tec, globalize

        assert check_lemma_tec(globalize(theta)) == []


def test_lemma_sts_on_e_unitary_fixtures(structures):
    from semigroupoids.congruences import check_lemma_sts

    for name, s in structures:
        if is_e_unitary(s).verdict:
            assert check_lemma_sts(is_e_unitary(s)), name


def test_ptheorem_inverse_map_is_morphism(small_structures):
    # the inverse of the reconstruction map validates as a morphism,
    # witnessing a genuine isomorphism
    from semigroupoids.core import validate_morphism

    pool = [s for s in small_structures if is_e_unitary(s).verdict]
    for s in pool[:15] + [corpus.gen_SA(corpus.chain2(), 2)]:
        phi = ptheorem_bundle(s).morphism
        back = [0] * len(phi.arrow_map)
        for a, b in enumerate(phi.arrow_map):
            back[b] = a
        validate_morphism(phi.target, phi.source, back)


def test_classical_one_object_product_identity(structures):
    # on one-object groupoid actors with a global action, the two ways
    # of writing the pair product's second slot coincide:
    # theta at h* of (x meet theta_h(y)) equals (theta at h* of x) meet y
    for _name, s in structures:
        if s.n_objects != 1 or not is_groupoid(s):
            continue
        theta = munn_action(s)
        latt = idempotent_semilatticeoid(s)
        for h in s.arrows():
            back = theta.maps[s.inv[h]]
            fwd = theta.maps[h]
            for xi in theta.domains[h]:
                for yi in theta.domains[s.inv[h]]:
                    lhs = back[latt.meet(xi, fwd[yi])]
                    rhs = latt.meet(back[xi], yi)
                    assert lhs == rhs
