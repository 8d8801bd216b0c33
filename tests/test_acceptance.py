"""Acceptance criteria, one test per criterion.

Every criterion is exact (no numeric tolerance) with a wall-clock budget;
each test prints a single [PASS]/[FAIL] line (visible with pytest -s).
All structure sweeps run over the exhaustively enumerated corpus at the
stated sizes plus the named fixtures.
"""

import time

import pytest

from semigroupoids import corpus
from semigroupoids.actions import (
    EquivariantMap,
    check_equivariant,
    disjoint_union_actions,
    point_action,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from semigroupoids.congruences import (
    is_e_unitary,
    quotient,
    sigma,
    sigma_by_equations,
    sigma_by_lower_bounds,
)
from semigroupoids.globalization import check_lemma_tec, globalize, universal_map
from semigroupoids.inverse import is_groupoid, is_strong_morphism
from semigroupoids.posets import is_order_ideal, semilatticeoid_from_poset
from semigroupoids.ptheorem import (
    check_e_unitary_preservation,
    idempotent_semilatticeoid,
    mcalister_from_action,
    munn_action,
    ptheorem_bundle,
    semidirect_product,
    triple_restriction,
)


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    line = f"[PASS] criterion {num}: {label} ({elapsed:.1f}s < {budget}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def _enumerated(max_arrows):
    return list(corpus.enumerate_inverse_semigroupoids(max_arrows))


def test_criterion_1_axiom_set_equivalence():
    t0 = time.time()
    candidates = corpus.action_candidates(
        max_actor_arrows=4, max_carrier=4, seed=0, random_per_actor=40
    )
    candidates += [a for _n, a in corpus.action_corpus()]
    checked = 0
    for a in candidates:
        ve = validate_partial_action_E(a)
        vp = validate_partial_action_P(a)
        assert (ve is None) == (vp is None), (ve, vp)
        checked += 1
    assert checked > 500
    _report(1, f"E/P validators agree on {checked} candidates", t0, 60)


def test_criterion_2_sigma_three_way_agreement():
    t0 = time.time()
    pool = _enumerated(5) + [s for _n, s in corpus.structure_corpus()]
    for s in pool:
        direct = sigma(s)
        equational = sigma_by_equations(s)
        definitional = sigma_by_lower_bounds(s)
        assert direct.rep == equational.rep
        assert direct.rep == definitional.rep
        q, _ = quotient(s, direct)
        assert is_groupoid(q)
    _report(2, f"sigma computations coincide on {len(pool)} structures", t0, 120)


def test_criterion_3_e_unitarity_five_way():
    t0 = time.time()
    pool = _enumerated(5) + [s for _n, s in corpus.structure_corpus()]
    for s in pool:
        cert = is_e_unitary(s)  # internally asserts the five-way agreement
        assert len(set(cert.conditions)) == 1
    b2 = corpus.brandt_b2()
    cert = is_e_unitary(b2)
    assert not cert.verdict
    assert tuple(b2.base.arrow_names[w] for w in cert.witness) == ("0", "a")
    for _name, s in corpus.structure_corpus():
        if is_groupoid(s) or set(s.idempotents) == set(s.arrows()):
            assert is_e_unitary(s).verdict
    _report(3, f"five conditions agree on {len(pool)} structures", t0, 60)


def test_criterion_4_globalization_contract():
    t0 = time.time()
    actions = corpus.action_corpus()
    for name, a in actions:
        r = globalize(a)
        env = r.envelope
        assert env.global_flag
        assert validate_partial_action_E(env) is None, name
        assert validate_partial_action_P(env) is None, name
        assert len(set(r.embed)) == a.carrier_size
        for x in range(a.carrier_size):
            for y in range(a.carrier_size):
                assert a.order.leq[x][y] == r.envelope.order.leq[r.embed[x]][r.embed[y]]
        assert is_order_ideal(r.envelope.order, set(r.embed))
        restricted = restrict_global(env, set(r.embed))
        position = {c: i for i, c in enumerate(sorted(set(r.embed)))}
        f = tuple(position[c] for c in r.embed)
        assert (
            check_equivariant(
                EquivariantMap(a, restricted, f), ordered=True, equivalence=True
            )
            is None
        ), name
        from semigroupoids.actions import orbit

        assert orbit(env, set(r.embed)) == frozenset(range(r.n_classes))
        assert check_lemma_tec(r) == [], name
    _report(4, f"globalization contract on {len(actions)} ordered actions", t0, 120)


def test_criterion_5_universality():
    t0 = time.time()
    count = 0
    for _name, a in corpus.action_corpus():
        r = globalize(a)
        targets = [
            (r.envelope, r.embed),
            (point_action(a.actor), tuple(0 for _ in range(a.carrier_size))),
            (
                disjoint_union_actions(r.envelope, point_action(a.actor)),
                r.embed,
            ),
        ]
        for target, j in targets:
            k = universal_map(r, target, j)
            for x in range(a.carrier_size):
                assert k.f[r.embed[x]] == j[x]
            assert (
                check_equivariant(
                    EquivariantMap(r.envelope, target, k.f), ordered=True
                )
                is None
            )
            count += 1
    assert count >= 50
    _report(5, f"mediating maps unique on {count} (action, target, map) triples", t0, 120)


def test_criterion_6_semidirect_soundness():
    t0 = time.time()
    built = 0
    # semidirect products arising from the reconstruction of every small
    # E-unitary structure, plus direct groupoid-on-semilatticeoid builds
    for s in _enumerated(4) + [x for _n, x in corpus.structure_corpus()]:
        if not is_e_unitary(s).verdict:
            continue
        bundle = ptheorem_bundle(s)  # validates the product table + inverse
        sdp = bundle.semidirect
        actor_idems = set(sdp.action.actor.idempotents)
        expected = {
            i for i, (q, _x) in enumerate(sdp.arrow_pairs) if q in actor_idems
        }
        assert set(sdp.product.idempotents) == expected
        assert check_e_unitary_preservation(sdp)
        assert is_e_unitary(sdp.product).verdict
        built += 1
    for s in [corpus.pair_groupoid(2), corpus.discrete_groupoid(2)]:
        theta = munn_action(s)
        sdp = semidirect_product(theta, idempotent_semilatticeoid(s))
        assert is_e_unitary(sdp.product).verdict
        built += 1
    _report(6, f"{built} semidirect products validated", t0, 60)


def test_criterion_7_ptheorem_reproduction():
    t0 = time.time()
    pool = _enumerated(5) + [s for _n, s in corpus.structure_corpus()]
    pool += [corpus.gen_SA(corpus.chain2(), 2), corpus.gen_SA(corpus.cyclic_group(2), 3)]
    done = 0
    for s in pool:
        if not is_e_unitary(s).verdict:
            continue
        bundle = ptheorem_bundle(s)
        phi = bundle.morphism
        assert is_strong_morphism(phi)
        assert len(set(phi.arrow_map)) == s.n_arrows
        assert set(phi.arrow_map) == set(range(bundle.semidirect.product.n_arrows))
        done += 1
    _report(7, f"reconstruction isomorphism on {done} E-unitary structures", t0, 120)


def test_criterion_8_munn_validity():
    t0 = time.time()
    pool = _enumerated(5) + [s for _n, s in corpus.structure_corpus()]
    for s in pool:
        theta = munn_action(s)  # construction asserts both validators
        sg = s.base
        mul = sg.mul
        for a in s.arrows():
            e = mul[a][s.inv[a]]
            assert theta.domains[a] == theta.domains[e]
    _report(8, f"Munn action valid and tight on {len(pool)} structures", t0, 30)


def test_criterion_9_triple_round_trip():
    t0 = time.time()
    done = 0
    pool = corpus.groupoid_action_corpus() + [
        (name, a)
        for name, a in corpus.action_corpus()
        if is_groupoid(a.actor) and all(a.domains)
    ]
    for name, a in pool:
        latt = semilatticeoid_from_poset(a.order)
        triple = mcalister_from_action(a, latt)
        restricted = triple_restriction(triple)
        r = globalize(a)
        position = {c: i for i, c in enumerate(sorted(triple.ideal))}
        f = tuple(position[c] for c in r.embed)
        assert (
            check_equivariant(
                EquivariantMap(a, restricted, f), ordered=True, equivalence=True
            )
            is None
        ), name
        done += 1
    assert done >= 10
    _report(9, f"triple round-trip on {done} groupoid actions", t0, 60)
