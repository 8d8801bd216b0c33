"""Validated multiplication tables and semigroupoid morphisms."""

import pytest

from semigroupoids import corpus
from semigroupoids.core import (
    NOT_COMPOSABLE,
    compose_morphisms,
    identity_morphism,
    validate_morphism,
    validate_semigroupoid,
)
from semigroupoids.errors import ValidationError


def pair_groupoid_table():
    # arrows: 1u=0, g(u->v)=1, h(v->u)=2, 1v=3
    dom = [0, 0, 1, 1]
    cod = [0, 1, 0, 1]
    triples = [
        (0, 0, 0),
        (0, 2, 2),
        (1, 0, 1),
        (1, 2, 3),
        (2, 1, 0),
        (2, 3, 2),
        (3, 1, 1),
        (3, 3, 3),
    ]
    return dom, cod, triples


def test_trivial_monoid_valid():
    sg = validate_semigroupoid([0], [0], [(0, 0, 0)])
    assert sg.n_arrows == 1 and sg.n_objects == 1
    assert sg.mul[0][0] == 0


def test_pair_groupoid_valid_with_bruteforce_associativity():
    dom, cod, triples = pair_groupoid_table()
    sg = validate_semigroupoid(dom, cod, triples)
    # independent oracle: walk all <= 64 triples directly on the table
    for r in range(4):
        for s in range(4):
            for t in range(4):
                if dom[r] != cod[s] or dom[s] != cod[t]:
                    continue
                rs = sg.mul[r][s]
                st = sg.mul[s][t]
                assert sg.mul[rs][t] == sg.mul[r][st]


def test_noncomposable_product_rejected():
    dom, cod, triples = pair_groupoid_table()
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid(dom, cod, triples + [(1, 1, 0)])
    assert err.value.code == "DefinedOnNonComposablePair"
    assert err.value.witness == (1, 1)


def test_missing_product_rejected():
    dom, cod, triples = pair_groupoid_table()
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid(dom, cod, triples[1:])
    assert err.value.code == "UndefinedOnComposablePair"
    assert err.value.witness == (0, 0)


def test_domcod_mismatch_rejected():
    # two loops at separate objects; declaring a*a = b breaks the graph law
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0, 1], [0, 1], [(0, 0, 1), (1, 1, 1)])
    assert err.value.code == "DomCodMismatch"
    assert err.value.witness == (0, 0)


def test_associativity_failure_smallest_witness():
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0, 0], [0, 0], triples)
    assert err.value.code == "AssociativityFailure"
    assert err.value.witness == (1, 0, 1)


def test_orphan_object_rejected():
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0], [0], [(0, 0, 0)], n_objects=2)
    assert err.value.code == "OrphanObject"
    assert err.value.witness == (1,)


def test_identity_morphism_valid(structures):
    for _name, s in structures:
        phi = validate_morphism(s.base, s.base, list(range(s.n_arrows)))
        assert phi.arrow_map == tuple(range(s.n_arrows))


def test_collapse_chain2_valid():
    chain2 = corpus.chain2().base
    trivial = validate_semigroupoid([0], [0], [(0, 0, 0)])
    phi = validate_morphism(chain2, trivial, [0, 0])
    # oracle: all four products collapse consistently
    for s in range(2):
        for t in range(2):
            assert phi.arrow_map[chain2.mul[s][t]] == 0


def test_swap_not_multiplicative():
    chain2 = corpus.chain2().base
    with pytest.raises(ValidationError) as err:
        validate_morphism(chain2, chain2, [1, 0])
    assert err.value.code == "NotMultiplicative"
    assert err.value.witness == (0, 1)


def test_morphism_composition_closed(structures):
    chain2 = corpus.chain2().base
    trivial = validate_semigroupoid([0], [0], [(0, 0, 0)])
    f = validate_morphism(chain2, chain2, [0, 1])
    g = validate_morphism(chain2, trivial, [0, 0])
    comp = compose_morphisms(g, f)
    assert comp.arrow_map == (0, 0)
    for _name, s in structures:
        ident = identity_morphism(s.base)
        assert compose_morphisms(ident, ident).arrow_map == ident.arrow_map


def test_mul_sentinel_matches_graph(structures):
    for _name, s in structures:
        sg = s.base
        for a in sg.arrows():
            for b in sg.arrows():
                assert (sg.mul[a][b] == NOT_COMPOSABLE) == (sg.dom[a] != sg.cod[b])
