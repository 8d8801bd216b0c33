"""Posets, ideals, order isomorphisms, semilatticeoids."""

import pytest
from hypothesis import given, strategies as st

from semigroupoids import corpus
from semigroupoids.errors import ValidationError
from semigroupoids.posets import (
    chain_poset,
    check_order_iso,
    comparability_components,
    discrete_poset,
    is_order_ideal,
    semilatticeoid_from_poset,
    validate_poset,
    validate_semilatticeoid,
)


def test_chain_of_three_valid():
    p = chain_poset(3)
    assert p.le(0, 2) and not p.le(2, 0)
    assert p.hasse_edges() == [(0, 1), (1, 2)]


def test_antisymmetry_failure():
    with pytest.raises(ValidationError) as err:
        validate_poset([(0, 0), (1, 1), (0, 1), (1, 0)], 2)
    assert err.value.code == "AntisymmetryFailure"


def test_missing_transitive_edge_flagged_and_auto_closed():
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
    with pytest.raises(ValidationError) as err:
        validate_poset(pairs, 3)
    assert err.value.code == "TransitivityFailure"
    closed = validate_poset([(0, 1), (1, 2)], 3, auto_close=True)
    assert closed.le(0, 2)


def test_order_ideal_edge_cases():
    c2 = corpus.chain2()
    order = c2.order  # f (index 1) below e (index 0)
    assert is_order_ideal(order, set())
    assert is_order_ideal(order, {0, 1})
    assert is_order_ideal(order, {1})
    assert not is_order_ideal(order, {0})


def test_order_ideal_rejects_points_outside_the_poset():
    order = corpus.chain2().order
    assert not is_order_ideal(order, {5})
    # -1 must not wrap round to the last point
    assert not is_order_ideal(order, {-1, 0, 1})


def test_downsets_are_ideals():
    p = chain_poset(4)
    for y in p.elements():
        down = p.downset(y)
        # oracle: check all pairs directly
        for b in down:
            for a in p.elements():
                if p.le(a, b):
                    assert a in down
        assert is_order_ideal(p, down)


@given(st.data())
def test_ideals_closed_under_union_and_intersection(data):
    p = chain_poset(3) if data.draw(st.booleans()) else corpus.brandt_b2().order
    def draw_ideal():
        seeds = data.draw(st.sets(st.integers(0, p.size - 1)))
        ideal = set()
        for y in seeds:
            ideal |= p.downset(y)
        return ideal

    a, b = draw_ideal(), draw_ideal()
    assert is_order_ideal(p, a) and is_order_ideal(p, b)
    assert is_order_ideal(p, a | b)
    assert is_order_ideal(p, a & b)


def test_order_iso_identity_and_constant():
    p = chain_poset(3)
    assert check_order_iso([0, 1, 2], p, p)
    assert not check_order_iso([0, 0, 0], p, p)


def test_order_iso_two_chains():
    p = chain_poset(2)
    q = chain_poset(2)
    assert check_order_iso([0, 1], p, q)
    assert not check_order_iso([1, 0], p, q)


def test_chain2_is_semilatticeoid():
    latt = validate_semilatticeoid(corpus.chain2())
    assert len(latt.fibers) == 1
    assert latt.meet(0, 1) == 1


def test_two_fiber_semilatticeoid():
    latt = validate_semilatticeoid(corpus.two_fiber_semilatticeoid())
    assert len(latt.fibers) == 2
    assert latt.fibers == ((0, 1), (2,))
    # fiber-wise glb oracle
    order = latt.order
    for x in (0, 1):
        for y in (0, 1):
            lower = [z for z in (0, 1) if order.le(z, x) and order.le(z, y)]
            best = max(lower, key=lambda z: sum(order.le(w, z) for w in lower))
            assert latt.meet(x, y) == best


def test_pair_groupoid_not_semilatticeoid():
    with pytest.raises(ValidationError) as err:
        validate_semilatticeoid(corpus.pair_groupoid(2))
    assert err.value.code == "NonIdempotentArrow"
    assert err.value.witness == (1,)


def test_vee_products_are_meets():
    vee = corpus.vee_semilattice()
    latt = validate_semilatticeoid(vee)
    order = vee.order
    # independent brute-force glb scan
    for x in range(3):
        for y in range(3):
            lower = [z for z in range(3) if order.le(z, x) and order.le(z, y)]
            glbs = [w for w in lower if all(order.le(z, w) for z in lower)]
            assert len(glbs) == 1
            assert latt.meet(x, y) == glbs[0]


def test_semilatticeoid_from_poset_roundtrip():
    latt = validate_semilatticeoid(corpus.two_fiber_semilatticeoid())
    rebuilt = semilatticeoid_from_poset(latt.order)
    assert rebuilt.base.order.leq == latt.order.leq
    assert rebuilt.base.base.mul == latt.base.base.mul


def test_semilatticeoid_from_poset_rejects_missing_meets():
    # two maximal elements with no common lower bound in one component
    pairs = [(0, 2), (1, 2)]  # 0 <= 2, 1 <= 2: component {0,1,2}, glb(0,1) missing
    p = validate_poset(pairs, 3, auto_close=True)
    assert comparability_components(p) == [[0, 1, 2]]
    with pytest.raises(ValidationError) as err:
        semilatticeoid_from_poset(p)
    assert err.value.code == "ProductNotMeet"


def test_discrete_poset_components():
    p = discrete_poset(3)
    assert comparability_components(p) == [[0], [1], [2]]
