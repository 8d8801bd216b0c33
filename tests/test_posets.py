"""Posets, ideals, order isomorphisms, semilatticeoids."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from semigroupoids import corpus
from semigroupoids.errors import ValidationError
from semigroupoids.posets import (
    FinitePoset,
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


@pytest.mark.parametrize("f", [(0, 0), (0, 2)])
def test_order_iso_rejects_a_repeat_or_out_of_range_value(f):
    # on an antichain (0, 0) carries each up-set onto an up-set, so only
    # the injectivity test rejects it; (0, 2) would index past the target
    a = discrete_poset(2)
    assert check_order_iso(f, a, a) is False


def test_chain2_is_semilatticeoid():
    latt = validate_semilatticeoid(corpus.chain2())
    assert {latt.fiber_of(x) for x in range(latt.n_arrows)} == {0}
    assert latt.meet(0, 1) == 1


def test_two_fiber_semilatticeoid():
    latt = validate_semilatticeoid(corpus.two_fiber_semilatticeoid())
    assert [latt.fiber_of(x) for x in range(latt.n_arrows)] == [0, 0, 1]
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


def triple_loop_poset(pairs, size, auto_close):
    """``validate_poset`` by full loops over every point: ("ok", leq), or
    the first failure as (code, witness)."""
    leq = [[False] * size for _ in range(size)]
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            return ("MalformedRelation", (x, y))
        leq[x][y] = True
    if auto_close:
        for x in range(size):
            leq[x][x] = True
        for y in range(size):
            for x in range(size):
                for z in range(size):
                    if leq[x][y] and leq[y][z]:
                        leq[x][z] = True
    else:
        for x in range(size):
            if not leq[x][x]:
                return ("ReflexivityFailure", (x,))
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if leq[x][y] and leq[y][z] and not leq[x][z]:
                        return ("TransitivityFailure", (x, y, z))
    for x in range(size):
        for y in range(size):
            if x < y and leq[x][y] and leq[y][x]:
                return ("AntisymmetryFailure", (x, y))
    return ("ok", tuple(tuple(row) for row in leq))


@st.composite
def relations(draw):
    size = draw(st.integers(0, 6))
    point = st.integers(0, size - 1) if size else st.nothing()
    pairs = draw(st.lists(st.tuples(point, point), max_size=3 * size))
    if draw(st.booleans()):
        pairs += [(x, x) for x in range(size)]
    if draw(st.booleans()):
        # the diagonal and one composition step, so that antisymmetry
        # failures and valid posets come up often
        pairs = [
            (x, z)
            for x in range(size)
            for z in range(size)
            if x == z or (x, z) in pairs
            or any((x, y) in pairs and (y, z) in pairs for y in range(size))
        ]
    if size and draw(st.integers(0, 9)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), (size, 0))
    return pairs, size, draw(st.booleans())


@settings(max_examples=300)
@given(relations())
def test_validate_poset_matches_the_triple_loop(relation):
    pairs, size, auto_close = relation
    code, expected = triple_loop_poset(pairs, size, auto_close)
    if code == "ok":
        assert validate_poset(pairs, size, auto_close=auto_close).leq == expected
    else:
        with pytest.raises(ValidationError) as err:
            validate_poset(pairs, size, auto_close=auto_close)
        assert (err.value.code, err.value.witness) == (code, expected)


def wide_relation(seed):
    """A random order on 31-130 points, most of them above the low
    points, with part of one low point's up-set dropped: several z are
    then missing at once, many of them past bit 30 of a row mask."""
    rng = random.Random(seed)
    size = rng.randint(31, 130)
    order = validate_poset(
        [(x, y) for x in range(size) for y in range(x + 1, size) if rng.random() < 0.1],
        size,
        auto_close=True,
    )
    leq = order.leq
    x = rng.randrange(5)
    above = [y for y in range(x + 1, size) if leq[x][y]]
    dropped = {(x, y) for y in rng.sample(above, len(above) // 2)}
    pairs = [
        (x, y) for x in range(size) for y in range(size) if leq[x][y]
    ]
    return [p for p in pairs if p not in dropped], size


@pytest.mark.parametrize("seed", range(6))
def test_validate_poset_witness_on_wide_relations(seed):
    pairs, size = wide_relation(seed)
    code, expected = triple_loop_poset(pairs, size, False)
    assert code == "TransitivityFailure"
    with pytest.raises(ValidationError) as err:
        validate_poset(pairs, size)
    assert (err.value.code, err.value.witness) == (code, expected)


def brute_force_hasse(poset):
    leq = poset.leq
    points = range(poset.size)
    return [
        (x, y)
        for x in points
        for y in points
        if x != y
        and leq[x][y]
        and not any(x != z != y and leq[x][z] and leq[z][y] for z in points)
    ]


def test_hasse_edges_match_a_brute_force_scan(structures):
    orders = [s.order for _, s in structures]
    orders.append(corpus.gen_Jpi([0, 0, 0, 0]).order)
    for order in orders:
        assert order.hasse_edges() == brute_force_hasse(order)


def matrix_glb(leq, x, y):
    lower = [z for z in range(len(leq)) if leq[z][x] and leq[z][y]]
    return next((w for w in lower if all(leq[z][w] for z in lower)), None)


def matrix_components(leq):
    points = range(len(leq))
    seen, components = set(), []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in points:
                if y not in seen and (leq[x][y] or leq[y][x]):
                    seen.add(y)
                    stack.append(y)
        components.append(sorted(comp))
    return components


def test_mask_readers_match_matrix_scans(structures, actions):
    rng = random.Random(0)
    orders = [s.order for _, s in structures] + [a.order for _, a in actions]
    for order in orders:
        leq, points = order.leq, order.elements()
        assert len(leq) == order.size and all(len(row) == order.size for row in leq)
        for x in points:
            assert list(order.above(x)) == [y for y in points if leq[x][y]]
            assert order.downset(x) == {z for z in points if leq[z][x]}
        for _ in range(30):
            x, y = rng.choice(points), rng.choice(points)
            assert order.le(x, y) == leq[x][y]
        assert comparability_components(order) == matrix_components(leq)
        elems = rng.sample(points, len(points) // 2)
        assert order.restrict(elems).leq == tuple(
            tuple(leq[x][y] for y in elems) for x in elems
        )
        for _ in range(5):
            sub = {x for x in points if rng.random() < 0.5}
            expected = all(x in sub for y in sub for x in points if leq[x][y])
            assert is_order_ideal(order, sub) == expected
            f = rng.sample(points, len(points))
            expected = all(leq[x][y] == leq[f[x]][f[y]] for x in points for y in points)
            assert check_order_iso(f, order, order) == expected


def matrix_semilatticeoid_rows(leq):
    """The rows ``semilatticeoid_from_poset`` builds, each meet by a scan
    of the matrix: ("ok", rows), or the first pair in row-major order
    with no meet as ("ProductNotMeet", (x, y))."""
    component_of = {x: comp for comp in matrix_components(leq) for x in comp}
    rows = []
    for x in range(len(leq)):
        row = []
        for y in component_of[x]:
            z = matrix_glb(leq, x, y)
            if z is None:
                return ("ProductNotMeet", (x, y))
            row.append(z)
        rows.append(tuple(row))
    return ("ok", tuple(rows))


def test_semilatticeoid_from_poset_matches_the_matrix_meets():
    # random orders on 1-6 points, each the closure of random pairs that
    # respect a random linear extension, sparse to dense
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(2400):
        size = rng.randint(1, 6)
        line = rng.sample(range(size), size)
        density = rng.random()
        pairs = [
            (line[i], line[j])
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < density
        ]
        poset = validate_poset(pairs, size, auto_close=True)
        code, expected = matrix_semilatticeoid_rows(poset.leq)
        if code == "ok":
            rebuilt = semilatticeoid_from_poset(poset)
            assert rebuilt.base.base.rows == expected
            assert rebuilt.base.order.up == poset.up
        else:
            with pytest.raises(ValidationError) as err:
                semilatticeoid_from_poset(poset)
            assert (err.value.code, err.value.witness) == (code, expected)
        outcomes[code] += 1
    assert outcomes["ok"] > 1000 and outcomes["ProductNotMeet"] > 200, outcomes


def pairwise_semilatticeoid(inv_sg):
    """``validate_semilatticeoid`` by a scan of all arrow pairs, each meet
    read from the matrix view: None, or the first failure as (code, witness)."""
    base, leq = inv_sg.base, inv_sg.order.leq
    mul = base.mul
    for s in base.arrows():
        if s not in inv_sg.idempotents:
            return ("NonIdempotentArrow", (s,))
    for x in base.arrows():
        for y in base.arrows():
            if base.composable(x, y) and matrix_glb(leq, x, y) != mul[x][y]:
                return ("ProductNotMeet", (x, y))
    return None


def test_validate_semilatticeoid_matches_the_pairwise_scan(structures):
    lattices = [
        s for s in corpus.enumerate_inverse_semigroupoids(5)
        if len(s.idempotents) == s.n_arrows
    ]
    cases = [s for _, s in structures]
    for s in lattices:
        n, names = s.n_arrows, s.order.names
        reversed_order = tuple(sum(1 << x for x in s.order.downset(y)) for y in range(n))
        cases += [
            s,
            dataclasses.replace(s, order=FinitePoset(reversed_order, names)),
            dataclasses.replace(s, order=chain_poset(n, names)),
            dataclasses.replace(s, order=discrete_poset(n, names)),
        ]
    # one product cell set to each other arrow, a wrong product under the
    # right order, on the fixture semilatticeoids and the smaller lattices
    fixture_lattices = [s for _, s in structures if len(s.idempotents) == s.n_arrows]
    for s in fixture_lattices + [s for s in lattices if s.n_arrows <= 4]:
        for x, row in enumerate(s.base.rows):
            for i, xy in enumerate(row):
                for other in s.arrows():
                    if other != xy:
                        rows = list(s.base.rows)
                        rows[x] = row[:i] + (other,) + row[i + 1:]
                        base = dataclasses.replace(s.base, rows=tuple(rows))
                        cases.append(dataclasses.replace(s, base=base))
    outcomes = set()
    for s in cases:
        expected = pairwise_semilatticeoid(s)
        if expected is None:
            assert validate_semilatticeoid(s).base is s
        else:
            with pytest.raises(ValidationError) as err:
                validate_semilatticeoid(s)
            assert (err.value.code, err.value.witness) == expected
        outcomes.add(expected if expected is None else expected[0])
    assert len(lattices) > 100
    assert outcomes == {None, "NonIdempotentArrow", "ProductNotMeet"}
