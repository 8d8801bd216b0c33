"""Validated multiplication tables and semigroupoid morphisms."""

import dataclasses
from collections import Counter
from itertools import combinations

import pytest

from semigroupoids import corpus
from semigroupoids.congruences import sigma
from semigroupoids.core import (
    NOT_COMPOSABLE,
    _generators,
    compose_morphisms,
    identity_morphism,
    semigroupoid_triples,
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


def _scan_morphism_verdict(source, target, f):
    """Oracle: the checks of validate_morphism as a scan of every arrow
    pair, the first (code, witness), else ("ok", the object map)."""
    n = source.n_arrows
    for s in range(n):
        for t in range(n):
            if not source.composable(s, t):
                continue
            if not target.composable(f[s], f[t]):
                return ("ComposabilityNotPreserved", (s, t))
            if target.mul[f[s]][f[t]] != f[source.mul[s][t]]:
                return ("NotMultiplicative", (s, t))
    obj = {}
    for s in range(n):
        ends = ((source.dom[s], target.dom[f[s]]), (source.cod[s], target.cod[f[s]]))
        for u, v in ends:
            if obj.setdefault(u, v) != v:
                return ("ObjectMapConflict", (u,))
    return ("ok", tuple(obj[u] for u in range(source.n_objects)))


def _morphism_verdict(source, target, f):
    try:
        return ("ok", validate_morphism(source, target, f).object_map)
    except ValidationError as exc:
        return (exc.code, exc.witness)


def test_morphism_witnesses_match_the_pairwise_scan(structures, small_structures):
    # every single-entry change of the identity and of sigma's projection
    seen = Counter()
    for inv_sg in [*small_structures, *(s for _name, s in structures)]:
        sg = inv_sg.base
        q, proj = sigma(inv_sg).quotient
        for target, f in ((sg, tuple(sg.arrows())), (q.base, proj.arrow_map)):
            expected = _scan_morphism_verdict(sg, target, f)
            assert _morphism_verdict(sg, target, f) == expected
            for s in sg.arrows():
                for other in target.arrows():
                    if other == f[s]:
                        continue
                    changed = f[:s] + (other,) + f[s + 1:]
                    expected = _scan_morphism_verdict(sg, target, changed)
                    assert _morphism_verdict(sg, target, changed) == expected
                    seen[expected[0]] += 1
    assert seen["ComposabilityNotPreserved"] and seen["NotMultiplicative"], seen


def test_missing_products_are_reported_at_the_least_cell(structures):
    # every triple, and every two triples, of the multi-object fixtures
    # deleted: the least deleted cell is the witness
    checked = 0
    for _name, inv_sg in structures:
        sg = inv_sg.base
        if sg.n_objects == 1:
            continue
        triples = semigroupoid_triples(sg)
        cells = range(len(triples))
        for dropped in [*combinations(cells, 1), *combinations(cells, 2)]:
            kept = [x for i, x in enumerate(triples) if i not in dropped]
            least = triples[dropped[0]][:2]
            with pytest.raises(ValidationError) as err:
                validate_semigroupoid(sg.dom, sg.cod, kept, n_objects=sg.n_objects)
            assert err.value.code == "UndefinedOnComposablePair"
            assert err.value.witness == least
            checked += 1
    assert checked > 1000, checked


def test_mul_sentinel_matches_graph(structures):
    for _name, s in structures:
        sg = s.base
        for a in sg.arrows():
            for b in sg.arrows():
                assert (sg.mul[a][b] == NOT_COMPOSABLE) == (sg.dom[a] != sg.cod[b])


def _cubic_verdict(dom, cod, triples):
    """Oracle for tables that differ from a valid one in one defined
    cell: the least DomCodMismatch, else the least failing triple by a
    scan of every composable (r, s, t), else None."""
    n = len(dom)
    table = [[NOT_COMPOSABLE] * n for _ in range(n)]
    for s, t, r in triples:
        table[s][t] = r
    for s in range(n):
        for t in range(n):
            r = table[s][t]
            if r != NOT_COMPOSABLE and (dom[r] != dom[t] or cod[r] != cod[s]):
                return ("DomCodMismatch", (s, t))
    for r in range(n):
        for s in range(n):
            for t in range(n):
                if dom[r] != cod[s] or dom[s] != cod[t]:
                    continue
                if table[table[r][s]][t] != table[r][table[s][t]]:
                    return ("AssociativityFailure", (r, s, t))
    return None


def _verdict(dom, cod, triples, n_objects):
    try:
        validate_semigroupoid(dom, cod, triples, n_objects=n_objects)
    except ValidationError as exc:
        return (exc.code, exc.witness)
    return None


def test_light_test_matches_cubic_oracle_on_every_perturbation(structures):
    # every defined cell of every table, set to every other arrow
    pool = [s.base for s in corpus.enumerate_inverse_semigroupoids(4)]
    pool += [s.base for _name, s in structures]
    seen = {"DomCodMismatch": 0, "AssociativityFailure": 0, None: 0}
    for sg in pool:
        triples = semigroupoid_triples(sg)
        for i, (s, t, r) in enumerate(triples):
            for other in sg.arrows():
                if other == r:
                    continue
                changed = triples[:i] + [(s, t, other)] + triples[i + 1:]
                expected = _cubic_verdict(sg.dom, sg.cod, changed)
                assert _verdict(sg.dom, sg.cod, changed, sg.n_objects) == expected
                seen[expected and expected[0]] += 1
    assert seen["AssociativityFailure"] > 5000 and seen[None] > 0, seen


def _closure(sg, gens):
    """Oracle: products of members added until nothing new appears."""
    members = set(gens)
    while True:
        new = {
            sg.mul[a][b] for a in members for b in members if sg.composable(a, b)
        } - members
        if not new:
            return members
        members |= new


def _generators_of(sg):
    return _generators(sg.dom, sg.cod, sg.mul, sg.n_objects)


def test_generators_generate_every_arrow(structures):
    pool = [s.base for _name, s in structures]
    pool += [corpus.gen_Jpi(pi).base for pi in ([0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 1])]
    for sg in pool:
        gens = _generators_of(sg)
        assert _closure(sg, gens) == set(sg.arrows())
        # greedy in index order: no generator lies in the closure of the
        # earlier ones
        for k, g in enumerate(gens):
            assert g not in _closure(sg, gens[:k])


def test_stored_generators_generate_every_arrow(structures):
    pool = [s.base for _name, s in structures]
    pool += [s.base for s in corpus.enumerate_inverse_semigroupoids(4)]
    for sg in pool:
        assert sg.generators == tuple(_generators_of(sg))
        assert _closure(sg, sg.generators) == set(sg.arrows())
    # derived from the table, so equality and repr ignore it
    sg = pool[0]
    assert dataclasses.replace(sg, generators=()) == sg
    assert "generators" not in repr(sg)


def test_least_failing_triple_with_middle_outside_generators():
    # the cyclic group a = 0, a^2 = 1, e = 2 with e e changed to a^2; the
    # test on the middle a fails at (e, a, a^2), but the least failing
    # triple (a, a^2, e) has the middle a^2, which is not a generator
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 1]]
    assert _generators([0] * 3, [0] * 3, table, 1) == [0]
    triples = [(s, t, table[s][t]) for s in range(3) for t in range(3)]
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0] * 3, [0] * 3, triples)
    assert err.value.code == "AssociativityFailure"
    assert err.value.witness == (0, 1, 2)
