"""Generators, exhaustive enumeration against naive oracles, and
canonical serialization round-trips."""

import dataclasses
import hashlib
import itertools
import json

import pytest

from semigroupoids import corpus, io
from semigroupoids.congruences import sigma
from semigroupoids.core import validate_semigroupoid
from semigroupoids.errors import (
    InternalInconsistencyError,
    ParseError,
    ValidationError,
)
from semigroupoids.inverse import is_groupoid, promote_to_inverse
from semigroupoids.posets import is_order_ideal
from semigroupoids.ptheorem import munn_action


def naive_structures(n, m_max):
    """Oracle: enumerate every table over every canonical dom/cod pattern
    (same canonical-labeling rule, reimplemented directly) and filter by
    the validators alone."""
    found = set()
    for m in range(1, min(n, m_max) + 1):
        patterns = []
        for dom in itertools.product(range(m), repeat=n):
            for cod in itertools.product(range(m), repeat=n):
                if set(dom) != set(range(m)) or set(cod) != set(range(m)):
                    continue
                seen = []
                for pair in zip(dom, cod):
                    for u in pair:
                        if u not in seen:
                            seen.append(u)
                if seen == sorted(seen):
                    patterns.append((dom, cod))
        for dom, cod in patterns:
            cells = [
                (s, t) for s in range(n) for t in range(n) if dom[s] == cod[t]
            ]
            choices = []
            for s, t in cells:
                choices.append(
                    [r for r in range(n) if dom[r] == dom[t] and cod[r] == cod[s]]
                )
            if any(not c for c in choices):
                continue
            for values in itertools.product(*choices):
                triples = [
                    (s, t, r) for (s, t), r in zip(cells, values)
                ]
                try:
                    sg = validate_semigroupoid(dom, cod, triples, n_objects=m)
                    inv_sg = promote_to_inverse(sg)
                except ValidationError:
                    continue
                found.add((dom, cod, sg.mul))
    return found


def test_enumerate_size_one():
    structs = list(corpus.enumerate_inverse_semigroupoids(1))
    assert len(structs) == 1
    assert structs[0].n_arrows == 1


def test_enumerate_one_object_two_arrows_matches_magma_oracle():
    structs = [
        s
        for s in corpus.enumerate_inverse_semigroupoids(2, 1)
        if s.n_arrows == 2
    ]
    oracle = naive_structures(2, 1)
    assert {(s.base.dom, s.base.cod, s.base.mul) for s in structs} == oracle
    assert len(oracle) == 4


def test_enumerate_matches_naive_oracle_up_to_three():
    for n in (2, 3):
        mine = {
            (s.base.dom, s.base.cod, s.base.mul)
            for s in corpus.enumerate_inverse_semigroupoids(n)
            if s.n_arrows == n
        }
        assert mine == naive_structures(n, n)


def test_enumerate_groupoid_counts_cross_checked():
    for n in (2, 3):
        mine = sum(
            1
            for s in corpus.enumerate_inverse_semigroupoids(n)
            if s.n_arrows == n and is_groupoid(s)
        )
        oracle = 0
        for dom, cod, mul in naive_structures(n, n):
            sg = promote_to_inverse(
                validate_semigroupoid(
                    dom,
                    cod,
                    [
                        (s, t, mul[s][t])
                        for s in range(n)
                        for t in range(n)
                        if mul[s][t] != -1
                    ],
                )
            )
            if is_groupoid(sg):
                oracle += 1
        assert mine == oracle


def test_enumerate_duplicate_free():
    structs = list(corpus.enumerate_inverse_semigroupoids(4))
    keys = {(s.base.dom, s.base.cod, s.base.mul) for s in structs}
    assert len(keys) == len(structs)


def test_enumerate_raises_on_an_involution_mismatch(monkeypatch):
    real_promote = corpus.promote_to_inverse

    def permuted(sg):
        inv_sg = real_promote(sg)
        return dataclasses.replace(inv_sg, inv=tuple(reversed(inv_sg.inv)))

    monkeypatch.setattr(corpus, "promote_to_inverse", permuted)
    corpus._enumerate_cached.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError) as err:
            list(corpus.enumerate_inverse_semigroupoids(2))
        assert err.value.code == "EnumeratedInvolutionMismatch"
    finally:
        corpus._enumerate_cached.cache_clear()


# sha256 of the (dom, cod, rows) of every structure with at most 5 arrows,
# in enumeration order, one line each; pinned when the enumerator still
# handed its tables to validate_semigroupoid as triples
ENUMERATION_DIGEST = "49377e61518419b57d911910bd2d827b3c0e9471f2971e69b7ae653ad8587bfe"


def test_enumeration_tables_are_pinned():
    h = hashlib.sha256()
    count = 0
    for s in corpus.enumerate_inverse_semigroupoids(5):
        sg = s.base
        h.update(repr((sg.dom, sg.cod, sg.rows)).encode())
        h.update(b"\n")
        count += 1
    assert count == 7642
    assert h.hexdigest() == ENUMERATION_DIGEST


def built_fixtures():
    """The fixture corpus, the Jpi and gen_SA ladder rungs and I4."""
    out = [s for _name, s in corpus.structure_corpus()]
    for pi in ((0, 0), (0, 1, 1), (0, 0, 1, 1), (0, 0, 0), (0, 1, 1, 1), (0, 0, 0, 0)):
        out.append(corpus.gen_Jpi(pi))
    for one, objects in (
        (corpus.chain_semilattice(2), 2),
        (corpus.cyclic_group(2), 3),
        (corpus.chain_semilattice(3), 3),
        (corpus.brandt_b2(), 3),
        (corpus.chain_semilattice(4), 4),
    ):
        out.append(corpus.gen_SA(one, objects))
    return out


# sha256 of the fixtures' fields, generators included, as the builders
# made them when they passed triples
FIXTURE_DIGEST = "6c6fd9692f5e912593b78e4c172b0fc7d91351c565dcd2dc92bf7bfb2d90e02a"


def test_fixtures_built_from_rows_equal_the_triple_form():
    h = hashlib.sha256()
    for s in built_fixtures():
        sg = s.base
        by_triples = validate_semigroupoid(
            sg.dom,
            sg.cod,
            io.semigroupoid_to_doc(sg)["mul"],
            n_objects=sg.n_objects,
            arrow_names=sg.arrow_names,
            object_names=sg.object_names,
        )
        assert by_triples == sg
        assert (by_triples.slot, by_triples.generators) == (sg.slot, sg.generators)
        fields = (sg.n_objects, sg.dom, sg.cod, sg.rows, sg.arrow_names, sg.object_names)
        h.update(repr((*fields, sg.generators)).encode())
        h.update(b"\n")
    assert h.hexdigest() == FIXTURE_DIGEST


def test_enumerate_cap():
    with pytest.raises(ValidationError) as err:
        list(corpus.enumerate_inverse_semigroupoids(6))
    assert err.value.code == "CapExceeded"


def test_enumerate_deterministic_order():
    first = [
        (s.base.dom, s.base.cod, s.base.mul)
        for s in corpus.enumerate_inverse_semigroupoids(3)
    ]
    corpus._enumerate_cached.cache_clear()
    second = [
        (s.base.dom, s.base.cod, s.base.mul)
        for s in corpus.enumerate_inverse_semigroupoids(3)
    ]
    assert first == second


def test_all_order_ideals_match_the_is_order_ideal_filter():
    actions = corpus.action_corpus() + corpus.groupoid_action_corpus()
    for _name, a in actions:
        subsets = [
            frozenset(i for i, b in enumerate(bits) if b)
            for bits in itertools.product((False, True), repeat=a.order.size)
        ]
        expected = [s for s in subsets if is_order_ideal(a.order, s)]
        assert corpus.all_order_ideals(a.order) == expected


def test_gen_sa_counts():
    sa = corpus.gen_SA(corpus.chain2(), 2)
    assert sa.n_arrows == 8
    assert len(sa.idempotents) == 4


def test_gen_sa_idempotent_shape():
    s = corpus.chain2()
    sa = corpus.gen_SA(s, 2)
    # idempotents are exactly the (u, e, u) with e idempotent below
    expected = {
        f"({u},{s.base.arrow_names[e]},{u})"
        for u in range(2)
        for e in s.idempotents
    }
    got = {sa.base.arrow_names[e] for e in sa.idempotents}
    assert got == expected


def test_gen_sa_order_reflects_base_order():
    s = corpus.chain2()
    sa = corpus.gen_SA(s, 2)
    names = sa.base.arrow_names
    for i in sa.arrows():
        for j in sa.arrows():
            if not sa.base.parallel(i, j):
                continue
            # parse the middle coordinate back out of the name
            mi = names[i].split(",")[1]
            mj = names[j].split(",")[1]
            si = s.base.arrow_names.index(mi)
            sj = s.base.arrow_names.index(mj)
            assert sa.leq(i, j) == s.leq(si, sj)


def test_gen_jpi_single_point():
    j = corpus.gen_Jpi([0])
    assert j.n_arrows == 2  # the empty map and the identity


def test_gen_jpi_symmetric_inverse_monoid():
    j = corpus.gen_Jpi([0, 0])
    # oracle: count partial bijections on two points directly
    count = sum(
        len(list(itertools.permutations(range(2), k))) * len(list(itertools.combinations(range(2), k)))
        for k in range(3)
    )
    assert count == 7
    assert j.n_arrows == 7
    assert j.n_objects == 1


def test_gen_jpi_two_fibers():
    j = corpus.gen_Jpi([0, 1])
    assert j.n_objects == 2
    assert j.n_arrows == 8


def test_gen_jpi_requires_surjection():
    with pytest.raises(ValidationError) as err:
        corpus.gen_Jpi([0, 2])
    assert err.value.code == "NotSurjective"


def test_gen_jpi_products_are_partial_compositions():
    # recompute every product independently from the arrow names
    j = corpus.gen_Jpi([0, 0])
    names = j.base.arrow_names

    def parse(name):
        body = name[1:-1]
        left, rest = body.split("-", 1)
        graph, right = rest.rsplit("->", 1)
        pairs = {}
        if graph and graph != "0":
            for item in graph.split(","):
                x, y = item.split(">")
                pairs[int(x)] = int(y)
        return int(left), pairs, int(right)

    arrows = [parse(n) for n in names]
    mul = j.base.mul
    for i, (u1, g, v1) in enumerate(arrows):
        for k, (u2, f, v2) in enumerate(arrows):
            if not j.base.composable(i, k):
                continue
            comp = {x: g[y] for x, y in f.items() if y in g}
            w = mul[i][k]
            assert arrows[w][1] == comp


def test_generator_outputs_connect_to_pipeline():
    sa = corpus.gen_SA(corpus.cyclic_group(2), 2)
    sigma(sa)
    munn_action(sa)
    j = corpus.gen_Jpi([0, 0])
    sigma(j)
    munn_action(j)


def test_roundtrip_semigroupoids(structures):
    for name, s in structures:
        doc = io.semigroupoid_to_doc(s.base)
        text = io.canonical_dumps(doc)
        back = io.parse_document(json.loads(text))
        assert back == s.base, name


def test_roundtrip_posets(structures):
    for name, s in structures:
        doc = io.poset_to_doc(s.order)
        back = io.parse_document(json.loads(io.canonical_dumps(doc)))
        assert back == s.order, name


def test_roundtrip_actions(actions):
    for name, a in actions[:20]:
        doc = io.action_to_doc(a)
        back = io.parse_document(json.loads(io.canonical_dumps(doc)))
        assert back == a, name


def test_roundtrip_triple():
    pg = corpus.pair_groupoid(2)
    theta = munn_action(pg)
    from semigroupoids.ptheorem import idempotent_semilatticeoid, mcalister_from_action

    triple = mcalister_from_action(theta, idempotent_semilatticeoid(pg))
    doc = io.triple_to_doc(triple)
    back = io.parse_document(json.loads(io.canonical_dumps(doc)))
    assert back.ideal == triple.ideal
    assert back.space == triple.space
    assert back.action == triple.action


def test_canonical_serialization_is_stable():
    doc = io.semigroupoid_to_doc(corpus.brandt_b2().base)
    once = io.canonical_dumps(doc)
    twice = io.canonical_dumps(json.loads(once))
    assert once == twice


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        io.parse_document({"kind": "mystery"})


def test_parse_rejects_duplicate_names():
    doc = io.semigroupoid_to_doc(corpus.chain2().base)
    doc["arrows"][1]["name"] = doc["arrows"][0]["name"]
    with pytest.raises(ParseError):
        io.parse_document(doc)


# sha256 over the candidates of action_candidates(seed=seed), as written
# by _candidates_digest; the benchmark's actions workload draws its items
# from these, so a change to the generators shows up here first
CANDIDATE_DIGESTS = {
    0: "530aed879c900c2b0597afb94887579d8056a6966667453e6dd69169b9a159ab",
    1: "930bfed21c89c09e38cf5340b69fd3b3a85bb37659463f1ef34a758f27887643",
    2: "73115df32d5e2c907ceb5c13435419f3c3f16c715ea2adac0afc79debb16890a",
    11: "a87adcd1eac0b9237554f8c8acc0ea4e9fa2c9ce2b22cff0be9529e8b9034011",
    7000: "0707fc3fa3e0f3d8fa2e77b53c7c83eda17b8524ccc86e910060eda3385e4672",
}


def _candidates_digest(seed):
    h = hashlib.sha256()
    for a in corpus.action_candidates(seed=seed):
        row = (
            a.carrier_names,
            [sorted(m.items()) for m in a.maps],
            [sorted(d) for d in a.domains],
            a.order.up,
            a.global_flag,
        )
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(CANDIDATE_DIGESTS))
def test_action_candidates_are_pinned(seed):
    assert _candidates_digest(seed) == CANDIDATE_DIGESTS[seed]
