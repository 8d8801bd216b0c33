"""Pseudoinverses, the natural partial order, groupoid recognition,
partial and strong morphisms."""

import gc
import weakref
from collections import Counter
from itertools import product

import pytest

from semigroupoids import congruences, corpus, ptheorem
from semigroupoids.congruences import is_e_unitary, sigma
from semigroupoids.core import (
    NOT_COMPOSABLE,
    validate_morphism,
    validate_semigroupoid,
)
from semigroupoids.errors import InternalInconsistencyError, ValidationError, Violation
from semigroupoids.inverse import (
    _order_matrix,
    check_partial_morphism,
    is_groupoid,
    is_strong_morphism,
    promote_to_inverse,
)
from semigroupoids.ptheorem import munn_action


def test_chain2_inverse_is_identity():
    c2 = corpus.chain2()
    assert c2.inv == (0, 1)
    assert c2.idempotents == (0, 1)


def test_pair_groupoid_inverse():
    pg = corpus.pair_groupoid(2)
    mul = pg.base.mul
    # arrows indexed (b, a): g00, g10, g01, g11; inverse flips direction
    for s in pg.arrows():
        t = pg.inv[s]
        assert pg.base.dom[t] == pg.base.cod[s]
        assert pg.base.cod[t] == pg.base.dom[s]
        assert mul[mul[s][t]][s] == s


def test_left_zero_has_no_unique_inverse():
    # x y = x: both elements act as pseudoinverses of each other
    sg = validate_semigroupoid(
        [0, 0], [0, 0], [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]
    )
    with pytest.raises(ValidationError) as err:
        promote_to_inverse(sg)
    assert err.value.code in ("NoInverse", "NonUniqueInverse")
    assert err.value.code == "NonUniqueInverse"


def test_chain2_order():
    c2 = corpus.chain2()
    assert c2.leq(1, 0)  # f below e
    assert c2.leq(0, 0) and c2.leq(1, 1)
    assert not c2.leq(0, 1)


def test_groupoid_order_is_equality():
    pg = corpus.pair_groupoid(2)
    for s in pg.arrows():
        for t in pg.arrows():
            assert pg.leq(s, t) == (s == t)


def test_b2_order_bruteforce():
    b2 = corpus.brandt_b2()
    sg = b2.base
    mul = sg.mul
    # oracle: s <= t iff s = t (s* s), straight from the table
    for s in b2.arrows():
        for t in b2.arrows():
            expected = sg.parallel(s, t) and mul[t][mul[b2.inv[s]][s]] == s
            assert b2.leq(s, t) == expected
    zero = 0
    for t in b2.arrows():
        assert b2.leq(zero, t)
    strict = [(s, t) for s in b2.arrows() for t in b2.arrows() if s != t and b2.leq(s, t)]
    assert strict == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_is_groupoid_examples():
    assert is_groupoid(corpus.pair_groupoid(2))
    assert not is_groupoid(corpus.chain2())
    assert not is_groupoid(corpus.brandt_b2())
    assert len(corpus.brandt_b2().idempotents) == 3


def test_semigroupoid_morphisms_are_partial_morphisms(structures):
    # any identity morphism passes the partial-morphism conditions
    for _name, s in structures:
        f = list(range(s.n_arrows))
        assert check_partial_morphism(f, s, s) is None


def test_collapse_is_partial_morphism():
    c2 = corpus.chain2()
    trivial = corpus.trivial_monoid()
    assert check_partial_morphism([0, 0], c2, trivial) is None


def test_swap_fails_order_preservation():
    c2 = corpus.chain2()
    violation = check_partial_morphism([1, 0], c2, c2)
    assert violation is not None
    assert violation.code == "OrderNotPreserved"
    assert violation.witness == (1, 0)


def _scan_partial_morphism(f, src, dst):
    """Oracle: check_partial_morphism as a scan of every arrow pair."""
    src_mul, dst_mul = src.base.mul, dst.base.mul
    for s in src.arrows():
        if dst.inv[f[s]] != f[src.inv[s]]:
            return Violation("InverseNotPreserved", (s,))
    for s in src.arrows():
        for t in src.arrows():
            if not src.composable(s, t):
                continue
            if not dst.composable(f[s], f[t]):
                return Violation("SubmultiplicativityFailure", (s, t))
            lhs = dst_mul[f[s]][f[t]]
            if not dst.leq(lhs, f[src_mul[s][t]]):
                return Violation("SubmultiplicativityFailure", (s, t))
    for s in src.arrows():
        for t in src.arrows():
            if src.parallel(s, t) and src.leq(s, t) and not dst.leq(f[s], f[t]):
                return Violation("OrderNotPreserved", (s, t))
    return None


def test_partial_morphism_witnesses_match_the_pairwise_scan(small_structures):
    # every arrow map of each structure with at most 3 arrows to itself
    codes = Counter()
    for s in small_structures:
        for f in product(s.arrows(), repeat=s.n_arrows):
            v = check_partial_morphism(f, s, s)
            assert v == _scan_partial_morphism(f, s, s)
            codes[v.code if v else None] += 1
    assert set(codes) == {
        None, "InverseNotPreserved", "SubmultiplicativityFailure", "OrderNotPreserved"
    }, codes


def test_strong_morphism_examples():
    c2 = corpus.chain2()
    trivial = corpus.trivial_monoid()
    ident = validate_morphism(c2.base, c2.base, [0, 1])
    assert is_strong_morphism(ident)
    collapse = validate_morphism(c2.base, trivial.base, [0, 0])
    assert is_strong_morphism(collapse)


def pairwise_is_strong(phi):
    """Oracle: composability reflected, over every arrow pair."""
    src, dst = phi.source, phi.target
    return all(
        src.composable(s, t)
        for s in src.arrows()
        for t in src.arrows()
        if dst.composable(phi.arrow_map[s], phi.arrow_map[t])
    )


def test_strong_morphism_matches_the_pairwise_scan(structures):
    # the identity, sigma's projection, the collapse onto the trivial
    # monoid, each spread structure's projection onto its middles, and
    # one arrow 1 -> 0 (no products; object 1 is only a domain) collapsed
    trivial = corpus.trivial_monoid().base
    arrow = validate_semigroupoid([1], [0], [])
    pool = list(corpus.enumerate_inverse_semigroupoids(4)) + [s for _n, s in structures]
    morphisms = []
    for inv_sg in pool:
        sg = inv_sg.base
        morphisms += [
            validate_morphism(sg, sg, range(sg.n_arrows)),
            sigma(inv_sg).quotient[1],
            validate_morphism(sg, trivial, [0] * sg.n_arrows),
        ]
    for one in (corpus.chain2(), corpus.cyclic_group(2), corpus.brandt_b2()):
        for k in (2, 3):
            spread = corpus.gen_SA(one, k).base
            middles = [(a // k) % one.n_arrows for a in spread.arrows()]
            morphisms.append(validate_morphism(spread, one.base, middles))
    morphisms.append(validate_morphism(arrow, trivial, [0]))
    verdicts = Counter()
    for phi in morphisms:
        expected = pairwise_is_strong(phi)
        assert is_strong_morphism(phi) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_discrete_into_pair_groupoid_is_strong():
    disc = corpus.discrete_groupoid(2)
    pg = corpus.pair_groupoid(2)
    # send the identity at object i to the loop at object i
    index = {
        (pg.base.dom[s], pg.base.cod[s]): s
        for s in pg.arrows()
        if pg.base.dom[s] == pg.base.cod[s]
    }
    f = [index[(u, u)] for u in range(2)]
    phi = validate_morphism(disc.base, pg.base, f)
    # oracle: enumerate image pairs; loops at distinct objects never compose
    for s in range(2):
        for t in range(2):
            if pg.base.composable(f[s], f[t]):
                assert disc.base.composable(s, t)
    assert is_strong_morphism(phi)


def test_involution_laws(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures
    for s in pool:
        sg = s.base
        mul = sg.mul
        idems = set(s.idempotents)
        for a in s.arrows():
            assert s.inv[s.inv[a]] == a
            assert mul[a][s.inv[a]] in idems
            assert mul[s.inv[a]][a] in idems
        for e in idems:
            assert s.inv[e] == e
        for a in s.arrows():
            for b in s.arrows():
                if sg.composable(a, b):
                    assert sg.composable(s.inv[b], s.inv[a])
                    assert s.inv[mul[a][b]] == mul[s.inv[b]][s.inv[a]]


def test_conjugated_idempotents(structures):
    for _name, s in structures:
        sg = s.base
        mul = sg.mul
        idems = set(s.idempotents)
        for a in s.arrows():
            for e in idems:
                if not sg.composable(e, a):
                    continue
                conj = mul[mul[s.inv[a]][e]][a]
                assert conj in idems
                assert s.leq(conj, mul[s.inv[a]][a])


def test_order_compatibility(structures, small_structures):
    pool = [s for _n, s in structures if s.n_arrows <= 8] + small_structures
    for s in pool:
        sg = s.base
        mul = sg.mul
        for s1 in s.arrows():
            for t1 in s.arrows():
                if not s.leq(s1, t1):
                    continue
                assert s.leq(s.inv[s1], s.inv[t1])
                for s2 in s.arrows():
                    if not sg.composable(s1, s2):
                        continue
                    for t2 in s.arrows():
                        if s.leq(s2, t2):
                            assert sg.composable(t1, t2)
                            assert s.leq(mul[s1][s2], mul[t1][t2])


def test_idempotents_commute(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures
    for s in pool:
        sg = s.base
        mul = sg.mul
        for e in s.idempotents:
            for f in s.idempotents:
                if sg.composable(e, f):
                    assert sg.composable(f, e)
                    assert mul[e][f] == mul[f][e]


def any_loop_order_votes(sg, inv, idems):
    """The natural order by its four characterizations, each existential
    one by a loop over the idempotents of one object for every parallel
    pair: O(n^2 |E|).  Returns the matrix, or the first pair (s, t) on
    which the votes disagree."""
    by_object = {}
    for e in idems:
        by_object.setdefault(sg.dom[e], []).append(e)
    n = sg.n_arrows
    # an undefined product is None, so a vote that reads one is False
    mul = [[None if r == NOT_COMPOSABLE else r for r in row] for row in sg.mul]
    matrix = [[False] * n for _ in range(n)]
    for s in range(n):
        for t in range(n):
            if not sg.parallel(s, t):
                continue
            e_dom, e_cod = mul[inv[s]][s], mul[s][inv[s]]  # s* s and s s*
            votes = {
                any(mul[t][e] == s for e in by_object.get(sg.dom[t], ())),
                e_dom is not None and mul[t][e_dom] == s,
                any(mul[f][t] == s for f in by_object.get(sg.cod[t], ())),
                e_cod is not None and mul[e_cod][t] == s,
            }
            if len(votes) != 1:
                return (s, t)
            matrix[s][t] = votes.pop()
    return matrix


def row_masks(matrix):
    return [sum(1 << t for t, b in enumerate(row) if b) for row in matrix]


def test_order_matrix_matches_any_loop_oracle(structures):
    inputs = list(corpus.enumerate_inverse_semigroupoids(4))
    inputs += [s for _, s in structures]
    inputs.append(corpus.gen_Jpi([0, 0, 0, 0]))
    for s in inputs:
        expected = any_loop_order_votes(s.base, s.inv, s.idempotents)
        assert _order_matrix(s.base, s.inv, s.idempotents) == row_masks(expected)
        assert [list(row) for row in s.order.leq] == expected


# brandt_b2 with a wrong inverse map and a wrong idempotent list, one case
# per vote: without that vote the first disagreeing pair would move
SPLIT_VOTES = [
    ((0, 0, 0, 0, 0), (4,), (0, 1)),
    ((0, 0, 0, 0, 1), (0,), (4, 2)),
    ((0, 0, 0, 0, 0), (3,), (0, 1)),
    ((0, 0, 0, 0, 2), (0,), (4, 1)),
]


@pytest.mark.parametrize("inv, idems, witness", SPLIT_VOTES)
def test_order_matrix_reports_disagreeing_votes(inv, idems, witness):
    sg = corpus.brandt_b2().base
    assert any_loop_order_votes(sg, inv, idems) == witness
    with pytest.raises(InternalInconsistencyError) as err:
        _order_matrix(sg, inv, idems)
    assert (err.value.code, err.value.witness) == ("OrderCharacterizationMismatch", witness)


def _replacements(values, n):
    """Each way to change one entry of ``values`` to another arrow of n."""
    values = tuple(values)
    for i, old in enumerate(values):
        for new in range(n):
            if new != old:
                yield values[:i] + (new,) + values[i + 1 :]


def test_order_matrix_matches_any_loop_oracle_on_mutated_inputs(structures, small_structures):
    # a wrong inv or idems can break the guard that lets the matrix skip
    # non-candidate pairs, or pass it and still split the votes; either
    # way the matrix or the first disagreeing pair must be the oracle's
    cases = 0
    for s in [s for _, s in structures] + small_structures:
        n = s.n_arrows
        idems = s.idempotents
        inputs = [(inv, idems) for inv in _replacements(s.inv, n)]
        inputs += [(s.inv, wrong) for wrong in _replacements(idems, n)]
        # one idempotent dropped, or one arrow appended
        inputs += [(s.inv, idems[:i] + idems[i + 1 :]) for i in range(len(idems))]
        inputs += [(s.inv, idems + (e,)) for e in range(n)]
        for inv, some_idems in inputs:
            cases += 1
            expected = any_loop_order_votes(s.base, inv, some_idems)
            if isinstance(expected, tuple):
                with pytest.raises(InternalInconsistencyError) as err:
                    _order_matrix(s.base, inv, some_idems)
                assert (err.value.code, err.value.witness) == (
                    "OrderCharacterizationMismatch",
                    expected,
                )
            else:
                assert _order_matrix(s.base, inv, some_idems) == row_masks(expected)
    assert cases > 1000


def test_pseudoinverse_witness_on_a_multi_object_table():
    # object 1 carries an identity loop (arrow 0); object 0 carries the
    # left-zero semigroup on arrows 1, 2, 3 (p q = p), where every arrow
    # is a pseudoinverse of every other: the witness names the first
    # arrow and its two least pseudoinverses
    left_zero = [(p, q, p) for p in (1, 2, 3) for q in (1, 2, 3)]
    sg = validate_semigroupoid([1, 0, 0, 0], [1, 0, 0, 0], [(0, 0, 0)] + left_zero)
    with pytest.raises(ValidationError) as err:
        promote_to_inverse(sg)
    assert (err.value.code, err.value.witness) == ("NonUniqueInverse", (1, 1, 2))

    # identities at objects 0 and 1, and s: 0 -> 1 with nothing back
    sg = validate_semigroupoid(
        [0, 1, 0], [0, 1, 1], [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2)]
    )
    with pytest.raises(ValidationError) as err:
        promote_to_inverse(sg)
    assert (err.value.code, err.value.witness) == ("NoInverse", (2,))


def test_latest_structure_memo_keys_by_identity_and_keeps_one_structure(monkeypatch):
    builds = Counter()
    failures = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            if failures[name]:
                failures[name] -= 1
                raise InternalInconsistencyError("Injected", ())
            builds[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    # sigma's congruence check and the Munn action's self-check run once
    # per build
    counting(congruences, "validate_congruence")
    counting(ptheorem, "check_built")
    derived = (sigma, is_e_unitary, munn_action)

    # a repeat call on one object returns what its one build made
    s = promote_to_inverse(corpus.chain2().base)
    first = [derive(s) for derive in derived]
    assert all(a is b for a, b in zip((derive(s) for derive in derived), first))
    assert first[1].sigma is first[0]
    assert builds == {"validate_congruence": 1, "check_built": 1}

    # an equal but distinct object gets a fresh build
    t = promote_to_inverse(s.base)
    assert t == s and t is not s
    assert all(derive(t) is not old for derive, old in zip(derived, first))
    assert builds == {"validate_congruence": 2, "check_built": 2}

    # a build that raises stores nothing, so the next call builds again
    u = promote_to_inverse(s.base)
    failures.update(validate_congruence=1, check_built=1)
    for derive in (is_e_unitary, munn_action):
        with pytest.raises(InternalInconsistencyError):
            derive(u)
    assert is_e_unitary(u).sigma is sigma(u) and munn_action(u).actor is u
    assert builds == {"validate_congruence": 3, "check_built": 3}

    # deriving all three on a second structure releases the first
    a = promote_to_inverse(corpus.brandt_b2().base)
    for derive in derived:
        derive(a)
    released = weakref.ref(a)
    b = promote_to_inverse(corpus.brandt_b2().base)
    for derive in derived:
        derive(b)
    del a
    gc.collect()
    assert released() is None
