"""Congruence closure, sigma, quotients, idempotent purity, E-unitarity."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from semigroupoids import congruences, corpus
from semigroupoids.congruences import (
    EUnitarityCertificate,
    GraphedCongruence,
    check_lemma_sts,
    congruence_closure,
    is_e_unitary,
    is_idempotent_pure,
    quotient,
    sigma,
    sigma_by_equations,
    sigma_by_lower_bounds,
    universal_groupoid_property,
    validate_congruence,
)
from semigroupoids.core import UnionFind, validate_morphism
from semigroupoids.errors import InternalInconsistencyError, ValidationError
from semigroupoids.inverse import is_groupoid, promote_to_inverse
from semigroupoids.posets import validate_poset


def related_pairs(cong):
    """Every (s, t) the congruence relates, read from its representatives."""
    rep = cong.rep
    return frozenset(
        (s, t) for s in range(len(rep)) for t in range(len(rep)) if rep[s] == rep[t]
    )


def naive_closure_pairs(inv_sg, seed):
    """Oracle: grow the explicit pair set to a fixpoint of symmetry,
    transitivity, and multiplication."""
    sg = inv_sg.base
    n = sg.n_arrows
    mul = sg.mul
    rel = {(s, s) for s in range(n)} | set(seed)
    changed = True
    while changed:
        changed = False
        additions = set()
        for s, t in rel:
            if (t, s) not in rel:
                additions.add((t, s))
        for (s, t) in rel:
            for (t2, u) in rel:
                if t == t2 and (s, u) not in rel:
                    additions.add((s, u))
        for (s1, t1) in rel:
            for (s2, t2) in rel:
                if sg.composable(s1, s2):
                    pair = (mul[s1][s2], mul[t1][t2])
                    if pair not in rel:
                        additions.add(pair)
        if additions:
            rel |= additions
            changed = True
    return rel


def quartic_congruence_check(cong):
    """Oracle: the definitional scan over s1 ~ t1 and s2 ~ t2, returning
    the first (code, witness) in the library's check order, or None."""
    sg = cong.base.base
    n = sg.n_arrows
    rep, dom, cod, mul, inv = cong.rep, sg.dom, sg.cod, sg.mul, cong.base.inv
    for s in range(n):
        for t in range(s + 1, n):
            if rep[s] == rep[t] and (dom[s], cod[s]) != (dom[t], cod[t]):
                return ("NotGraphed", (s, t))
    for s1 in range(n):
        for t1 in range(n):
            if rep[s1] != rep[t1]:
                continue
            for s2 in range(n):
                if dom[s1] != cod[s2]:
                    continue
                for t2 in range(n):
                    if rep[s2] == rep[t2] and rep[mul[s1][s2]] != rep[mul[t1][t2]]:
                        return ("NotCompatible", (s1, t1, s2, t2))
    for s in range(n):
        for t in range(n):
            if rep[s] == rep[t] and rep[inv[s]] != rep[inv[t]]:
                return ("InvolutionNotRespected", (s, t))
    return None


def parity_pool(structures):
    """Every structure with at most 4 arrows plus the named fixtures."""
    return list(corpus.enumerate_inverse_semigroupoids(4)) + [
        s for _n, s in structures
    ]


def random_partitions(inv_sg, rng, count):
    """Partitions as least-member reps: every fourth ignores dom/cod and
    is usually not graphed, the rest split each parallel class at random."""
    sg = inv_sg.base
    n = sg.n_arrows
    for k in range(count):
        if k % 4 == 0:
            labels = [rng.randrange(n) for _ in range(n)]
        else:
            parts = rng.randrange(1, 4)
            labels = [(sg.dom[s], sg.cod[s], rng.randrange(parts)) for s in range(n)]
        first = {}
        yield tuple(first.setdefault(label, s) for s, label in enumerate(labels))


def parallel_seeds(inv_sg, rng, count):
    sg = inv_sg.base
    parallel = [(s, t) for s in sg.arrows() for t in sg.arrows() if sg.parallel(s, t)]
    for _ in range(count):
        yield [rng.choice(parallel) for _ in range(rng.randrange(3))]


def test_validate_congruence_matches_quartic_oracle(structures):
    rng = random.Random(2008)
    seen = Counter()
    for inv_sg in parity_pool(structures):
        for rep in random_partitions(inv_sg, rng, 30):
            cong = GraphedCongruence(base=inv_sg, rep=rep)
            expected = quartic_congruence_check(cong)
            try:
                validate_congruence(cong)
                got = None
            except ValidationError as err:
                got = (err.code, err.witness)
            assert got == expected, (inv_sg.base, rep)
            seen[expected and expected[0]] += 1
    assert seen[None] and seen["NotGraphed"] and seen["NotCompatible"]


def test_empty_seed_gives_equality():
    c2 = corpus.chain2()
    cong = congruence_closure(c2, [])
    assert cong.classes() == ((0,), (1,))


def test_chain2_seed_gives_universal():
    c2 = corpus.chain2()
    cong = congruence_closure(c2, [(0, 1)])
    assert cong.classes() == ((0, 1),)


def test_nonparallel_seed_rejected():
    pg = corpus.pair_groupoid(2)
    loops = [s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]]
    with pytest.raises(ValidationError) as err:
        congruence_closure(pg, [(loops[0], loops[1])])
    assert err.value.code == "NonParallelSeed"


def test_closure_matches_naive_fixpoint_oracle(structures):
    rng = random.Random(59)
    cases = [
        (corpus.brandt_b2(), [(1, 2)]),   # relate a and a* (parallel, one object)
        (corpus.brandt_b2(), [(0, 3)]),
        (corpus.cyclic_group(3), [(1, 2)]),
        (corpus.vee_semilattice(), [(0, 1)]),
        (corpus.pair_groupoid(2), []),
    ]
    cases += [
        (inv_sg, seed)
        for inv_sg in parity_pool(structures)
        for seed in parallel_seeds(inv_sg, rng, 3)
    ]
    for inv_sg, seed in cases:
        cong = congruence_closure(inv_sg, seed)
        assert related_pairs(cong) == naive_closure_pairs(inv_sg, seed), seed


def test_closure_of_parallel_idempotents_is_sigma(structures):
    for inv_sg in parity_pool(structures):
        sg = inv_sg.base
        idems = inv_sg.idempotents
        seed = [(e, f) for e in idems for f in idems if sg.parallel(e, f)]
        assert congruence_closure(inv_sg, seed).rep == sigma(inv_sg).rep


def test_sigma_and_e_unitarity_on_i4():
    i4 = corpus.gen_Jpi([0, 0, 0, 0])
    assert i4.n_arrows == 209
    cong = sigma(i4)
    assert cong.classes() == (tuple(i4.arrows()),)
    assert cong.rep == sigma_by_equations(i4).rep
    assert cong.rep == sigma_by_lower_bounds(i4).rep
    cert = is_e_unitary(i4)
    assert cert.conditions == (False,) * 5
    assert not cert.verdict


def test_sigma_by_lower_bounds_rejects_a_non_equivalence():
    # on b2's five parallel arrows, an order where 3 lies below 0 and 1
    # and 4 below 1 and 2 relates 0 to 1 and 1 to 2 but not 0 to 2
    b2 = corpus.brandt_b2()
    below = [(3, 0), (3, 1), (4, 1), (4, 2)] + [(x, x) for x in b2.arrows()]
    bent = dataclasses.replace(b2, order=validate_poset(below, 5))
    with pytest.raises(InternalInconsistencyError) as err:
        sigma_by_lower_bounds(bent)
    assert err.value.code == "SigmaNotEquivalence"


def pairwise_sigma_by_lower_bounds(inv_sg):
    """Oracle: sigma by its definition, pair by pair.  Each arrow's
    down-set is a bitmask, two arrows of one hom-set are related iff
    their down-sets meet, and that relation must be an equivalence."""
    sg = inv_sg.base
    n = sg.n_arrows
    leq = inv_sg.order.leq
    down = [0] * n
    for r in range(n):
        for s in range(n):
            if leq[r][s]:
                down[s] |= 1 << r
    parallel = {}
    for s in range(n):
        parallel.setdefault((sg.dom[s], sg.cod[s]), []).append(s)
    related = [0] * n
    uf = UnionFind(n)
    for arrows in parallel.values():
        for s in arrows:
            for t in arrows:
                if down[s] & down[t]:
                    related[s] |= 1 << t
                    uf.union(s, t)
    rep = uf.reps()
    members = [0] * n
    for s, r in enumerate(rep):
        members[r] |= 1 << s
    if any(related[s] != members[r] for s, r in enumerate(rep)):
        raise InternalInconsistencyError("SigmaNotEquivalence", ())
    cong = GraphedCongruence(base=inv_sg, rep=rep)
    validate_congruence(cong)
    return cong


def bent_orders(inv_sg, rng):
    """Up to 6 orders: the natural order plus two random pairs, closed;
    a closure that breaks antisymmetry is dropped."""
    n = inv_sg.n_arrows
    leq = inv_sg.order.leq
    pairs = [(x, y) for x in range(n) for y in range(n) if leq[x][y]]
    for _ in range(6):
        extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        try:
            yield validate_poset(pairs + extra, n, auto_close=True)
        except ValidationError:
            continue


def sigma_outcome(compute, inv_sg):
    try:
        return compute(inv_sg).rep
    except (InternalInconsistencyError, ValidationError) as exc:
        return (type(exc).__name__, exc.code, exc.witness)


def test_sigma_by_lower_bounds_matches_the_pairwise_definition(structures):
    rng = random.Random(17)
    pool = parity_pool(structures)
    outcomes = Counter()
    for inv_sg in pool:
        for order in [inv_sg.order, *bent_orders(inv_sg, rng)]:
            bent = dataclasses.replace(inv_sg, order=order)
            expected = sigma_outcome(pairwise_sigma_by_lower_bounds, bent)
            assert sigma_outcome(sigma_by_lower_bounds, bent) == expected
            outcomes[expected[1] if isinstance(expected[0], str) else "ok"] += 1
    # the bent orders reach both failure routes, not only valid sigmas
    assert outcomes["SigmaNotEquivalence"] and outcomes["NotCompatible"]
    assert outcomes["ok"] > len(pool)


@given(st.data())
def test_closure_respects_involution(data):
    pool = [corpus.brandt_b2(), corpus.vee_semilattice(), corpus.gen_SA(corpus.chain2(), 2)]
    inv_sg = data.draw(st.sampled_from(pool))
    sg = inv_sg.base
    parallel = [
        (s, t)
        for s in range(sg.n_arrows)
        for t in range(sg.n_arrows)
        if s < t and sg.parallel(s, t)
    ]
    seed = data.draw(st.lists(st.sampled_from(parallel), max_size=2)) if parallel else []
    cong = congruence_closure(inv_sg, seed)
    for s, t in related_pairs(cong):
        assert cong.related(inv_sg.inv[s], inv_sg.inv[t])


def test_sigma_on_groupoid_is_equality():
    pg = corpus.pair_groupoid(2)
    assert sigma(pg).classes() == tuple((s,) for s in pg.arrows())


def test_sigma_on_chain2_is_universal():
    assert sigma(corpus.chain2()).classes() == ((0, 1),)


def test_sigma_on_b2_is_universal():
    b2 = corpus.brandt_b2()
    cong = sigma(b2)
    # oracle: direct scan over all r for each parallel pair
    for s in b2.arrows():
        for t in b2.arrows():
            expected = any(b2.leq(r, s) and b2.leq(r, t) for r in b2.arrows())
            assert cong.related(s, t) == expected
    assert cong.classes() == ((0, 1, 2, 3, 4),)


def test_sigma_equational_forms_agree(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures
    # the ladder benchmark's Jpi rungs
    pis = ([0, 0], [0, 1, 1], [0, 0, 1, 1], [0, 0, 0], [0, 1, 1, 1])
    pool += [corpus.gen_Jpi(pi) for pi in pis]
    for s in pool:
        direct = sigma(s).rep
        assert direct == sigma_by_equations(s).rep
        assert direct == sigma_by_lower_bounds(s).rep


def pairwise_sigma_by_equations(inv_sg):
    """Oracle: the equational forms pair by pair, over every parallel
    pair and every listed idempotent; the two relations must agree, and
    their union-find closure must add no pair."""
    sg = inv_sg.base
    n = sg.n_arrows
    idems = inv_sg.idempotents
    mul = sg.mul
    right = set()
    left = set()
    for s in range(n):
        for t in range(n):
            if not sg.parallel(s, t):
                continue
            for e in idems:
                if sg.composable(s, e) and mul[s][e] == mul[t][e]:
                    right.add((s, t))
                    break
            for f in idems:
                if sg.composable(f, s) and mul[f][s] == mul[f][t]:
                    left.add((s, t))
                    break
    if right != left:
        raise InternalInconsistencyError(
            "SigmaEquationMismatch", tuple(sorted(right ^ left))[:1]
        )
    uf = UnionFind(n)
    for s, t in right:
        uf.union(s, t)
    cong = GraphedCongruence(base=inv_sg, rep=uf.reps())
    if related_pairs(cong) != frozenset(right):
        raise InternalInconsistencyError("SigmaEquationNotEquivalence", ())
    validate_congruence(cong)
    return cong


def bent_idempotent_lists(inv_sg, rng):
    """Four idempotent lists that are wrong on purpose: one idempotent
    dropped, one other arrow added, a random subset of all arrows, and a
    random subset of the idempotents plus one arrow."""
    idems = list(inv_sg.idempotents)
    arrows = list(inv_sg.arrows())
    dropped = list(idems)
    if dropped:
        dropped.pop(rng.randrange(len(dropped)))
    yield tuple(dropped)
    yield tuple(sorted(set(idems) | {rng.choice(arrows)}))
    yield tuple(s for s in arrows if rng.random() < 0.5)
    yield tuple(e for e in idems if rng.random() < 0.5) + (rng.choice(arrows),)


def test_sigma_by_equations_matches_the_pairwise_scan(structures):
    rng = random.Random(31)
    outcomes = Counter()
    for inv_sg in parity_pool(structures):
        lists = [inv_sg.idempotents, *bent_idempotent_lists(inv_sg, rng)]
        for idems in lists:
            bent = dataclasses.replace(inv_sg, idempotents=idems)
            expected = sigma_outcome(pairwise_sigma_by_equations, bent)
            assert sigma_outcome(sigma_by_equations, bent) == expected, idems
            outcomes[expected[1] if isinstance(expected[0], str) else "ok"] += 1
    # the bent lists reach both of the route's own failure codes
    assert outcomes["SigmaEquationNotEquivalence"] and outcomes["SigmaEquationMismatch"]
    assert outcomes["ok"] > len(structures)


def bent_involution(inv_sg, rng):
    """The structure with two entries of its involution swapped."""
    inv = list(inv_sg.inv)
    s, t = rng.sample(range(len(inv)), 2)
    inv[s], inv[t] = inv[t], inv[s]
    return dataclasses.replace(inv_sg, inv=tuple(inv))


def test_validate_congruence_on_bent_involutions(structures):
    # on a real inverse semigroupoid a compatible partition respects the
    # involution, so only a bent one reaches InvolutionNotRespected
    rng = random.Random(2718)
    seen = Counter()
    for inv_sg in parity_pool(structures):
        if inv_sg.n_arrows < 2:
            continue
        bent = bent_involution(inv_sg, rng)
        for rep in random_partitions(bent, rng, 36):
            cong = GraphedCongruence(base=bent, rep=rep)
            expected = quartic_congruence_check(cong)
            try:
                validate_congruence(cong)
                got = None
            except ValidationError as err:
                got = (err.code, err.witness)
            assert got == expected, (bent.inv, rep)
            seen[expected and expected[0]] += 1
    assert seen["InvolutionNotRespected"] and seen["NotCompatible"] and seen[None]


def test_quotient_by_equality_is_isomorphic_copy():
    b2 = corpus.brandt_b2()
    cong = congruence_closure(b2, [])
    q, proj = quotient(b2, cong)
    assert q.base.mul == b2.base.mul
    assert q.base.dom == b2.base.dom
    assert proj.arrow_map == tuple(range(5))


def test_quotient_is_built_once_per_congruence():
    b2 = corpus.brandt_b2()
    cong = sigma(b2)
    assert quotient(b2, cong) is quotient(b2, cong)
    # an equal structure, built separately, is accepted
    assert quotient(promote_to_inverse(b2.base), cong) is quotient(b2, cong)


def test_classes_are_numbered_once_per_congruence(structures):
    for name, s in structures:
        cong = sigma(s)
        assert cong.classes() is cong.classes(), name
        assert cong.class_index() is cong.class_index(), name
        # the quotient's projection reads the same numbering
        assert cong.quotient[1].arrow_map == cong.class_index(), name
        assert all(
            cong.class_index()[t] == c
            for c, cls in enumerate(cong.classes())
            for t in cls
        ), name


def test_quotient_rejects_another_structure():
    cong = sigma(corpus.brandt_b2())
    with pytest.raises(ValidationError) as err:
        quotient(corpus.chain2(), cong)
    assert err.value.code == "CongruenceBaseMismatch"


def test_certificate_sigma_matches_equations(structures):
    for s in parity_pool(structures):
        assert is_e_unitary(s).sigma.rep == sigma_by_equations(s).rep


def test_chain2_mod_sigma_is_trivial():
    c2 = corpus.chain2()
    q, proj = quotient(c2, sigma(c2))
    assert q.n_arrows == 1
    assert proj.arrow_map == (0, 0)


def test_sigma_quotient_is_groupoid(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures
    for s in pool:
        q, _ = quotient(s, sigma(s))
        assert is_groupoid(q)
        per_object = [0] * q.n_objects
        for e in q.idempotents:
            per_object[q.base.dom[e]] += 1
        assert all(k == 1 for k in per_object)


def test_universal_property_projection_factors_as_identity():
    c2 = corpus.chain2()
    q, proj = quotient(c2, sigma(c2))
    tilde = universal_groupoid_property(c2, proj, q)
    assert tilde.arrow_map == tuple(range(q.n_arrows))


def test_universal_property_chain2_collapse():
    c2 = corpus.chain2()
    trivial = corpus.trivial_monoid()
    phi = validate_morphism(c2.base, trivial.base, [0, 0])
    tilde = universal_groupoid_property(c2, phi, trivial)
    assert tilde.arrow_map == (0,)


def test_universal_property_b2_to_trivial_group():
    b2 = corpus.brandt_b2()
    trivial = corpus.trivial_monoid()
    phi = validate_morphism(b2.base, trivial.base, [0] * 5)
    tilde = universal_groupoid_property(b2, phi, trivial)
    q, proj = quotient(b2, sigma(b2))
    assert q.n_arrows == 1
    for s in b2.arrows():
        assert tilde.arrow_map[proj.arrow_map[s]] == 0


def test_mediating_morphism_unique(structures):
    # two morphisms out of the quotient agreeing after precomposition
    # with the projection agree everywhere (the projection is onto)
    for _name, s in structures:
        q, proj = quotient(s, sigma(s))
        assert set(proj.arrow_map) == set(range(q.n_arrows))


def test_every_morphism_into_a_groupoid_factors():
    # exhaustively enumerate all arrow maps from small fixtures into
    # small groupoids; every one that validates as a morphism must
    # factor uniquely through the sigma quotient
    import itertools

    from semigroupoids.errors import ValidationError

    sources = [corpus.brandt_b2(), corpus.vee_semilattice(), corpus.chain2()]
    targets = [
        corpus.trivial_monoid(),
        corpus.cyclic_group(2),
        corpus.pair_groupoid(2),
    ]
    factored = 0
    for s in sources:
        q, proj = quotient(s, sigma(s))
        for g in targets:
            for candidate in itertools.product(
                range(g.n_arrows), repeat=s.n_arrows
            ):
                try:
                    phi = validate_morphism(s.base, g.base, list(candidate))
                except ValidationError:
                    continue
                tilde = universal_groupoid_property(s, phi, g)
                for a in s.arrows():
                    assert tilde.arrow_map[proj.arrow_map[a]] == candidate[a]
                factored += 1
    assert factored >= 8


def test_idempotent_pure_equality_congruence():
    b2 = corpus.brandt_b2()
    assert is_idempotent_pure(congruence_closure(b2, []))


def test_idempotent_pure_sigma_chain2():
    c2 = corpus.chain2()
    assert is_idempotent_pure(sigma(c2))


def test_idempotent_pure_sigma_b2_false():
    b2 = corpus.brandt_b2()
    assert not is_idempotent_pure(sigma(b2))


def test_e_unitary_groupoids_and_semilatticeoids(structures):
    for name, s in structures:
        if is_groupoid(s) or set(s.idempotents) == set(s.arrows()):
            assert is_e_unitary(s).verdict, name


def test_e_unitary_b2_witness():
    b2 = corpus.brandt_b2()
    cert = is_e_unitary(b2)
    assert not cert.verdict
    assert cert.witness == (0, 1)
    names = [b2.base.arrow_names[w] for w in cert.witness]
    assert names == ["0", "a"]


def test_e_unitary_c2_with_zero_false():
    assert not is_e_unitary(corpus.c2_with_zero()).verdict


def test_e_unitary_matches_idempotent_pure_sigma(structures, small_structures):
    pool = [s for _n, s in structures] + small_structures
    for s in pool:
        assert is_e_unitary(s).verdict == is_idempotent_pure(sigma(s))


def test_lemma_sts_on_groupoid_and_chain2():
    assert check_lemma_sts(is_e_unitary(corpus.pair_groupoid(2)))
    assert check_lemma_sts(is_e_unitary(corpus.chain2()))


def test_lemma_sts_requires_e_unitary():
    with pytest.raises(ValidationError) as err:
        check_lemma_sts(is_e_unitary(corpus.brandt_b2()))
    assert err.value.code == "NotEUnitary"


def test_lemma_sts_exhaustive_small(small_structures):
    for s in small_structures:
        if is_e_unitary(s).verdict:
            assert check_lemma_sts(is_e_unitary(s))


def pairwise_e_unitary(inv_sg, sig):
    """Oracle: the five E-unitarity conditions and the witness, each a
    scan of every arrow pair, evaluated on the congruence ``sig``."""
    sg = inv_sg.base
    inv = inv_sg.inv
    idems = set(inv_sg.idempotents)
    mul = sg.mul
    n = sg.n_arrows
    cond1 = all(s in idems for s in range(n) for e in idems if sig.related(s, e))
    q, proj = sig.quotient
    q_idems = set(q.idempotents)
    cond2 = all(s in idems for s in range(n) if proj.arrow_map[s] in q_idems)

    def pair_idem(s, t):
        return mul[inv[s]][t] in idems and mul[s][inv[t]] in idems

    cond3 = all(
        pair_idem(s, t) for s in range(n) for t in range(n) if sig.related(s, t)
    )
    cond4 = all(
        sig.related(s, t) == pair_idem(s, t)
        for s in range(n)
        for t in range(n)
        if sg.parallel(s, t)
    )
    cond5 = True
    witness = None
    for e in sorted(idems):
        for s in range(n):
            if s not in idems and inv_sg.order.leq[e][s]:
                cond5 = False
                if witness is None:
                    witness = (e, s)
                break
        if witness is not None:
            break
    return (cond1, cond2, cond3, cond4, cond5), witness


def pairwise_idempotent_pure(cong):
    """Oracle: the three forms of idempotent purity, each a scan of every
    arrow pair."""
    inv_sg = cong.base
    sg = inv_sg.base
    idems = set(inv_sg.idempotents)
    mul = sg.mul
    n = sg.n_arrows
    by_definition = all(
        s in idems for s in range(n) for e in idems if cong.related(s, e)
    )
    q, proj = cong.quotient
    q_idems = set(q.idempotents)
    by_projection = all(s in idems for s in range(n) if proj.arrow_map[s] in q_idems)
    by_equation = all(
        mul[inv_sg.inv[s]][t] in idems
        for s in range(n)
        for t in range(n)
        if cong.related(s, t)
    )
    return by_definition, by_projection, by_equation


def pairwise_lemma_sts(cert):
    """Oracle: s t* t = t s* s over every related arrow pair."""
    sig = cert.sigma
    sg, inv = sig.base.base, sig.base.inv
    mul = sg.mul
    return all(
        mul[s][mul[inv[t]][t]] == mul[t][mul[inv[s]][s]]
        for s in sg.arrows()
        for t in sg.arrows()
        if sig.related(s, t)
    )


def class_walk_pool(structures):
    """parity_pool plus chain2, c2 and b2 spread over 2 and 3 objects."""
    spread = [
        corpus.gen_SA(s, k)
        for s in (corpus.chain2(), corpus.cyclic_group(2), corpus.brandt_b2())
        for k in (2, 3)
    ]
    return parity_pool(structures) + spread


def some_congruences(inv_sg, rng):
    """Sigma, equality, and the closures of random parallel seeds."""
    yield sigma(inv_sg)
    yield congruence_closure(inv_sg, [])
    for seed in parallel_seeds(inv_sg, rng, 3):
        yield congruence_closure(inv_sg, seed)


def test_e_unitary_matches_the_pairwise_scan(structures):
    # other congruences stand in for sigma too, handed to the body that
    # evaluates the conditions: there the conditions can disagree, and
    # the disagreement is the raised inconsistency
    rng = random.Random(61)
    outcomes = Counter()
    for inv_sg in class_walk_pool(structures):
        for cong in some_congruences(inv_sg, rng):
            conditions, witness = pairwise_e_unitary(inv_sg, cong)
            if len(set(conditions)) == 1:
                cert = congruences._certify(cong)
                assert (cert.conditions, cert.witness) == (conditions, witness)
            else:
                with pytest.raises(InternalInconsistencyError) as err:
                    congruences._certify(cong)
                assert err.value.witness == conditions
            outcomes[conditions] += 1
    assert outcomes[(True,) * 5] and outcomes[(False,) * 5], outcomes
    assert len(outcomes) > 2, outcomes


def test_idempotent_pure_matches_the_pairwise_scan(structures):
    rng = random.Random(67)
    verdicts = Counter()
    for inv_sg in class_walk_pool(structures):
        for cong in some_congruences(inv_sg, rng):
            forms = pairwise_idempotent_pure(cong)
            assert len(set(forms)) == 1
            assert is_idempotent_pure(cong) == forms[0]
            verdicts[forms[0]] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_lemma_sts_matches_the_pairwise_scan(structures):
    # certificates that carry congruences other than sigma reach False
    rng = random.Random(71)
    verdicts = Counter()
    for inv_sg in class_walk_pool(structures):
        for cong in some_congruences(inv_sg, rng):
            cert = EUnitarityCertificate(True, (True,) * 5, None, cong)
            expected = pairwise_lemma_sts(cert)
            assert check_lemma_sts(cert) == expected
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_validate_congruence_rejects_bad_partition():
    pg = corpus.pair_groupoid(2)
    loops = [s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]]
    rep = list(range(pg.n_arrows))
    rep[loops[1]] = loops[0]
    bad = GraphedCongruence(base=pg, rep=tuple(rep))
    with pytest.raises(ValidationError) as err:
        validate_congruence(bad)
    assert err.value.code == "NotGraphed"
