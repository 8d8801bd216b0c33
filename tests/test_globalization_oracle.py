"""Independent re-derivations of the globalization: the pair equivalence
by explicit relation closure (no union-find), the induced order by its
defining double quantification, and mediating-map uniqueness by
exhausting all carrier maps on small instances."""

import itertools

from semigroupoids import corpus
from semigroupoids.actions import (
    EquivariantMap,
    check_equivariant,
    restrict_global,
)
from semigroupoids.congruences import is_e_unitary
from semigroupoids.globalization import globalize, universal_map
from semigroupoids.ptheorem import induced_sigma_action, munn_action


def naive_pair_partition(a):
    """Classes of the pair set computed with explicit sets: seed the two
    generating rules by their definitions, then close symmetrically and
    transitively by iteration."""
    actor = a.actor
    sg = actor.base
    inv = actor.inv
    mul = sg.mul
    pairs = []
    for s in actor.arrows():
        e = mul[inv[s]][s]
        for x in sorted(a.domains[e]):
            pairs.append((s, x))
    index = {p: i for i, p in enumerate(pairs)}

    rel = {(i, i) for i in range(len(pairs))}
    for i, (s, x) in enumerate(pairs):
        for j, (t, y) in enumerate(pairs):
            # transport rule
            if sg.cod[t] == sg.cod[s]:
                middle = mul[inv[s]][t]
                if x in a.domains[middle] and a.maps[mul[inv[t]][s]][x] == y:
                    rel.add((i, j))
            # shared-point idempotent rule
            if s in actor.idempotents and t in actor.idempotents and x == y:
                rel.add((i, j))

    changed = True
    while changed:
        changed = False
        extra = set()
        for i, j in rel:
            if (j, i) not in rel:
                extra.add((j, i))
        for i, j in rel:
            for j2, k in rel:
                if j == j2 and (i, k) not in rel:
                    extra.add((i, k))
        if extra:
            rel |= extra
            changed = True

    classes = []
    seen = set()
    for i in range(len(pairs)):
        if i in seen:
            continue
        cls = frozenset(j for j in range(len(pairs)) if (i, j) in rel)
        seen |= cls
        classes.append(frozenset(pairs[j] for j in cls))
    return set(classes), pairs, rel


def naive_class_leq(a, r, c1, c2):
    """The induced order by its defining formula: some representative
    (rr, yy) of c2 and some xx <= yy put (rr, xx) in c1."""
    order = a.order
    for j in r.classes[c2]:
        rr, yy = r.pairs[j]
        for xx in range(a.carrier_size):
            if not order.leq[xx][yy]:
                continue
            i = r.pair_index.get((rr, xx))
            if i is not None and r.class_of[i] == c1:
                return True
    return False


def oracle_cases():
    cases = [a for _n, a in corpus.action_corpus() if len(a.domains) <= 8][:25]
    c2 = corpus.chain2()
    cases.append(induced_sigma_action(is_e_unitary(c2), munn_action(c2)))
    return cases


def test_classes_match_naive_closure():
    for a in oracle_cases():
        r = globalize(a)
        mine = {
            frozenset(r.pairs[i] for i in members) for members in r.classes
        }
        naive, _pairs, _rel = naive_pair_partition(a)
        assert mine == naive


def test_order_matches_defining_formula():
    for a in oracle_cases()[:12]:
        r = globalize(a)
        for c1 in range(r.n_classes):
            for c2 in range(r.n_classes):
                assert r.envelope.order.leq[c1][c2] == naive_class_leq(a, r, c1, c2)


def test_mediating_map_unique_by_exhaustion():
    # enumerate every carrier map into the envelope and check that the
    # returned mediating map is the only ordered equivariant one that
    # extends the embedding
    b2 = corpus.brandt_b2()
    theta = munn_action(b2)
    a = restrict_global(theta, theta.order.downset(1))
    r = globalize(a)
    target = r.envelope
    k = universal_map(r, target, r.embed)

    n = r.n_classes
    assert n <= 5
    solutions = []
    for candidate in itertools.product(range(target.carrier_size), repeat=n):
        if any(candidate[r.embed[x]] != r.embed[x] for x in range(a.carrier_size)):
            continue
        ok = check_equivariant(
            EquivariantMap(r.envelope, target, tuple(candidate)), ordered=True
        )
        if ok is None:
            solutions.append(tuple(candidate))
    assert solutions == [k.f]


def test_mediating_map_unique_by_exhaustion_partial_case():
    # restricting the pair groupoid's idempotent action to one object
    # leaves the cross arrows with empty domains; the envelope then has
    # strictly more classes than the embedded copy
    pg = corpus.pair_groupoid(2)
    theta = munn_action(pg)
    a = restrict_global(theta, {0})
    r = globalize(a)
    assert r.n_classes > a.carrier_size
    target = r.envelope
    k = universal_map(r, target, r.embed)
    n = r.n_classes
    assert n <= 4
    solutions = [
        tuple(candidate)
        for candidate in itertools.product(range(target.carrier_size), repeat=n)
        if all(candidate[r.embed[x]] == r.embed[x] for x in range(a.carrier_size))
        and check_equivariant(
            EquivariantMap(r.envelope, target, tuple(candidate)), ordered=True
        )
        is None
    ]
    assert solutions == [k.f]
