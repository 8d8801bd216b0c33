"""The universal globalization: construction, induced order, lemma
verification, and the mediating-map property."""

import dataclasses
import functools
import gc
import random
import weakref
from collections import Counter

import pytest

from semigroupoids import actions as actions_module, corpus, globalization, ptheorem
from semigroupoids.actions import (
    EquivariantMap,
    check_equivariant,
    disjoint_union_actions,
    make_action,
    orbit,
    point_action,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from semigroupoids.congruences import is_e_unitary, sigma
from semigroupoids.core import UnionFind
from semigroupoids.errors import InternalInconsistencyError, ValidationError, Violation
from semigroupoids.globalization import (
    GlobalizationResult,
    _class_order,
    check_lemma_tec,
    globalize,
    universal_map,
)
from semigroupoids.inverse import clear_latest_structure_memos, promote_to_inverse
from semigroupoids.posets import (
    FinitePoset,
    chain_poset,
    discrete_poset,
    is_order_ideal,
    semilatticeoid_from_poset,
)
from semigroupoids.ptheorem import induced_sigma_action, mcalister_from_action, munn_action


def row_masks(matrix):
    """The FinitePoset row bitmasks of a boolean matrix, unvalidated."""
    return tuple(sum(1 << y for y, b in enumerate(row) if b) for row in matrix)


def test_global_input_embeds_bijectively():
    theta = munn_action(corpus.brandt_b2())
    r = globalize(theta)
    assert len(set(r.embed)) == r.n_classes == theta.carrier_size
    ident = {r.embed[x]: x for x in range(theta.carrier_size)}
    f = tuple(r.embed)
    assert check_equivariant(
        EquivariantMap(theta, r.envelope, f), ordered=True
    ) is None
    back = tuple(ident[c] for c in range(r.n_classes))
    assert check_equivariant(
        EquivariantMap(r.envelope, theta, back), ordered=True
    ) is None


def test_chain2_induced_action_globalizes():
    c2 = corpus.chain2()
    alpha = induced_sigma_action(is_e_unitary(c2), munn_action(c2))
    r = globalize(alpha)
    assert orbit(r.envelope, set(r.embed)) == frozenset(range(r.n_classes))
    assert check_lemma_tec(r) == []


def test_empty_domain_arrow_is_processed():
    # pair groupoid on a 2-point discrete poset with nothing moved across
    pg = corpus.pair_groupoid(2)
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1)
    gstar = pg.inv[g]
    maps = {loops[0]: {0: 0}, loops[1]: {1: 1}, g: {}, gstar: {}}
    a = make_action(
        pg,
        ("p", "q"),
        [maps[s] for s in pg.arrows()],
        order=discrete_poset(2, ("p", "q")),
    )
    r = globalize(a)
    assert r.n_classes == 4
    assert check_lemma_tec(r) == []


def test_embedding_is_order_embedding(actions):
    for name, a in actions:
        r = globalize(a)
        leq = r.envelope.order.leq
        for x in range(a.carrier_size):
            for y in range(a.carrier_size):
                assert a.order.leq[x][y] == leq[r.embed[x]][r.embed[y]], name


def test_embedded_copy_is_ideal(actions):
    for name, a in actions:
        r = globalize(a)
        assert is_order_ideal(r.envelope.order, set(r.embed)), name


def test_envelope_maps_are_order_isomorphisms(actions):
    for name, a in actions:
        r = globalize(a)
        env = r.envelope
        leq = env.order.leq
        for s in a.actor.arrows():
            theta = env.maps[s]
            for c in theta:
                for d in theta:
                    assert leq[c][d] == leq[theta[c]][theta[d]], name


def test_lemma_report_empty_on_corpus(actions):
    for name, a in actions:
        assert check_lemma_tec(globalize(a)) == [], name


def test_lemma_item_one_trivial_for_global_input():
    theta = munn_action(corpus.chain2())
    r = globalize(theta)
    seen = {}
    for i, (s, x) in enumerate(r.pairs):
        key = (s, r.class_of[i])
        assert seen.setdefault(key, x) == x


def test_restriction_to_embedded_copy_is_equivalent(actions):
    for name, a in actions:
        r = globalize(a)
        restricted = restrict_global(r.envelope, set(r.embed))
        position = {c: i for i, c in enumerate(sorted(set(r.embed)))}
        f = tuple(position[c] for c in r.embed)
        assert (
            check_equivariant(
                EquivariantMap(a, restricted, f), ordered=True, equivalence=True
            )
            is None
        ), name


def test_universal_map_to_self_is_identity():
    theta = munn_action(corpus.brandt_b2())
    r = globalize(theta)
    k = universal_map(r, r.envelope, r.embed)
    assert k.f == tuple(range(r.n_classes))


def test_universal_map_to_point_is_constant():
    c2 = corpus.chain2()
    alpha = induced_sigma_action(is_e_unitary(c2), munn_action(c2))
    r = globalize(alpha)
    target = point_action(alpha.actor)
    k = universal_map(r, target, tuple(0 for _ in range(alpha.carrier_size)))
    assert set(k.f) == {0}


def test_universal_map_requires_global_target():
    theta = munn_action(corpus.chain2())
    r = globalize(theta)
    partial = restrict_global(theta, theta.order.downset(1))
    with pytest.raises(ValidationError):
        universal_map(r, partial, tuple(range(partial.carrier_size)))


def test_mediating_maps_between_two_globalizations():
    # globalize the same action twice with the carrier relabeled; the two
    # mediating maps compose to fix the embedded copy
    theta = munn_action(corpus.brandt_b2())
    ideal = theta.order.downset(1)  # a proper ideal: {0, aa*}
    a = restrict_global(theta, ideal)
    r1 = globalize(a)

    relabel = list(range(a.carrier_size))[::-1]
    inverse_relabel = [0] * len(relabel)
    for i, j in enumerate(relabel):
        inverse_relabel[j] = i
    names = tuple(a.carrier_names[relabel[i]] for i in range(len(relabel)))
    leq = tuple(
        tuple(a.order.leq[relabel[x]][relabel[y]] for y in range(len(relabel)))
        for x in range(len(relabel))
    )
    from semigroupoids.posets import FinitePoset

    b = make_action(
        a.actor,
        names,
        [
            {inverse_relabel[x]: inverse_relabel[y] for x, y in a.maps[s].items()}
            for s in a.actor.arrows()
        ],
        order=FinitePoset(row_masks(leq), names),
        global_flag=False,
    )
    r2 = globalize(b)

    j1 = tuple(r2.embed[inverse_relabel[x]] for x in range(a.carrier_size))
    k12 = universal_map(r1, r2.envelope, j1)
    j2 = tuple(r1.embed[relabel[x]] for x in range(b.carrier_size))
    k21 = universal_map(r2, r1.envelope, j2)
    for x in range(a.carrier_size):
        assert k21.f[k12.f[r1.embed[x]]] == r1.embed[x]


def test_universal_map_to_disjoint_union_target():
    theta = munn_action(corpus.chain2())
    r = globalize(theta)
    target = disjoint_union_actions(r.envelope, point_action(theta.actor))
    k = universal_map(r, target, r.embed)
    assert all(k.f[c] == c for c in range(r.n_classes))


def _definition_leq_oracle(r, c1, c2):
    order = r.action.order
    for i in r.classes[c2]:
        p, yp = r.pairs[i]
        for xp in order.downset(yp):
            j = r.pair_index.get((p, xp))
            if j is not None and r.class_of[j] == c1:
                return True
    return False


def all_pairs_lemma_oracle(r):
    """Oracle: check_lemma_tec as first written, scanning all pairs of
    pairs for clause (ii) and evaluating the defining order on classes
    afresh for every (c1, c2) it reads."""
    order = r.action.order
    out = []
    same_arrow = {}
    for i, (s, x) in enumerate(r.pairs):
        same_arrow.setdefault(s, []).append(i)
    for s, idxs in same_arrow.items():
        for i in idxs:
            for j in idxs:
                if i < j and r.class_of[i] == r.class_of[j]:
                    out.append(Violation(
                        "SameArrowRelatednessFailure", (s, r.pairs[i][1], r.pairs[j][1])
                    ))
    for i, (s, x) in enumerate(r.pairs):
        for j, (t, y) in enumerate(r.pairs):
            if r.class_of[i] != r.class_of[j]:
                continue
            for xp in order.downset(x):
                ii = r.pair_index.get((s, xp))
                if ii is None:
                    out.append(Violation("DownwardTransportFailure", (s, x, t, y, xp)))
                    continue
                found = any(
                    r.pair_index.get((t, yp)) is not None
                    and r.class_of[r.pair_index[(t, yp)]] == r.class_of[ii]
                    for yp in order.downset(y)
                )
                if not found:
                    out.append(Violation("DownwardTransportFailure", (s, x, t, y, xp)))
    n = r.n_classes
    for c1 in range(n):
        for c2 in range(n):
            if not _definition_leq_oracle(r, c1, c2):
                continue
            for j in r.classes[c2]:
                p, z = r.pairs[j]
                ok = any(
                    r.pair_index.get((p, zp)) is not None
                    and r.class_of[r.pair_index[(p, zp)]] == c1
                    for zp in order.downset(z)
                )
                if not ok:
                    out.append(Violation("RepresentativeCriterionFailure", (c1, c2, p, z)))
    for c1 in range(n):
        for c2 in range(n):
            if r.envelope.order.leq[c1][c2] != _definition_leq_oracle(r, c1, c2):
                out.append(Violation("OrderComputationMismatch", (c1, c2)))
    return out


def corrupted_results(r, rng):
    """Copies of a globalization with its bookkeeping broken: two classes
    merged or one pair moved in ``class_of``, two entries of ``classes``
    swapped, and the stored order reversed or with one entry flipped."""
    n = r.n_classes
    if n < 2:
        return
    c1, c2 = sorted(rng.sample(range(n), 2))
    merged = tuple(c1 if c == c2 else c for c in r.class_of)
    yield dataclasses.replace(r, class_of=merged)
    moved = list(r.class_of)
    i = rng.randrange(len(moved))
    moved[i] = c2 if moved[i] != c2 else c1
    yield dataclasses.replace(r, class_of=tuple(moved))
    swapped = list(r.classes)
    swapped[c1], swapped[c2] = swapped[c2], swapped[c1]
    yield dataclasses.replace(r, classes=tuple(swapped))
    env = r.envelope
    names = env.order.names
    transposed = FinitePoset(row_masks(zip(*env.order.leq)), names)
    yield dataclasses.replace(r, envelope=dataclasses.replace(env, order=transposed))
    flipped = [list(row) for row in env.order.leq]
    flipped[c1][c2] = not flipped[c1][c2]
    flipped_order = FinitePoset(row_masks(flipped), names)
    yield dataclasses.replace(r, envelope=dataclasses.replace(env, order=flipped_order))
    chain = chain_poset(r.action.carrier_size, r.action.carrier_names)
    yield dataclasses.replace(r, action=dataclasses.replace(r.action, order=chain))


def test_check_lemma_tec_matches_all_pairs_oracle(actions):
    rng = random.Random(3)
    inputs = [a for _, a in actions] + [a for _, a in corpus.groupoid_action_corpus()]
    for k, size in ((3, 3), (4, 3)):
        theta = munn_action(corpus.gen_SA(corpus.chain_semilattice(k), size))
        inputs += [restrict_global(theta, corpus.random_ideal(theta.order, rng))
                   for _ in range(2)]
    codes = Counter()
    nonempty = total = 0
    for a in inputs:
        r = globalize(a)
        assert check_lemma_tec(r) == all_pairs_lemma_oracle(r) == []
        for bad in corrupted_results(r, rng):
            got = check_lemma_tec(bad)
            assert got == all_pairs_lemma_oracle(bad)
            codes.update(v.code for v in got)
            nonempty += bool(got)
            total += 1
    assert nonempty > 0.85 * total, (nonempty, total)
    assert set(codes) == {
        "SameArrowRelatednessFailure",
        "DownwardTransportFailure",
        "RepresentativeCriterionFailure",
        "OrderComputationMismatch",
    }, codes


def scan_globalize_oracle(a):
    """The construction of ``globalize`` as it was before pairs were
    indexed: the transport rule tries every arrow for every pair and the
    envelope domains scan every pair for every arrow.  No self-checks."""
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
    uf = UnionFind(len(pairs))
    for i, (s, x) in enumerate(pairs):
        for t in actor.arrows():
            if sg.cod[t] != sg.cod[s]:
                continue
            if x not in a.domains[mul[inv[s]][t]]:
                continue
            y = a.maps[mul[inv[t]][s]][x]
            uf.union(i, index[(t, y)])
    for x in range(a.carrier_size):
        tagged = [e for e in actor.idempotents if x in a.domains[e]]
        for e in tagged[1:]:
            uf.union(index[(tagged[0], x)], index[(e, x)])
    rep = uf.reps()
    cls_of_root = {r: c for c, r in enumerate(sorted(set(rep)))}
    class_of = tuple(cls_of_root[r] for r in rep)
    members = [[] for _ in cls_of_root]
    for i in range(len(pairs)):
        members[class_of[i]].append(i)
    classes = tuple(tuple(ms) for ms in members)
    class_names = tuple(
        "[%s,%s]"
        % (sg.arrow_names[pairs[ms[0]][0]], a.carrier_names[pairs[ms[0]][1]])
        for ms in classes
    )
    domains_env = []
    member_sets = []
    for s in actor.arrows():
        dom_pairs = set()
        for i, (p, x) in enumerate(pairs):
            if sg.cod[p] != sg.cod[s]:
                continue
            sp = mul[inv[s]][p]
            e = mul[inv[sp]][sp]
            if x in a.domains[e]:
                dom_pairs.add(i)
        domains_env.append({class_of[i] for i in dom_pairs})
        member_sets.append([set() for _ in classes])
        for i in dom_pairs:
            member_sets[s][class_of[i]].add(i)
    maps_env = []
    for s in actor.arrows():
        theta = {}
        for c in sorted(domains_env[inv[s]]):
            values = {
                class_of[index[(mul[s][pairs[i][0]], pairs[i][1])]]
                for i in member_sets[inv[s]][c]
            }
            assert len(values) == 1
            theta[c] = values.pop()
        maps_env.append(theta)
    order = None
    if a.order is not None:
        order = _class_order(a, pairs, index, class_of, classes, class_names)
    envelope = make_action(
        actor,
        class_names,
        maps_env,
        order=order,
        global_flag=True,
    )
    embed = tuple(
        class_of[index[(min(e for e in actor.idempotents if x in a.domains[e]), x)]]
        for x in range(a.carrier_size)
    )
    return GlobalizationResult(
        action=a,
        pairs=tuple(pairs),
        class_of=class_of,
        classes=classes,
        envelope=envelope,
        embed=embed,
        pair_index=index,
    )


def test_globalize_matches_scan_oracle(actions, structures):
    rng = random.Random(7)
    inputs = [a for _, a in actions]
    # Munn actions restricted to ideals leave pairs (s, x) with x outside
    # the domain of theta_s, which take the full transport loop
    for _name, s in structures:
        theta = munn_action(s)
        inputs += [
            restrict_global(theta, ideal)
            for ideal in corpus.all_order_ideals(theta.order) if ideal
        ]
    inputs += [
        a for a in corpus.action_candidates(seed=9)
        if validate_partial_action_E(a) is None
    ]
    inputs += [munn_action(s) for s in corpus.enumerate_inverse_semigroupoids(4)]
    for s, size in ((corpus.chain2(), 3), (corpus.brandt_b2(), 2), (corpus.c2_with_zero(), 3)):
        theta = munn_action(corpus.gen_SA(s, size))
        inputs += [restrict_global(theta, corpus.random_ideal(theta.order, rng))
                   for _ in range(4)]
    multi_object = outside = 0
    for a in inputs:
        r = globalize(a)
        outside += sum(x not in a.maps[s] for s, x in r.pairs)
        expected = scan_globalize_oracle(a)
        # every field: pairs, classes, class names, envelope domains,
        # maps and order, the embedding
        assert r == expected
        assert r.envelope.carrier_names == expected.envelope.carrier_names
        assert r.envelope.maps == expected.envelope.maps
        multi_object += a.actor.n_objects > 1
    assert multi_object > 20, multi_object
    assert outside > 100, outside


def test_globalize_unions_once_per_pair_in_its_domain(monkeypatch):
    # on a global action every pair (s, x) has x in the domain of
    # theta_s, so the transport rule makes one union per pair, not one
    # per arrow with the same codomain
    calls = Counter()

    class CountingUnionFind(UnionFind):
        def union(self, a, b):
            calls["union"] += 1
            return super().union(a, b)

    monkeypatch.setattr(globalization, "UnionFind", CountingUnionFind)
    a = munn_action(corpus.gen_SA(corpus.chain2(), 3))
    actor, sg = a.actor, a.actor.base
    r = globalize(a)
    tags = [sum(x in a.domains[e] for e in actor.idempotents) for x in a.carrier()]
    idempotent_rule = sum(n - 1 for n in tags)
    assert calls["union"] <= len(r.pairs) + idempotent_rule
    # what trying every arrow t with cod t = cod s would make
    mul = sg.mul
    transport = sum(
        x in a.domains[mul[actor.inv[s]][t]]
        for s, x in r.pairs
        for t in actor.arrows()
        if sg.cod[t] == sg.cod[s]
    )
    assert transport > 2 * (len(r.pairs) + idempotent_rule), transport


def _counting_validators(monkeypatch, module):
    """Count the calls ``module`` makes to the two validators, by the
    action they are called on; the wrappers keep the validators' names."""
    calls = Counter()
    for name in ("validate_partial_action_E", "validate_partial_action_P"):
        real = getattr(module, name)

        def wrapper(a, real=real, name=name):
            calls[name, id(a)] += 1
            return real(a)

        monkeypatch.setattr(module, name, functools.wraps(real)(wrapper))
    return calls


def test_universal_map_checks_only_targets_without_verdicts(actions, monkeypatch):
    calls = _counting_validators(monkeypatch, actions_module)
    checked = 0
    for _, a in actions:
        r = globalize(a)
        point = point_action(a.actor)
        union = disjoint_union_actions(r.envelope, point)
        calls.clear()
        universal_map(r, r.envelope, r.embed)
        # globalize's self-check has just validated the envelope
        assert not calls
        # the input gate runs E alone on a target without a verdict
        universal_map(r, point, (0,) * a.carrier_size)
        assert calls == {("validate_partial_action_E", id(point)): 1}
        calls.clear()
        universal_map(r, union, r.embed)
        assert calls == {("validate_partial_action_E", id(union)): 1}
        checked += 1
    assert checked == len(actions)


def _presetting(make):
    """``make_action`` whose result already carries the passing verdict
    the input gate reads, so a self-check that read it would skip."""

    def wrapper(*args, **kwargs):
        a = make(*args, **kwargs)
        a.__dict__[actions_module._VERDICT] = None
        return a

    return wrapper


def test_self_checks_and_public_validators_always_compute(monkeypatch):
    runs = Counter()
    real_clauses = actions_module._ordered_clauses

    def counting(a):
        runs[id(a)] += 1
        return real_clauses(a)

    monkeypatch.setattr(actions_module, "_ordered_clauses", counting)
    for module in (actions_module, globalization, ptheorem):
        monkeypatch.setattr(module, "make_action", _presetting(module.make_action))
    c2 = corpus.chain2()

    # a self-check runs the order clauses once, common to E and P; each
    # run of a public validator computes them, also on a checked action
    theta = munn_action(c2)
    assert runs[id(theta)] == 1
    for _ in range(2):
        assert validate_partial_action_E(theta) is None
        assert validate_partial_action_P(theta) is None
    assert runs[id(theta)] == 5

    # each globalization, Munn action, restriction and glued action
    # validates what it built, twice when built twice; a globalization is
    # built once per action object and a Munn action once per structure
    # object, so each pair is on two distinct objects
    copies = [dataclasses.replace(theta) for _ in range(2)]
    results = [globalize(b) for b in copies]
    assert [runs[id(r.envelope)] for r in results] == [1, 1]
    munns = [munn_action(promote_to_inverse(c2.base)) for _ in range(2)]
    assert [runs[id(m)] for m in munns] == [1, 1]
    restricted = [restrict_global(theta, {1}) for _ in range(2)]
    assert [runs[id(b)] for b in restricted] == [1, 1]
    glued = [induced_sigma_action(is_e_unitary(c2), theta) for _ in range(2)]
    assert [runs[id(g)] for g in glued] == [1, 1]
    # the input checks read the verdict E stored on theta
    assert runs[id(theta)] == 5


def test_replaced_action_carries_no_verdict():
    a = munn_action(corpus.brandt_b2())
    globalize(a)
    reversed_order = dataclasses.replace(
        a, order=FinitePoset(row_masks(zip(*a.order.leq)), a.order.names)
    )
    shuffled_maps = dataclasses.replace(a, maps=a.maps[::-1])
    for bad, expected in ((reversed_order, ("NotIdeal", (0,))),
                          (shuffled_maps, ("NotBijective", (2,)))):
        with pytest.raises(ValidationError) as err:
            globalize(bad)
        assert (err.value.code, err.value.witness) == expected


def test_transport_lemma_step_one_premise():
    # step (1) of globalize's lemma: for x in D_{s*} & D_{s* t} with
    # cod t = cod s, theta_s x lies in D_t and theta_{t*} theta_s x =
    # theta_{t* s} x, on every valid action of the three corpora
    inputs = [a for _, a in corpus.action_corpus()]
    inputs += [a for _, a in corpus.groupoid_action_corpus()]
    for seed in range(3):
        inputs += corpus.action_candidates(seed=seed)
    instances = 0
    for a in inputs:
        if validate_partial_action_E(a) is not None:
            continue
        sg, inv, domains, maps = a.actor.base, a.actor.inv, a.domains, a.maps
        into = [[t for t in sg.arrows() if sg.cod[t] == u] for u in range(sg.n_objects)]
        mul = sg.mul
        for s in sg.arrows():
            for x, z in maps[s].items():
                for t in into[sg.cod[s]]:
                    if x not in domains[mul[inv[s]][t]]:
                        continue
                    instances += 1
                    assert z in domains[t]
                    assert maps[inv[t]][z] == maps[mul[inv[t]][s]][x]
    # 25,091 instances when this test was written
    assert instances > 20000
    # the inclusion D_{st} <= D_s, which the step must not rely on, fails
    a = dict(corpus.action_corpus())["munn[pair2]|[0]"]
    sg = a.actor.base
    mul = sg.mul
    assert any(
        not a.domains[mul[s][t]] <= a.domains[s]
        for s in sg.arrows() for t in sg.arrows() if sg.composable(s, t)
    )


class _FoldLastClass(UnionFind):
    """Union-find whose last class is reported as part of class 0."""

    def reps(self):
        rep = super().reps()
        last = max(rep)
        return tuple(0 if r == last else r for r in rep)


@pytest.mark.parametrize(
    "actor, witness",
    [(corpus.brandt_b2(), (1, 0)), (corpus.gen_Jpi([0, 0]), (4, 0))],
)
def test_envelope_self_check_reports_the_least_clash(monkeypatch, actor, witness):
    theta = munn_action(actor)
    monkeypatch.setattr(globalization, "UnionFind", _FoldLastClass)
    with pytest.raises(InternalInconsistencyError) as err:
        globalize(theta)
    assert (err.value.code, err.value.witness) == ("EnvelopeMapNotWellDefined", witness)


def test_globalize_keeps_one_result_per_action_object(monkeypatch):
    builds = Counter()
    failures = Counter()
    real_check = globalization.check_built

    def counting(a, code):
        if failures[code]:
            failures[code] -= 1
            raise InternalInconsistencyError("Injected", ())
        builds[code] += 1
        return real_check(a, code)

    # the envelope's self-check runs once per build
    monkeypatch.setattr(globalization, "check_built", counting)

    # a repeat call on one action object returns what its one build made,
    # and so does the McAlister triple built from that action
    a = corpus.fiber_shift_action()
    first = globalize(a)
    assert globalize(a) is first
    triple = mcalister_from_action(a, semilatticeoid_from_poset(a.order))
    assert triple.action is first.envelope
    assert builds == {"EnvelopeNotGlobal": 1}

    # an equal but distinct action is built afresh
    b = dataclasses.replace(a)
    assert b == a and b is not a
    second = globalize(b)
    assert second is not first and second == first
    assert builds == {"EnvelopeNotGlobal": 2}

    # a build that raises stores nothing, so the next call builds again
    c = dataclasses.replace(a)
    failures["EnvelopeNotGlobal"] = 1
    with pytest.raises(InternalInconsistencyError):
        globalize(c)
    assert globalize(c).action is c
    assert builds == {"EnvelopeNotGlobal": 3}

    # globalizing a second action releases the first
    d = dataclasses.replace(a)
    globalize(d)
    released = weakref.ref(d)
    globalize(dataclasses.replace(a))
    del d
    gc.collect()
    assert released() is None


def pair_scan_maps(r):
    """The envelope maps by the pair rule at every member of every class:
    theta_s sends the class of (p, x) to that of (s p, x), for each pair
    (p, x) and each arrow s with dom s = cod p, with no clash."""
    sg = r.action.actor.base
    maps = [{} for _ in sg.arrows()]
    for i, (p, x) in enumerate(r.pairs):
        for s in sg.arrows():
            if sg.dom[s] != sg.cod[p]:
                continue
            j = r.pair_index.get((sg.product(s, p), x))
            if j is not None:
                assert maps[s].setdefault(r.class_of[i], r.class_of[j]) == r.class_of[j]
    return tuple(dict(sorted(m.items())) for m in maps)


def _words_inputs():
    inputs = [a for _, a in corpus.action_corpus()]
    inputs += [a for _, a in corpus.groupoid_action_corpus()]
    inputs += [
        a for a in corpus.action_candidates(seed=0)
        if validate_partial_action_E(a) is None
    ]
    inputs.append(munn_action(corpus.gen_Jpi([0] * 4)))
    return inputs


def test_envelope_maps_by_words_match_the_pair_scan():
    derived = Counter()
    for a in _words_inputs():
        r = globalize(a)
        assert r.envelope.maps == pair_scan_maps(r)
        derived[a.actor.n_objects > 1] += a.actor.n_arrows - len(a.actor.base.generators)
    # arrows whose maps were composed along words, not read off pairs:
    # 452 on one object and 165 on several when this test was written
    assert derived[False] > 400 and derived[True] > 100, derived


def _with_generators(a, generators):
    """``a`` over a copy of its actor that lists other generators."""
    base = dataclasses.replace(a.actor.base, generators=generators)
    return dataclasses.replace(a, actor=dataclasses.replace(a.actor, base=base))


def test_a_fault_in_the_words_route_raises_only_its_own_code(monkeypatch):
    real = globalization._compose
    faults = {
        "reversed": lambda x, h: real(h, x),
        "first entry dropped": lambda x, h: dict(list(real(x, h).items())[1:]),
        "values shifted": lambda x, h: {c: d + 1 for c, d in real(x, h).items()},
    }
    inputs = _words_inputs()
    raised = Counter()
    for name, fault in faults.items():
        changed = []

        def faulty(theta_x, theta_h, fault=fault, changed=changed):
            got = fault(theta_x, theta_h)
            changed.append(got != real(theta_x, theta_h))
            return got

        monkeypatch.setattr(globalization, "_compose", faulty)
        for a in inputs:
            clear_latest_structure_memos()
            changed.clear()
            try:
                r = globalize(a)
            except InternalInconsistencyError as err:
                assert (err.code, err.witness) == ("EnvelopeWordsMismatch", ())
                assert any(changed), name
                raised[name] += 1
            else:
                # a fault that changed no composite changed nothing
                assert not any(changed), name
                assert r.envelope.maps == pair_scan_maps(r)
    monkeypatch.setattr(globalization, "_compose", real)
    # a generating set that misses its last pick reaches too few arrows
    for a in inputs:
        gens = a.actor.base.generators
        if len(gens) > 1:
            with pytest.raises(InternalInconsistencyError) as err:
                globalize(_with_generators(a, gens[:-1]))
            assert (err.value.code, err.value.witness) == ("EnvelopeWordsMismatch", ())
            raised["generator dropped"] += 1
    assert all(raised[name] > 20 for name in [*faults, "generator dropped"]), raised


def test_the_words_route_reports_each_clash_as_the_pair_scan_does(monkeypatch):
    # with the last class folded into class 0, the words route must
    # report every clash the pair scan over every arrow finds, at the
    # same least witness, also where it derives no arrow
    monkeypatch.setattr(globalization, "UnionFind", _FoldLastClass)
    words_route = globalization._maps_by_words

    def outcome(a):
        clear_latest_structure_memos()
        with pytest.raises(InternalInconsistencyError) as err:
            globalize(a)
        return err.value.code, err.value.witness

    clashes = Counter()
    for a in _words_inputs():
        monkeypatch.setattr(globalization, "_maps_by_words", lambda *args: None)
        scanned = outcome(a)
        monkeypatch.setattr(globalization, "_maps_by_words", words_route)
        if scanned[0] == "EnvelopeMapNotWellDefined":
            assert outcome(a) == scanned
            clashes[a.actor.n_arrows == len(a.actor.base.generators)] += 1
    # 8 with every arrow a generator and 20 with others when written
    assert clashes[True] > 5 and clashes[False] > 15, clashes
