"""Partial action validators, orbits, restriction, equivariant maps."""

import ast
import dataclasses
import inspect
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from semigroupoids import actions, corpus
from semigroupoids.actions import (
    EquivariantMap,
    check_built,
    check_equivariant,
    disjoint_union_actions,
    make_action,
    orbit,
    point_action,
    require_valid,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from semigroupoids.errors import (
    InternalInconsistencyError,
    ValidationError,
    Violation,
)
from semigroupoids.posets import (
    chain_poset,
    check_order_iso,
    discrete_poset,
    is_order_ideal,
)
from semigroupoids.globalization import globalize
from semigroupoids.ptheorem import munn_action


def swap_action():
    """The pair groupoid moving a point at each object; global, ordered."""
    pg = corpus.pair_groupoid(2)
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(
        s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1
    )
    gstar = pg.inv[g]
    maps = {loops[0]: {0: 0}, loops[1]: {1: 1}, g: {0: 1}, gstar: {1: 0}}
    return pg, make_action(
        pg,
        ("p", "q"),
        [maps[s] for s in pg.arrows()],
        order=discrete_poset(2, ("p", "q")),
        global_flag=True,
    )


def test_munn_chain2_passes_both_validators():
    theta = munn_action(corpus.chain2())
    assert validate_partial_action_E(theta) is None
    assert validate_partial_action_P(theta) is None
    assert theta.global_flag


def test_identity_action_of_trivial_group():
    trivial = corpus.trivial_monoid()
    a = make_action(
        trivial,
        ("x", "y"),
        [{0: 0, 1: 1}],
        order=discrete_poset(2, ("x", "y")),
        global_flag=True,
    )
    assert validate_partial_action_E(a) is None
    assert validate_partial_action_P(a) is None


def test_shrunk_composition_domain_detected():
    # empty the identity's domain in the two-element group action on its
    # idempotent: composition g*g still reaches the removed point
    c2 = corpus.cyclic_group(2)
    theta = munn_action(c2)
    identity = c2.idempotents[0]
    g = 1 - identity
    maps = [dict(m) for m in theta.maps]
    maps[identity] = {}
    broken = make_action(c2, theta.carrier_names, maps, order=theta.order)
    v = validate_partial_action_E(broken)
    assert v is not None
    assert v.code == "CompositionNotContained"
    assert v.witness == (g, g, 0)
    # the independent axiom route also rejects, through its own clause
    vp = validate_partial_action_P(broken)
    assert vp is not None
    assert vp.code == "IdempotentCoverageFailure"


def test_empty_carrier_rejected():
    trivial = corpus.trivial_monoid()
    a = make_action(trivial, (), [{}])
    assert validate_partial_action_E(a).code == "EmptyCarrier"
    assert validate_partial_action_P(a).code == "EmptyCarrier"


def test_fixtures_pass_both_validators(actions):
    for name, a in actions:
        assert validate_partial_action_E(a) is None, name
        assert validate_partial_action_P(a) is None, name


def test_random_candidates_verdicts_agree():
    for a in corpus.action_candidates(seed=11, random_per_actor=15):
        ve = validate_partial_action_E(a)
        vp = validate_partial_action_P(a)
        assert (ve is None) == (vp is None), (ve, vp)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_verdict_agreement_property(seed):
    rng = random.Random(seed)
    actor = rng.choice(
        [corpus.chain2(), corpus.cyclic_group(2), corpus.brandt_b2(),
         corpus.pair_groupoid(2)]
    )
    a = corpus.random_action_candidate(actor, rng.randrange(1, 4), rng)
    assert (validate_partial_action_E(a) is None) == (
        validate_partial_action_P(a) is None
    )


def test_orbit_of_carrier_is_carrier():
    theta = munn_action(corpus.brandt_b2())
    full = set(range(theta.carrier_size))
    assert orbit(theta, full) == frozenset(full)


def test_orbit_of_empty_is_empty():
    theta = munn_action(corpus.chain2())
    assert orbit(theta, set()) == frozenset()


def test_orbit_pair_groupoid_swap():
    _pg, a = swap_action()
    assert orbit(a, {0}) == frozenset({0, 1})


def test_orbit_monotone_and_expansive(actions):
    for _name, a in actions:
        full = set(range(a.carrier_size))
        sub = set(list(full)[: max(1, a.carrier_size // 2)])
        assert orbit(a, sub) <= orbit(a, full)
        covered = set()
        for e in a.actor.idempotents:
            covered |= a.domains[e]
        y = sub & covered
        assert y <= orbit(a, y)


@given(st.data())
def test_orbit_monotone_random_subsets(data):
    theta = munn_action(
        data.draw(st.sampled_from([corpus.brandt_b2(), corpus.pair_groupoid(2),
                                   corpus.gen_SA(corpus.chain2(), 2)]))
    )
    points = st.integers(0, theta.carrier_size - 1)
    y = data.draw(st.sets(points))
    z = y | data.draw(st.sets(points))
    assert orbit(theta, y) <= orbit(theta, z)


def test_restrict_full_carrier_is_equivalent():
    theta = munn_action(corpus.brandt_b2())
    restricted = restrict_global(theta, range(theta.carrier_size))
    ident = tuple(range(theta.carrier_size))
    assert (
        check_equivariant(
            EquivariantMap(theta, restricted, ident), ordered=True, equivalence=True
        )
        is None
    )


def test_restrict_empty_ideal_rejected():
    theta = munn_action(corpus.chain2())
    with pytest.raises(ValidationError) as err:
        restrict_global(theta, set())
    assert err.value.code == "EmptyCarrier"


def test_restrict_requires_ideal():
    theta = munn_action(corpus.chain2())
    with pytest.raises(ValidationError) as err:
        restrict_global(theta, {0})  # the top idempotent alone is not an ideal
    assert err.value.code == "NotAnIdeal"


@pytest.mark.parametrize("subset", [{5}, {-1, 0, 1}])
def test_restrict_rejects_points_outside_the_carrier(subset):
    theta = munn_action(corpus.chain2())
    with pytest.raises(ValidationError) as err:
        restrict_global(theta, subset)
    assert err.value.code == "NotAnIdeal"


def test_restrictions_pass_ordered_validator(actions):
    for _name, a in actions:
        if not a.global_flag:
            continue
        ideals = corpus.all_order_ideals(a.order)
        for ideal in ideals:
            if not ideal:
                continue
            restricted = restrict_global(a, ideal)
            assert validate_partial_action_P(restricted) is None
            assert validate_partial_action_E(restricted) is None


def test_global_actions_have_tight_domains(actions):
    for _name, a in actions:
        if not a.global_flag:
            continue
        sg = a.actor.base
        mul = sg.mul
        for s in a.actor.arrows():
            e = mul[s][a.actor.inv[s]]
            assert a.domains[s] == a.domains[e]


def test_equivariant_identity(actions):
    for _name, a in actions:
        ident = tuple(range(a.carrier_size))
        assert check_equivariant(
            EquivariantMap(a, a, ident), ordered=True, equivalence=True
        ) is None


def test_order_reversal_fails_only_ordered_check():
    trivial = corpus.trivial_monoid()
    a = make_action(
        trivial,
        ("x", "y"),
        [{0: 0, 1: 1}],
        order=chain_poset(2, ("x", "y")),
        global_flag=True,
    )
    swap = EquivariantMap(a, a, (1, 0))
    assert check_equivariant(swap) is None
    violation = check_equivariant(swap, ordered=True)
    assert violation is not None and violation.code == "OrderNotPreserved"


@pytest.mark.parametrize("unordered_side", ["source", "target"])
def test_ordered_check_needs_both_orders(unordered_side):
    trivial = corpus.trivial_monoid()
    names = ("x", "y")
    ordered = make_action(trivial, names, [{0: 0, 1: 1}], order=chain_poset(2, names))
    unordered = make_action(trivial, names, [{0: 0, 1: 1}])
    pair = (unordered, ordered) if unordered_side == "source" else (ordered, unordered)
    m = EquivariantMap(*pair, (0, 1))
    assert check_equivariant(m) is None
    with pytest.raises(ValidationError) as err:
        check_equivariant(m, ordered=True)
    assert (err.value.code, err.value.witness) == ("MalformedAction", ())


@pytest.mark.parametrize("f", [(0, -1), (0, 2)])
def test_check_equivariant_rejects_map_values_outside_the_target(f):
    # no domain of the source covers point 1, so neither the domain nor
    # the commutation clause reads f(1); the order clause would index by
    # it, -1 from the end or 2 past the target's two points
    trivial = corpus.trivial_monoid()
    names, order = ("x", "y"), chain_poset(2, ("x", "y"))
    source = make_action(trivial, names, [{0: 0}], order=order)
    target = make_action(trivial, names, [{0: 0, 1: 1}], order=order, global_flag=True)
    for ordered, equivalence in itertools.product((False, True), repeat=2):
        with pytest.raises(ValidationError) as err:
            check_equivariant(
                EquivariantMap(source, target, f), ordered=ordered, equivalence=equivalence
            )
        assert (err.value.code, err.value.witness) == ("MalformedAction", (1,))


def test_commutation_failure_detected():
    # the two-element group swapping two points; a constant map cannot
    # commute with the swap
    c2 = corpus.cyclic_group(2)
    g = next(s for s in c2.arrows() if s not in c2.idempotents)
    a = make_action(
        c2,
        ("x", "y"),
        [{0: 0, 1: 1} if s != g else {0: 1, 1: 0} for s in c2.arrows()],
        order=discrete_poset(2, ("x", "y")),
        global_flag=True,
    )
    assert validate_partial_action_E(a) is None
    violation = check_equivariant(EquivariantMap(a, a, (0, 0)))
    assert violation is not None
    assert violation.code == "CommutationFailure"
    assert violation.witness == (g, 0)


def test_point_action_valid(structures):
    for _name, s in structures:
        a = point_action(s)
        assert validate_partial_action_E(a) is None
        assert validate_partial_action_P(a) is None


def quadratic_copy_ordered_clauses(a):
    """Oracle: the ordered clause as first written, with ``is_order_ideal``
    scans and ``check_order_iso`` on restricted copies of the order."""
    order = a.order
    for s in a.actor.arrows():
        if not is_order_ideal(order, a.domains[s]):
            return Violation("NotIdeal", (s,))
    for s in a.actor.arrows():
        src = sorted(a.domains[a.actor.inv[s]])
        theta = a.maps[s]
        dst = [theta[x] for x in src]
        if not check_order_iso(
            list(range(len(src))), order.restrict(src), order.restrict(dst)
        ):
            return Violation("NotOrderIso", (s,))
    return None


def ordered_mutation(a, rng):
    """Drop a point from a domain, with the cells of the two maps that
    meet it, or swap two values of a map (keeping its inverse map its
    inverse when the arrow is not its own inverse)."""
    inv = a.actor.inv
    domains = a.domains
    maps = [dict(m) for m in a.maps]
    if rng.random() < 0.5:
        s = rng.choice([s for s in a.actor.arrows() if domains[s]] or [0])
        if domains[s]:
            y = rng.choice(sorted(domains[s]))
            x = min(k for k, v in maps[s].items() if v == y)
            maps[s].pop(x)
            maps[inv[s]].pop(y, None)
    else:
        s = rng.choice([s for s in a.actor.arrows() if len(maps[s]) > 1] or [0])
        if len(maps[s]) > 1:
            x1, x2 = rng.sample(sorted(maps[s]), 2)
            maps[s][x1], maps[s][x2] = maps[s][x2], maps[s][x1]
            if inv[s] != s:
                maps[inv[s]] = {y: x for x, y in maps[s].items()}
    return make_action(
        a.actor, a.carrier_names, maps, order=a.order, global_flag=a.global_flag
    )


def ordered_parity_inputs():
    rng = random.Random(5)
    valid = [munn_action(s) for s in corpus.enumerate_inverse_semigroupoids(4)]
    valid += [a for _, a in corpus.action_corpus()]
    candidates = corpus.action_candidates(seed=17, random_per_actor=10)
    valid += [
        a for a in candidates
        if a.order is not None and validate_partial_action_E(a) is None
    ]
    mutated = [ordered_mutation(a, rng) for a in valid for _ in range(3)]
    return valid + candidates + mutated


def test_ordered_clauses_match_restrict_oracle(monkeypatch):
    inputs = [a for a in ordered_parity_inputs() if a.order is not None]
    clause_codes = Counter()
    for a in inputs:
        v = actions._ordered_clauses(a)
        assert v == quadratic_copy_ordered_clauses(a), a
        clause_codes[v.code if v else None] += 1
    assert clause_codes["NotIdeal"] and clause_codes["NotOrderIso"]

    new = [(validate_partial_action_E(a), validate_partial_action_P(a)) for a in inputs]
    monkeypatch.setattr(actions, "_ordered_clauses", quadratic_copy_ordered_clauses)
    old = [(validate_partial_action_E(a), validate_partial_action_P(a)) for a in inputs]
    assert new == old
    for route in (0, 1):
        codes = Counter(pair[route].code for pair in new if pair[route] is not None)
        assert codes["NotIdeal"] and codes["NotOrderIso"], codes


# ------------------------------------------------------------------ gates

def test_require_valid_raises_the_first_violation_of_E():
    invalid = 0
    for a in corpus.action_candidates(seed=0):
        fresh = dataclasses.replace(a)
        v = validate_partial_action_E(a)
        for b in (a, fresh):
            if v is None:
                require_valid(b)
                continue
            with pytest.raises(ValidationError) as err:
                require_valid(b)
            assert (err.value.code, err.value.witness) == (v.code, v.witness)
        invalid += v is not None
    assert invalid > 50, invalid


def test_require_valid_reads_the_stored_verdict(monkeypatch):
    runs = []
    real = actions.validate_partial_action_E

    def counting(a):
        runs.append(a)
        return real(a)

    monkeypatch.setattr(actions, "validate_partial_action_E", counting)
    # munn_action's self-check stores a passing verdict on a
    a = munn_action(corpus.chain2())
    bad = dataclasses.replace(a, maps=a.maps[::-1])
    runs.clear()
    for _ in range(3):
        require_valid(a)
    assert runs == []
    # the first gate on bad runs E, the next ones read what it stored
    for _ in range(3):
        with pytest.raises(ValidationError):
            require_valid(bad)
    assert runs == [bad]
    # a stored verdict is what the gate reports, whatever the action
    bad.__dict__[actions._VERDICT] = None
    require_valid(bad)
    assert runs == [bad]


def test_check_built_reports_the_first_violation_under_its_code():
    failing = 0
    for a in corpus.action_candidates(seed=0):
        ve, vp = validate_partial_action_E(a), validate_partial_action_P(a)
        assert (ve is None) == (vp is None)
        # a stored passing verdict does not stand in for a fresh run
        a.__dict__[actions._VERDICT] = None
        if ve is None:
            check_built(a, "BuiltActionInvalid")
            continue
        with pytest.raises(InternalInconsistencyError) as err:
            check_built(a, "BuiltActionInvalid")
        assert err.value.code == "BuiltActionInvalid"
        assert err.value.witness == (ve.code, ve.witness)
        failing += 1
    assert failing > 50, failing


def test_check_built_runs_both_validators_afresh(monkeypatch):
    # each self-check runs E and P's own clauses, and the order clauses
    # common to both once, inside E
    runs = Counter()
    for name in (
        "validate_partial_action_E", "validate_partial_action_P",
        "_first_violation_P", "_ordered_clauses",
    ):
        real = getattr(actions, name)

        def counting(*args, real=real, name=name, **kwargs):
            runs[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(actions, name, counting)
    a = munn_action(corpus.chain2())
    runs.clear()
    for _ in range(2):
        check_built(a, "BuiltActionInvalid")
    assert runs == {
        "validate_partial_action_E": 2,
        "_first_violation_P": 2,
        "_ordered_clauses": 2,
    }


# ------------------------------------------- composition on generators

def full_scan_E(a):
    """Oracle: the clauses of validate_partial_action_E in E's order,
    with both composition clauses scanned over every composable pair."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")
    arrows = actor.arrows()
    maps, domains, inv = a.maps, a.domains, actor.inv
    for s in arrows:
        values = list(maps[s].values())
        if set(maps[s]) != domains[inv[s]]:
            return Violation("NotBijective", (s,))
        if len(set(values)) != len(values) or set(values) != domains[s]:
            return Violation("NotBijective", (s,))
    for s in arrows:
        if any(maps[inv[s]].get(y) != x for x, y in maps[s].items()):
            return Violation("InverseMismatch", (s,))
    if set().union(*domains) != set(a.carrier()):
        return Violation("NotCovering", ())
    composable = [(s, t) for s in arrows for t in arrows if sg.composable(s, t)]
    mul = sg.mul
    for s, t in composable:
        theta_s, theta_st = maps[s], maps[mul[s][t]]
        for x, y in maps[t].items():
            if y in theta_s and theta_st.get(x, -1) != theta_s[y]:
                return Violation("CompositionNotContained", (s, t, x))
    for s in arrows:
        for t in arrows:
            if s != t and actor.order.leq[s][t] and not domains[s] <= domains[t]:
                return Violation("MonotoneDomainFailure", (s, t))
    if a.order is not None:
        v = actions._ordered_clauses(a)
        if v is not None:
            return v
    if a.global_flag:
        for s, t in composable:
            composite = {
                x: maps[s][y] for x, y in maps[t].items() if y in maps[s]
            }
            if composite != maps[mul[s][t]]:
                return Violation("GlobalEqualityFailure", (s, t))
    return None


def global_corpus():
    """The Munn actions of the 4-arrow corpus and of the fixtures, and
    the envelopes of the action corpus."""
    out = [munn_action(s) for s in corpus.enumerate_inverse_semigroupoids(4)]
    out += [munn_action(s) for _name, s in corpus.structure_corpus()]
    out += [globalize(a).envelope for _name, a in corpus.action_corpus()]
    return out


def single_cell_mutants(a):
    """Every action one map cell away from ``a`` that keeps the maps
    bijective (a value changed into one outside theta_s's range, or onto
    another point's, stops at NotBijective before any composition
    clause): a cell x -> theta_s x removed, with its inverse cell, and
    the values of two cells of theta_s exchanged, with theta_{s*} kept
    the inverse of theta_s."""
    inv = a.actor.inv

    def build(maps):
        return make_action(
            a.actor, a.carrier_names, maps, order=a.order, global_flag=a.global_flag
        )

    for s in a.actor.arrows():
        cells = sorted(a.maps[s].items())
        for x, y in cells:
            maps = [dict(m) for m in a.maps]
            maps[s].pop(x)
            maps[inv[s]].pop(y, None)
            yield build(maps)
        for (x1, _y1), (x2, _y2) in itertools.combinations(cells, 2):
            maps = [dict(m) for m in a.maps]
            maps[s][x1], maps[s][x2] = maps[s][x2], maps[s][x1]
            if inv[s] != s:
                maps[inv[s]] = {y: x for x, y in maps[s].items()}
            yield build(maps)


def test_E_on_generators_matches_the_full_scans():
    valid = global_corpus()
    inputs = valid + [m for a in valid for m in single_cell_mutants(a)]
    # partial actions that claim to be global fail the generator test
    inputs += [
        dataclasses.replace(a, global_flag=True)
        for _name, a in corpus.action_corpus() if not a.global_flag
    ]
    codes = Counter()
    reduced = 0
    for a in inputs:
        v = validate_partial_action_E(a)
        assert v == full_scan_E(a), a
        codes[v.code if v else None] += 1
        reduced += a.global_flag and actions._composes_on_generators(a)
    assert all(a.global_flag for a in inputs)
    assert codes[None] > 500 and reduced >= codes[None], (codes, reduced)
    # global mutants that pass the earlier clauses and fail composition
    assert codes["CompositionNotContained"] > 100, codes
    assert codes["GlobalEqualityFailure"] > 100, codes
    assert codes["MonotoneDomainFailure"], codes


def full_scan_P(a):
    """Oracle: the clauses of validate_partial_action_P in P's order,
    with both composition clauses scanned over every composable pair."""
    actor = a.actor
    sg = actor.base
    if a.carrier_size == 0:
        return Violation("EmptyCarrier")
    arrows = actor.arrows()
    maps, domains, inv, mul = a.maps, a.domains, actor.inv, sg.mul
    for s in arrows:
        if set(maps[s]) != domains[inv[s]]:
            return Violation("MalformedDomain", (s,))
    for e in actor.idempotents:
        if any(maps[e][x] != x for x in maps[e]):
            return Violation("NotIdentityOnIdempotent", (e,))
    for x in a.carrier():
        if not any(x in domains[e] for e in actor.idempotents):
            return Violation("IdempotentCoverageFailure", (x,))
    for s in arrows:
        if not domains[s] <= domains[mul[s][inv[s]]]:
            return Violation("DomainContainmentFailure", (s,))
    composable = [(s, t) for s in arrows for t in arrows if sg.composable(s, t)]
    for s, t in composable:
        theta_s, theta_t, st = maps[s], maps[t], mul[s][t]
        preimage = {
            x for x, y in theta_t.items()
            if y in domains[t] and y in domains[inv[s]]
        }
        expected = domains[inv[st]] & domains[inv[t]]
        if preimage != expected:
            return Violation("CompositionDomainMismatch", (s, t))
        for x in sorted(expected):
            y = theta_t[x]
            if x not in maps[st] or y not in theta_s or maps[st][x] != theta_s[y]:
                return Violation("CompositionValueMismatch", (s, t, x))
    if a.order is not None:
        v = actions._ordered_clauses(a)
        if v is not None:
            return v
    if a.global_flag:
        for s in arrows:
            if domains[s] != domains[mul[s][inv[s]]]:
                return Violation("GlobalEqualityFailure", (s,))
    return None


def values_moved_out_of_range(a):
    """For every cell x -> theta_t x, the action with that value moved to
    the least carrier point outside D_t, and to the least one in
    D_{tt*} outside D_t where that differs; theta_{t*} is kept."""
    mul, inv = a.actor.base.mul, a.actor.inv
    for t in a.actor.arrows():
        outside = sorted(set(a.carrier()) - a.domains[t])
        same_object = [z for z in outside if z in a.domains[mul[t][inv[t]]]]
        targets = sorted(set(outside[:1] + same_object[:1]))
        for x in sorted(a.maps[t]):
            for z in targets:
                maps = [dict(m) for m in a.maps]
                maps[t][x] = z
                yield make_action(
                    a.actor, a.carrier_names, maps, order=a.order,
                    global_flag=a.global_flag,
                )


def test_P_on_generators_matches_the_full_scan():
    valid = global_corpus()
    inputs = valid + [m for a in valid for m in single_cell_mutants(a)]
    inputs += [m for a in valid for m in values_moved_out_of_range(a)]
    # partial actions that claim to be global: some are, the rest fail
    # the generator test and reach GlobalEqualityFailure through the scan
    inputs += [
        dataclasses.replace(a, global_flag=True)
        for _name, a in corpus.action_corpus() if not a.global_flag
    ]
    codes = Counter()
    for a in inputs:
        v = validate_partial_action_P(a)
        assert v == full_scan_P(a), a
        codes[v.code if v else None] += 1
        # every valid input takes the reduced path
        assert v is not None or actions._composes_from_the_left(a), a
    assert all(a.global_flag for a in inputs)
    assert codes[None] > 500, codes
    assert codes["CompositionDomainMismatch"] > 100, codes
    assert codes["CompositionValueMismatch"] > 100, codes
    assert codes["GlobalEqualityFailure"], codes


def test_validators_match_the_full_scans_on_candidates():
    # random shapes, near misses and restrictions, mostly not global: the
    # whole first violation of each validator, code and witness
    inputs = corpus.action_candidates(seed=0) + corpus.action_candidates(seed=1)
    inputs += [a for _name, a in corpus.action_corpus()]
    e_codes, p_codes = Counter(), Counter()
    for a in inputs:
        ve, vp = validate_partial_action_E(a), validate_partial_action_P(a)
        assert ve == full_scan_E(a), a
        assert vp == full_scan_P(a), a
        e_codes[ve.code if ve else None] += 1
        p_codes[vp.code if vp else None] += 1
    # every code but EmptyCarrier occurs
    shared = {"NotIdeal", "NotOrderIso", "GlobalEqualityFailure", None}
    assert set(e_codes) == shared | {
        "NotBijective", "InverseMismatch", "NotCovering",
        "CompositionNotContained", "MonotoneDomainFailure",
    }, e_codes
    assert set(p_codes) == shared | {
        "NotIdentityOnIdempotent", "IdempotentCoverageFailure",
        "DomainContainmentFailure", "CompositionDomainMismatch",
        "CompositionValueMismatch",
    }, p_codes


def full_scan_equivariant(a, b, f, ordered, equivalence):
    """Oracle: the clauses of check_equivariant in its order, each a scan
    over the points or the pairs of points of the source."""
    arrows = a.actor.arrows()
    for s in arrows:
        if any(f[x] not in b.domains[s] for x in a.domains[s]):
            return Violation("DomainNotMapped", (s,))
    for s in arrows:
        theta, zeta = a.maps[s], b.maps[s]
        for x in sorted(theta):
            if f[x] not in zeta or zeta[f[x]] != f[theta[x]]:
                return Violation("CommutationFailure", (s, x))
    if ordered:
        leq_a, leq_b = a.order.leq, b.order.leq
        for x, y in itertools.product(a.carrier(), repeat=2):
            if leq_a[x][y] and not leq_b[f[x]][f[y]]:
                return Violation("OrderNotPreserved", (x, y))
    if equivalence:
        if sorted(f) != list(b.carrier()):
            return Violation("InverseNotEquivariant", ())
        inverse = tuple(f.index(y) for y in b.carrier())
        back = full_scan_equivariant(b, a, inverse, ordered, False)
        if back is not None:
            return Violation("InverseNotEquivariant", back.witness)
    return None


def test_check_equivariant_matches_the_full_scan():
    # every map from each corpus action's carrier into itself and into its
    # envelope, with values that leave the target's domains, and -1
    codes = Counter()
    for _name, a in corpus.action_corpus():
        for b in (a, globalize(a).envelope):
            values = range(-1, b.carrier_size)
            for f in itertools.product(values, repeat=a.carrier_size):
                for ordered, equivalence in itertools.product((False, True), repeat=2):
                    v = check_equivariant(
                        EquivariantMap(a, b, f), ordered=ordered, equivalence=equivalence
                    )
                    assert v == full_scan_equivariant(a, b, f, ordered, equivalence), (
                        a, b, f, ordered, equivalence,
                    )
                    codes[v.code if v else None] += 1
    assert set(codes) == {
        None, "DomainNotMapped", "CommutationFailure", "OrderNotPreserved",
        "InverseNotEquivariant",
    }, codes


def _names_in(function):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_P_does_not_use_E_generator_test():
    """Each validator reduces composition with its own helper: neither
    route names the other's helper or loop."""
    tree = ast.parse(inspect.getsource(actions))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    e_names = _names_in(functions["_first_violation_E"])
    e_names |= _names_in(functions["_composes_on_generators"])
    p_names = _names_in(functions["_first_violation_P"])
    p_names |= _names_in(functions["_composes_from_the_left"])
    assert "_composes_on_generators" in e_names
    assert "_composes_from_the_left" in p_names
    assert "_composes_on_generators" not in p_names
    assert "_first_violation_E" not in p_names
    assert "_composes_from_the_left" not in e_names
    assert "validate_partial_action_P" not in e_names
