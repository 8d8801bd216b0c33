"""Fixture generators, exhaustive small-structure enumeration, and the
standing corpora used by the verification suites.

The enumerator fixes the dom/cod pattern and an involution first, then
fills the product table cell by cell with constraint propagation
(mirrored cells, forced idempotent identities, incremental
associativity), validating and filtering each completed table.
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterator, Sequence

from .actions import PartialActionData, make_action, restrict_global
from .core import arrows_by_end, validate_semigroupoid
from .errors import InternalInconsistencyError, ValidationError
from .inverse import InverseSemigroupoid, is_groupoid, promote_to_inverse
from .posets import FinitePoset, discrete_poset, validate_poset
from .ptheorem import munn_action


# ---------------------------------------------------------------- fixtures

def _one_object(names: Sequence[str], product) -> InverseSemigroupoid:
    """The inverse semigroupoid on one object whose arrows are ``names``
    and whose product of arrows i and j is ``product(i, j)``."""
    n = len(names)
    triples = [(i, j, product(i, j)) for i in range(n) for j in range(n)]
    sg = validate_semigroupoid([0] * n, [0] * n, triples, arrow_names=names)
    return promote_to_inverse(sg)


def trivial_monoid() -> InverseSemigroupoid:
    return _one_object(("e",), lambda i, j: 0)


def chain_semilattice(n: int, names: Sequence[str] | None = None) -> InverseSemigroupoid:
    """One object; idempotents e0 > e1 > ... with product = lower one."""
    if names is None:
        names = tuple(f"e{i}" for i in range(n))
    return _one_object(names, max)


def chain2() -> InverseSemigroupoid:
    """The two-element chain semilattice {e, f} with f below e."""
    return chain_semilattice(2, names=("e", "f"))


def vee_semilattice() -> InverseSemigroupoid:
    """Two incomparable idempotents over a common bottom."""
    return _one_object(("a", "b", "0"), lambda i, j: i if i == j else 2)


def cyclic_group(n: int) -> InverseSemigroupoid:
    return _one_object(tuple(f"g{i}" for i in range(n)), lambda i, j: (i + j) % n)


def pair_groupoid(m: int) -> InverseSemigroupoid:
    """All arrows between m objects; arrow (b, a) runs from a to b."""
    arrows = [(b, a) for b in range(m) for a in range(m)]
    index = {p: i for i, p in enumerate(arrows)}
    dom = [a for (b, a) in arrows]
    cod = [b for (b, a) in arrows]
    triples = []
    for i, (b1, a1) in enumerate(arrows):
        for j, (b2, a2) in enumerate(arrows):
            if a1 == b2:
                triples.append((i, j, index[(b1, a2)]))
    names = tuple(f"g{a}{b}" for (b, a) in arrows)
    sg = validate_semigroupoid(dom, cod, triples, arrow_names=names)
    return promote_to_inverse(sg)


def discrete_groupoid(m: int) -> InverseSemigroupoid:
    sg = validate_semigroupoid(
        list(range(m)),
        list(range(m)),
        [(i, i, i) for i in range(m)],
        arrow_names=tuple(f"1u{i}" for i in range(m)),
    )
    return promote_to_inverse(sg)


def brandt_b2() -> InverseSemigroupoid:
    """The five-element combinatorial Brandt semigroup over one object."""
    names = ("0", "a", "a*", "aa*", "a*a")
    zero, a, astar, aas, asa = range(5)
    table = {
        (a, asa): a,
        (a, astar): aas,
        (astar, aas): astar,
        (astar, a): asa,
        (aas, a): a,
        (aas, aas): aas,
        (asa, astar): astar,
        (asa, asa): asa,
    }
    return _one_object(names, lambda i, j: table.get((i, j), zero))


def c2_with_zero() -> InverseSemigroupoid:
    """The two-element group with an absorbing zero adjoined; the zero
    sits below the non-idempotent, so the result is not E-unitary."""
    one, g, zero = range(3)

    def product(i, j):
        if zero in (i, j):
            return zero
        return one if i == j else g

    return _one_object(("1", "g", "0"), product)


def two_fiber_semilatticeoid() -> InverseSemigroupoid:
    """A two-element chain over one object next to a point over another."""
    dom = [0, 0, 1]
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 2, 2)]
    sg = validate_semigroupoid(
        dom, dom, triples, arrow_names=("e", "f", "p"), object_names=("u", "v")
    )
    return promote_to_inverse(sg)


# -------------------------------------------------------------- generators

def gen_SA(s: InverseSemigroupoid, a_size: int) -> InverseSemigroupoid:
    """Spread a one-object structure over a set of objects: arrows are
    triples (v, s, u) composing through the middle coordinate."""
    if s.n_objects != 1:
        raise ValidationError("MalformedTable", (), "need a one-object structure")
    if a_size < 1:
        raise ValidationError("MalformedTable", (), "need a nonempty object set")
    ns = s.n_arrows
    arrows = [
        (v, m, u)
        for v in range(a_size)
        for m in range(ns)
        for u in range(a_size)
    ]
    index = {t: i for i, t in enumerate(arrows)}
    dom = [u for (_, _, u) in arrows]
    cod = [v for (v, _, _) in arrows]
    into = arrows_by_end(cod, a_size)
    triples = []
    for i, (w, t, v) in enumerate(arrows):
        for j in into[v]:
            _v, m, u = arrows[j]
            triples.append((i, j, index[(w, s.base.product(t, m), u)]))
    names = tuple(
        f"({v},{s.base.arrow_names[m]},{u})" for (v, m, u) in arrows
    )
    sg = validate_semigroupoid(
        dom,
        cod,
        triples,
        n_objects=a_size,
        arrow_names=names,
        object_names=tuple(str(u) for u in range(a_size)),
    )
    return promote_to_inverse(sg)


def _partial_bijections(src: Sequence[int], dst: Sequence[int]):
    """All partial bijections from subsets of src onto subsets of dst,
    as sorted pair tuples."""
    out = []
    for k in range(min(len(src), len(dst)) + 1):
        for dom_sub in itertools.combinations(src, k):
            for image in itertools.permutations(dst, k):
                out.append(tuple(sorted(zip(dom_sub, image))))
    return sorted(set(out))


def gen_Jpi(pi: Sequence[int]) -> InverseSemigroupoid:
    """Fiber-respecting partial bijections over a surjection of a finite
    set onto the object set."""
    n_obj = max(pi, default=-1) + 1
    if set(pi) != set(range(n_obj)) or n_obj == 0:
        raise ValidationError("NotSurjective", ())
    fibers = [[x for x, u in enumerate(pi) if u == v] for v in range(n_obj)]

    arrows = []
    for u in range(n_obj):
        for v in range(n_obj):
            for f in _partial_bijections(fibers[u], fibers[v]):
                arrows.append((v, f, u))
    arrows.sort(key=lambda t: (t[2], t[0], t[1]))
    index = {t: i for i, t in enumerate(arrows)}
    dom = [u for (_, _, u) in arrows]
    cod = [v for (v, _, _) in arrows]
    into = arrows_by_end(cod, n_obj)

    triples = []
    for i, (w, g, v) in enumerate(arrows):
        gd = dict(g)
        for j in into[v]:
            _v, f, u = arrows[j]
            comp = tuple(
                sorted((x, gd[y]) for x, y in f if y in gd)
            )
            triples.append((i, j, index[(w, comp, u)]))

    def fname(f):
        if not f:
            return "0"
        return ",".join(f"{x}>{y}" for x, y in f)

    names = tuple(f"[{u}-{fname(f)}->{v}]" for (v, f, u) in arrows)
    sg = validate_semigroupoid(
        dom,
        cod,
        triples,
        n_objects=n_obj,
        arrow_names=names,
        object_names=tuple(str(u) for u in range(n_obj)),
    )
    return promote_to_inverse(sg)


# ------------------------------------------------------------- enumeration

HARD_CAP = 5


def _canonical_patterns(n: int, m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """dom/cod patterns with objects labeled by first appearance in the
    interleaved sequence, every object hit by both maps (necessary for an
    involution to exist)."""
    surjective = [
        tpl
        for tpl in itertools.product(range(m), repeat=n)
        if set(tpl) == set(range(m))
    ]
    for dom in surjective:
        for cod in surjective:
            seen: list[int] = []
            for pair in zip(dom, cod):
                for u in pair:
                    if u not in seen:
                        seen.append(u)
            if seen == sorted(seen):
                yield dom, cod


def _involutions(dom, cod) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free-or-not involutions swapping dom and cod."""
    n = len(dom)

    def rec(i: int, inv: list[int]) -> Iterator[tuple[int, ...]]:
        while i < n and inv[i] != -1:
            i += 1
        if i == n:
            yield tuple(inv)
            return
        for j in range(i, n):
            if inv[j] != -1:
                continue
            if dom[j] == cod[i] and cod[j] == dom[i]:
                inv[i], inv[j] = j, i
                yield from rec(i + 1, inv)
                inv[i] = -1
                inv[j] = -1

    yield from rec(0, [-1] * n)


def _complete_tables(dom, cod, inv) -> Iterator[list[tuple[int, int, int]]]:
    """Fill the product table by depth-first search with propagation;
    each completed table is yielded as its (s, t, s*t) triples."""
    n = len(dom)
    first = []
    for s in range(n):
        for cell in ((s, inv[s]), (inv[s], s)):
            if cell not in first:
                first.append(cell)
    rest = [
        (s, t)
        for s in range(n)
        for t in range(n)
        if dom[s] == cod[t] and (s, t) not in first
    ]
    cells = first + rest
    candidates = {}
    for s, t in cells:
        cand = [r for r in range(n) if dom[r] == dom[t] and cod[r] == cod[s]]
        if t == inv[s]:
            # the cell value is an idempotent of the form s s*
            cand = [r for r in cand if inv[r] == r]
        if not cand:
            return
        candidates[(s, t)] = cand

    table = [[-1] * n for _ in range(n)]
    preimage: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    trail: list[tuple[int, int]] = []

    def assign(s0: int, t0: int, r0: int) -> bool:
        work = [(s0, t0, r0)]
        while work:
            s, t, r = work.pop()
            cur = table[s][t]
            if cur == r:
                continue
            if cur != -1:
                return False
            if dom[r] != dom[t] or cod[r] != cod[s]:
                return False
            table[s][t] = r
            trail.append((s, t))
            preimage[r].append((s, t))
            work.append((inv[t], inv[s], inv[r]))
            if t == inv[s]:
                # r = s s*: an idempotent with forced unit equations
                if inv[r] != r:
                    return False
                work.append((r, r, r))
                work.append((r, s, s))
                work.append((inv[s], r, inv[s]))
            for u in range(n):
                if dom[t] == cod[u] and table[t][u] != -1:
                    q = table[t][u]
                    a1, a2 = table[r][u], table[s][q]
                    if a1 != -1 and a2 != -1:
                        if a1 != a2:
                            return False
                    elif a1 != -1:
                        work.append((s, q, a1))
                    elif a2 != -1:
                        work.append((r, u, a2))
                if dom[u] == cod[s] and table[u][s] != -1:
                    p = table[u][s]
                    b1, b2 = table[p][t], table[u][r]
                    if b1 != -1 and b2 != -1:
                        if b1 != b2:
                            return False
                    elif b1 != -1:
                        work.append((u, r, b1))
                    elif b2 != -1:
                        work.append((p, t, b2))
            for a2, b2 in list(preimage[s]):
                # s appears as a product a2 b2: triple (a2, b2, t)
                q2 = table[b2][t]
                if q2 != -1:
                    other = table[a2][q2]
                    if other == -1:
                        work.append((a2, q2, r))
                    elif other != r:
                        return False
            for a2, b2 in list(preimage[t]):
                # t appears as a product a2 b2: triple (s, a2, b2)
                p2 = table[s][a2]
                if p2 != -1:
                    other = table[p2][b2]
                    if other == -1:
                        work.append((p2, b2, r))
                    elif other != r:
                        return False
        return True

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            s, t = trail.pop()
            r = table[s][t]
            table[s][t] = -1
            pre = preimage[r]
            pre.pop()

    def solve(k: int) -> Iterator[list[tuple[int, int, int]]]:
        while k < len(cells) and table[cells[k][0]][cells[k][1]] != -1:
            k += 1
        if k == len(cells):
            yield [(s, t, table[s][t]) for s, t in cells]
            return
        s, t = cells[k]
        for r in candidates[(s, t)]:
            mark = len(trail)
            if assign(s, t, r):
                yield from solve(k + 1)
            rollback(mark)

    yield from solve(0)


@lru_cache(maxsize=None)
def _enumerate_cached(max_arrows: int, max_objects: int) -> tuple[InverseSemigroupoid, ...]:
    found: list[InverseSemigroupoid] = []
    for n in range(1, max_arrows + 1):
        for m in range(1, min(n, max_objects) + 1):
            for dom, cod in _canonical_patterns(n, m):
                for inv in _involutions(dom, cod):
                    for triples in _complete_tables(dom, cod, inv):
                        try:
                            sg = validate_semigroupoid(
                                dom, cod, triples, n_objects=m
                            )
                            inv_sg = promote_to_inverse(sg)
                        except ValidationError:
                            continue
                        if inv_sg.inv != inv:
                            # the search forces s s* s = s and s* s s* = s*,
                            # and pseudoinverses are unique
                            raise InternalInconsistencyError(
                                "EnumeratedInvolutionMismatch", (dom, cod, inv)
                            )
                        found.append(inv_sg)
    return tuple(found)


def enumerate_inverse_semigroupoids(
    max_arrows: int,
    max_objects: int | None = None,
) -> Iterator[InverseSemigroupoid]:
    """Every inverse semigroupoid on at most max_arrows arrows, up to the
    fixed arrow indexing, with objects canonically labeled; deterministic
    order, duplicate-free."""
    if max_arrows > HARD_CAP:
        raise ValidationError("CapExceeded", (max_arrows, HARD_CAP))
    if max_objects is None:
        max_objects = max_arrows
    yield from _enumerate_cached(max_arrows, max_objects)


# ------------------------------------------------------------------ corpora

def structure_corpus() -> list[tuple[str, InverseSemigroupoid]]:
    """The named fixture structures exercised by every cross-check."""
    return [
        ("trivial", trivial_monoid()),
        ("chain2", chain2()),
        ("chain3", chain_semilattice(3)),
        ("vee", vee_semilattice()),
        ("c2", cyclic_group(2)),
        ("c3", cyclic_group(3)),
        ("b2", brandt_b2()),
        ("c2_zero", c2_with_zero()),
        ("pair2", pair_groupoid(2)),
        ("discrete2", discrete_groupoid(2)),
        ("discrete3", discrete_groupoid(3)),
        ("two_fiber", two_fiber_semilatticeoid()),
        ("sa_chain2", gen_SA(chain2(), 2)),
        ("sa_c2", gen_SA(cyclic_group(2), 2)),
        ("jpi_point", gen_Jpi([0])),
        ("jpi_i2", gen_Jpi([0, 0])),
        ("jpi_two_fibers", gen_Jpi([0, 1])),
    ]


def all_order_ideals(order: FinitePoset) -> list[frozenset[int]]:
    """Every order ideal, in itertools.product order; down-sets built once."""
    downsets = [order.downset(y) for y in order.elements()]
    masks = itertools.product((False, True), repeat=order.size)
    subsets = (frozenset(itertools.compress(order.elements(), m)) for m in masks)
    return [s for s in subsets if all(downsets[y] <= s for y in s)]


def random_ideal(order: FinitePoset, rng: random.Random) -> frozenset[int]:
    """A nonempty order ideal drawn by closing a random subset downward."""
    while True:
        seeds = [x for x in order.elements() if rng.random() < 0.6]
        if not seeds:
            continue
        ideal = set()
        for y in seeds:
            ideal |= order.downset(y)
        return frozenset(ideal)


def action_corpus() -> list[tuple[str, PartialActionData]]:
    """Ordered partial actions used by the globalization and triple
    suites: Munn actions of the fixtures plus their ideal restrictions."""
    out: list[tuple[str, PartialActionData]] = []
    for name, s in structure_corpus():
        theta = munn_action(s)
        out.append((f"munn[{name}]", theta))
        ideals = [
            ideal
            for ideal in all_order_ideals(theta.order)
            if ideal and len(ideal) < theta.carrier_size
        ]
        for ideal in ideals[:6]:
            out.append(
                (
                    f"munn[{name}]|{sorted(ideal)}",
                    restrict_global(theta, ideal),
                )
            )
    return out


def fiber_shift_action() -> PartialActionData:
    """The pair groupoid on two objects moving one two-chain fiber onto
    another by an order isomorphism; global and ordered."""
    pg = pair_groupoid(2)
    # the two chains a0 <= a1 and b0 <= b1, as up-set masks
    order = FinitePoset((0b0011, 0b0010, 0b1100, 0b1000), ("a0", "a1", "b0", "b1"))
    loops = {pg.base.dom[s]: s for s in pg.arrows() if pg.base.dom[s] == pg.base.cod[s]}
    g = next(s for s in pg.arrows() if pg.base.dom[s] == 0 and pg.base.cod[s] == 1)
    gstar = pg.inv[g]
    maps = {
        loops[0]: {0: 0, 1: 1},
        loops[1]: {2: 2, 3: 3},
        g: {0: 2, 1: 3},
        gstar: {2: 0, 3: 1},
    }
    return make_action(
        pg,
        ("a0", "a1", "b0", "b1"),
        [maps[s] for s in pg.arrows()],
        order=order,
        global_flag=True,
    )


def top_swap_action() -> PartialActionData:
    """The two-element group exchanging the two maximal elements of the
    vee semilattice while fixing the bottom."""
    c2 = cyclic_group(2)
    vee = vee_semilattice()
    g = next(s for s in c2.arrows() if s not in c2.idempotents)
    ident = {0: 0, 1: 1, 2: 2}
    swap = {0: 1, 1: 0, 2: 2}
    return make_action(
        c2,
        vee.base.arrow_names,
        [swap if s == g else ident for s in c2.arrows()],
        order=vee.order,
        global_flag=True,
    )


def groupoid_action_corpus() -> list[tuple[str, PartialActionData]]:
    """Ordered actions of groupoids on semilatticeoid carriers with every
    domain nonempty, global ones plus their usable ideal restrictions."""
    out: list[tuple[str, PartialActionData]] = []
    seeds = [
        ("fiber_shift", fiber_shift_action()),
        ("top_swap", top_swap_action()),
    ]
    for name, s in structure_corpus():
        if is_groupoid(s):
            seeds.append((f"munn[{name}]", munn_action(s)))
    for name, a in seeds:
        out.append((name, a))
        for ideal in all_order_ideals(a.order):
            if not ideal or len(ideal) == a.carrier_size:
                continue
            restricted = restrict_global(a, ideal)
            if all(restricted.domains):
                out.append((f"{name}|{sorted(ideal)}", restricted))
    return out


def random_action_candidate(
    actor: InverseSemigroupoid,
    carrier_size: int,
    rng: random.Random,
) -> PartialActionData:
    """A random family of subsets and maps of the right shape; usually
    invalid, occasionally a genuine partial action."""
    names = tuple(f"x{i}" for i in range(carrier_size))
    domains = []
    for s in actor.arrows():
        domains.append(frozenset(
            x for x in range(carrier_size) if rng.random() < 0.7
        ))
    sizes_match = rng.random() < 0.7
    maps = []
    for s in actor.arrows():
        src = sorted(domains[actor.inv[s]])
        if sizes_match and len(src) == len(domains[s]):
            dst = sorted(domains[s])
            rng.shuffle(dst)
            maps.append(dict(zip(src, dst)))
        else:
            maps.append({x: rng.randrange(carrier_size) for x in src})
    if rng.random() < 0.5:
        order = discrete_poset(carrier_size, names)
    else:
        perm = list(range(carrier_size))
        rng.shuffle(perm)
        links = [(a, b) for a, b in zip(perm, perm[1:]) if rng.random() < 0.5]
        order = validate_poset(links, carrier_size, names=names, auto_close=True)
    return make_action(actor, names, maps, order=order)


def mutate_action(a: PartialActionData, rng: random.Random) -> PartialActionData:
    """Perturb one entry of a valid action; near-miss candidates exercise
    the boundary where the two validators must still agree.

    The third kind of draw returns ``a`` unchanged: it stands for
    growing a domain without its map, which the type cannot hold.  It
    still draws its arrow, so the later draws of the stream stay the
    same."""
    maps = [dict(m) for m in a.maps]
    actor = a.actor
    choice = rng.randrange(3)
    arrows = list(actor.arrows())
    s = rng.choice(arrows)
    if choice == 0:
        # drop a point of domains[s], the key set of the map of s*
        source = maps[actor.inv[s]]
        if source:
            del source[rng.choice(sorted(source))]
    elif choice == 1:
        if maps[s]:
            x = rng.choice(sorted(maps[s]))
            maps[s][x] = rng.randrange(a.carrier_size)
    else:
        return a
    return make_action(
        actor, a.carrier_names, maps, order=a.order, global_flag=a.global_flag
    )


def action_candidates(
    max_actor_arrows: int = 4,
    max_carrier: int = 4,
    seed: int = 0,
    random_per_actor: int = 40,
) -> list[PartialActionData]:
    """Deterministic candidate families for the two-validator agreement
    check: valid fixtures, near-miss mutations, and random shapes."""
    rng = random.Random(seed)
    actors = [
        s for _, s in structure_corpus() if s.n_arrows <= max_actor_arrows
    ]
    actors += list(enumerate_inverse_semigroupoids(min(3, max_actor_arrows)))
    if max_actor_arrows >= 4:
        # a deterministic slice of the four-arrow structures
        four = [
            s
            for s in enumerate_inverse_semigroupoids(4)
            if s.n_arrows == 4
        ]
        actors += four[::25]
    out: list[PartialActionData] = []
    for actor in actors:
        theta = munn_action(actor)
        if theta.carrier_size <= max_carrier:
            out.append(theta)
            for ideal in all_order_ideals(theta.order)[:4]:
                if ideal:
                    out.append(restrict_global(theta, ideal))
            for _ in range(6):
                out.append(mutate_action(theta, rng))
        for _ in range(random_per_actor):
            k = rng.randrange(1, max_carrier + 1)
            out.append(random_action_candidate(actor, k, rng))
    return out
