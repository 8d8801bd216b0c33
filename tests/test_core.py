"""Validated multiplication tables and semigroupoid morphisms."""

import dataclasses
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from semigroupoids import corpus, io
from semigroupoids.congruences import sigma
from semigroupoids.core import (
    NOT_COMPOSABLE,
    _generators,
    classes_of,
    validate_morphism,
    validate_semigroupoid,
)
from semigroupoids.errors import ValidationError


def semigroupoid_triples(sg):
    """The defined products as sorted (s, t, s*t) tuples, read from the
    file writer's ``mul`` entry."""
    return [tuple(x) for x in io.semigroupoid_to_doc(sg)["mul"]]


def validate_triples(dom, cod, triples, n_objects):
    """validate_semigroupoid on a product given as (s, t, s*t) triples,
    turned into rows as the file reader turns a document's ``mul``."""
    rows = io._rows_from_triples(dom, cod, triples, n_objects)
    return validate_semigroupoid(dom, cod, rows=rows, n_objects=n_objects)


def pair_groupoid_table():
    # arrows: 1u=0, g(u->v)=1, h(v->u)=2, 1v=3; row s lists s t over the
    # t into dom s, which are 0 and 2 for u and 1 and 3 for v
    return [0, 0, 1, 1], [0, 1, 0, 1], [(0, 2), (1, 3), (0, 2), (1, 3)]


def pair_groupoid_triples():
    dom, cod, _rows = pair_groupoid_table()
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
    sg = validate_semigroupoid([0], [0], rows=[(0,)])
    assert sg.n_arrows == 1 and sg.n_objects == 1
    assert sg.mul[0][0] == 0


def test_pair_groupoid_valid_with_bruteforce_associativity():
    dom, cod, rows = pair_groupoid_table()
    sg = validate_semigroupoid(dom, cod, rows=rows)
    mul = sg.mul
    # independent oracle: walk all <= 64 triples directly on the table
    for r in range(4):
        for s in range(4):
            for t in range(4):
                if dom[r] != cod[s] or dom[s] != cod[t]:
                    continue
                rs = mul[r][s]
                st = mul[s][t]
                assert mul[rs][t] == mul[r][st]


def test_noncomposable_product_rejected():
    dom, cod, triples = pair_groupoid_triples()
    with pytest.raises(ValidationError) as err:
        validate_triples(dom, cod, triples + [(1, 1, 0)], 2)
    assert err.value.code == "DefinedOnNonComposablePair"
    assert err.value.witness == (1, 1)


def test_missing_product_rejected():
    dom, cod, triples = pair_groupoid_triples()
    with pytest.raises(ValidationError) as err:
        validate_triples(dom, cod, triples[1:], 2)
    assert err.value.code == "UndefinedOnComposablePair"
    assert err.value.witness == (0, 0)


def test_domcod_mismatch_rejected():
    # two loops at separate objects; declaring a*a = b breaks the graph law
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0, 1], [0, 1], rows=[(1,), (1,)])
    assert err.value.code == "DomCodMismatch"
    assert err.value.witness == (0, 0)


def test_associativity_failure_smallest_witness():
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0, 0], [0, 0], rows=[(0, 1), (0, 0)])
    assert err.value.code == "AssociativityFailure"
    assert err.value.witness == (1, 0, 1)


def test_orphan_object_rejected():
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0], [0], rows=[(0,)], n_objects=2)
    assert err.value.code == "OrphanObject"
    assert err.value.witness == (1,)


def test_identity_morphism_valid(structures):
    for _name, s in structures:
        phi = validate_morphism(s.base, s.base, range(s.n_arrows))
        assert phi.arrow_map == tuple(range(s.n_arrows))
        assert phi.object_map == tuple(range(s.n_objects))


def test_collapse_chain2_valid():
    chain2 = corpus.chain2().base
    trivial = validate_semigroupoid([0], [0], rows=[(0,)])
    phi = validate_morphism(chain2, trivial, [0, 0])
    mul = chain2.mul
    # oracle: all four products collapse consistently
    for s in range(2):
        for t in range(2):
            assert phi.arrow_map[mul[s][t]] == 0


def test_swap_not_multiplicative():
    chain2 = corpus.chain2().base
    with pytest.raises(ValidationError) as err:
        validate_morphism(chain2, chain2, [1, 0])
    assert err.value.code == "NotMultiplicative"
    assert err.value.witness == (0, 1)


def test_morphism_composition_closed(structures):
    chain2 = corpus.chain2().base
    trivial = validate_semigroupoid([0], [0], rows=[(0,)])
    f = validate_morphism(chain2, chain2, [0, 1])
    g = validate_morphism(chain2, trivial, [0, 0])
    # the composite g after f is the composed arrow map, revalidated
    comp = validate_morphism(f.source, g.target, [g(a) for a in f.arrow_map])
    assert comp.arrow_map == (0, 0)
    for _name, s in structures:
        ident = validate_morphism(s.base, s.base, range(s.n_arrows))
        twice = validate_morphism(s.base, s.base, [ident(a) for a in ident.arrow_map])
        assert twice.arrow_map == ident.arrow_map


def _scan_morphism_verdict(source, target, f):
    """Oracle: the checks of validate_morphism as a scan of every arrow
    pair, the first (code, witness), else ("ok", the object map)."""
    n = source.n_arrows
    source_mul, target_mul = source.mul, target.mul
    for s in range(n):
        for t in range(n):
            if not source.composable(s, t):
                continue
            if not target.composable(f[s], f[t]):
                return ("ComposabilityNotPreserved", (s, t))
            if target_mul[f[s]][f[t]] != f[source_mul[s][t]]:
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
                validate_triples(sg.dom, sg.cod, kept, n_objects=sg.n_objects)
            assert err.value.code == "UndefinedOnComposablePair"
            assert err.value.witness == least
            checked += 1
    assert checked > 1000, checked


def test_mul_sentinel_matches_graph(structures):
    for _name, s in structures:
        sg = s.base
        mul = sg.mul
        for a in sg.arrows():
            for b in sg.arrows():
                assert (mul[a][b] == NOT_COMPOSABLE) == (sg.dom[a] != sg.cod[b])


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
        validate_triples(dom, cod, triples, n_objects=n_objects)
    except ValidationError as exc:
        return (exc.code, exc.witness)
    return None


def _table_validate(dom, cod, triples, n_objects):
    """Oracle: validate_semigroupoid as it was when it stored the n x n
    table with a -1 sentinel, names aside.  Returns (code, witness) on
    failure, else (None, the table, the generators)."""
    n = len(dom)
    table = [[NOT_COMPOSABLE] * n for _ in range(n)]
    try:
        for s, t, r in sorted(triples):
            for a in (s, t, r):
                if not (0 <= a < n):
                    raise ValidationError("MalformedTable", (s, t, r))
            if dom[s] != cod[t]:
                raise ValidationError("DefinedOnNonComposablePair", (s, t))
            if table[s][t] != NOT_COMPOSABLE and table[s][t] != r:
                raise ValidationError("DuplicateProduct", (s, t))
            table[s][t] = r
        into = [[t for t in range(n) if cod[t] == u] for u in range(n_objects)]
        out_of = [[x for x in range(n) if dom[x] == u] for u in range(n_objects)]
        for s in range(n):
            for t in into[dom[s]]:
                if table[s][t] == NOT_COMPOSABLE:
                    raise ValidationError("UndefinedOnComposablePair", (s, t))
        for s in range(n):
            for t in into[dom[s]]:
                r = table[s][t]
                if dom[r] != dom[t] or cod[r] != cod[s]:
                    raise ValidationError("DomCodMismatch", (s, t))
        # generators: greedy in index order, closing under right products
        reached, members, gens = [False] * n, [], []
        for g in range(n):
            if reached[g]:
                continue
            gens.append(g)
            pending = [g] + [table[x][g] for x in members if dom[x] == cod[g]]
            while pending:
                x = pending.pop()
                if not reached[x]:
                    reached[x] = True
                    members.append(x)
                    pending += [table[x][h] for h in gens if dom[x] == cod[h]]
        # Light's test on the generators, then the least failing triple
        light = all(
            table[table[x][g]][y] == table[x][table[g][y]]
            for g in gens for x in out_of[cod[g]] for y in into[dom[g]]
        )
        if not light:
            for r in range(n):
                for s in into[dom[r]]:
                    for t in into[dom[s]]:
                        if table[table[r][s]][t] != table[r][table[s][t]]:
                            raise ValidationError("AssociativityFailure", (r, s, t))
        if set(range(n_objects)) - set(dom) - set(cod):
            u = min(set(range(n_objects)) - set(dom) - set(cod))
            raise ValidationError("OrphanObject", (u,))
    except ValidationError as exc:
        return (exc.code, exc.witness)
    return (None, tuple(map(tuple, table)), tuple(gens))


def _row_form(dom, cod, triples, n_objects):
    """What validate_semigroupoid gives, in _table_validate's shape."""
    try:
        sg = validate_triples(dom, cod, triples, n_objects=n_objects)
    except ValidationError as exc:
        return (exc.code, exc.witness)
    return (None, sg.mul, sg.generators)


@cache
def _reader_pool():
    """The fixtures and every structure on at most 3 arrows."""
    pool = [s.base for _name, s in corpus.structure_corpus()]
    return pool + [s.base for s in corpus.enumerate_inverse_semigroupoids(3)]


def _read(doc):
    """What the version 1 reader gives, in _table_validate's shape."""
    try:
        sg = io.semigroupoid_from_doc(doc)
    except ValidationError as exc:
        return (exc.code, exc.witness)
    return (None, sg.mul, sg.generators)


@settings(max_examples=200)
@given(st.data())
def test_reader_takes_mul_triples_in_any_order_and_repeated(data):
    sg = data.draw(st.sampled_from(_reader_pool()))
    doc = io.semigroupoid_to_doc(sg)
    repeats = data.draw(st.lists(st.sampled_from(doc["mul"]), max_size=4))
    mul = data.draw(st.permutations(doc["mul"] + [list(x) for x in repeats]))
    got = io.semigroupoid_from_doc({**doc, "mul": mul})
    assert got == sg
    assert (got.slot, got.generators) == (sg.slot, sg.generators)


@settings(max_examples=300)
@given(st.data())
def test_reader_gives_the_table_validators_witness_for_a_changed_triple(data):
    sg = data.draw(st.sampled_from(_reader_pool()))
    doc = io.semigroupoid_to_doc(sg)
    mul = [list(x) for x in doc["mul"]]
    i = data.draw(st.integers(0, len(mul) - 1))
    j = data.draw(st.integers(0, 2))
    mul[i][j] = data.draw(st.integers(-2, sg.n_arrows + 1))
    expected = _table_validate(sg.dom, sg.cod, mul, sg.n_objects)
    assert _read({**doc, "mul": mul}) == expected


def _single_cell_mutants(sg):
    """Each defined cell deleted, set to each other arrow, or given a
    second value; each non-composable cell defined; each cell sent out
    of range."""
    triples = semigroupoid_triples(sg)
    n = sg.n_arrows
    for i, (s, t, r) in enumerate(triples):
        rest = triples[:i] + triples[i + 1:]
        yield rest
        for other in range(-1, n + 1):
            if other != r:
                yield rest + [(s, t, other)]
                yield triples + [(s, t, other)]
    for s in range(n):
        for t in range(n):
            if not sg.composable(s, t):
                yield from (triples + [(s, t, r)] for r in range(n))


def test_row_form_matches_the_table_validator(structures):
    # every fixture and every structure on at most 4 arrows, then every
    # single-cell mutant of the fixtures: the same verdict, code and
    # witness, and on success the same table and generators
    pool = [s.base for _name, s in structures]
    pool += [s.base for s in corpus.enumerate_inverse_semigroupoids(4)]
    for sg in pool:
        args = (sg.dom, sg.cod, semigroupoid_triples(sg), sg.n_objects)
        assert _row_form(*args) == _table_validate(*args) == (None, sg.mul, sg.generators)
    seen = Counter()
    for _name, s in structures:
        sg = s.base
        for triples in _single_cell_mutants(sg):
            args = (sg.dom, sg.cod, triples, sg.n_objects)
            expected = _table_validate(*args)
            assert _row_form(*args) == expected
            seen[expected[0]] += 1
    assert set(seen) == {
        None, "MalformedTable", "DefinedOnNonComposablePair", "DuplicateProduct",
        "UndefinedOnComposablePair", "DomCodMismatch", "AssociativityFailure",
    }, seen


def _from_rows(sg, rows):
    try:
        return validate_semigroupoid(
            sg.dom, sg.cod, rows=rows, n_objects=sg.n_objects,
            arrow_names=sg.arrow_names, object_names=sg.object_names,
        )
    except ValidationError as exc:
        return (exc.code, exc.witness)


def _from_triples(sg, triples):
    try:
        rows = io._rows_from_triples(sg.dom, sg.cod, triples, sg.n_objects)
        return validate_semigroupoid(
            sg.dom, sg.cod, rows=rows, n_objects=sg.n_objects,
            arrow_names=sg.arrow_names, object_names=sg.object_names,
        )
    except ValidationError as exc:
        return (exc.code, exc.witness)


def test_rows_and_triples_give_equal_structures(structures):
    pool = [s.base for _name, s in structures]
    pool += [s.base for s in corpus.enumerate_inverse_semigroupoids(5)]
    for sg in pool:
        by_rows = _from_rows(sg, sg.rows)
        by_triples = _from_triples(sg, semigroupoid_triples(sg))
        assert by_rows == by_triples == sg
        # the derived fields, which equality ignores, agree too
        assert by_rows.slot == by_triples.slot == sg.slot
        assert by_rows.generators == by_triples.generators == sg.generators
        # rows given as lists are stored as tuples
        assert _from_rows(sg, [list(row) for row in sg.rows]).rows == sg.rows


def _row_mutants(sg):
    """Each cell set to each other arrow, to n and to -1, as (rows,
    triples); and each nonempty row a cell short, as (rows, None), since
    triples cannot say which cell a short row lost."""
    n = sg.n_arrows
    triples = semigroupoid_triples(sg)
    k = 0
    for s, row in enumerate(sg.rows):
        for i, r in enumerate(row):
            for other in range(-1, n + 1):
                if other != r:
                    rows = list(sg.rows)
                    rows[s] = row[:i] + (other,) + row[i + 1:]
                    t = triples[k][1]
                    yield rows, triples[:k] + [(s, t, other)] + triples[k + 1:]
            k += 1
        if row:
            rows = list(sg.rows)
            rows[s] = row[:-1]
            yield rows, None


def test_row_mutants_give_the_same_witness_in_both_forms(structures):
    seen = Counter()
    pool = [s.base for _name, s in structures]
    pool += [s.base for s in corpus.enumerate_inverse_semigroupoids(3)]
    for sg in pool:
        for rows, triples in _row_mutants(sg):
            got = _from_rows(sg, rows)
            if triples is None:
                s = next(s for s, row in enumerate(rows) if len(row) != len(sg.rows[s]))
                assert got == ("MalformedTable", (s,))
            else:
                assert got == _from_triples(sg, triples)
            seen[got[0] if isinstance(got, tuple) else None] += 1
    assert set(seen) == {
        None, "MalformedTable", "DomCodMismatch", "AssociativityFailure",
    }, seen


def test_validate_semigroupoid_takes_rows_only():
    dom, cod, rows = pair_groupoid_table()
    # an old triple call, or rows given positionally, is refused rather
    # than read as rows
    with pytest.raises(TypeError):
        validate_semigroupoid(dom, cod, pair_groupoid_triples()[2])
    with pytest.raises(TypeError):
        validate_semigroupoid(dom, cod, rows)
    with pytest.raises(TypeError):
        validate_semigroupoid(dom, cod)
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid(dom, cod, rows=rows[:-1])
    assert (err.value.code, err.value.witness) == ("MalformedTable", ())


def test_light_test_matches_cubic_oracle_on_every_perturbation(structures):
    # every defined cell of every table, set to every other arrow; the
    # n x n validator must agree too, on the table and generators as well
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
                args = (sg.dom, sg.cod, changed, sg.n_objects)
                assert _row_form(*args) == _table_validate(*args)
                seen[expected and expected[0]] += 1
    assert seen["AssociativityFailure"] > 5000 and seen[None] > 0, seen


def _closure(sg, gens):
    """Oracle: products of members added until nothing new appears."""
    members = set(gens)
    mul = sg.mul
    while True:
        new = {
            mul[a][b] for a in members for b in members if sg.composable(a, b)
        } - members
        if not new:
            return members
        members |= new


def _generators_of(sg):
    return _generators(sg.dom, sg.cod, sg.rows, sg.slot, sg.n_objects)


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
    # on one object the rows are the whole table and slot t is t
    assert _generators([0] * 3, [0] * 3, table, [0, 1, 2], 1) == [0]
    with pytest.raises(ValidationError) as err:
        validate_semigroupoid([0] * 3, [0] * 3, rows=table)
    assert err.value.code == "AssociativityFailure"
    assert err.value.witness == (0, 1, 2)


def naive_classes(labels):
    """The classes of equal labels, each increasing, sorted by least
    member, and each point's position in that list."""
    n = len(labels)
    classes = sorted(
        {tuple(y for y in range(n) if labels[y] == labels[x]) for x in range(n)},
        key=min,
    )
    index = tuple(next(c for c, cls in enumerate(classes) if x in cls) for x in range(n))
    return index, tuple(classes)


@given(st.lists(st.one_of(st.integers(-3, 8), st.sampled_from("abc")), max_size=30))
def test_classes_of_numbers_by_least_member(labels):
    # the labels need not be least members: negative, out of range or
    # not integers at all
    assert classes_of(labels) == naive_classes(labels)
    # relabelled by least member, the same partition, numbered as the
    # sorted least members number it
    first = {}
    least = [first.setdefault(label, x) for x, label in enumerate(labels)]
    index, classes = classes_of(least)
    assert (index, classes) == classes_of(labels)
    position = {r: c for c, r in enumerate(sorted(set(least)))}
    assert index == tuple(position[r] for r in least)
    assert classes_of(iter(labels)) == (index, classes)
