"""Every command on mutated structure files exits 0, 1 or 2, never with
a traceback: one field of a valid document is replaced or deleted.  A
mutated document that still parses round-trips through its canonical
form."""

import contextlib
import copy
import io as stdio
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from semigroupoids import cli as cli_module, corpus, io
from semigroupoids.actions import restrict_global
from semigroupoids.cli import cli
from semigroupoids.errors import ParseError, SemigroupoidError
from semigroupoids.posets import semilatticeoid_from_poset, validate_poset
from semigroupoids.ptheorem import mcalister_from_action, munn_action


def _documents():
    theta = munn_action(corpus.pair_groupoid(2))
    action = restrict_global(theta, corpus.random_ideal(theta.order, random.Random(3)))
    triple = mcalister_from_action(action, semilatticeoid_from_poset(action.order))
    return {
        "semigroupoid": io.semigroupoid_to_doc(corpus.brandt_b2().base),
        "poset": io.poset_to_doc(
            validate_poset(
                [(0, 1), (0, 2)], 3, names=("x", "y", "z"), auto_close=True
            )
        ),
        "action": io.action_to_doc(munn_action(corpus.chain2())),
        "triple": io.triple_to_doc(triple),
    }


def _sites(doc, path=()):
    """Every position below the root of a document."""
    children = []
    if isinstance(doc, dict):
        children = sorted(doc.items())
    elif isinstance(doc, list):
        children = list(enumerate(doc))
    return [
        site
        for k, v in children
        for site in [path + (k,), *_sites(v, path + (k,))]
    ]


DOCUMENTS = _documents()
# a document, then one position in it
SITES = st.sampled_from(sorted(DOCUMENTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_sites(DOCUMENTS[name])))
)
COMMANDS = sorted(cli_module._COMMANDS)
DELETE = "<delete>"

VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.just(0.5),
    st.text(max_size=3),
    st.sampled_from(["u0", "e", "a", "a*", "x", "semigroupoid", "action"]),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-1, 3), max_size=3),
)


def _mutated(name, site, value):
    if not site:
        # the root itself: the whole document is replaced
        return copy.deepcopy(value)
    doc = copy.deepcopy(DOCUMENTS[name])
    parent = doc
    for key in site[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[site[-1]]
    else:
        parent[site[-1]] = value
    return doc


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "doc.json")


@settings(max_examples=60)
@given(site=SITES, value=VALUES)
# semidirect and triple once crashed on this deletion, which random
# examples rarely reach: it is one of several hundred sites
@example(site=("action", ("order",)), value=DELETE)
# a semigroupoid with no arrows changes three fields at once; the
# commands that build its Munn action once exited 3 on it
@example(
    site=("semigroupoid", ()),
    value={"kind": "semigroupoid", "version": 1, "objects": [], "arrows": [], "mul": []},
)
def test_every_command_survives_a_mutated_document(path, site, value):
    doc = _mutated(*site, value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for command in COMMANDS:
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(
            stdio.StringIO()
        ):
            code = cli(["--input", path, "--seed", "1", "--verify-all", command])
        assert code in (0, 1, 2), (site, value, command)

    try:
        obj = io.parse_document(doc)
    except SemigroupoidError:
        return
    text = io.canonical_dumps(io.structure_to_doc(obj))
    again = io.parse_document(json.loads(text))
    assert io.canonical_dumps(io.structure_to_doc(again)) == text


# ----------------------------------------------- whole-array reads, oracle
# The reader checks each array of a document as a whole and scans it
# entry by entry only when that check fails.  These per-entry scans are
# the oracle: every error they report, and every object read, must be
# the same.


def _triples_scan(mul):
    triples = []
    for t in mul:
        if not (
            isinstance(t, list)
            and len(t) == 3
            and all(isinstance(a, int) and not isinstance(a, bool) for a in t)
        ):
            raise ParseError(f"bad product triple {t!r}")
        triples.append(tuple(t))
    return triples


def _known_pair(pair, index):
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(x, str) and x in index for x in pair)
    )


def _order_pairs_scan(pairs, index):
    ids = []
    for pair in pairs:
        if not _known_pair(pair, index):
            raise ParseError(f"bad order pair {pair!r}")
        ids.append((index[pair[0]], index[pair[1]]))
    return ids


def _domain_scan(pts, index, name):
    if not (isinstance(pts, list) and all(isinstance(p, str) and p in index for p in pts)):
        raise ParseError(f"bad domain {pts!r} of arrow {name!r}")
    return frozenset(index[p] for p in pts)


def _point_map_scan(pairs, index, name):
    if not isinstance(pairs, list):
        raise ParseError(f"map of {name!r} is not a list")
    m = {}
    for pair in pairs:
        if not _known_pair(pair, index):
            raise ParseError(f"bad map pair {pair!r}")
        if index[pair[0]] in m:
            raise ParseError(f"point {pair[0]!r} mapped twice by {name!r}")
        m[index[pair[0]]] = index[pair[1]]
    return m


SCANS = {
    "_triples": _triples_scan,
    "_order_pairs": _order_pairs_scan,
    "_domain": _domain_scan,
    "_point_map": _point_map_scan,
}
ARRAY_FIELDS = {"mul", "leq", "order", "maps", "domains"}


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


def _same_value_of_a_subclass(value) -> list:
    """value as an instance of a subclass of str, int or list, which the
    whole-array checks leave to the per-entry scan; none for a bool or
    any other value."""
    if isinstance(value, bool):
        return []
    return [sub(value) for sub in (_Str, _Int, _List) if isinstance(value, sub.__base__)]


# replacements for one entry of an array, or for one leaf of an entry
ENTRY_VALUES = [
    DELETE, None, True, False, 0, 2, 7, -1, 0.0, "x", "e", "f", "u0",
    [], {}, [0, 0], [0, 0, 0, 0], [0, True, 0], ["e", "e"], ["e", "f", "e"],
]


def _outcome(doc):
    try:
        return io.parse_document(doc)
    except SemigroupoidError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_whole_array_reads_match_the_per_entry_scan(name, monkeypatch):
    mutated = [DOCUMENTS[name]]
    for site in _sites(DOCUMENTS[name]):
        if not ARRAY_FIELDS & {key for key in site[:-1] if isinstance(key, str)}:
            continue
        original = DOCUMENTS[name]
        for key in site:
            original = original[key]
        for value in [*ENTRY_VALUES, *_same_value_of_a_subclass(original)]:
            mutated.append(_mutated(name, site, value))
    assert len(mutated) > 300
    fast = [_outcome(doc) for doc in mutated]
    for helper, scan in SCANS.items():
        monkeypatch.setattr(io, helper, scan)
    scanned = [_outcome(doc) for doc in mutated]
    kinds = {type(out) for out in fast}
    assert tuple in kinds and len(kinds) == 2
    for doc, got, want in zip(mutated, fast, scanned):
        assert got == want, doc
