"""The canonical writer: ``io.canonical_dumps(doc)`` is ASCII text that
ends in its only newline, reads back as ``doc`` and writes back to the
same bytes, on every document the package writes and on arbitrary JSON
values; files in the indented form of earlier versions still read."""

import json
import math

from hypothesis import example, given, strategies as st

from semigroupoids import corpus, io
from semigroupoids.cli import cli
from semigroupoids.globalization import globalize
from semigroupoids.posets import semilatticeoid_from_poset
from semigroupoids.ptheorem import mcalister_from_action, munn_action


def as_parsed(value):
    """value as ``json.loads`` reads its text: tuples as lists, and each
    NaN as the NaN object that ``json.loads`` returns, which ``==``
    matches by identity."""
    if isinstance(value, (list, tuple)):
        return [as_parsed(item) for item in value]
    if isinstance(value, dict):
        return {key: as_parsed(item) for key, item in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return json.decoder.NaN
    return value


def assert_canonical(doc) -> None:
    text = io.canonical_dumps(doc)
    assert text.isascii()
    assert text.endswith("\n") and "\n" not in text[:-1]
    parsed = json.loads(text)
    assert parsed == as_parsed(doc)
    assert io.canonical_dumps(parsed) == text


def indented(doc) -> str:
    """A document as earlier versions of the writer wrote it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _library_documents():
    for name, s in corpus.structure_corpus():
        yield name, io.structure_to_doc(s)
        yield name + "/order", io.structure_to_doc(s.order)
    for name, a in corpus.action_corpus():
        yield name, io.structure_to_doc(a)
    for name, a in corpus.groupoid_action_corpus():
        yield name, io.structure_to_doc(a)
        triple = mcalister_from_action(a, semilatticeoid_from_poset(a.order))
        yield name + "/triple", io.structure_to_doc(triple)
    # the largest ladder rungs of each generator
    for name, s in (
        ("sa_chain4_4", corpus.gen_SA(corpus.chain_semilattice(4), 4)),
        ("jpi_0111", corpus.gen_Jpi((0, 1, 1, 1))),
    ):
        theta = munn_action(s)
        yield name, io.structure_to_doc(s)
        yield name + "/munn", io.structure_to_doc(theta)
        yield name + "/envelope", io.structure_to_doc(globalize(theta).envelope)


def test_canonical_text_round_trips_library_documents():
    count = 0
    for _name, doc in _library_documents():
        assert_canonical(doc)
        count += 1
    assert count == 2 * 17 + 60 + 2 * 15 + 3 * 2


def test_canonical_text_is_compact_sorted_and_ascii():
    doc = {"b": [1, [2, 3]], "a": {"z": "caf\xe9", "y": None}}
    assert io.canonical_dumps(doc) == '{"a":{"y":null,"z":"caf\\u00e9"},"b":[1,[2,3]]}\n'


def test_indented_files_of_earlier_versions_still_load(tmp_path):
    compact, old = tmp_path / "compact.json", tmp_path / "indented.json"
    for name, doc in _library_documents():
        compact.write_text(io.canonical_dumps(doc), encoding="utf-8")
        old.write_text(indented(doc), encoding="utf-8")
        obj = io.load_structure(str(old))
        assert obj == io.load_structure(str(compact)), name
        io.save_structure(obj, str(old))
        assert old.read_text(encoding="utf-8") == io.canonical_dumps(doc), name


def test_cli_validates_indented_files(tmp_path):
    kinds = {}
    for name, doc in _library_documents():
        kinds.setdefault(doc["kind"], (name, doc))
    assert sorted(kinds) == ["action", "poset", "semigroupoid", "triple"]
    for name, doc in kinds.values():
        path = tmp_path / "indented.json"
        path.write_text(indented(doc), encoding="utf-8")
        assert cli(["--input", str(path), "validate"]) == 0, name


def test_canonical_text_round_trips_cli_documents(tmp_path, monkeypatch):
    written = []
    real = io.canonical_dumps

    def recording(doc):
        written.append(doc)
        return real(doc)

    monkeypatch.setattr(io, "canonical_dumps", recording)
    out = str(tmp_path / "out.json")
    argvs = [["enumerate", "--max-arrows", "3", "--output", out]]
    for name, s in corpus.structure_corpus():
        path = str(tmp_path / f"{name}.json")
        munn = str(tmp_path / f"{name}.munn.json")
        io.save_structure(s.base, path)
        argvs += [
            ["munn", "--input", path, "--output", munn],
            ["analyze", "--input", path, "--output", out],
            ["ptheorem", "--input", path, "--output", out],
            ["globalize", "--input", munn, "--output", out],
            ["globalize", "--input", path, "--seed", "3", "--output", out],
        ]
    codes = [cli(argv) for argv in argvs]
    assert set(codes) <= {0, 1}
    # the ptheorem certificate of a structure that is not E-unitary
    assert 1 in codes
    assert len(written) >= len(argvs)
    # assert_canonical calls io.canonical_dumps, which must not record
    monkeypatch.undo()
    for doc in written:
        assert_canonical(doc)


TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9€\U0001f600'), st.characters()),
    max_size=4,
)
INTS = st.one_of(st.integers(), st.integers(-(2**80), 2**80), st.just(-1))
LEAVES = st.one_of(
    st.none(), st.booleans(), INTS, st.floats(), st.just(-0.0), TEXT, st.just([]), st.just({})
)


def _rows(leaf):
    """Arrays of rows of one width, each row a list or a tuple."""
    row = lambda width: st.lists(leaf, min_size=width, max_size=width).flatmap(
        lambda r: st.sampled_from([r, tuple(r)])
    )
    return st.integers(0, 3).flatmap(lambda width: st.lists(row(width), max_size=4))


ARRAYS = st.one_of(
    st.lists(INTS, max_size=4),
    st.lists(TEXT, max_size=4),
    _rows(INTS),
    _rows(TEXT),
    # bool and None mixed into int rows
    _rows(st.one_of(INTS, st.booleans(), st.none())),
    # ragged rows of mixed kinds
    st.lists(st.lists(st.one_of(INTS, TEXT, st.booleans()), max_size=3), max_size=4),
)
VALUES = st.recursive(
    st.one_of(LEAVES, ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)


@given(value=VALUES)
@example(value={"name": "caf\xe9 €", "q": ['"', "\\", "\n\x01"]})
@example(value=[[1, 2], [3, True]])
@example(value=[[True, False], [False, True]])
@example(value={"rows": [[1, 2], [3], [4, 5]]})
@example(value=[(1, "a"), [2, "b"]])
@example(value=[[-0.0, 1e300], [float("inf"), 2.5]])
@example(value=[[[0, 1]], [[2, 3]]])
def test_canonical_text_round_trips_json_values(value):
    assert_canonical(value)
