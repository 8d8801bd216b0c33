"""Command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import semigroupoids
from semigroupoids import (
    actions,
    cli as cli_module,
    congruences,
    corpus,
    io,
    posets,
    ptheorem,
)
from semigroupoids.cli import cli
from semigroupoids.errors import InternalInconsistencyError


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, s in (
        ("chain2", corpus.chain2()),
        ("b2", corpus.brandt_b2()),
        ("pair2", corpus.pair_groupoid(2)),
    ):
        p = tmp_path / f"{name}.json"
        io.save_structure(s.base, str(p))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_ok(files):
    assert cli(["--input", files["chain2"], "validate"]) == 0


def test_validate_malformed_json_exits_2(files, capsys):
    bad = files["dir"] + "/broken.json"
    with open(bad, "w") as fh:
        fh.write("{ nope")
    assert cli(["--input", bad, "validate"]) == 2


def test_validate_invalid_table_exits_1(files, capsys):
    doc = json.loads(Path(files["chain2"]).read_text())
    doc["mul"] = doc["mul"][1:]
    bad = files["dir"] + "/invalid.json"
    Path(bad).write_text(json.dumps(doc))
    assert cli(["--input", bad, "validate"]) == 1
    out = capsys.readouterr().out
    assert "UndefinedOnComposablePair" in out


@pytest.mark.parametrize(
    "row", [[0, 0, "z"], [0.5, 0, 0], [1, 1, True], [0, 0, 0, 0], [0, 0]]
)
def test_validate_malformed_product_triple_exits_2(files, capsys, row):
    doc = json.loads(Path(files["chain2"]).read_text())
    doc["mul"][-1] = row
    bad = files["dir"] + "/triple.json"
    Path(bad).write_text(json.dumps(doc))
    assert cli(["--input", bad, "validate"]) == 2
    assert "bad product triple" in capsys.readouterr().err


def test_missing_file_exits_2(files):
    assert cli(["--input", files["dir"] + "/nope.json", "validate"]) == 2


def test_analyze_b2(files, tmp_path):
    out = tmp_path / "report.json"
    assert cli(["--input", files["b2"], "analyze", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["e_unitary"]["verdict"] is False
    assert doc["e_unitary"]["witness"] == ["0", "a"]
    assert doc["is_groupoid"] is False
    assert set(doc["idempotents"]) == {"0", "aa*", "a*a"}


def test_ptheorem_chain2(files, tmp_path):
    out = tmp_path / "pt.json"
    assert cli(["--input", files["chain2"], "ptheorem", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["isomorphism"]) == 2


def test_ptheorem_computes_one_certificate(files, monkeypatch):
    calls = []
    real_sigma = congruences.sigma

    def counting_sigma(inv_sg):
        calls.append(inv_sg)
        return real_sigma(inv_sg)

    monkeypatch.setattr(congruences, "sigma", counting_sigma)
    assert cli(["--input", files["chain2"], "ptheorem"]) == 0
    assert len(calls) == 1


def test_globalize_validates_its_input_once(files, tmp_path, monkeypatch):
    munn = tmp_path / "munn.json"
    cli(["--input", files["b2"], "munn", "--output", str(munn)])
    seen = []
    real_validate = actions.validate_partial_action_E

    def recording(a):
        seen.append(a)
        return real_validate(a)

    monkeypatch.setattr(actions, "validate_partial_action_E", recording)
    assert cli(["--input", str(munn), "globalize"]) == 0
    # the command checks its input; the construction checks only its
    # envelope
    assert sum(a is seen[0] for a in seen) == 1


def test_action_file_with_domains_unlike_its_maps_exits_2(files, tmp_path, capsys):
    # a file lists each domain beside the maps; reading it checks the
    # listed domain of each arrow against the key set of its inverse's map
    munn = tmp_path / "munn.json"
    assert cli(["--input", files["chain2"], "--output", str(munn), "munn"]) == 0
    doc = json.loads(munn.read_text())
    assert doc["domains"]["e"] == ["e", "f"]
    doc["domains"]["e"] = ["f"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "globalize", "semidirect"):
        capsys.readouterr()
        assert cli(["--input", str(bad), command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: malformed action: MalformedAction(0,): "
            "map keys differ from declared domain\n"
        )


def test_internal_inconsistency_exits_3(files, monkeypatch, capsys):
    def broken(inv_sg):
        raise InternalInconsistencyError("MunnActionInvalid", ("NotIdeal", (0,)))

    monkeypatch.setattr(cli_module, "munn_action", broken)
    assert cli(["--input", files["chain2"], "munn"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal inconsistency (bug): MunnActionInvalid")
    assert "Traceback" not in captured.err + captured.out


def test_ptheorem_b2_rejected(files, capsys):
    assert cli(["--input", files["b2"], "ptheorem"]) == 1
    assert "not E-unitary" in capsys.readouterr().out


def test_empty_semigroupoid_is_bad_input(files, capsys):
    empty = files["dir"] + "/empty.json"
    with open(empty, "w") as fh:
        json.dump(
            {"kind": "semigroupoid", "version": 1, "objects": [], "arrows": [], "mul": []},
            fh,
        )
    for command in sorted(cli_module._COMMANDS.keys() - {"enumerate"}):
        capsys.readouterr()
        assert cli(["--input", empty, "--seed", "1", "--verify-all", command]) == 1
        assert capsys.readouterr().out == "INVALID: EmptySemigroupoid\n", command


def test_munn_then_globalize(files, tmp_path):
    munn = tmp_path / "munn.json"
    assert cli(["--input", files["b2"], "munn", "--output", str(munn)]) == 0
    glob_out = tmp_path / "glob.json"
    assert cli(["--input", str(munn), "globalize", "--output", str(glob_out)]) == 0
    doc = json.loads(glob_out.read_text())
    assert set(doc) == {"classes", "domains", "maps", "embedding", "order_hasse"}


def test_globalize_dot(files, tmp_path):
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    dot_out = tmp_path / "glob.dot"
    assert cli(
        ["--input", str(munn), "globalize", "--format", "dot", "--output", str(dot_out)]
    ) == 0
    text = dot_out.read_text()
    assert text.startswith("digraph")
    assert "lightblue" in text


def test_seeded_action_commands(files, tmp_path):
    td = tmp_path
    assert cli(
        ["--input", files["pair2"], "triple", "--seed", "3",
         "--output", str(td / "t.json")]
    ) == 0
    assert cli(["--input", str(td / "t.json"), "validate"]) == 0
    assert cli(
        ["--input", files["pair2"], "semidirect", "--seed", "3",
         "--output", str(td / "sd.json")]
    ) == 0
    assert cli(["--input", str(td / "sd.json"), "validate"]) == 0


def test_enumerate_command(tmp_path):
    out = tmp_path / "enum.json"
    assert cli(["enumerate", "--max-arrows", "2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 6
    assert len(doc["structures"]) == 6


def test_enumerate_max_objects_keeps_the_one_object_structures(tmp_path):
    out = tmp_path / "enum.json"
    assert cli(
        ["enumerate", "--max-arrows", "3", "--max-objects", "1",
         "--output", str(out)]
    ) == 0
    one_object = [
        s for s in corpus.enumerate_inverse_semigroupoids(3) if s.n_objects == 1
    ]
    assert json.loads(out.read_text())["count"] == len(one_object)


@pytest.mark.parametrize("flag", ["--max-arrows", "--max-objects"])
def test_negative_cap_exits_2(flag, capsys):
    with pytest.raises(SystemExit) as err:
        cli(["enumerate", flag, "-3"])
    assert err.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_arrow_cap_above_the_enumeration_limit_exits_2(capsys):
    # a bad argument, as verify_corpus.py treats it, not a validation failure
    with pytest.raises(SystemExit) as err:
        cli(["enumerate", "--max-arrows", str(corpus.HARD_CAP + 1)])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"must be at most {corpus.HARD_CAP}, got {corpus.HARD_CAP + 1}" in err_text


def test_export_dot_semigroupoid(files, tmp_path):
    out = tmp_path / "g.dot"
    assert cli(["--input", files["chain2"], "export-dot", "--output", str(out)]) == 0
    text = out.read_text()
    assert "cluster_arrows" in text and "cluster_order" in text


def test_export_dot_poset(tmp_path):
    from semigroupoids.posets import chain_poset

    p = tmp_path / "p.json"
    io.save_structure(chain_poset(3), str(p))
    out = tmp_path / "p.dot"
    assert cli(["--input", str(p), "export-dot", "--output", str(out)]) == 0
    assert "digraph hasse" in out.read_text()


def test_semidirect_rejects_carrier_without_meets(files, tmp_path, capsys):
    # trivial actor on two maximal points over two incomparable bottoms:
    # a valid ordered action whose carrier has no meet for the tops
    doc = {
        "kind": "action",
        "version": 1,
        "actor": json.loads(Path(files["chain2"]).read_text())
        | {"arrows": [{"name": "e", "dom": "u0", "cod": "u0"}],
           "mul": [[0, 0, 0]]},
        "carrier": ["a", "b", "c", "d"],
        "order": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"],
                   ["a", "c"], ["b", "c"], ["b", "d"]],
        "domains": {"e": ["a", "b", "c", "d"]},
        "maps": {"e": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"]]},
        "global": True,
    }
    p = tmp_path / "nomeet.json"
    p.write_text(json.dumps(doc))
    assert cli(["--input", str(p), "validate"]) == 0
    assert cli(["--input", str(p), "semidirect"]) == 1
    assert "ProductNotMeet" in capsys.readouterr().out


def test_verify_all_passes(files, capsys):
    assert cli(["--input", files["chain2"], "validate", "--verify-all"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_all_reports_failures_without_asserts():
    # a failing cross-check must not depend on assert statements, which
    # python -O strips; break two checks and run under -O
    script = """
from semigroupoids import cli, corpus
from semigroupoids.congruences import congruence_closure
cli.is_groupoid = lambda q: False
cli.sigma_by_equations = lambda s: congruence_closure(s, [])
rows = cli.cross_checks(corpus.chain2().base)
print(sorted(name for name, ok, _msg in rows if not ok))
"""
    src = os.path.dirname(os.path.dirname(semigroupoids.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "['sigma-quotient-groupoid', 'sigma-three-way']"


def test_verify_all_quotient_row_is_independent_of_sigma():
    # the row builds its own quotient from the equational sigma, so a
    # broken sigma_by_equations fails it even though sigma's cached
    # quotient is a groupoid
    script = """
from semigroupoids import cli, corpus
from semigroupoids.congruences import congruence_closure
cli.sigma_by_equations = lambda s: congruence_closure(s, [])
rows = cli.cross_checks(corpus.chain2().base)
print(sorted(name for name, ok, _msg in rows if not ok))
"""
    src = os.path.dirname(os.path.dirname(semigroupoids.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert "'sigma-quotient-groupoid'" in out


def _chain2_action(fields):
    """The Munn action of chain2 as a document, with ``fields`` replaced."""
    return dict(io.action_to_doc(ptheorem.munn_action(corpus.chain2())), **fields)


def _pair2_triple(part, kind):
    """The McAlister triple of the pair groupoid's Munn action over its
    idempotents, as a document whose nested ``part`` names ``kind``."""
    pg = corpus.pair_groupoid(2)
    triple = ptheorem.mcalister_from_action(
        ptheorem.munn_action(pg), ptheorem.idempotent_semilatticeoid(pg)
    )
    doc = io.triple_to_doc(triple)
    return dict(doc, **{part: dict(doc[part], kind=kind)})


# documents that once escaped as tracebacks or were silently misread,
# built from a valid chain2 file; a string is written as it stands
MALFORMED = {
    "objects-int": lambda d: dict(d, objects=3),
    "arrows-int": lambda d: dict(d, arrows=3),
    "mul-int": lambda d: dict(d, mul=3),
    "dom-list": lambda d: dict(d, arrows=[dict(d["arrows"][0], dom=["u"])]),
    "kind-list": lambda d: dict(d, kind=["semigroupoid"]),
    "leq-list-element": lambda d: {
        "kind": "poset", "version": 1, "elements": ["x"], "leq": [[["x"], "x"]]
    },
    "not-utf8": None,
    "map-point-twice": lambda d: _chain2_action(
        {"maps": {"e": [["e", "f"], ["e", "e"], ["f", "f"]], "f": [["f", "f"]]}}
    ),
    "repeated-key": lambda d: json.dumps(d).replace("{", '{"objects": [], ', 1),
    "global-string": lambda d: _chain2_action({"global": "false"}),
    "auto-close-string": lambda d: {
        "kind": "poset", "version": 1, "elements": ["x"], "leq": [], "auto_close": "no"
    },
    "version-99": lambda d: dict(d, version=99),
    "version-true": lambda d: dict(d, version=True),
    "nested-version-99": lambda d: _chain2_action({"actor": dict(d, version=99)}),
    "nested-actor-kind-poset": lambda d: _chain2_action({"actor": dict(d, kind="poset")}),
    "nested-actor-kind-list": lambda d: _chain2_action(
        {"actor": dict(d, kind=["semigroupoid"])}
    ),
    "nested-groupoid-kind-poset": lambda d: _pair2_triple("groupoid", "poset"),
    "nested-space-kind-semigroupoid": lambda d: _pair2_triple("space", "semigroupoid"),
    "nested-action-kind-triple": lambda d: _pair2_triple("action", "triple"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(files, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    if MALFORMED[case] is None:
        bad.write_bytes(b'{"kind": "semigroupoid", "objects": ["\xff"]}')
    else:
        doc = MALFORMED[case](json.loads(Path(files["chain2"]).read_text()))
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert cli(["--input", str(bad), "validate"]) == 2
    assert "parse error:" in capsys.readouterr().err


def _long_integer_document(files):
    text = json.dumps(json.loads(Path(files["chain2"]).read_text()))
    return text.replace('"mul": [[', '"mul": [[' + "9" * 5000 + ", ", 1)


# inputs that Python's own JSON reader rejects with RecursionError or
# with the ValueError of its limit on integer string conversion
OVERSIZED = {
    "deep-nesting": (lambda files: "[" * 200_000, "nested too deeply"),
    "long-integer": (_long_integer_document, "number too long"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_json_exits_2_without_traceback(files, tmp_path, case):
    document, message = OVERSIZED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(document(files))
    src = os.path.dirname(os.path.dirname(semigroupoids.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "semigroupoids", "--input", str(bad), "validate"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_all_reads_its_input_once(files, monkeypatch, capsys):
    paths = []
    real_load = io.load_structure

    def counting_load(path):
        paths.append(path)
        return real_load(path)

    monkeypatch.setattr(io, "load_structure", counting_load)
    assert cli(["--input", files["chain2"], "analyze", "--verify-all"]) == 0
    assert paths == [files["chain2"]]
    assert "[PASS] sigma-three-way" in capsys.readouterr().out


def test_scripts_run_from_a_source_checkout(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for argv in (
        ["verify_corpus.py", "--max-arrows", "2"],
        ["export_examples.py", str(tmp_path / "out")],
    ):
        subprocess.run(
            [sys.executable, os.path.join(root, "scripts", argv[0]), *argv[1:]],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
        )
    assert (tmp_path / "out" / "chain2.json").exists()


def test_one_parser_serves_every_call_without_leaking_state(files, tmp_path, capsys):
    # in-process calls share one parser; each must read exactly like a
    # fresh interpreter given the same arguments, so no flag of an
    # earlier call (--verify-all, --seed, --output) reaches a later one
    src = os.path.dirname(os.path.dirname(semigroupoids.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        (files["chain2"], ["analyze", "--verify-all"]),
        (files["chain2"], ["analyze"]),
        (files["b2"], ["globalize", "--seed", "1"]),
        (files["b2"], ["globalize"]),
        (files["b2"], ["munn", "--output", "{out}"]),
        (files["b2"], ["munn"]),
        (files["b2"], ["validate", "--verify-all"]),
    ]
    for k, (path, args) in enumerate(runs):
        outputs = []
        for where in ("shared", "fresh"):
            out = tmp_path / f"{where}{k}.json"
            argv = ["--input", path] + [a.format(out=out) for a in args]
            if where == "shared":
                code = cli(argv)
                captured = capsys.readouterr()
                stdout, stderr = captured.out, captured.err
            else:
                done = subprocess.run(
                    [sys.executable, "-m", "semigroupoids", *argv],
                    env=env, capture_output=True, text=True,
                )
                code, stdout, stderr = done.returncode, done.stdout, done.stderr
            written = out.read_text() if out.exists() else None
            outputs.append((code, stdout, stderr, written))
        assert outputs[0] == outputs[1], args
    assert cli_module._parser() is cli_module._parser()


def test_verify_all_on_action(files, tmp_path, capsys):
    munn = tmp_path / "munn.json"
    cli(["--input", files["b2"], "munn", "--output", str(munn)])
    assert cli(["--input", str(munn), "validate", "--verify-all"]) == 0
    out = capsys.readouterr().out
    assert "validators-agree" in out


def test_output_defaults_to_stdout(files, capsys):
    assert cli(["--input", files["chain2"], "munn"]) == 0
    out = capsys.readouterr().out
    assert '"kind": "action"' in out


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(files, tmp_path, capsys, target):
    path = tmp_path / "nope" / "x.json" if target == "missing-directory" else tmp_path
    assert cli(["--input", files["b2"], "munn", "--output", str(path)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_missing_input_exits_2(capsys):
    assert cli(["analyze"]) == 2


def test_validate_invalid_action_exits_1(files, tmp_path, capsys):
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    doc["domains"]["e"] = []  # break carrier coverage
    doc["maps"]["e"] = []
    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(doc))
    assert cli(["--input", str(bad), "validate"]) == 1
    assert "INVALID action" in capsys.readouterr().out


def test_globalize_invalid_action_exits_1(files, tmp_path, capsys):
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    doc["domains"]["e"] = []
    doc["maps"]["e"] = []
    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(doc))
    assert cli(["--input", str(bad), "globalize"]) == 1


def test_export_dot_action_and_triple(files, tmp_path):
    munn = tmp_path / "munn.json"
    cli(["--input", files["b2"], "munn", "--output", str(munn)])
    out = tmp_path / "a.dot"
    assert cli(["--input", str(munn), "export-dot", "--output", str(out)]) == 0
    assert "digraph hasse" in out.read_text()

    cli(["--input", files["pair2"], "triple", "--seed", "5",
         "--output", str(tmp_path / "t.json")])
    out2 = tmp_path / "t.dot"
    assert cli(
        ["--input", str(tmp_path / "t.json"), "export-dot", "--output", str(out2)]
    ) == 0
    assert "lightblue" in out2.read_text()


def test_semigroupoid_arrow_graph_dot(files, tmp_path):
    from semigroupoids import dot
    from semigroupoids.core import validate_semigroupoid

    text = dot.semigroupoid_to_dot(validate_semigroupoid([0], [0], [(0, 0, 0)]))
    assert text.startswith("digraph semigroupoid")
    assert "a0" in text


def _count_calls(monkeypatch, names):
    """Count calls to the named congruence and P-theorem functions,
    through every reference any package module holds to them."""
    counts = {name: 0 for name in names}
    for name in names:
        real = getattr(congruences, name, None) or getattr(ptheorem, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("semigroupoids") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize(
    "name, expected",
    [
        # the command's certificate and the battery's certificate; the
        # battery's Munn action serves the Munn rows and the P-theorem row
        (
            "chain2",
            {"sigma": 2, "is_e_unitary": 2, "sigma_by_equations": 1, "munn_action": 1},
        ),
        # not E-unitary: the command's and the battery's certificates
        (
            "b2",
            {"sigma": 2, "is_e_unitary": 2, "sigma_by_equations": 1, "munn_action": 1},
        ),
    ],
)
def test_verify_all_derives_each_object_once(files, monkeypatch, capsys, name, expected):
    counts = _count_calls(monkeypatch, sorted(expected))
    cli(["--input", files[name], "analyze", "--verify-all"])
    assert counts == expected
    assert "[FAIL]" not in capsys.readouterr().out


def test_ptheorem_verify_all_derives_each_object_once(files, monkeypatch, capsys):
    # the command's certificate and Munn action, and the battery's own
    expected = {"sigma": 2, "is_e_unitary": 2, "sigma_by_equations": 1, "munn_action": 2}
    counts = _count_calls(monkeypatch, sorted(expected))
    assert cli(["--input", files["chain2"], "ptheorem", "--verify-all"]) == 0
    assert counts == expected
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_all_rows_take_the_batterys_certificate(files, monkeypatch):
    # the command certifies its structure first and the battery its own
    # promotion second; the rows that need E-unitarity take the battery's
    made, taken = [], []
    real_certificate = cli_module.is_e_unitary

    def certifying(inv_sg):
        made.append(real_certificate(inv_sg))
        return made[-1]

    def taking(fn):
        def wrapper(cert, *rest):
            taken.append(cert)
            return fn(cert, *rest)

        return wrapper

    monkeypatch.setattr(cli_module, "is_e_unitary", certifying)
    for name in ("check_lemma_sts", "bundle_from_certificate"):
        monkeypatch.setattr(cli_module, name, taking(getattr(cli_module, name)))
    assert cli(["--input", files["chain2"], "ptheorem", "--verify-all"]) == 0
    command_cert, battery_cert = made
    assert command_cert.sigma.base is not battery_cert.sigma.base
    # the command's bundle, then the two rows
    assert len(taken) == 3
    assert taken[0] is command_cert
    assert taken[1] is battery_cert and taken[2] is battery_cert



def test_idempotent_pure_row_reads_the_equational_sigma(files, monkeypatch):
    # the row compares the certificate's verdict with idempotent purity
    # of the sigma built by the equational route, not the certificate's own
    built, read = [], []
    real_by_equations = cli_module.sigma_by_equations
    real_pure = cli_module.is_idempotent_pure

    def by_equations(inv_sg):
        built.append(real_by_equations(inv_sg))
        return built[-1]

    def pure(cong):
        read.append(cong)
        return real_pure(cong)

    monkeypatch.setattr(cli_module, "sigma_by_equations", by_equations)
    monkeypatch.setattr(cli_module, "is_idempotent_pure", pure)
    for name in ("chain2", "b2"):
        built.clear()
        read.clear()
        assert cli(["--input", files[name], "analyze", "--verify-all"]) == 0
        assert len(built) == 1 and len(read) == 1
        assert read[0] is built[0]

VERIFY_ALL_ROWS = [
    "idempotents-commute",
    "sigma-three-way",
    "sigma-quotient-groupoid",
    "e-unitary-five-way",
    "e-unitary-matches-idempotent-pure",
    "munn-validators",
    "munn-globalization-lemma",
]


@pytest.mark.parametrize(
    "name, rows",
    [
        ("chain2", VERIFY_ALL_ROWS + ["parallel-congruent-transfer", "ptheorem-isomorphism"]),
        ("b2", VERIFY_ALL_ROWS),
    ],
)
def test_verify_all_rows_and_their_order(files, capsys, name, rows):
    assert cli(["--input", files[name], "analyze", "--verify-all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[")] == [
        f"[PASS] {row}" for row in rows
    ]


def test_globalize_invalid_action_prints_its_violation(files, tmp_path, capsys):
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    doc["domains"]["e"] = []
    doc["maps"]["e"] = []
    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["--input", str(bad), "globalize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "INVALID action: NotCovering\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [["export-dot"], ["globalize", "--format", "dot"], ["semidirect"], ["triple"]],
)
def test_command_needing_an_order_rejects_an_unordered_action(
    files, tmp_path, capsys, argv
):
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    del doc["order"]
    unordered = tmp_path / "unordered.json"
    unordered.write_text(json.dumps(doc))
    assert cli(["--input", str(unordered), "validate"]) == 0
    capsys.readouterr()
    assert cli(["--input", str(unordered), *argv]) == 2
    assert capsys.readouterr().err == "parse error: action has no carrier order\n"



def test_globalize_dot_rejects_an_unordered_action_before_globalizing(
    files, tmp_path, capsys
):
    # an invalid unordered action: the missing order is reported, as by
    # the other commands that need one, not the action's violation
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    del doc["order"]
    doc["domains"]["e"] = []
    doc["maps"]["e"] = []
    bad = tmp_path / "unordered_invalid.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["--input", str(bad), "globalize", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: action has no carrier order\n"

@pytest.mark.parametrize("command", ["semidirect", "triple"])
def test_action_commands_report_an_empty_carrier(files, tmp_path, capsys, command):
    # the action is checked before the lattice of its (empty) order is
    # built, so the report names the carrier, as validate and globalize do
    munn = tmp_path / "munn.json"
    cli(["--input", files["chain2"], "munn", "--output", str(munn)])
    doc = json.loads(munn.read_text())
    doc["carrier"] = []
    doc["order"] = []
    doc["domains"] = {name: [] for name in doc["domains"]}
    doc["maps"] = {name: [] for name in doc["maps"]}
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["--input", str(empty), command]) == 1
    assert capsys.readouterr().out == "INVALID: EmptyCarrier\n"


@pytest.mark.parametrize("value", ["-3", "6"])
def test_verify_corpus_rejects_an_arrow_bound_out_of_range(value):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "verify_corpus.py"),
         "--max-arrows", value],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert f"invalid choice: {value}" in proc.stderr
    # rejected before any check ran
    assert proc.stdout == ""


def _assert_no_command_reads(owner, view, files, tmp_path, monkeypatch, capsys):
    """Every command's exit code, output and written file are unchanged
    when ``owner.view`` raises: no library code reads that view."""
    from semigroupoids.posets import chain_poset

    structures = [files[name] for name in ("chain2", "b2", "pair2")]
    acts = []
    for i, (_name, a) in enumerate(corpus.action_corpus()[::12]):
        acts.append(str(tmp_path / f"action{i}.json"))
        io.save_structure(a, acts[-1])
    poset = str(tmp_path / "poset.json")
    io.save_structure(chain_poset(3), poset)
    munn = str(tmp_path / "munn.json")
    runs = [(p, ["analyze", "--verify-all"]) for p in structures]
    runs += [(p, ["munn", "--output", munn]) for p in structures[:1]]
    runs += [(munn, ["globalize"])]
    for p in structures:
        runs += [(p, ["ptheorem"]), (p, ["export-dot"])]
        runs += [(p, ["triple", "--seed", "3"]), (p, ["semidirect", "--seed", "3"])]
    runs += [
        (p, command)
        for p in acts
        for command in (["validate", "--verify-all"], ["globalize"], ["triple"],
                        ["semidirect"], ["export-dot"])
    ]
    runs += [(poset, ["export-dot"])]

    def outcomes():
        seen = []
        for path, argv in runs:
            code = cli(["--input", path, *argv])
            written = Path(munn).read_text() if "--output" in argv else None
            seen.append((code, *capsys.readouterr(), written))
        return seen

    capsys.readouterr()
    plain = outcomes()

    def forbidden(self):
        raise AssertionError(f"{owner.__name__}.{view} read by library code")

    monkeypatch.setattr(owner, view, property(forbidden))
    assert outcomes() == plain
    assert {code for code, *_printed in plain} >= {0, 1}


def test_no_command_reads_the_order_matrix_view(files, tmp_path, monkeypatch, capsys):
    # FinitePoset.leq is a boolean-matrix view built on each read; the
    # library reads the row bitmasks only
    from semigroupoids.posets import FinitePoset

    _assert_no_command_reads(FinitePoset, "leq", files, tmp_path, monkeypatch, capsys)


def test_no_command_reads_the_table_view(files, tmp_path, monkeypatch, capsys):
    # FiniteSemigroupoid.mul is an n x n table view built on each read;
    # the library reads the composable rows only
    from semigroupoids.core import FiniteSemigroupoid

    _assert_no_command_reads(FiniteSemigroupoid, "mul", files, tmp_path, monkeypatch, capsys)


def test_validate_memory_is_bounded_by_the_file(tmp_path):
    # 8,000 arrows on one object and no products: a 343 KB file.  An
    # n x n table would take 64M cells (about 0.5 GB) before the first
    # missing product is found; the row form allocates only per triple
    # given, so the child stays near the interpreter's own size
    doc = {
        "kind": "semigroupoid",
        "version": 1,
        "objects": ["u"],
        "arrows": [{"name": f"a{i}", "dom": "u", "cod": "u"} for i in range(8000)],
        "mul": [],
    }
    path = tmp_path / "empty_mul.json"
    path.write_text(json.dumps(doc))
    # a probe process runs the CLI, so the peak it reports belongs to this
    # validate alone and to no earlier child of the test process
    probe = (
        "import json, resource, subprocess, sys\n"
        "p = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024\n"
        "print(json.dumps([p.returncode, p.stdout, p.stderr, peak]))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "semigroupoids",
         "--input", str(path), "validate"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    *outcome, peak_mb = json.loads(proc.stdout)
    assert outcome == [1, "INVALID: UndefinedOnComposablePair(0, 0)\n", ""]
    assert peak_mb < 100, f"validate peaked at {peak_mb} MB"


def test_reading_a_semigroupoid_keeps_no_copy_of_its_triples():
    # the parsed [s, t, r] lists are the triples validate_semigroupoid
    # sorts, so the read peaks near the 1,600-arrow table's own rows
    # (2.2 MiB on a 2-CPU host) and not at a tuple per triple (11.1 MiB)
    sg = corpus.gen_SA(corpus.chain_semilattice(4), 20).base
    doc = json.loads(io.canonical_dumps(io.semigroupoid_to_doc(sg)))
    assert len(doc["mul"]) == 128_000
    tracemalloc.start()
    try:
        assert io.semigroupoid_from_doc(doc) == sg
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"reading peaked at {peak / 2**20:.1f} MiB"


def _triple_doc():
    a = corpus.fiber_shift_action()
    triple = ptheorem.mcalister_from_action(a, posets.semilatticeoid_from_poset(a.order))
    return io.triple_to_doc(triple)


@pytest.mark.parametrize(
    "part, message",
    [
        ("groupoid", "action actor differs"),
        ("space", "order differs from space"),
    ],
)
def test_triple_file_whose_parts_disagree_exits_1(tmp_path, capsys, part, message):
    doc = _triple_doc()
    if part == "groupoid":
        doc["groupoid"] = io.semigroupoid_to_doc(corpus.discrete_groupoid(2).base)
    else:
        doc["space"]["leq"] = [[x, x] for x in doc["space"]["elements"]]
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["--input", str(path), "validate"]) == 1
    assert capsys.readouterr() == (f"INVALID: MalformedAction: {message}\n", "")
