"""Command-line interface.

Subcommands: validate, analyze, globalize, munn, semidirect, triple,
ptheorem, enumerate, export-dot.  Exit codes: 0 success, 1 validation
failure (report on standard output), 2 I/O or parse error, 3 internal
inconsistency (a failed theorem-backed self-check: a bug, not bad input;
report on standard error).
"""
from __future__ import annotations

import argparse
import random
import sys
from functools import cache

from . import corpus, dot, io
from .actions import (
    PartialActionData,
    check_equivariant,
    EquivariantMap,
    require_valid,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from .congruences import (
    EUnitarityCertificate,
    check_lemma_sts,
    is_e_unitary,
    is_idempotent_pure,
    quotient,
    sigma_by_equations,
    sigma_by_lower_bounds,
)
from .core import FiniteSemigroupoid
from .errors import (
    InternalInconsistencyError,
    ParseError,
    SemigroupoidError,
    ValidationError,
)
from .globalization import check_lemma_tec, globalize
from .inverse import InverseSemigroupoid, is_groupoid, promote_to_inverse
from .posets import FinitePoset, Semilatticeoid, semilatticeoid_from_poset
from .ptheorem import (
    McAlisterTriple,
    bundle_from_certificate,
    mcalister_from_action,
    munn_action,
    semidirect_product,
    triple_restriction,
)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _emit_doc(doc: dict, args) -> None:
    _write_output(io.canonical_dumps(doc), args.output)


def _load(args):
    """The object in ``--input``, read and parsed once per invocation:
    ``--verify-all`` gets the object the command loaded."""
    if args.input is None:
        raise ParseError("missing --input")
    if getattr(args, "loaded", None) is None:
        args.loaded = io.load_structure(args.input)
    return args.loaded


def _as_inverse(obj) -> InverseSemigroupoid:
    if isinstance(obj, InverseSemigroupoid):
        return obj
    if isinstance(obj, FiniteSemigroupoid):
        return promote_to_inverse(obj)
    raise ParseError(f"expected a semigroupoid file, got {type(obj).__name__}")


def _as_action(obj, seed: int | None) -> PartialActionData:
    """An action file, or a semigroupoid file plus a seed from which a
    random ordered partial action (an ideal restriction of its action on
    idempotents) is generated."""
    if isinstance(obj, PartialActionData):
        return obj
    if isinstance(obj, (FiniteSemigroupoid, InverseSemigroupoid)):
        if seed is None:
            raise ParseError("a semigroupoid input needs --seed to generate an action")
        inv_sg = _as_inverse(obj)
        theta = munn_action(inv_sg)
        rng = random.Random(seed)
        return restrict_global(theta, corpus.random_ideal(theta.order, rng))
    raise ParseError(f"expected an action file, got {type(obj).__name__}")


def _carrier_order(action: PartialActionData) -> FinitePoset:
    """The carrier order of an action, for the commands that need one."""
    if action.order is None:
        raise ParseError("action has no carrier order")
    return action.order


def _certificate_doc(inv_sg: InverseSemigroupoid, cert: EUnitarityCertificate) -> dict:
    doc = {
        "verdict": cert.verdict,
        "conditions": list(cert.conditions),
    }
    if cert.witness is not None:
        e, s = cert.witness
        doc["witness"] = [
            inv_sg.base.arrow_names[e],
            inv_sg.base.arrow_names[s],
        ]
    return doc


def cmd_validate(args) -> int:
    obj = _load(args)
    kind = {
        FiniteSemigroupoid: "semigroupoid",
        FinitePoset: "poset",
        PartialActionData: "action",
        McAlisterTriple: "triple",
    }[type(obj)]
    if isinstance(obj, PartialActionData):
        v = validate_partial_action_E(obj)
        v2 = validate_partial_action_P(obj)
        if (v is None) != (v2 is None):
            raise InternalInconsistencyError("ValidatorDisagreement", ())
        if v is not None:
            print(f"INVALID action: {v}")
            return 1
    print(f"OK {kind}")
    return 0


def cmd_analyze(args) -> int:
    inv_sg = _as_inverse(_load(args))
    sg = inv_sg.base
    cert = is_e_unitary(inv_sg)
    q, _proj = cert.sigma.quotient
    doc = {
        "idempotents": [sg.arrow_names[e] for e in inv_sg.idempotents],
        "inverse": {
            sg.arrow_names[s]: sg.arrow_names[inv_sg.inv[s]] for s in inv_sg.arrows()
        },
        "order_hasse": [
            [sg.arrow_names[x], sg.arrow_names[y]]
            for x, y in inv_sg.order.hasse_edges()
        ],
        "is_groupoid": is_groupoid(inv_sg),
        "sigma_classes": [
            [sg.arrow_names[s] for s in cls] for cls in cert.sigma.classes()
        ],
        "sigma_quotient": io.semigroupoid_to_doc(q.base),
        "e_unitary": _certificate_doc(inv_sg, cert),
    }
    _emit_doc(doc, args)
    return 0


def cmd_globalize(args) -> int:
    action = _as_action(_load(args), args.seed)
    if args.format == "dot":
        _carrier_order(action)
    try:
        result = globalize(action)
    except ValidationError as exc:
        print(f"INVALID action: {exc}")
        return 1
    if args.format == "dot":
        _write_output(dot.globalization_to_dot(result), args.output)
        return 0
    env = result.envelope
    sg = action.actor.base
    doc = {
        "classes": {
            env.carrier_names[c]: [
                [sg.arrow_names[result.pairs[i][0]],
                 action.carrier_names[result.pairs[i][1]]]
                for i in members
            ]
            for c, members in enumerate(result.classes)
        },
        **io.action_maps_doc(env),
        "embedding": {
            action.carrier_names[x]: env.carrier_names[result.embed[x]]
            for x in range(action.carrier_size)
        },
        "order_hasse": [
            [env.carrier_names[x], env.carrier_names[y]]
            for x, y in (env.order.hasse_edges() if env.order else [])
        ],
    }
    _emit_doc(doc, args)
    return 0


def cmd_munn(args) -> int:
    inv_sg = _as_inverse(_load(args))
    _emit_doc(io.action_to_doc(munn_action(inv_sg)), args)
    return 0


def _checked_action_and_lattice(args) -> tuple[PartialActionData, Semilatticeoid]:
    """The input action through the input gate, which stores E's verdict
    for the construction's own gate to read, then the semilatticeoid of
    its carrier order."""
    action = _as_action(_load(args), args.seed)
    order = _carrier_order(action)
    require_valid(action)
    return action, semilatticeoid_from_poset(order)


def cmd_semidirect(args) -> int:
    product = semidirect_product(*_checked_action_and_lattice(args))
    _emit_doc(io.semigroupoid_to_doc(product.product.base), args)
    return 0


def cmd_triple(args) -> int:
    triple = mcalister_from_action(*_checked_action_and_lattice(args))
    _emit_doc(io.triple_to_doc(triple), args)
    return 0


def cmd_ptheorem(args) -> int:
    inv_sg = _as_inverse(_load(args))
    cert = is_e_unitary(inv_sg)
    if not cert.verdict:
        print("INVALID: structure is not E-unitary")
        print(io.canonical_dumps(_certificate_doc(inv_sg, cert)), end="")
        return 1
    bundle = bundle_from_certificate(cert, munn_action(inv_sg))
    sg = inv_sg.base
    product = bundle.semidirect.product.base
    doc = {
        "product": io.semigroupoid_to_doc(product),
        "isomorphism": {
            sg.arrow_names[s]: product.arrow_names[bundle.morphism.arrow_map[s]]
            for s in inv_sg.arrows()
        },
    }
    _emit_doc(doc, args)
    return 0


def cmd_enumerate(args) -> int:
    structs = list(
        corpus.enumerate_inverse_semigroupoids(args.max_arrows, args.max_objects)
    )
    doc = {
        "count": len(structs),
        "structures": [io.semigroupoid_to_doc(s.base) for s in structs],
    }
    _emit_doc(doc, args)
    return 0


def cmd_export_dot(args) -> int:
    obj = _load(args)
    if isinstance(obj, FiniteSemigroupoid):
        try:
            text = dot.inverse_semigroupoid_to_dot(promote_to_inverse(obj))
        except ValidationError:
            text = dot.semigroupoid_to_dot(obj)
    elif isinstance(obj, FinitePoset):
        text = dot.poset_to_dot(obj)
    elif isinstance(obj, PartialActionData):
        text = dot.poset_to_dot(_carrier_order(obj))
    elif isinstance(obj, McAlisterTriple):
        text = dot.poset_to_dot(obj.space, highlight=set(obj.ideal))
    else:  # pragma: no cover
        raise ParseError("nothing to draw")
    _write_output(text, args.output)
    return 0


# -------------------------------------------------------------- verify-all

def cross_checks(obj) -> list[tuple[str, bool, str]]:
    """Every applicable cross-check for a loaded structure; one
    (name, passed, note) row per check."""
    rows: list[tuple[str, bool, str]] = []

    def note(name: str, fn) -> None:
        try:
            fn()
            rows.append((name, True, ""))
        except SemigroupoidError as exc:
            rows.append((name, False, str(exc)))

    if isinstance(obj, FiniteSemigroupoid):
        inv_sg = promote_to_inverse(obj)
        sg = inv_sg.base
        # each derived object is computed once, on first use, and every
        # row compares two different computations; a derivation that
        # raises is not cached, so each row that needs it fails alone
        certificate = cache(lambda: is_e_unitary(inv_sg))
        by_equations = cache(lambda: sigma_by_equations(inv_sg))
        theta = cache(lambda: munn_action(inv_sg))

        def commuting_idempotents():
            for e in inv_sg.idempotents:
                for f in inv_sg.idempotents:
                    if sg.composable(e, f):
                        _assert(
                            sg.composable(f, e) and sg.product(e, f) == sg.product(f, e)
                        )

        note("idempotents-commute", commuting_idempotents)
        note(
            "sigma-three-way",
            lambda: _assert(
                certificate().sigma.rep
                == by_equations().rep
                == sigma_by_lower_bounds(inv_sg).rep
            ),
        )
        note(
            "sigma-quotient-groupoid",
            lambda: _assert(is_groupoid(quotient(inv_sg, by_equations())[0])),
        )
        note("e-unitary-five-way", certificate)
        note(
            "e-unitary-matches-idempotent-pure",
            lambda: _assert(
                certificate().verdict == is_idempotent_pure(by_equations())
            ),
        )
        note("munn-validators", theta)
        note(
            "munn-globalization-lemma",
            lambda: _assert(not check_lemma_tec(globalize(theta()))),
        )
        if certificate().verdict:
            note(
                "parallel-congruent-transfer",
                lambda: _assert(check_lemma_sts(certificate())),
            )
            note(
                "ptheorem-isomorphism",
                lambda: bundle_from_certificate(certificate(), theta()),
            )
    elif isinstance(obj, PartialActionData):
        ve = validate_partial_action_E(obj)
        vp = validate_partial_action_P(obj)
        rows.append(
            (
                "validators-agree",
                (ve is None) == (vp is None),
                f"E={ve} P={vp}",
            )
        )
        if ve is None and obj.order is not None:
            note("globalization-contract", lambda: _check_contract(obj))
    elif isinstance(obj, McAlisterTriple):
        note("triple-restriction", lambda: triple_restriction(obj))
    return rows


def _assert(cond: bool) -> None:
    """Fail a cross-check; an explicit raise, so ``python -O`` keeps it."""
    if not cond:
        raise InternalInconsistencyError("CrossCheckFailed")


def _check_contract(action: PartialActionData) -> None:
    result = globalize(action)
    _assert(not check_lemma_tec(result))
    restricted = restrict_global(result.envelope, set(result.embed))
    position = {c: i for i, c in enumerate(sorted(set(result.embed)))}
    f = tuple(position[c] for c in result.embed)
    _assert(
        check_equivariant(
            EquivariantMap(action, restricted, f), ordered=True, equivalence=True
        )
        is None
    )


def _run_verify_all(obj) -> int:
    rows = cross_checks(obj)
    bad = 0
    for name, ok, msg in rows:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if msg and not ok:
            line += f": {msg}"
        print(line)
        if not ok:
            bad += 1
    return 1 if bad else 0


# ------------------------------------------------------------------- main

def _count(text: str) -> int:
    """A non-negative integer argument; anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _arrow_cap(text: str) -> int:
    """A ``--max-arrows`` argument: a count up to ``corpus.HARD_CAP``,
    the largest size ``enumerate`` accepts; anything else exits 2."""
    value = _count(text)
    if value > corpus.HARD_CAP:
        raise argparse.ArgumentTypeError(
            f"must be at most {corpus.HARD_CAP}, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semigroupoids",
        description="Finite inverse semigroupoid toolkit",
    )
    parser.add_argument("--input", help="input structure file (JSON)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("json", "dot"), default="json", help="output format"
    )
    parser.add_argument("--max-arrows", type=_arrow_cap, default=3)
    parser.add_argument("--max-objects", type=_count, default=None)
    parser.add_argument(
        "--seed", type=int, default=None, help="randomized action generation"
    )
    parser.add_argument(
        "--verify-all",
        action="store_true",
        help="run every applicable cross-check on the input",
    )
    parser.add_argument(
        "command",
        choices=tuple(_COMMANDS),
    )
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "globalize": cmd_globalize,
    "munn": cmd_munn,
    "semidirect": cmd_semidirect,
    "triple": cmd_triple,
    "ptheorem": cmd_ptheorem,
    "enumerate": cmd_enumerate,
    "export-dot": cmd_export_dot,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs several times a parse,
    and parsing leaves it unchanged."""
    return build_parser()


def cli(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        if code == 0 and args.verify_all and args.input is not None:
            code = _run_verify_all(_load(args))
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"INVALID: {exc}")
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency (bug): {exc}", file=sys.stderr)
        return 3


def main() -> None:  # pragma: no cover
    sys.exit(cli())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cli())
