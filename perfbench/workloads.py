"""The benchmark's workloads.

A workload sets up its first inputs, then hands out batches of items.
Batches are built outside the timed section and always run whole, so
every run covers the same mix of cheap and expensive items. Each item
is timed alone; its output is checked against ``oracles`` after the
batch, outside the timed section.

- ``sweep``: every inverse semigroupoid with at most five arrows, in a
  seeded order, through sigma, quotient, is_e_unitary, munn_action and,
  when E-unitary, ptheorem_bundle. The enumeration itself is timed as
  the run's first step. Thousands of tiny structures make per-call
  overhead and recomputation dominate.
- ``ladder``: a size ladder of structure files driven through the CLI
  in-process, five commands per rung. The one-class Jpi rungs spend
  most of their time in the quartic congruence check.
- ``actions``: ordered partial actions, with no congruence layer: both
  validators on every candidate, then globalization, its lemma check,
  three universal maps and, for groupoid actors, the McAlister triple.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from semigroupoids import actions, cli, congruences, corpus, globalization
from semigroupoids import inverse, io, posets, ptheorem

from oracles import Table, action_violation, equivariance_violation


@dataclass
class Batch:
    items: list
    # timed work that belongs to no item, such as the sweep's enumeration
    prologue: Callable[[], None] | None = None
    # untimed check of the prologue's result; returns a failure or None
    check_prologue: Callable[[], str | None] | None = None


class Workload:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs of the first batch."""

    def batches(self):
        raise NotImplementedError

    def run(self, item):
        """The timed work of one item; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        """Compare one output with the oracles; a failure message or None."""
        raise NotImplementedError

    def label(self, item) -> str:
        """What the item is, for grouping its spans."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""


# ------------------------------------------------------------------ sweep

SWEEP_ARROWS = 5
SWEEP_STRUCTURES = 7642
SWEEP_E_UNITARY = 4424
SWEEP_BATCH = 100


@dataclass
class SweepOutput:
    sigma_rep: tuple
    quotient_arrows: int
    verdict: bool
    witness: tuple | None
    munn_maps: tuple
    iso_map: tuple | None = None
    product: object = None


class Sweep(Workload):
    def batches(self):
        found: list = []

        def enumerate_all():
            found.extend(corpus.enumerate_inverse_semigroupoids(SWEEP_ARROWS))

        def check_enumeration():
            if len(found) != SWEEP_STRUCTURES:
                return f"enumeration gave {len(found)} structures"
            if len({(s.base.dom, s.base.cod, s.base.mul) for s in found}) != len(found):
                return "enumeration repeats a table"
            e_unitary = sum(Table.of(s.base).is_e_unitary() for s in found)
            if e_unitary != SWEEP_E_UNITARY:
                return f"oracle finds {e_unitary} E-unitary structures"
            return None

        yield Batch([], enumerate_all, check_enumeration)
        order = list(range(len(found)))
        random.Random(self.seed).shuffle(order)
        for i in range(0, len(order), SWEEP_BATCH):
            yield Batch([found[j] for j in order[i:i + SWEEP_BATCH]])

    def run(self, s):
        sig = congruences.sigma(s)
        q, _proj = congruences.quotient(s, sig)
        cert = congruences.is_e_unitary(s)
        theta = ptheorem.munn_action(s)
        out = SweepOutput(sig.rep, q.n_arrows, cert.verdict, cert.witness, theta.maps)
        if cert.verdict:
            bundle = ptheorem.ptheorem_bundle(s)
            out.iso_map = bundle.morphism.arrow_map
            out.product = bundle.semidirect.product.base
        return out

    def label(self, s) -> str:
        return f"{s.n_arrows}-arrows"

    def check(self, s, out: SweepOutput) -> str | None:
        table = Table.of(s.base)
        reps = table.sigma_reps()
        if tuple(out.sigma_rep) != reps:
            return "sigma classes differ from the oracle"
        if out.quotient_arrows != len(set(reps)):
            return "quotient size differs from the sigma class count"
        witness = table.e_unitary_witness()
        if out.verdict != (witness is None) or out.witness != witness:
            return "E-unitarity verdict or witness differs from the oracle"
        if tuple(out.munn_maps) != table.munn_maps():
            return "Munn action differs from the oracle"
        if out.verdict:
            return _isomorphism_failure(table, out.iso_map, out.product.mul)
        return None


def _isomorphism_failure(table: Table, arrow_map, product_mul) -> str | None:
    """Whether arrow_map is a bijection onto the product's arrows that
    carries products to products and non-composable pairs to
    non-composable pairs."""
    n = table.n
    if sorted(arrow_map) != list(range(len(product_mul))) or len(arrow_map) != n:
        return "reconstruction is not a bijection onto the product"
    for s in range(n):
        for t in range(n):
            image = product_mul[arrow_map[s]][arrow_map[t]]
            expected = table.mul[s][t]
            if image != (-1 if expected == -1 else arrow_map[expected]):
                return "reconstruction does not preserve the product"
    return None


# ----------------------------------------------------------------- ladder

# (rung name, Jpi fiber map) and (rung name, one-object structure, objects)
JPI_RUNGS = (
    ("jpi_00", (0, 0)),
    ("jpi_011", (0, 1, 1)),
    ("jpi_0011", (0, 0, 1, 1)),
    ("jpi_000", (0, 0, 0)),
    ("jpi_0111", (0, 1, 1, 1)),
)
SA_RUNGS = (
    ("sa_chain2_2", lambda: corpus.chain_semilattice(2), 2),
    ("sa_c2_3", lambda: corpus.cyclic_group(2), 3),
    ("sa_chain3_3", lambda: corpus.chain_semilattice(3), 3),
    ("sa_b2_3", corpus.brandt_b2, 3),
    ("sa_chain4_4", lambda: corpus.chain_semilattice(4), 4),
)
COMMANDS = ("analyze", "munn", "globalize-munn", "globalize-seed", "ptheorem")


@dataclass
class Rung:
    name: str
    path: str
    structure: object
    # for gen_SA rungs: the one-object structure spread and the object count
    spread: object = None
    objects: int = 0
    facts: dict = field(default_factory=dict)


@dataclass
class CliItem:
    rung: Rung
    command: str
    argv: list
    output: str


class Ladder(Workload):
    dir = None

    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="ladder-", dir=self.workdir)
        self.rungs = []
        for name, pi in JPI_RUNGS:
            self._add(Rung(name, "", corpus.gen_Jpi(pi)))
        for name, make, objects in SA_RUNGS:
            s = make()
            self._add(Rung(name, "", corpus.gen_SA(s, objects), s, objects))
        # cheap rungs, so a batch holds enough items for a p90
        for name, s in corpus.structure_corpus():
            self._add(Rung("fixture_" + name, "", s))

    def _add(self, rung: Rung) -> None:
        rung.path = os.path.join(self.dir, rung.name + ".json")
        io.save_structure(rung.structure.base, rung.path)
        self.rungs.append(rung)

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def batches(self):
        rng = random.Random(self.seed)
        number = 0
        while True:
            rungs = list(self.rungs)
            rng.shuffle(rungs)
            seed = str(self.seed * 1000 + number)
            items = []
            for rung in rungs:
                out = os.path.join(self.dir, rung.name)
                munn_out = out + ".munn.json"
                argvs = {
                    "analyze": ["analyze", "--input", rung.path, "--verify-all"],
                    "munn": ["munn", "--input", rung.path],
                    "globalize-munn": ["globalize", "--input", munn_out],
                    "globalize-seed": ["globalize", "--input", rung.path, "--seed", seed],
                    "ptheorem": ["ptheorem", "--input", rung.path],
                }
                for command in COMMANDS:
                    path = munn_out if command == "munn" else f"{out}.{command}.json"
                    items.append(
                        CliItem(rung, command, argvs[command] + ["--output", path], path)
                    )
            yield Batch(items)
            number += 1

    def run(self, item: CliItem):
        stdout = stdio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.cli(item.argv)
        return code, stdout.getvalue()

    def label(self, item: CliItem) -> str:
        return f"{item.rung.name}:{item.command}"

    def check(self, item: CliItem, output) -> str | None:
        code, printed = output
        facts = self._facts(item.rung)
        expected_code = 0
        if item.command == "ptheorem" and not facts["e_unitary"]:
            expected_code = 1
        if code != expected_code:
            return f"{item.command} exited {code}, expected {expected_code}"
        if code == 1:
            if "not E-unitary" not in printed:
                return "ptheorem exit 1 without the E-unitarity report"
            return None
        # removed once read, so a command that writes nothing next batch fails
        with open(item.output, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(item.output)
        return getattr(self, "_check_" + item.command.replace("-", "_"))(
            item.rung, facts, doc, printed
        )

    def _facts(self, rung: Rung) -> dict:
        if not rung.facts:
            table = Table.of(rung.structure.base)
            names = rung.structure.base.arrow_names
            reps = table.sigma_reps()
            classes: dict = {}
            for s, r in enumerate(reps):
                classes.setdefault(r, set()).add(names[s])
            witness = table.e_unitary_witness()
            rung.facts = {
                "table": table,
                "names": names,
                "classes": sorted(sorted(c) for c in classes.values()),
                "e_unitary": witness is None,
                "witness": None if witness is None else [names[x] for x in witness],
                "idempotents": [names[e] for e in table.idempotents],
            }
            if rung.spread is not None:
                # gen_SA(S, a) has a^2 |S/sigma| classes and is E-unitary iff S is
                spread = Table.of(rung.spread.base)
                if len(classes) != rung.objects ** 2 * spread.sigma_class_count():
                    rung.facts["rung_fact"] = "sigma class count breaks a^2 |S/sigma|"
                elif (witness is None) != spread.is_e_unitary():
                    rung.facts["rung_fact"] = "E-unitarity differs from the spread structure"
        return rung.facts

    def _check_analyze(self, rung, facts, doc, printed):
        if facts.get("rung_fact"):
            return facts["rung_fact"]
        rows = printed.splitlines()
        if not rows or any(not row.startswith("[PASS] ") for row in rows):
            return "--verify-all did not pass every cross-check"
        if sorted(sorted(c) for c in doc["sigma_classes"]) != facts["classes"]:
            return "sigma classes differ from the oracle"
        if doc["idempotents"] != facts["idempotents"]:
            return "idempotents differ from the oracle"
        cert = doc["e_unitary"]
        if cert["verdict"] != facts["e_unitary"] or cert.get("witness") != facts["witness"]:
            return "E-unitarity verdict or witness differs from the oracle"
        return None

    def _check_munn(self, rung, facts, doc, printed):
        if doc["carrier"] != facts["idempotents"]:
            return "Munn carrier is not the idempotents"
        position = {name: i for i, name in enumerate(facts["idempotents"])}
        maps = tuple(
            {position[x]: position[y] for x, y in doc["maps"][name]}
            for name in facts["names"]
        )
        if maps != facts["table"].munn_maps():
            return "Munn action differs from the oracle"
        # the library's domains[s] is the range of the map of s
        domains = [sorted(doc["domains"][name]) for name in facts["names"]]
        if domains != [sorted(y for _x, y in doc["maps"][name]) for name in facts["names"]]:
            return "Munn domains are not the ranges of the maps"
        return None

    def _check_globalize_munn(self, rung, facts, doc, printed):
        # a global action is its own globalization: one class per idempotent
        if len(doc["classes"]) != len(facts["idempotents"]):
            return "globalized Munn action does not have one class per idempotent"
        return None

    def _check_globalize_seed(self, rung, facts, doc, printed):
        # restricting a global action to an ideal Y and globalizing gives
        # the orbit of Y
        position = {name: i for i, name in enumerate(facts["idempotents"])}
        ideal = {position[name] for name in doc["embedding"]}
        table = facts["table"]
        if not ideal or not table.is_idempotent_ideal(ideal):
            return "seeded action is not carried by an ideal of idempotents"
        if len(doc["classes"]) != len(table.munn_orbit(ideal)):
            return "globalization size differs from the orbit of the ideal"
        return None

    def _check_ptheorem(self, rung, facts, doc, printed):
        product = Table.from_doc(doc["product"])
        index = {a["name"]: i for i, a in enumerate(doc["product"]["arrows"])}
        arrow_map = [index[doc["isomorphism"][name]] for name in facts["names"]]
        return _isomorphism_failure(facts["table"], arrow_map, product.mul)


# ---------------------------------------------------------------- actions

# gen_SA(chain_semilattice(k), a): a^2 k arrows, whose Munn action has a k points
ACTION_RUNGS = ((2, 2), (4, 2), (3, 3), (4, 4), (6, 3), (3, 6), (7, 4))
IDEALS_PER_RUNG = 2


@dataclass
class ActionItem:
    kind: str
    action: object
    # restriction items: the global action and the ideal restricted to
    ideal: frozenset | None = None


@dataclass
class ActionOutput:
    action: object
    valid: bool
    result: object = None
    lemma: list | None = None
    universal: list = field(default_factory=list)
    triple: object = None
    restricted: object = None


class Actions(Workload):
    def setup(self):
        self.spread = [
            corpus.gen_SA(corpus.chain_semilattice(k), a) for k, a in ACTION_RUNGS
        ]
        self.tables: dict = {}
        self.first = self._inputs(0)

    def _inputs(self, number: int) -> list:
        seed = self.seed * 1000 + number
        items = [ActionItem("candidate", a) for a in corpus.action_candidates(seed=seed)]
        items += [ActionItem("corpus", a) for _, a in corpus.action_corpus()]
        items += [ActionItem("groupoid", a) for _, a in corpus.groupoid_action_corpus()]
        rng = random.Random(seed)
        for s in self.spread:
            theta = ptheorem.munn_action(s)
            for _ in range(IDEALS_PER_RUNG):
                items.append(
                    ActionItem("restriction", theta, corpus.random_ideal(theta.order, rng))
                )
        return items

    def batches(self):
        number = 0
        while True:
            items = self.first if number == 0 else self._inputs(number)
            self.first = None
            self.tables = {}
            yield Batch(items)
            number += 1

    def run(self, item: ActionItem):
        a = item.action
        if item.ideal is not None:
            a = actions.restrict_global(a, item.ideal)
        ve = actions.validate_partial_action_E(a)
        vp = actions.validate_partial_action_P(a)
        if (ve is None) != (vp is None):
            raise AssertionError(f"validators disagree: E={ve} P={vp}")
        out = ActionOutput(a, ve is None)
        if not out.valid:
            return out
        r = out.result = globalization.globalize(a)
        out.lemma = globalization.check_lemma_tec(r)
        point = actions.point_action(a.actor)
        targets = (
            (r.envelope, r.embed),
            (point, (0,) * a.carrier_size),
            (actions.disjoint_union_actions(r.envelope, point), r.embed),
        )
        for target, j in targets:
            out.universal.append((target, j, globalization.universal_map(r, target, j).f))
        if inverse.is_groupoid(a.actor) and all(a.domains):
            latt = posets.semilatticeoid_from_poset(a.order)
            out.triple = ptheorem.mcalister_from_action(a, latt)
            out.restricted = ptheorem.triple_restriction(out.triple)
        return out

    def _table(self, actor) -> Table:
        key = id(actor.base)
        if key not in self.tables:
            self.tables[key] = (actor.base, Table.of(actor.base))
        return self.tables[key][1]

    def label(self, item: ActionItem) -> str:
        return item.kind

    def check(self, item: ActionItem, out: ActionOutput) -> str | None:
        a = out.action
        table = self._table(a.actor)
        violation = action_violation(table, a.domains, a.maps, a.order.leq, a.global_flag)
        if out.valid != (violation is None):
            return f"validity verdict differs from the oracle ({violation})"
        if not out.valid:
            return None
        r, env = out.result, out.result.envelope
        size, classes = a.carrier_size, env.carrier_size
        if action_violation(table, env.domains, env.maps, env.order.leq, True):
            return "envelope is not a global ordered action"
        if len(set(r.embed)) != size:
            return "embedding is not injective"
        if equivariance_violation(table, a.maps, env.maps, r.embed, a.order.leq, env.order.leq):
            return "embedding is not equivariant"
        if any(env.order.leq[r.embed[x]][r.embed[y]] != a.order.leq[x][y]
               for x in range(size) for y in range(size)):
            return "embedding does not reflect the order"
        reached = set()
        for m in env.maps:
            reached |= {m[c] for c in r.embed if c in m}
        if reached != set(range(classes)):
            return "envelope is not generated by the embedded copy"
        if out.lemma:
            return f"lemma check reported {out.lemma[0]}"
        if a.global_flag and classes != size:
            return "a global action is not its own globalization"
        if item.kind == "restriction":
            munn = self._table(item.action.actor)
            names = item.action.actor.base.arrow_names
            if item.action.carrier_names != tuple(names[e] for e in munn.idempotents):
                return "Munn carrier is not the idempotents"
            if classes != len(munn.munn_orbit(item.ideal)):
                return "globalization size differs from the orbit of the ideal"
        for target, j, k in out.universal:
            if any(k[r.embed[x]] != j[x] for x in range(size)):
                return "universal map does not extend the given map"
            if equivariance_violation(
                table, env.maps, target.maps, k, env.order.leq, target.order.leq
            ):
                return "universal map is not equivariant"
        is_groupoid = len({table.dom[e] for e in table.idempotents}) == len(table.idempotents)
        if (out.triple is not None) != (is_groupoid and all(a.domains)):
            return "groupoid verdict differs from the oracle"
        if out.triple is not None:
            return _triple_failure(a, r, out.triple, out.restricted)
        return None


def _triple_failure(a, r, triple, restricted) -> str | None:
    """The restriction of a McAlister triple built from a groupoid action
    is that action again, through the globalization's embedding."""
    if triple.ideal != frozenset(r.embed):
        return "triple ideal is not the embedded carrier"
    position = {c: i for i, c in enumerate(sorted(triple.ideal))}
    moved = [position[c] for c in r.embed]
    for g in range(len(a.domains)):
        if restricted.domains[g] != frozenset(moved[x] for x in a.domains[g]):
            return f"triple restriction changes the domain of {g}"
        for x, y in a.maps[g].items():
            if restricted.maps[g].get(moved[x]) != moved[y]:
                return f"triple restriction changes the map of {g}"
    return None


WORKLOADS = {"sweep": Sweep, "ladder": Ladder, "actions": Actions}
