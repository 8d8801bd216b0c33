"""Self-tests for the benchmark's oracles, span accounting and speed probe.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from semigroupoids import corpus  # noqa: E402
from semigroupoids.actions import validate_partial_action_E  # noqa: E402
from semigroupoids.congruences import is_e_unitary, sigma  # noqa: E402

from oracles import Table, action_violation  # noqa: E402
from spans import summarize  # noqa: E402
from speed import NOMINAL_PROBE_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SWEEP_E_UNITARY, SWEEP_STRUCTURES  # noqa: E402


def test_oracles_reproduce_the_five_arrow_counts():
    found = list(corpus.enumerate_inverse_semigroupoids(5))
    assert len(found) == SWEEP_STRUCTURES == 7642
    assert len({(s.base.dom, s.base.cod, s.base.mul) for s in found}) == 7642
    e_unitary = sum(Table.of(s.base).is_e_unitary() for s in found)
    assert e_unitary == SWEEP_E_UNITARY == 4424


def test_oracle_finds_the_b2_witness():
    b2 = corpus.brandt_b2()
    e, s = Table.of(b2.base).e_unitary_witness()
    assert (b2.base.arrow_names[e], b2.base.arrow_names[s]) == ("0", "a")


def test_oracles_agree_with_the_library_on_fixtures():
    for name, s in corpus.structure_corpus():
        table = Table.of(s.base)
        cert = is_e_unitary(s)
        assert cert.verdict == table.is_e_unitary(), name
        assert cert.witness == table.e_unitary_witness(), name
        assert sigma(s).rep == table.sigma_reps(), name
        assert table.inv == s.inv, name
        assert table.idempotents == s.idempotents, name


def test_action_oracle_agrees_with_the_validators():
    candidates = corpus.action_candidates(seed=0)
    valid = 0
    for a in candidates:
        table = Table.of(a.actor.base)
        verdict = action_violation(table, a.domains, a.maps, a.order.leq, a.global_flag)
        assert (verdict is None) == (validate_partial_action_E(a) is None)
        valid += verdict is None
    assert (len(candidates), valid) == (3661, 1020)


def _tracer(rows) -> Tracer:
    tracer = Tracer()
    tracer.names = ["m.outer", "m.inner"]
    tracer.labels = ["a:x", "b:y"]
    for row in rows:
        for column, value in zip(tracer.columns, row):
            column.append(value)
    return tracer


def test_self_time_subtracts_direct_children():
    tracer = _tracer([
        (0, 0.0, 10.0, -1, 0, True),
        (1, 1.0, 4.0, 0, 0, True),
        (1, 5.0, 6.0, 0, 0, True),
        (0, 7.0, 8.0, 0, 0, True),
    ])
    totals = tracer.totals()
    assert totals["m.outer"] == (2, 10.0 - 3.0 - 1.0 - 1.0 + 1.0)
    assert totals["m.inner"] == (2, 4.0)


def test_spans_summary_reads_back_the_dump(tmp_path):
    tracer = _tracer([
        (0, 0.0, 4.0, -1, 0, True),
        (1, 1.0, 2.0, 0, 0, True),
        (1, 5.0, 8.0, -1, 1, True),
        (0, 9.0, 9.5, -1, -1, True),
    ])
    path = str(tmp_path / "spans.jsonl.gz")
    tracer.dump(path)
    assert Tracer.load(path).totals() == tracer.totals()
    assert summarize(path, ["a:"]) == [
        "1 items, 4.000 s traced",
        f"{'m.outer':48s} {3.0:9.3f} s {0.75:7.1%}",
        f"{'m.inner':48s} {1.0:9.3f} s {0.25:7.1%}",
    ]


def test_probe_rescales_to_the_nominal_speed():
    probe = SpeedProbe()
    probe.durations = [2 * NOMINAL_PROBE_S] * 70
    probe.spent = [4 * NOMINAL_PROBE_S] * 70
    # at half speed, 1 s of wall time of which one sample took 120 us
    assert abs(probe.scaled(1.0, 69, 70) - (1.0 - 4 * NOMINAL_PROBE_S) / 2) < 1e-12


def test_one_stretched_probe_does_not_move_the_scale():
    probe = SpeedProbe()
    probe.durations = [NOMINAL_PROBE_S * (1 + i % 3 / 100) for i in range(70)]
    probe.spent = [2 * d for d in probe.durations]
    before = [probe.scaled(0.01, i, i + 1) for i in range(60, 70)]
    # a probe descheduled for 5 ms inside the window of the items above
    probe.durations[40] = 5e-3
    probe.spent[40] = 5e-3 + NOMINAL_PROBE_S
    assert [probe.scaled(0.01, i, i + 1) for i in range(60, 70)] == before
    # the item that contained it loses only that probe's time
    contained = probe.scaled(0.01, 40, 41)
    expected = (0.01 - 5e-3 - NOMINAL_PROBE_S) * NOMINAL_PROBE_S / probe.median_s()
    assert abs(contained - expected) < 0.05 * expected
