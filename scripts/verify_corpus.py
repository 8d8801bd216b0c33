#!/usr/bin/env python3
"""Run the full cross-check battery over the fixture corpus, the
exhaustively enumerated small structures, the action corpus and the
groupoid action corpus with the McAlister triple of each of its actions,
printing each failed check.

Usage: python3 scripts/verify_corpus.py [--max-arrows N]
"""
import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from semigroupoids import corpus
from semigroupoids.cli import cross_checks
from semigroupoids.posets import semilatticeoid_from_poset
from semigroupoids.ptheorem import mcalister_from_action


def failed_rows(name: str, obj) -> int:
    """Run the battery on one object, print each failed row, count them."""
    failures = 0
    for check, ok, msg in cross_checks(obj):
        if not ok:
            failures += 1
            print(f"FAIL {name}/{check}: {msg}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--max-arrows",
        type=int,
        choices=range(corpus.HARD_CAP + 1),
        default=4,
        metavar="N",
        help=f"enumerate structures with at most N arrows, 0 <= N <= {corpus.HARD_CAP}",
    )
    args = parser.parse_args()

    failures = 0
    t0 = time.time()

    for name, s in corpus.structure_corpus():
        failures += failed_rows(name, s.base)
        print(f"ok   {name} ({s.n_arrows} arrows)")

    structs = list(corpus.enumerate_inverse_semigroupoids(args.max_arrows))
    print(f"enumerated {len(structs)} structures with <= {args.max_arrows} arrows")
    for i, s in enumerate(structs):
        failures += failed_rows(f"enumerated[{i}]", s.base)

    for name, a in corpus.action_corpus():
        failures += failed_rows(name, a)
    print(f"checked action corpus ({len(corpus.action_corpus())} actions)")

    groupoid_actions = corpus.groupoid_action_corpus()
    for name, a in groupoid_actions:
        failures += failed_rows(name, a)
        triple = mcalister_from_action(a, semilatticeoid_from_poset(a.order))
        failures += failed_rows(f"triple[{name}]", triple)
    print(
        f"checked groupoid action corpus ({len(groupoid_actions)} actions"
        f" and their McAlister triples)"
    )

    print(f"done in {time.time() - t0:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
