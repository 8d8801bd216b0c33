#!/usr/bin/env python3
"""Run the full cross-check battery over the fixture corpus and the
exhaustively enumerated small structures, printing one row per check.

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


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-arrows", type=int, default=4)
    args = parser.parse_args()

    failures = 0
    t0 = time.time()

    for name, s in corpus.structure_corpus():
        for check, ok, msg in cross_checks(s.base):
            if not ok:
                failures += 1
                print(f"FAIL {name}/{check}: {msg}")
        print(f"ok   {name} ({s.n_arrows} arrows)")

    structs = list(corpus.enumerate_inverse_semigroupoids(args.max_arrows))
    print(f"enumerated {len(structs)} structures with <= {args.max_arrows} arrows")
    for i, s in enumerate(structs):
        rows = cross_checks(s.base)
        for check, ok, msg in rows:
            if not ok:
                failures += 1
                print(f"FAIL enumerated[{i}]/{check}: {msg}")

    for name, a in corpus.action_corpus():
        for check, ok, msg in cross_checks(a):
            if not ok:
                failures += 1
                print(f"FAIL {name}/{check}: {msg}")
    print(f"checked action corpus ({len(corpus.action_corpus())} actions)")

    print(f"done in {time.time() - t0:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
