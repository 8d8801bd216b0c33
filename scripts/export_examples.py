#!/usr/bin/env python3
"""Write the fixture structures, a Munn action, a globalization, and a
McAlister triple as JSON and DOT files into a directory.

Usage: python3 scripts/export_examples.py [outdir]
"""
import os
import pathlib
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from semigroupoids import corpus, dot, io
from semigroupoids.globalization import globalize
from semigroupoids.ptheorem import (
    idempotent_semilatticeoid,
    mcalister_from_action,
    munn_action,
)


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "examples_out")
    outdir.mkdir(parents=True, exist_ok=True)

    for name, s in corpus.structure_corpus():
        io.save_structure(s.base, str(outdir / f"{name}.json"))
        (outdir / f"{name}.dot").write_text(dot.inverse_semigroupoid_to_dot(s))

    b2 = corpus.brandt_b2()
    theta = munn_action(b2)
    io.save_structure(theta, str(outdir / "munn_b2.json"))
    result = globalize(theta)
    (outdir / "globalization_b2.dot").write_text(dot.globalization_to_dot(result))

    pg = corpus.pair_groupoid(2)
    triple = mcalister_from_action(munn_action(pg), idempotent_semilatticeoid(pg))
    io.save_structure(triple, str(outdir / "triple_pair2.json"))

    print(f"wrote {len(list(outdir.iterdir()))} files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
