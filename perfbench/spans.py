"""Summarize a spans file written by a traced run.

    python3 perfbench/spans.py .perfbench-out/spans-ladder-seed0-trace1.jsonl.gz \
        [--items jpi_00:,jpi_000:]

For the items whose label starts with one of the ``--items`` prefixes
(all items by default) it prints their traced time, the sum of their
top-level spans, and every function with self time in them, most first,
each with its share of that time.
"""
from __future__ import annotations

import argparse

from tracing import Tracer


def summarize(path: str, prefixes: list[str]) -> list[str]:
    tracer = Tracer.load(path)
    chosen = {
        i for i, label in enumerate(tracer.labels)
        if not prefixes or any(label.startswith(p) for p in prefixes)
    }
    total = sum(
        t1 - t0 for _code, t0, t1, parent, item, _call in tracer.spans()
        if parent < 0 and item in chosen
    )
    lines = [f"{len(chosen)} items, {total:.3f} s traced"]
    totals = sorted(tracer.totals(chosen).items(), key=lambda kv: -kv[1][1])
    for name, (_calls, self_s) in totals:
        if self_s > 0:
            lines.append(f"{name:48s} {self_s:9.3f} s {self_s / total:7.1%}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("--items", default="", help="comma-separated label prefixes")
    args = parser.parse_args()
    prefixes = [p for p in args.items.split(",") if p]
    print("\n".join(summarize(args.path, prefixes)))


if __name__ == "__main__":
    main()
