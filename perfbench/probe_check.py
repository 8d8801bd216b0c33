"""Check that rescaling by the speed probe keeps a real slowdown.

    python3 perfbench/probe_check.py --kind {cpu,memory}

Runs the first items of the ``actions`` workload (seed 0) twice each
under one speed probe: once as they are, and once with a fixed slice of
extra work added inside the timed section. Between the two it times the
extra work alone, and the order alternates from item to item, so all
three see the same machine speed. ``cpu`` adds an interpreter loop of
about 1 ms; ``memory`` copies an 8 MiB buffer, larger than a core's L2
cache, so it also evicts the probe's code and data, as a memory-heavy
cache in the library would.

It prints, raw and rescaled, the growth of the items' time over the
extra work's own time (1.0 when the slowdown is kept whole), and the
probe's median duration during plain and during slowed items (equal
when the probe does not absorb the slowdown).
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
ITEMS = 2000
BUFFER_BYTES = 8 << 20


def _extra_work(kind: str):
    if kind == "cpu":
        table = list(range(1024))

        def work():
            n = 0
            for i in range(20_000):
                n += table[i & 1023]
            return n
    else:
        src, dst = bytearray(BUFFER_BYTES), bytearray(BUFFER_BYTES)

        def work():
            dst[:] = src
    return work


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("cpu", "memory"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS["actions"](0, OUT)
    workload.setup()
    items = []
    for batch in workload.batches():
        items += batch.items
        if len(items) >= ITEMS:
            break
    work = _extra_work(args.kind)

    def plain(item):
        workload.run(item)

    def slowed(item):
        workload.run(item)
        work()

    # seconds raw and rescaled, and probe durations, by what was timed
    raw = {"plain": 0.0, "slowed": 0.0, "alone": 0.0}
    scaled = dict(raw)
    probes = {"plain": [], "slowed": []}
    with SpeedProbe() as probe:
        for i, item in enumerate(items[:ITEMS]):
            steps = [("plain", plain), ("alone", lambda _item: work()), ("slowed", slowed)]
            for name, step in steps if i % 2 else reversed(steps):
                mark, t0 = probe.mark(), perf_counter()
                step(item)
                wall = perf_counter() - t0
                raw[name] += wall
                scaled[name] += probe.scaled(wall, mark, probe.mark())
                if name in probes:
                    probes[name] += probe.durations[mark:probe.mark()]
    workload.close()
    for label, times in (("raw", raw), ("rescaled", scaled)):
        growth = (times["slowed"] - times["plain"]) / times["alone"]
        print(f"{label:8s} growth / extra work {growth:.3f}  "
              f"(extra work {times['alone'] / ITEMS * 1e3:.3f} ms per item, "
              f"items {times['plain'] / ITEMS * 1e3:.3f} ms)")
    print(f"probe median: plain items {statistics.median(probes['plain']) * 1e6:.2f} us, "
          f"slowed items {statistics.median(probes['slowed']) * 1e6:.2f} us")


if __name__ == "__main__":
    main()
