"""One benchmark process, started fresh by ``run.py`` for every set-up or
measurement, so the library's caches start cold as in a user's process.

    python3 perfbench/worker.py --workdir DIR --workload NAME --seed N --phase setup
    python3 perfbench/worker.py --workdir DIR --workload NAME --seed N --phase measure \
        --seconds S [--max-items K] [--trace --spans PATH]

``setup`` imports the library and generates the first inputs, prints
the speed probe's median duration over that time and exits. ``measure``
then runs whole batches until the timed work reaches ``--seconds`` (or
``--max-items`` items have run) and prints one JSON line with the item
times (raw and rescaled by ``speed``), the oracle failures and the peak
resident memory. With ``--trace`` it also records spans, writes them to
``--spans`` and adds the per-layer totals.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def measure(workload, seconds: float, max_items: int, tracer) -> dict:
    """Run whole batches until ``seconds`` of timed work (or ``max_items``
    items); item times are rescaled by the speed probe."""
    walls: list[float] = []
    times: list[float] = []
    failures: list[str] = []
    measured = scaled = 0.0
    batches = 0
    done = False
    with SpeedProbe() as probe:
        for batch in workload.batches():
            if batch.prologue is not None:
                if tracer is not None:
                    tracer.item, tracer.on = -1, True
                mark, t0 = probe.mark(), perf_counter()
                batch.prologue()
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
                measured += wall
                scaled += probe.scaled(wall, mark, probe.mark())
                failure = batch.check_prologue() if batch.check_prologue else None
                if failure:
                    failures.append(failure)
            outputs = []
            batch_start = len(times)
            for item in batch.items:
                if tracer is not None:
                    tracer.labels.append(workload.label(item))
                    tracer.item, tracer.on = len(times), True
                error = None
                mark, t0 = probe.mark(), perf_counter()
                try:
                    output = workload.run(item)
                except Exception as exc:  # a failed item, counted and reported
                    output, error = None, f"{type(exc).__name__}: {exc}"
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
                walls.append(wall)
                times.append(probe.scaled(wall, mark, probe.mark()))
                outputs.append((item, output, error))
                if max_items and len(times) >= max_items:
                    done = True
                    break
            measured += sum(walls[batch_start:])
            scaled += sum(times[batch_start:])
            batches += 1
            for item, output, error in outputs:
                if error is None:
                    try:
                        error = workload.check(item, output)
                    except Exception as exc:  # an output the oracle cannot read
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error:
                    failures.append(error)
            if done or (not max_items and measured >= seconds):
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deciles = statistics.quantiles(times, n=10)
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "batches": batches,
        "measured_s": measured,
        "scaled_s": scaled,
        "items_per_s": len(times) / scaled,
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "beyond_p90": sum(t > deciles[8] for t in times),
        "wall_items_per_s": len(walls) / measured,
        "wall_item_p50_ms": statistics.median(walls) * 1e3,
        "wall_item_p90_ms": statistics.quantiles(walls, n=10)[8] * 1e3,
        "probe_median_us": probe.median_s() * 1e6,
        "peak_rss_mb": peak_kb / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-items", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = None
    try:
        # the probe also covers the imports, the bulk of a short set-up
        with SpeedProbe() as setup_probe:
            sys.path.insert(0, SRC)
            import semigroupoids

            if not os.path.abspath(semigroupoids.__file__).startswith(SRC + os.sep):
                print(f"semigroupoids imported from outside {SRC}", file=sys.stderr)
                return 2
            import workloads
            from tracing import Tracer

            tracer = None
            if args.trace:
                tracer = Tracer()
                tracer.install()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
            workload.setup()
        if args.phase == "setup":
            print(json.dumps({"probe_median_s": setup_probe.median_s()}))
            return 0
        result = measure(workload, args.seconds, args.max_items, tracer)
    finally:
        if workload is not None:
            workload.close()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["attempted"])
        result["spans"] = len(tracer.columns[0])
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
