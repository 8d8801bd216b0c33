"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,ladder,actions} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. Every set-up and measurement runs in a fresh interpreter
(``worker.py``). With ``--trace 0`` the run times set-up several times,
measures the workload once with tracing off and prints the end-to-end
metrics. With ``--trace 1`` it measures once with spans recorded and
once untraced over the same items, and prints the per-layer metrics and
the tracing overhead. Times are wall times rescaled by the machine-speed
probe in ``speed.py``; the raw ones stay in the result file. The last
line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the run's context (source hash, Python version, CPU count).
Full results and spans go to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

from speed import NOMINAL_PROBE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "ladder", "actions")
SETUP_RUNS = 5
# every run, set-up and measurements included, ends within this budget
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> tuple[str, float]:
    """Run one worker to completion; its standard output and wall time."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the run finished")
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workdir", OUT, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {args}") from exc
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return proc.stdout, wall


def _measure(args: list[str], deadline: float) -> dict:
    stdout, _wall = _child(["--phase", "measure", *args], deadline)
    return json.loads(stdout.strip().splitlines()[-1])


def _context() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "semigroupoids")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = monotonic() + BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if not trace:
        setups = []
        for _ in range(SETUP_RUNS):
            stdout, wall = _child(["--phase", "setup", *common], deadline)
            probe_median = json.loads(stdout.strip().splitlines()[-1])["probe_median_s"]
            setups.append((wall, wall * NOMINAL_PROBE_S / probe_median))
        result = _measure(common, deadline)
        result["setup_runs_wall_s"] = [wall for wall, _ in setups]
        result["setup_s"] = statistics.median(scaled for _, scaled in setups)
        metrics = {name: result[name] for name in END_TO_END}
        units = END_TO_END
    else:
        spans = os.path.join(OUT, f"spans-{tag}.jsonl.gz")
        result = _measure([*common, "--trace", "--spans", spans], deadline)
        plain = _measure([*common, "--max-items", str(result["attempted"])], deadline)
        if plain["attempted"] != result["attempted"]:
            raise BenchError("untraced run covered different items")
        layers = result.pop("layers")
        layers["trace.overhead_ratio"] = (result["scaled_s"] / plain["scaled_s"], "ratio")
        result["untraced_scaled_s"] = plain["scaled_s"]
        metrics = {name: value for name, (value, _unit) in layers.items()}
        units = {name: unit for name, (_value, unit) in layers.items()}
    result.update(_context(), workload=workload, seed=seed, seconds=seconds)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for failure in result["failures"]:
        print(f"failed item: {failure}", file=sys.stderr)
    print(json.dumps({"context": {k: result[k] for k in (
        "commit", "source_sha256", "python", "nproc", "batches", "attempted")}}))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="semigroupoids benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semigroupoids", "__init__.py")):
        print(f"no library source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
