#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py <workload> <first_seed> <runs> [--trace 1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json and a verdict
(a spread must stay below a third of its bound). The raw result lines are
kept in .perfbench/spread-<workload>.jsonl.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    args = sys.argv[1:]
    if len(args) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, first, runs = args[0], int(args[1]), int(args[2])
    trace = args[4] if len(args) > 4 and args[3] == "--trace" else "0"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    log = ROOT / ".perfbench" / f"spread-{workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    with log.open("a", encoding="utf-8") as out:
        for seed in range(first, first + runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", trace],
                cwd=ROOT, capture_output=True, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(last)
            out.write(json.dumps({"seed": seed, **result}) + "\n")
            results.append(result)
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    print(f"{'metric':<36} {'median':>14} {'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:<36} {med:>14.6g} {spread:>8.4f} {bound or '':>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
