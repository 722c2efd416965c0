#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload plan_scale --seeds 1-5 --seconds 20

Runs perfbench/run.py once per seed and prints, for every end-to-end metric,
the median and the interquartile range (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is flagged; setup_s is exempt from the
spread check but still shown.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--raw", help="append every result line to this file")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    steady = True
    for workload in args.workload:
        values = {}
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            line = lines[-1] if lines else ""
            witness = next((json.loads(l.split(" ", 1)[1]) for l in lines
                            if l.startswith("witness ")), {})
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                return 1
            result = json.loads(line)
            if args.raw:
                with open(args.raw, "a") as raw:
                    raw.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"steal {witness.get('host_steal_fraction', 0):.3f}",
                  flush=True)
        print(f"\n{workload}: {'metric':<22} {'median':>12} {'spread':>8} "
              f"{'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"{workload}: {name:<22} {med:>12.5g} {spread:>8.4f} "
                  f"{bound:>6}{flag}")
        print()
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
