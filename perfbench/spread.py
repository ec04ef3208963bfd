"""Run one or more workloads over several seeds and report, per metric, the
median, the quartiles and the spread (distance between the quartiles as a
share of the median), against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload tensor-store --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out spread.json
    python3 perfbench/spread.py --workload all --seeds 1-1 --repeat 2 --trace 1

With ``--trace 1`` every count (calls, memo hits, misses and entries) must
repeat exactly across the runs of one seed; a difference is reported and
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

COUNT_SUFFIXES = (".calls", ".hits", ".misses", ".entries", ".computed")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name or 'all'")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    status = 0
    for workload in names:
        runs = []
        counts_by_seed: dict[int, dict] = {}
        for seed in [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
            counts = {k: v["value"] for k, v in result["metrics"].items()
                      if k.endswith(COUNT_SUFFIXES)}
            if counts_by_seed.setdefault(seed, counts) != counts:
                print(f"{workload} seed {seed}: counts differ between runs", file=sys.stderr)
                status = 1
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds), file=sys.stderr)
        summary[workload] = {}
        if len(runs) < 2:
            continue
        for name in runs[0]:
            stats = summarize([r[name]["value"] for r in runs])
            stats["unit"] = runs[0][name]["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            if bound is not None:
                flag = ("steady" if stats["spread"] < bound / 3
                        else "within bound" if stats["spread"] <= bound else "WIDE")
                print(f"{workload:18s} {name:16s} median {stats['median']:12.6g} "
                      f"spread {stats['spread']:.4f} bound {bound} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    return status


if __name__ == "__main__":
    sys.exit(main())
