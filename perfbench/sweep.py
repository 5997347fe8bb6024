#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/_work/sweep.json
    python3 perfbench/sweep.py --seeds 0-9 --compare perfbench/baseline.json

For every workload and end-to-end metric this prints the median of the
runs, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json, and
with --compare how far the median moved from an earlier sweep's, in the
metric's worse direction, and which quality guards differ from the
earlier sweep's run of the same seed. Runs are made one after another, each in its
own process, exactly as the command in BENCHMARK.json makes them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARD_UNITS = ("F1", "ratio")  # metrics that must repeat exactly for a seed


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(spec, workload, seed, trace) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT\n{proc.stdout}", file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma-separated; all by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the runs and summaries here")
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier, earlier_seeds = {}, []
    if args.compare:
        previous = json.loads(Path(args.compare).read_text())
        earlier, earlier_seeds = previous["workloads"], previous["seeds"]
    report = {"seeds": seed_list(args.seeds), "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in report["seeds"]:
            runs.append(run(spec, workload, seed, args.trace))
            print(f"  {workload} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr)
        summary = {}
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} runs correct")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summary[metric["name"]] = summarize(values) if len(values) > 1 else {"median": values[0]}
            line = f"  {metric['name']:44s} median {s['median']:12.6g} {metric['unit']:6s}"
            if "spread" in s:
                line += f" Q1 {s['q1']:10.6g} Q3 {s['q3']:10.6g} spread {s['spread']:7.4f}"
            if "bound" in metric:
                line += f" bound {metric['bound']}"
            old = earlier.get(workload, {}).get("summary", {}).get(metric["name"])
            if old and old["median"]:
                sign = 1 if metric["better"] == "lower" else -1
                line += f" worse-by {sign * (s['median'] - old['median']) / old['median']:+.4f}"
            print(line)
        if workload in earlier:
            before = dict(zip(earlier_seeds, earlier[workload]["runs"]))
            changed = sorted(
                (seed, name)
                for seed, r in zip(report["seeds"], runs)
                if seed in before
                for name, m in r["metrics"].items()
                if m["unit"] in GUARD_UNITS and m != before[seed]["metrics"][name]
            )
            print(f"  quality guards that differ from the earlier sweep's run of a seed: {changed}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
