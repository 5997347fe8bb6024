#!/usr/bin/env python3
"""Benchmark of the scdl command line, run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 10 --trace 0

Sets up the workload's inputs from the seed, times in-process calls of
`scdl.cli.main` for at least --seconds (and at least two repeats, which
must write identical outputs), checks the outputs, and prints as its
last line one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from repeats that alternate untraced and traced.
See README.md in this directory.
"""

import os

# One BLAS thread, pinned before NumPy loads: the tagger's matrices are
# small, and the figures must not depend on how many cores are free.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS, SETUP_SECONDS = 3, 5.0  # at least this many set-ups, for at least this long
MIN_REPEATS = 2  # the checks compare repeats of one seed


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(name: str, seed: int, seconds: float, traced: bool, work: Path, sizes=None) -> dict:
    """Set up, run and check one workload; return the result record."""
    import scdl.cli  # noqa: F401  (imported before timing, so every repeat pays the same)
    import workloads
    from tracing import Tracer, metric_units

    workload = workloads.WORKLOADS[name]
    sizes = sizes or workloads.Sizes()
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.Ops()
    setup_s, ref = [], {}
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        start = perf_counter()
        prep = workload.setup(work / "inputs", seed, sizes, ops)
        setup_s.append(perf_counter() - start)
        workloads.same_on_repeat(ops, ref, "setup", (prep.checksums, prep.model_quality), "set-up")

    tracer = Tracer() if traced else None
    walls = {False: [], True: []}
    quality = None
    start = perf_counter()
    repeat = 0
    while repeat < MIN_REPEATS or perf_counter() - start < seconds:
        trace_this = traced and repeat % 2 == 1
        out = work / f"repeat{repeat}"
        wall, got = workload.iterate(prep, out, seed, ops, tracer if trace_this else None, ref)
        walls[trace_this].append(wall)
        quality = quality or got
        shutil.rmtree(out, ignore_errors=True)
        repeat += 1

    shutil.rmtree(work / "inputs")
    wall = statistics.median(walls[False])
    if traced:
        values = tracer.metrics(len(walls[True]))
        overhead = statistics.median(walls[True]) - wall
        values.update({"trace.overhead_s": overhead, "trace.overhead_pct": 100 * overhead / wall})
        units = metric_units()
        tracer.write(work / "spans.csv")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "tok_per_s": prep.tokens / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - len(ops.failures) / ops.attempted,
        }
        values.update(quality or dict.fromkeys(workloads.QUALITY, 0.0))
        units = {"setup_s": "s", "wall_s": "s", "tok_per_s": "tok/s", "peak_rss_mb": "MB",
                 "success_rate": "share", **dict.fromkeys(workloads.QUALITY, "F1")}
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(),
        "inputs_sha256": prep.checksums,
        "setup_s": setup_s,
        "wall_s": {"untraced": walls[False], "traced": walls[True]},
        "failures": ops.failures,
        "result": {
            "correct": not ops.failures,
            "attempted": ops.attempted,
            "failed": len(ops.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "train-rewrite", "tag-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "scdl" / "cli.py").is_file():
        print(f"error: no scdl sources at {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "environment", "inputs_sha256")}))
    for message in record["failures"]:
        print(f"FAILED: {message}")
    for metric, value in record["result"]["metrics"].items():
        print(f"{metric:48s} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
