#!/usr/bin/env python3
"""Check that this checkout's `scdl` writes the same bytes as a parent revision's:

    python3 tools/same_bytes.py --parent REV

Exports REV's `src/` with `git archive` (no network needed) and writes the
benchmark's inputs once, from `perfbench/inputs.py` and `workloads.py`. Then,
for each tree, seed (0 and 7) and schedule (forked, and under `taskset -c 0`,
where network 2 trains after network 1 in one process, and a corpus's second
part is read after its first), it runs `scdl train` (update_cycle 250 and 25,
25 with student_word_dropout=0.25, where the students move off their
teachers, and 25 with net2_window=2, where the networks' window tables
differ), `pretrain`, `ablate`, `sweep` (k=40 on the test split), `annotate`,
`inject`, and `eval` of every `best.ckpt` on the test split and of
`train250`'s on the held-out corpus, which `annotate` reads too and which
both read in two parts. Each runs in a fresh process with BLAS pinned to
one thread. It compares exit codes, stdout, stderr and the sha256 of every
output file, names every difference of the first seed and schedule that has
any, with the largest absolute element difference of each block of a
differing checkpoint, and exits 1. Compare trees on one host only: OpenBLAS
picks its kernels per CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
SCHEDULES = {"forked": [], "one-cpu": ["taskset", "-c", "0"]}
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def export(rev: str, dest: Path) -> Path:
    """REV's `src/` under `dest`, from `git archive`."""
    dest.mkdir(parents=True)
    tar = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev, "src"], check=True)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    return dest / "src"


def write_inputs(directory: Path, seed: int) -> None:
    """The train-desk and train-rewrite inputs of `seed`, train-rewrite's config
    with student_word_dropout=0.25 and with net2_window=2, and tag-corpus's
    gazetteer and held-out corpus."""
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import workloads

    ops = workloads.Ops()
    workloads.Training(250).setup(directory, seed, workloads.Sizes(), ops)
    (directory / "config250.txt").write_text((directory / "config.txt").read_text())
    workloads.Training(25).setup(directory, seed, workloads.Sizes(), ops)
    config25 = (directory / "config.txt").read_text()
    (directory / "config25.txt").write_text(config25)
    (directory / "config25d.txt").write_text(config25 + "student_word_dropout=0.25\n")
    (directory / "config25w.txt").write_text(config25 + "net2_window=2\n")
    if ops.failures:
        raise SystemExit(f"error: benchmark inputs: {ops.failures}")
    tagged = inputs.synthetic_corpus(workloads.Sizes().tagged, inputs.TAGGED_SEED + seed)
    (directory / "tagged.conll").write_text(inputs.conll(tagged), encoding="utf-8")
    (directory / "gazetteer.tsv").write_text(
        inputs.gazetteer_text(inputs.gazetteer(seed)), encoding="utf-8"
    )


def commands(inp: str, seed: int) -> list[list[str]]:
    """The CLI calls of one run but `eval`, with paths relative to the run directory."""
    data = ["--train", f"{inp}/train.conll", "--dev", f"{inp}/dev.conll"]
    return [
        ["train", "--config", f"{inp}/config250.txt", *data, "--out-dir", "out/train250"],
        ["train", "--config", f"{inp}/config25.txt", *data, "--out-dir", "out/train25"],
        ["train", "--config", f"{inp}/config25d.txt", *data, "--out-dir", "out/train25d"],
        ["train", "--config", f"{inp}/config25w.txt", *data, "--out-dir", "out/train25w"],
        ["pretrain", "--config", f"{inp}/config250.txt", *data, "--out-dir", "out/pretrain"],
        ["ablate", "--config", f"{inp}/config250.txt", *data, "--out-dir", "out/ablate"],
        ["sweep", "--config", f"{inp}/config250.txt", "--corpus", f"{inp}/test.conll", "--ks", "40",
         "--seeds", str(seed), "--out", "out/sweep.csv"],
        ["annotate", "--corpus", f"{inp}/tagged.conll", "--gazetteer", f"{inp}/gazetteer.tsv",
         "--coverage", "0.8", "--rule", "random", "--seed", str(seed), "--out", "out/distant.conll"],
        ["inject", "--corpus", f"{inp}/test.conll", "--k", "40", "--seed", str(seed),
         "--out", "out/injected.conll"],
    ]


def run_tree(src: Path, run_dir: Path, seed: int, prefix: list[str]) -> tuple[list, dict]:
    """Each command, then `eval` of each `best.ckpt` on the test split and of
    `train250`'s on `tagged.conll`, in a fresh process; (command, exit code,
    stdout, stderr) of each, and the sha256 of every file written, by path."""
    run_dir.mkdir(parents=True)
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(src)}
    inp = f"../inputs/seed{seed}"
    results = []

    def scdl(argv):
        done = subprocess.run(
            [*prefix, sys.executable, "-m", "scdl.cli", *argv], cwd=run_dir, env=env, capture_output=True
        )
        results.append((" ".join(argv), done.returncode, done.stdout, done.stderr))

    for argv in commands(inp, seed):
        scdl(argv)
    for ckpt in sorted(run_dir.glob("out/**/best.ckpt")):
        scdl(["eval", "--checkpoint", ckpt.relative_to(run_dir).as_posix(), "--corpus", f"{inp}/test.conll"])
    scdl(["eval", "--checkpoint", "out/train250/best.ckpt", "--corpus", f"{inp}/tagged.conll"])
    files = {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }
    return results, files


def block_differences(a: Path, b: Path) -> str:
    """The largest absolute element difference of each block of two checkpoints."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scdl.tagger import TaggerParams, load_checkpoint

    try:
        pa, pb = load_checkpoint(a), load_checkpoint(b)
    except ValueError as exc:
        return f"unreadable: {exc}"
    if pa.config != pb.config:
        return "model configurations differ"
    return ", ".join(
        f"{name} {np.max(np.abs(x - y), initial=0.0):.3g}"
        for name, x, y in zip(TaggerParams.BLOCK_NAMES, pa.blocks(), pb.blocks())
    )


def differences(parent, change, parent_dir: Path, change_dir: Path) -> list[str]:
    """Every command output and file that differs between two trees' runs."""
    (p_results, p_files), (c_results, c_files) = parent, change
    found = []
    for (what, *p), (_, *c) in zip(p_results, c_results):
        for field, a, b in zip(("exit code", "stdout", "stderr"), p, c):
            if a != b:
                found.append(f"scdl {what}: {field} differs: {a!r} vs {b!r}")
    for path in sorted(set(p_files) | set(c_files)):
        if p_files.get(path) != c_files.get(path):
            if path not in c_files or path not in p_files:
                found.append(f"{path}: written by only one tree")
            elif path.endswith(".ckpt"):
                found.append(f"{path}: sha256 differs; largest |difference| per block: "
                             + block_differences(parent_dir / path, change_dir / path))
            else:
                found.append(f"{path}: sha256 differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    if shutil.which("taskset") is None:
        print("error: taskset not found; the one-CPU schedule needs it", file=sys.stderr)
        return 2
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        work = Path(tmp)
        trees = {"parent": export(args.parent, work / "parent-tree"), "change": ROOT / "src"}
        for seed in SEEDS:
            write_inputs(work / "inputs" / f"seed{seed}", seed)
        for seed in SEEDS:
            for schedule, prefix in SCHEDULES.items():
                dirs = [work / f"{name}-seed{seed}-{schedule}" for name in trees]
                outputs = [run_tree(src, d, seed, prefix) for src, d in zip(trees.values(), dirs)]
                found = differences(*outputs, *dirs)
                label = f"seed {seed}, {schedule}"
                if found:
                    print(f"DIFFERENT ({label}): {len(found)} outputs differ")
                    print("\n".join(found))
                    return 1
                print(f"same ({label}): {len(outputs[0][1])} files, {len(outputs[0][0])} commands")
    print(f"every output is byte-identical to {args.parent}'s ({perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
