#!/usr/bin/env python3
"""How many embedding rows the teacher EMA has marked as moving, and what a step of it costs:

    python3 tools/ema_rows.py [--src DIR] [--repeats N]

Runs `scdl.training.train` in this process (BLAS pinned to one thread)
with the default sizes for each case in CASES, and prints one JSON line per
case with: the median and 90th percentile of the share of the hash buckets
marked moving when network 1's `ema_update` call begins, the median time
of such a call, and the median wall time of `train`. The inputs:

- `fixture`: the benchmark's training corpus (`perfbench/inputs.py`, read
  only), noised with the case's seed as train-desk (update_cycle 250) and
  train-rewrite (25) do: 60 filler and 120 entity words, which fill about
  4% of the 4096 buckets;
- `zipf`: sentences of the same shape drawn from 50,000 filler words, by a
  Zipf law, and 12,000 entity words, which fill most buckets.

With dropout 0 the student takes zero gradients (its soft targets are its
own output), so the rows its steps touch settle at once; with dropout they
keep moving for thousands of steps. `--src` picks the `scdl` tree, so a
parent's `git archive` export can be timed the same way. The mask is read
from the pair (`pair.moving`); a pair without one reports no share, and the
tool then exits 1 after printing every row.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SENTENCES, DEV_SENTENCES, NOISE_K = 2000, 400, 40
CASES = [  # (input, student_word_dropout, update_cycle, seed)
    ("fixture", 0.0, 250, 0),
    ("fixture", 0.0, 250, 7),
    ("fixture", 0.0, 25, 0),
    ("fixture", 0.0, 25, 7),
    ("fixture", 0.25, 250, 0),
    ("zipf", 0.0, 250, 0),
    ("zipf", 0.25, 250, 0),
]


def zipf_corpus(inputs, n: int, seed: int, fillers: int = 50_000, per_type: int = 3_000):
    """`inputs.synthetic_corpus`'s sentence shape over a large vocabulary."""
    rng = np.random.default_rng(seed)
    corpus = []

    def filler(tokens, tags):
        for _ in range(int(rng.integers(1, 4))):
            tokens.append(f"w{int(rng.zipf(1.2)) % fillers}")
            tags.append("O")

    for _ in range(n):
        tokens, tags = [], []
        for _ in range(int(rng.integers(1, 4))):
            filler(tokens, tags)
            kind = inputs.ENTITY_TYPES[int(rng.integers(len(inputs.ENTITY_TYPES)))]
            for j in range(1 + int(rng.random() < 0.4)):
                tokens.append(f"{kind.lower()}{int(rng.integers(per_type))}")
                tags.append(("B-" if j == 0 else "I-") + kind)
        filler(tokens, tags)
        corpus.append((tokens, tags))
    return corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the scdl package")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import inputs
    from scdl import cli, tagger, training

    calls = []
    original = training.ema_update

    def recorded(pair):
        moving = pair.moving
        share = None if moving is None else np.count_nonzero(moving) / len(moving)
        start = perf_counter()
        result = original(pair)
        calls.append((share, perf_counter() - start))  # a forked network 2 appends to its own copy
        return result

    training.ema_update = recorded
    unread = False  # some case found no mask to read
    made = {
        "fixture": lambda n, seed: inputs.synthetic_corpus(n, seed),
        "zipf": lambda n, seed: zipf_corpus(inputs, n, seed),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, dropout, update_cycle, seed in CASES:
            train_path, dev_path = Path(tmp, "train.conll"), Path(tmp, "dev.conll")
            noisy = inputs.inject_noise(made[name](SENTENCES, inputs.TRAIN_SEED), NOISE_K, seed)
            train_path.write_text(inputs.conll(noisy), encoding="utf-8")
            dev_path.write_text(inputs.conll(made[name](DEV_SENTENCES, inputs.DEV_SEED)), encoding="utf-8")
            (train_c, dev_c), vocab = cli._load_corpora(train_path, dev_path)
            config = training.ScdlConfig(update_cycle=update_cycle, seed=seed, student_word_dropout=dropout)
            walls = []
            del calls[:]
            for _ in range(args.repeats):
                start = perf_counter()
                training.train(config, train_c, dev_c, vocab)
                walls.append(perf_counter() - start)
            shares = [share for share, _ in calls if share is not None]
            row = {
                "input": name,
                "dropout": dropout,
                "update_cycle": update_cycle,
                "seed": seed,
                "buckets_used": len(np.unique(tagger.encode(train_c, config.hash_buckets).ids)),
                "marked_share_median": round(statistics.median(shares), 4) if shares else None,
                "marked_share_p90": round(float(np.quantile(shares, 0.9)), 4) if shares else None,
                "ema_us_median": round(statistics.median(t for _, t in calls) * 1e6, 1),
                "train_s_median": round(statistics.median(walls), 3),
            }
            print(json.dumps(row), flush=True)
            unread |= row["marked_share_median"] is None
    return int(unread)


if __name__ == "__main__":
    sys.exit(main())
