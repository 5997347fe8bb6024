"""The workloads: how each sets up its inputs, which CLI calls it times, and
how it checks what they wrote.

train-desk    `scdl train` on the acceptance fixture, update_cycle=250:
              per-step work (forward, backward, SGD, teacher EMA) dominates.
train-rewrite the same with update_cycle=25: the teachers' rewrites of the
              whole corpus cost as much as all denoising steps.
tag-corpus    `scdl annotate` then `scdl eval` on a large held-out corpus:
              every sentence is seen once, with no SGD, EMA or rewrite.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs

NOISE_K = 40
PRETRAIN_EPOCHS, MAX_EPOCHS = 6, 7  # the ScdlConfig defaults, written out
MODELS = ("teacher1", "student1", "teacher2", "student2")
TRAIN_ARTIFACTS = ("config.txt", "metrics.jsonl", "curve.csv", "refinery.csv", "best.ckpt", "best.json")
QUALITY = ("best_f1", "refinery_f1_i", "refinery_f1_ii", "eval_f1", "distant_f1")
COVERAGE = 0.8


@dataclass(frozen=True)
class Sizes:
    train: int = 2000  # the acceptance fixture
    dev: int = 400
    test: int = 1000
    tagged: int = 30000
    checkpoint_train: int = 800


class Ops:
    """Operations attempted (CLI calls and output checks) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def cli(self, argv) -> tuple[bool, str]:
        """Run `scdl.cli.main(argv)` in this process; return (exit 0, stdout)."""
        from scdl import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        ok = self.check(code == 0, f"scdl {argv[0]} exited with {code}: {err.getvalue()[-500:]}")
        return ok, out.getvalue()

    def timed(self, commands, tracer=None):
        """Run the CLI calls back to back; return their wall time and outputs."""
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = perf_counter()
            results = [self.cli(argv) for argv in commands]
            wall = perf_counter() - start
        return wall, results


@contextlib.contextmanager
def captured_train():
    """Keep the (vocab, TrainResult) of each `train` the CLI makes.

    `scdl train` writes the rewritten label tracks only as checksums, so
    the refinery F1 against the true gold labels is read from the result.
    """
    from scdl import cli

    runs = []
    original = cli.train

    def train(*args, **kwargs):
        result = original(*args, **kwargs)
        runs.append((args[3], result))
        return result

    cli.train = train
    try:
        yield runs
    finally:
        cli.train = original


def _write(directory: Path, files: dict[str, str]) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return {name: inputs.sha256(text) for name, text in files.items()}


def _fixture(ops: Ops, n: int, seed: int):
    corpus = inputs.synthetic_corpus(n, seed)
    pinned = inputs.PINNED_SHA256.get((n, seed))
    if pinned is not None:
        ops.check(
            inputs.sha256(inputs.conll(corpus)) == pinned,
            f"fixture corpus ({n} sentences, seed {seed}) differs from the pinned one",
        )
    return corpus


def _config(update_cycle: int, max_epochs: int, seed: int, pretrain_epochs=PRETRAIN_EPOCHS) -> str:
    return (
        f"update_cycle={update_cycle}\npretrain_epochs={pretrain_epochs}\n"
        f"max_epochs={max_epochs}\nseed={seed}\n"
    )


def _refinery(runs, gold) -> dict[str, float]:
    """Span F1 of the final rewritten tracks against the true gold tags."""
    vocab, result = runs[-1]
    gold_tags = [tags for _, tags in gold]
    return {
        f"refinery_f1_{track[6:]}": inputs.span_f1(
            [[vocab.decode(c) for c in s.track(track)] for s in result.state.sentences], gold_tags
        )
        for track in ("noisy_i", "noisy_ii")
    }


def _eval_f1(ops: Ops, output: str) -> float:
    match = re.search(r"\bf1 ([0-9.]+)\s*$", output)
    ops.check(match is not None, f"scdl eval printed no F1: {output!r}")
    return float(match.group(1)) if match else 0.0


def same_on_repeat(ops: Ops, ref: dict, key: str, value, what: str) -> None:
    ops.check(ref.setdefault(key, value) == value, f"{what} differs between repeats of one seed")


def _check_train_dir(ops: Ops, out: Path, max_epochs: int) -> bool:
    missing = [name for name in TRAIN_ARTIFACTS if not (out / name).is_file()]
    missing += [
        f"checkpoints/{m}_epoch{e}.ckpt"
        for m in MODELS
        for e in range(max_epochs + 1)
        if not (out / "checkpoints" / f"{m}_epoch{e}.ckpt").is_file()
    ]
    return ops.check(not missing, f"scdl train left out {missing[:5]}")


@dataclass
class Prepared:
    """What set-up made: the input directory and what the checks need."""

    directory: Path
    checksums: dict[str, str]
    tokens: int  # tokens processed by one timed repeat
    gold: list = None
    initial_f1: float = 0.0
    gazetteer: dict = None
    model_quality: dict = None


class Training:
    def __init__(self, update_cycle: int):
        self.update_cycle = update_cycle

    def setup(self, directory: Path, seed: int, sizes: Sizes, ops: Ops) -> Prepared:
        gold = _fixture(ops, sizes.train, inputs.TRAIN_SEED)
        noisy = inputs.inject_noise(gold, NOISE_K, seed)
        files = {
            "train.conll": inputs.conll(noisy),
            "dev.conll": inputs.conll(_fixture(ops, sizes.dev, inputs.DEV_SEED)),
            "test.conll": inputs.conll(_fixture(ops, sizes.test, inputs.TEST_SEED)),
            "config.txt": _config(self.update_cycle, MAX_EPOCHS, seed),
        }
        return Prepared(
            directory=directory,
            checksums=_write(directory, files),
            tokens=sum(len(tokens) for tokens, _ in gold) * (PRETRAIN_EPOCHS + MAX_EPOCHS),
            gold=gold,
            initial_f1=inputs.span_f1([t for _, t in noisy], [t for _, t in gold]),
        )

    def iterate(self, prep: Prepared, out: Path, seed: int, ops: Ops, tracer, ref: dict):
        d = prep.directory
        argv = ["train", "--config", str(d / "config.txt"), "--train", str(d / "train.conll"),
                "--dev", str(d / "dev.conll"), "--out-dir", str(out)]
        with captured_train() as runs:
            wall, [(ok, _)] = ops.timed([argv], tracer)
        if not (ok and _check_train_dir(ops, out, MAX_EPOCHS)):
            return wall, None
        for name in ("best.json", "refinery.csv"):
            same_on_repeat(ops, ref, name, (out / name).read_bytes(), name)
        quality = {"best_f1": json.loads((out / "best.json").read_text())["dev_f1"]}
        quality.update(_refinery(runs, prep.gold))
        for track in ("i", "ii"):
            ops.check(
                quality[f"refinery_f1_{track}"] > prep.initial_f1,
                f"refinery F1 of track {track} {quality[f'refinery_f1_{track}']:.4f} "
                f"is not above the initial noisy-vs-gold F1 {prep.initial_f1:.4f}",
            )
        ok, output = ops.cli(["eval", "--checkpoint", str(out / "best.ckpt"),
                              "--corpus", str(d / "test.conll")])
        quality["eval_f1"] = _eval_f1(ops, output) if ok else 0.0
        quality["distant_f1"] = prep.initial_f1
        same_on_repeat(ops, ref, "quality", quality, "quality")
        return wall, quality


class Tagging:
    """Annotate and evaluate a held-out corpus with a checkpoint made in set-up."""

    def setup(self, directory: Path, seed: int, sizes: Sizes, ops: Ops) -> Prepared:
        gold = _fixture(ops, sizes.checkpoint_train, inputs.TRAIN_SEED)
        tagged = inputs.synthetic_corpus(sizes.tagged, inputs.TAGGED_SEED + seed)
        gazetteer = inputs.gazetteer(seed)
        # Ten pretraining epochs and one denoising epoch of 50 steps that
        # ends in a rewrite: a tagger good enough to score, made in seconds.
        files = {
            "train.conll": inputs.conll(inputs.inject_noise(gold, NOISE_K, seed)),
            "dev.conll": inputs.conll(_fixture(ops, sizes.dev, inputs.DEV_SEED)),
            "config.txt": _config(50, 1, seed, pretrain_epochs=10),
            "tagged.conll": inputs.conll(tagged),
            "gazetteer.tsv": inputs.gazetteer_text(gazetteer),
        }
        checksums = _write(directory, files)
        model = directory / "model"
        with captured_train() as runs:
            ok, _ = ops.cli(["train", "--config", str(directory / "config.txt"),
                             "--train", str(directory / "train.conll"),
                             "--dev", str(directory / "dev.conll"), "--out-dir", str(model)])
        quality = None
        if ok and _check_train_dir(ops, model, 1):
            quality = {"best_f1": json.loads((model / "best.json").read_text())["dev_f1"]}
            quality.update(_refinery(runs, gold))
        return Prepared(
            directory=directory,
            checksums=checksums,
            tokens=2 * sum(len(tokens) for tokens, _ in tagged),  # gazetteer, then model
            gold=tagged,
            gazetteer=gazetteer,
            model_quality=quality,
        )

    def iterate(self, prep: Prepared, out: Path, seed: int, ops: Ops, tracer, ref: dict):
        d = prep.directory
        out.mkdir(parents=True)
        distant = out / "distant.conll"
        commands = [
            ["annotate", "--corpus", str(d / "tagged.conll"), "--gazetteer", str(d / "gazetteer.tsv"),
             "--coverage", str(COVERAGE), "--rule", "random", "--seed", str(seed), "--out", str(distant)],
            ["eval", "--checkpoint", str(d / "model" / "best.ckpt"), "--corpus", str(d / "tagged.conll")],
        ]
        wall, [(annotated, _), (evaluated, output)] = ops.timed(commands, tracer)
        summary_path = Path(f"{distant}.summary.json")
        if not (prep.model_quality and annotated and evaluated and ops.check(
            distant.is_file() and summary_path.is_file(), "scdl annotate wrote no corpus or summary"
        )):
            return wall, None
        text = distant.read_text(encoding="utf-8")
        same_on_repeat(ops, ref, "distant.conll", text, "distant.conll")
        labelled = inputs.read_conll(text)
        ops.check(
            [tokens for tokens, _ in labelled] == [tokens for tokens, _ in prep.gold],
            "distant.conll does not hold the input tokens",
        )
        foreign = [
            (" ".join(tokens[a : b + 1]), kind)
            for tokens, tags in labelled
            for a, b, kind in inputs.spans(tags)
            if kind not in prep.gazetteer.get(" ".join(tokens[a : b + 1]), ())
        ]
        ops.check(not foreign, f"distant labels not in the gazetteer: {foreign[:5]}")
        gold_tags = [tags for _, tags in prep.gold]
        summary = json.loads(summary_path.read_text())
        matched = sum(
            len(inputs.spans(p) & inputs.spans(g)) for (_, p), g in zip(labelled, gold_tags)
        )
        mentions = sum(len(inputs.spans(g)) for g in gold_tags)
        ops.check(
            (summary["correct"], summary["gold_spans"]) == (matched, mentions),
            f"annotation summary {summary} disagrees with {matched} of {mentions} mentions matched",
        )
        quality = dict(prep.model_quality)
        quality["eval_f1"] = _eval_f1(ops, output)
        quality["distant_f1"] = inputs.span_f1([tags for _, tags in labelled], gold_tags)
        same_on_repeat(ops, ref, "quality", quality, "quality")
        return wall, quality


WORKLOADS = {
    "train-desk": Training(update_cycle=250),
    "train-rewrite": Training(update_cycle=25),
    "tag-corpus": Tagging(),
}
