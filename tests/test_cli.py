import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdl.cli as cli
import scdl.corpus as corpus_mod
import scdl.training as training
from scdl.cli import main
from scdl.corpus import (
    AnnotatedSentence,
    TagVocabulary,
    flat_tags,
    inject_noise,
    parse_conll,
    repair_bio,
    spans_from_bio,
    write_conll,
)
from scdl.metrics import CurvePoint, refinery_report
from scdl.training import ABLATIONS, TRACKS, ScdlConfig, TrainingDiverged
from scdl.tagger import TaggerConfig, init_params, load_checkpoint, save_checkpoint
from synthdata import default_vocab, make_synthetic_corpus

FAST_CONFIG = """\
batch_size=16
gamma=2.0
pretrain_epochs=1
max_epochs=1
update_cycle=5
hash_buckets=512
net1_embed_dim=8
net1_hidden_dim=10
net2_embed_dim=6
net2_window=2
net2_hidden_dim=8
"""

# `ScdlConfig().to_text()` before seven unused fields were removed
OLD_DEFAULT_CONFIG = """\
batch_size=16
max_epochs=7
gamma=2.0
alpha=0.995
delta=0.9
update_cycle=0
pretrain_epochs=6
seed=0
net1_seed=11
net2_seed=23
hash_buckets=4096
net1_embed_dim=24
net1_window=1
net1_hidden_dim=32
net2_embed_dim=20
net2_window=1
net2_hidden_dim=20
init_scale=0.1
denoise_gamma=0.0
student_word_dropout=0.0
normalize_by_selected=False
cycle_counts_pretrain=False
warmup_steps=0
ablations=
"""


@pytest.fixture
def workspace(tmp_path):
    vocab = default_vocab()
    train_c = make_synthetic_corpus(48, vocab, seed=0)
    dev_c = make_synthetic_corpus(16, vocab, seed=1)
    noisy, _ = inject_noise(train_c, 40, vocab, seed=0)
    paths = {
        "gold": tmp_path / "gold.conll",
        "train": tmp_path / "train.conll",
        "dev": tmp_path / "dev.conll",
        "config": tmp_path / "config.txt",
        "dir": tmp_path,
    }
    paths["gold"].write_text(write_conll(train_c, vocab, "gold"))
    paths["train"].write_text(write_conll(noisy, vocab, "noisy_i"))
    paths["dev"].write_text(write_conll(dev_c, vocab, "gold"))
    paths["config"].write_text(FAST_CONFIG)
    return paths


def train_epochs(workspace, out_dir, max_epochs: int) -> int:
    """`scdl train` on the workspace for `max_epochs` epochs."""
    config = workspace["dir"] / f"config_{max_epochs}.txt"
    config.write_text(FAST_CONFIG.replace("max_epochs=1", f"max_epochs={max_epochs}"))
    return main([
        "train", "--config", str(config), "--train", str(workspace["train"]),
        "--dev", str(workspace["dev"]), "--out-dir", str(out_dir),
    ])


def after_epoch_1(monkeypatch, action):
    """Make `scdl train` call `action` after its own epoch callback at epoch 1."""
    original = cli.train

    def train(*args, epoch_callback):
        def callback(epoch, state):
            epoch_callback(epoch, state)
            if epoch == 1:
                action()

        return original(*args, epoch_callback=callback)

    monkeypatch.setattr(cli, "train", train)


def program(*argv) -> dict:
    """Keyword arguments of `subprocess.run` or `Popen` that run `python -m
    scdl.cli argv` in a fresh process, on this checkout's `src`."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return dict(args=[sys.executable, "-m", "scdl.cli", *argv], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def run_program(*argv) -> subprocess.CompletedProcess:
    """`python -m scdl.cli argv` in a fresh process, on this checkout's `src`."""
    return subprocess.run(**program(*argv), timeout=300)


def one_sentence_divergence(tmp_path) -> list[str]:
    """`scdl train` arguments under which one pretraining step at gamma=1e300
    leaves finite parameters whose tag probabilities are NaN at step 0."""
    vocab = default_vocab()
    corpus, config = tmp_path / "one.conll", tmp_path / "config.txt"
    corpus.write_text(write_conll(make_synthetic_corpus(1, vocab, seed=3), vocab, "gold"))
    config.write_text("gamma=1e300\npretrain_epochs=1\nmax_epochs=1\n")
    return ["train", "--config", str(config), "--train", str(corpus), "--dev", str(corpus),
            "--out-dir", str(tmp_path / "out")]


def denoising_step_divergence(tmp_path) -> list[str]:
    """`scdl train` arguments under which, with no pretraining and gamma=1e300,
    a dropout step's SGD makes a student huge, and its teacher's EMA of it
    gives NaN probabilities at network 2's step 2."""
    vocab = default_vocab()
    noisy, _ = inject_noise(make_synthetic_corpus(64, vocab, seed=1), 40, vocab, seed=0)
    train, dev, config = tmp_path / "train.conll", tmp_path / "dev.conll", tmp_path / "config.txt"
    train.write_text(write_conll(noisy, vocab, "noisy_i"))
    dev.write_text(write_conll(make_synthetic_corpus(16, vocab, seed=2), vocab, "gold"))
    config.write_text(
        "pretrain_epochs=0\nmax_epochs=1\ngamma=1e300\ndelta=0.1\nupdate_cycle=100\n"
        "student_word_dropout=0.5\n"
    )
    return ["train", "--config", str(config), "--train", str(train), "--dev", str(dev),
            "--out-dir", str(tmp_path / "out")]


def overflowing_checkpoint_eval(tmp_path) -> list[str]:
    """`scdl eval` arguments naming a checkpoint whose values are finite, so
    it loads, but whose tag probabilities overflow to NaN."""
    vocab = default_vocab()
    params = init_params(TaggerConfig(num_tags=vocab.size, vocab_hash_buckets=64, embed_dim=4, hidden_dim=5))
    params.hidden_w *= 1e6
    params.out_w[:] = 1.5e308
    ckpt, corpus = tmp_path / "huge.ckpt", tmp_path / "gold.conll"
    save_checkpoint(params, ckpt)
    corpus.write_text(write_conll(make_synthetic_corpus(20, vocab, seed=3), vocab, "gold"))
    return ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]


@pytest.mark.parametrize(
    "repro, code",
    [(one_sentence_divergence, 2), (denoising_step_divergence, 2), (overflowing_checkpoint_eval, 1)],
)
def test_failing_program_prints_only_its_error_line(tmp_path, repro, code):
    """Run as a program, a command that fails on non-finite values prints its
    `error:` line and no NumPy warning, from this process or a forked one."""
    proc = run_program(*repro(tmp_path))
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize(
    "command, bad, error",
    [
        ("annotate", "corpus", "line 4: unknown tag 'B-'"),
        ("inject", "corpus", "line 4: unknown tag 'B-'"),
        ("train", "corpus", "line 4: unknown tag 'B-'"),
        ("eval", "corpus", "line 4: unknown tag 'B-'"),
        ("annotate", "gazetteer", "line 2: repeated surface 'per0'"),
        ("annotate", "types", "line 1: repeated type 'PER' in 'per0\\tPER, PER'"),
    ],
)
def test_unreadable_input_prints_its_line(tmp_path, command, bad, error):
    """Run as a program, a command whose corpus holds a tag of no type, or
    `annotate` with a gazetteer that lists a surface twice or a type twice on
    one line, exits 1 with one `error:` line that names the input line."""
    vocab = default_vocab()
    gold, typeless, gazetteer = tmp_path / "gold.conll", tmp_path / "typeless.conll", tmp_path / "gaz.tsv"
    gold.write_text(write_conll(make_synthetic_corpus(8, vocab, seed=3), vocab, "gold"))
    typeless.write_text("loc1\tB-LOC\nw0\tO\n\nper0\tB-\n")
    bad_gazetteers = {"gazetteer": "per0\tPER\nper0\tLOC\n", "types": "per0\tPER, PER\n"}
    gazetteer.write_text(bad_gazetteers.get(bad, "per0\tPER\n"))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TaggerConfig(num_tags=vocab.size, vocab_hash_buckets=64)), ckpt)
    corpus, out = str(typeless if bad == "corpus" else gold), str(tmp_path / "out")
    argv = {
        "annotate": ["--corpus", corpus, "--gazetteer", str(gazetteer), "--out", out],
        "inject": ["--corpus", corpus, "--k", "40", "--out", out],
        "train": ["--train", corpus, "--dev", str(gold), "--out-dir", out],
        "eval": ["--checkpoint", str(ckpt), "--corpus", corpus],
    }[command]
    proc = run_program(command, *argv)
    assert (proc.returncode, proc.stderr) == (1, f"error: {error}\n")


def test_interrupted_program_prints_one_line_and_exits_130(workspace):
    """Ctrl-C during `scdl train`, run as a program, prints `error: interrupted`
    and exits 130 without a traceback; the run leaves no best.json, and each
    checkpoint it left loads."""
    config, out = workspace["dir"] / "config_long.txt", workspace["dir"] / "run"
    config.write_text(FAST_CONFIG.replace("max_epochs=1", "max_epochs=100000"))  # never ends by itself
    with subprocess.Popen(**program(
        "train", "--config", str(config), "--train", str(workspace["train"]),
        "--dev", str(workspace["dev"]), "--out-dir", str(out),
    )) as proc:
        try:
            deadline = time.monotonic() + 120
            while not list(out.glob("checkpoints/*.ckpt")):
                assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert (proc.returncode, stderr) == (130, "error: interrupted\n")
    assert not (out / "best.json").exists()
    for path in out.glob("checkpoints/*.ckpt"):
        load_checkpoint(path)


def test_warning_prints_one_line(tmp_path):
    """Run as a program, a command's Python warning is one `warning:` line on stderr."""
    corpus, out = tmp_path / "o.conll", tmp_path / "n.conll"
    corpus.write_text("a\tO\nb\tO\n")
    proc = run_program("inject", "--corpus", str(corpus), "--k", "40", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stderr == "warning: corpus has no entity mentions; noise injection is a no-op\n"


@pytest.mark.parametrize("marked", ["corpus", "gazetteer", "config"])
def test_leading_byte_order_mark_is_ignored(workspace, marked):
    """An input that starts with a UTF-8 byte-order mark gives the same output
    bytes as the same input without one."""
    mention = next(line for line in workspace["gold"].read_text().splitlines() if "\tB-" in line)
    token, tag = mention.split("\t")
    inputs = {"corpus": workspace["gold"], "gazetteer": workspace["dir"] / "gaz.tsv", "config": workspace["config"]}
    inputs["gazetteer"].write_text(f"{token}\t{tag[2:]}\n")  # a surface the corpus has
    outputs = []
    for mark in ("", "\ufeff"):
        paths = dict(inputs)
        paths[marked] = workspace["dir"] / f"marked_{inputs[marked].name}"
        paths[marked].write_text(mark + inputs[marked].read_text(), encoding="utf-8")
        out = workspace["dir"] / f"out{len(outputs)}"
        out.mkdir()
        if marked == "config":
            argv = ["train", "--config", str(paths["config"]), "--train", str(workspace["train"]),
                    "--dev", str(workspace["dev"]), "--out-dir", str(out)]
        else:
            argv = ["annotate", "--corpus", str(paths["corpus"]), "--gazetteer", str(paths["gazetteer"]),
                    "--out", str(out / "distant.conll")]
        assert main(argv) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert outputs[0] == outputs[1]


class TestInject:
    def test_outputs_and_determinism(self, workspace, capsys):
        out = workspace["dir"] / "noisy.conll"
        argv = [
            "inject", "--corpus", str(workspace["gold"]), "--k", "40",
            "--seed", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        log = (workspace["dir"] / "noisy.conll.alterations.tsv").read_text()
        assert log.count("\n") == len(log.splitlines())
        assert "altered" in capsys.readouterr().out
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_parses_back(self, workspace):
        out = workspace["dir"] / "noisy.conll"
        main(["inject", "--corpus", str(workspace["gold"]), "--k", "40", "--out", str(out)])
        parse_conll(out.read_text(), default_vocab())

    def test_bad_k(self, workspace, capsys):
        rc = main([
            "inject", "--corpus", str(workspace["gold"]), "--k", "150",
            "--out", str(workspace["dir"] / "x.conll"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestAnnotate:
    def test_run_and_summary(self, workspace, capsys):
        gaz = workspace["dir"] / "gaz.tsv"
        gaz.write_text("per0\tPER\nper1\tPER,LOC\nloc0\tLOC\n")
        out = workspace["dir"] / "distant.conll"
        rc = main([
            "annotate", "--corpus", str(workspace["gold"]), "--gazetteer", str(gaz),
            "--coverage", "0.8", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((workspace["dir"] / "distant.conll.summary.json").read_text())
        assert summary["gold_spans"] == (
            summary["correct"] + summary["incomplete"] + summary["inaccurate"] + summary["other"]
        )
        assert summary["incomplete"] > 0  # the tiny gazetteer misses most mentions
        parse_conll(out.read_text(), default_vocab())

    @given(st.lists(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=8), max_size=8))
    @settings(max_examples=300)
    def test_summary_equals_sentence_loop(self, raw):
        """The flat summary equals one dict lookup per gold span, sentence by sentence."""
        vocab = default_vocab()
        gold = [repair_bio([g for g, _ in pairs], vocab).tolist() for pairs in raw]
        distant = [repair_bio([d for _, d in pairs], vocab).tolist() for pairs in raw]
        sentences = [AnnotatedSentence(["w"] * len(tags), gold=tags) for tags in gold]
        counts = dict.fromkeys(("correct", "incomplete", "inaccurate", "other"), 0)
        for sentence, tags in zip(sentences, distant):
            pred_spans = {(s.start, s.end): s.entity_type for s in spans_from_bio(tags, vocab)}
            for span in spans_from_bio(sentence.gold, vocab):
                got = pred_spans.get((span.start, span.end))
                if got == span.entity_type:
                    counts["correct"] += 1
                elif got is not None:
                    counts["inaccurate"] += 1
                elif all(tags[j] == 0 for j in range(span.start, span.end + 1)):
                    counts["incomplete"] += 1
                else:
                    counts["other"] += 1
        expected = {"gold_spans": sum(counts.values()), **counts}
        flat_gold, offsets = flat_tags(gold)
        assert cli._annotation_summary(flat_gold, flat_tags(distant)[0], offsets, vocab) == expected

    def test_empty_gazetteer_type_exit_code(self, workspace, capsys):
        gaz = workspace["dir"] / "gaz.tsv"
        gaz.write_text("per0\tPER\nloc0\tLOC,\n")
        out = workspace["dir"] / "distant.conll"
        rc = main(["annotate", "--corpus", str(workspace["gold"]), "--gazetteer", str(gaz),
                   "--out", str(out)])
        assert rc == 1
        assert "line 2: empty entity type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coverage", ["1.5", "-0.1", "nan"])
    def test_coverage_out_of_range(self, workspace, capsys, coverage):
        gaz = workspace["dir"] / "gaz.tsv"
        gaz.write_text("per0\tPER\n")
        out = workspace["dir"] / "distant.conll"
        rc = main(["annotate", "--corpus", str(workspace["gold"]), "--gazetteer", str(gaz),
                   "--coverage", coverage, "--out", str(out)])
        assert rc == 1
        assert "coverage must be in [0, 1]" in capsys.readouterr().err
        assert sorted(p.name for p in workspace["dir"].iterdir()) == sorted(
            ["gold.conll", "train.conll", "dev.conll", "config.txt", "gaz.tsv"]
        )

    @pytest.mark.parametrize("coverage", ["1.5", "-0.1", "nan"])
    def test_coverage_checked_on_an_empty_corpus(self, tmp_path, capsys, coverage):
        """The command checks --coverage before it reads any input, so an empty
        or missing corpus still reports it."""
        corpus, gaz, out = tmp_path / "empty.conll", tmp_path / "gaz.tsv", tmp_path / "distant.conll"
        corpus.write_text("")
        gaz.write_text("per0\tPER\n")
        argv = ["annotate", "--corpus", str(corpus), "--gazetteer", str(gaz),
                "--coverage", coverage, "--out", str(out)]
        assert main(argv) == 1
        assert f"coverage must be in [0, 1], got {coverage}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.conll", "gaz.tsv"]
        corpus.unlink()  # checked before the missing corpus is noticed
        assert main(argv) == 1
        assert "coverage must be in [0, 1]" in capsys.readouterr().err
        corpus.write_text("")
        assert main([*argv[:-3], "1.0", *argv[-2:]]) == 0  # an empty corpus is fine otherwise


@pytest.mark.parametrize(
    "argv",
    [
        ["annotate", "--gazetteer", "missing.tsv", "--out", "x.conll"],
        ["inject", "--k", "40", "--out", "x.conll"],
    ],
)
def test_negative_seed_rejected_before_reading(tmp_path, capsys, argv):
    """The seed message wins over the missing corpus, and nothing is written."""
    rc = main([*argv[:1], "--corpus", str(tmp_path / "missing.conll"), "--seed", "-1", *argv[1:]])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not list(tmp_path.iterdir())


class TestPretrainCmd:
    def test_run_dir(self, workspace):
        out_dir = workspace["dir"] / "pre"
        rc = main([
            "pretrain", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        assert (out_dir / "net1.ckpt").exists()
        assert (out_dir / "net2.ckpt").exists()
        assert (out_dir / "config.txt").exists()
        assert len((out_dir / "metrics.jsonl").read_text().splitlines()) == 2

    def test_interrupted_rerun_leaves_no_metrics(self, workspace, monkeypatch):
        """metrics.jsonl is written last, so it marks a complete run."""
        argv = [
            "pretrain", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "pre"),
        ]
        assert main(argv) == 0

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_checkpoint", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert not (workspace["dir"] / "pre" / "metrics.jsonl").exists()

    def test_dev_f1_equals_eval(self, workspace, capsys):
        """Each net's dev F1 in metrics.jsonl is what `scdl eval` prints for its checkpoint."""
        out_dir, config = workspace["dir"] / "pre", workspace["dir"] / "config_pre.txt"
        config.write_text(FAST_CONFIG.replace("pretrain_epochs=1", "pretrain_epochs=20"))
        assert main([
            "pretrain", "--config", str(config), "--train", str(workspace["train"]),
            "--dev", str(workspace["dev"]), "--out-dir", str(out_dir),
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
        assert [r["model"] for r in records] == ["net1", "net2"]
        for record in records:
            assert record["f1"] > 0
            ckpt = out_dir / f"{record['model']}.ckpt"
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workspace["dev"])]) == 0
            assert capsys.readouterr().out.split()[-1] == f"{record['f1']:.4f}"


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_empty_dev_fails_before_pretraining(workspace, monkeypatch, capsys, command):
    import scdl.training as training

    def pretrain(*args):
        raise AssertionError("pretrained on an empty dev corpus")

    monkeypatch.setattr(cli, "pretrain", pretrain)
    monkeypatch.setattr(training, "pretrain", pretrain)
    empty = workspace["dir"] / "empty.conll"
    empty.write_text("")
    out_dir = workspace["dir"] / "run"
    assert main([
        command, "--config", str(workspace["config"]), "--train", str(workspace["train"]),
        "--dev", str(empty), "--out-dir", str(out_dir),
    ]) == 1
    assert capsys.readouterr().err == "error: empty dev corpus\n"


@pytest.mark.parametrize(
    "command, empty, error",
    [("train", "--dev", "empty dev corpus"), ("train", "--train", "empty training corpus"),
     ("ablate", "--dev", "empty dev corpus")],
)
def test_failed_run_leaves_the_earlier_run_unchanged(workspace, capsys, command, empty, error):
    """A run that fails on its inputs writes and deletes nothing in --out-dir:
    the complete run there (under `scdl ablate`, its first variant's) stays
    byte for byte."""
    out_dir = workspace["dir"] / "run"
    run_dir = out_dir / ABLATIONS[0] if command == "ablate" else out_dir
    config = workspace["dir"] / "config_2.txt"
    config.write_text(FAST_CONFIG.replace("pretrain_epochs=1", "pretrain_epochs=2"))
    args = ["--train", str(workspace["train"]), "--dev", str(workspace["dev"])]
    assert main(["train", "--config", str(workspace["config"]), *args, "--out-dir", str(run_dir),
                 *(["--ablate", ABLATIONS[0]] if command == "ablate" else [])]) == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert run_dir / "best.json" in before
    capsys.readouterr()
    (workspace["dir"] / "empty.conll").write_text("")
    args[args.index(empty) + 1] = str(workspace["dir"] / "empty.conll")
    assert main([command, "--config", str(config), *args, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "blocked, command",
    [(blocked, command) for blocked in ("out-dir", "parent", "checkpoints") for command in ("train", "ablate")]
    + [("out-dir", "pretrain"), ("parent", "pretrain")],  # pretrain makes no checkpoints directory
)
def test_out_dir_blocked_by_a_file_fails_before_training(workspace, monkeypatch, capsys, command, blocked):
    """An --out-dir that cannot hold a run, because it, one of its parents or
    the run's checkpoints directory is a regular file, fails before pretraining."""
    import scdl.training as training

    def pretrain(*args):
        raise AssertionError("pretrained into an unusable --out-dir")

    monkeypatch.setattr(training, "pretrain", pretrain)
    monkeypatch.setattr(cli, "pretrain", pretrain)  # `scdl pretrain` calls the name it imports
    out_dir = workspace["dir"] / "run"
    blocker = out_dir
    if blocked == "parent":
        out_dir = out_dir / "sub"
    elif blocked == "checkpoints":
        blocker = out_dir / ABLATIONS[0] / "checkpoints" if command == "ablate" else out_dir / "checkpoints"
        blocker.parent.mkdir(parents=True)
    blocker.write_text("a file\n")
    assert main([
        command, "--config", str(workspace["config"]), "--train", str(workspace["train"]),
        "--dev", str(workspace["dev"]), "--out-dir", str(out_dir),
    ]) == 1
    assert "a file is in the way" in capsys.readouterr().err
    assert blocker.read_text() == "a file\n"


def sentence_checksum(rows) -> str:
    """The per-sentence track checksum that `scdl train` has always written."""
    h = hashlib.md5()
    for codes in rows:
        h.update(bytes(codes))
        h.update(b"\n")
    return h.hexdigest()


class TestTrackChecksum:
    @given(st.lists(st.lists(st.integers(0, 255), max_size=6), max_size=8), st.integers(0, 256))
    @settings(max_examples=300)
    def test_flat_equals_sentence_loop(self, rows, num_tags):
        num_tags = max(num_tags, 1 + max((c for r in rows for c in r), default=0))
        offsets = np.cumsum([0] + [len(r) for r in rows])
        flat = flat_tags(rows)[0]
        assert cli._track_checksum(flat, offsets, num_tags) == sentence_checksum(rows)

    def test_wide_codes_take_four_bytes(self):
        rows = [[0, 256, 257], [], [300]]
        offsets = np.cumsum([0] + [len(r) for r in rows])
        expected = hashlib.md5(
            b"".join(c.to_bytes(4, "little") for r in rows for c in [*r, 10])
        ).hexdigest()
        assert cli._track_checksum(flat_tags(rows)[0], offsets, 301) == expected

    def test_train_with_130_entity_types(self, tmp_path, capsys):
        """Codes of 256 and more appear in the noisy tracks that are checksummed."""
        types = [f"T{i:03d}" for i in range(130)]
        vocab = TagVocabulary(types)  # the last type owns codes 259 and 260
        corpus = [
            AnnotatedSentence(["w", f"e{t}", f"f{t}", "x"], gold=[0, vocab.b_code(t), vocab.i_code(t), 0])
            for t in types
        ]
        train_path, dev_path = tmp_path / "train.conll", tmp_path / "dev.conll"
        train_path.write_text(write_conll(corpus, vocab, "gold"))  # every type, so 261 tags
        dev_path.write_text(write_conll(corpus[-10:], vocab, "gold"))
        config = tmp_path / "config.txt"
        config.write_text(FAST_CONFIG)
        out_dir = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--train", str(train_path),
                   "--dev", str(dev_path), "--out-dir", str(out_dir)])
        assert rc == 0, capsys.readouterr().err
        sums = json.loads((out_dir / "best.json").read_text())["track_checksums"]
        assert len(sums) == 4


class TestTrainCmd:
    def test_run_dir_contents(self, workspace):
        out_dir = workspace["dir"] / "run"
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        for name in ("config.txt", "metrics.jsonl", "curve.csv", "refinery.csv",
                     "best.ckpt", "best.json"):
            assert (out_dir / name).exists(), name
        best = json.loads((out_dir / "best.json").read_text())
        assert best["model"] in ("teacher1", "student1", "teacher2", "student2")
        assert set(best["track_checksums"]) == {
            "noisy_i_initial", "noisy_ii_initial", "noisy_i_final", "noisy_ii_final"
        }
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "step,model,split,precision,recall,f1"
        assert len(curve) == 1 + 4 * 2  # four models at step 0 and epoch 1
        ckpts = list((out_dir / "checkpoints").iterdir())
        assert len(ckpts) == 4 * 2

    def test_rerun_byte_identical(self, workspace):
        args = [
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
        ]
        a, b = workspace["dir"] / "run_a", workspace["dir"] / "run_b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("metrics.jsonl", "curve.csv", "refinery.csv", "best.ckpt", "best.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_config(self, workspace):
        out_dir = workspace["dir"] / "run_seed"
        main([
            "train", "--config", str(workspace["config"]), "--seed", "7",
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert "seed=7" in (out_dir / "config.txt").read_text().splitlines()

    @pytest.mark.parametrize(
        "ablate, config_line, label",
        [
            (["--ablate", "hard_labels"], "", "hard_labels"),
            (["--ablate", "no_teachers", "--ablate", "hard_labels"], "", "hard_labels,no_teachers"),
            ([], "ablations=no_teachers,hard_labels\n", "hard_labels,no_teachers"),
        ],
        ids=["one_flag", "two_flags", "config"],
    )
    def test_ablate_flag_labels_metrics(self, workspace, ablate, config_line, label):
        """metrics.jsonl and best.json label a run with its ablations sorted and
        joined by commas, from --ablate flags or from the config file."""
        out_dir, config = workspace["dir"] / "run_abl", workspace["dir"] / "config_abl.txt"
        config.write_text(FAST_CONFIG + config_line)
        assert main([
            "train", "--config", str(config), *ablate,
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ]) == 0
        records = [json.loads(l) for l in (out_dir / "metrics.jsonl").read_text().splitlines()]
        assert all(r["ablation"] == label for r in records)
        assert json.loads((out_dir / "best.json").read_text())["ablation"] == label
        keys = ["step", "model", "split", "precision", "recall", "f1", "ablation"]
        assert all(list(r) == keys for r in records)
        point = CurvePoint(3, "student2", "dev", 1 / 3, 2 / 3, 0.12345678)
        assert cli._metrics_record(point, "x") == (
            '{"step": 3, "model": "student2", "split": "dev", "precision": 0.333333, '
            '"recall": 0.666667, "f1": 0.123457, "ablation": "x"}'
        )

    def test_missing_file_exit_code(self, workspace, capsys):
        rc = main([
            "train", "--train", str(workspace["dir"] / "nope.conll"),
            "--dev", str(workspace["dev"]), "--out-dir", str(workspace["dir"] / "x"),
        ])
        assert rc == 1

    def test_divergence_exit_code(self, workspace, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise TrainingDiverged("synthetic failure")

        monkeypatch.setattr(cli, "train", boom)
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "d"),
        ])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pretrain_epochs, where",
        [
            pytest.param(
                1, "net1.embedding after pretrain epoch 0",
                id="1-network1.embedding after pretrain epoch 0",
            ),
            (0, "teacher1.embedding at step 0"),
        ],
    )
    def test_non_finite_parameter_exit_code(
        self, workspace, capsys, monkeypatch, pretrain_epochs, where
    ):
        """A NaN in an embedding row that no token hashes to leaves every
        loss finite, so only the parameter check can stop the run."""
        import numpy as np

        import scdl.training as training
        from scdl.tagger import PAD_BUCKET, token_ids

        words = [
            line.split("\t")[0]
            for path in ("train", "dev")
            for line in workspace[path].read_text().splitlines()
            if line
        ]
        unused = min(set(range(1, 512)) - set(token_ids(words, 512).tolist()) - {PAD_BUCKET})
        original = training.init_params

        def poisoned(config):
            params = original(config)
            params.embedding[unused, 0] = np.nan
            return params

        monkeypatch.setattr(training, "init_params", poisoned)
        workspace["config"].write_text(
            FAST_CONFIG.replace("pretrain_epochs=1", f"pretrain_epochs={pretrain_epochs}")
        )
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "nan"),
        ])
        assert rc == 2
        assert f"non-finite parameter in {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, where",
        [
            ("train", r"(teacher|student)[12] at step 0"),
            ("ablate", r"(teacher|student)[12] at step 0"),
            ("pretrain", r"net[12] after pretraining"),
        ],
    )
    def test_huge_finite_parameters_exit_2(self, tmp_path, capsys, command, where):
        """One pretraining step at gamma=1e300 leaves parameters that are
        finite, so they pass the parameter check, but whose tag probabilities
        are NaN: the scoring that reads them stops the run before anything
        marks it complete."""
        corpus, config, out = tmp_path / "one.conll", tmp_path / "config.txt", tmp_path / "out"
        corpus.write_text(
            "w7\tO\nw35\tO\nw4\tO\nloc17\tB-MISC\nloc29\tI-MISC\nw35\tO\n"
            "w24\tO\nw47\tO\nmisc27\tB-MISC\nw11\tO\nw30\tO\nw58\tO\n"
        )
        config.write_text("gamma=1e300\npretrain_epochs=1\nmax_epochs=1\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                command, "--config", str(config), "--train", str(corpus), "--dev", str(corpus),
                "--out-dir", str(out),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(f"^error: training diverged: non-finite tag probabilities from {where}$", err, re.M), err
        assert not list(out.rglob("best.json")) and not list(out.rglob("metrics.jsonl"))

    def test_denoising_step_divergence_names_network_and_step(self, tmp_path, capsys):
        """The step raises naming only its track; `train` adds the network and the step."""
        with np.errstate(all="ignore"):
            rc = main(denoising_step_divergence(tmp_path))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite tag probabilities from the teacher on noisy_ii"
            " (net2 at step 2)\n"
        )
        assert not (tmp_path / "out" / "best.json").exists()

    def test_dead_network_2_process_exits_1(self, workspace, capsys, monkeypatch):
        import scdl.training as training

        if not training._can_fork():
            pytest.skip("network 2 trains in the caller here")
        pid, original = os.getpid(), training.self_denoise_step

        def dying(*args, **kwargs):
            if os.getpid() != pid:
                os._exit(3)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "self_denoise_step", dying)
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "dead"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: network 2's process exited with code 3 without replying\n"
        )

    def test_network_2_process_killed_between_segments_exits_1(self, workspace, capsys, monkeypatch):
        import scdl.training as training

        if not training._can_fork():
            pytest.skip("network 2 trains in the caller here")

        def kill_network_2():
            [child] = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)
            child.join()

        after_epoch_1(monkeypatch, kill_network_2)
        assert train_epochs(workspace, workspace["dir"] / "killed", 2) == 1
        assert capsys.readouterr().err == (
            "error: network 2's process exited with code -9 without replying\n"
        )

    @pytest.mark.parametrize(
        "ablate, update_cycle",
        [([], 5), (["--ablate", "single_network"], 5), ([], 1)],
        ids=["ablate0", "ablate1", "partial"],
    )
    def test_rewrite_hook_contract(self, workspace, monkeypatch, ablate, update_cycle):
        """The benchmark's tracer wraps `training.collaborative_update` and hands
        its positional arguments to a hook before and after each call. `train`
        calls it by that name once per rewrite with two positional arguments,
        `state` and the labels each peer teacher predicted, and by keyword the
        next segment's sentences for a partial rewrite, None for a whole one;
        it returns with each track holding the peer teacher's labels at those
        sentences, or at all of them. The whole training set is predicted only for rewrites that
        an epoch end reads. `single_network` rewrites nothing and predicts no
        rewrite."""
        import scdl.training as training

        original_update, original_predict = training.collaborative_update, training.predict_labels
        calls, predicted_rows, vocabs = [], [], []

        def spy(*args, **kwargs):
            original_update(*args, **kwargs)
            state, predicted = args[:2]
            peers = {"noisy_i": state.pair2.teacher, "noisy_ii": state.pair1.teacher}
            sentences = kwargs["sentences"]
            tokens = slice(None) if sentences is None else state.corpus.positions(sentences)[0]
            sizes = {name: v if v is None else len(v) for name, v in kwargs.items()}
            calls.append((len(args), sizes, sorted(predicted), all(
                np.array_equal(
                    state.corpus.tracks[t][tokens], original_predict(p, state.corpus, vocabs[-1])[tokens]
                )
                for t, p in peers.items()
            )))

        def counting(params, batch, vocab):
            predicted_rows.append(len(batch))
            vocabs.append(vocab)
            return original_predict(params, batch, vocab)

        monkeypatch.setattr(training, "collaborative_update", spy)
        monkeypatch.setattr(training, "predict_labels", counting)
        config = workspace["dir"] / "config_4.txt"
        text = FAST_CONFIG.replace("max_epochs=1", "max_epochs=4")
        config.write_text(text.replace("update_cycle=5", f"update_cycle={update_cycle}"))
        assert main([
            "train", "--config", str(config), "--train", str(workspace["train"]),
            "--dev", str(workspace["dev"]), "--out-dir", str(workspace["dir"] / "run"), *ablate,
        ]) == 0
        rewrite_predictions = predicted_rows.count(48)  # the training set; dev has 16 sentences
        # the caller predicts network 1's half, and network 2's too where it trains here
        per_rewrite = 1 if training._can_fork() else 2
        if ablate:
            assert calls == [] and rewrite_predictions == 0
        elif update_cycle == 5:  # 3 steps an epoch: rewrites after steps 5 and 10
            assert calls == [(2, {"sentences": None}, list(TRACKS), True)] * 2
            assert rewrite_predictions == per_rewrite * len(calls)
        else:  # a rewrite after every step: the next step's batch of 16 but at an epoch end
            partial = (2, {"sentences": 16}, list(TRACKS), True)
            assert calls == [partial, partial, (2, {"sentences": None}, list(TRACKS), True)] * 4
            assert rewrite_predictions == per_rewrite * 4

    def test_rerun_with_fewer_epochs_leaves_only_its_files(self, workspace):
        """A run directory holds one run: a rerun removes the checkpoints of
        epochs beyond its own, and nothing it does not write itself."""
        reused, fresh = workspace["dir"] / "reused", workspace["dir"] / "fresh"
        assert train_epochs(workspace, reused, 3) == 0
        (reused / "checkpoints" / "teacher1_epoch9.ckpt").mkdir()
        assert train_epochs(workspace, reused, 1) == 0
        assert train_epochs(workspace, fresh, 1) == 0

        def contents(run_dir):
            return {p.relative_to(run_dir): p.is_dir() or p.read_bytes() for p in run_dir.rglob("*")}

        left = contents(reused)
        assert left.pop(Path("checkpoints/teacher1_epoch9.ckpt")) is True  # a directory stays
        assert left == contents(fresh)

    def test_interrupted_rerun_leaves_no_best_json(self, workspace, monkeypatch):
        """best.json is written last, so it marks a complete run."""
        out_dir = workspace["dir"] / "run"
        assert train_epochs(workspace, out_dir, 1) == 0

        def interrupt():
            raise KeyboardInterrupt

        after_epoch_1(monkeypatch, interrupt)
        with pytest.raises(KeyboardInterrupt):
            train_epochs(workspace, out_dir, 2)
        assert not (out_dir / "best.json").exists()
        assert "max_epochs=2" in (out_dir / "config.txt").read_text().splitlines()

    def test_removed_parallel_option_is_usage_error(self, workspace, capsys):
        # exit 1, not argparse's 2, which would read as divergence
        train_args = [
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "p"),
        ]
        assert main(["train", *train_args, "--parallel"]) == 1
        assert "--parallel" in capsys.readouterr().err
        rc = main([
            "sweep", "--corpus", str(workspace["gold"]), "--ks", "20",
            "--seeds", "0", "--out", str(workspace["dir"] / "s.csv"), "--parallel",
        ])
        assert rc == 1
        assert "--parallel" in capsys.readouterr().err
        config = workspace["dir"] / "old.txt"
        config.write_text(FAST_CONFIG + "parallel=True\n")
        assert main(["train", "--config", str(config), *train_args]) == 1
        assert "unknown entry 'parallel=True'" in capsys.readouterr().err
        assert not (workspace["dir"] / "p").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("delta=1.5", "delta must be in (0, 1]"),
            ("alpha=1.5", "alpha must be in [0, 1]"),
            ("gamma=nan", "gamma must be finite and > 0"),
            ("gamma=-1", "gamma must be finite and > 0"),
            ("hash_buckets=1", "non-padding bucket"),
            ("batch_size=abc", "config line 12: bad value for batch_size"),
            ("seed=-1", "seed must be >= 0"),
        ],
    )
    def test_bad_config_value_fails_before_work(self, workspace, capsys, line, message):
        config = workspace["dir"] / "bad.txt"
        config.write_text(FAST_CONFIG + line + "\n")
        out_dir = workspace["dir"] / "bad_run"
        rc = main([
            "train", "--config", str(config),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_spaced_ablation_names(self, workspace, capsys):
        """Each name is stripped as Gazetteer.parse strips each type, and an
        unknown name still fails before any work."""
        spaced = ScdlConfig.from_text("ablations=no_teachers, hard_labels\n")
        assert spaced == ScdlConfig.from_text("ablations=no_teachers,hard_labels\n")
        config = workspace["dir"] / "spaced.txt"
        config.write_text(FAST_CONFIG + "ablations=no_teachers, bogus\n")
        out_dir = workspace["dir"] / "spaced_run"
        rc = main([
            "train", "--config", str(config),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert "unknown ablations: ['bogus']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_flag_fails_before_work(self, workspace, capsys):
        out_dir = workspace["dir"] / "neg_run"
        rc = main([
            "train", "--config", str(workspace["config"]), "--seed", "-1",
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_of_memory_exits_1(self, workspace, capsys):
        """An embedding table of 10**13 rows cannot even be addressed, so
        allocating it fails at once, and the command says so."""
        config = workspace["dir"] / "huge.txt"
        config.write_text(FAST_CONFIG + "hash_buckets=10000000000000\n")
        rc = main([
            "train", "--config", str(config),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(workspace["dir"] / "huge_run"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_old_default_config_names_first_removed_key(self, workspace, capsys):
        config = workspace["dir"] / "old.txt"
        config.write_text(OLD_DEFAULT_CONFIG)
        out_dir = workspace["dir"] / "old_run"
        rc = main([
            "train", "--config", str(config),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 1
        assert "config line 9: unknown entry 'net1_seed=11'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestEvalCmd:
    def test_eval_checkpoint(self, workspace, capsys):
        out_dir = workspace["dir"] / "run"
        main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        rc = main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                   "--corpus", str(workspace["dev"])])
        assert rc == 0
        assert "f1" in capsys.readouterr().out

    def test_vocab_mismatch(self, workspace, capsys):
        out_dir = workspace["dir"] / "run"
        main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        two_types = workspace["dir"] / "small.conll"
        two_types.write_text("a\tB-PER\n\nb\tB-LOC\n")
        rc = main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                   "--corpus", str(two_types)])
        assert rc == 1

    def test_bad_checkpoint_header(self, workspace, capsys):
        ckpt = workspace["dir"] / "bad.ckpt"
        ckpt.write_bytes(b'SCDL-TAGGER 1\n{"num_tags": 9, "bogus": 1}\n')
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workspace["dev"])])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_header_claiming_a_huge_body(self, workspace, capsys):
        ckpt = workspace["dir"] / "huge.ckpt"
        header = {"num_tags": 9, "vocab_hash_buckets": 10**9, "embed_dim": 64}
        ckpt.write_bytes(b"SCDL-TAGGER 1\n" + json.dumps(header).encode() + b"\n" + bytes(64))
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workspace["dev"])])
        assert rc == 1
        assert "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [b"", b"SCDL-TAGGER 1\n"])
    def test_header_line_without_newline(self, workspace, capsys, prefix):
        ckpt = workspace["dir"] / "endless.ckpt"
        ckpt.write_bytes(prefix + b"x" * (4 << 20))
        tracemalloc.start()
        try:
            rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workspace["dev"])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "checkpoint header line longer than 131072 bytes" in capsys.readouterr().err
        assert peak < 2**20

    def test_non_finite_checkpoint_exits_1(self, workspace, capsys):
        from scdl.tagger import load_checkpoint

        out_dir = workspace["dir"] / "run"
        main([
            "train", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        params = load_checkpoint(out_dir / "best.ckpt")
        params.hidden_w[0, 0] = np.nan
        save_checkpoint(params, out_dir / "nan.ckpt")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out_dir / "nan.ckpt"), "--corpus", str(workspace["dev"])])
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite value in checkpoint block hidden_w\n"

    def test_non_finite_probabilities_name_checkpoint_and_corpus(self, tmp_path, capsys):
        """Bad input, exit 1, naming both files."""
        argv = overflowing_checkpoint_eval(tmp_path)
        with np.errstate(all="ignore"):
            rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err == f"error: non-finite tag probabilities from {argv[2]} on {argv[4]}\n"

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_corpus(self, workspace, capsys, text):
        ckpt, corpus = workspace["dir"] / "m.ckpt", workspace["dir"] / "empty.conll"
        save_checkpoint(init_params(TaggerConfig(num_tags=default_vocab().size)), ckpt)
        corpus.write_text(text)
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == f"error: empty corpus: {corpus}\n"

    @pytest.mark.parametrize("when", ["read_conll", "evaluate_models"])
    def test_killed_part_2_process_exits_1(self, workspace, capsys, monkeypatch, when):
        """Cut into two parts, `scdl eval` whose child dies as it reads part 2, or
        as it scores it, exits 1 with one error line naming the exit code."""
        if not training._can_fork():
            pytest.skip("part 2 is read in the caller here")
        pid, original = os.getpid(), getattr(cli, when)

        def dying(*args, **kwargs):
            if os.getpid() != pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, when, dying)
        monkeypatch.setattr(corpus_mod, "SPLIT_SIZE", 0)
        ckpt = workspace["dir"] / "m.ckpt"
        save_checkpoint(init_params(TaggerConfig(num_tags=default_vocab().size)), ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(workspace["gold"])]) == 1
        assert capsys.readouterr().err == "error: part 2's process exited with code -9 without replying\n"
        assert not multiprocessing.active_children()


def test_parts_in_one_process_give_the_same_bytes(workspace, capsys, monkeypatch):
    """`scdl annotate` and `eval` cut into two parts print and write what they do
    on the whole corpus, with part 2 in a child or, where the caller cannot fork,
    in the caller after part 1."""
    ckpt, gazetteer, distant = (workspace["dir"] / name for name in ("m.ckpt", "gaz.tsv", "d.conll"))
    save_checkpoint(init_params(TaggerConfig(num_tags=default_vocab().size)), ckpt)
    gazetteer.write_text("per0\tPER\nper1\tPER,LOC\nloc0 loc1\tLOC,PER\n")
    corpus, can_fork, outputs = str(workspace["gold"]), training._can_fork(), []
    for size, forks in ((1 << 40, can_fork), (0, can_fork), (0, False)):
        monkeypatch.setattr(corpus_mod, "SPLIT_SIZE", size)
        monkeypatch.setattr(training, "_can_fork", lambda forks=forks: forks)
        codes = [
            main(["annotate", "--corpus", corpus, "--gazetteer", str(gazetteer), "--rule", "random",
                  "--coverage", "0.7", "--seed", "5", "--out", str(distant)]),
            main(["eval", "--checkpoint", str(ckpt), "--corpus", corpus]),
        ]
        files = [distant.read_bytes(), Path(f"{distant}.summary.json").read_bytes()]
        outputs.append((codes, capsys.readouterr(), files))
    assert outputs[0][0] == [0, 0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestAblateCmd:
    def test_all_variants_run(self, workspace):
        out_dir = workspace["dir"] / "ablations"
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--train", str(workspace["train"]), "--dev", str(workspace["dev"]),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        for ablation in ABLATIONS:
            records = [
                json.loads(l)
                for l in (out_dir / ablation / "metrics.jsonl").read_text().splitlines()
            ]
            assert records and all(r["ablation"] == ablation for r in records)
        single = json.loads((out_dir / "single_network" / "best.json").read_text())
        sums = single["track_checksums"]
        assert sums["noisy_i_final"] == sums["noisy_i_initial"]
        assert sums["noisy_ii_final"] == sums["noisy_ii_initial"]


    def test_output_through_a_pipe_is_printed_once(self, workspace):
        """A forked process never prints the parent's buffered stdout again."""
        proc = run_program(
            "ablate", "--config", str(workspace["config"]), "--train", str(workspace["train"]),
            "--dev", str(workspace["dev"]), "--out-dir", str(workspace["dir"] / "piped"),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(ABLATIONS) == 5
        assert all(line.startswith("best model ") for line in lines)


class TestSweepCmd:
    def test_row_counts_and_format(self, workspace):
        out = workspace["dir"] / "sweep.csv"
        rc = main([
            "sweep", "--config", str(workspace["config"]),
            "--corpus", str(workspace["gold"]), "--ks", "20,60",
            "--seeds", "0,1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,seed,method,dev_f1,initial_refinery_f1,final_refinery_f1"
        assert len(lines) == 1 + 2 * 2 * 2
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods == {"scdl", "pretrain_only"}

    def test_refinery_columns_score_noisy_and_final_tracks(self, workspace, monkeypatch):
        vocab = default_vocab()
        original = cli.train
        expected = []

        def scored_train(config, noisy, dev, vocab_):
            result = original(config, noisy, dev, vocab_)
            initial = refinery_report(noisy, vocab)
            expected.append((initial.f1, refinery_report(result.state.sentences, vocab).f1))
            return result

        monkeypatch.setattr(cli, "train", scored_train)
        config = workspace["dir"] / "rewrites.txt"  # three steps an epoch: rewrite at step 2
        config.write_text(FAST_CONFIG.replace("update_cycle=5", "update_cycle=2"))
        out = workspace["dir"] / "sweep.csv"
        rc = main([
            "sweep", "--config", str(config), "--corpus", str(workspace["gold"]),
            "--ks", "20,60", "--seeds", "0,1", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(expected) == 8
        for row, (initial, final) in zip(rows, expected):
            if row[2] == "pretrain_only":  # scored like the scdl run of its cell
                final = initial
            assert row[4:] == [f"{initial:.6f}", f"{final:.6f}"]
        assert any(row[4] != row[5] for row in rows)

    def test_every_k_checked_before_training(self, workspace, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        out = workspace["dir"] / "s.csv"
        rc = main([
            "sweep", "--corpus", str(workspace["gold"]), "--ks", "10,200",
            "--seeds", "0", "--out", str(out),
        ])
        assert rc == 1
        assert "k out of range [0, 100]: 200" in capsys.readouterr().err
        assert not out.exists()

    def test_every_seed_checked_before_training(self, workspace, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        out = workspace["dir"] / "s.csv"
        rc = main([
            "sweep", "--corpus", str(workspace["gold"]), "--ks", "10",
            "--seeds", "0,-1", "--out", str(out),
        ])
        assert rc == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, missing", [("", "training and no dev"), ("Alice\tB-PER\nruns\tO\n\n", "training")]
    )
    def test_too_small_corpus_named_before_the_first_run(self, workspace, capsys, monkeypatch, text, missing):
        """Holding out every fifth sentence must leave sentences to train on
        and to score on dev; otherwise sweep exits 1 naming --corpus before
        it injects noise or trains."""
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "inject_noise", no_run)
        monkeypatch.setattr(cli, "train", no_run)
        corpus, out = workspace["dir"] / "small.conll", workspace["dir"] / "s.csv"
        corpus.write_text(text)
        rc = main(["sweep", "--corpus", str(corpus), "--ks", "10", "--seeds", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --corpus {corpus}: the held-out split leaves no {missing} sentences\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_out_directory_checked_before_the_first_run(self, workspace, capsys, monkeypatch, parent):
        """An --out whose directory is missing or is a file fails naming --out
        before sweep injects noise or trains, not after every run."""
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "inject_noise", no_run)
        monkeypatch.setattr(cli, "train", no_run)
        directory = workspace["dir"] / "nodir"
        if parent == "a-file":
            directory.write_text("a file\n")
        out = directory / "s.csv"
        rc = main(["sweep", "--corpus", str(workspace["gold"]), "--ks", "10", "--seeds", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --out {out}: {directory} is not a directory\n"

    def test_empty_k_list(self, workspace):
        rc = main([
            "sweep", "--corpus", str(workspace["gold"]), "--ks", ",",
            "--seeds", "0", "--out", str(workspace["dir"] / "s.csv"),
        ])
        assert rc == 1
