"""Hostile checkpoint, gazetteer, CoNLL and config input: the command line exits 0 or 1,
never raises, and a config file raises only ValueError. Tiny corpora under extreme
valid configs: `scdl train` exits 0 or 2, leaves only complete files and reruns
byte for byte. Each of the seven commands run as a program, on such input and with
a missing input or a file in the way of its output, keeps README's stderr contract."""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scdl.training as training
from scdl.cli import main
from scdl.corpus import AnnotatedSentence, inject_noise, parse_conll, read_conll, write_conll
from scdl.metrics import refinery_report
from scdl.tagger import TaggerConfig, encode, forward, init_params, load_checkpoint, save_checkpoint
from scdl.training import ABLATIONS, ScdlConfig
from synthdata import default_vocab, make_synthetic_corpus
from test_cli import run_program

HEADER_KEYS = (
    "num_tags", "vocab_hash_buckets", "embed_dim", "window", "hidden_dim", "init_seed", "init_scale",
)
SENTENCES = make_synthetic_corpus(12, default_vocab(), seed=0)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory, SENTENCES as a gold corpus in it, and a checkpoint's bytes."""
    directory = tmp_path_factory.mktemp("fuzz")
    vocab = default_vocab()
    corpus = directory / "corpus.conll"
    corpus.write_text(write_conll(SENTENCES, vocab, "gold"))
    config = TaggerConfig(num_tags=vocab.size, vocab_hash_buckets=64, embed_dim=4, hidden_dim=5)
    ckpt = directory / "model.ckpt"
    save_checkpoint(init_params(config), ckpt)
    return directory, corpus, ckpt.read_bytes()


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with np.errstate(all="ignore"):  # flipped weights may be inf or nan
            return main(argv)


def eval_bytes(inputs, data: bytes) -> int:
    directory, corpus, _ = inputs
    path = directory / "fuzzed.ckpt"
    path.write_bytes(data)
    return run(["eval", "--checkpoint", str(path), "--corpus", str(corpus)])


def test_unchanged_checkpoint_scores(inputs):
    assert eval_bytes(inputs, inputs[2]) == 0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_truncation(inputs, data):
    real = inputs[2]
    assert eval_bytes(inputs, real[: data.draw(st.integers(0, len(real) - 1))]) == 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_byte_flips(inputs, data):
    real = bytearray(inputs[2])
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(real) - 1))
        real[at] ^= data.draw(st.integers(1, 255))
    assert eval_bytes(inputs, bytes(real)) in (0, 1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", range(5))
def test_non_finite_block(inputs, block, value):
    path = inputs[0] / "non_finite.ckpt"
    path.write_bytes(inputs[2])
    params = load_checkpoint(path)
    params.blocks()[block].flat[-1] = value
    save_checkpoint(params, path)
    assert eval_bytes(inputs, path.read_bytes()) == 1


field_values = st.one_of(
    st.integers(-2, 80),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2),
)


@given(st.dictionaries(st.sampled_from(HEADER_KEYS + ("bogus",)), field_values), st.integers(0, 4096))
@settings(max_examples=200, deadline=None)
@example({"num_tags": 9, "vocab_hash_buckets": 10**9, "embed_dim": 64}, 64)
def test_random_header_fields(inputs, header, body):
    data = b"SCDL-TAGGER 1\n" + json.dumps(header).encode() + b"\n" + bytes(body)
    assert eval_bytes(inputs, data) in (0, 1)


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
@example(b"[" * 100_000)
def test_garbled_header_line(inputs, line):
    assert eval_bytes(inputs, b"SCDL-TAGGER 1\n" + line + b"\n" + bytes(64)) in (0, 1)


def gazetteer_text():
    """Gazetteer-like lines over the corpus's tokens, or arbitrary bytes."""
    tokens = sorted({t for s in SENTENCES for t in s.tokens})
    surface = st.lists(st.sampled_from(tokens + ["", " "]), max_size=3).map(" ".join)
    separator = st.sampled_from(["\t", "\t\t", " ", ""])
    types = st.text(alphabet=",- \tABIOPER\x00é", max_size=8)
    line = st.tuples(surface | st.text(max_size=5), separator, types).map("".join)
    text = st.lists(line, max_size=6).map("\n".join)
    return text.map(lambda t: t.encode("utf-8", "surrogatepass")) | st.binary(max_size=60)


@given(gazetteer_text())
@settings(max_examples=150, deadline=None)
@example(b"paris\tLOC,\n")
def test_garbled_gazetteer(inputs, raw):
    directory, corpus, _ = inputs
    gazetteer = directory / "gazetteer.tsv"
    gazetteer.write_bytes(raw)
    out = directory / "distant.conll"
    out.unlink(missing_ok=True)
    rc = run(["annotate", "--corpus", str(corpus), "--gazetteer", str(gazetteer),
              "--rule", "random", "--coverage", "0.7", "--out", str(out)])
    assert rc in (0, 1)
    if rc == 0:  # what annotate wrote reads back under the types it holds
        written = out.read_text(encoding="utf-8")
        vocab = read_conll(written)[3]
        assert "" not in vocab.entity_types
        parse_conll(written, vocab)


def conll_bytes():
    """CoNLL-like lines over the corpus's tokens and tags, or arbitrary bytes."""
    tokens = sorted({t for s in SENTENCES for t in s.tokens})
    token = st.sampled_from(tokens + ["", " ", "a b"]) | st.text(max_size=3)
    tag = st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-NEW", "B-", "X", ""])
    separator = st.sampled_from(["\t", "\t\t", " ", ""])
    line = st.tuples(token, separator, tag).map("".join)
    text = st.tuples(st.lists(line, max_size=10), st.sampled_from(["\n", "\r\n", "\x85", "\u2028"]))
    encoded = text.map(lambda t: t[1].join(t[0]).encode("utf-8", "surrogatepass"))
    return encoded | st.binary(max_size=80)


@given(conll_bytes())
@settings(max_examples=150, deadline=None)
@example(b"per0\tI-PER\n\nw1\n")
@example(b"\xff\xfe\tO\n")
@example(b"per0\tB-PER\nper1\tO\r\n\nloc2\tB-LOC\n")  # plain but for one \r
def test_garbled_conll(inputs, raw):
    directory, _, ckpt = inputs
    corpus, model = directory / "garbled.conll", directory / "model.ckpt"
    corpus.write_bytes(raw)
    model.write_bytes(ckpt)
    gazetteer = directory / "gaz.tsv"
    gazetteer.write_text("per0\tPER\nper1 loc2\tLOC,PER\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a corpus without mentions warns in inject
        assert run(["eval", "--checkpoint", str(model), "--corpus", str(corpus)]) in (0, 1)
        assert run(["annotate", "--corpus", str(corpus), "--gazetteer", str(gazetteer),
                    "--rule", "random", "--coverage", "0.5",
                    "--out", str(directory / "distant.conll")]) in (0, 1)
        assert run(["inject", "--corpus", str(corpus), "--k", "50",
                    "--out", str(directory / "noisy.conll")]) in (0, 1)


config_keys = st.sampled_from([f.name for f in dataclasses.fields(ScdlConfig)] + ["bogus", "", "#x"])
config_values = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e999", "0x10", "1_0", "hard_labels,", "no_teachers,x"]),
    st.text(max_size=6),
)


@given(st.lists(st.tuples(config_keys, st.sampled_from(["=", " = ", "==", ""]), config_values)))
@settings(max_examples=300, deadline=None)
@example([("seed", "=", "-1")])
@example([("batch_size", "=", "9" * 5000)])
def test_hostile_config_raises_only_value_error(entries):
    text = "\n".join(key + sep + value for key, sep, value in entries)
    try:
        ScdlConfig.from_text(text)
    except ValueError:
        pass


def tagged_sentence():
    """1-6 (token, tag) lines in valid BIO over a few forms and two types."""
    mention = st.tuples(st.sampled_from(["PER", "LOC"]), st.integers(0, 1))
    chunk = st.just(["O"]) | mention.map(lambda m: [f"B-{m[0]}"] + [f"I-{m[0]}"] * m[1])
    tags = st.lists(chunk, min_size=1, max_size=3).map(lambda chunks: sum(chunks, []))
    forms = st.sampled_from(["w0", "w1", "per0", "loc0", "é"])
    return tags.flatmap(
        lambda tags: st.lists(forms, min_size=len(tags), max_size=len(tags)).map(lambda t: list(zip(t, tags)))
    )


def conll(sentences) -> str:
    return "\n\n".join("\n".join(f"{token}\t{tag}" for token, tag in s) for s in sentences) + "\n"


tiny_configs = st.fixed_dictionaries({
    "hash_buckets": st.sampled_from([2, 3, 64]),
    **{f"net{k}_window": st.integers(0, 3) for k in (1, 2)},
    **{f"net{k}_{dim}": st.integers(1, 3) for k in (1, 2) for dim in ("embed_dim", "hidden_dim")},
    "batch_size": st.integers(1, 6),  # a corpus has at most 4 sentences
    "update_cycle": st.integers(0, 2),
    "alpha": st.sampled_from([0.0, 0.9, 1.0]),
    "delta": st.sampled_from([0.5, 1.0]),
    "student_word_dropout": st.sampled_from([0.0, 0.5, 0.999]),
    "gamma": st.sampled_from([0.5, 10.0, 1e150, 1e300]),
    "pretrain_epochs": st.integers(0, 2),
    "max_epochs": st.integers(0, 2),
    "seed": st.integers(0, 3),
    "ablations": st.sets(st.sampled_from(ABLATIONS), max_size=2).map(",".join),
})


def train_run(directory: Path, config: dict) -> tuple[int, str, str, dict[str, bytes]]:
    """`scdl train` on the corpora in `directory` into `directory/out`: exit code,
    stdout, stderr and the bytes of every file written, by path in `out`."""
    (directory / "config.txt").write_text("".join(f"{key}={value}\n" for key, value in config.items()))
    out, stdout, stderr = directory / "out", io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
        rc = main(["train", "--config", str(directory / "config.txt"), "--train", str(directory / "train.conll"),
                   "--dev", str(directory / "dev.conll"), "--out-dir", str(out)])
    files = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}
    return rc, stdout.getvalue(), stderr.getvalue(), files


@given(st.lists(tagged_sentence(), min_size=1, max_size=4), st.lists(tagged_sentence(), min_size=1, max_size=3),
       tiny_configs)
@settings(max_examples=40, deadline=None)
@example([[("w0", "O")]], [[("w0", "B-PER")]], {"gamma": 1e300, "pretrain_epochs": 1, "max_epochs": 1})
def test_train_pipeline(train, dev, config):
    """Exit 0 or 2 and no traceback; on 0 every checkpoint gives finite
    probabilities on dev, on 2 there is no best.json; every file left is
    complete; a rerun elsewhere gives the same bytes and output."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        for directory in (first, second):
            directory.mkdir()
            (directory / "train.conll").write_text(conll(train), encoding="utf-8")
            (directory / "dev.conll").write_text(conll(dev), encoding="utf-8")
        rc, _, stderr, files = run = train_run(first, config)
        assert rc in (0, 2) and "Traceback" not in stderr, stderr
        assert ("best.json" in files) == (rc == 0)
        assert not [path for path in files if Path(path).name.startswith(".")]  # no temporary file left
        if "config.txt" in files:
            ScdlConfig.from_text(files["config.txt"].decode())
        dev_tokens = [AnnotatedSentence([token for token, _ in s]) for s in dev]
        for path in files:
            if path.endswith(".ckpt"):
                params = load_checkpoint(first / "out" / path)
                if rc == 0:
                    with np.errstate(all="ignore"):
                        assert np.isfinite(forward(params, dev_tokens)).all(), path
        assert train_run(second, config) == run



def tagged_rows():
    """1-5 sentences of 1-4 tokens, each track a list of O and B-PER codes."""
    tags = st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4)
    row = st.tuples(st.integers(1, 4), tags, tags, tags)
    return st.lists(row, min_size=1, max_size=5)


@given(tagged_rows(), st.data(), st.sampled_from(AnnotatedSentence.TRACKS), st.sampled_from(["drop", "long", "short"]))
@settings(max_examples=60, deadline=None)
def test_a_broken_track_is_named_with_its_sentence(rows, data, track, kind):
    """One sentence loses a track, or has it reassigned one tag long or short:
    every library function that reads the track names the sentence and the track."""
    vocab = default_vocab()
    sentences = [
        AnnotatedSentence([f"w{j}" for j in range(n)], **dict(zip(AnnotatedSentence.TRACKS, (t[:n] for t in tags))))
        for n, *tags in rows
    ]
    i = data.draw(st.integers(0, len(sentences) - 1), label="sentence")
    tags = getattr(sentences[i], track)
    setattr(sentences[i], track, {"drop": None, "long": tags + [0], "short": tags[:-1]}[kind])
    calls = [
        lambda: write_conll(sentences, vocab, track),
        lambda: refinery_report(sentences, vocab, track),
        lambda: training.train(ScdlConfig(hash_buckets=64, pretrain_epochs=0, max_epochs=0), sentences, SENTENCES, vocab),
    ]
    if kind != "drop":  # a track it does not read is left out when missing, but checked when misfit
        calls.append(lambda: encode(sentences, 64))
    if kind != "drop" or track == "gold":
        calls.append(lambda: inject_noise(sentences, 50, vocab))
    message = rf"^sentence {i}: (no {track} track|{track} has \d+ tags for {len(sentences[i])} tokens)$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def config_text(entries) -> bytes:
    return "".join(f"{key}{sep}{value}\n" for key, sep, value in entries).encode()


# a tiny valid config with up to two lines appended, which override the keys they repeat;
# no value asks for a large model or a long run
bounded_values = st.sampled_from(
    ["", "nan", "-inf", "1e999", "0x10", "-1", "0", "2", "1.5", "abc", "é", "hard_labels,", "no_teachers,x"]
)
configs = st.builds(
    lambda tiny, extra: config_text([*((key, "=", value) for key, value in tiny.items()), *extra]),
    tiny_configs,
    st.lists(st.tuples(config_keys, st.sampled_from(["=", ""]), bounded_values), max_size=2),
)
TINY_CONFIG = config_text([("hash_buckets", "=", 64), ("pretrain_epochs", "=", 1), ("max_epochs", "=", 1)])


def checkpoint_bytes() -> bytes:
    """A checkpoint for the corpora that `tagged_sentence` draws, which hold PER and LOC."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.ckpt")
        save_checkpoint(init_params(TaggerConfig(num_tags=5, vocab_hash_buckets=64, embed_dim=4, hidden_dim=5)), path)
        return path.read_bytes()


CHECKPOINT = checkpoint_bytes()
GOLD = conll([[("per0", "B-PER"), ("w0", "O")], [("loc0", "B-LOC"), ("w1", "I-LOC")], [("w0", "O")]]).encode()
ALL_O = b"w0\tO\nw1\tO\n\nw1\tO\n"
BOM = "\ufeff".encode()

# each command's input files, written to the run's directory under their flags' names
INPUTS = {
    "annotate": ("--corpus", "--gazetteer"),
    "inject": ("--corpus",),
    "pretrain": ("--config", "--train", "--dev"),
    "train": ("--config", "--train", "--dev"),
    "eval": ("--checkpoint", "--corpus"),
    "ablate": ("--config", "--train", "--dev"),
    "sweep": ("--config", "--corpus"),
}
OUTPUT = {"annotate": "--out", "inject": "--out", "pretrain": "--out-dir", "train": "--out-dir",
          "ablate": "--out-dir", "sweep": "--out"}
corpora = st.lists(tagged_sentence(), min_size=1, max_size=4).map(lambda s: conll(s).encode()) | conll_bytes()
CONTENTS = {
    "--corpus": corpora,
    "--train": corpora,
    "--dev": corpora,
    "--gazetteer": gazetteer_text(),
    "--config": configs,
    "--checkpoint": st.one_of(
        st.just(CHECKPOINT), st.integers(0, len(CHECKPOINT) - 1).map(lambda n: CHECKPOINT[:n]), st.binary(max_size=64)
    ),
}
run_seeds = st.sampled_from(["0", "3", "-1"])
OPTIONS = {
    "annotate": st.fixed_dictionaries({"--coverage": st.sampled_from(["0", "0.5", "1", "1.5"]),
                                       "--rule": st.sampled_from(["first", "random"]), "--seed": run_seeds}),
    "inject": st.fixed_dictionaries({"--k": st.sampled_from(["0", "40", "100", "101"]), "--seed": run_seeds}),
    "sweep": st.fixed_dictionaries({"--ks": st.sampled_from(["0", "100", "0,100", "x"]),
                                    "--seeds": st.sampled_from(["0", "0,1", "-1"])}),
}


@st.composite
def scenarios(draw):
    """(command, input bytes by flag, other options, hazard): a hazard of "missing" names
    a file that does not exist as the first input, and "blocked" puts a file where the
    output's directory would be."""
    command = draw(st.sampled_from(list(INPUTS)))
    files = {flag: draw(CONTENTS[flag]) for flag in INPUTS[command]}
    options = draw(OPTIONS.get(command, st.just({})))
    return command, files, options, draw(st.sampled_from([None, None, None, "missing", "blocked"]))


@given(scenarios())
@settings(max_examples=14, deadline=None)
@example(("annotate", {"--corpus": b"", "--gazetteer": b"w0\tPER\n"}, {}, None))
@example(("annotate", {"--corpus": BOM + GOLD, "--gazetteer": b"per0\tPER,\n\xff"}, {"--rule": "random"}, None))
@example(("inject", {"--corpus": ALL_O}, {"--k": "40"}, None))  # a warning line, then exit 0
@example(("inject", {"--corpus": BOM + GOLD}, {"--k": "100"}, None))
@example(("inject", {"--corpus": GOLD}, {"--k": "0"}, "blocked"))
@example(("pretrain", {"--config": TINY_CONFIG + b"gamma=fast\n", "--train": GOLD, "--dev": GOLD}, {}, None))
@example(("train", {"--config": TINY_CONFIG, "--train": BOM + ALL_O, "--dev": GOLD}, {}, None))
@example(("train", {"--config": TINY_CONFIG, "--train": GOLD, "--dev": GOLD}, {}, "missing"))
@example(("eval", {"--checkpoint": CHECKPOINT[:40], "--corpus": GOLD}, {}, None))
@example(("eval", {"--checkpoint": CHECKPOINT, "--corpus": b""}, {}, None))
@example(("ablate", {"--config": TINY_CONFIG, "--train": GOLD, "--dev": GOLD}, {}, "blocked"))
@example(("sweep", {"--config": TINY_CONFIG, "--corpus": GOLD}, {"--ks": "0,100", "--seeds": "0"}, None))
def test_programs_keep_the_stderr_contract(scenario):
    """Run as a program, every command exits 0, 1 or 2 without a traceback. Its stderr
    holds only `warning:` lines and, unless it exits 0, one `error:` line after them,
    and it leaves no temporary file. A missing input, or a file where the output's
    directory would be, exits 1."""
    command, files, options, hazard = scenario
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        argv = [command, *chain.from_iterable(options.items())]
        for flag, data in files.items():
            (directory / flag[2:]).write_bytes(data)
            argv += [flag, str(directory / flag[2:])]
        if hazard == "missing":
            argv[argv.index(INPUTS[command][0]) + 1] = str(directory / "missing")
        if command in OUTPUT:
            if hazard == "blocked":
                (directory / "blocker").write_bytes(b"")
            argv += [OUTPUT[command], str(directory / ("blocker" if hazard == "blocked" else "") / "out")]
        proc = run_program(*argv)
        assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr
        lines = proc.stderr.split("\n")
        assert lines.pop() == "", proc.stderr  # every line ends
        if proc.returncode:
            assert lines and lines.pop().startswith("error: "), proc.stderr
        assert all(line.startswith("warning: ") for line in lines), proc.stderr
        assert not list(directory.rglob(".*")), "a temporary file was left"
        if hazard == "missing" or (hazard == "blocked" and command in OUTPUT):
            assert proc.returncode == 1, proc.stderr
