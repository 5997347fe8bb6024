"""Hostile checkpoint and gazetteer input: the command line exits 0 or 1, never raises."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdl.cli import main
from scdl.corpus import infer_vocab, parse_conll, write_conll
from scdl.tagger import TaggerConfig, init_params, save_checkpoint
from synthdata import default_vocab, make_synthetic_corpus

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
        vocab = infer_vocab(written)
        assert "" not in vocab.entity_types
        parse_conll(written, vocab)
