import math

import numpy as np
import pytest

from gradcheck import finite_difference_grad, max_relative_error
from scdl.corpus import AnnotatedSentence, TagVocabulary
from scdl.tagger import (
    PAD_TOKEN,
    TaggerConfig,
    init_params,
    forward,
    labels_from_dists,
    load_checkpoint,
    loss_hard,
    loss_soft,
    predict_labels,
    save_checkpoint,
    sgd_step,
    token_ids,
    zeros_like,
)
from synthdata import make_synthetic_corpus

SMALL = TaggerConfig(
    num_tags=5, vocab_hash_buckets=12, embed_dim=4, window=1, hidden_dim=5, init_seed=0
)


def small_vocab():
    return TagVocabulary(["PER", "LOC"])


def random_batch(rng, vocab, n_sentences=3, max_len=6):
    words = [f"w{i}" for i in range(20)]
    batch = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_len + 1))
        tokens = [words[int(rng.integers(len(words)))] for _ in range(n)]
        tags = [0] * n
        pos = 0
        while pos < n:
            if rng.random() < 0.4:
                t = vocab.entity_types[int(rng.integers(len(vocab.entity_types)))]
                tags[pos] = vocab.b_code(t)
                if pos + 1 < n and rng.random() < 0.5:
                    tags[pos + 1] = vocab.i_code(t)
                    pos += 1
            pos += 1
        batch.append(AnnotatedSentence(tokens, gold=tags, noisy_i=list(tags), noisy_ii=list(tags)))
    return batch


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaggerConfig(num_tags=0)
        with pytest.raises(ValueError):
            TaggerConfig(num_tags=3, window=-1)
        with pytest.raises(ValueError):
            TaggerConfig(num_tags=3, vocab_hash_buckets=1)
        with pytest.raises(ValueError):
            TaggerConfig(num_tags=3, init_scale=0.0)

    def test_structurally_distinct(self):
        a = TaggerConfig(num_tags=3, embed_dim=8)
        b = TaggerConfig(num_tags=3, embed_dim=9)
        c = TaggerConfig(num_tags=3, embed_dim=8, init_seed=99)
        assert a.structurally_distinct(b)
        assert not a.structurally_distinct(c)  # seed alone is not structure

    def test_context_width(self):
        assert TaggerConfig(num_tags=3, window=2).context_width == 5


class TestHashing:
    def test_pad_token_maps_to_reserved_bucket(self):
        ids = token_ids([PAD_TOKEN, "word"], 12)
        assert ids[0] == 0
        assert 1 <= ids[1] < 12

    def test_deterministic(self):
        assert np.array_equal(token_ids(["a", "b"], 100), token_ids(["a", "b"], 100))


class TestForward:
    def test_rows_are_distributions(self):
        params = init_params(SMALL)
        probs = forward(params, ["a", "b", "c"])
        assert probs.shape == (3, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs > 0).all()

    def test_empty_sentence(self):
        probs = forward(init_params(SMALL), [])
        assert probs.shape == (0, 5)

    def test_zero_params_uniform(self):
        params = zeros_like(init_params(SMALL))
        probs = forward(params, ["a", "b"])
        assert np.allclose(probs, 1.0 / 5)

    def test_window_uses_context(self):
        params = init_params(SMALL)
        p1 = forward(params, ["a", "b"])
        p2 = forward(params, ["a", "c"])
        assert not np.allclose(p1[0], p2[0])


class TestLosses:
    def test_uniform_hard_loss_is_log_num_tags(self):
        vocab = small_vocab()
        params = zeros_like(init_params(SMALL))
        batch = random_batch(np.random.default_rng(0), vocab)
        loss, _ = loss_hard(params, batch, "noisy_i")
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_empty_batch_rejected(self):
        params = init_params(SMALL)
        with pytest.raises(ValueError):
            loss_hard(params, [], "noisy_i")
        with pytest.raises(ValueError):
            loss_soft(params, [], [], [])

    def test_hard_gradient_matches_finite_differences(self):
        vocab = small_vocab()
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(
                TaggerConfig(
                    num_tags=5, vocab_hash_buckets=12, embed_dim=4, window=1,
                    hidden_dim=5, init_seed=seed,
                )
            )
            batch = random_batch(rng, vocab)
            _, grad = loss_hard(params, batch, "noisy_i")
            fd = finite_difference_grad(params, lambda p: loss_hard(p, batch, "noisy_i")[0])
            worst = max(worst, max_relative_error(grad, fd))
        assert worst < 1e-4

    def test_soft_gradient_matches_finite_differences(self):
        vocab = small_vocab()
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            params = init_params(
                TaggerConfig(
                    num_tags=5, vocab_hash_buckets=12, embed_dim=4, window=1,
                    hidden_dim=5, init_seed=seed,
                )
            )
            batch = random_batch(rng, vocab)
            targets = [rng.dirichlet(np.ones(5), size=len(s)) for s in batch]
            masks = [rng.random(len(s)) < 0.7 for s in batch]
            _, grad = loss_soft(params, batch, targets, masks)
            fd = finite_difference_grad(params, lambda p: loss_soft(p, batch, targets, masks)[0])
            worst = max(worst, max_relative_error(grad, fd))
        assert worst < 1e-4

    def test_soft_empty_selection_zero(self):
        vocab = small_vocab()
        rng = np.random.default_rng(1)
        params = init_params(SMALL)
        batch = random_batch(rng, vocab)
        targets = [np.full((len(s), 5), 0.2) for s in batch]
        masks = [np.zeros(len(s), dtype=bool) for s in batch]
        loss, grad = loss_soft(params, batch, targets, masks)
        assert loss == 0.0
        assert all((b == 0).all() for b in grad.blocks())

    def test_mask_length_mismatch(self):
        params = init_params(SMALL)
        batch = [AnnotatedSentence(["a", "b"], gold=[0, 0])]
        with pytest.raises(ValueError):
            loss_soft(params, batch, [np.full((2, 5), 0.2)], [np.array([True])])
        with pytest.raises(ValueError, match="boolean"):
            loss_soft(params, batch, [np.full((2, 5), 0.2)], [np.array([1, 0])])

    def test_soft_with_one_hot_equals_hard(self):
        vocab = small_vocab()
        rng = np.random.default_rng(2)
        params = init_params(SMALL)
        batch = random_batch(rng, vocab)
        targets = []
        for s in batch:
            t = np.zeros((len(s), 5))
            t[np.arange(len(s)), s.noisy_i] = 1.0
            targets.append(t)
        masks = [np.ones(len(s), dtype=bool) for s in batch]
        lh, gh = loss_hard(params, batch, "noisy_i")
        ls, gs = loss_soft(params, batch, targets, masks)
        assert lh == ls
        assert all(np.array_equal(a, b) for a, b in zip(gh.blocks(), gs.blocks()))


class TestSgd:
    def test_functional_update(self):
        params = init_params(SMALL)
        before = params.copy()
        grad = zeros_like(params)
        grad.out_b += 1.0
        new = sgd_step(params, grad, 0.5)
        assert params.allclose(before)  # input untouched
        assert np.allclose(new.out_b, params.out_b - 0.5)

    def test_lr_validation(self):
        params = init_params(SMALL)
        with pytest.raises(ValueError):
            sgd_step(params, zeros_like(params), 0.0)


class TestPrediction:
    def test_ties_pick_lowest_code(self):
        vocab = small_vocab()
        dists = np.full((2, 5), 0.2)
        assert labels_from_dists(dists, vocab) == [0, 0]

    def test_argmax_then_repair(self):
        vocab = small_vocab()
        dists = np.zeros((2, 5))
        dists[0, 2] = 1.0  # bare I-PER
        dists[1, 2] = 1.0
        assert labels_from_dists(dists, vocab) == [1, 2]

    def test_predict_on_trained_corpus(self):
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])
        corpus = make_synthetic_corpus(60, vocab, seed=0)
        cfg = TaggerConfig(num_tags=vocab.size, vocab_hash_buckets=512, embed_dim=8,
                           window=1, hidden_dim=12, init_seed=1)
        params = init_params(cfg)
        for _ in range(300):
            _, grad = loss_hard(params, corpus, "gold")
            params = sgd_step(params, grad, 2.0)
        correct = total = 0
        for s in corpus:
            predicted = predict_labels(params, s.tokens, vocab)
            correct += sum(p == g for p, g in zip(predicted, s.gold))
            total += len(s)
        assert correct / total > 0.9


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert all(np.array_equal(a, b) for a, b in zip(loaded.blocks(), params.blocks()))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(ValueError, match="not a tagger checkpoint"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def _with_header(self, tmp_path, header: bytes):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(SMALL), path)
        magic, _, blocks = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + header + b"\n" + blocks)
        return path

    def test_unknown_header_key(self, tmp_path):
        path = self._with_header(tmp_path, b'{"num_tags": 5, "bogus": 1}')
        with pytest.raises(ValueError, match="bogus"):
            load_checkpoint(path)

    def test_header_not_an_object(self, tmp_path):
        path = self._with_header(tmp_path, b"[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
