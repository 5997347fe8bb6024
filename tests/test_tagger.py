import json
import math
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import finite_difference_grad, max_relative_error
from scdl.corpus import AnnotatedSentence, TagVocabulary
from hypothesis import given, settings
from hypothesis import strategies as st

from scdl import tagger as tagger_module
from scdl.tagger import (
    PAD_BUCKET,
    PAD_TOKEN,
    RowSparseGrad,
    TaggerConfig,
    TaggerParams,
    _forward_cache,
    encode,
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


def same_bits(a, b) -> bool:
    """Every block equal byte for byte, so -0.0 differs from 0.0."""
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks(), b.blocks()))


def small_vocab():
    return TagVocabulary(["PER", "LOC"])


def sentences_of(*token_lists):
    return [AnnotatedSentence(list(tokens)) for tokens in token_lists]


def context_ids_per_sentence(ids, window):
    """Reference: one sentence's window ids, stacked from a PAD-filled copy."""
    n = len(ids)
    padded = np.full(n + 2 * window, PAD_BUCKET, dtype=np.int64)
    padded[window : window + n] = ids
    return np.stack([padded[k : k + n] for k in range(2 * window + 1)], axis=1)


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

    def test_context_width(self):
        assert TaggerConfig(num_tags=3, window=2).context_width == 5


class TestHashing:
    def test_pad_token_maps_to_reserved_bucket(self):
        ids = token_ids([PAD_TOKEN, "word"], 12)
        assert ids[0] == 0
        assert 1 <= ids[1] < 12

    def test_deterministic(self):
        assert np.array_equal(token_ids(["a", "b"], 100), token_ids(["a", "b"], 100))

    @given(st.lists(st.sampled_from(["a", "b", "é", "", " x", PAD_TOKEN]) | st.text(max_size=3)),
           st.integers(2, 2**40))
    @settings(max_examples=300)
    def test_equals_hash_per_token(self, tokens, buckets):
        """Hashing each distinct form once gives the ids of hashing every token."""
        expected = [
            PAD_BUCKET if t == PAD_TOKEN else 1 + zlib.crc32(t.encode("utf-8")) % (buckets - 1)
            for t in tokens
        ]
        ids = token_ids(tokens, buckets)
        assert ids.dtype == np.int64 and ids.tolist() == expected


class TestFlatBatch:
    words = st.sampled_from(["a", "b", "c", "d", PAD_TOKEN])

    @given(st.lists(st.lists(words, max_size=5), max_size=6))
    @settings(max_examples=200)
    def test_context_ids_equal_per_sentence_stack(self, token_lists):
        batch = encode(sentences_of(*token_lists), 12)
        for window in (0, 1, 2):
            expected = [
                context_ids_per_sentence(token_ids(tokens, 12), window) for tokens in token_lists
            ]
            expected = np.concatenate(expected) if expected else np.zeros((0, 2 * window + 1))
            got = batch.context_ids(window)
            assert got.shape == (len(batch.ids), 2 * window + 1)
            assert np.array_equal(got, expected)

    def test_take_keeps_ids_tracks_and_windows(self):
        corpus = make_synthetic_corpus(20, TagVocabulary(["PER", "LOC", "ORG", "MISC"]), seed=3)
        full = encode(corpus, 64)
        full.context_ids(1)
        order = [7, 0, 19, 7]
        part = full.take(order)
        fresh = encode([corpus[i] for i in order], 64)
        assert np.array_equal(part.ids, fresh.ids)
        assert np.array_equal(part.offsets, fresh.offsets)
        assert np.array_equal(part.track("noisy_i"), fresh.track("noisy_i"))
        assert np.array_equal(part.context_ids(1), fresh.context_ids(1))
        assert part.split(part.track("gold")) == [corpus[i].gold for i in order]

    def test_flat_forward_equals_one_sentence_forward(self):
        params = init_params(SMALL)
        token_lists = [["a"], [], ["b", "c", "a", "d"], ["c", "c"]]
        flat = forward(params, sentences_of(*token_lists))
        batch = encode(sentences_of(*token_lists), SMALL.vocab_hash_buckets)
        for rows, tokens in zip(batch.split(np.arange(len(flat))), token_lists):
            alone = forward(params, sentences_of(tokens))
            assert np.abs(flat[rows] - alone).max(initial=0.0) <= 1e-12

    def test_hashed_batch_is_not_reused_across_bucket_counts(self):
        batch = encode(sentences_of(["a", "b"]), 64)
        with pytest.raises(ValueError, match="buckets"):
            forward(init_params(SMALL), batch)


class TestForward:
    def test_rows_are_distributions(self):
        params = init_params(SMALL)
        probs = forward(params, sentences_of(["a", "b", "c"]))
        assert probs.shape == (3, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs > 0).all()

    def test_empty_sentence(self):
        assert forward(init_params(SMALL), []).shape == (0, 5)
        assert forward(init_params(SMALL), sentences_of([])).shape == (0, 5)

    def test_zero_params_uniform(self):
        params = zeros_like(init_params(SMALL))
        probs = forward(params, sentences_of(["a", "b"]))
        assert np.allclose(probs, 1.0 / 5)

    def test_window_uses_context(self):
        params = init_params(SMALL)
        p1 = forward(params, sentences_of(["a", "b"]))
        p2 = forward(params, sentences_of(["a", "c"]))
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


class TestRowSparseGradient:
    words = st.sampled_from(["a", "b", "c", PAD_TOKEN])

    @given(
        st.lists(st.lists(words, max_size=4), min_size=1, max_size=6),
        st.integers(0, 2),
        st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_dense_embedding_equals_add_at_reference(self, token_lists, window, seed):
        """Repeated ids, the PAD bucket, 1-token and empty sentences: the
        touched rows' values are the zero-filled np.add.at table's, bit for bit."""
        rng = np.random.default_rng(seed)
        config = replace(SMALL, vocab_hash_buckets=7, window=window, init_seed=seed)
        params = init_params(config)
        batch = encode(sentences_of(*token_lists), 7)
        n = len(batch.ids)
        targets = rng.dirichlet(np.ones(5), size=n)
        mask = rng.random(n) < 0.8
        _, grad = loss_soft(params, batch, targets, mask)

        # the dense backward: zero-fill, then np.add.at in token order
        ctx = batch.context_ids(window)[mask]
        x, h, probs = _forward_cache(params, ctx)
        dpre = ((probs - targets[mask]) / n) @ params.out_w.T * (1.0 - h * h)
        dx = dpre @ params.hidden_w.T
        expected = np.zeros_like(params.embedding)
        np.add.at(expected, ctx.reshape(-1), dx.reshape(-1, config.embed_dim))

        assert grad.embedding.tobytes() == expected.tobytes()
        if mask.any():
            assert isinstance(grad, RowSparseGrad)
            assert np.array_equal(grad.rows, np.unique(ctx))
            assert grad.row_values.tobytes() == expected[grad.rows].tobytes()
            assert np.array_equal(grad.hidden_w, x.T @ dpre)
            assert same_bits(grad, TaggerParams(config, *grad.blocks()))

    def test_pad_bucket_row_is_touched_at_sentence_edges(self):
        batch = random_batch(np.random.default_rng(0), small_vocab())
        _, grad = loss_hard(init_params(SMALL), batch, "gold")
        assert PAD_BUCKET in grad.rows.tolist()


class TestSgd:
    def test_in_place_equals_pure_for_sparse_and_dense_gradients(self):
        rng = np.random.default_rng(3)
        params = init_params(SMALL)
        _, sparse = loss_hard(params, random_batch(rng, small_vocab()), "noisy_i")
        untouched = np.setdiff1d(np.arange(SMALL.vocab_hash_buckets), sparse.rows)
        assert len(untouched) > 0
        params.embedding[untouched[0]] = -0.0  # p - lr * 0.0 keeps the sign of zero
        dense = TaggerParams(SMALL, *sparse.blocks())
        before = params.copy()
        results = []
        for grad in (sparse, dense):
            pure = sgd_step(params, grad, 2.0)
            assert same_bits(params, before)  # the pure form leaves its input alone
            target = params.copy()
            assert sgd_step(target, grad, 2.0, in_place=True) is target
            assert same_bits(target, pure)
            results.append(pure)
        assert same_bits(*results)
        assert np.signbit(results[0].embedding[untouched[0]]).all()
        assert not same_bits(results[0], before)

    def test_sparse_gradient_shape_checked(self):
        params = init_params(SMALL)
        dense = zeros_like(params).blocks()[1:]
        grad = RowSparseGrad(SMALL, np.array([1, 2]), np.zeros((2, 3)), *dense)  # embed_dim is 4
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(params, grad, 1.0, in_place=True)

    def test_functional_update(self):
        params = init_params(SMALL)
        before = params.copy()
        grad = zeros_like(params)
        grad.out_b += 1.0
        new = sgd_step(params, grad, 0.5)
        assert same_bits(params, before)  # input untouched
        assert np.allclose(new.out_b, params.out_b - 0.5)

    def test_lr_validation(self):
        params = init_params(SMALL)
        with pytest.raises(ValueError):
            sgd_step(params, zeros_like(params), 0.0)

    @pytest.mark.parametrize("lr", [math.inf, math.nan])
    def test_non_finite_lr_rejected(self, lr):
        params = init_params(SMALL)
        with pytest.raises(ValueError, match="finite"):
            sgd_step(params, zeros_like(params), lr, in_place=True)


class TestPrediction:
    def test_ties_pick_lowest_code(self):
        vocab = small_vocab()
        dists = np.full((2, 5), 0.2)
        assert labels_from_dists(dists, vocab).tolist() == [0, 0]

    def test_argmax_then_repair(self):
        vocab = small_vocab()
        dists = np.zeros((2, 5))
        dists[0, 2] = 1.0  # bare I-PER
        dists[1, 2] = 1.0
        assert labels_from_dists(dists, vocab).tolist() == [1, 2]

    def test_predict_on_trained_corpus(self):
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])
        corpus = make_synthetic_corpus(60, vocab, seed=0)
        cfg = TaggerConfig(num_tags=vocab.size, vocab_hash_buckets=512, embed_dim=8,
                           window=1, hidden_dim=12, init_seed=1)
        params = init_params(cfg)
        for _ in range(300):
            _, grad = loss_hard(params, corpus, "gold")
            params = sgd_step(params, grad, 2.0)
        batch = encode(corpus, cfg.vocab_hash_buckets)
        per_sentence = batch.split(predict_labels(params, batch, vocab))
        correct = total = 0
        for predicted, s in zip(per_sentence, corpus):
            correct += sum(p == g for p, g in zip(predicted, s.gold))
            total += len(s)
        assert correct / total > 0.9
        flat = predict_labels(params, corpus, vocab)
        assert flat.tolist() == [c for tags in per_sentence for c in tags]


    @pytest.mark.parametrize(
        "lengths",
        [
            [3, 1, 4, 1, 5, 9, 2],  # 7 sentences, not a multiple of the chunk
            [0, 2, 3, 0, 0, 1, 4, 0],  # empty sentences at chunk edges
            [1, 0, 0, 0, 2, 0],  # and beside them
            [2, 1, 1, 0, 0, 0, 3],  # a chunk of empty sentences only
            [],
        ],
    )
    def test_chunks_equal_one_sentence_at_a_time(self, monkeypatch, lengths):
        """Prediction three sentences per forward pass, with one BIO repair of
        the whole batch, labels each sentence as a pass over it alone does."""
        monkeypatch.setattr(tagger_module, "PREDICT_CHUNK", 3)
        vocab = small_vocab()
        params = init_params(replace(SMALL, window=2, init_scale=2.0, init_seed=4))  # I-t at sentence starts
        rng = np.random.default_rng(0)
        corpus = sentences_of(*[[f"w{t}" for t in rng.integers(0, 30, n)] for n in lengths])
        flat = predict_labels(params, encode(corpus, SMALL.vocab_hash_buckets), vocab)
        expected = [labels_from_dists(forward(params, [s]), vocab) for s in corpus]
        assert flat.dtype == np.int64
        assert flat.tolist() == [c for tags in expected for c in tags.tolist()]


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

    def test_body_sized_from_header_before_allocating(self, tmp_path):
        header = json.dumps({"num_tags": 5, "vocab_hash_buckets": 2**20, "embed_dim": 16})
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SCDL-TAGGER 1\n" + header.encode() + b"\n" + bytes(80))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("value", ["4.0", "true", '"4"', "null", "[4]"])
    def test_non_integer_dimension(self, tmp_path, value):
        path = self._with_header(tmp_path, b'{"num_tags": 5, "embed_dim": ' + value.encode() + b"}")
        with pytest.raises(ValueError, match="embed_dim is not an integer"):
            load_checkpoint(path)

    def test_deeply_nested_header(self, tmp_path):
        path = self._with_header(tmp_path, b"[" * 100_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_checkpoint(path)

    def test_header_not_an_object(self, tmp_path):
        path = self._with_header(tmp_path, b"[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(SMALL), path)
        before = path.read_bytes()
        broken = init_params(replace(SMALL, init_seed=1))
        broken.out_b = np.array(["not a number"] * SMALL.num_tags, dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(broken, path)  # fails after the header and first blocks
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_trailing_bytes(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
