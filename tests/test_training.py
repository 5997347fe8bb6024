import math
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import scdl.training as training
from scdl.corpus import AnnotatedSentence, TagVocabulary, inject_noise
from scdl.metrics import CurvePoint, SpanScore, score_tags
from scdl.denoise import (
    TeacherStudentPair,
    confident_mask,
    consistent_mask,
    ema_update,
    select_confident,
    select_consistent,
    token_selection,
)
from scdl.tagger import (
    PAD_BUCKET,
    TokenBatch,
    encode,
    forward,
    init_params,
    labels_from_dists,
    loss_hard,
    loss_soft,
    predict_labels,
    sgd_step,
)
from scdl.training import (
    ABLATIONS,
    MODEL_ORDER,
    TRACKS,
    ScdlConfig,
    TrainingDiverged,
    TrainState,
    _batches,
    pretrain,
    collaborative_update,
    self_denoise_step,
    train,
)
from synthdata import make_synthetic_corpus
from test_tagger import per_sentence

REMOVED_KEYS = (
    "net1_seed=11",
    "net2_seed=23",
    "init_scale=0.1",
    "denoise_gamma=0.5",
    "normalize_by_selected=True",
    "cycle_counts_pretrain=True",
    "warmup_steps=10",
)

FAST = dict(
    batch_size=16,
    gamma=2.0,
    pretrain_epochs=1,
    max_epochs=1,
    update_cycle=5,
    hash_buckets=512,
    net1_embed_dim=8,
    net1_hidden_dim=10,
    net2_embed_dim=6,
    net2_window=2,
    net2_hidden_dim=8,
)


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.blocks(), b.blocks()))


def same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks(), b.blocks()))


def noisy_corpus(vocab, n=48, seed=0):
    corpus = make_synthetic_corpus(n, vocab, seed=100 + seed)
    noisy, _ = inject_noise(corpus, 40, vocab, seed=seed)
    return noisy


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScdlConfig(update_cycle=-1)
        with pytest.raises(ValueError):
            ScdlConfig(batch_size=0)
        with pytest.raises(ValueError):
            ScdlConfig(student_word_dropout=1.0)
        with pytest.raises(ValueError):
            ScdlConfig(ablations=frozenset({"bogus"}))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(delta=0.0), "delta"),
            (dict(delta=1.5), "delta"),
            (dict(alpha=-0.1), "alpha"),
            (dict(alpha=1.5), "alpha"),
            (dict(gamma=0.0), "gamma"),
            (dict(gamma=float("nan")), "gamma"),
            (dict(gamma=float("inf")), "gamma"),
            (dict(hash_buckets=1), "bucket"),
            (dict(net2_hidden_dim=0), "dimensions"),
            (dict(net1_window=-1), "window"),
        ],
    )
    def test_validation_at_construction(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ScdlConfig(**bad)

    def test_validation_accepts_bounds(self):
        ScdlConfig(delta=1.0, alpha=0.0)
        ScdlConfig(alpha=1.0, hash_buckets=2)

    def test_all_ablations_known(self):
        ScdlConfig(ablations=frozenset(ABLATIONS))

    def test_text_roundtrip(self):
        config = ScdlConfig(
            gamma=1.5,
            update_cycle=33,
            ablations=frozenset({"hard_labels", "no_teachers"}),
            student_word_dropout=0.25,
        )
        assert ScdlConfig.from_text(config.to_text()) == config

    def test_text_roundtrip_defaults(self):
        assert ScdlConfig.from_text(ScdlConfig().to_text()) == ScdlConfig()

    def test_text_ignores_comments_and_blanks(self):
        assert ScdlConfig.from_text("# comment\n\ngamma=0.5\n") == ScdlConfig(gamma=0.5)

    def test_text_last_repeated_key_wins(self):
        """A line appended to a config.txt overrides the one it repeats."""
        text = ScdlConfig(ablations=frozenset({"hard_labels"})).to_text()
        text += "ablations=no_teachers,single_network\n"
        assert ScdlConfig.from_text(text).ablations == {"no_teachers", "single_network"}

    def test_text_unknown_key(self):
        with pytest.raises(ValueError, match="line 1"):
            ScdlConfig.from_text("bogus=1\n")

    @pytest.mark.parametrize("line", REMOVED_KEYS)
    def test_text_removed_key(self, line):
        with pytest.raises(ValueError, match=f"line 1: unknown entry '{line}'"):
            ScdlConfig.from_text(line + "\n")

    @pytest.mark.parametrize("line", ["batch_size=abc", "max_epochs=1.5", "gamma=fast"])
    def test_text_bad_value_names_line_and_key(self, line):
        key = line.partition("=")[0]
        with pytest.raises(ValueError, match=f"config line 2: bad value for {key}"):
            ScdlConfig.from_text("seed=1\n" + line + "\n")

    def test_tagger_configs_distinct(self):
        c1, c2 = ScdlConfig().tagger_configs(9)
        assert (c1.embed_dim, c1.window, c1.hidden_dim) != (c2.embed_dim, c2.window, c2.hidden_dim)
        assert c1.init_seed != c2.init_seed


class TestPretrain:
    def test_deterministic(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        a1, a2 = pretrain(config, corpus, vocab)
        b1, b2 = pretrain(config, corpus, vocab)
        assert params_equal(a1, b1) and params_equal(a2, b2)

    def test_empty_corpus(self, vocab):
        with pytest.raises(ValueError):
            pretrain(ScdlConfig(**FAST), [], vocab)

    def test_diverges_with_absurd_lr(self, vocab):
        config = ScdlConfig(**{**FAST, "gamma": 1e12, "pretrain_epochs": 3})
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                pretrain(config, noisy_corpus(vocab), vocab)


class TestSelfDenoiseStep:
    def _pair(self, config, corpus, vocab, alpha=0.9):
        p1, _ = pretrain(config, corpus, vocab)
        return TeacherStudentPair(p1.copy(), p1.copy(), alpha)

    def test_hard_ablation_full_mask_equals_hard_step(self, vocab):
        config = ScdlConfig(
            **FAST,
            ablations=frozenset({"no_consistency", "no_confidence", "hard_labels"}),
        )
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab, alpha=0.0)
        batch = corpus[:8]
        _, grad = loss_hard(pair.student, batch, "noisy_i")
        direct = sgd_step(pair.student.copy(), grad, config.gamma)
        stepped, stats = self_denoise_step(pair, batch, "noisy_i", config, vocab)
        assert stats.selected == stats.total == sum(len(s) for s in batch)
        assert params_equal(stepped.student, direct)
        assert params_equal(stepped.teacher, direct)  # alpha 0 copies the student

    def test_empty_selection_leaves_pair(self, vocab):
        config = ScdlConfig(**{**FAST, "delta": 1.0})
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab)
        # delta=1.0 deselects every token unless the teacher is fully certain;
        # force emptiness by also demanding consistency with shuffled labels
        batch = [s for s in corpus[:4]]
        for s in batch:
            s.noisy_i = [(c + 1) % vocab.size for c in s.noisy_i]
        before = TeacherStudentPair(pair.teacher.copy(), pair.student.copy(), pair.alpha)
        stepped, stats = self_denoise_step(pair, batch, "noisy_i", config, vocab)
        if stats.selected == 0:
            assert params_equal(stepped.student, before.student)
            assert params_equal(stepped.teacher, before.teacher)

    def test_teacher_moves_toward_student(self, vocab):
        config = ScdlConfig(**{**FAST, "ablations": frozenset({"no_consistency", "no_confidence", "hard_labels"})})
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab, alpha=0.9)
        old_teacher = pair.teacher.copy()
        stepped, _ = self_denoise_step(pair, corpus[:8], "noisy_i", config, vocab)
        for new_t, old_t, new_s in zip(
            stepped.teacher.blocks(), old_teacher.blocks(), stepped.student.blocks()
        ):
            assert np.allclose(new_t, 0.9 * old_t + 0.1 * new_s)

    def test_live_selection_matches_composed_oracle(self, vocab):
        """Partial masks: the step equals selection -> loss_soft -> SGD -> EMA."""
        corpus = noisy_corpus(vocab)
        batch = corpus[:8]
        p, _ = pretrain(ScdlConfig(**{**FAST, "pretrain_epochs": 15}), corpus, vocab)
        _, g = loss_hard(p, corpus[8:24], "noisy_i")
        pair = TeacherStudentPair(p, sgd_step(p.copy(), g, 2.0), 0.9)  # teacher != student
        delta = 0.8  # each filter alone and both together select different partial sets
        oracles = {
            frozenset(): lambda noisy, d: token_selection(noisy, d, delta, vocab),
            frozenset({"no_consistency"}): lambda noisy, d: select_confident(d, delta),
            frozenset({"no_confidence"}): lambda noisy, d: select_consistent(
                noisy, labels_from_dists(d, vocab)
            ),
        }
        for ablations, select in oracles.items():
            config = ScdlConfig(**FAST, delta=delta, ablations=ablations)
            live = TeacherStudentPair(pair.teacher.copy(), pair.student.copy(), pair.alpha)
            stepped, stats = self_denoise_step(live, batch, "noisy_i", config, vocab)

            offsets = encode(batch, config.hash_buckets).offsets
            dists = np.split(forward(pair.teacher, batch), offsets[1:-1])
            masks = []
            for s, d in zip(batch, dists):
                m = np.zeros(len(s), dtype=bool)
                m[sorted(select(s.noisy_i, d))] = True
                masks.append(m)
            loss, grad = loss_soft(pair.student, batch, dists, masks)
            student = sgd_step(pair.student.copy(), grad, config.gamma)
            expected = ema_update(TeacherStudentPair(pair.teacher.copy(), student, pair.alpha))

            assert 0 < stats.selected < stats.total, ablations
            assert stats.selected == sum(int(m.sum()) for m in masks)
            assert stats.loss == loss
            assert not params_equal(student, pair.student)
            assert params_equal(stepped.student, expected.student)
            assert params_equal(stepped.teacher, expected.teacher)

    def test_dropout_zero_is_a_fixed_point(self, vocab):
        """Pins the default-config behaviour: a fresh pair (teacher == student)
        gets soft targets equal to the student's own output, so without word
        dropout the student does not move. A change that breaks this fixed
        point must update this test on purpose."""
        corpus = noisy_corpus(vocab)
        for dropout in (0.0, 0.25):
            config = ScdlConfig(**FAST, delta=0.5, student_word_dropout=dropout)
            pair = self._pair(config, corpus, vocab)
            student = pair.student.copy()
            stepped, stats = self_denoise_step(
                pair, corpus[:8], "noisy_i", config, vocab, dropout_rng=np.random.default_rng(0)
            )
            assert stats.selected > 0
            assert params_equal(stepped.student, student) == (dropout == 0.0)

    def test_id_dropout_equals_per_sentence_draws(self, vocab):
        """Blanking ids to the padding bucket with one draw per batch equals
        blanking each sentence's ids with one draw per sentence."""
        corpus = noisy_corpus(vocab)
        batch = corpus[:8]
        config = ScdlConfig(
            **FAST,
            student_word_dropout=0.3,
            ablations=frozenset({"no_consistency", "no_confidence"}),
        )
        p, _ = pretrain(config, corpus, vocab)
        _, g = loss_hard(p, corpus[8:24], "noisy_i")
        pair = TeacherStudentPair(p, sgd_step(p.copy(), g, 2.0), 0.9)
        before = TeacherStudentPair(pair.teacher.copy(), pair.student.copy(), pair.alpha)
        stepped, stats = self_denoise_step(
            pair, batch, "noisy_i", config, vocab, dropout_rng=np.random.default_rng(4)
        )

        rng = np.random.default_rng(4)
        clean = encode(batch, config.hash_buckets)
        drop = np.concatenate([rng.random(len(s)) < 0.3 for s in batch])
        blanked = TokenBatch(np.where(drop, PAD_BUCKET, clean.ids), clean.offsets, clean.buckets)
        assert drop.any()
        dists = forward(before.teacher, batch)
        loss, grad = loss_soft(before.student, blanked, dists, np.ones(len(dists), dtype=bool))
        assert stats.loss == loss
        assert params_equal(stepped.student, sgd_step(before.student, grad, config.gamma))

    def test_writes_into_and_returns_the_pair(self, vocab):
        """Dropout and partial masks: the step writes into the pair's own
        buffers and returns the pair, whose bytes equal the composed oracle's
        (selection -> blanked ids -> loss_soft -> SGD -> EMA) run on copies."""
        corpus = noisy_corpus(vocab)
        config = ScdlConfig(**FAST, delta=0.6, student_word_dropout=0.25)
        p, _ = pretrain(config, corpus, vocab)
        _, g = loss_hard(p, corpus[8:24], "noisy_i")
        pair = TeacherStudentPair(p, sgd_step(p.copy(), g, 2.0), 0.9)
        teacher, student = pair.teacher.copy(), pair.student.copy()
        batch = encode(corpus[:8], config.hash_buckets)

        noisy, dists = batch.track("noisy_i"), forward(teacher, batch)
        mask = consistent_mask(noisy, labels_from_dists(dists, vocab, batch.offsets))
        mask &= confident_mask(dists, config.delta)
        drop = np.random.default_rng(2).random(len(noisy)) < config.student_word_dropout
        blanked = TokenBatch(np.where(drop, PAD_BUCKET, batch.ids), batch.offsets, batch.buckets)
        loss, grad = loss_soft(student, blanked, dists, mask)
        stepped = sgd_step(student.copy(), grad, config.gamma)
        expected = ema_update(TeacherStudentPair(teacher, stepped, 0.9))

        buffers = [id(b) for b in pair.teacher.blocks() + pair.student.blocks()]
        models = (pair.teacher, pair.student)
        live, stats = self_denoise_step(
            pair, batch, "noisy_i", config, vocab, dropout_rng=np.random.default_rng(2)
        )
        assert 0 < stats.selected < stats.total
        assert (stats.selected, stats.total, stats.loss) == (int(mask.sum()), len(noisy), loss)
        assert live is pair and (live.teacher, live.student) == models
        assert [id(b) for b in live.teacher.blocks() + live.student.blocks()] == buffers
        assert same_bits(live.teacher, expected.teacher) and same_bits(live.student, expected.student)
        assert not params_equal(live.student, student)  # the student moved

    def test_non_finite_teacher_probabilities_raise(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab)
        pair.teacher.out_b[0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="non-finite tag probabilities from the teacher on noisy_i"):
                self_denoise_step(pair, corpus[:8], "noisy_i", config, vocab)

    def test_dropout_needs_a_generator(self, vocab):
        config = ScdlConfig(**FAST, student_word_dropout=0.25)
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab)
        with pytest.raises(ValueError, match="dropout_rng"):
            self_denoise_step(pair, corpus[:8], "noisy_i", config, vocab)

    def test_empty_batch(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        pair = self._pair(config, corpus, vocab)
        with pytest.raises(ValueError):
            self_denoise_step(pair, [], "noisy_i", config, vocab)


def track_snapshot(corpus):
    return [[list(s.track(t)) for t in AnnotatedSentence.TRACKS] for s in corpus]


def fresh_state(config, corpus, vocab, p1, p2):
    return TrainState(
        pair1=TeacherStudentPair(p1.copy(), p1.copy(), 0.9),
        pair2=TeacherStudentPair(p2.copy(), p2.copy(), 0.9),
        corpus=encode(corpus, config.hash_buckets),
        tokens=[t for s in corpus for t in s.tokens],
    )


def peer_predictions(state, vocab):
    """Each noisy track's labels from its peer's teacher, as `train` passes them."""
    return {
        "noisy_i": predict_labels(state.pair2.teacher, state.corpus, vocab),
        "noisy_ii": predict_labels(state.pair1.teacher, state.corpus, vocab),
    }


class TestCollaborativeUpdate:
    def test_tracks_become_peer_teacher_predictions(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        before = track_snapshot(corpus)
        p1, p2 = pretrain(config, corpus, vocab)
        state = fresh_state(config, corpus, vocab, p1, p2)
        tracks, gold = dict(state.corpus.tracks), state.corpus.track("gold").copy()
        predicted = peer_predictions(state, vocab)
        collaborative_update(state, predicted)
        batch = encode(corpus, config.hash_buckets)
        assert [s.noisy_i for s in state.sentences] == per_sentence(batch, predict_labels(p2, batch, vocab))
        assert [s.noisy_ii for s in state.sentences] == per_sentence(batch, predict_labels(p1, batch, vocab))
        assert state.corpus.track("noisy_i").tolist() == [
            c for s in state.sentences for c in s.noisy_i
        ]
        for track in TRACKS:  # written into the arrays network 2's process shares
            assert state.corpus.tracks[track] is tracks[track]
            assert np.array_equal(tracks[track], predicted[track])
        assert np.array_equal(state.corpus.track("gold"), gold)
        assert track_snapshot(corpus) == before  # the caller's corpus is not mutated

    def test_idempotent_for_fixed_teachers(self, vocab):
        """Teachers predict from the tokens alone, so a second rewrite with the
        same teachers changes nothing."""
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        p1, p2 = pretrain(config, corpus, vocab)
        state = fresh_state(config, corpus, vocab, p1, p2)
        collaborative_update(state, peer_predictions(state, vocab))
        first = [s.noisy_i for s in state.sentences]
        collaborative_update(state, peer_predictions(state, vocab))
        assert [s.noisy_i for s in state.sentences] == first


class TestTrainState:
    def test_sentences_split_the_flat_tracks(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        result = train(config, corpus, make_synthetic_corpus(24, vocab, seed=999), vocab)
        state = result.state
        sentences = state.sentences
        assert len(sentences) == len(corpus)
        for s, original in zip(sentences, corpus):
            assert s.tokens == original.tokens and s.tokens is not original.tokens
        for name in AnnotatedSentence.TRACKS:
            assert [s.track(name) for s in sentences] == per_sentence(state.corpus, state.corpus.track(name))

    def test_sentences_built_on_each_access(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab, n=8)
        p1, p2 = pretrain(config, corpus, vocab)
        state = fresh_state(config, corpus, vocab, p1, p2)
        flat = state.corpus.track("noisy_i").copy()
        state.sentences[0].noisy_i[0] = 99
        assert state.sentences[0].noisy_i[0] != 99
        assert np.array_equal(state.corpus.track("noisy_i"), flat)

    def test_editing_returned_tokens_changes_nothing(self, vocab):
        corpus = noisy_corpus(vocab, n=8)
        tokens = [list(s.tokens) for s in corpus]
        result = train(ScdlConfig(**FAST), corpus, make_synthetic_corpus(8, vocab, seed=999), vocab)
        result.state.sentences[0].tokens.append("x")
        assert [s.tokens for s in corpus] == tokens
        assert [s.tokens for s in result.state.sentences] == tokens

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
    def test_editing_the_callers_tokens_changes_nothing(self, vocab, monkeypatch, fork):
        """`train` keeps its own copy of the tokens, so the caller may edit its
        token lists afterwards and `result.state.sentences` stays whole."""
        if not fork:
            monkeypatch.setattr(training, "_can_fork", lambda: False)
        corpus = noisy_corpus(vocab, n=8)
        tokens = [list(s.tokens) for s in corpus]
        result = train(ScdlConfig(**FAST), corpus, make_synthetic_corpus(8, vocab, seed=999), vocab)
        corpus[0].tokens.append("x")
        corpus[1].tokens[0] = "y"
        assert [s.tokens for s in result.state.sentences] == tokens
        assert isinstance(result.state.tokens[0], str)

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    @pytest.mark.parametrize("which, track", [("training", "noisy_ii"), ("dev", "gold")])
    def test_reassigned_track_fails_naming_its_sentence(self, vocab, which, track, extra):
        """A track reassigned one tag too long or too short fails before any
        training, naming its sentence and track, instead of shifting labels."""
        corpora = {"training": noisy_corpus(vocab, n=8), "dev": make_synthetic_corpus(8, vocab, seed=999)}
        s = corpora[which][3]
        tags = s.track(track)
        setattr(s, track, tags + [0] if extra > 0 else tags[:-1])
        message = f"sentence 3: {track} has {len(s) + extra} tags for {len(s)} tokens"
        with pytest.raises(ValueError, match=message):
            train(ScdlConfig(**FAST), corpora["training"], corpora["dev"], vocab)

    def test_ema_masks_are_live_on_both_schedules(self, vocab, monkeypatch):
        """Each pair's EMA mask is in shared memory, so `result.state` reads
        network 2's, marked in its forked process, as it reads it when network
        2 trains here; with dropout some rows still move and some settled."""
        config = ScdlConfig(**{**FAST, "max_epochs": 2}, delta=0.6, student_word_dropout=0.25)
        corpus, dev = noisy_corpus(vocab), make_synthetic_corpus(8, vocab, seed=999)
        forked = train(config, corpus, dev, vocab).state
        monkeypatch.setattr(training, "_can_fork", lambda: False)
        serial = train(config, corpus, dev, vocab).state
        for a, b in ((forked.pair1, serial.pair1), (forked.pair2, serial.pair2)):
            assert np.array_equal(a.moving, b.moving)
            assert 0 < np.count_nonzero(a.moving) < config.hash_buckets

    def test_missing_track_is_none(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab, n=8)
        p1, p2 = pretrain(config, corpus, vocab)
        corpus[0].gold = None  # so the batch carries no gold track
        state = TrainState(
            TeacherStudentPair(p1.copy(), p1.copy(), 0.9),
            TeacherStudentPair(p2.copy(), p2.copy(), 0.9),
            encode(corpus, config.hash_buckets),
            [t for s in corpus for t in s.tokens],
        )
        assert all(s.gold is None for s in state.sentences)
        assert [s.noisy_ii for s in state.sentences] == [s.noisy_ii for s in corpus]


class TestSelectBest:
    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
    @pytest.mark.parametrize(
        "table, best",
        [
            # a tie at step 0 goes to the first in MODEL_ORDER; equal later scores keep it
            ({0: (3, 5, 5, 1), 1: (2, 4, 5, 5), 2: (5, 5, 5, 5), 3: (1, 1, 1, 1)}, ("student1", 0)),
            # a strictly higher score replaces it, the first of that step's equals
            ({0: (3, 5, 5, 1), 1: (2, 4, 5, 5), 2: (6, 4, 6, 6), 3: (6, 6, 6, 6)}, ("teacher1", 2)),
        ],
        ids=["equal-keeps", "higher-replaces"],
    )
    def test_first_maximum_in_model_order_at_the_earliest_step(self, vocab, monkeypatch, table, best, fork):
        """`train` keeps the first maximal dev F1 in MODEL_ORDER and replaces
        it only with a strictly higher one at a later step; `best_params` is
        that model at that step, though training goes on moving the live one.
        Each epoch's F1s (tenths, in MODEL_ORDER) are planted in `evaluate_models`,
        which runs in network 2's forked process too."""
        if not fork:
            monkeypatch.setattr(training, "_can_fork", lambda: False)
        elif not training._can_fork():
            pytest.skip("network 2 trains in the caller here")
        config = ScdlConfig(**{**FAST, "max_epochs": 3}, delta=0.6, student_word_dropout=0.25)
        corpus = noisy_corpus(vocab)
        per_epoch = math.ceil(len(corpus) / config.batch_size)

        def planted(models, dev, vocab, where):
            epoch = int(where.removeprefix("at step ")) // per_epoch
            return {name: SpanScore(table[epoch][MODEL_ORDER.index(name)], 10, 10) for name in models}

        kept = {}

        def keep(epoch, state):
            kept[epoch] = {name: p.copy() for name, p in state.models().items()}

        monkeypatch.setattr(training, "evaluate_models", planted)
        result = train(config, corpus, make_synthetic_corpus(8, vocab, seed=999), vocab, epoch_callback=keep)
        name, epoch = best
        assert result.best_model == name
        assert result.best_f1 == SpanScore(table[epoch][MODEL_ORDER.index(name)], 10, 10).f1
        assert same_bits(result.best_params, kept[epoch][name])
        assert not params_equal(result.state.models()[name], result.best_params)

    def test_models_in_model_order(self, vocab):
        p1, p2 = pretrain(ScdlConfig(**FAST), noisy_corpus(vocab), vocab)
        state = TrainState(
            TeacherStudentPair(p1.copy(), p1.copy(), 0.9),
            TeacherStudentPair(p2.copy(), p2.copy(), 0.9),
            encode([], 512),
            [],
        )
        models = state.models()
        assert tuple(models) == MODEL_ORDER
        assert models["teacher1"] is state.pair1.teacher
        assert models["student2"] is state.pair2.student


class TestBatches:
    def test_covers_everything_once(self):
        order = np.arange(10)
        batches = list(_batches(order, 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_step_views_equal_a_take_per_batch(self, vocab, monkeypatch):
        """Every batch pretrain and train step over, read from one gather per
        epoch or segment, equals that batch's own `take` when the step runs:
        ids, offsets, every track and the stepping network's window rows.
        45 sentences make 3 batches an epoch, the last of 13; update_cycle=2
        ends some segments mid-epoch. The networks' windows differ."""
        config = ScdlConfig(**{**FAST, "max_epochs": 2, "update_cycle": 2, "net2_window": 2}, delta=0.6)
        monkeypatch.setattr(training, "_FORK", None)  # both networks gather here
        gathered, windows, original = [], set(), training._gathered

        def checked(corpus, batches, model):
            views = original(corpus, batches, model)
            window = model.config.window
            gathered.append([len(b) for b in batches])
            for batch, view in zip(batches, views, strict=True):
                expected = corpus.take(batch)
                assert np.array_equal(view.ids, expected.ids)
                assert np.array_equal(view.offsets, expected.offsets)
                assert list(view.tracks) == list(expected.tracks) == ["gold", *TRACKS]
                for name, tags in expected.tracks.items():
                    assert np.array_equal(view.track(name), tags)
                assert np.array_equal(view.context_ids(window), expected.context_ids(window))
            windows.add(window)
            return views

        monkeypatch.setattr(training, "_gathered", checked)
        train(config, noisy_corpus(vocab, n=45), make_synthetic_corpus(8, vocab, seed=999), vocab)
        pretrain_epochs = [[16, 16, 13]] * 2 * config.pretrain_epochs  # each network's epochs
        segments = [[16, 16], [13], [16], [16, 13]]  # to steps 2 (rewrite), 3 (epoch end), 4, 6
        assert gathered == pretrain_epochs + [s for s in segments for _ in range(2)]
        assert windows == {1, 2}

    def test_gathered_batches_carry_only_their_networks_window(self, vocab, monkeypatch):
        """With both networks in this process and different windows, every batch
        a network gathers carries its own window table and not its peer's."""
        config = ScdlConfig(**FAST)  # net2_window=2, net1_window=1
        monkeypatch.setattr(training, "_can_fork", lambda: False)
        carried, original = [], training._gathered

        def recorded(corpus, batches, model):
            views = original(corpus, batches, model)
            carried.extend((model.config.window, sorted(view._windows)) for view in views)
            return views

        monkeypatch.setattr(training, "_gathered", recorded)
        train(config, noisy_corpus(vocab), make_synthetic_corpus(8, vocab, seed=999), vocab)
        assert {window for window, _ in carried} == {1, 2}
        assert all(windows == [window] for window, windows in carried), carried


class TestTrain:
    def _dev(self, vocab, n=24):
        return make_synthetic_corpus(n, vocab, seed=999)

    @pytest.mark.parametrize("fork", [True, False])
    def test_train_names_the_network_and_step_of_a_non_finite_loss(self, vocab, monkeypatch, fork):
        """A NaN planted in student1's output bias after the step-0 scoring
        leaves the teacher's probabilities finite, so the loss check of the
        first step fails; `train` names the network and the step."""
        if not fork:
            monkeypatch.setattr(training, "_FORK", None)

        def plant(epoch, state):
            if epoch == 0:
                state.pair1.student.out_b[0] = np.nan

        config = ScdlConfig(**FAST, delta=0.5)
        expected = r"^non-finite loss nan during self denoising \(net1 at step 1\)$"
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=expected):
            train(config, noisy_corpus(vocab), self._dev(vocab), vocab, epoch_callback=plant)
        assert not multiprocessing.active_children()

    def test_degeneracy_matches_direct_loop(self, vocab):
        """All ablations on reduce the pipeline to plain noisy supervision."""
        config = ScdlConfig(**FAST, ablations=frozenset(ABLATIONS))
        corpus = noisy_corpus(vocab, n=64)
        dev = self._dev(vocab)
        result = train(config, corpus, dev, vocab)

        # direct re-implementation sharing the permutation stream
        rng = np.random.default_rng(config.seed)
        cfg1, cfg2 = config.tagger_configs(vocab.size)
        p1, p2 = init_params(cfg1), init_params(cfg2)
        for _ in range(config.pretrain_epochs):
            order = rng.permutation(len(corpus))
            for idx in _batches(order, config.batch_size):
                batch = [corpus[i] for i in idx]
                _, g1 = loss_hard(p1, batch, "noisy_i")
                p1 = sgd_step(p1, g1, config.gamma)
                _, g2 = loss_hard(p2, batch, "noisy_ii")
                p2 = sgd_step(p2, g2, config.gamma)
        for _ in range(config.max_epochs):
            order = rng.permutation(len(corpus))
            for idx in _batches(order, config.batch_size):
                batch = [corpus[i] for i in idx]
                _, g1 = loss_hard(p1, batch, "noisy_i")
                p1 = sgd_step(p1, g1, config.gamma)

        assert params_equal(result.state.pair1.student, p1)
        assert params_equal(result.state.pair1.teacher, p1)  # no_teachers copies
        assert params_equal(result.state.pair2.student, p2)  # single_network idle

    @pytest.mark.parametrize("update_cycle", [5, 1, 2])
    def test_in_place_run_equals_pure_reference_loop(self, vocab, update_cycle):
        """train, which updates its models in place and rewrites only the next
        segment's sentences where another rewrite follows within the epoch
        (update_cycle 1 and 2 of 3-step epochs), against a serial loop of the
        step functions on its own models that rewrites whole tracks: the same
        final models, tracks, selections and history, bit for bit."""
        config = ScdlConfig(
            **{**FAST, "max_epochs": 4, "update_cycle": update_cycle}, delta=0.6, student_word_dropout=0.25
        )
        corpus = noisy_corpus(vocab)
        dev_corpus = self._dev(vocab)
        result = train(config, corpus, dev_corpus, vocab)

        rng = np.random.default_rng(config.seed)
        flat = encode(corpus, config.hash_buckets)
        dev = encode(dev_corpus, config.hash_buckets)
        nets = [init_params(c) for c in config.tagger_configs(vocab.size)]
        for _ in range(config.pretrain_epochs):
            for idx in _batches(rng.permutation(len(corpus)), config.batch_size):
                batch = flat.take(idx)
                for k, track in enumerate(TRACKS):
                    nets[k] = sgd_step(nets[k], loss_hard(nets[k], batch, track)[1], config.gamma)
        pairs = [TeacherStudentPair(q.copy(), q.copy(), config.alpha) for q in nets]
        drop_rngs = [np.random.default_rng([config.seed, k]) for k in (1, 2)]
        history, selections, step, rewrites = [], [], 0, 0

        def record():
            models = (pairs[0].teacher, pairs[0].student, pairs[1].teacher, pairs[1].student)
            for name, model in zip(MODEL_ORDER, models):
                s = score_tags(predict_labels(model, dev, vocab), dev.track("gold"), vocab, dev.offsets)
                history.append(CurvePoint(step, name, "dev", s.precision, s.recall, s.f1))

        record()
        for _ in range(config.max_epochs):
            for idx in _batches(rng.permutation(len(corpus)), config.batch_size):
                batch = flat.take(idx)
                step += 1
                for k in range(2):
                    pairs[k], stats = self_denoise_step(
                        pairs[k], batch, TRACKS[k], config, vocab, drop_rngs[k]
                    )
                    selections.append((step, f"net{k + 1}", stats.selected, stats.total))
                if step % config.update_cycle == 0:
                    rewrites += 1
                    noisy_i = predict_labels(pairs[1].teacher, flat, vocab)
                    flat.tracks["noisy_ii"] = predict_labels(pairs[0].teacher, flat, vocab)
                    flat.tracks["noisy_i"] = noisy_i
            record()

        assert rewrites >= 1
        assert any(0 < sel < total for _, _, sel, total in selections)
        assert result.selection_trace == selections
        assert result.history == history
        models = (pairs[0].teacher, pairs[0].student, pairs[1].teacher, pairs[1].student)
        for live, reference in zip(result.state.models().values(), models):
            assert same_bits(live, reference)
        for track in TRACKS:
            assert np.array_equal(result.state.corpus.tracks[track], flat.tracks[track])

    def test_best_params_survive_later_steps(self, vocab):
        """The best model is copied out of the buffers that training keeps writing."""
        config = ScdlConfig(**{**FAST, "max_epochs": 3}, delta=0.6, student_word_dropout=0.25)
        kept = {}

        def keep(epoch, state):
            kept[epoch] = {name: p.copy() for name, p in state.models().items()}

        result = train(config, noisy_corpus(vocab), self._dev(vocab), vocab, epoch_callback=keep)
        steps = sorted({p.step for p in result.history})
        best_step = next(
            p.step for p in result.history
            if p.model == result.best_model and p.f1 == result.best_f1
        )
        best_epoch = steps.index(best_step)
        assert best_epoch < config.max_epochs  # training ran past the best step
        assert same_bits(result.best_params, kept[best_epoch][result.best_model])
        final = result.state.models()[result.best_model]
        assert not params_equal(final, result.best_params)
        for pair in (result.state.pair1, result.state.pair2):
            for t, s in zip(pair.teacher.blocks(), pair.student.blocks()):
                assert not np.shares_memory(t, s)

    def test_corpus_not_mutated(self, vocab):
        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        corpus = noisy_corpus(vocab)
        snapshot = track_snapshot(corpus)
        result = train(config, corpus, self._dev(vocab), vocab)
        assert [s.noisy_i for s in result.state.sentences] != [s.noisy_i for s in corpus]
        assert track_snapshot(corpus) == snapshot

    def test_history_and_refinery_shapes(self, vocab):
        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        result = train(config, noisy_corpus(vocab), self._dev(vocab), vocab)
        steps = sorted({p.step for p in result.history})
        assert len(steps) == 3  # step 0 plus two epoch ends
        assert len(result.history) == 4 * len(steps)
        assert {p.model for p in result.history} == set(MODEL_ORDER)
        assert len(result.refinery) == 2 * len(steps)
        assert result.best_model in MODEL_ORDER
        assert 0.0 <= result.best_f1 <= 1.0

    def test_selection_trace_bounds(self, vocab):
        config = ScdlConfig(**FAST)
        result = train(config, noisy_corpus(vocab), self._dev(vocab), vocab)
        assert result.selection_trace
        for _, net, selected, total in result.selection_trace:
            assert net in ("net1", "net2")
            assert 0 <= selected <= total

    def test_deterministic(self, vocab):
        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        dev = self._dev(vocab)
        a = train(config, corpus, dev, vocab)
        b = train(config, corpus, dev, vocab)
        assert a.best_f1 == b.best_f1
        assert params_equal(a.best_params, b.best_params)
        assert [s.noisy_i for s in a.state.sentences] == [
            s.noisy_i for s in b.state.sentences
        ]

    def test_no_teachers_keeps_pairs_identical(self, vocab):
        config = ScdlConfig(**FAST, ablations=frozenset({"no_teachers"}))
        result = train(config, noisy_corpus(vocab), self._dev(vocab), vocab)
        assert params_equal(result.state.pair1.teacher, result.state.pair1.student)

    def test_single_network_never_rewrites(self, vocab):
        config = ScdlConfig(**FAST, ablations=frozenset({"single_network"}))
        corpus = noisy_corpus(vocab)
        result = train(config, corpus, self._dev(vocab), vocab)
        assert [s.noisy_i for s in result.state.sentences] == [s.noisy_i for s in corpus]
        assert [s.noisy_ii for s in result.state.sentences] == [s.noisy_ii for s in corpus]

    def test_update_cycle_triggers_rewrites(self, vocab):
        corpus = noisy_corpus(vocab)
        dev = self._dev(vocab)
        with_rewrites = train(ScdlConfig(**{**FAST, "max_epochs": 2}), corpus, dev, vocab)
        assert [s.noisy_i for s in with_rewrites.state.sentences] != [
            s.noisy_i for s in corpus
        ]

    def test_auto_update_cycle_is_seven_epochs(self, vocab):
        # with max_epochs=1 the derived cycle is never reached: no rewrite
        config = ScdlConfig(**{**FAST, "update_cycle": 0})
        corpus = noisy_corpus(vocab)
        result = train(config, corpus, self._dev(vocab), vocab)
        assert [s.noisy_i for s in result.state.sentences] == [s.noisy_i for s in corpus]

    def test_requires_gold_dev(self, vocab):
        from scdl.corpus import AnnotatedSentence

        config = ScdlConfig(**FAST)
        with pytest.raises(ValueError):
            train(config, noisy_corpus(vocab), [], vocab)
        with pytest.raises(ValueError):
            train(config, noisy_corpus(vocab), [AnnotatedSentence(["a"])], vocab)

    def test_requires_gold_train_before_pretraining(self, vocab, monkeypatch):
        import scdl.training as training

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(training, "pretrain", no_pretraining)
        corpus = noisy_corpus(vocab)
        corpus[3].gold = None
        with pytest.raises(ValueError, match="^sentence 3: no gold track$"):
            train(ScdlConfig(**FAST), corpus, self._dev(vocab), vocab)

    @pytest.mark.parametrize("pretrain_epochs", [0, 1])
    @pytest.mark.parametrize("track", TRACKS)
    def test_requires_noisy_tracks_before_training(self, vocab, track, pretrain_epochs):
        """Named before any network trains, with or without pretraining."""
        corpus = noisy_corpus(vocab)
        setattr(corpus[3], track, None)
        config = ScdlConfig(**{**FAST, "pretrain_epochs": pretrain_epochs})
        with pytest.raises(ValueError, match=f"^sentence 3: no {track} track$"):
            train(config, corpus, self._dev(vocab), vocab)
        assert not multiprocessing.active_children()

    def test_epoch_callback_sees_every_epoch(self, vocab):
        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        seen = []
        train(
            config,
            noisy_corpus(vocab),
            self._dev(vocab),
            vocab,
            epoch_callback=lambda epoch, state: seen.append(epoch),
        )
        assert seen == [0, 1, 2]


def _train_in(conn, *args):
    result = train(*args)
    conn.send((result.best_f1, result.history, result.selection_trace))
    conn.close()


class TestPeer:
    """Network 2 in a forked child: serial results, serial errors, no process left."""

    def _dev(self, vocab):
        return make_synthetic_corpus(24, vocab, seed=999)

    def _assert_same_run(self, a, b):
        assert a.selection_trace == b.selection_trace
        assert a.history == b.history and a.refinery == b.refinery
        for x, y in zip(a.state.models().values(), b.state.models().values()):
            assert same_bits(x, y)
        for track in TRACKS:
            assert np.array_equal(a.state.corpus.tracks[track], b.state.corpus.tracks[track])

    def test_without_fork_equals_forked(self, vocab, monkeypatch):
        """Where the platform cannot fork, network 2 runs in the caller after
        network 1, with the same bits. With 3 steps an epoch and
        update_cycle=2, segments end at a rewrite (steps 2, 4, 8), at an
        epoch end (3, 9) and at both (6)."""
        config = ScdlConfig(**{**FAST, "max_epochs": 3, "update_cycle": 2}, delta=0.6, student_word_dropout=0.25)
        corpus, dev = noisy_corpus(vocab), self._dev(vocab)
        forked = train(config, corpus, dev, vocab)
        monkeypatch.setattr(training, "_FORK", None)
        serial = train(config, corpus, dev, vocab)
        self._assert_same_run(forked, serial)

    def test_tracks_change_only_after_both_replies(self, vocab, monkeypatch):
        """Network 1 sleeps before each of its steps in the caller, so the child
        has predicted its teacher's labels for noisy_i long before network 1,
        which reads noisy_i, ends the segment. The run still equals the
        serial one."""
        config = ScdlConfig(**{**FAST, "max_epochs": 3, "update_cycle": 2}, delta=0.6, student_word_dropout=0.25)
        corpus, dev = noisy_corpus(vocab), self._dev(vocab)
        pid, original = os.getpid(), training.self_denoise_step

        def slow_in_caller(*args, **kwargs):
            if os.getpid() == pid:
                time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "self_denoise_step", slow_in_caller)
        slowed = train(config, corpus, dev, vocab)
        monkeypatch.setattr(training, "self_denoise_step", original)
        monkeypatch.setattr(training, "_FORK", None)
        self._assert_same_run(slowed, train(config, corpus, dev, vocab))

    @pytest.mark.parametrize("fork", [True, False])
    def test_pretrain_raises_the_first_failure_in_serial_order(self, vocab, monkeypatch, fork):
        """Network 2's loss goes non-finite at batch 0; network 1's NaN sits in
        a row no token hashes to, so only its end-of-epoch check sees it. A
        serial run stops at network 2's loss."""
        from scdl.tagger import token_ids

        config = ScdlConfig(**FAST)
        corpus = noisy_corpus(vocab)
        used = set(token_ids([t for s in corpus for t in s.tokens], config.hash_buckets).tolist())
        unused = min(set(range(1, config.hash_buckets)) - used)
        hashed = min(used - {0})
        net2_dim = config.net2_embed_dim
        original = training.init_params

        def poisoned(tagger_config):
            params = original(tagger_config)
            row = hashed if tagger_config.embed_dim == net2_dim else unused
            params.embedding[row, 0] = np.nan
            return params

        monkeypatch.setattr(training, "init_params", poisoned)
        if not fork:
            monkeypatch.setattr(training, "_FORK", None)
        with pytest.raises(TrainingDiverged, match=r"^non-finite loss nan during pretrain epoch 0 \(net2\)$"):
            pretrain(config, corpus, vocab)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize(
        "net1_step, net2_step, expected",
        [(3, 2, "net2 at step 2"), (2, 2, "net1 at step 2"), (None, 6, "net2 at step 6")],
    )
    def test_train_raises_the_first_failure_in_serial_order(
        self, vocab, monkeypatch, net1_step, net2_step, expected, fork
    ):
        if not fork:
            monkeypatch.setattr(training, "_FORK", None)
        original = training.self_denoise_step
        fail_at = {"noisy_i": net1_step, "noisy_ii": net2_step}
        calls = {"noisy_i": 0, "noisy_ii": 0}

        def failing(pair, batch, track, *args, **kwargs):
            calls[track] += 1  # counted in the process that runs this network
            if calls[track] == fail_at[track]:
                raise TrainingDiverged("synthetic failure")
            return original(pair, batch, track, *args, **kwargs)

        monkeypatch.setattr(training, "self_denoise_step", failing)
        config = ScdlConfig(**{**FAST, "max_epochs": 2})  # steps 1-3 | 4-5, rewrite | 6
        # `train` names the network and step of a failed denoising step
        with pytest.raises(TrainingDiverged, match=rf"^synthetic failure \({expected}\)$"):
            train(config, noisy_corpus(vocab), self._dev(vocab), vocab)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize(
        "poisoned, net2_step, expected",
        [
            (("teacher1", "teacher2"), None, r"non-finite parameter in teacher1\.embedding at step 6"),
            (("teacher2",), None, r"non-finite parameter in teacher2\.embedding at step 6"),
            (("teacher1",), 6, "net2 at step 6"),
        ],
    )
    def test_epoch_end_failures_in_serial_order(
        self, vocab, monkeypatch, poisoned, net2_step, expected, fork
    ):
        """NaNs planted after epoch 1 in an embedding row no token hashes to
        are seen only by the parameter checks at the end of epoch 2 (step 6).
        teacher1's is reported before teacher2's, and a failure of network 2's
        last step in the epoch, named by `train`, before either."""
        from scdl.tagger import token_ids

        if not fork:
            monkeypatch.setattr(training, "_FORK", None)
        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        corpus, dev = noisy_corpus(vocab), self._dev(vocab)
        tokens = [t for s in corpus + dev for t in s.tokens]
        unused = min(set(range(1, config.hash_buckets)) - set(token_ids(tokens, config.hash_buckets).tolist()))
        original, calls = training.self_denoise_step, {"noisy_i": 0, "noisy_ii": 0}

        def failing(pair, batch, track, *args, **kwargs):
            calls[track] += 1  # counted in the process that runs this network
            if track == "noisy_ii" and calls[track] == net2_step:
                raise TrainingDiverged("synthetic failure")
            return original(pair, batch, track, *args, **kwargs)

        def plant(epoch, state):
            if epoch == 1:
                for name in poisoned:
                    state.models()[name].embedding[unused, 0] = np.nan

        monkeypatch.setattr(training, "self_denoise_step", failing)
        if net2_step is not None:
            expected = rf"synthetic failure \({expected}\)"
        with pytest.raises(TrainingDiverged, match=f"^{expected}$"):
            train(config, corpus, dev, vocab, epoch_callback=plant)
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not training._can_fork(), reason="network 2 trains in the caller here")
    @pytest.mark.parametrize("target", ["self_denoise_step", "loss_hard", "evaluate_models"])
    def test_child_death_raises_child_process_error(self, vocab, monkeypatch, target):
        pid = os.getpid()
        original = getattr(training, target)

        def dying(*args, **kwargs):
            if os.getpid() != pid:
                os._exit(3)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, target, dying)
        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="exited with code 3 without replying"):
            train(ScdlConfig(**FAST), noisy_corpus(vocab), self._dev(vocab), vocab)
        assert time.monotonic() - start < 60
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not training._can_fork(), reason="network 2 trains in the caller here")
    def test_child_killed_between_segments_is_named(self, vocab):
        """A child that dies while the caller scores or checkpoints fails the
        next segment's send, with the same message as a failed reply."""

        def kill_network_2(epoch, state):
            if epoch == 1:
                [child] = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                child.join()

        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        with pytest.raises(ChildProcessError, match="^network 2's process exited with code -9 without replying$"):
            train(config, noisy_corpus(vocab), self._dev(vocab), vocab, epoch_callback=kill_network_2)
        assert not multiprocessing.active_children()

    def _raise_in_callback(self, error):
        def callback(epoch, state):
            if epoch == 1:
                raise error

        return callback

    @pytest.mark.skipif(training._FORK is None, reason="no fork here")
    def test_daemonic_process_trains_network_2_itself(self, vocab):
        """A daemonic multiprocessing worker may start no process, so network 2
        runs in it after network 1, with the same results."""
        args = (ScdlConfig(**{**FAST, "max_epochs": 2}), noisy_corpus(vocab), self._dev(vocab), vocab)
        here, there = training._FORK.Pipe()
        worker = training._FORK.Process(target=_train_in, args=(there, *args), daemon=True)
        worker.start()
        there.close()
        assert here.poll(120)
        got = here.recv()
        worker.join(60)
        assert worker.exitcode == 0
        worker.close()
        here.close()
        expected = train(*args)
        assert got == (expected.best_f1, expected.history, expected.selection_trace)

    @pytest.mark.parametrize("caller", ["threaded", "on one CPU"])
    def test_caller_trains_network_2_itself(self, vocab, monkeypatch, caller):
        """With another thread running, a fork could copy a lock that thread
        holds; on one CPU a second process cannot help. Either way network 2
        runs in the caller, with the same results."""
        args = (ScdlConfig(**{**FAST, "max_epochs": 2}), noisy_corpus(vocab), self._dev(vocab), vocab)

        class NoFork:
            def Pipe(self):
                raise AssertionError(f"a caller {caller} forked")

        monkeypatch.setattr(training, "_FORK", NoFork())
        results = []
        if caller == "threaded":
            worker = threading.Thread(target=lambda: results.append(train(*args)))
            worker.start()
            worker.join(120)
            assert not worker.is_alive()
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            results.append(train(*args))
        monkeypatch.undo()
        expected = train(*args)
        [got] = results
        assert (got.best_f1, got.history, got.selection_trace) == (
            expected.best_f1, expected.history, expected.selection_trace
        )

    def test_single_network_denoises_without_a_child(self, vocab, monkeypatch):
        """Pretraining still trains both networks; denoising then trains
        network 1 alone and starts no process."""

        class NoFork:
            def Pipe(self):
                raise AssertionError("single_network forked")

        original = training.pretrain

        def pretrain_then_no_fork(*args, **kwargs):
            params = original(*args, **kwargs)
            monkeypatch.setattr(training, "_FORK", NoFork())
            return params

        monkeypatch.setattr(training, "pretrain", pretrain_then_no_fork)
        config = ScdlConfig(**{**FAST, "max_epochs": 2}, ablations=frozenset({"single_network"}))
        result = train(config, noisy_corpus(vocab), self._dev(vocab), vocab)
        steps = [step for step, _, _, _ in result.selection_trace]
        assert {net for _, net, _, _ in result.selection_trace} == {"net1"}
        assert steps == list(range(1, result.state.step + 1))

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_cpu_is_one_this_process_may_run_on(self):
        """The child moves off the CPU that `_cpu` names for the caller."""
        assert training._cpu() in os.sched_getaffinity(0)

    @pytest.mark.parametrize("how", ["returns", "diverges", "callback raises", "interrupted"])
    def test_no_child_left(self, vocab, how):
        config = ScdlConfig(**{**FAST, "max_epochs": 2})
        callback, error = None, None
        if how == "diverges":  # in a self-denoising step
            config = replace(
                config,
                pretrain_epochs=0,
                gamma=1e300,
                student_word_dropout=0.5,
                ablations=frozenset({"no_consistency", "no_confidence"}),
            )
            error = TrainingDiverged
        elif how == "callback raises":
            callback, error = self._raise_in_callback(RuntimeError("callback")), RuntimeError
        elif how == "interrupted":
            callback, error = self._raise_in_callback(KeyboardInterrupt()), KeyboardInterrupt
        if error is None:
            train(config, noisy_corpus(vocab), self._dev(vocab), vocab, epoch_callback=callback)
        else:
            with np.errstate(all="ignore"), pytest.raises(error):
                train(config, noisy_corpus(vocab), self._dev(vocab), vocab, epoch_callback=callback)
        assert not multiprocessing.active_children()
