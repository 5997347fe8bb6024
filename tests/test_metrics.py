import numpy as np
import pytest

from scdl.corpus import AnnotatedSentence, TagVocabulary, repair_bio
from scdl.metrics import CurvePoint, SpanScore, emit_curve, refinery_report, score_tags, span_prf1


def brute_force_score(predicted, gold, vocab):
    """Count spans by scanning every (start, end, type) triple directly."""

    def spans(tags):
        found = set()
        n = len(tags)
        for t in vocab.entity_types:
            b, i = vocab.b_code(t), vocab.i_code(t)
            for start in range(n):
                if tags[start] != b:
                    continue
                end = start
                while end + 1 < n and tags[end + 1] == i:
                    end += 1
                found.add((start, end, t))
        return found

    tp = n_pred = n_gold = 0
    for p, g in zip(predicted, gold):
        ps, gs = spans(p), spans(g)
        tp += len(ps & gs)
        n_pred += len(ps)
        n_gold += len(gs)
    return tp, n_pred, n_gold


def random_tag_corpus(rng, vocab, n_sentences=5, max_len=8):
    corpus = []
    for _ in range(n_sentences):
        n = int(rng.integers(0, max_len + 1))
        corpus.append(repair_bio([int(c) for c in rng.integers(0, vocab.size, size=n)], vocab))
    return corpus


class TestSpanScore:
    def test_zero_conventions(self):
        s = SpanScore(0, 0, 0)
        assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0

    def test_perfect(self):
        s = SpanScore(4, 4, 4)
        assert s.precision == 1.0 and s.recall == 1.0 and s.f1 == 1.0

    def test_partial(self):
        s = SpanScore(2, 4, 5)
        assert s.precision == 0.5
        assert s.recall == pytest.approx(0.4)
        assert s.f1 == pytest.approx(2 * 0.5 * 0.4 / 0.9)


class TestSpanPrf1:
    def test_matches_brute_force(self, vocab):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pred = random_tag_corpus(rng, vocab)
            gold = [repair_bio([int(c) for c in rng.integers(0, vocab.size, size=len(p))], vocab)
                    for p in pred]
            score = span_prf1(pred, gold, vocab)
            tp, n_pred, n_gold = brute_force_score(pred, gold, vocab)
            assert (score.true_positives, score.predicted, score.gold) == (tp, n_pred, n_gold)

    def test_swap_symmetry(self, vocab):
        rng = np.random.default_rng(1)
        pred = random_tag_corpus(rng, vocab)
        gold = [repair_bio([int(c) for c in rng.integers(0, vocab.size, size=len(p))], vocab)
                for p in pred]
        a = span_prf1(pred, gold, vocab)
        b = span_prf1(gold, pred, vocab)
        assert a.precision == b.recall
        assert a.recall == b.precision
        assert a.f1 == pytest.approx(b.f1)

    def test_sentence_reorder_invariance(self, vocab):
        rng = np.random.default_rng(2)
        pred = random_tag_corpus(rng, vocab)
        gold = [repair_bio([int(c) for c in rng.integers(0, vocab.size, size=len(p))], vocab)
                for p in pred]
        perm = rng.permutation(len(pred)).tolist()
        a = span_prf1(pred, gold, vocab)
        b = span_prf1([pred[i] for i in perm], [gold[i] for i in perm], vocab)
        assert a == b

    def test_type_must_match(self, vocab):
        pred = [[vocab.b_code("PER")]]
        gold = [[vocab.b_code("LOC")]]
        assert span_prf1(pred, gold, vocab).true_positives == 0

    def test_boundary_must_match(self, vocab):
        b, i = vocab.b_code("PER"), vocab.i_code("PER")
        assert span_prf1([[b, i]], [[b, 0]], vocab).true_positives == 0

    def test_corpus_length_mismatch(self, vocab):
        with pytest.raises(ValueError):
            span_prf1([[0]], [[0], [0]], vocab)

    def test_sentence_length_mismatch(self, vocab):
        with pytest.raises(ValueError):
            span_prf1([[0]], [[0, 0]], vocab)

    def test_offsets_must_end_at_the_tag_count(self, vocab):
        tags = [1, 2, 0]
        assert score_tags(tags, tags, vocab, [0, 2, 3]) == SpanScore(1, 1, 1)
        with pytest.raises(ValueError, match="offsets end at 2 for 3 tags"):
            score_tags(tags, tags, vocab, [0, 2])


class TestRefineryReport:
    def test_scores_track_against_gold(self, vocab):
        b = vocab.b_code("PER")
        s = AnnotatedSentence(["a", "b"], gold=[b, 0], noisy_i=[b, 0], noisy_ii=[0, 0])
        assert refinery_report([s], vocab, "noisy_i").f1 == 1.0
        assert refinery_report([s], vocab, "noisy_ii").f1 == 0.0

    def test_requires_gold(self, vocab):
        s = AnnotatedSentence(["a"], noisy_i=[0])
        with pytest.raises(ValueError):
            refinery_report([s], vocab)


class TestEmitCurve:
    def test_format_and_sorting(self):
        points = [
            CurvePoint(10, "teacher1", "dev", 0.5, 0.25, 1 / 3),
            CurvePoint(0, "teacher1", "dev", 1.0, 1.0, 1.0),
            CurvePoint(0, "student1", "dev", 0.0, 0.0, 0.0),
        ]
        lines = emit_curve(points).splitlines()
        assert lines[0] == "step,model,split,precision,recall,f1"
        assert lines[1] == "0,student1,dev,0.000000,0.000000,0.000000"
        assert lines[2] == "0,teacher1,dev,1.000000,1.000000,1.000000"
        assert lines[3] == "10,teacher1,dev,0.500000,0.250000,0.333333"

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            emit_curve([])
