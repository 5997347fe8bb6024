from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdl.corpus import TagVocabulary
from scdl.denoise import (
    TeacherStudentPair,
    ema_closed_form,
    ema_update,
    select_confident,
    select_consistent,
    token_selection,
)
from scdl.tagger import (
    TaggerConfig,
    TaggerParams,
    init_params,
    labels_from_dists,
    sgd_step,
)

TINY = TaggerConfig(
    num_tags=5, vocab_hash_buckets=8, embed_dim=3, window=0, hidden_dim=4, init_seed=0
)


def random_dists(rng, n, num_tags=5):
    return rng.dirichlet(np.ones(num_tags), size=n)


def random_grads(rng, template, n):
    out = []
    for _ in range(n):
        out.append(
            TaggerParams(
                template.config,
                *[rng.normal(size=b.shape) for b in template.blocks()],
            )
        )
    return out


class TestPair:
    def test_alpha_range(self):
        params = init_params(TINY)
        with pytest.raises(ValueError):
            TeacherStudentPair(params, params, 1.5)

    def test_shape_mismatch(self):
        a = init_params(TINY)
        b = init_params(TaggerConfig(num_tags=5, vocab_hash_buckets=8, embed_dim=4,
                                     window=0, hidden_dim=4, init_seed=0))
        with pytest.raises(ValueError):
            TeacherStudentPair(a, b, 0.9)


class TestSelection:
    def test_consistent_basic(self):
        assert select_consistent([0, 1, 2], [0, 3, 2]) == {0, 2}

    def test_consistent_includes_o(self):
        assert select_consistent([0, 0], [0, 0]) == {0, 1}

    def test_consistent_length_mismatch(self):
        with pytest.raises(ValueError):
            select_consistent([0], [0, 1])

    def test_confident_inclusive_boundary(self):
        dists = np.array([[0.9, 0.025, 0.025, 0.025, 0.025]])
        assert select_confident(dists, 0.9) == {0}

    def test_confident_below_threshold(self):
        dists = np.array([[0.6, 0.1, 0.1, 0.1, 0.1]])
        assert select_confident(dists, 0.9) == set()

    def test_confident_empty_input(self):
        assert select_confident(np.zeros((0, 5)), 0.5) == set()

    def test_confident_delta_validation(self):
        with pytest.raises(ValueError):
            select_confident(np.ones((1, 5)) / 5, 0.0)
        with pytest.raises(ValueError):
            select_confident(np.ones((1, 5)) / 5, 1.1)

    def test_token_selection_is_intersection(self):
        vocab = TagVocabulary(["PER", "LOC"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            dists = random_dists(rng, n)
            noisy = [int(rng.integers(5)) for _ in range(n)]
            delta = float(rng.uniform(0.2, 0.95))
            pseudo = labels_from_dists(dists, vocab)
            expected = select_consistent(noisy, pseudo) & select_confident(dists, delta)
            assert token_selection(noisy, dists, delta, vocab) == expected

    @given(st.integers(0, 10_000), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=200)
    def test_delta_monotone(self, seed, d1, d2):
        lo, hi = sorted((d1, d2))
        rng = np.random.default_rng(seed)
        dists = random_dists(rng, int(rng.integers(0, 8)))
        assert select_confident(dists, hi) <= select_confident(dists, lo)

    @given(st.integers(0, 10_000), st.floats(0.05, 0.95))
    @settings(max_examples=200)
    def test_selection_subset_of_parts(self, seed, delta):
        vocab = TagVocabulary(["PER", "LOC"])
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        dists = random_dists(rng, n)
        noisy = [int(rng.integers(5)) for _ in range(n)]
        sel = token_selection(noisy, dists, delta, vocab)
        pseudo = labels_from_dists(dists, vocab)
        assert sel <= select_consistent(noisy, pseudo)
        assert sel <= select_confident(dists, delta)
        assert sel <= set(range(n))


class TestEma:
    def test_alpha_one_freezes_teacher(self):
        pair = TeacherStudentPair(init_params(TINY), init_params(
            TaggerConfig(num_tags=5, vocab_hash_buckets=8, embed_dim=3, window=0,
                         hidden_dim=4, init_seed=7)), 1.0)
        updated = ema_update(pair)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(updated.teacher.blocks(), pair.teacher.blocks())
        )

    def test_alpha_zero_copies_student(self):
        pair = TeacherStudentPair(init_params(TINY), init_params(
            TaggerConfig(num_tags=5, vocab_hash_buckets=8, embed_dim=3, window=0,
                         hidden_dim=4, init_seed=7)), 0.0)
        updated = ema_update(pair)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(updated.teacher.blocks(), pair.student.blocks())
        )

    def test_convex_combination(self):
        t = init_params(TINY)
        s = init_params(TaggerConfig(num_tags=5, vocab_hash_buckets=8, embed_dim=3,
                                     window=0, hidden_dim=4, init_seed=7))
        t_before, s_before = t.copy(), s.copy()
        updated = ema_update(TeacherStudentPair(t, s, 0.75))
        for new, told, sold in zip(updated.teacher.blocks(), t_before.blocks(), s_before.blocks()):
            assert np.allclose(new, 0.75 * told + 0.25 * sold)

    def test_student_untouched(self):
        params = init_params(TINY)
        pair = TeacherStudentPair(params.copy(), params.copy(), 0.9)
        updated = ema_update(pair)
        assert updated.student is pair.student

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.995, 1.0])
    def test_writes_into_the_teacher(self, alpha):
        rng = np.random.default_rng(5)
        teacher, student = random_grads(rng, init_params(TINY), 2)
        teacher.embedding[0, 0] = -0.0
        student.embedding[0, 0] = 0.0
        pair = TeacherStudentPair(teacher, student, alpha)
        t_before, s_before = teacher.copy(), student.copy()
        buffers = [id(b) for b in teacher.blocks()]
        assert ema_update(pair) is pair
        assert pair.teacher is teacher and pair.student is student
        assert [id(b) for b in pair.teacher.blocks()] == buffers
        for new, old, s in zip(pair.teacher.blocks(), t_before.blocks(), s_before.blocks()):
            assert new.tobytes() == (alpha * old + (1.0 - alpha) * s).tobytes()
        for a, b in zip(student.blocks(), s_before.blocks()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.995, 1.0])
    def test_moving_rows_equal_dense_step_after_step(self, alpha):
        """The masked update against the dense one, bit for bit, over 64 rows
        that start settled (all zero). Row 1's teacher flips from -0.0 to 0.0,
        equal in value but not in bits, and settles a step later; row 2 holds
        a NaN whose bits repeat, so it settles at once. Student rows 4-7 change
        now and then; at step 10 rows 8-27 change, more than an eighth, so the
        whole table is updated and the mask is left as it was; at step 15 row
        3's student turns NaN and every row is marked, which clears the settled
        ones. Every row left unmarked is a fixed point of the next update."""
        rng = np.random.default_rng(9)
        config = replace(TINY, vocab_hash_buckets=64)
        teacher, student = random_grads(rng, init_params(config), 2)
        teacher.embedding[:], student.embedding[:] = 0.0, 0.0
        teacher.embedding[1], teacher.embedding[2, 0] = -0.0, np.nan
        dense = TeacherStudentPair(teacher.copy(), student.copy(), alpha)
        masked = TeacherStudentPair(teacher.copy(), student.copy(), alpha, np.ones(64, dtype=bool))
        moving, paths = masked.moving, set()
        for step in range(30):
            rows = 4 + rng.choice(4, size=int(rng.integers(0, 3)), replace=False)
            if step == 10:
                rows = np.arange(8, 28)
            change = rng.normal(size=(len(rows), config.embed_dim))
            if step == 15:
                rows, change = np.array([3]), np.full((1, config.embed_dim), np.nan)
            for pair in (dense, masked):
                pair.student.embedding[rows] += change
                pair.student.out_b[:] += 0.25
            moving[np.arange(64) if step == 15 else rows] = True
            marked, before = moving.copy(), masked.teacher.embedding.copy()
            assert ema_update(dense) is dense
            assert ema_update(masked) is masked and masked.moving is moving
            for a, b in zip(dense.teacher.blocks(), masked.teacher.blocks()):
                assert a.tobytes() == b.tobytes()
            t, s = masked.teacher.embedding, masked.student.embedding
            changed = (t.view(np.int64) != before.view(np.int64)).any(axis=1)
            if 8 < marked.sum() < 64:
                paths.add("dense")
                assert np.array_equal(moving, marked)
            else:
                paths.add("masked")
                assert np.array_equal(moving, changed)
            assert (t * alpha + (1.0 - alpha) * s)[~moving].tobytes() == t[~moving].tobytes()
            assert moving[1] == (step == 0)  # kept after the sign flip, settled after it
            assert not moving[2]
        assert paths == {"dense", "masked"}
        assert masked.teacher.embedding[1].tobytes() == np.zeros(config.embed_dim).tobytes()
        assert np.isnan(masked.teacher.embedding[2, 0]) and np.isnan(masked.teacher.embedding[3]).all()

    def test_fresh_mask_gives_the_dense_update(self):
        rng = np.random.default_rng(4)
        teacher, student = random_grads(rng, init_params(TINY), 2)
        pair = TeacherStudentPair(teacher, student, 0.9, np.ones(TINY.vocab_hash_buckets, dtype=bool))
        dense = ema_update(TeacherStudentPair(teacher.copy(), student, 0.9))
        masked = ema_update(pair)
        for a, b in zip(masked.teacher.blocks(), dense.teacher.blocks()):
            assert a.tobytes() == b.tobytes()
        assert pair.moving.all()  # every row moved
        assert masked is pair and masked.teacher is teacher

    @pytest.mark.parametrize(
        "moving",
        [np.ones(7, dtype=bool), np.ones(9, dtype=bool), np.ones(8), np.ones((8, 1), dtype=bool), [True] * 8],
        ids=["short", "long", "float", "2-d", "list"],
    )
    def test_mask_needs_one_bool_per_embedding_row(self, moving):
        params = init_params(TINY)  # 8 embedding rows
        with pytest.raises(ValueError, match="one entry per embedding row"):
            TeacherStudentPair(params.copy(), params.copy(), 0.9, moving)
        assert TeacherStudentPair(params.copy(), params.copy(), 0.9, np.ones(8, dtype=bool)).moving.all()

    def test_closed_form_empty(self):
        theta0 = init_params(TINY)
        result = ema_closed_form(theta0, [], 0.1, 0.99)
        assert all(np.array_equal(a, b) for a, b in zip(result.blocks(), theta0.blocks()))

    def test_closed_form_matches_iterative(self):
        rng = np.random.default_rng(0)
        theta0 = init_params(TINY)
        for alpha in (0.9, 0.995):
            grads = random_grads(rng, theta0, 200)
            gamma = 0.05
            teacher, student = theta0.copy(), theta0.copy()
            for g in grads:
                student = sgd_step(student, g, gamma)
                teacher = ema_update(TeacherStudentPair(teacher, student, alpha)).teacher
            closed = ema_closed_form(theta0, grads, gamma, alpha)
            for a, b in zip(teacher.blocks(), closed.blocks()):
                assert np.abs(a - b).max() < 1e-10
