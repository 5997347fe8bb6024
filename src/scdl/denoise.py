"""Teacher maintenance and clean-token selection.

The teacher is an exponential moving average of the student; tokens are
trusted when the noisy label agrees with the teacher's pseudo label and
the teacher is confident about it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import TagVocabulary
from .tagger import TaggerParams, labels_from_dists


@dataclass
class TeacherStudentPair:
    teacher: TaggerParams
    student: TaggerParams
    alpha: float
    moving: np.ndarray | None = None  # the embedding rows the EMA updates (see ema_update)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0, 1]: {self.alpha}")
        for t, s in zip(self.teacher.blocks(), self.student.blocks()):
            if t.shape != s.shape:
                raise ValueError("teacher/student shape mismatch")
        m, rows = self.moving, self.teacher.embedding.shape[:1]
        if m is not None and (getattr(m, "dtype", None) != bool or m.shape != rows):
            raise ValueError("moving must be a bool array with one entry per embedding row")


def consistent_mask(noisy_tags, pseudo_tags) -> np.ndarray:
    """True where the noisy label equals the pseudo label (O included)."""
    noisy, pseudo = np.asarray(noisy_tags), np.asarray(pseudo_tags)
    if len(noisy) != len(pseudo):
        raise ValueError("tag sequences differ in length")
    return noisy == pseudo


def confident_mask(teacher_dists: np.ndarray, delta: float) -> np.ndarray:
    """True where the max teacher probability is >= delta (inclusive)."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta out of (0, 1]: {delta}")
    return teacher_dists.max(axis=1) >= delta


def _indices(mask: np.ndarray) -> set[int]:
    return set(np.flatnonzero(mask).tolist())


def select_consistent(noisy_tags, pseudo_tags) -> set[int]:
    """Indices where the noisy label equals the pseudo label (O included)."""
    return _indices(consistent_mask(noisy_tags, pseudo_tags))


def select_confident(teacher_dists: np.ndarray, delta: float) -> set[int]:
    """Indices whose max teacher probability is >= delta (inclusive)."""
    return _indices(confident_mask(teacher_dists, delta))


def token_selection(
    noisy_tags, teacher_dists: np.ndarray, delta: float, vocab: TagVocabulary
) -> set[int]:
    """Intersection of consistency and confidence selection."""
    pseudo = labels_from_dists(teacher_dists, vocab)
    return _indices(consistent_mask(noisy_tags, pseudo) & confident_mask(teacher_dists, delta))


def ema_update(pair: TeacherStudentPair) -> TeacherStudentPair:
    """teacher <- alpha * teacher + (1 - alpha) * student, written into the
    teacher's own buffers, which must not share memory with the student's;
    the student is untouched and the pair returned. Each element rounds
    exactly as alpha * t + (1 - alpha) * s.

    With `pair.moving`, a boolean mask over the embedding rows, only marked rows
    are updated; those it left bit for bit are cleared, and as the update is a fixed
    function of (t, s) they stay so until the caller marks their student rows. With
    over an eighth marked, short of all, the whole table is updated and the mask kept.
    """
    a, moving = pair.alpha, pair.moving
    blocks = list(zip(pair.teacher.blocks(), pair.student.blocks()))
    if moving is not None and not len(moving) // 8 < np.count_nonzero(moving) < len(moving):
        (t, s), rows = blocks.pop(0), np.flatnonzero(moving)
        old = t[rows]
        t[rows] = new = old * a + (1.0 - a) * s[rows]
        moving[rows] = (new.view(np.int64) != old.view(np.int64)).any(axis=1)  # bits, so -0.0 != 0.0
    for t, s in blocks:
        t *= a
        t += (1.0 - a) * s
    return pair


def ema_closed_form(
    theta0: TaggerParams, grads, gamma: float, alpha: float
) -> TaggerParams:
    """Teacher after len(grads) plain-SGD student steps plus EMA, in one shot.

    With teacher and student both starting at theta0, the teacher after i
    steps equals theta0 - gamma * sum_j (1 - alpha^(i-j)) * g_j.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of [0, 1]: {alpha}")
    i = len(grads)
    if i == 0:
        return theta0.copy()
    acc = [np.zeros_like(b) for b in theta0.blocks()]
    for j, g in enumerate(grads):
        w = 1.0 - alpha ** (i - j)
        for a, block in zip(acc, g.blocks()):
            a += w * block
    return TaggerParams(
        theta0.config,
        *[b - gamma * a for b, a in zip(theta0.blocks(), acc)],
    )
