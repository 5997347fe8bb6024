"""Tiny windowed token classifier with analytic gradients.

Hashed word embeddings -> window concatenation -> tanh hidden layer ->
softmax over tags. Small enough for exhaustive finite-difference checks,
expressive enough to memorize label noise.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import TagVocabulary, repair_bio

PAD_BUCKET = 0  # reserved for window overflow
PAD_TOKEN = "\x00<pad>"  # surface sentinel that hashes to PAD_BUCKET


@dataclass(frozen=True)
class TaggerConfig:
    num_tags: int
    vocab_hash_buckets: int = 2**15
    embed_dim: int = 16
    window: int = 1
    hidden_dim: int = 24
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.num_tags < 1 or self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.vocab_hash_buckets < 2:
            raise ValueError("need at least one non-padding bucket")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")

    @property
    def context_width(self) -> int:
        return 2 * self.window + 1

    def structurally_distinct(self, other: "TaggerConfig") -> bool:
        return (
            self.embed_dim != other.embed_dim
            or self.window != other.window
            or self.hidden_dim != other.hidden_dim
        )


@dataclass
class TaggerParams:
    """All learnable numbers; also doubles as gradient storage."""

    config: TaggerConfig
    embedding: np.ndarray  # (buckets, embed_dim)
    hidden_w: np.ndarray  # (context_width * embed_dim, hidden_dim)
    hidden_b: np.ndarray  # (hidden_dim,)
    out_w: np.ndarray  # (hidden_dim, num_tags)
    out_b: np.ndarray  # (num_tags,)

    BLOCK_NAMES = ("embedding", "hidden_w", "hidden_b", "out_w", "out_b")

    def blocks(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.BLOCK_NAMES]

    def copy(self) -> "TaggerParams":
        return TaggerParams(self.config, *[b.copy() for b in self.blocks()])

    def allclose(self, other: "TaggerParams", atol: float = 0.0) -> bool:
        return all(
            np.allclose(a, b, rtol=0.0, atol=atol)
            for a, b in zip(self.blocks(), other.blocks())
        )


def init_params(config: TaggerConfig) -> TaggerParams:
    rng = np.random.default_rng(config.init_seed)
    s = config.init_scale

    def u(*shape):
        return rng.uniform(-s, s, size=shape)

    return TaggerParams(
        config,
        embedding=u(config.vocab_hash_buckets, config.embed_dim),
        hidden_w=u(config.context_width * config.embed_dim, config.hidden_dim),
        hidden_b=u(config.hidden_dim),
        out_w=u(config.hidden_dim, config.num_tags),
        out_b=u(config.num_tags),
    )


def zeros_like(params: TaggerParams) -> TaggerParams:
    return TaggerParams(params.config, *[np.zeros_like(b) for b in params.blocks()])


def token_ids(tokens, buckets: int) -> np.ndarray:
    """Deterministic surface-form hashing into [1, buckets)."""
    return np.array(
        [
            PAD_BUCKET if t == PAD_TOKEN else 1 + zlib.crc32(t.encode("utf-8")) % (buckets - 1)
            for t in tokens
        ],
        dtype=np.int64,
    )


def _context_ids(ids: np.ndarray, window: int) -> np.ndarray:
    n = len(ids)
    padded = np.full(n + 2 * window, PAD_BUCKET, dtype=np.int64)
    padded[window : window + n] = ids
    return np.stack([padded[k : k + n] for k in range(2 * window + 1)], axis=1)


def _forward_cache(params: TaggerParams, tokens):
    cfg = params.config
    n = len(tokens)
    if n == 0:
        empty = np.zeros((0, cfg.num_tags))
        return None, None, None, empty
    ctx = _context_ids(token_ids(tokens, cfg.vocab_hash_buckets), cfg.window)
    x = params.embedding[ctx].reshape(n, -1)
    h = np.tanh(x @ params.hidden_w + params.hidden_b)
    logits = h @ params.out_w + params.out_b
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    return ctx, x, h, probs


def forward(params: TaggerParams, tokens) -> np.ndarray:
    """Per-token tag distributions, shape (len(tokens), num_tags)."""
    return _forward_cache(params, tokens)[3]


def _backprop(params, ctx, x, h, dlogits, grad):
    grad.out_w += h.T @ dlogits
    grad.out_b += dlogits.sum(axis=0)
    dh = dlogits @ params.out_w.T
    dpre = dh * (1.0 - h * h)
    grad.hidden_w += x.T @ dpre
    grad.hidden_b += dpre.sum(axis=0)
    dx = (dpre @ params.hidden_w.T).reshape(ctx.shape[0], ctx.shape[1], -1)
    np.add.at(grad.embedding, ctx.reshape(-1), dx.reshape(-1, dx.shape[2]))


def _one_hot(tags, num_tags) -> np.ndarray:
    out = np.zeros((len(tags), num_tags))
    out[np.arange(len(tags)), tags] = 1.0
    return out


def loss_hard(params: TaggerParams, sentences, track: str):
    """Mean token-level cross entropy on the chosen track, with gradient."""
    targets = [_one_hot(s.track(track), params.config.num_tags) for s in sentences]
    masks = [np.ones(len(s), dtype=bool) for s in sentences]
    return loss_soft(params, sentences, targets, masks)


def loss_soft(params: TaggerParams, sentences, teacher_dists, masks):
    """Soft-label cross entropy over the selected tokens only.

    `masks` holds one boolean vector per sentence; unselected tokens
    contribute nothing to loss or gradient. The loss is divided by the
    number of tokens in the batch. With no token selected the result is
    (0, zero gradient).
    """
    if not sentences:
        raise ValueError("empty batch")
    for sentence, m in zip(sentences, masks):
        if not (isinstance(m, np.ndarray) and m.dtype == bool):
            raise ValueError("mask must be a boolean array")
        if len(m) != len(sentence):
            raise ValueError("mask length differs from sentence length")
    selected = sum(int(m.sum()) for m in masks)
    grad = zeros_like(params)
    if selected == 0:
        return 0.0, grad
    z = sum(len(s) for s in sentences)
    loss = 0.0
    for sentence, target, m in zip(sentences, teacher_dists, masks):
        if len(sentence) == 0:
            continue
        ctx, x, h, probs = _forward_cache(params, sentence.tokens)
        mcol = m.astype(np.float64)[:, None]
        loss -= float((mcol * target * np.log(probs)).sum())
        dlogits = mcol * (probs - target)
        dlogits /= z
        _backprop(params, ctx, x, h, dlogits, grad)
    return loss / z, grad


def sgd_step(params: TaggerParams, grad: TaggerParams, lr: float) -> TaggerParams:
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    new_blocks = []
    for p, g in zip(params.blocks(), grad.blocks()):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
        new_blocks.append(p - lr * g)
    return TaggerParams(params.config, *new_blocks)


def labels_from_dists(dists: np.ndarray, vocab: TagVocabulary) -> list[int]:
    """Argmax (ties -> lowest code) followed by BIO repair."""
    return repair_bio(np.argmax(dists, axis=1).tolist(), vocab)


def predict_labels(params: TaggerParams, tokens, vocab: TagVocabulary) -> list[int]:
    return labels_from_dists(forward(params, tokens), vocab)


CHECKPOINT_MAGIC = "SCDL-TAGGER 1"


def save_checkpoint(params: TaggerParams, path) -> None:
    header = json.dumps(
        {
            "num_tags": params.config.num_tags,
            "vocab_hash_buckets": params.config.vocab_hash_buckets,
            "embed_dim": params.config.embed_dim,
            "window": params.config.window,
            "hidden_dim": params.config.hidden_dim,
            "init_seed": params.config.init_seed,
            "init_scale": params.config.init_scale,
        }
    )
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{header}\n".encode("utf-8"))
        for block in params.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> TaggerParams:
    with open(path, "rb") as fh:
        magic = fh.readline().decode("utf-8").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a tagger checkpoint: {magic!r}")
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint header is not a JSON object: {header!r}")
        try:
            config = TaggerConfig(**header)
            template = zeros_like(init_params(config))
        except TypeError as exc:
            raise ValueError(f"bad checkpoint header: {exc}") from None
        blocks = []
        for block in template.blocks():
            raw = fh.read(block.size * 8)
            if len(raw) != block.size * 8:
                raise ValueError("truncated checkpoint")
            blocks.append(np.frombuffer(raw, dtype="<f8").reshape(block.shape).copy())
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint data")
    return TaggerParams(config, *blocks)
