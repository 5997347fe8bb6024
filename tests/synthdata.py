"""Synthetic BIO corpora with unambiguous, type-exclusive entity surfaces."""

import numpy as np

from scdl.corpus import AnnotatedSentence, TagVocabulary, bio_spans

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")


def default_vocab() -> TagVocabulary:
    return TagVocabulary(ENTITY_TYPES)


def make_synthetic_corpus(
    n_sentences: int,
    vocab: TagVocabulary,
    seed: int,
    per_type_tokens: int = 30,
    filler_tokens: int = 60,
) -> list:
    """Sentences of filler words with 1-3 embedded entity mentions.

    Entity surfaces are exclusive to their type, so the task is learnable
    by surface memorization alone; mentions span 1-2 tokens.
    """
    rng = np.random.default_rng(seed)
    types = vocab.entity_types
    surfaces = {t: [f"{t.lower()}{i}" for i in range(per_type_tokens)] for t in types}
    fillers = [f"w{i}" for i in range(filler_tokens)]
    sentences = []
    for _ in range(n_sentences):
        n_mentions = int(rng.integers(1, 4))
        tokens: list[str] = []
        gold: list[int] = []
        for _ in range(n_mentions):
            for _ in range(int(rng.integers(1, 4))):
                tokens.append(fillers[int(rng.integers(len(fillers)))])
                gold.append(0)
            t = types[int(rng.integers(len(types)))]
            length = 1 + int(rng.random() < 0.4)
            pool = surfaces[t]
            tokens.append(pool[int(rng.integers(len(pool)))])
            gold.append(vocab.b_code(t))
            for _ in range(length - 1):
                tokens.append(pool[int(rng.integers(len(pool)))])
                gold.append(vocab.i_code(t))
        for _ in range(int(rng.integers(1, 4))):
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            gold.append(0)
        bio_spans(gold, vocab)  # raises on invalid BIO
        sentences.append(
            AnnotatedSentence(tokens, gold=gold, noisy_i=list(gold), noisy_ii=list(gold))
        )
    return sentences
