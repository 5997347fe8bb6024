"""Benchmark inputs, made from a seed and recorded by checksum.

The corpus generator and the noise injector are copies of the test
fixture's (`tests/synthdata.py`) and of `scdl.corpus.inject_noise`,
working on tag names instead of codes. They live here so that a later
refactor of the tests or of the package cannot silently change a
workload: the sha256 of every input is reported with the results, and
the seed-independent fixture corpora are pinned in `PINNED_SHA256`.
"""

from __future__ import annotations

import hashlib

import numpy as np

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")  # the fixture's type order
PER_TYPE_TOKENS = 30
FILLER_TOKENS = 60

TRAIN_SEED, DEV_SEED, TEST_SEED = 100, 200, 300  # as in tests/test_acceptance.py
TAGGED_SEED = 10_000  # plus the benchmark seed: held out from every fixture split

# sha256 of conll(synthetic_corpus(n, seed)) for the fixture splits.
PINNED_SHA256 = {
    (2000, TRAIN_SEED): "88102a288d993be516bf6e5dfd81058080a95c221dd7298080b42da674515862",
    (500, TRAIN_SEED): "0f627ff71247e0961e9d671f2c9d015f2ff328acb0e12f28cca97e5b0dd4063a",
    (400, DEV_SEED): "ab069202d1e92b5be8694ac6f3060de9bbde1d541d13dd3a4a36622f51b24831",
    (1000, TEST_SEED): "af10f8623c0bf0d4c8d5679c99bca74b6a2f0cd63383bc0d7d30b2ba6cb224d8",
}


def synthetic_corpus(n_sentences: int, seed: int) -> list[tuple[list[str], list[str]]]:
    """Filler words with 1-3 type-exclusive mentions of 1-2 tokens each.

    Makes the same draws in the same order as
    `tests/synthdata.make_synthetic_corpus` with its default sizes.
    """
    rng = np.random.default_rng(seed)
    surfaces = {t: [f"{t.lower()}{i}" for i in range(PER_TYPE_TOKENS)] for t in ENTITY_TYPES}
    fillers = [f"w{i}" for i in range(FILLER_TOKENS)]
    corpus = []
    for _ in range(n_sentences):
        tokens: list[str] = []
        tags: list[str] = []
        for _ in range(int(rng.integers(1, 4))):
            for _ in range(int(rng.integers(1, 4))):
                tokens.append(fillers[int(rng.integers(len(fillers)))])
                tags.append("O")
            t = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
            length = 1 + int(rng.random() < 0.4)
            pool = surfaces[t]
            for j in range(length):
                tokens.append(pool[int(rng.integers(len(pool)))])
                tags.append(("B-" if j == 0 else "I-") + t)
        for _ in range(int(rng.integers(1, 4))):
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            tags.append("O")
        corpus.append((tokens, tags))
    return corpus


def spans(tags) -> set[tuple[int, int, str]]:
    """(start, end inclusive, type) of every mention in a BIO tag-name sequence."""
    found = set()
    start = kind = None
    for j, tag in enumerate([*tags, "O"]):
        if tag.startswith("I-") and tag[2:] == kind:
            continue
        if kind is not None:
            found.add((start, j - 1, kind))
        start, kind = (j, tag[2:]) if tag != "O" else (None, None)
    return found


def span_f1(predicted, gold) -> float:
    """Exact-match micro span F1 over parallel lists of tag-name sequences."""
    tp = n_pred = n_gold = 0
    for p, g in zip(predicted, gold, strict=True):
        ps, gs = spans(p), spans(g)
        tp += len(ps & gs)
        n_pred += len(ps)
        n_gold += len(gs)
    return 2 * tp / (n_pred + n_gold) if n_pred + n_gold else 0.0


def inject_noise(corpus, k_percent: float, seed: int):
    """Retype or erase round(k% of mentions), as `scdl.corpus.inject_noise` does."""
    rng = np.random.default_rng(seed)
    mentions = [(i, span) for i, (_, tags) in enumerate(corpus) for span in sorted(spans(tags))]
    noisy = [list(tags) for _, tags in corpus]
    n_alter = round(k_percent / 100 * len(mentions))
    for m in sorted(rng.choice(len(mentions), size=n_alter, replace=False).tolist()):
        i, (start, end, kind) = mentions[m]
        if rng.random() < 0.5:
            others = [t for t in ENTITY_TYPES if t != kind]
            new = others[int(rng.integers(len(others)))]
            noisy[i][start : end + 1] = [f"B-{new}"] + [f"I-{new}"] * (end - start)
        else:
            noisy[i][start : end + 1] = ["O"] * (end - start + 1)
    return [(tokens, tags) for (tokens, _), tags in zip(corpus, noisy)]


def gazetteer(seed: int, ambiguous_share: float = 0.25, pairs_per_type: int = 50) -> dict:
    """Surface form -> entity types, in the order `scdl annotate` reads them.

    Every fixture surface is listed under its own type; an exact share of
    them also under a wrong one, so `--rule random` mislabels; and some
    two-token surfaces, so longest-match has longer candidates to try.
    """
    rng = np.random.default_rng(seed)
    entries = {}
    for t in ENTITY_TYPES:
        others = [u for u in ENTITY_TYPES if u != t]
        n_ambiguous = round(ambiguous_share * PER_TYPE_TOKENS)
        ambiguous = set(rng.choice(PER_TYPE_TOKENS, n_ambiguous, replace=False).tolist())
        for i in range(PER_TYPE_TOKENS):
            types = (t,)
            if i in ambiguous:
                wrong = others[int(rng.integers(len(others)))]
                types = (wrong, t) if rng.random() < 0.5 else (t, wrong)
            entries[f"{t.lower()}{i}"] = types
        for a, b in rng.integers(PER_TYPE_TOKENS, size=(pairs_per_type, 2)).tolist():
            entries[f"{t.lower()}{a} {t.lower()}{b}"] = (t,)
    return entries


def gazetteer_text(entries: dict) -> str:
    return "".join(f"{surface}\t{','.join(types)}\n" for surface, types in entries.items())


def conll(corpus) -> str:
    """"token<TAB>tag" lines, a blank line between sentences (scdl's format)."""
    return "\n\n".join(
        "\n".join(f"{tok}\t{tag}" for tok, tag in zip(tokens, tags)) for tokens, tags in corpus
    ) + "\n"


def read_conll(text: str) -> list[tuple[list[str], list[str]]]:
    corpus = []
    for block in text.strip("\n").split("\n\n"):
        pairs = [line.split("\t") for line in block.split("\n")]
        corpus.append(([p[0] for p in pairs], [p[1] for p in pairs]))
    return corpus


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
