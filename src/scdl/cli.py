"""Command-line entry points for annotation, noise injection, training and sweeps."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import warnings
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import tagger as tagger_mod
from .corpus import (
    Gazetteer,
    TagVocabulary,
    format_alteration_log,
    inject_noise,
    read_conll,
    write_conll,
)
from .tagger import atomic_open, encode, load_checkpoint, save_checkpoint
from .training import (
    ABLATIONS,
    MODEL_ORDER,
    TRACKS,
    ScdlConfig,
    TrainingDiverged,
    _Peer,
    evaluate_models,
    pretrain,
    train,
)


def atomic_write_text(path, text: str) -> None:
    """Write-then-rename so interrupted runs never leave truncated files."""
    with atomic_open(path) as fh:
        fh.write(text)


def _read(path) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        return fh.read()


def _recode(codes, source: TagVocabulary, target: TagVocabulary) -> np.ndarray:
    """Tag codes of `source` as the codes of the same tags in `target`."""
    return np.array([target.encode(tag) for tag in source.tags], dtype=np.int64)[codes]


def _load_corpora(*paths):
    """The sentences of each file, read once, with the vocabulary of all their types."""
    read = [read_conll(text) for text in [_read(path) for path in paths]]  # open all before parsing any
    vocab = TagVocabulary(sorted(set().union(*(own.entity_types for *_, own in read))))
    corpora = [
        corpus_mod.unflatten(tokens, offsets, dict.fromkeys(("gold", *TRACKS), _recode(codes, own, vocab)))
        for tokens, codes, offsets, own in read
    ]
    return corpora, vocab


def _track_checksum(tags, offsets, num_tags: int) -> str:
    """MD5 of a flat track, each sentence's codes followed by a newline.

    A code and the newline take one byte while the vocabulary has at most
    256 tags, and four little-endian bytes beyond, so no code wraps.
    """
    width = np.uint8 if num_tags <= 256 else np.dtype("<u4")
    return hashlib.md5(np.insert(tags.astype(width), offsets[1:], 10).tobytes()).hexdigest()


def _annotation_summary(gold, distant, offsets, vocab) -> dict:
    """How each gold span fared under distant annotation, on flat tags."""
    g_begin, g_end, g_code = corpus_mod.bio_spans(gold, vocab, offsets)
    d_begin, d_end, d_code = corpus_mod.bio_spans(distant, vocab, offsets)
    # gold span g[k] and distant span d[k] share a begin
    _, g, d = np.intersect1d(g_begin, d_begin, assume_unique=True, return_indices=True)
    same = g_end[g] == d_end[d]
    matched = int(np.count_nonzero(same))
    correct = int(np.count_nonzero(same & (g_code[g] == d_code[d])))
    tagged = np.concatenate(([0], np.cumsum(distant != 0)))  # tagged tokens before each index
    incomplete = int(np.count_nonzero(tagged[g_end + 1] == tagged[g_begin]))
    return {
        "gold_spans": len(g_begin),
        "correct": correct,
        "incomplete": incomplete,
        "inaccurate": matched - correct,
        "other": len(g_begin) - matched - incomplete,
    }


def _check_seed(seed: int) -> None:
    if seed < 0:  # checked before any file is read
        raise ValueError(f"--seed must be >= 0, got {seed}")


def cmd_annotate(args) -> int:
    _check_seed(args.seed)
    if not 0.0 <= args.coverage <= 1.0:  # checked before any input is read, as --seed is
        raise ValueError(f"coverage must be in [0, 1], got {args.coverage!r}")
    parts = corpus_mod.split_conll(_read(args.corpus))
    gaz, kept = Gazetteer.parse(_read(args.gazetteer)), {}  # each process keeps its part's reading

    def run(k: int, segment):  # part k of the corpus (see _Peer)
        try:
            if segment is None:  # read part k and find its matches
                text, first_line = parts[k - 1]
                tokens, gold, offsets, own = read_conll(text, first_line=first_line)
                kept[k] = tokens, gold, offsets, own, gaz.taken_matches(tokens, offsets)
                return (own.entity_types, kept[k][4][2]), None
            vocab, draws = segment  # tag, count and format part k as drawn
            tokens, gold, offsets, own, matches = kept[k]
            distant = corpus_mod.tag_matches(len(tokens), matches, *draws[k - 1], gaz, vocab)
            summary = _annotation_summary(_recode(gold, own, vocab), distant, offsets, vocab)
            return (summary, corpus_mod.format_conll(tokens, distant, offsets, vocab)), None
        except Exception as exc:  # raised by the caller, after part 1's
            return None, (k, exc)

    with _Peer(run, len(parts), child="part 2") as peer:
        found = peer.both(None)
        vocab = TagVocabulary(sorted(set().union(*gaz.entries.values(), *(types for types, _ in found))))
        which = [which for _, which in found]  # the surface of each taken match, drawn here in file order
        rng = np.random.default_rng(args.seed)
        applied, pick = corpus_mod.draw_matches(gaz, np.concatenate(which), args.coverage, args.rule, rng)
        cuts = np.cumsum([len(w) for w in which[:-1]])
        made = peer.both((vocab, list(zip(np.split(applied, cuts), np.split(pick, cuts)))))
    summary = {key: sum(part[key] for part, _ in made) for key in made[0][0]}  # no span crosses a part
    atomic_write_text(args.out, "\n".join(text for _, text in made if text))  # a blank line between parts
    atomic_write_text(args.summary or args.out + ".summary.json", json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def cmd_inject(args) -> int:
    _check_seed(args.seed)
    [sentences], vocab = _load_corpora(args.corpus)
    noisy, log = inject_noise(sentences, args.k, vocab, seed=args.seed)
    atomic_write_text(args.out, write_conll(noisy, vocab, "noisy_i"))
    atomic_write_text(args.log or args.out + ".alterations.tsv", format_alteration_log(log))
    score = metrics_mod.refinery_report(noisy, vocab)
    print(f"altered {len(log)} mentions; noisy-vs-gold span F1 {score.f1:.4f}")
    return 0


def _metrics_record(point, ablation: str) -> str:
    record = {key: round(v, 6) if isinstance(v, float) else v for key, v in asdict(point).items()}
    return json.dumps({**record, "ablation": ablation})


def _load_config(args) -> ScdlConfig:
    config = ScdlConfig.from_text(_read(args.config)) if args.config else ScdlConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    ablate = getattr(args, "ablate", None)
    if ablate:
        overrides["ablations"] = frozenset(ablate)
    return replace(config, **overrides) if overrides else config


def _check_makeable(directory: Path) -> None:
    """Fail, before any training, where a file is in the way of making `directory`."""
    if not next(p for p in (directory, *directory.parents) if p.exists()).is_dir():
        raise NotADirectoryError(f"cannot make {directory}: a file is in the way")


def cmd_pretrain(args) -> int:
    config = _load_config(args)
    (train_corpus, dev_corpus), vocab = _load_corpora(args.train, args.dev)
    if not dev_corpus:
        raise ValueError("empty dev corpus")
    out = Path(args.out_dir)
    _check_makeable(out)
    models = dict(zip(("net1", "net2"), pretrain(config, train_corpus, vocab)))
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.jsonl").unlink(missing_ok=True)  # written last: present only after a complete run
    atomic_write_text(out / "config.txt", config.to_text())
    scores = evaluate_models(models, encode(dev_corpus, config.hash_buckets), vocab, "after pretraining")
    lines = []
    for name, score in scores.items():
        save_checkpoint(models[name], out / f"{name}.ckpt")
        point = metrics_mod.CurvePoint(0, name, "dev", score.precision, score.recall, score.f1)
        lines.append(_metrics_record(point, ""))
        print(f"{name}: dev F1 {score.f1:.4f}")
    atomic_write_text(out / "metrics.jsonl", "\n".join(lines) + "\n")
    return 0


_EPOCH_CHECKPOINT = re.compile(rf"(?:{'|'.join(MODEL_ORDER)})_epoch([1-9][0-9]*)\.ckpt")


def _run_train(config, train_path, dev_path, out_dir) -> int:
    (train_corpus, dev_corpus), vocab = _load_corpora(train_path, dev_path)
    out = Path(out_dir)
    ckpt_dir = out / "checkpoints"
    _check_makeable(ckpt_dir)

    def on_epoch(epoch: int, state) -> None:
        if epoch == 0:  # `train` has checked its inputs; a failed run leaves the directory as it was
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            (out / "best.json").unlink(missing_ok=True)  # written last: present only after a complete run
            atomic_write_text(out / "config.txt", config.to_text())
        for name, params in state.models().items():
            save_checkpoint(params, ckpt_dir / f"{name}_epoch{epoch}.ckpt")

    result = train(config, train_corpus, dev_corpus, vocab, epoch_callback=on_epoch)
    for path in ckpt_dir.glob("*_epoch*.ckpt"):  # an earlier run's epochs beyond this run's
        match = _EPOCH_CHECKPOINT.fullmatch(path.name)
        if match and int(match[1]) > config.max_epochs and not path.is_dir():
            path.unlink()

    final = result.state.corpus  # the parsed sentences laid flat, with the rewritten tracks
    # both noisy tracks were read as copies of gold (_load_corpora), and no rewrite touches gold
    initial = dict.fromkeys(TRACKS, final.tracks["gold"])
    checksums = {
        f"{track}_{when}": _track_checksum(tracks[track], final.offsets, vocab.size)
        for when, tracks in (("initial", initial), ("final", final.tracks))
        for track in TRACKS
    }

    ablation = ",".join(sorted(config.ablations))
    lines = [_metrics_record(p, ablation) for p in result.history]
    atomic_write_text(out / "metrics.jsonl", "\n".join(lines) + "\n")
    atomic_write_text(out / "curve.csv", metrics_mod.emit_curve(result.history))
    refinery_lines = ["step,track,precision,recall,f1"]
    for step, track, score in result.refinery:
        refinery_lines.append(
            f"{step},{track},{score.precision:.6f},{score.recall:.6f},{score.f1:.6f}"
        )
    atomic_write_text(out / "refinery.csv", "\n".join(refinery_lines) + "\n")
    save_checkpoint(result.best_params, out / "best.ckpt")
    atomic_write_text(
        out / "best.json",
        json.dumps(
            {
                "model": result.best_model,
                "dev_f1": round(result.best_f1, 6),
                "ablation": ablation,
                "track_checksums": checksums,
            },
            indent=2,
        )
        + "\n",
    )
    print(f"best model {result.best_model} dev F1 {result.best_f1:.4f}")
    return 0


def cmd_train(args) -> int:
    return _run_train(_load_config(args), args.train, args.dev, args.out_dir)


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    parts = corpus_mod.split_conll(_read(args.corpus))
    buckets, kept = params.config.vocab_hash_buckets, {}  # each process keeps its part's reading

    def run(k: int, vocab):  # part k of the corpus (see _Peer)
        try:
            if vocab is None:  # read part k
                text, first_line = parts[k - 1]
                kept[k] = tokens, _, _, own = read_conll(text, first_line=first_line)
                return (own.entity_types, len(tokens)), None
            tokens, gold, offsets, own = kept[k]  # score part k in the vocabulary of all parts
            gold = {"gold": _recode(gold, own, vocab)}
            batch = tagger_mod.TokenBatch(tagger_mod.token_ids(tokens, buckets), offsets, buckets, gold)
            [score] = evaluate_models({args.checkpoint: params}, batch, vocab, f"on {args.corpus}").values()
            return score, None
        except Exception as exc:  # raised by the caller, after part 1's
            return None, (k, exc)

    with _Peer(run, len(parts), child="part 2") as peer:
        found = peer.both(None)
        if not sum(size for _, size in found):
            raise ValueError(f"empty corpus: {args.corpus}")
        vocab = TagVocabulary(sorted(set().union(*(types for types, _ in found))))
        if vocab.size != params.config.num_tags:
            raise ValueError(f"checkpoint expects {params.config.num_tags} tags, corpus has {vocab.size}")
        try:
            scores = peer.both(vocab)
        except TrainingDiverged as exc:  # bad input here, not a run that diverged
            raise ValueError(str(exc)) from None
    score = metrics_mod.SpanScore(*map(sum, zip(*map(astuple, scores))))  # no span crosses a part
    print(f"precision {score.precision:.4f} recall {score.recall:.4f} f1 {score.f1:.4f}")
    return 0


def cmd_ablate(args) -> int:
    base = _load_config(args)
    for ablation in ABLATIONS:
        config = replace(base, ablations=frozenset({ablation}))
        _run_train(config, args.train, args.dev, Path(args.out_dir) / ablation)
    return 0


def cmd_sweep(args) -> int:
    ks = [float(k) for k in args.ks.split(",") if k.strip()]
    if not ks:
        raise ValueError("empty k list")
    for k in ks:  # every k is checked before the first run
        if not 0 <= k <= 100:
            raise ValueError(f"k out of range [0, 100]: {k:g}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ValueError("empty seed list")
    config = _load_config(args)
    run_configs = [replace(config, seed=seed) for seed in seeds]  # each seed checked before any run
    if not Path(args.out).parent.is_dir():  # checked before the corpus is read
        raise NotADirectoryError(f"--out {args.out}: {Path(args.out).parent} is not a directory")
    [sentences], vocab = _load_corpora(args.corpus)
    base_train, dev = [s for i, s in enumerate(sentences) if i % 5], sentences[::5]  # every fifth held out
    missing = " and no ".join(what for what, part in (("training", base_train), ("dev", dev)) if not part)
    if missing:  # checked before the first run
        raise ValueError(f"--corpus {args.corpus}: the held-out split leaves no {missing} sentences")
    epochs = config.pretrain_epochs + config.max_epochs  # the baseline's matched budget
    lines = ["k,seed,method,dev_f1,initial_refinery_f1,final_refinery_f1"]
    for k in ks:
        for seed, run_cfg in zip(seeds, run_configs):
            noisy, _log = inject_noise(base_train, k, vocab, seed=seed)
            scdl_result = train(run_cfg, noisy, dev, vocab)
            # noisy_i scored against gold at step 0 and after the last epoch
            f1s = [score.f1 for _, track, score in scdl_result.refinery if track == "noisy_i"]
            baseline = train(replace(run_cfg, max_epochs=0, pretrain_epochs=epochs), noisy, dev, vocab)
            lines.append(f"{k:g},{seed},scdl,{scdl_result.best_f1:.6f},{f1s[0]:.6f},{f1s[-1]:.6f}")
            lines.append(f"{k:g},{seed},pretrain_only,{baseline.best_f1:.6f},{f1s[0]:.6f},{f1s[0]:.6f}")
    text = "\n".join(lines) + "\n"
    atomic_write_text(args.out, text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdl",
        description="Self-collaborative denoising for distantly supervised sequence labeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="gazetteer-based distant annotation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--rule", choices=("first", "random"), default="first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("inject", help="replace a share of gold mentions with noise")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_inject)

    def run_command(name: str, help: str, func) -> argparse.ArgumentParser:
        """A command that trains on --train and writes into --out-dir."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None)
        p.add_argument("--train", required=True)
        p.add_argument("--dev", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
        return p

    run_command("pretrain", "noisy-supervised warm-up only", cmd_pretrain)
    p = run_command("train", "full denoising run", cmd_train)
    p.add_argument("--ablate", action="append", choices=ABLATIONS, default=None)

    p = sub.add_parser("eval", help="score a checkpoint against a gold corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_eval)

    run_command("ablate", "run every ablation variant", cmd_ablate)

    p = sub.add_parser("sweep", help="noise-ratio sweep with a pretrain-only baseline")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ks", required=True, help="comma-separated noise percentages")
    p.add_argument("--seeds", required=True, help="comma-separated run seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    if argv is None:  # run as a program: every non-finite value that matters is checked, not warned of
        with np.errstate(all="ignore"), warnings.catch_warnings():  # forked children inherit both
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            try:
                return main(sys.argv[1:])
            except KeyboardInterrupt:
                print("error: interrupted", file=sys.stderr)
                return 130
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; 2 means divergence here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConllFormatError and BioValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
