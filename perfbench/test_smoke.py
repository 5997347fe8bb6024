"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the harness, not the program's speed: every metric named in
BENCHMARK.json is reported, traced self times add up, outputs are
checked, and the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(train=200, dev=60, test=60, tagged=300, checkpoint_train=100)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_generators_match_the_test_fixture_and_the_package():
    sys.path.insert(0, str(ROOT / "tests"))
    synthdata = pytest.importorskip("synthdata")
    from scdl.corpus import inject_noise, write_conll

    vocab = synthdata.default_vocab()
    gold = synthdata.make_synthetic_corpus(150, vocab, seed=inputs.TRAIN_SEED)
    assert inputs.conll(inputs.synthetic_corpus(150, inputs.TRAIN_SEED)) == write_conll(gold, vocab)
    for seed in (0, 1):
        noisy, _ = inject_noise(gold, 40, vocab, seed=seed)
        ours = inputs.inject_noise(inputs.synthetic_corpus(150, inputs.TRAIN_SEED), 40, seed)
        assert inputs.conll(ours) == write_conll(noisy, vocab, "noisy_i")


def test_tag_corpus_reports_every_end_to_end_metric(tmp_path):
    record = run.measure("tag-corpus", 3, 0.0, False, tmp_path, TINY)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["wall_s"]["untraced"]) == run.MIN_REPEATS
    assert len(record["setup_s"]) >= run.SETUP_REPEATS
    assert sum(record["setup_s"]) >= run.SETUP_SECONDS


def test_traced_run_reports_every_layer_and_consistent_self_time(tmp_path):
    record = run.measure("train-rewrite", 5, 0.0, True, tmp_path, TINY)
    # 200 sentences are too few for the taggers to learn, so the paper's
    # refinery claim is not expected here; every other check must pass.
    assert record["failures"]
    assert all("refinery F1 of track" in f for f in record["failures"]), record["failures"]
    metrics = record["result"]["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    self_total = sum(v for name, v in value.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(value["cli.main.s"], rel=1e-9)
    for layer in ("training.pretrain", "training.self_denoise_step", "training.collaborative_update",
                  "tagger.sgd_step", "denoise.ema_update", "tagger.forward"):
        assert value[f"{layer}.calls"] > 0 and value[f"{layer}.self_s"] > 0
    assert value["tagger.token_ids.tokens"] > value["tagger.token_ids.calls"] > 0
    assert 0 < value["denoise.selected_ratio"] <= 1
    assert value["training.collaborative_update.changed_tokens"] > 0
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert spans[0] == "name,start,end,parent,run"
    assert len(spans) - 1 == sum(value[f"{name}.calls"] for name in tracing.SPANS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    argv = [*SPEC["command"], "--workload", "train-desk", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
