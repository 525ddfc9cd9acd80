"""Exit codes, artifacts, and byte-level determinism of the command line."""
import json
import os

import numpy as np
import pytest

from metactc import metatrain
from metactc import model as model_mod
from metactc.cli import main


TINY_FAMILY = {
    "schema_version": 1,
    "n_languages": 2,
    "alphabet_sizes": [3, 4],
    "feature_dim": 6,
    "shared_pool_size": 5,
    "duration_range": [2, 3],
    "length_range": [2, 4],
    "noise_sigma": 0.2,
    "utterances_per_language": 12,
    "test_utterances": 4,
    "subsample_stride": 2,
    "limited_fraction": 0.25,
    "seed": 5,
    "language_ids": ["redd", "blue"],
}

SMALL_MODEL = {"schema_version": 1, "hidden_dim": 8}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    fam_cfg = root / "family.json"
    fam_cfg.write_text(json.dumps(TINY_FAMILY))
    model_cfg = root / "model.json"
    model_cfg.write_text(json.dumps(SMALL_MODEL))
    corpora = root / "corpora"
    assert main(["generate", "--config", str(fam_cfg), "--out", str(corpora)]) == 0

    pre = root / "pre"
    assert main([
        "pretrain", "--regime", "meta",
        "--corpora", str(corpora / "redd.jsonl"), str(corpora / "blue.jsonl"),
        "--config", str(model_cfg),
        "--steps", "4", "--checkpoint-every", "2", "--seed", "1", "--out", str(pre),
    ]) == 0
    return root


def test_generate_outputs(workspace):
    corpora = workspace / "corpora"
    assert sorted(p.name for p in corpora.iterdir()) == [
        "blue.jsonl", "generate_config.json", "redd.jsonl",
    ]
    resolved = json.loads((corpora / "generate_config.json").read_text())
    assert resolved["command"] == "generate"
    assert resolved["family"]["language_ids"] == ["redd", "blue"]


def test_generate_rerun_is_byte_identical(workspace, tmp_path):
    out2 = tmp_path / "again"
    assert main([
        "generate", "--config", str(workspace / "family.json"), "--out", str(out2),
    ]) == 0
    for name in ("redd.jsonl", "blue.jsonl", "generate_config.json"):
        assert (out2 / name).read_bytes() == (workspace / "corpora" / name).read_bytes()


def test_generate_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({**TINY_FAMILY, "frobnicate": 1}))
    assert main(["generate", "--config", str(unknown), "--out", str(tmp_path / "p")]) == 2


def test_lock_blocks_concurrent_writes(workspace, tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text("1\n")
    code = main(["generate", "--config", str(workspace / "family.json"), "--out", str(out)])
    assert code == 2
    (out / ".lock").unlink()


def test_lock_removed_after_success(workspace):
    assert not (workspace / "corpora" / ".lock").exists()
    assert not (workspace / "pre" / ".lock").exists()


def test_pretrain_outputs(workspace):
    pre = workspace / "pre"
    names = sorted(p.name for p in pre.iterdir())
    assert "train_log.csv" in names
    assert "pretrain_config.json" in names
    assert "checkpoint_000002.params" in names
    assert "checkpoint_000004.params" in names
    header = (pre / "train_log.csv").read_text().splitlines()[0]
    assert header == "step,regime,task_id,task_loss,meta_loss,elapsed_seconds"
    resolved = json.loads((pre / "pretrain_config.json").read_text())
    assert resolved["regime"] == "meta"
    assert resolved["corpora"] == ["redd.jsonl", "blue.jsonl"]


def test_pretrain_rerun_checkpoints_identical(workspace, tmp_path):
    pre2 = tmp_path / "pre2"
    assert main([
        "pretrain", "--regime", "meta",
        "--corpora", str(workspace / "corpora" / "redd.jsonl"),
        str(workspace / "corpora" / "blue.jsonl"),
        "--config", str(workspace / "model.json"),
        "--steps", "4", "--checkpoint-every", "2", "--seed", "1", "--out", str(pre2),
    ]) == 0
    for name in ("checkpoint_000004.params", "checkpoint_000004.json"):
        assert (pre2 / name).read_bytes() == (workspace / "pre" / name).read_bytes()


def test_pretrain_missing_corpus_exits_3(workspace, tmp_path):
    assert main([
        "pretrain", "--regime", "multi",
        "--corpora", str(workspace / "corpora" / "nope.jsonl"),
        "--out", str(tmp_path / "x"),
    ]) == 3


def test_pretrain_duplicate_language_exits_3(workspace, tmp_path):
    corpus = str(workspace / "corpora" / "redd.jsonl")
    assert main([
        "pretrain", "--regime", "multi", "--corpora", corpus, corpus,
        "--out", str(tmp_path / "dup"),
    ]) == 3


def test_unknown_subcommand_exits_2():
    assert main(["explode"]) == 2
    assert main(["pretrain", "--regime", "bogus", "--corpora", "x", "--out", "y"]) == 2


def test_finetune_and_evaluate_flow(workspace, tmp_path):
    corpus = str(workspace / "corpora" / "blue.jsonl")
    ft = tmp_path / "ft"
    assert main([
        "finetune", "--checkpoint", str(workspace / "pre" / "checkpoint_000004"),
        "--corpus", corpus, "--split", "limited", "--epochs", "2",
        "--seed", "3", "--out", str(ft),
    ]) == 0
    log_lines = (ft / "finetune_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,train_loss,val_loss"
    assert len(log_lines) == 3

    ev = tmp_path / "ev"
    assert main([
        "evaluate", "--checkpoint", str(ft / "finetuned_blue"),
        "--corpus", corpus, "--beam", "4", "--out", str(ev),
    ]) == 0
    report = json.loads((ev / "eval_blue.json").read_text())
    assert report["language"] == "blue"
    assert report["beam"] == 4
    assert len(report["utterances"]) == 4
    from metactc.ctc import cer

    again = cer(
        [u["reference"] for u in report["utterances"]],
        [u["hypothesis"] for u in report["utterances"]],
    )
    assert report["cer"] == pytest.approx(again)


def test_finetune_no_pretrain_flow(workspace, tmp_path):
    corpus = str(workspace / "corpora" / "redd.jsonl")
    out = tmp_path / "scratch"
    assert main([
        "finetune", "--no-pretrain", "--corpus", corpus,
        "--config", str(workspace / "model.json"),
        "--epochs", "1", "--seed", "0", "--out", str(out),
    ]) == 0
    assert (out / "finetuned_redd.params").exists()
    resolved = json.loads((out / "finetune_config.json").read_text())
    assert resolved["checkpoint"] is None


def test_evaluate_missing_head_exits_2(workspace, tmp_path):
    # pretraining checkpoint has redd+blue heads; a fresh language does not
    fresh = dict(TINY_FAMILY, language_ids=["gren", "pink"], seed=8)
    cfg = tmp_path / "fresh.json"
    cfg.write_text(json.dumps(fresh))
    corp = tmp_path / "fresh_corpora"
    assert main(["generate", "--config", str(cfg), "--out", str(corp)]) == 0
    assert main([
        "evaluate", "--checkpoint", str(workspace / "pre" / "checkpoint_000004"),
        "--corpus", str(corp / "gren.jsonl"), "--out", str(tmp_path / "ev2"),
    ]) == 2


def test_curve_flow(workspace, tmp_path):
    corpus = str(workspace / "corpora" / "blue.jsonl")
    cv = tmp_path / "cv"
    assert main([
        "curve", "--checkpoints", str(workspace / "pre"), "--corpus", corpus,
        "--epochs", "1", "--beam", "1", "--seed", "2", "--out", str(cv),
    ]) == 0
    rows = (cv / "curve.csv").read_text().splitlines()
    assert rows[0] == "kind,pretrain_step,best_val_cer"
    assert len(rows) == 4  # baseline + 2 checkpoints ... header excluded
    kinds = [r.split(",")[0] for r in rows[1:]]
    assert kinds == ["no_pretrain", "checkpoint", "checkpoint"]
    steps = [int(r.split(",")[1]) for r in rows[2:]]
    assert steps == sorted(steps)


def test_curve_steps_filter(workspace, tmp_path):
    corpus = str(workspace / "corpora" / "blue.jsonl")
    cv = tmp_path / "cv1"
    assert main([
        "curve", "--checkpoints", str(workspace / "pre"), "--corpus", corpus,
        "--steps", "4", "--epochs", "1", "--beam", "1", "--seed", "2", "--out", str(cv),
    ]) == 0
    rows = (cv / "curve.csv").read_text().splitlines()
    assert len(rows) == 3
    assert main([
        "curve", "--checkpoints", str(workspace / "pre"), "--corpus", corpus,
        "--steps", "7", "--out", str(tmp_path / "cv2"),
    ]) == 2


def test_curve_loads_each_checkpoint_once(workspace, tmp_path, monkeypatch):
    corpus = str(workspace / "corpora" / "blue.jsonl")
    loaded, tuned = [], []
    load, finetune = model_mod.load_model, metatrain.finetune

    def counting_load(base):
        loaded.append(base)
        return load(base)

    def counting_finetune(*args, **kwargs):
        tuned.append(args)
        return finetune(*args, **kwargs)

    monkeypatch.setattr(model_mod, "load_model", counting_load)
    monkeypatch.setattr(metatrain, "finetune", counting_finetune)
    assert main([
        "curve", "--checkpoints", str(workspace / "pre"), "--corpus", corpus,
        "--epochs", "1", "--beam", "1", "--out", str(tmp_path / "cv"),
    ]) == 0
    assert len(loaded) == len(set(loaded)) == 2
    assert len(tuned) == 3

    # a corrupt later checkpoint fails before the baseline is fine-tuned
    late = tmp_path / "late"
    late.mkdir()
    for step in ("000002", "000004"):
        for ext in (".params", ".json"):
            name = f"checkpoint_{step}{ext}"
            (late / name).write_bytes((workspace / "pre" / name).read_bytes())
    _write_nan(late / "checkpoint_000004")
    tuned.clear()
    assert main([
        "curve", "--checkpoints", str(late), "--corpus", corpus,
        "--epochs", "1", "--out", str(tmp_path / "cv_late"),
    ]) == 3
    assert tuned == []


def test_curve_missing_checkpoints_exits_2(workspace, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([
        "curve", "--checkpoints", str(empty),
        "--corpus", str(workspace / "corpora" / "blue.jsonl"),
        "--out", str(tmp_path / "cv3"),
    ]) == 2


def test_curve_non_integer_steps_exits_2(workspace, tmp_path):
    assert main([
        "curve", "--checkpoints", str(workspace / "pre"),
        "--corpus", str(workspace / "corpora" / "blue.jsonl"),
        "--steps", "2,x", "--out", str(tmp_path / "cv4"),
    ]) == 2


def test_evaluate_zero_beam_exits_2_before_decoding(workspace, tmp_path):
    out = tmp_path / "ev0"
    assert main([
        "evaluate", "--checkpoint", str(workspace / "pre" / "checkpoint_000004"),
        "--corpus", str(workspace / "corpora" / "blue.jsonl"),
        "--beam", "0", "--out", str(out),
    ]) == 2
    assert not out.exists()


def _copy_checkpoint(workspace, directory):
    directory.mkdir()
    for ext in (".params", ".json"):
        src = workspace / "pre" / f"checkpoint_000004{ext}"
        (directory / src.name).write_bytes(src.read_bytes())
    return directory / "checkpoint_000004"


def _write_nan(base):
    """Overwrite the first payload float of checkpoint <base> with a NaN."""
    raw = base.with_suffix(".params").read_bytes()
    header, _, payload = raw.partition(b"\n")
    nan = np.array([np.nan], dtype="<f8").tobytes()
    base.with_suffix(".params").write_bytes(header + b"\n" + nan + payload[8:])


def test_corrupt_checkpoints_exit_3(workspace, tmp_path, capsys):
    corpus = str(workspace / "corpora" / "blue.jsonl")

    nan = _copy_checkpoint(workspace, tmp_path / "nan")
    _write_nan(nan)
    capsys.readouterr()
    assert main([
        "evaluate", "--checkpoint", str(nan), "--corpus", corpus,
        "--out", str(tmp_path / "ev_nan"),
    ]) == 3
    assert str(nan.with_suffix(".params")) in capsys.readouterr().err

    bad_json = _copy_checkpoint(workspace, tmp_path / "bad_json")
    bad_json.with_suffix(".json").write_text("{bad")
    assert main([
        "curve", "--checkpoints", str(bad_json.parent), "--corpus", corpus,
        "--epochs", "1", "--out", str(tmp_path / "cv"),
    ]) == 3

    negative = _copy_checkpoint(workspace, tmp_path / "negative")
    raw = negative.with_suffix(".params").read_bytes()
    header, _, payload = raw.partition(b"\n")
    entries = json.loads(header)
    entries[0]["rows"] = -entries[0]["rows"]
    negative.with_suffix(".params").write_bytes(
        json.dumps(entries, separators=(",", ":")).encode() + b"\n" + payload
    )
    assert main([
        "evaluate", "--checkpoint", str(negative), "--corpus", corpus,
        "--out", str(tmp_path / "ev_neg"),
    ]) == 3

    stride = _copy_checkpoint(workspace, tmp_path / "stride")
    sidecar = json.loads(stride.with_suffix(".json").read_text())
    sidecar["config"]["subsample_stride"] = 3
    stride.with_suffix(".json").write_text(json.dumps(sidecar))
    assert main([
        "finetune", "--checkpoint", str(stride), "--corpus", corpus,
        "--epochs", "1", "--out", str(tmp_path / "ft_stride"),
    ]) == 3

    def shorten(sidecar):
        sidecar["alphabets"]["blue"] = sidecar["alphabets"]["blue"][:-1]

    def narrow(sidecar):  # a consistent config whose widths disagree with the payload
        layers = sidecar["config"]["layers"]
        layers[1]["output_dim"] = layers[2]["input_dim"] = layers[2]["output_dim"] = 4
        layers[3]["input_dim"] = 4

    for case, edit in (
        ("short", shorten),
        ("missing", lambda sidecar: sidecar["alphabets"].pop("blue")),
        ("narrow", narrow),
    ):
        bad = _copy_checkpoint(workspace, tmp_path / case)
        sidecar = json.loads(bad.with_suffix(".json").read_text())
        edit(sidecar)
        bad.with_suffix(".json").write_text(json.dumps(sidecar))
        assert main([
            "evaluate", "--checkpoint", str(bad), "--corpus", corpus,
            "--out", str(tmp_path / f"ev_{case}"),
        ]) == 3, case
