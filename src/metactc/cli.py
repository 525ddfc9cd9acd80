"""Command line interface.

Subcommands: generate, pretrain, finetune, evaluate, curve, selfcheck.
Exit codes: 0 success, 2 configuration/usage error, 3 data error,
4 numeric or training failure (including failed selfchecks).

Every command writes a resolved <command>_config.json next to its outputs.
Resolved configs and reports reference input files by basename only, so a
rerun with identical seeds into a different directory produces byte-for-byte
identical files.  Output directories are guarded by an advisory .lock file
while a command runs; a stale lock (e.g. after a crash) must be removed by
hand.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import metatrain, model as model_mod, selfcheck, tasks
from .ctc import DEFAULT_BEAM_WIDTH
from .errors import (
    ConfigError,
    GuardError,
    NumericError,
    ParseError,
    UnknownLanguageError,
    ValidationError,
)

# fine-tune epoch defaults by split, mirroring full-pack vs limited-pack practice
DEFAULT_EPOCHS = {"full": 18, "limited": 20}
DEFAULT_PRETRAIN_STEPS = 2000
DEFAULT_CHECKPOINT_EVERY = 200


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _locked_out_dir(out_dir: str):
    """Advisory lock so two commands cannot write one directory concurrently."""
    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, ".lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output directory {out_dir!r} is locked by another run "
            f"(remove {lock_path} if it is stale)"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock_path)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    data.pop("schema_version", None)
    return data


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved_config(out_dir: str, command: str, payload: dict) -> None:
    payload = {"schema_version": 1, "command": command, **payload}
    _write_json(os.path.join(out_dir, f"{command}_config.json"), payload)


def _episode_config(data: dict) -> metatrain.EpisodeConfig:
    try:
        return metatrain.EpisodeConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"bad episode config: {exc}") from exc


def _load_corpora(paths: Sequence[str]) -> list[tasks.LanguageTask]:
    loaded = []
    seen = set()
    for path in paths:
        task = tasks.load_corpus(path)
        if task.language_id in seen:
            raise ValidationError(f"language {task.language_id!r} appears in two corpora")
        seen.add(task.language_id)
        print(
            f"loaded {task.language_id}: full={len(task.full_split)} "
            f"limited={len(task.limited_split)} test={len(task.test_split)}"
        )
        loaded.append(task)
    return loaded


def _feature_dim(corpora: Sequence[tasks.LanguageTask]) -> int:
    dims = {t.full_split[0].features.shape[1] for t in corpora}
    if len(dims) != 1:
        raise ValidationError(f"corpora disagree on feature_dim: {sorted(dims)}")
    return dims.pop()


def _encoder_config_from(data: dict, feature_dim: int) -> model_mod.EncoderConfig:
    hidden = int(data.get("hidden_dim", 64))
    stride = int(data.get("subsample_stride", 2))
    return model_mod.default_encoder_config(
        feature_dim=feature_dim, hidden_dim=hidden, subsample_stride=stride
    )


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    config = _load_config_file(args.config)
    if config:
        family_cfg = tasks.SyntheticFamilyConfig.from_json_dict(config)
    else:
        family_cfg = tasks.default_family_config()
    if args.seed is not None:
        family_cfg = dataclasses.replace(family_cfg, seed=args.seed)

    with _locked_out_dir(args.out):
        family = tasks.generate_family(family_cfg)
        for task in family:
            path = os.path.join(args.out, f"{task.language_id}.jsonl")
            tasks.save_corpus(task, path)
            print(
                f"wrote {task.language_id}.jsonl: full={len(task.full_split)} "
                f"limited={len(task.limited_split)} test={len(task.test_split)}"
            )
        _write_resolved_config(args.out, "generate", {"family": family_cfg.to_json_dict()})
    return 0


def cmd_pretrain(args) -> int:
    config = _load_config_file(args.config)
    episode_cfg = _episode_config(config.get("episode", {}))
    corpora = _load_corpora(args.corpora)
    encoder_cfg = _encoder_config_from(config, _feature_dim(corpora))
    alphabets = {t.language_id: t.alphabet for t in corpora}

    with _locked_out_dir(args.out):
        start = model_mod.init_model(encoder_cfg, alphabets, args.seed)
        total = args.steps
        tick = max(1, total // 10)

        def progress(step: int, loss: float) -> None:
            if step % tick == 0 or step == total:
                print(f"[{args.regime}] step {step}/{total} loss {loss:.4f}")

        checkpoints, log = metatrain.pretrain(
            start,
            corpora,
            args.regime,
            episode_cfg,
            total_steps=total,
            checkpoint_every=args.checkpoint_every,
            out_dir=args.out,
            seed=args.seed,
            progress=progress,
        )
        log.to_csv(os.path.join(args.out, "train_log.csv"))
        _write_resolved_config(
            args.out,
            "pretrain",
            {
                "regime": args.regime,
                "steps": total,
                "checkpoint_every": args.checkpoint_every,
                "seed": args.seed,
                "episode": dataclasses.asdict(episode_cfg),
                "encoder": encoder_cfg.to_json_dict(),
                "corpora": [os.path.basename(p) for p in args.corpora],
            },
        )
        print(f"wrote {len(checkpoints)} checkpoints and train_log.csv to {args.out}")
    return 0


def _finetune_setup(args, corpus_path: str):
    """Shared by finetune/evaluate-style commands: task + starting model."""
    task = tasks.load_corpus(corpus_path)
    config = _load_config_file(args.config)
    if args.checkpoint is not None:
        loaded, _ = model_mod.load_model(args.checkpoint)
    else:
        encoder_cfg = _encoder_config_from(
            config, task.full_split[0].features.shape[1]
        )
        loaded = model_mod.init_model(encoder_cfg, {}, args.seed)
    return task, model_mod.ensure_head(loaded, task.language_id, task.alphabet, args.seed)


def cmd_finetune(args) -> int:
    task, start = _finetune_setup(args, args.corpus)
    epochs = args.epochs if args.epochs is not None else DEFAULT_EPOCHS[args.split]
    cfg = metatrain.FinetuneConfig(
        epochs=epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    with _locked_out_dir(args.out):
        result = metatrain.finetune(start, task, cfg, split=args.split)
        for stats in result.history:
            print(
                f"epoch {stats.epoch}/{epochs} train_loss {stats.train_loss:.4f} "
                f"val_loss {stats.val_loss:.4f}"
            )
        base = os.path.join(args.out, f"finetuned_{task.language_id}")
        model_mod.save_model(result.model, base, seed=args.seed)
        curve_path = os.path.join(args.out, "finetune_log.csv")
        with open(curve_path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for stats in result.history:
                fh.write(f"{stats.epoch},{stats.train_loss!r},{stats.val_loss!r}\n")
        _write_resolved_config(
            args.out,
            "finetune",
            {
                "corpus": os.path.basename(args.corpus),
                "checkpoint": None if args.checkpoint is None
                else os.path.basename(args.checkpoint),
                "split": args.split,
                "epochs": epochs,
                "lr": args.lr,
                "batch_size": args.batch_size,
                "seed": args.seed,
            },
        )
        print(f"wrote finetuned checkpoint and finetune_log.csv to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.beam < 1:
        raise ConfigError(f"--beam must be positive, got {args.beam}")
    task = tasks.load_corpus(args.corpus)
    loaded, _ = model_mod.load_model(args.checkpoint)
    with _locked_out_dir(args.out):
        value, rows = metatrain.evaluate_task(loaded, task, split=args.split, beam=args.beam)
        report = {
            "schema_version": 1,
            "checkpoint": os.path.basename(args.checkpoint),
            "language": task.language_id,
            "split": args.split,
            "beam": args.beam,
            "cer": value,
            "utterances": [
                {"uid": uid, "reference": ref, "hypothesis": hyp} for uid, ref, hyp in rows
            ],
        }
        _write_json(os.path.join(args.out, f"eval_{task.language_id}.json"), report)
        _write_resolved_config(
            args.out,
            "evaluate",
            {
                "corpus": os.path.basename(args.corpus),
                "checkpoint": os.path.basename(args.checkpoint),
                "split": args.split,
                "beam": args.beam,
            },
        )
        print(f"{task.language_id} {args.split} CER {value:.2f} (beam {args.beam})")
    return 0


def _discover_checkpoints(directory: str) -> list[tuple[int, str]]:
    bases = []
    for sidecar in sorted(glob.glob(os.path.join(directory, "checkpoint_*.json"))):
        base = sidecar[: -len(".json")]
        if not os.path.exists(base + ".params"):
            raise ValidationError(f"checkpoint {base!r} is missing its .params file")
        step = model_mod.read_sidecar(base).get("pretrain_step")
        bases.append((-1 if step is None else step, base))
    if not bases:
        raise ConfigError(f"no checkpoint_*.json files under {directory!r}")
    return sorted(bases)


def cmd_curve(args) -> int:
    try:
        wanted = {int(s) for s in args.steps.split(",")} if args.steps else None
    except ValueError:
        raise ConfigError(f"--steps takes comma-separated integers, got {args.steps!r}") from None
    task = tasks.load_corpus(args.corpus)
    found = _discover_checkpoints(args.checkpoints)
    if wanted is not None:
        missing = wanted - {step for step, _ in found}
        if missing:
            raise ConfigError(f"steps {sorted(missing)} have no checkpoint in {args.checkpoints!r}")
        found = [(step, base) for step, base in found if step in wanted]
    cfg = metatrain.FinetuneConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size,
        seed=args.seed, beam=args.beam,
    )

    with _locked_out_dir(args.out):
        rows: list[tuple[str, int, float]] = []

        # every checkpoint loads once, before any fine-tuning, so a corrupt one fails first
        pretrained = [(step, model_mod.load_model(base)[0]) for step, base in found]
        fresh = model_mod.init_model(pretrained[0][1].config, {}, args.seed)
        fresh = model_mod.ensure_head(fresh, task.language_id, task.alphabet, args.seed)
        baseline = metatrain.finetune(fresh, task, cfg, split="limited", track_cer=True)
        rows.append(("no_pretrain", -1, baseline.best_val_cer))
        print(f"no-pretrain baseline: best CER {baseline.best_val_cer:.2f}")

        for step, loaded in pretrained:
            candidate = model_mod.ensure_head(loaded, task.language_id, task.alphabet, args.seed)
            result = metatrain.finetune(candidate, task, cfg, split="limited", track_cer=True)
            rows.append(("checkpoint", step, result.best_val_cer))
            print(f"checkpoint step {step}: best CER {result.best_val_cer:.2f}")

        with open(os.path.join(args.out, "curve.csv"), "w", encoding="utf-8") as fh:
            fh.write("kind,pretrain_step,best_val_cer\n")
            for kind, step, value in rows:
                fh.write(f"{kind},{step},{value!r}\n")
        _write_resolved_config(
            args.out,
            "curve",
            {
                "corpus": os.path.basename(args.corpus),
                "checkpoints": sorted(step for step, _ in found),
                "epochs": args.epochs,
                "lr": args.lr,
                "batch_size": args.batch_size,
                "beam": args.beam,
                "seed": args.seed,
            },
        )
    return 0


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all()
    for result in results:
        print(result.line())
    all_passed = all(r.passed for r in results)
    if args.out:
        with _locked_out_dir(args.out):
            _write_json(
                os.path.join(args.out, "selfcheck_report.json"),
                {
                    "schema_version": 1,
                    "all_passed": bool(all_passed),
                    "checks": [
                        {"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                        for r in results
                    ],
                },
            )
    if not all_passed:
        return _fail(4, "selfcheck found failing oracle suites")
    print("all selfchecks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metactc",
        description="Meta-learned multilingual pretraining for CTC recognizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, seed_default=0):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=seed_default, help="master seed")
        p.add_argument("--out", required=out_required, default=None, help="output directory")

    p = sub.add_parser("generate", help="write a synthetic language family as corpora")
    common(p, seed_default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="pretrain the shared encoder on source corpora")
    common(p)
    p.add_argument("--regime", choices=metatrain.REGIMES, required=True)
    p.add_argument("--corpora", nargs="+", required=True, help="source corpus files")
    p.add_argument("--steps", type=int, default=DEFAULT_PRETRAIN_STEPS)
    p.add_argument("--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt a checkpoint (or a fresh model) to one language")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", default=None, help="pretrained checkpoint base path")
    group.add_argument("--no-pretrain", action="store_true", help="start from random init")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("full", "limited"), default="limited")
    p.add_argument("--epochs", type=int, default=None,
                   help=f"default {DEFAULT_EPOCHS['full']} (full) / {DEFAULT_EPOCHS['limited']} (limited)")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=10)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="decode a split and write an evaluation report")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("full", "limited", "test"), default="test")
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM_WIDTH)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curve", help="transfer quality of each pretraining checkpoint")
    common(p)
    p.add_argument("--checkpoints", required=True, help="directory of pretraining checkpoints")
    p.add_argument("--corpus", required=True, help="target-language corpus")
    p.add_argument("--steps", default=None, help="comma-separated checkpoint steps to use")
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS["limited"])
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM_WIDTH)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("selfcheck", help="run the oracle suites against this installation")
    common(p, out_required=False)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, str(exc))
    except UnknownLanguageError as exc:
        return _fail(2, str(exc.args[0]) if exc.args else str(exc))
    except GuardError as exc:
        return _fail(2, str(exc))
    except (ParseError, ValidationError) as exc:
        return _fail(3, str(exc))
    except OSError as exc:
        return _fail(3, f"i/o failure: {exc}")
    except NumericError as exc:
        return _fail(4, str(exc))


if __name__ == "__main__":
    sys.exit(main())
