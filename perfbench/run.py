#!/usr/bin/env python3
"""metactc benchmark: pretraining, fine-tuning and decoding, end to end.

    python3 perfbench/run.py --workload pretrain_meta --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ./src.  One
process and one caller, each call made after the previous one returned (a
closed loop).  A run sets up once (generate, write and load the corpora,
build the model), then repeats whole cycles of the paper's pipeline until
--seconds have passed, and at least twice:

  step   `pretrain` the shared encoder on the six sources for 100 steps
         (regime `meta` or `multi`, by workload), reload its checkpoint
  epoch  fine-tune two targets from it, each on its limited split
  utt    decode both targets' test splits: five rounds of two greedy
         passes and one beam-20 pass

Every cycle is identical, so the losses and CERs of later cycles must equal
the first cycle's bit for bit.  With --trace 0 the last stdout line is a
JSON object with every end-to-end metric.  With --trace 1 cycles alternate
untraced and traced; the object holds the per-layer metrics of the traced
cycles, and the spans go to perfbench/traces/.  See README.md.
"""
from __future__ import annotations

import time

_T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("pretrain_meta", "pretrain_multi")
SOURCES = ("src1", "src2", "src3", "src4", "src5", "src6")
TARGETS = ("tgt1", "tgt2")
STEPS = 100
CHECKPOINT_EVERY = 200  # the CLI's --checkpoint-every default
FINETUNE_EPOCHS = 20  # the CLI's default for the limited split
BEAM = 20
# decoding rounds per cycle, each two greedy passes and one beam pass;
# interleaved passes spread the decode samples over the run
DECODE_ROUNDS = 5
CHECK_UTTS_PER_SOURCE = 2

END_TO_END = (
    ("setup_s", "s"),
    ("step_ms", "ms"),
    ("step_ms_p95", "ms"),
    ("pretrain_s", "s"),
    ("final_loss", "nats"),
    ("finetune_epoch_ms", "ms"),
    ("decode_greedy_ms", "ms/utt"),
    ("decode_beam_ms", "ms/utt"),
    ("target_cer", "%"),
    ("peak_rss_mb", "MB"),
)

# (owner, attribute, span name, wrap options): each function is wrapped
# where its caller looks it up, e.g. model.py calls ctc_loss by the name
# metactc.model.ctc_loss
_KINDS = ("frame_stack", "affine", "tanh", "recurrent_bidi")
_BY_KIND = {"suffix": lambda args: args[0].kind}
TRACED = (
    ("tasks", "generate_family", "tasks.generate_family", {}),
    ("tasks", "save_corpus", "tasks.save_corpus", {}),
    ("tasks", "load_corpus", "tasks.load_corpus", {}),
    ("diffcore", "forward_layer", "diffcore.forward_layer", _BY_KIND),
    ("diffcore", "backward_layer", "diffcore.backward_layer", _BY_KIND),
    ("metatrain", "sgd_step", "diffcore.sgd_step", {}),
    ("NamedParams", "__init__", "diffcore.NamedParams", {}),
    ("model", "ctc_loss", "ctc.ctc_loss", {}),
    ("metatrain", "ctc_forward_loss", "ctc.ctc_forward_loss", {}),
    ("ctc", "greedy_decode", "ctc.greedy_decode", {}),
    ("ctc", "beam_decode", "ctc.beam_decode", {}),
    ("metatrain", "cer", "ctc.cer", {}),
    ("model", "encode", "model.encode", {}),
    ("metatrain", "encode", "model.encode", {}),
    ("metatrain", "batch_loss_and_grads", "model.batch_loss_and_grads",
     {"count": ("model.batch_loss_and_grads.utts", lambda args: len(args[2]))}),
    ("model", "transcribe", "model.transcribe", {}),
    ("model", "save_model", "model.save_model", {}),
    ("model", "load_model", "model.load_model", {}),
    ("metatrain", "learn", "metatrain.learn", {}),
    ("metatrain", "sample_episode", "metatrain.sample_episode", {}),
    ("metatrain", "sample_multitask_batches", "metatrain.sample_multitask_batches", {}),
    ("metatrain", "batch_mean_loss", "metatrain.batch_mean_loss", {}),
)

# The spans each phase of a cycle can run; per-layer metrics are
# <phase>.<span>.ms (self time) and .calls, per unit of the phase: per
# pretraining step, per fine-tune epoch, per decoded utterance.
_LAYERS = [f"diffcore.{d}.{k}" for d in ("forward_layer", "backward_layer") for k in _KINDS]
_TRAIN = _LAYERS + ["diffcore.sgd_step", "diffcore.NamedParams", "ctc.ctc_loss",
                    "model.encode", "model.batch_loss_and_grads"]
PHASE_SPANS = {
    "step": _TRAIN + ["model.save_model", "model.load_model", "metatrain.learn",
                      "metatrain.sample_episode", "metatrain.sample_multitask_batches",
                      "ctc.beam_decode"],
    "epoch": _TRAIN + ["ctc.ctc_forward_loss", "metatrain.batch_mean_loss"],
    "utt": _LAYERS[:4] + ["diffcore.NamedParams", "model.encode", "model.transcribe",
                          "ctc.greedy_decode", "ctc.beam_decode", "ctc.cer"],
}
PER_LAYER = (
    [(f"tasks.{f}.ms", "ms") for f in ("generate_family", "save_corpus", "load_corpus")]
    + [(f"{phase}.{span}.{stat}", "ms" if stat == "ms" else "count")
       for phase, names in PHASE_SPANS.items() for span in names for stat in ("ms", "calls")]
    + [(f"{phase}.model.batch_loss_and_grads.utts", "count") for phase in ("step", "epoch")]
    + [("trace.step_ms", "ms"), ("trace.overhead_ms", "ms")]
)


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Reads the start time from /proc; where that is unavailable, falls back
    to the time since this script began to run.
    """
    since_script = time.perf_counter() - _T_SCRIPT
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return since_script
    return age if since_script <= age < since_script + 60.0 else since_script


def _import_program() -> dict:
    """Import metactc from ./src of this checkout, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import metactc
        from metactc import ctc, diffcore, metatrain, model, tasks
    except ImportError as exc:
        raise SystemExit(f"error: cannot import metactc from {src}: {exc}")
    if Path(metactc.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: metactc was imported from {metactc.__file__}, not {src}")
    return {"ctc": ctc, "diffcore": diffcore, "metatrain": metatrain, "model": model,
            "tasks": tasks, "NamedParams": diffcore.NamedParams}


@dataclass
class Run:
    """What one benchmark run set up and measured."""

    mods: dict
    regime: str
    seed: int
    run_dir: Path
    tracer: Tracer
    sources: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    start_model: object = None
    step_s: list = field(default_factory=list)
    pretrain_s: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    greedy_s: list = field(default_factory=list)
    beam_s: list = field(default_factory=list)
    utts: int = 0
    losses: list | None = None
    target_cer: float | None = None
    attempted: int = 0


def setup(run: Run) -> tuple[list, dict]:
    """Generate, write and load the family's corpora; build the model.

    Returns the generated and the loaded languages, for the round-trip check.
    """
    tasks, model = run.mods["tasks"], run.mods["model"]
    family = tasks.generate_family(tasks.default_family_config())
    corpus_dir = run.run_dir / "corpora"
    corpus_dir.mkdir()
    paths = []
    for task in family:
        paths.append(corpus_dir / f"{task.language_id}.jsonl")
        tasks.save_corpus(task, paths[-1])
    loaded = {t.language_id: t for t in map(tasks.load_corpus, paths)}
    run.sources = [loaded[i] for i in SOURCES]
    run.targets = [loaded[i] for i in TARGETS]
    config = model.default_encoder_config(run.sources[0].full_split[0].features.shape[1])
    run.start_model = model.init_model(
        config, {t.language_id: t.alphabet for t in run.sources}, run.seed
    )
    return family, loaded


def check_setup(family: list, loaded: dict) -> None:
    """Corpora round-trip through JSONL bit-exactly."""
    for task in family:
        twin = loaded[task.language_id]
        for split in ("full", "limited", "test"):
            ours, theirs = task.split(split), twin.split(split)
            if [u.uid for u in ours] != [u.uid for u in theirs]:
                raise checks.CheckFailed(f"{task.language_id}/{split}: uids changed on reload")
            for a, b in zip(ours, theirs):
                checks.same_values(f"{a.uid} features", a.features, b.features)
                checks.same_values(f"{a.uid} transcript", a.transcript, b.transcript)


def pretrain_phase(run: Run):
    """`pretrain` for STEPS steps, then its final checkpoint reloaded."""
    metatrain, model = run.mods["metatrain"], run.mods["model"]
    out_dir = run.run_dir / f"pretrain-{len(run.pretrain_s)}"
    stamps = []
    start = time.perf_counter()
    _, log = metatrain.pretrain(
        run.start_model, run.sources, run.regime, metatrain.EpisodeConfig(),
        total_steps=STEPS, checkpoint_every=CHECKPOINT_EVERY,
        out_dir=str(out_dir), seed=run.seed,
        progress=lambda step, loss: stamps.append(time.perf_counter()),
    )
    run.pretrain_s.append(time.perf_counter() - start)
    run.step_s.extend(np.diff([start] + stamps))
    run.attempted += STEPS
    pretrained, _ = model.load_model(str(out_dir / f"checkpoint_{STEPS:06d}"))
    shutil.rmtree(out_dir)
    return pretrained, [rec.meta_loss for rec in log.records]


def check_pretrained(run: Run, pretrained) -> None:
    """CTC, gradient and (for meta) first-order equivalence checks at the pretrained model."""
    metatrain, model, ctc = run.mods["metatrain"], run.mods["model"], run.mods["ctc"]
    rng = np.random.default_rng(run.seed)
    for task in run.sources:
        for i in rng.choice(len(task.full_split), size=CHECK_UTTS_PER_SOURCE, replace=False):
            utt = task.full_split[int(i)]
            hidden, _ = model.encode(pretrained, utt.features)
            lattice = model.head_forward(pretrained, task.language_id, hidden)
            loss, _ = ctc.ctc_loss(lattice, utt.transcript)
            checks.ctc_matches_reference(loss, lattice, utt.transcript)
    task = run.sources[0]
    batch = [task.full_split[int(i)] for i in rng.choice(len(task.full_split), 4, replace=False)]
    checks.directional_gradient(
        *checks.flat_model_problem(model, pretrained, task.language_id, batch), rng
    )
    if run.regime == "meta":
        cfg = replace(metatrain.EpisodeConfig(), inner_lr=0.0)
        samples = metatrain.sample_episode(rng, run.sources, cfg)
        meta_grad, _ = metatrain.meta_episode(pretrained, samples, cfg)
        _, multi_grad, _ = metatrain.multitask_grads(
            pretrained, [(s.task_id, s.test_set) for s in samples]
        )
        if not meta_grad.max_abs_diff(multi_grad) <= 1e-12:
            raise checks.CheckFailed("meta_episode at inner_lr=0 differs from multitask_grads")


@contextlib.contextmanager
def _epoch_stamps(metatrain):
    """Timestamps of finetune's epoch ends.

    finetune has no per-epoch callback; each epoch ends with one validation
    batch_mean_loss call, whose return marks the epoch boundary.
    """
    inner = metatrain.batch_mean_loss
    stamps = [time.perf_counter()]

    def stamped(*args, **kwargs):
        value = inner(*args, **kwargs)
        stamps.append(time.perf_counter())
        return value

    metatrain.batch_mean_loss = stamped
    try:
        yield stamps
    finally:
        metatrain.batch_mean_loss = inner


def finetune_phase(run: Run, pretrained) -> list:
    """Fine-tune every target from the pretrained model; returns the tuned models."""
    metatrain, model = run.mods["metatrain"], run.mods["model"]
    cfg = metatrain.FinetuneConfig(epochs=FINETUNE_EPOCHS, seed=run.seed)
    tuned = []
    for task in run.targets:
        candidate = model.ensure_head(pretrained, task.language_id, task.alphabet, run.seed)
        with _epoch_stamps(metatrain) as stamps:
            result = metatrain.finetune(candidate, task, cfg, split="limited")
        if len(stamps) != FINETUNE_EPOCHS + 1:
            raise checks.CheckFailed(f"saw {len(stamps) - 1} epoch ends, not {FINETUNE_EPOCHS}")
        run.epoch_s.extend(np.diff(stamps))
        run.attempted += FINETUNE_EPOCHS
        checks.training_loss_falls([h.train_loss for h in result.history])
        tuned.append(result.model)
    return tuned


def decode_phase(run: Run, tuned: list) -> list:
    """Decode every target's test split at beam 1 and beam 20; returns the beam-20 results."""
    evaluate_task = run.mods["metatrain"].evaluate_task
    n_utts = sum(len(t.test_split) for t in run.targets)
    for _ in range(DECODE_ROUNDS):
        for beam, times in ((1, run.greedy_s), (1, run.greedy_s), (BEAM, run.beam_s)):
            t0 = time.perf_counter()
            results = [evaluate_task(m, t, split="test", beam=beam) for m, t in zip(tuned, run.targets)]
            times.append((time.perf_counter() - t0) / n_utts)
            run.utts += n_utts
            run.attempted += n_utts
            for (value, rows), m, task in zip(results, tuned, run.targets):
                checks.cer_matches_reference(value, rows)
                stride = m.config.subsample_stride
                frames = {u.uid: -(-u.features.shape[0] // stride) for u in task.test_split}
                checks.hypotheses_fit(rows, task.alphabet.symbols, frames)
    return results


def cycle(run: Run) -> None:
    """One whole pass of the pipeline, checked against the first pass."""
    run.tracer.phase = "step"
    pretrained, losses = pretrain_phase(run)
    run.tracer.phase = "epoch"
    tuned = finetune_phase(run, pretrained)
    run.tracer.phase = "utt"
    results = decode_phase(run, tuned)
    run.tracer.phase = "setup"
    checks.losses_fall(losses)
    cer = float(np.mean([value for value, _ in results]))
    if run.losses is None:
        run.losses, run.target_cer = losses, cer
        check_pretrained(run, pretrained)
    else:
        checks.same_values("logged losses of a repeated cycle", run.losses, losses)
        checks.same_values("target CER of a repeated cycle", run.target_cer, cer)


def _low(samples) -> float:
    """10th percentile: the time in the machine's fast phase (see README.md)."""
    return float(np.percentile(samples, 10))


def end_to_end(run: Run, setup_s: float) -> dict:
    steps_ms = 1e3 * np.asarray(run.step_s)
    if steps_ms.size < 200:
        raise checks.CheckFailed(f"{steps_ms.size} step samples; the 95th percentile needs 200")
    values = {
        "setup_s": setup_s,
        "step_ms": _low(steps_ms),
        "step_ms_p95": float(np.percentile(steps_ms, 95)),
        "pretrain_s": min(run.pretrain_s),
        "final_loss": float(np.mean(run.losses[-len(run.losses) // 10:])),
        "finetune_epoch_ms": 1e3 * _low(run.epoch_s),
        "decode_greedy_ms": 1e3 * min(run.greedy_s),
        "decode_beam_ms": 1e3 * min(run.beam_s),
        "target_cer": run.target_cer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, units: dict, traced_steps: list, plain_steps: list) -> dict:
    self_s, calls = run.tracer.summary()
    values = {f"{name}.ms": 1e3 * self_s.get(("setup", name), 0.0)
              for name in ("tasks.generate_family", "tasks.save_corpus", "tasks.load_corpus")}
    for phase, names in PHASE_SPANS.items():
        for name in names:
            values[f"{phase}.{name}.ms"] = 1e3 * self_s.get((phase, name), 0.0) / units[phase]
            values[f"{phase}.{name}.calls"] = calls.get((phase, name), 0) / units[phase]
    for phase in ("step", "epoch"):
        counted = run.tracer.counters.get((phase, "model.batch_loss_and_grads.utts"), 0)
        values[f"{phase}.model.batch_loss_and_grads.utts"] = counted / units[phase]
    values["trace.step_ms"] = 1e3 * _low(traced_steps)
    values["trace.overhead_ms"] = values["trace.step_ms"] - 1e3 * _low(plain_steps)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    mods = _import_program()
    runs_dir = BENCH_DIR / ".runs"
    runs_dir.mkdir(exist_ok=True)
    run = Run(mods, args.workload.split("_")[1], args.seed,
              Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)),
              Tracer(("setup", "step", "epoch", "utt")))
    patches = [(mods[owner], attr, name, kw) for owner, attr, name, kw in TRACED]
    try:
        with run.tracer.installed([p for p in patches if args.trace and p[2].startswith("tasks.")]):
            family, loaded = setup(run)
        setup_s = _process_age()
        check_setup(family, loaded)

        traced_units = {"step": 0, "epoch": 0, "utt": 0}
        traced_steps, plain_steps = [], []
        deadline = time.perf_counter() + args.seconds
        cycles = 0
        while cycles < 2 or time.perf_counter() < deadline:
            traced = args.trace and cycles % 2 == 1
            before = (len(run.step_s), len(run.epoch_s), run.utts)
            with run.tracer.installed(patches if traced else []):
                cycle(run)
            (traced_steps if traced else plain_steps).extend(run.step_s[before[0]:])
            if traced:
                traced_units["step"] += len(run.step_s) - before[0]
                traced_units["epoch"] += len(run.epoch_s) - before[1]
                traced_units["utt"] += run.utts - before[2]
            cycles += 1

        if args.trace:
            metrics = per_layer(run, traced_units, traced_steps, plain_steps)
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            run.tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.npz")
        else:
            metrics = end_to_end(run, setup_s)
        correct = True
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
