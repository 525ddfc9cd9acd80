"""Multitask and first-order meta-learned pretraining, plus fine-tuning.

Both regimes share one gradient vocabulary.  A task's batch objective is the
mean per-utterance CTC loss; across tasks, objectives and gradients add.

multitask pretraining takes one SGD step per round on the summed
per-language batch objectives, updating the encoder and every sampled head.

meta pretraining instead simulates adaptation: each sampled task takes
inner_steps SGD steps on its train subset (the inner loop adapts encoder and
head together), the adapted model is scored on a disjoint test subset, and
the encoder is updated with the first-order meta-gradient: the test-set
encoder gradient evaluated at the adapted parameters, summed over tasks.
Heads persist across episodes and keep their inner-loop adaptation, so each
language's head tracks its own task while the encoder is pushed toward
parameters that adapt well.

exact_meta_grad_fd differentiates the whole learn-then-evaluate pipeline by
central finite differences on tiny models.  It is the oracle that pins down
what the first-order approximation ignores, so it must never share gradient
code with meta_episode.
"""
from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model as model_mod
from .ctc import DEFAULT_BEAM_WIDTH, cer, ctc_forward_loss
from .diffcore import NamedParams, finite_diff_grad, sgd_step
from .errors import ConfigError, GuardError, NumericError, ValidationError
from .model import MultiHeadModel, batch_loss_and_grads, encode, head_forward
from .tasks import LanguageTask, Utterance


@dataclass(frozen=True)
class EpisodeConfig:
    """Hyperparameters of one pretraining round (either regime).

    inner_lr may be zero: the adapted parameters then equal the current ones
    and the meta-gradient degenerates to the plain multitask gradient, which
    the equivalence checks rely on.  n_train doubles as the per-language
    batch size of the multitask regime.
    """

    inner_lr: float = 0.05
    meta_lr: float = 0.05
    tasks_per_episode: int | None = None  # None = every task, in list order
    n_train: int = 4
    n_test: int = 4
    inner_steps: int = 1

    def __post_init__(self):
        if self.inner_lr < 0:
            raise ConfigError("inner_lr must be non-negative")
        if self.meta_lr <= 0:
            raise ConfigError("meta_lr must be positive")
        if self.tasks_per_episode is not None and self.tasks_per_episode < 1:
            raise ConfigError("tasks_per_episode must be positive (or None for all)")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be positive")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be at least 1")


@dataclass(frozen=True)
class TaskBatchSample:
    """Train/test utterance subsets drawn from one task for one episode."""

    task_id: str
    train_set: tuple[Utterance, ...]
    test_set: tuple[Utterance, ...]

    def __post_init__(self):
        object.__setattr__(self, "train_set", tuple(self.train_set))
        object.__setattr__(self, "test_set", tuple(self.test_set))
        if not self.train_set or not self.test_set:
            raise ValidationError(f"{self.task_id}: train and test subsets must be non-empty")
        train_ids = {u.uid for u in self.train_set}
        test_ids = {u.uid for u in self.test_set}
        if train_ids & test_ids:
            raise ValidationError(
                f"{self.task_id}: train/test subsets share uids {sorted(train_ids & test_ids)[:3]}"
            )


@dataclass(frozen=True)
class StepRecord:
    step: int
    regime: str
    task_losses: tuple[tuple[str, float], ...]
    meta_loss: float
    elapsed_seconds: float


class TrainLog:
    """Per-step training records with a flat CSV form.

    CSV columns: step, regime, task_id, task_loss, meta_loss,
    elapsed_seconds (one row per task per step).  All numbers are written
    with Python's shortest round-trip repr.
    """

    def __init__(self):
        self.records: list[StepRecord] = []

    def append(self, record: StepRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            raise ValidationError(
                f"log steps must increase: {record.step} after {self.records[-1].step}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step", "regime", "task_id", "task_loss", "meta_loss", "elapsed_seconds"]
            )
            for rec in self.records:
                for task_id, loss in rec.task_losses:
                    writer.writerow(
                        [rec.step, rec.regime, task_id, repr(loss),
                         repr(rec.meta_loss), repr(rec.elapsed_seconds)]
                    )


# ---------------------------------------------------------------------------
# the inner loop and the two pretraining gradients


def _mean_batch_grads(
    model: MultiHeadModel, task_id: str, batch: Sequence[Utterance]
) -> tuple[float, NamedParams, NamedParams]:
    loss, enc, head = batch_loss_and_grads(model, task_id, batch)
    n = float(len(batch))
    return loss / n, enc.scale(1.0 / n), head.scale(1.0 / n)


def batch_mean_loss(model: MultiHeadModel, task_id: str, batch: Sequence[Utterance]) -> float:
    """Mean per-utterance CTC loss of a batch, forward pass only."""
    if not len(batch):
        raise ValidationError("batch must contain at least one utterance")
    total = 0.0
    for utt in batch:
        hidden, _ = encode(model, utt.features)
        lattice = head_forward(model, task_id, hidden)
        total += ctc_forward_loss(lattice, utt.transcript)
    return total / len(batch)


def _apply_grads(
    model: MultiHeadModel, enc_grad: NamedParams, head_grads: dict[str, NamedParams], lr: float
) -> MultiHeadModel:
    """One SGD step at lr: the encoder against enc_grad, each listed head against its gradient."""
    model = model.with_encoder(sgd_step(model.encoder_params, enc_grad, lr))
    for task_id, head_g in head_grads.items():
        model = model.with_head(task_id, sgd_step(model.head(task_id), head_g, lr))
    return model


def learn(
    model: MultiHeadModel,
    task_id: str,
    data: Sequence[Utterance],
    lr: float,
    steps: int = 1,
) -> MultiHeadModel:
    """Plain SGD on one task: adapts the encoder and that task's head.

    Every step moves against the mean per-utterance gradient of the whole
    batch.  The input model is unmodified.
    """
    if not len(data):
        raise ValidationError("learn needs at least one utterance")
    if steps < 1:
        raise ConfigError("steps must be at least 1")
    if lr < 0:
        raise ConfigError("lr must be non-negative")
    for _ in range(steps):
        _, enc_g, head_g = _mean_batch_grads(model, task_id, data)
        model = _apply_grads(model, enc_g, {task_id: head_g}, lr)
    return model


def multitask_grads(
    model: MultiHeadModel, batches: Sequence[tuple[str, Sequence[Utterance]]]
) -> tuple[list[tuple[str, float]], NamedParams, dict[str, NamedParams]]:
    """Summed multitask gradient over per-language batches.

    Returns per-batch (task_id, mean loss) pairs, the encoder gradient
    summed over batches in the given order, and per-language head gradients.
    Passing the same language twice simply doubles its contribution.
    """
    if not len(batches):
        raise ValidationError("multitask step needs at least one batch")
    losses: list[tuple[str, float]] = []
    enc_total: NamedParams | None = None
    head_totals: dict[str, NamedParams] = {}
    for task_id, batch in batches:
        loss, enc_g, head_g = _mean_batch_grads(model, task_id, batch)
        losses.append((task_id, loss))
        enc_total = enc_g if enc_total is None else enc_total.add(enc_g)
        if task_id in head_totals:
            head_totals[task_id] = head_totals[task_id].add(head_g)
        else:
            head_totals[task_id] = head_g
    return losses, enc_total, head_totals


def multitask_step(
    model: MultiHeadModel, batches: Sequence[tuple[str, Sequence[Utterance]]], lr: float
) -> tuple[MultiHeadModel, list[tuple[str, float]]]:
    """One SGD step on the summed per-language batch objectives.

    Returns the updated model and the per-batch (task_id, mean loss) pairs.
    """
    task_losses, enc_g, head_totals = multitask_grads(model, batches)
    return _apply_grads(model, enc_g, head_totals, lr), task_losses


def _adapt_and_eval(
    model: MultiHeadModel, samples: Sequence[TaskBatchSample], cfg: EpisodeConfig
) -> tuple[NamedParams, list[tuple[str, float]], dict[str, NamedParams]]:
    """Shared core of meta_episode and meta_step.

    For each sample: run the inner loop, evaluate the test subset at the
    adapted parameters, and accumulate the first-order encoder meta-gradient
    in sample order.  Returns (meta_grad, per-task losses, adapted heads).
    """
    if not len(samples):
        raise ValidationError("episode needs at least one task sample")
    meta_grad: NamedParams | None = None
    task_losses: list[tuple[str, float]] = []
    adapted_heads: dict[str, NamedParams] = {}
    for sample in samples:
        adapted = learn(model, sample.task_id, sample.train_set, cfg.inner_lr, cfg.inner_steps)
        loss, enc_g, _ = _mean_batch_grads(adapted, sample.task_id, sample.test_set)
        meta_grad = enc_g if meta_grad is None else meta_grad.add(enc_g)
        task_losses.append((sample.task_id, loss))
        adapted_heads[sample.task_id] = adapted.head(sample.task_id)
    return meta_grad, task_losses, adapted_heads


def meta_episode(
    model: MultiHeadModel, samples: Sequence[TaskBatchSample], cfg: EpisodeConfig
) -> tuple[NamedParams, float]:
    """First-order meta-gradient of one episode and the summed adapted test loss.

    The gradient covers encoder parameters only: for each task it is the
    test-subset encoder gradient taken at that task's inner-adapted
    parameters, and tasks add in sample order.  The input model is never
    modified.
    """
    meta_grad, task_losses, _ = _adapt_and_eval(model, samples, cfg)
    return meta_grad, sum(loss for _, loss in task_losses)


def meta_step(
    model: MultiHeadModel, samples: Sequence[TaskBatchSample], cfg: EpisodeConfig
) -> tuple[MultiHeadModel, list[tuple[str, float]]]:
    """One meta step: the encoder moves by meta_lr against the episode's meta-gradient.

    Sampled tasks' heads are replaced by their inner-adapted versions (adapted
    from the pre-update encoder); unsampled heads are untouched.  Returns the
    updated model and the per-task adapted test losses.
    """
    meta_grad, task_losses, adapted_heads = _adapt_and_eval(model, samples, cfg)
    model = _apply_grads(model, meta_grad, {}, cfg.meta_lr)
    for task_id, head in adapted_heads.items():
        model = model.with_head(task_id, head)
    return model, task_losses


def exact_meta_grad_fd(
    model: MultiHeadModel,
    sample: TaskBatchSample,
    cfg: EpisodeConfig,
    step: float = 1e-5,
    guard: int = 2000,
) -> NamedParams:
    """Exact single-task meta-gradient by finite differences, tiny models only.

    Differentiates encoder -> learn(train subset) -> test loss as one black
    box, so unlike the first-order estimate it includes the curvature of the
    inner loop.  Cost is two full inner loops per encoder entry; models
    above the parameter guard are refused.
    """
    n_params = model.encoder_params.size + model.head(sample.task_id).size
    if n_params > guard:
        raise GuardError(
            f"model has {n_params} parameters; the exact meta-gradient oracle "
            f"is limited to {guard}"
        )

    def pipeline_loss(enc_params: NamedParams) -> float:
        candidate = model.with_encoder(enc_params)
        adapted = learn(candidate, sample.task_id, sample.train_set, cfg.inner_lr, cfg.inner_steps)
        return batch_mean_loss(adapted, sample.task_id, sample.test_set)

    return finite_diff_grad(pipeline_loss, model.encoder_params, step)


# ---------------------------------------------------------------------------
# episode sampling and the pretraining loop


def sample_episode(
    rng: np.random.Generator,
    tasks: Sequence[LanguageTask],
    cfg: EpisodeConfig,
) -> list[TaskBatchSample]:
    """Draw one episode: tasks uniformly without replacement, then disjoint
    train/test utterance subsets from each task's full split."""
    if not len(tasks):
        raise ValidationError("no tasks to sample from")
    k = len(tasks) if cfg.tasks_per_episode is None else cfg.tasks_per_episode
    if k > len(tasks):
        raise ConfigError(f"tasks_per_episode={k} exceeds the {len(tasks)} available tasks")
    if k == len(tasks):
        chosen = list(range(len(tasks)))
    else:
        chosen = sorted(int(i) for i in rng.choice(len(tasks), size=k, replace=False))
    samples = []
    for i in chosen:
        task = tasks[i]
        pool = task.full_split
        need = cfg.n_train + cfg.n_test
        if need > len(pool):
            raise ConfigError(
                f"{task.language_id}: episode needs {need} utterances, "
                f"full split has {len(pool)}"
            )
        idx = rng.choice(len(pool), size=need, replace=False)
        train = tuple(pool[int(j)] for j in idx[: cfg.n_train])
        test = tuple(pool[int(j)] for j in idx[cfg.n_train:])
        samples.append(TaskBatchSample(task.language_id, train, test))
    return samples


def sample_multitask_batches(
    rng: np.random.Generator, tasks: Sequence[LanguageTask], batch_size: int
) -> list[tuple[str, tuple[Utterance, ...]]]:
    """One batch per task (in task order) from each full split."""
    batches = []
    for task in tasks:
        if batch_size > len(task.full_split):
            raise ConfigError(
                f"{task.language_id}: batch of {batch_size} exceeds the "
                f"{len(task.full_split)}-utterance full split"
            )
        idx = rng.choice(len(task.full_split), size=batch_size, replace=False)
        batches.append((task.language_id, tuple(task.full_split[int(j)] for j in idx)))
    return batches


REGIMES = ("multi", "meta")


def pretrain(
    model: MultiHeadModel,
    tasks: Sequence[LanguageTask],
    regime: str,
    cfg: EpisodeConfig,
    total_steps: int,
    checkpoint_every: int,
    out_dir: str,
    seed: int,
    progress: Callable[[int, float], None] | None = None,
) -> tuple[list[tuple[int, str]], TrainLog]:
    """Run one pretraining regime end to end.

    Writes checkpoint_<step> (params + sidecar) into out_dir every
    checkpoint_every steps and always at the final step; returns the
    (step, base path) list plus the TrainLog.  All sampling comes from one
    generator seeded with `seed`, so reruns are bit-identical.
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if total_steps < 1 or checkpoint_every < 1:
        raise ConfigError("total_steps and checkpoint_every must be positive")
    for task in tasks:
        if task.language_id not in model.heads:
            raise ConfigError(f"model has no head for pretraining task {task.language_id!r}")

    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    log = TrainLog()
    checkpoints: list[tuple[int, str]] = []
    start = time.perf_counter()

    for step_idx in range(1, total_steps + 1):
        if regime == "meta":
            model, task_losses = meta_step(model, sample_episode(rng, tasks, cfg), cfg)
        else:
            batches = sample_multitask_batches(rng, tasks, cfg.n_train)
            model, task_losses = multitask_step(model, batches, cfg.meta_lr)
        meta_loss = sum(loss for _, loss in task_losses)

        if not np.isfinite(meta_loss):
            raise NumericError(f"non-finite loss at pretraining step {step_idx}")
        elapsed = time.perf_counter() - start
        log.append(StepRecord(step_idx, regime, tuple(task_losses), meta_loss, elapsed))
        if progress is not None:
            progress(step_idx, meta_loss)
        if step_idx % checkpoint_every == 0 or step_idx == total_steps:
            base = os.path.join(out_dir, f"checkpoint_{step_idx:06d}")
            model_mod.save_model(model, base, pretrain_step=step_idx, seed=seed)
            checkpoints.append((step_idx, base))

    return checkpoints, log


# ---------------------------------------------------------------------------
# fine-tuning and evaluation


@dataclass(frozen=True)
class FinetuneConfig:
    """Budget for adapting to one language."""

    epochs: int = 20
    lr: float = 0.05
    batch_size: int = 10
    seed: int = 0
    beam: int = 1  # decode width for validation CER

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.beam < 1:
            raise ConfigError("epochs, batch_size and beam must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_cer: float | None


@dataclass(frozen=True)
class FinetuneResult:
    model: MultiHeadModel
    history: tuple[EpochStats, ...]

    @property
    def best_val_cer(self) -> float:
        cers = [h.val_cer for h in self.history if h.val_cer is not None]
        if not cers:
            raise ValidationError("fine-tune history holds no validation CER")
        return min(cers)


def finetune(
    model: MultiHeadModel,
    task: LanguageTask,
    cfg: FinetuneConfig,
    split: str = "limited",
    track_cer: bool = False,
) -> FinetuneResult:
    """Epoch-wise minibatch SGD on one language's chosen split.

    Every epoch reshuffles (seeded), walks the split in minibatches of
    cfg.batch_size and records the mean training loss seen plus the loss on
    the task's test split; with track_cer the test split is also decoded
    each epoch (beam cfg.beam) so callers can pick the best epoch.  The
    model must already have a head for the task.
    """
    data = task.split(split)
    if not data:
        raise ValidationError(f"{task.language_id}: split {split!r} is empty")
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(data))
        seen_loss = 0.0
        for lo in range(0, len(data), cfg.batch_size):
            batch = [data[int(i)] for i in order[lo: lo + cfg.batch_size]]
            loss, enc_g, head_g = _mean_batch_grads(model, task.language_id, batch)
            seen_loss += loss * len(batch)
            model = _apply_grads(model, enc_g, {task.language_id: head_g}, cfg.lr)
        train_loss = seen_loss / len(data)
        if not np.isfinite(train_loss):
            raise NumericError(f"non-finite training loss in epoch {epoch}")
        val_loss = (
            batch_mean_loss(model, task.language_id, task.test_split)
            if task.test_split
            else float("nan")
        )
        val_cer = None
        if track_cer:
            val_cer, _ = evaluate_task(model, task, split="test", beam=cfg.beam)
        history.append(EpochStats(epoch, train_loss, val_loss, val_cer))
    return FinetuneResult(model=model, history=tuple(history))


def evaluate_task(
    model: MultiHeadModel,
    task: LanguageTask,
    split: str = "test",
    beam: int = DEFAULT_BEAM_WIDTH,
) -> tuple[float, list[tuple[str, str, str]]]:
    """Decode one split and score it: returns (CER, [(uid, ref, hyp), ...])."""
    data = task.split(split)
    if not data:
        raise ValidationError(f"{task.language_id}: split {split!r} is empty")
    alphabet = model.alphabet(task.language_id)
    rows = []
    for utt in data:
        hyp = model_mod.transcribe(model, task.language_id, utt.features, beam=beam)
        rows.append(
            (utt.uid, alphabet.labels_to_text(utt.transcript), alphabet.labels_to_text(hyp))
        )
    value = cer([r[1] for r in rows], [r[2] for r in rows])
    return value, rows
