"""Correctness checks the benchmark applies to the program's outputs.

Each check raises CheckFailed with a reason when its condition does not
hold.  The tolerances are fixed from float64 arithmetic, never from today's
output: the tests feed each check a planted fault to show that it fails.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

import reference


class CheckFailed(Exception):
    """A program output broke a correctness condition."""


def losses_fall(losses: Sequence[float]) -> None:
    """Every logged loss is finite and the last tenth averages below half the first."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size < 10 or not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{arr.size} logged losses, not all finite")
    k = arr.size // 10
    first, last = arr[:k].mean(), arr[-k:].mean()
    if not last < 0.5 * first:
        raise CheckFailed(f"loss fell from {first:.4f} only to {last:.4f}")


def directional_gradient(
    loss_at: Callable[[np.ndarray], float],
    theta: np.ndarray,
    grad: np.ndarray,
    rng: np.random.Generator,
    n_dirs: int = 3,
    step: float = 1e-5,
    rtol: float = 1e-5,
) -> float:
    """Analytic gradient against central differences along random unit directions.

    Returns the worst relative error; raises when it exceeds rtol.
    """
    worst = 0.0
    for _ in range(n_dirs):
        v = rng.standard_normal(theta.size)
        v /= np.linalg.norm(v)
        numeric = (loss_at(theta + step * v) - loss_at(theta - step * v)) / (2.0 * step)
        analytic = float(grad @ v)
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-300)
        worst = max(worst, err)
    if not worst <= rtol:
        raise CheckFailed(f"directional derivative off by {worst:.3e} relative (tol {rtol:g})")
    return worst


def ctc_matches_reference(program_loss: float, log_probs, target, atol: float = 1e-9) -> None:
    """The program's CTC loss equals the scaled probability-space forward."""
    ref = reference.ctc_nll(log_probs, target)
    if not abs(program_loss - ref) <= atol:
        raise CheckFailed(f"ctc loss {program_loss!r} vs reference {ref!r}")


def cer_matches_reference(reported: float, rows: Sequence[tuple[str, str, str]]) -> None:
    """The reported CER equals a plain Levenshtein CER over the same (uid, ref, hyp) rows."""
    ref = reference.cer([r for _, r, _ in rows], [h for _, _, h in rows])
    if not abs(reported - ref) <= 1e-9:
        raise CheckFailed(f"reported CER {reported!r} vs reference {ref!r}")


def hypotheses_fit(
    rows: Sequence[tuple[str, str, str]], symbols: Sequence[str], frames: dict[str, int]
) -> None:
    """Each hypothesis uses only alphabet symbols and fits its lattice's frame count."""
    allowed = set(symbols)
    for uid, _, hyp in rows:
        if not set(hyp) <= allowed:
            raise CheckFailed(f"{uid}: hypothesis {hyp!r} leaves the alphabet")
        need = len(hyp) + sum(a == b for a, b in zip(hyp, hyp[1:]))
        if need > frames[uid]:
            raise CheckFailed(f"{uid}: hypothesis needs {need} frames, lattice has {frames[uid]}")


def training_loss_falls(train_losses: Sequence[float]) -> None:
    """The last fine-tune epoch's training loss is below the first epoch's."""
    first, last = train_losses[0], train_losses[-1]
    if not (math.isfinite(last) and last < first):
        raise CheckFailed(f"fine-tune training loss went from {first!r} to {last!r}")


def same_values(what: str, a, b) -> None:
    """Two arrays are equal, entry for entry."""
    if not np.array_equal(np.asarray(a), np.asarray(b)):
        raise CheckFailed(f"{what}: values differ")


# ---------------------------------------------------------------------------
# the model as a flat vector, for the directional gradient check


def flat_model_problem(model_mod, model, language: str, batch):
    """(loss_at, theta, grad) for the summed CTC loss of `batch` on one language.

    theta stacks the encoder and that language's head; grad comes from the
    program's batch_loss_and_grads, and loss_at runs the forward-only path
    (encode, head_forward) into the reference CTC forward.
    """
    head = model.head(language)
    parts = [(True, n, a.shape) for n, a in model.encoder_params.items()]
    parts += [(False, n, a.shape) for n, a in head.items()]
    theta = np.concatenate(
        [(model.encoder_params if enc else head)[n].ravel() for enc, n, _ in parts]
    )
    _, enc_g, head_g = model_mod.batch_loss_and_grads(model, language, batch)
    grad = np.concatenate([(enc_g if enc else head_g)[n].ravel() for enc, n, _ in parts])
    params_type = type(model.encoder_params)

    def loss_at(vec: np.ndarray) -> float:
        enc_entries, head_entries, offset = {}, {}, 0
        for enc, name, shape in parts:
            size = shape[0] * shape[1]
            (enc_entries if enc else head_entries)[name] = vec[offset: offset + size].reshape(shape)
            offset += size
        probe = model.with_encoder(params_type(enc_entries)).with_head(
            language, params_type(head_entries)
        )
        total = 0.0
        for utt in batch:
            hidden, _ = model_mod.encode(probe, utt.features)
            total += reference.ctc_nll(model_mod.head_forward(probe, language, hidden), utt.transcript)
        return total

    return loss_at, theta, grad
