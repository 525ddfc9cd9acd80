"""Oracle suites that audit the analytic code paths.

Each check pits an implementation against an independent oracle: the
forward-backward CTC loss against literal path enumeration, every backward
pass against central finite differences, the first-order meta-gradient
against exact differentiation of the learn-then-evaluate pipeline, and the
beam decoder against exhaustive scoring.  The functions accept the thing
under test as an argument so the test suite can hand them a deliberately
broken variant and confirm they fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import diffcore
from .ctc import (
    Alphabet,
    beam_decode,
    ctc_brute_force,
    ctc_loss,
    greedy_decode,
    min_frames,
)
from .diffcore import LayerSpec, NamedParams, finite_diff_grad, grad_relative_error, sgd_step
from .metatrain import (
    EpisodeConfig,
    TaskBatchSample,
    exact_meta_grad_fd,
    meta_episode,
    multitask_grads,
)
from .model import batch_loss_and_grads, default_encoder_config, init_model
from .tasks import SyntheticFamilyConfig, Utterance, generate_family


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy comparisons yield np.bool_; normalize so reports serialize
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _random_lattice(rng: np.random.Generator, frames: int, width: int, scale: float = 1.5):
    return _log_softmax_rows(scale * rng.standard_normal((frames, width)))


def _random_feasible_target(rng: np.random.Generator, n_symbols: int, frames: int) -> np.ndarray:
    """Random label sequence (repeats allowed) that fits in `frames` frames."""
    max_len = frames
    while True:
        length = int(rng.integers(0, max_len + 1))
        labels = rng.integers(0, n_symbols, size=length).astype(np.int64)
        if min_frames(labels) <= frames:
            return labels
        max_len = max(0, length - 1)


# ---------------------------------------------------------------------------
# CTC loss versus brute force


def check_ctc_brute_force(
    n_instances: int = 500,
    seed: int = 20240601,
    tol: float = 1e-10,
    loss_fn: Callable = ctc_loss,
) -> CheckResult:
    """Forward-backward loss equals literal path enumeration on random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        frames = int(rng.integers(1, 7))
        n_symbols = int(rng.integers(1, 4))
        lattice = _random_lattice(rng, frames, n_symbols + 1)
        target = _random_feasible_target(rng, n_symbols, frames)
        got, _ = loss_fn(lattice, target)
        want = ctc_brute_force(lattice, target)
        worst = max(worst, abs(got - want))
    return CheckResult(
        "ctc_vs_brute_force",
        worst < tol,
        f"max |loss - enumeration| = {worst:.3e} over {n_instances} instances (tol {tol:g})",
    )


def check_handcrafted_ctc(loss_fn: Callable = ctc_loss, tol: float = 1e-12) -> CheckResult:
    """Two fully hand-computable cases.

    Uniform 1/3 rows, 3 frames, target 'ab': the 5 admissible paths
    (ab-, a-b, -ab, aab, abb) give P = 5/27.  One uniform frame over
    {blank, a}, target 'a': P = 1/2.
    """
    lattice = np.full((3, 3), np.log(1.0 / 3.0))
    got, _ = loss_fn(lattice, [0, 1])
    want = -np.log(5.0 / 27.0)
    err1 = abs(got - want)
    ok1 = err1 < tol

    single = np.full((1, 2), np.log(0.5))
    got2, _ = loss_fn(single, [0])
    err2 = abs(got2 - np.log(2.0))
    ok2 = err2 < tol
    return CheckResult(
        "ctc_handcrafted",
        ok1 and ok2,
        f"|loss - (-log 5/27)| = {err1:.3e}, |loss - log 2| = {err2:.3e} (tol {tol:g})",
    )


# ---------------------------------------------------------------------------
# gradient checks


def _layer_cases() -> list[LayerSpec]:
    return [
        LayerSpec("frame_stack", 4, 8, stride=2),
        LayerSpec("affine", 4, 3),
        LayerSpec("tanh", 4, 4),
        LayerSpec("recurrent_bidi", 4, 6, hidden=3),
    ]


def check_layer_gradients(
    instances_per_kind: int = 20,
    seed: int = 7011,
    tol: float = 1e-6,
    backward_fn: Callable = diffcore.backward_layer,
) -> CheckResult:
    """Every layer's analytic backward matches finite differences.

    The scalar probe is sum(R * output) for a fixed random R, checked both
    for parameter gradients and for the input gradient (input treated as a
    one-entry parameter set).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_kind = ""
    for spec in _layer_cases():
        for _ in range(instances_per_kind):
            frames = int(rng.integers(2, 7))
            x = rng.standard_normal((frames, spec.input_dim))
            params = diffcore.init_layer_params(spec, rng)
            out, cache = diffcore.forward_layer(spec, params, x)
            probe = rng.standard_normal(out.shape)

            grad_x, grad_p = backward_fn(spec, params, cache, probe)

            if len(params):
                fd_p = finite_diff_grad(
                    lambda p: float(np.sum(probe * diffcore.forward_layer(spec, p, x)[0])),
                    params,
                )
                err = grad_relative_error(grad_p, fd_p)
                if err > worst:
                    worst, worst_kind = err, spec.kind + "/params"

            fd_x = finite_diff_grad(
                lambda q: float(
                    np.sum(probe * diffcore.forward_layer(spec, params, q["x"])[0])
                ),
                NamedParams({"x": x}),
            )
            err = grad_relative_error(NamedParams({"x": grad_x}), fd_x)
            if err > worst:
                worst, worst_kind = err, spec.kind + "/input"
    return CheckResult(
        "layer_gradients",
        worst < tol,
        f"max relative error = {worst:.3e} ({worst_kind}) over "
        f"{instances_per_kind} instances per kind (tol {tol:g})",
    )


def check_lattice_gradients(
    n_instances: int = 20,
    seed: int = 7012,
    tol: float = 1e-6,
    loss_fn: Callable = ctc_loss,
) -> CheckResult:
    """ctc_loss gradients match finite differences through row renormalization.

    The perturbed function maps raw scores through a log-softmax before
    calling the loss, so every probe stays a valid lattice; the analytic
    side chains the reported gradient through the same log-softmax.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        frames = int(rng.integers(2, 7))
        n_symbols = int(rng.integers(1, 4))
        logits = 1.2 * rng.standard_normal((frames, n_symbols + 1))
        target = _random_feasible_target(rng, n_symbols, frames)
        while target.size == 0:
            target = _random_feasible_target(rng, n_symbols, frames)

        lp = _log_softmax_rows(logits)
        _, g_lp = loss_fn(lp, target)
        analytic = g_lp - np.exp(lp) * g_lp.sum(axis=1, keepdims=True)

        fd = finite_diff_grad(
            lambda q: loss_fn(_log_softmax_rows(q["z"]), target)[0],
            NamedParams({"z": logits}),
        )
        worst = max(
            worst, grad_relative_error(NamedParams({"z": analytic}), fd)
        )
    return CheckResult(
        "ctc_lattice_gradients",
        worst < tol,
        f"max relative error = {worst:.3e} over {n_instances} instances (tol {tol:g})",
    )


def _tiny_model(seed: int, n_symbols: int = 2):
    config = default_encoder_config(feature_dim=3, hidden_dim=4, subsample_stride=2)
    alphabet = Alphabet(tuple("abcdef"[:n_symbols]))
    return init_model(config, {"toy": alphabet}, seed), alphabet


def check_end_to_end_gradients(
    n_instances: int = 20, seed: int = 7013, tol: float = 1e-5
) -> CheckResult:
    """Trainer gradients (batch_loss_and_grads, one utterance) match finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_instances):
        model, alphabet = _tiny_model(seed + 100 + i)
        frames = int(rng.integers(4, 9))
        x = rng.standard_normal((frames, 3))
        usable = frames // 2 + (frames % 2)  # frames after stride-2 stacking
        target = _random_feasible_target(rng, alphabet.size, usable)

        batch = [Utterance("toy", x, target)]
        _, enc_g, head_g = batch_loss_and_grads(model, "toy", batch)
        analytic = NamedParams.union(enc_g, head_g.with_prefix("head."))

        combined = NamedParams.union(
            model.encoder_params, model.head("toy").with_prefix("head.")
        )
        enc_names = model.encoder_params.names()

        def pipeline(p: NamedParams) -> float:
            enc = NamedParams({n: p[n] for n in enc_names})
            head = p.subset("head.")
            m = model.with_encoder(enc).with_head("toy", head)
            return batch_loss_and_grads(m, "toy", batch)[0]

        fd = finite_diff_grad(pipeline, combined)
        worst = max(worst, grad_relative_error(analytic, fd))
    return CheckResult(
        "end_to_end_gradients",
        worst < tol,
        f"max relative error = {worst:.3e} over {n_instances} utterances (tol {tol:g})",
    )


# ---------------------------------------------------------------------------
# decoding


def _exhaustive_argmax(lattice: np.ndarray, n_symbols: int) -> tuple[int, ...]:
    """Best label sequence by scoring every candidate with ctc_brute_force."""
    frames = lattice.shape[0]
    best: tuple[float, tuple[int, ...]] | None = None
    stack: list[tuple[int, ...]] = [()]
    while stack:
        seq = stack.pop()
        if min_frames(np.array(seq, dtype=np.int64)) <= frames:
            loss = ctc_brute_force(lattice, np.array(seq, dtype=np.int64))
            if np.isfinite(loss):
                key = (loss, seq)  # lower loss = higher probability
                if best is None or key < best:
                    best = key
            if len(seq) < frames:
                stack.extend(seq + (c,) for c in range(n_symbols - 1, -1, -1))
    assert best is not None
    return best[1]


def check_beam_exact(n_instances: int = 60, seed: int = 7014) -> CheckResult:
    """A saturating beam returns the exact posterior argmax label sequence."""
    rng = np.random.default_rng(seed)
    failures = 0
    for i in range(n_instances):
        frames = int(rng.integers(1, 5))
        n_symbols = int(rng.integers(1, 3))
        alphabet = Alphabet(tuple("ab"[:n_symbols]))
        lattice = _random_lattice(rng, frames, n_symbols + 1)
        want = _exhaustive_argmax(lattice, n_symbols)
        got = tuple(int(v) for v in beam_decode(lattice, alphabet, beam=64))
        failures += got != want
    return CheckResult(
        "beam_exactness",
        failures == 0,
        f"{failures} mismatches vs exhaustive scoring over {n_instances} lattices "
        "(frames <= 4, symbols <= 2, beam 64)",
    )


def check_beam_one_matches_greedy(n_instances: int = 100, seed: int = 7015) -> CheckResult:
    """beam=1 must collapse to exactly the greedy best-path decode."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_instances):
        frames = int(rng.integers(1, 9))
        n_symbols = int(rng.integers(1, 5))
        alphabet = Alphabet(tuple("abcd"[:n_symbols]))
        lattice = _random_lattice(rng, frames, n_symbols + 1, scale=1.0)
        a = beam_decode(lattice, alphabet, beam=1)
        b = greedy_decode(lattice, alphabet)
        failures += not np.array_equal(a, b)
    return CheckResult(
        "beam_one_vs_greedy",
        failures == 0,
        f"{failures} mismatches over {n_instances} random lattices",
    )


# ---------------------------------------------------------------------------
# meta-gradient checks


def _tiny_meta_setup(seed: int):
    """Small two-language family plus a matching model, cheap enough to FD."""
    cfg = SyntheticFamilyConfig(
        n_languages=2,
        alphabet_sizes=(2, 2),
        feature_dim=2,
        shared_pool_size=2,
        duration_range=(2, 3),
        length_range=(2, 4),
        noise_sigma=0.25,
        utterances_per_language=12,
        test_utterances=4,
        subsample_stride=2,
        seed=seed,
    )
    family = generate_family(cfg)
    config = default_encoder_config(feature_dim=2, hidden_dim=3, subsample_stride=2)
    model = init_model(config, {t.language_id: t.alphabet for t in family}, seed + 1)
    return model, family


def _episode_samples(family, n_train=3, n_test=3) -> list[TaskBatchSample]:
    return [
        TaskBatchSample(
            t.language_id, t.full_split[:n_train], t.full_split[n_train: n_train + n_test]
        )
        for t in family
    ]


def check_meta_grad_zero_inner_lr(seed: int = 7016, tol: float = 1e-12) -> CheckResult:
    """With inner_lr = 0 the meta-gradient is the plain multitask gradient."""
    model, family = _tiny_meta_setup(seed)
    samples = _episode_samples(family)
    cfg = EpisodeConfig(inner_lr=0.0, meta_lr=0.1)
    meta_grad, _ = meta_episode(model, samples, cfg)
    _, multi_grad, _ = multitask_grads(
        model, [(s.task_id, s.test_set) for s in samples]
    )
    diff = meta_grad.max_abs_diff(multi_grad)
    return CheckResult(
        "meta_grad_zero_inner_lr",
        diff <= tol,
        f"max |meta - multitask| = {diff:.3e} at inner_lr=0 (tol {tol:g})",
    )


def check_meta_grad_error_halves(
    n_seeds: int = 10,
    inner_lrs: Sequence[float] = (0.1, 0.05, 0.025),
    slack: float = 1.5,
    meta_episode_fn: Callable = meta_episode,
) -> CheckResult:
    """First-order error shrinks linearly with the inner step size.

    The first-order estimate drops the inner-loop curvature term, which
    scales with inner_lr; halving inner_lr must at least halve the relative
    error versus the exact finite-difference pipeline gradient, within a
    1.5x slack, for every seed.
    """
    worst_ratio = 0.0
    min_err = np.inf
    for s in range(n_seeds):
        model, family = _tiny_meta_setup(9000 + s)
        sample = _episode_samples(family)[0]
        errs = []
        for lr in inner_lrs:
            cfg = EpisodeConfig(inner_lr=lr, meta_lr=0.1)
            approx, _ = meta_episode_fn(model, [sample], cfg)
            exact = exact_meta_grad_fd(model, sample, cfg)
            errs.append(approx.add(exact.scale(-1.0)).norm() / exact.norm())
        min_err = min(min_err, min(errs))
        for bigger, smaller in zip(errs, errs[1:]):
            worst_ratio = max(worst_ratio, smaller / bigger)
    passed = worst_ratio <= slack * 0.5
    return CheckResult(
        "meta_grad_error_halves",
        passed,
        f"worst err(lr/2)/err(lr) = {worst_ratio:.3f} over {n_seeds} seeds "
        f"(limit {slack * 0.5:g}); smallest relative error {min_err:.2e}",
    )


def check_scalar_meta_closed_form(tol: float = 1e-9) -> CheckResult:
    """Scalar quadratic task where both meta-gradients are known exactly.

    train loss p^2, test loss (p-1)^2, start p=1, inner_lr=0.1: the inner
    step lands on p'=0.8, the first-order meta-gradient is 2(p'-1) = -0.4
    and the exact one is 2(p'-1)(1 - 2*0.1) = -0.32.
    """
    inner_lr = 0.1
    theta = NamedParams({"theta": np.array([[1.0]])})

    def adapt(p: NamedParams) -> NamedParams:
        grad_tr = NamedParams({"theta": 2.0 * p["theta"]})
        return sgd_step(p, grad_tr, inner_lr)

    def loss_te(p: NamedParams) -> float:
        v = float(p["theta"][0, 0]) - 1.0
        return v * v

    adapted = adapt(theta)
    first_order = 2.0 * (float(adapted["theta"][0, 0]) - 1.0)
    exact = float(finite_diff_grad(lambda p: loss_te(adapt(p)), theta)["theta"][0, 0])

    err_fo = abs(first_order - (-0.4))
    err_ex = abs(exact - (-0.32))
    return CheckResult(
        "scalar_meta_closed_form",
        err_fo <= tol and err_ex <= tol,
        f"first-order -0.4 (err {err_fo:.2e}), exact -0.32 (err {err_ex:.2e}, tol {tol:g})",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_handcrafted_ctc,
    check_ctc_brute_force,
    check_layer_gradients,
    check_lattice_gradients,
    check_end_to_end_gradients,
    check_beam_exact,
    check_beam_one_matches_greedy,
    check_meta_grad_zero_inner_lr,
    check_meta_grad_error_halves,
    check_scalar_meta_closed_form,
)


def run_all() -> list[CheckResult]:
    """Run every oracle suite with its default sizes and seeds."""
    return [check() for check in ALL_CHECKS]
