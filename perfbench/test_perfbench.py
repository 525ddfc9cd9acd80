"""Tests of the benchmark's own references, checks and tracer.

    PYTHONPATH=src python -m pytest perfbench -q

The references are held against the program's oracles (ctc_brute_force,
edit_distance) and a hand-derived case; each correctness check is shown to
fail when fed a planted fault.
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
from metactc import model as model_mod  # noqa: E402
from metactc.ctc import Alphabet, cer, ctc_brute_force, ctc_loss, edit_distance  # noqa: E402
from metactc.tasks import Utterance  # noqa: E402


def _random_lattice(rng, frames, width):
    logits = rng.standard_normal((frames, width))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def test_reference_ctc_hand_derived_case():
    # ab-, a-b, -ab, aab, abb: five of the 27 equally likely 3-frame paths
    uniform = np.log(np.full((3, 3), 1.0 / 3.0))
    assert reference.ctc_nll(uniform, [0, 1]) == pytest.approx(-math.log(5 / 27), abs=1e-12)


def test_reference_ctc_matches_brute_force():
    rng = np.random.default_rng(0)
    for frames, width in itertools.product(range(1, 6), range(2, 5)):
        lattice = _random_lattice(rng, frames, width)
        for length in range(0, 4):
            target = rng.integers(0, width - 1, size=length)
            expected = ctc_brute_force(lattice, target)
            got = reference.ctc_nll(lattice, target)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_reference_cer_is_levenshtein():
    assert reference.levenshtein("kitten", "sitting") == 3
    assert reference.levenshtein("", "abc") == 3
    assert reference.levenshtein("abc", "") == 3
    rng = np.random.default_rng(1)
    refs, hyps = [], []
    for _ in range(200):
        a = "".join(rng.choice(list("abc"), size=rng.integers(1, 7)))
        b = "".join(rng.choice(list("abc"), size=rng.integers(0, 7)))
        assert reference.levenshtein(a, b) == edit_distance(a, b)
        refs.append(a)
        hyps.append(b)
    assert reference.cer(refs, hyps) == cer(refs, hyps)


# ---------------------------------------------------------------------------
# each check passes on the program's output and fails on a planted fault


def _tiny_problem():
    rng = np.random.default_rng(2)
    alphabet = Alphabet(("a", "b"))
    config = model_mod.default_encoder_config(feature_dim=3, hidden_dim=4)
    model = model_mod.init_model(config, {"x": alphabet}, seed=3)
    batch = [
        Utterance(f"u{i}", rng.standard_normal((8, 3)), np.array([0, 1, 0][: i + 1]))
        for i in range(3)
    ]
    return model, batch


def test_gradient_check_catches_scaled_gradient():
    model, batch = _tiny_problem()
    loss_at, theta, grad = checks.flat_model_problem(model_mod, model, "x", batch)
    assert checks.directional_gradient(loss_at, theta, grad, np.random.default_rng(4)) < 1e-7
    with pytest.raises(checks.CheckFailed):
        checks.directional_gradient(loss_at, theta, grad * (1 + 1e-4), np.random.default_rng(4))


def test_ctc_check_catches_shifted_loss():
    lattice = _random_lattice(np.random.default_rng(5), 7, 4)
    target = [2, 0, 0]
    loss, _ = ctc_loss(lattice, target)
    checks.ctc_matches_reference(loss, lattice, target)
    with pytest.raises(checks.CheckFailed):
        checks.ctc_matches_reference(loss + 1e-6, lattice, target)


def test_cer_check_catches_one_edit():
    rows = [("u0", "abca", "abc"), ("u1", "bab", "bab"), ("u2", "cc", "ac")]
    reported = cer([r for _, r, _ in rows], [h for _, _, h in rows])
    checks.cer_matches_reference(reported, rows)
    with pytest.raises(checks.CheckFailed):
        checks.cer_matches_reference(reported + 100.0 / 9, rows)


def test_hypothesis_check_catches_bad_symbol_and_overlong_hypothesis():
    frames = {"u0": 3}
    checks.hypotheses_fit([("u0", "ab", "aba")], "abc", frames)
    with pytest.raises(checks.CheckFailed):
        checks.hypotheses_fit([("u0", "ab", "ad")], "abc", frames)
    with pytest.raises(checks.CheckFailed):
        checks.hypotheses_fit([("u0", "ab", "aab")], "abc", frames)  # needs 4 frames


def test_loss_checks_catch_stalled_and_non_finite_training():
    falling = list(np.linspace(10.0, 1.0, 50))
    checks.losses_fall(falling)
    with pytest.raises(checks.CheckFailed):
        checks.losses_fall(list(np.linspace(10.0, 6.0, 50)))
    with pytest.raises(checks.CheckFailed):
        checks.losses_fall(falling[:-1] + [float("nan")])
    checks.training_loss_falls([3.0, 2.0, 1.0])
    with pytest.raises(checks.CheckFailed):
        checks.training_loss_falls([3.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# tracer and the benchmark's declared metrics


def test_tracer_self_time_excludes_children(monkeypatch):
    tracer = spans.Tracer(("a", "b"))
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    tracer.phase = "b"
    inner()
    monkeypatch.undo()
    self_s, calls = tracer.summary()
    # outer spans [0, 5] with children [1, 2] and [3, 4]; phase b holds [6, 7]
    assert calls == {("a", "outer"): 1, ("a", "inner"): 2, ("b", "inner"): 1}
    assert self_s == {("a", "outer"): 3.0, ("a", "inner"): 2.0, ("b", "inner"): 1.0}


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "traces", "__pycache__")
    )
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain_multi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
