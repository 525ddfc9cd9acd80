"""Training regimes: inner loop, multitask, first-order meta, fine-tuning."""
import csv

import numpy as np
import pytest

from metactc import model as model_mod
from metactc.diffcore import sgd_step
from metactc.errors import ConfigError, GuardError, ValidationError
from metactc.metatrain import (
    EpisodeConfig,
    FinetuneConfig,
    StepRecord,
    TaskBatchSample,
    TrainLog,
    batch_mean_loss,
    evaluate_task,
    exact_meta_grad_fd,
    finetune,
    learn,
    meta_episode,
    meta_step,
    multitask_grads,
    multitask_step,
    pretrain,
    sample_episode,
    sample_multitask_batches,
)
from metactc.model import batch_loss_and_grads, init_model
from metactc.tasks import SyntheticFamilyConfig, generate_family


@pytest.fixture(scope="module")
def family():
    cfg = SyntheticFamilyConfig(
        n_languages=2,
        alphabet_sizes=(2, 3),
        feature_dim=2,
        shared_pool_size=3,
        duration_range=(2, 3),
        length_range=(2, 4),
        noise_sigma=0.25,
        utterances_per_language=14,
        test_utterances=4,
        subsample_stride=2,
        limited_fraction=0.5,
        seed=77,
    )
    return generate_family(cfg)


def _model(family, seed=0, hidden=3):
    enc = model_mod.default_encoder_config(
        feature_dim=2, hidden_dim=hidden, subsample_stride=2
    )
    alphabets = {t.language_id: t.alphabet for t in family}
    return init_model(enc, alphabets, seed)


def _episode(family, cfg, seed=5):
    return sample_episode(np.random.default_rng(seed), family, cfg)


# ---------------------------------------------------------------------------
# configs


def test_episode_config_validation():
    EpisodeConfig(inner_lr=0.0)  # zero is allowed for equivalence checks
    with pytest.raises(ConfigError):
        EpisodeConfig(inner_lr=-0.1)
    with pytest.raises(ConfigError):
        EpisodeConfig(meta_lr=0.0)
    with pytest.raises(ConfigError):
        EpisodeConfig(inner_steps=0)
    with pytest.raises(ConfigError):
        EpisodeConfig(n_train=0)


def test_finetune_config_validation():
    with pytest.raises(ConfigError):
        FinetuneConfig(epochs=0)
    with pytest.raises(ConfigError):
        FinetuneConfig(lr=0.0)
    with pytest.raises(ConfigError):
        FinetuneConfig(beam=0)


def test_task_batch_sample_disjointness(family):
    task = family[0]
    a, b = task.full_split[0], task.full_split[1]
    TaskBatchSample(task.language_id, (a,), (b,))
    with pytest.raises(ValidationError):
        TaskBatchSample(task.language_id, (a,), (a,))


# ---------------------------------------------------------------------------
# learn


def test_learn_is_one_sgd_step_on_mean_gradient(family):
    task = family[0]
    model = _model(family)
    data = task.full_split[:3]
    out = learn(model, task.language_id, data, lr=0.1)

    loss, enc_g, head_g = batch_loss_and_grads(model, task.language_id, data)
    want_enc = sgd_step(model.encoder_params, enc_g.scale(1 / 3), 0.1)
    want_head = sgd_step(model.heads[task.language_id], head_g.scale(1 / 3), 0.1)
    assert out.encoder_params.same_values(want_enc)
    assert out.heads[task.language_id].same_values(want_head)
    # input model untouched
    assert not model.encoder_params.same_values(out.encoder_params)


def test_learn_lowers_batch_mean_loss(family):
    task = family[0]
    model = _model(family)
    data = task.full_split[:4]
    out = learn(model, task.language_id, data, lr=0.05, steps=6)
    assert batch_mean_loss(out, task.language_id, data) < batch_mean_loss(
        model, task.language_id, data
    )


def test_learn_validation(family):
    task = family[0]
    model = _model(family)
    with pytest.raises(ValidationError):
        learn(model, task.language_id, [], lr=0.1)
    with pytest.raises(ConfigError):
        learn(model, task.language_id, task.full_split[:2], lr=0.1, steps=0)
    with pytest.raises(ConfigError):
        learn(model, task.language_id, task.full_split[:2], lr=-0.1)


def test_batch_mean_loss_matches_grads_path(family):
    task = family[0]
    model = _model(family)
    data = task.full_split[:4]
    loss, _, _ = batch_loss_and_grads(model, task.language_id, data)
    assert batch_mean_loss(model, task.language_id, data) == pytest.approx(
        loss / 4, rel=1e-15
    )


# ---------------------------------------------------------------------------
# multitask


def test_multitask_duplicate_batch_doubles(family):
    model = _model(family)
    batch = (family[0].language_id, family[0].full_split[:2])
    _, enc_once, _ = multitask_grads(model, [batch])
    losses, enc_twice, heads = multitask_grads(model, [batch, batch])
    assert len(losses) == 2
    assert enc_twice.max_abs_diff(enc_once.scale(2.0)) == 0.0
    assert len(heads) == 1


def test_multitask_step_moves_all_heads(family):
    model = _model(family)
    batches = [(t.language_id, t.full_split[:2]) for t in family]
    out, losses = multitask_step(model, batches, lr=0.05)
    for t in family:
        assert not out.heads[t.language_id].same_values(model.heads[t.language_id])
    assert not out.encoder_params.same_values(model.encoder_params)
    assert losses == multitask_grads(model, batches)[0]


def test_multitask_rejects_empty(family):
    with pytest.raises(ValidationError):
        multitask_grads(_model(family), [])


# ---------------------------------------------------------------------------
# meta


def test_zero_inner_lr_meta_equals_multitask(family):
    model = _model(family)
    cfg = EpisodeConfig(inner_lr=0.0, n_train=2, n_test=2)
    samples = _episode(family, cfg)
    meta_grad, _ = meta_episode(model, samples, cfg)
    batches = [(s.task_id, s.test_set) for s in samples]
    _, multi_grad, _ = multitask_grads(model, batches)
    assert meta_grad.max_abs_diff(multi_grad) == 0.0


def test_meta_grad_adds_over_duplicate_samples(family):
    model = _model(family)
    cfg = EpisodeConfig(inner_lr=0.1, n_train=2, n_test=2)
    sample = _episode(family, cfg)[0]
    g1, l1 = meta_episode(model, [sample], cfg)
    g2, l2 = meta_episode(model, [sample, sample], cfg)
    assert g2.max_abs_diff(g1.scale(2.0)) == 0.0
    assert l2 == pytest.approx(2 * l1, rel=1e-15)


def test_meta_step_semantics(family):
    model = _model(family)
    cfg = EpisodeConfig(inner_lr=0.05, meta_lr=0.02, n_train=2, n_test=2)
    samples = _episode(family, cfg)[:1]  # only the first task adapts
    meta_grad, meta_loss = meta_episode(model, samples, cfg)
    out, task_losses = meta_step(model, samples, cfg)

    assert [task_id for task_id, _ in task_losses] == [samples[0].task_id]
    assert sum(loss for _, loss in task_losses) == meta_loss
    want_enc = sgd_step(model.encoder_params, meta_grad, cfg.meta_lr)
    assert out.encoder_params.same_values(want_enc)

    adapted_id = samples[0].task_id
    other_id = [t.language_id for t in family if t.language_id != adapted_id][0]
    # sampled head equals its inner adaptation from the pre-update encoder
    inner = learn(model, adapted_id, samples[0].train_set, cfg.inner_lr, cfg.inner_steps)
    assert out.heads[adapted_id].same_values(inner.heads[adapted_id])
    # unsampled head is byte-identical
    assert out.heads[other_id].same_values(model.heads[other_id])


def test_meta_episode_leaves_model_unchanged(family):
    model = _model(family)
    before = {k: v.tobytes() for k, v in model.encoder_params.items()}
    cfg = EpisodeConfig(n_train=2, n_test=2)
    meta_episode(model, _episode(family, cfg), cfg)
    after = {k: v.tobytes() for k, v in model.encoder_params.items()}
    assert before == after


def test_exact_meta_grad_close_at_small_inner_lr(family):
    model = _model(family)
    cfg = EpisodeConfig(inner_lr=1e-4, n_train=2, n_test=2)
    sample = _episode(family, cfg)[0]
    fom, _ = meta_episode(model, [sample], cfg)
    exact = exact_meta_grad_fd(model, sample, cfg)
    diff = fom.add(exact.scale(-1.0)).norm()
    assert diff / exact.norm() < 1e-3


def test_exact_meta_grad_guard(family):
    big = init_model(
        model_mod.default_encoder_config(feature_dim=2, hidden_dim=32),
        {t.language_id: t.alphabet for t in family},
        0,
    )
    cfg = EpisodeConfig(n_train=2, n_test=2)
    sample = _episode(family, cfg)[0]
    with pytest.raises(GuardError):
        exact_meta_grad_fd(big, sample, cfg)


# ---------------------------------------------------------------------------
# sampling


def test_sample_episode_properties(family):
    cfg = EpisodeConfig(n_train=3, n_test=2)
    samples = sample_episode(np.random.default_rng(0), family, cfg)
    assert [s.task_id for s in samples] == [t.language_id for t in family]
    for s in samples:
        train_ids = {u.uid for u in s.train_set}
        test_ids = {u.uid for u in s.test_set}
        assert len(train_ids) == 3 and len(test_ids) == 2
        assert not (train_ids & test_ids)

    again = sample_episode(np.random.default_rng(0), family, cfg)
    assert [u.uid for s in again for u in s.train_set] == [
        u.uid for s in samples for u in s.train_set
    ]


def test_sample_episode_subset_and_errors(family):
    cfg = EpisodeConfig(tasks_per_episode=1, n_train=2, n_test=2)
    samples = sample_episode(np.random.default_rng(3), family, cfg)
    assert len(samples) == 1
    with pytest.raises(ConfigError):
        sample_episode(
            np.random.default_rng(0), family, EpisodeConfig(tasks_per_episode=5)
        )
    with pytest.raises(ConfigError):
        sample_episode(
            np.random.default_rng(0), family, EpisodeConfig(n_train=12, n_test=12)
        )


def test_sample_multitask_batches_shapes(family):
    batches = sample_multitask_batches(np.random.default_rng(1), family, 4)
    assert [b[0] for b in batches] == [t.language_id for t in family]
    assert all(len(b[1]) == 4 for b in batches)
    with pytest.raises(ConfigError):
        sample_multitask_batches(np.random.default_rng(1), family, 99)


# ---------------------------------------------------------------------------
# the pretraining loop


def test_pretrain_meta_path_equals_episode_plus_update(family, tmp_path):
    cfg = EpisodeConfig(inner_lr=0.05, meta_lr=0.05, n_train=2, n_test=2)
    model = _model(family)
    ckpts, log = pretrain(
        model, family, "meta", cfg, total_steps=3, checkpoint_every=10,
        out_dir=str(tmp_path / "fused"), seed=9,
    )
    fused, _ = model_mod.load_model(ckpts[-1][1])

    rng = np.random.default_rng(9)
    manual = model
    for _ in range(3):
        manual, _ = meta_step(manual, sample_episode(rng, family, cfg), cfg)

    assert fused.encoder_params.same_values(manual.encoder_params)
    for lang in manual.languages:
        assert fused.heads[lang].same_values(manual.heads[lang])


def test_pretrain_multi_path_equals_manual_steps(family, tmp_path):
    cfg = EpisodeConfig(meta_lr=0.05, n_train=3)
    model = _model(family)
    ckpts, _ = pretrain(
        model, family, "multi", cfg, total_steps=2, checkpoint_every=10,
        out_dir=str(tmp_path / "multi"), seed=4,
    )
    got, _ = model_mod.load_model(ckpts[-1][1])

    rng = np.random.default_rng(4)
    manual = model
    for _ in range(2):
        batches = sample_multitask_batches(rng, family, cfg.n_train)
        manual, _ = multitask_step(manual, batches, cfg.meta_lr)

    assert got.encoder_params.same_values(manual.encoder_params)
    for lang in manual.languages:
        assert got.heads[lang].same_values(manual.heads[lang])


def test_pretrain_checkpoint_cadence(family, tmp_path):
    cfg = EpisodeConfig(n_train=2, n_test=2)
    ckpts, log = pretrain(
        _model(family), family, "multi", cfg, total_steps=5, checkpoint_every=2,
        out_dir=str(tmp_path), seed=0,
    )
    assert [step for step, _ in ckpts] == [2, 4, 5]
    _, sidecar = model_mod.load_model(ckpts[0][1])
    assert sidecar["pretrain_step"] == 2
    assert len(log) == 5
    steps = [rec.step for rec in log.records]
    assert steps == sorted(steps)


def test_pretrain_rejects_bad_args(family, tmp_path):
    model = _model(family)
    cfg = EpisodeConfig()
    with pytest.raises(ConfigError):
        pretrain(model, family, "sgd", cfg, 1, 1, str(tmp_path), 0)
    with pytest.raises(ConfigError):
        pretrain(model, family, "multi", cfg, 0, 1, str(tmp_path), 0)
    headless = init_model(model.config, {}, 0)
    with pytest.raises(ConfigError):
        pretrain(headless, family, "multi", cfg, 1, 1, str(tmp_path), 0)


# ---------------------------------------------------------------------------
# train log


def test_train_log_roundtrip(tmp_path):
    log = TrainLog()
    log.append(StepRecord(1, "meta", (("a", 1.5), ("b", 2.5)), 4.0, 0.1))
    log.append(StepRecord(2, "meta", (("a", 1.25),), 1.25, 0.2))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["task_id"] == "a"
    assert float(rows[0]["task_loss"]) == 1.5
    assert rows[2]["step"] == "2"
    with pytest.raises(ValidationError):
        log.append(StepRecord(2, "meta", (("a", 1.0),), 1.0, 0.3))


# ---------------------------------------------------------------------------
# fine-tune / evaluate


def test_finetune_is_deterministic(family):
    task = family[0]
    model = model_mod.ensure_head(_model(family), task.language_id, task.alphabet, 0)
    cfg = FinetuneConfig(epochs=2, lr=0.05, batch_size=4, seed=3)
    a = finetune(model, task, cfg, split="full")
    b = finetune(model, task, cfg, split="full")
    assert a.model.encoder_params.same_values(b.model.encoder_params)
    assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
    assert len(a.history) == 2
    assert a.history[0].val_cer is None
    with pytest.raises(ValidationError):
        a.best_val_cer


def test_finetune_tracks_cer_when_asked(family):
    task = family[0]
    model = model_mod.ensure_head(_model(family), task.language_id, task.alphabet, 0)
    cfg = FinetuneConfig(epochs=2, lr=0.05, batch_size=4, seed=3)
    res = finetune(model, task, cfg, split="limited", track_cer=True)
    assert all(h.val_cer is not None for h in res.history)
    assert res.best_val_cer == min(h.val_cer for h in res.history)


def test_evaluate_report_is_self_consistent(family):
    from metactc.ctc import cer

    task = family[1]
    model = model_mod.ensure_head(_model(family), task.language_id, task.alphabet, 0)
    value, rows = evaluate_task(model, task, split="test", beam=2)
    assert value == pytest.approx(cer([r[1] for r in rows], [r[2] for r in rows]))
    assert {r[0] for r in rows} == {u.uid for u in task.test_split}
