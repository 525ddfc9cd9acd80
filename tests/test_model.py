"""Encoder + per-language heads: shapes, gradients, checkpoints."""
import numpy as np
import pytest

from metactc.ctc import Alphabet
from metactc.diffcore import NamedParams, finite_diff_grad, grad_relative_error
from metactc.errors import (
    ConfigError,
    DimensionError,
    ParseError,
    UnknownLanguageError,
    ValidationError,
)
from metactc.model import (
    MultiHeadModel,
    batch_loss_and_grads,
    default_encoder_config,
    encode,
    ensure_head,
    head_forward,
    init_head,
    init_model,
    load_model,
    save_model,
    transcribe,
)


AB = Alphabet(("a", "b"))


def _tiny(seed=0, langs=("xx",)):
    cfg = default_encoder_config(feature_dim=3, hidden_dim=4, subsample_stride=2)
    return cfg, init_model(cfg, {lang: AB for lang in langs}, seed)


class _Utt:
    def __init__(self, features, transcript):
        self.features = features
        self.transcript = transcript


def test_default_config_shapes():
    cfg, model = _tiny()
    assert cfg.output_dim == 8  # bidirectional: 2 * hidden
    x = np.random.default_rng(0).normal(size=(7, 3))
    hidden, caches = encode(model, x)
    assert hidden.shape == (4, 8)  # ceil(7 / 2) frames
    lp = head_forward(model, "xx", hidden)
    assert lp.shape == (4, AB.n_emissions)
    assert np.allclose(np.log(np.exp(lp).sum(axis=1)), 0.0, atol=1e-12)


def test_config_roundtrip_and_validation():
    cfg, _ = _tiny()
    again = type(cfg).from_json_dict(cfg.to_json_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        default_encoder_config(feature_dim=0)
    with pytest.raises(ConfigError):
        default_encoder_config(feature_dim=3, subsample_stride=0)


def test_unknown_language_message():
    _, model = _tiny()
    with pytest.raises(UnknownLanguageError, match="fine-tune"):
        head_forward(model, "zz", np.zeros((2, 8)))


def test_ensure_head_adds_once():
    _, model = _tiny()
    grown = ensure_head(model, "yy", Alphabet(("p", "q", "r")), seed=3)
    assert set(grown.languages) == {"xx", "yy"}
    again = ensure_head(grown, "yy", Alphabet(("p", "q", "r")), seed=99)
    # existing head is kept, not reinitialized
    assert again.heads["yy"].same_values(grown.heads["yy"])
    with pytest.raises(ValidationError):
        ensure_head(grown, "yy", Alphabet(("z",)), seed=0)  # alphabet clash


def test_init_is_deterministic_and_seed_sensitive():
    _, a = _tiny(seed=5)
    _, b = _tiny(seed=5)
    _, c = _tiny(seed=6)
    assert a.encoder_params.same_values(b.encoder_params)
    assert a.heads["xx"].same_values(b.heads["xx"])
    assert not a.encoder_params.same_values(c.encoder_params)


def test_feature_validation():
    _, model = _tiny()
    with pytest.raises(DimensionError):
        encode(model, np.zeros((4, 5)))  # wrong feature_dim
    with pytest.raises(ValidationError):
        encode(model, np.zeros((0, 3)))  # no frames


def test_end_to_end_gradients_match_fd(rng):
    _, model = _tiny(seed=1)
    feats = rng.normal(size=(6, 3))
    labels = [0, 1]
    batch = [_Utt(feats, labels)]
    loss, genc, ghead = batch_loss_and_grads(model, "xx", batch)
    assert np.isfinite(loss)
    joint = NamedParams.union(
        model.encoder_params, model.heads["xx"].with_prefix("head.")
    )

    def pipeline(params):
        m = MultiHeadModel(
            model.config,
            params.subset("enc").with_prefix("enc"),
            {"xx": params.subset("head.")},
            model.alphabets,
        )
        value, _, _ = batch_loss_and_grads(m, "xx", batch)
        return value

    fd = finite_diff_grad(pipeline, joint)
    got = NamedParams.union(genc, ghead.with_prefix("head."))
    assert grad_relative_error(got, fd) < 1e-6


def test_batch_grads_are_sums(rng):
    _, model = _tiny(seed=2)
    utt = _Utt(rng.normal(size=(5, 3)), [1])
    loss1, enc1, head1 = batch_loss_and_grads(model, "xx", [utt])
    loss2, enc2, head2 = batch_loss_and_grads(model, "xx", [utt, utt])
    assert loss2 == pytest.approx(2 * loss1, rel=1e-15)
    assert enc2.max_abs_diff(enc1.scale(2.0)) == 0.0
    assert head2.max_abs_diff(head1.scale(2.0)) == 0.0
    with pytest.raises(ValidationError):
        batch_loss_and_grads(model, "xx", [])


def test_transcribe_modes(rng):
    _, model = _tiny(seed=3)
    feats = rng.normal(size=(6, 3))
    out = transcribe(model, "xx", feats)
    assert out.dtype == np.int64
    wide = transcribe(model, "xx", feats, beam=8)
    assert wide.ndim == 1


def test_checkpoint_roundtrip(tmp_path, rng):
    _, model = _tiny(seed=4, langs=("xx", "yy"))
    base = str(tmp_path / "ckpt")
    params_path, sidecar_path = save_model(model, base, pretrain_step=17, seed=4)
    loaded, sidecar = load_model(base)
    assert sidecar["pretrain_step"] == 17
    assert sidecar["schema_version"] == 1
    assert loaded.config == model.config
    assert set(loaded.languages) == {"xx", "yy"}
    assert loaded.encoder_params.same_values(model.encoder_params)
    for lang in model.languages:
        assert loaded.heads[lang].same_values(model.heads[lang])
        assert loaded.alphabets[lang] == model.alphabets[lang]
    # either file path also resolves to the base
    again, _ = load_model(params_path)
    assert again.encoder_params.same_values(model.encoder_params)


def test_checkpoint_files_are_deterministic(tmp_path):
    _, model = _tiny(seed=7)
    save_model(model, str(tmp_path / "a"), pretrain_step=1, seed=7)
    save_model(model, str(tmp_path / "b"), pretrain_step=1, seed=7)
    assert (tmp_path / "a.params").read_bytes() == (tmp_path / "b.params").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_load_model_rejects_garbage(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "bad.params").write_bytes(b"")
    with pytest.raises(ParseError):
        load_model(str(tmp_path / "bad"))
    (tmp_path / "odd.json").write_text('{"schema_version": 1}')
    (tmp_path / "odd.params").write_bytes(b"")
    with pytest.raises(ParseError):
        load_model(str(tmp_path / "odd"))


def test_head_init_matches_shapes():
    cfg, _ = _tiny()
    head = init_head(cfg, AB, seed=0)
    assert head.shapes() == {"w": (8, 3), "b": (1, 3)}
