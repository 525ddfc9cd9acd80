"""Shared encoder with one CTC head per language.

The encoder (a frame-stacking front end, an affine+tanh block and a
bidirectional vanilla recurrence) is shared across every language; each
language owns a single affine head whose log-softmax rows form the emission
lattice consumed by ctc_loss.  Heads are plain NamedParams keyed by language
id, so adding a language never perturbs existing parameters.

Models are immutable snapshots: with_encoder / with_head return new models,
and all gradient functions leave their inputs untouched.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import diffcore
from .ctc import Alphabet, ctc_loss
from .diffcore import Array, ForwardCache, LayerSpec, NamedParams
from .errors import (
    ConfigError,
    DimensionError,
    NumericError,
    ParseError,
    UnknownLanguageError,
    ValidationError,
)

ENCODER_PREFIX = "encoder."
HEAD_PREFIX = "head."


@dataclass(frozen=True)
class EncoderConfig:
    """Layer stack plus the audit fields the rest of the system relies on.

    subsample_stride must equal the product of all frame_stack strides; it is
    what the data pipeline uses to check CTC feasibility before training.
    """

    layers: tuple[LayerSpec, ...]
    feature_dim: int
    hidden_dim: int
    subsample_stride: int

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("encoder needs at least one layer")
        if self.layers[0].input_dim != self.feature_dim:
            raise DimensionError(
                f"first layer expects {self.layers[0].input_dim} features, "
                f"config says {self.feature_dim}"
            )
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise DimensionError(
                    f"layer chain breaks: {a.kind} emits {a.output_dim}, "
                    f"{b.kind} expects {b.input_dim}"
                )
        stride = 1
        for spec in self.layers:
            if spec.kind == "frame_stack":
                stride *= spec.stride
        if stride != self.subsample_stride:
            raise DimensionError(
                f"subsample_stride {self.subsample_stride} does not match the "
                f"layers' combined stride {stride}"
            )

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def to_json_dict(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "hidden_dim": self.hidden_dim,
            "subsample_stride": self.subsample_stride,
            "layers": [
                {
                    "kind": s.kind,
                    "input_dim": s.input_dim,
                    "output_dim": s.output_dim,
                    "stride": s.stride,
                    "hidden": s.hidden,
                }
                for s in self.layers
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EncoderConfig":
        try:
            layers = tuple(
                LayerSpec(
                    kind=item["kind"],
                    input_dim=int(item["input_dim"]),
                    output_dim=int(item["output_dim"]),
                    stride=None if item.get("stride") is None else int(item["stride"]),
                    hidden=None if item.get("hidden") is None else int(item["hidden"]),
                )
                for item in data["layers"]
            )
            return cls(
                layers=layers,
                feature_dim=int(data["feature_dim"]),
                hidden_dim=int(data["hidden_dim"]),
                subsample_stride=int(data["subsample_stride"]),
            )
        except (KeyError, TypeError, ValueError) as exc:  # DimensionError is a ValueError
            raise ParseError(f"malformed encoder config: {exc!r}") from exc


def default_encoder_config(
    feature_dim: int, hidden_dim: int = 64, subsample_stride: int = 2
) -> EncoderConfig:
    """Desk-scale default: frame_stack -> affine -> tanh -> recurrent_bidi."""
    if feature_dim < 1 or hidden_dim < 1 or subsample_stride < 1:
        raise ConfigError(
            f"feature_dim, hidden_dim and subsample_stride must be positive, got "
            f"{feature_dim}, {hidden_dim}, {subsample_stride}"
        )
    stacked = feature_dim * subsample_stride
    layers = (
        LayerSpec("frame_stack", feature_dim, stacked, stride=subsample_stride),
        LayerSpec("affine", stacked, hidden_dim),
        LayerSpec("tanh", hidden_dim, hidden_dim),
        LayerSpec("recurrent_bidi", hidden_dim, 2 * hidden_dim, hidden=hidden_dim),
    )
    return EncoderConfig(
        layers=layers,
        feature_dim=feature_dim,
        hidden_dim=hidden_dim,
        subsample_stride=subsample_stride,
    )


def _layer_prefix(i: int) -> str:
    return f"enc{i}."


@dataclass(frozen=True)
class MultiHeadModel:
    """Immutable bundle of encoder parameters plus per-language heads."""

    config: EncoderConfig
    encoder_params: NamedParams
    heads: Mapping[str, NamedParams]
    alphabets: Mapping[str, Alphabet]

    def __post_init__(self):
        object.__setattr__(self, "heads", MappingProxyType(dict(self.heads)))
        object.__setattr__(self, "alphabets", MappingProxyType(dict(self.alphabets)))
        if set(self.heads) != set(self.alphabets):
            raise DimensionError("heads and alphabets must cover the same languages")
        for lang, head in self.heads.items():
            want = head_param_shapes(self.config, self.alphabets[lang])
            if head.shapes() != want:
                raise DimensionError(
                    f"head for {lang!r} has shapes {head.shapes()}, expected {want}"
                )

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.heads))

    def head(self, language: str) -> NamedParams:
        try:
            return self.heads[language]
        except KeyError:
            raise UnknownLanguageError(
                f"model has no head for language {language!r}; fine-tune one first"
            ) from None

    def alphabet(self, language: str) -> Alphabet:
        try:
            return self.alphabets[language]
        except KeyError:
            raise UnknownLanguageError(f"model has no language {language!r}") from None

    def with_encoder(self, params: NamedParams) -> "MultiHeadModel":
        self.encoder_params._check_compatible(params)
        return MultiHeadModel(self.config, params, self.heads, self.alphabets)

    def with_head(
        self, language: str, params: NamedParams, alphabet: Alphabet | None = None
    ) -> "MultiHeadModel":
        """Replace or add one language head; other languages are untouched."""
        alphabets = dict(self.alphabets)
        if language not in alphabets:
            if alphabet is None:
                raise UnknownLanguageError(
                    f"new language {language!r} needs an alphabet"
                )
            alphabets[language] = alphabet
        elif alphabet is not None and alphabet != alphabets[language]:
            raise ValidationError(f"alphabet for {language!r} does not match the model")
        heads = dict(self.heads)
        heads[language] = params
        return MultiHeadModel(self.config, self.encoder_params, heads, alphabets)


def head_param_shapes(config: EncoderConfig, alphabet: Alphabet) -> dict[str, tuple[int, int]]:
    return {"w": (config.output_dim, alphabet.n_emissions), "b": (1, alphabet.n_emissions)}


def init_head(config: EncoderConfig, alphabet: Alphabet, seed: int) -> NamedParams:
    """Seeded head init, same uniform 1/sqrt(fan-in) rule as encoder layers."""
    return diffcore.init_uniform(head_param_shapes(config, alphabet), np.random.default_rng(seed))


def init_model(
    config: EncoderConfig, alphabets: Mapping[str, Alphabet], seed: int
) -> MultiHeadModel:
    """Fresh model: encoder layers in order, then heads in sorted language order.

    All draws come from one seeded generator, so a (config, languages, seed)
    triple always produces bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    enc_entries: dict[str, Array] = {}
    for i, spec in enumerate(config.layers):
        layer = diffcore.init_layer_params(spec, rng)
        for name, arr in layer.items():
            enc_entries[_layer_prefix(i) + name] = arr
    encoder = NamedParams(enc_entries)
    heads = {
        lang: diffcore.init_uniform(head_param_shapes(config, alphabets[lang]), rng)
        for lang in sorted(alphabets)
    }
    return MultiHeadModel(config, encoder, heads, dict(alphabets))


def ensure_head(model: MultiHeadModel, language: str, alphabet: Alphabet, seed: int) -> MultiHeadModel:
    """Model guaranteed to have a head for language; unseen ones get a fresh seeded head."""
    if language in model.heads:
        if alphabet != model.alphabets[language]:
            raise ValidationError(
                f"language {language!r} already has a head for a different alphabet"
            )
        return model
    return model.with_head(language, init_head(model.config, alphabet, seed), alphabet)


# ---------------------------------------------------------------------------
# forward / backward


def _check_features(config: EncoderConfig, x) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError(f"features must be a non-empty 2-D array, got shape {x.shape}")
    if x.shape[1] != config.feature_dim:
        raise DimensionError(
            f"features have width {x.shape[1]}, encoder expects {config.feature_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("features contain non-finite values")
    return x


def encode(model: MultiHeadModel, features) -> tuple[Array, tuple[ForwardCache, ...]]:
    """Run the encoder stack; returns hidden states and per-layer caches."""
    x = _check_features(model.config, features)
    caches = []
    for i, spec in enumerate(model.config.layers):
        params = model.encoder_params.subset(_layer_prefix(i))
        x, cache = diffcore.forward_layer(spec, params, x)
        caches.append(cache)
    return x, tuple(caches)


def _log_softmax(logits: Array) -> Array:
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def head_forward(model: MultiHeadModel, language: str, hidden: Array) -> Array:
    """Emission lattice for one language: affine head then exact log-softmax rows."""
    head = model.head(language)
    hidden = np.asarray(hidden, dtype=np.float64)
    if hidden.ndim != 2 or hidden.shape[1] != model.config.output_dim:
        raise DimensionError(
            f"hidden states have shape {hidden.shape}, expected (*, {model.config.output_dim})"
        )
    return _log_softmax(hidden @ head["w"] + head["b"])


def _utterance_grads_raw(
    model: MultiHeadModel, language: str, features, labels
) -> tuple[float, dict[str, Array], dict[str, Array]]:
    """Single-utterance loss and raw gradient arrays (no NamedParams wrapping)."""
    hidden, caches = encode(model, features)
    log_probs = head_forward(model, language, hidden)
    loss, g_lp = ctc_loss(log_probs, labels)

    # through the log-softmax: dlogit = g - softmax * rowsum(g)
    g_logit = g_lp - np.exp(log_probs) * g_lp.sum(axis=1, keepdims=True)
    head_grads = {
        "w": hidden.T @ g_logit,
        "b": g_logit.sum(axis=0, keepdims=True),
    }
    g_hidden = g_logit @ model.head(language)["w"].T

    enc_grads: dict[str, Array] = {}
    g = g_hidden
    for i in range(len(model.config.layers) - 1, -1, -1):
        spec = model.config.layers[i]
        params = model.encoder_params.subset(_layer_prefix(i))
        g, layer_grads = diffcore.backward_layer(spec, params, caches[i], g)
        for name, arr in layer_grads.items():
            enc_grads[_layer_prefix(i) + name] = arr
    return loss, enc_grads, head_grads


def _accumulate(total: dict[str, Array] | None, part: dict[str, Array]) -> dict[str, Array]:
    if total is None:
        return {k: v.copy() for k, v in part.items()}
    for k, v in part.items():
        total[k] += v
    return total


def batch_loss_and_grads(
    model: MultiHeadModel, language: str, batch: Sequence
) -> tuple[float, NamedParams, NamedParams]:
    """Summed loss and gradients over a batch of utterances.

    Accumulation runs in batch order, so the result over two copies of one
    utterance is exactly twice the single-utterance result.
    """
    if not len(batch):
        raise ValidationError("batch must contain at least one utterance")
    total_loss = 0.0
    enc_total: dict[str, Array] | None = None
    head_total: dict[str, Array] | None = None
    for utt in batch:
        loss, enc, head = _utterance_grads_raw(model, language, utt.features, utt.transcript)
        total_loss += loss
        enc_total = _accumulate(enc_total, enc)
        head_total = _accumulate(head_total, head)
    return total_loss, NamedParams(enc_total), NamedParams(head_total)


def transcribe(model: MultiHeadModel, language: str, features, *, beam: int = 1) -> np.ndarray:
    """Decode one utterance; beam=1 is greedy, larger beams run prefix search."""
    from .ctc import beam_decode, greedy_decode

    hidden, _ = encode(model, features)
    lattice = head_forward(model, language, hidden)
    alphabet = model.alphabet(language)
    if beam == 1:
        return greedy_decode(lattice, alphabet)
    return beam_decode(lattice, alphabet, beam)


# ---------------------------------------------------------------------------
# checkpoints: params binary + JSON sidecar


def _combined_params(model: MultiHeadModel) -> NamedParams:
    parts = [model.encoder_params.with_prefix(ENCODER_PREFIX)]
    for lang in model.languages:
        parts.append(model.heads[lang].with_prefix(f"{HEAD_PREFIX}{lang}."))
    return NamedParams.union(*parts)


def save_model(
    model: MultiHeadModel,
    base_path: str,
    *,
    pretrain_step: int | None = None,
    seed: int | None = None,
) -> tuple[str, str]:
    """Write <base>.params (binary) and <base>.json (sidecar); returns both paths."""
    params_path = base_path + ".params"
    sidecar_path = base_path + ".json"
    diffcore.save_params(_combined_params(model), params_path)
    sidecar = {
        "schema_version": 1,
        "config": model.config.to_json_dict(),
        "languages": list(model.languages),
        "alphabets": {lang: "".join(model.alphabets[lang].symbols) for lang in model.languages},
        "pretrain_step": pretrain_step,
        "seed": seed,
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return params_path, sidecar_path


def read_sidecar(base_path: str) -> dict:
    """The JSON sidecar of checkpoint <base_path>; ParseError when it is malformed."""
    sidecar_path = base_path + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{sidecar_path}: {exc}") from exc
    if not isinstance(sidecar, dict) or "config" not in sidecar:
        raise ParseError(f"{sidecar_path}: not a model sidecar")
    step = sidecar.get("pretrain_step")
    if step is not None and not isinstance(step, int):
        raise ParseError(f"{sidecar_path}: pretrain_step must be an integer, got {step!r}")
    return sidecar


def load_model(base_path: str) -> tuple[MultiHeadModel, dict]:
    """Read a checkpoint written by save_model; returns (model, sidecar dict)."""
    base, ext = os.path.splitext(base_path)
    if ext in (".params", ".json"):
        base_path = base
    sidecar = read_sidecar(base_path)
    config = EncoderConfig.from_json_dict(sidecar["config"])
    try:
        alphabets = {
            lang: Alphabet(tuple(sidecar["alphabets"][lang]))
            for lang in sidecar.get("languages", [])
        }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{base_path}.json: malformed languages or alphabets: {exc!r}") from exc
    combined = diffcore.load_params(base_path + ".params")
    # the sidecar fixes every payload shape; checked here, a mismatch is a corrupt
    # file rather than a DimensionError at the head check or the first encode
    want = {
        f"{ENCODER_PREFIX}{_layer_prefix(i)}{name}": shape
        for i, spec in enumerate(config.layers)
        for name, shape in diffcore.layer_param_shapes(spec).items()
    }
    for lang, alphabet in alphabets.items():
        for name, shape in head_param_shapes(config, alphabet).items():
            want[f"{HEAD_PREFIX}{lang}.{name}"] = shape
    got = combined.shapes()
    if got != want:
        bad = sorted(n for n in want.keys() | got.keys() if got.get(n) != want.get(n))
        raise ParseError(
            f"{base_path}.params: {bad[0]!r} has shape {got.get(bad[0])}, the sidecar "
            f"implies {want.get(bad[0])}"
        )
    encoder = combined.subset(ENCODER_PREFIX)
    heads = {lang: combined.subset(f"{HEAD_PREFIX}{lang}.") for lang in alphabets}
    return MultiHeadModel(config, encoder, heads, alphabets), sidecar
