"""Synthetic language families and corpus serialization.

A family shares a pool of unit-norm prototype directions; every language
mixes that pool through its own random matrix to obtain one prototype per
character.  An utterance emits each character's prototype for a random
number of frames and adds isotropic Gaussian noise, so languages are related
(same pool span) yet distinct (different mixtures), which is exactly the
regime where transfer across languages is measurable.

Transcripts never contain adjacent repeated characters.  That keeps every
utterance CTC-feasible after frame subsampling whenever min duration >=
stride, and it makes the noiseless family exactly recoverable by a
nearest-prototype frame classifier followed by collapse.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ctc import Alphabet
from .errors import ConfigError, ParseError, ValidationError

_SYMBOL_POOL = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Utterance:
    """One (features, transcript) pair with a corpus-unique id."""

    uid: str
    features: np.ndarray  # frames x feature_dim, float64
    transcript: np.ndarray  # label indices, int64

    def __post_init__(self):
        if not isinstance(self.uid, str) or not self.uid:
            raise ValidationError("utterance uid must be a non-empty string")
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValidationError(f"{self.uid}: features must be non-empty and 2-D")
        if not np.all(np.isfinite(feats)):
            raise ValidationError(f"{self.uid}: features contain non-finite values")
        feats.setflags(write=False)
        labels = np.asarray(self.transcript, dtype=np.int64).reshape(-1)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "transcript", labels)


@dataclass(frozen=True)
class LanguageTask:
    """A language's alphabet and its three utterance splits.

    limited_split is a subset of full_split (the low-resource analog of a
    full transcription pack); test_split is disjoint from both.
    """

    language_id: str
    alphabet: Alphabet
    full_split: tuple[Utterance, ...]
    limited_split: tuple[Utterance, ...]
    test_split: tuple[Utterance, ...]

    def __post_init__(self):
        object.__setattr__(self, "full_split", tuple(self.full_split))
        object.__setattr__(self, "limited_split", tuple(self.limited_split))
        object.__setattr__(self, "test_split", tuple(self.test_split))
        if not self.full_split:
            raise ValidationError(f"{self.language_id}: full split is empty")
        full_ids = {u.uid for u in self.full_split}
        test_ids = {u.uid for u in self.test_split}
        if len(full_ids) != len(self.full_split):
            raise ValidationError(f"{self.language_id}: duplicate uids in full split")
        limited_ids = {u.uid for u in self.limited_split}
        if not limited_ids <= full_ids:
            raise ValidationError(f"{self.language_id}: limited split is not a subset of full")
        if full_ids & test_ids:
            raise ValidationError(f"{self.language_id}: test split overlaps the training pool")
        n_sym = self.alphabet.size
        for utt in self.full_split + self.test_split:
            if utt.transcript.size and utt.transcript.max() >= n_sym:
                raise ValidationError(f"{utt.uid}: transcript index out of alphabet range")

    def split(self, name: str) -> tuple[Utterance, ...]:
        try:
            return {"full": self.full_split, "limited": self.limited_split, "test": self.test_split}[name]
        except KeyError:
            raise ConfigError(f"unknown split {name!r}; expected full, limited or test") from None


@dataclass(frozen=True)
class SyntheticFamilyConfig:
    """Knobs of one synthetic family; defaults are the desk-scale setup.

    subsample_stride mirrors the encoder front end so feasibility is checked
    where the data is made: min duration must be >= the stride, which makes
    every repeat-free transcript fit its subsampled frame count.
    """

    n_languages: int = 10
    alphabet_sizes: tuple[int, ...] = (5, 6, 7, 8, 5, 6, 6, 7, 5, 8)
    feature_dim: int = 20
    shared_pool_size: int = 8
    duration_range: tuple[int, int] = (2, 4)
    length_range: tuple[int, int] = (3, 8)
    noise_sigma: float = 0.3
    utterances_per_language: int = 500
    test_utterances: int = 100
    subsample_stride: int = 2
    limited_fraction: float = 0.10
    seed: int = 0
    language_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet_sizes", tuple(self.alphabet_sizes))
        object.__setattr__(self, "duration_range", tuple(self.duration_range))
        object.__setattr__(self, "length_range", tuple(self.length_range))
        if self.language_ids is not None:
            object.__setattr__(self, "language_ids", tuple(self.language_ids))
        if self.n_languages < 1:
            raise ConfigError("need at least one language")
        if len(self.alphabet_sizes) != self.n_languages:
            raise ConfigError(
                f"alphabet_sizes has {len(self.alphabet_sizes)} entries "
                f"for {self.n_languages} languages"
            )
        if any(a < 2 or a > len(_SYMBOL_POOL) for a in self.alphabet_sizes):
            raise ConfigError(f"alphabet sizes must be in [2, {len(_SYMBOL_POOL)}]")
        if self.shared_pool_size < max(self.alphabet_sizes):
            raise ConfigError("shared_pool_size must be >= the largest alphabet")
        if self.feature_dim < 1 or self.utterances_per_language < 1 or self.test_utterances < 1:
            raise ConfigError("feature_dim and utterance counts must be positive")
        dmin, dmax = self.duration_range
        lmin, lmax = self.length_range
        if not (1 <= dmin <= dmax) or not (1 <= lmin <= lmax):
            raise ConfigError("duration and length ranges must be ordered and positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if not (0 < self.limited_fraction <= 1):
            raise ConfigError("limited_fraction must be in (0, 1]")
        if self.subsample_stride < 1:
            raise ConfigError("subsample_stride must be positive")
        if dmin < self.subsample_stride:
            raise ConfigError(
                f"min duration {dmin} < subsample stride {self.subsample_stride}: "
                "an all-min-duration utterance would be CTC-infeasible after stacking"
            )
        if self.language_ids is not None:
            if len(self.language_ids) != self.n_languages:
                raise ConfigError("language_ids must name every language")
            if len(set(self.language_ids)) != self.n_languages:
                raise ConfigError("language_ids must be unique")

    def ids(self) -> tuple[str, ...]:
        if self.language_ids is not None:
            return self.language_ids
        return tuple(f"lang{i:02d}" for i in range(self.n_languages))

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["alphabet_sizes"] = list(self.alphabet_sizes)
        out["duration_range"] = list(self.duration_range)
        out["length_range"] = list(self.length_range)
        out["language_ids"] = None if self.language_ids is None else list(self.language_ids)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SyntheticFamilyConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown family config keys: {sorted(extra)}")
        kwargs = dict(data)
        for key in ("alphabet_sizes", "duration_range", "length_range"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("language_ids") is not None:
            kwargs["language_ids"] = tuple(kwargs["language_ids"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad family config: {exc}") from exc


def default_family_config(**overrides) -> SyntheticFamilyConfig:
    """The pinned 6-source / 4-target family used by the CLI defaults."""
    base = dict(
        language_ids=("src1", "src2", "src3", "src4", "src5", "src6",
                      "tgt1", "tgt2", "tgt3", "tgt4"),
    )
    base.update(overrides)
    return SyntheticFamilyConfig(**base)


def _language_seeds(cfg: SyntheticFamilyConfig) -> tuple[np.random.SeedSequence, list]:
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_languages + 1)
    return children[0], children[1:]


def family_prototypes(cfg: SyntheticFamilyConfig) -> list[np.ndarray]:
    """Per-language character prototypes, reproducible from the config alone.

    Row c of entry l is the unit-norm feature direction of character c in
    language l.  Exposed separately so tests can run an independent
    nearest-prototype decoder against generated corpora.
    """
    pool_seq, lang_seqs = _language_seeds(cfg)
    pool = np.random.default_rng(pool_seq).standard_normal(
        (cfg.shared_pool_size, cfg.feature_dim)
    )
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    protos = []
    for size, seq in zip(cfg.alphabet_sizes, lang_seqs):
        rng = np.random.default_rng(seq)
        mixing = rng.standard_normal((size, cfg.shared_pool_size))
        p = mixing @ pool
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        protos.append(p)
    return protos


def _sample_transcript(rng: np.random.Generator, n_symbols: int, length: int) -> np.ndarray:
    """Uniform random labels with no adjacent repeats."""
    out = np.empty(length, dtype=np.int64)
    out[0] = rng.integers(n_symbols)
    for i in range(1, length):
        c = int(rng.integers(n_symbols - 1))
        out[i] = c + (c >= out[i - 1])
    return out


def generate_family(cfg: SyntheticFamilyConfig) -> list[LanguageTask]:
    """Generate every language of the family deterministically from cfg.seed.

    Each language draws from its own child seed (prototype mixing first,
    then utterances, then the limited-subset choice), so languages are
    independent of one another and of the family size ordering.
    """
    _, lang_seqs = _language_seeds(cfg)
    prototypes = family_prototypes(cfg)
    ids = cfg.ids()
    dmin, dmax = cfg.duration_range
    lmin, lmax = cfg.length_range
    tasks = []
    for lang, size, protos, seq in zip(ids, cfg.alphabet_sizes, prototypes, lang_seqs):
        rng = np.random.default_rng(seq)
        rng.standard_normal((size, cfg.shared_pool_size))  # skip the mixing draw
        alphabet = Alphabet(tuple(_SYMBOL_POOL[:size]))
        total = cfg.utterances_per_language + cfg.test_utterances
        utts = []
        for i in range(total):
            length = int(rng.integers(lmin, lmax + 1))
            labels = _sample_transcript(rng, size, length)
            durations = rng.integers(dmin, dmax + 1, size=length)
            frames = np.repeat(protos[labels], durations, axis=0)
            if cfg.noise_sigma > 0:
                frames = frames + cfg.noise_sigma * rng.standard_normal(frames.shape)
            utts.append(Utterance(uid=f"{lang}-{i:05d}", features=frames, transcript=labels))
        full = tuple(utts[: cfg.utterances_per_language])
        test = tuple(utts[cfg.utterances_per_language:])
        n_limited = round(cfg.limited_fraction * len(full))
        pick = np.sort(rng.choice(len(full), size=max(1, n_limited), replace=False))
        limited = tuple(full[j] for j in pick)
        tasks.append(
            LanguageTask(
                language_id=lang,
                alphabet=alphabet,
                full_split=full,
                limited_split=limited,
                test_split=test,
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# corpus files: one JSON header line, then one JSON line per utterance


def save_corpus(task: LanguageTask, path) -> None:
    """Write a language to a JSON-lines corpus file.

    Floats serialize through Python's shortest round-trip repr and key order
    is fixed, so identical tasks produce byte-identical files.
    """
    header = {
        "schema_version": 1,
        "language_id": task.language_id,
        "symbols": "".join(task.alphabet.symbols),
        "feature_dim": int(task.full_split[0].features.shape[1]),
        "splits": {
            "full": [u.uid for u in task.full_split],
            "limited": [u.uid for u in task.limited_split],
            "test": [u.uid for u in task.test_split],
        },
    }
    seen = set()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for utt in task.full_split + task.test_split:
            if utt.uid in seen:
                continue
            seen.add(utt.uid)
            record = {
                "uid": utt.uid,
                "transcript": task.alphabet.labels_to_text(utt.transcript),
                "features": utt.features.tolist(),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_corpus(path) -> LanguageTask:
    """Parse and validate a corpus file written by save_corpus.

    Malformed JSON or missing fields raise ParseError naming the line (and
    uid where known); semantic violations raise ValidationError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty corpus file")

    def parse_line(i: int) -> dict:
        try:
            obj = json.loads(lines[i])
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{i + 1}: malformed JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{i + 1}: expected a JSON object")
        return obj

    header = parse_line(0)
    for key in ("language_id", "symbols", "feature_dim", "splits"):
        if key not in header:
            raise ParseError(f"{path}:1: header is missing {key!r}")
    alphabet = Alphabet(tuple(header["symbols"]))
    feature_dim = int(header["feature_dim"])

    by_uid: dict[str, Utterance] = {}
    for i in range(1, len(lines)):
        if not lines[i].strip():
            continue
        rec = parse_line(i)
        for key in ("uid", "transcript", "features"):
            if key not in rec:
                raise ParseError(f"{path}:{i + 1}: record is missing {key!r}")
        uid = rec["uid"]
        feats = np.asarray(rec["features"], dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != feature_dim:
            raise ParseError(
                f"{path}:{i + 1}: record {uid!r} has feature shape {feats.shape}, "
                f"expected (*, {feature_dim})"
            )
        labels = alphabet.text_to_labels(rec["transcript"])
        if uid in by_uid:
            raise ValidationError(f"{path}: duplicate uid {uid!r}")
        by_uid[uid] = Utterance(uid=uid, features=feats, transcript=labels)

    if not by_uid:
        raise ValidationError(f"{path}: corpus has no utterances")

    def gather(split: str) -> tuple[Utterance, ...]:
        uids = header["splits"].get(split, [])
        missing = [u for u in uids if u not in by_uid]
        if missing:
            raise ValidationError(f"{path}: split {split!r} references missing uids {missing[:3]}")
        return tuple(by_uid[u] for u in uids)

    return LanguageTask(
        language_id=header["language_id"],
        alphabet=alphabet,
        full_split=gather("full"),
        limited_split=gather("limited"),
        test_split=gather("test"),
    )
