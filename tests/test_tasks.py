"""Synthetic language families and the JSONL corpus format."""
import json

import numpy as np
import pytest

from metactc.ctc import cer, collapse
from metactc.errors import ConfigError, ParseError, ValidationError
from metactc.tasks import (
    LanguageTask,
    SyntheticFamilyConfig,
    Utterance,
    default_family_config,
    family_prototypes,
    generate_family,
    load_corpus,
    save_corpus,
)


def _small(**over):
    base = dict(
        n_languages=2,
        alphabet_sizes=(3, 4),
        feature_dim=6,
        shared_pool_size=5,
        duration_range=(2, 3),
        length_range=(2, 4),
        noise_sigma=0.1,
        utterances_per_language=12,
        test_utterances=5,
        subsample_stride=2,
        limited_fraction=0.25,
        seed=42,
    )
    base.update(over)
    return SyntheticFamilyConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        _small(alphabet_sizes=(3,))  # length must match n_languages
    with pytest.raises(ConfigError):
        _small(duration_range=(1, 3), subsample_stride=2)  # infeasible after stacking
    with pytest.raises(ConfigError):
        _small(shared_pool_size=2)  # pool smaller than largest alphabet
    with pytest.raises(ConfigError):
        _small(limited_fraction=0.0)
    with pytest.raises(ConfigError):
        _small(language_ids=("a",))  # wrong count


def test_config_json_roundtrip():
    cfg = _small()
    again = SyntheticFamilyConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        SyntheticFamilyConfig.from_json_dict({**cfg.to_json_dict(), "bogus": 1})


def test_default_family_shape():
    cfg = default_family_config()
    assert cfg.n_languages == 10
    assert cfg.ids()[:6] == ("src1", "src2", "src3", "src4", "src5", "src6")
    assert cfg.ids()[6:] == ("tgt1", "tgt2", "tgt3", "tgt4")


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic():
    cfg = _small()
    a = generate_family(cfg)
    b = generate_family(cfg)
    for ta, tb in zip(a, b):
        assert ta.language_id == tb.language_id
        for ua, ub in zip(ta.full_split, tb.full_split):
            assert ua.uid == ub.uid
            assert ua.transcript.tolist() == ub.transcript.tolist()
            assert ua.features.tobytes() == ub.features.tobytes()


def test_split_sizes_and_disjointness():
    cfg = _small()
    for task in generate_family(cfg):
        assert len(task.full_split) == 12
        assert len(task.test_split) == 5
        assert len(task.limited_split) == 3  # round(0.25 * 12)
        full_uids = {u.uid for u in task.full_split}
        test_uids = {u.uid for u in task.test_split}
        limited_uids = {u.uid for u in task.limited_split}
        assert limited_uids <= full_uids
        assert not (full_uids & test_uids)


def test_durations_bound_frame_counts():
    cfg = _small(noise_sigma=0.0)
    for task in generate_family(cfg):
        for utt in task.full_split:
            L = utt.transcript.size
            assert 2 * L <= utt.features.shape[0] <= 3 * L


def test_transcripts_have_no_adjacent_repeats():
    cfg = _small()
    for task in generate_family(cfg):
        for utt in task.full_split + task.test_split:
            assert all(a != b for a, b in zip(utt.transcript, utt.transcript[1:]))


def test_noiseless_nearest_prototype_recovers_transcripts():
    cfg = _small(noise_sigma=0.0, utterances_per_language=8)
    protos = family_prototypes(cfg)
    refs, hyps = [], []
    for task, proto in zip(generate_family(cfg), protos):
        for utt in task.full_split:
            sims = utt.features @ proto.T
            frame_labels = np.argmax(sims, axis=1) + 1  # to path space
            decoded = collapse(frame_labels)
            refs.append(utt.transcript.tolist())
            hyps.append(decoded.tolist())
    assert cer(refs, hyps) == 0.0


def test_languages_share_pool_but_differ():
    cfg = _small(noise_sigma=0.0)
    protos = family_prototypes(cfg)
    assert len(protos) == 2
    assert protos[0].shape == (3, 6)
    assert protos[1].shape == (4, 6)
    # unit norm rows
    for p in protos:
        assert np.allclose(np.linalg.norm(p, axis=1), 1.0)
    assert not np.allclose(protos[0][:3], protos[1][:3])


def test_family_prototypes_independent_of_generation():
    cfg = _small()
    before = family_prototypes(cfg)
    generate_family(cfg)
    after = family_prototypes(cfg)
    for a, b in zip(before, after):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# corpus serialization


def test_corpus_roundtrip(tmp_path):
    cfg = _small()
    task = generate_family(cfg)[1]
    path = tmp_path / "lang.jsonl"
    save_corpus(task, path)
    loaded = load_corpus(path)
    assert loaded.language_id == task.language_id
    assert loaded.alphabet == task.alphabet
    for a, b in zip(task.full_split, loaded.full_split):
        assert a.uid == b.uid
        assert a.transcript.tolist() == b.transcript.tolist()
        assert a.features.tobytes() == b.features.tobytes()
    assert [u.uid for u in loaded.limited_split] == [u.uid for u in task.limited_split]
    assert [u.uid for u in loaded.test_split] == [u.uid for u in task.test_split]


def test_corpus_bytes_are_deterministic(tmp_path):
    cfg = _small()
    task = generate_family(cfg)[0]
    save_corpus(task, tmp_path / "a.jsonl")
    save_corpus(task, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_corpus_header_is_first_line(tmp_path):
    cfg = _small()
    task = generate_family(cfg)[0]
    path = tmp_path / "c.jsonl"
    save_corpus(task, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["language_id"] == task.language_id
    assert header["schema_version"] == 1
    assert set(header["splits"]) == {"full", "limited", "test"}
    assert len(lines) == 1 + 12 + 5


def test_load_corpus_error_reporting(tmp_path):
    cfg = _small()
    task = generate_family(cfg)[0]
    path = tmp_path / "ok.jsonl"
    save_corpus(task, path)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + "\n{broken\n")
    with pytest.raises(ParseError, match=r"bad\.jsonl:2"):
        load_corpus(bad)

    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
    with pytest.raises(ValidationError):
        load_corpus(dup)

    missing = tmp_path / "missing.jsonl"
    missing.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    with pytest.raises(ValidationError):
        load_corpus(missing)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_corpus(empty)


def test_utterance_validation():
    with pytest.raises(ValidationError):
        Utterance(uid="", features=np.zeros((2, 3)), transcript=[0, 1])
    with pytest.raises(ValidationError):
        Utterance(uid="u", features=np.zeros((0, 3)), transcript=[0, 1])
    u = Utterance(uid="u", features=np.ones((2, 3)), transcript=[0, 1])
    with pytest.raises(ValueError):
        u.features[0, 0] = 3.0  # read-only
    with pytest.raises(ValueError):
        u.transcript[0] = 1  # read-only


def test_language_task_validation():
    u1 = Utterance(uid="a", features=np.ones((2, 2)), transcript=[0])
    u2 = Utterance(uid="b", features=np.ones((2, 2)), transcript=[1])
    from metactc.ctc import Alphabet

    ab = Alphabet(("x", "y"))
    task = LanguageTask("L", ab, (u1, u2), (u1,), ())
    assert task.split("full") == (u1, u2)
    assert task.split("limited") == (u1,)
    with pytest.raises(ConfigError):
        task.split("dev")
    with pytest.raises(ValidationError):
        LanguageTask("L", ab, (u1,), (u2,), ())  # limited not within full
    with pytest.raises(ValidationError):
        LanguageTask("L", ab, (u1,), (), (u1,))  # test overlaps full
    bad = Utterance(uid="c", features=np.ones((2, 2)), transcript=[5])
    with pytest.raises(ValidationError):
        LanguageTask("L", ab, (bad,), (), ())  # transcript outside alphabet
