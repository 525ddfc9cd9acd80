"""Loss, gradients, decoding, and metrics against independent oracles."""
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metactc.ctc import (
    BLANK,
    Alphabet,
    beam_decode,
    cer,
    collapse,
    ctc_brute_force,
    ctc_forward_loss,
    ctc_loss,
    edit_distance,
    greedy_decode,
    min_frames,
    validate_lattice,
)
from metactc.errors import GuardError, InfeasibleTargetError, ValidationError


def _uniform(T, K):
    return np.full((T, K), -np.log(K))


def _random_lattice(rng, T, K):
    z = rng.normal(size=(T, K)) * 2.0
    m = z.max(axis=1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))


# ---------------------------------------------------------------------------
# alphabet and lattice validation


def test_alphabet_roundtrip():
    ab = Alphabet(("a", "b", "c"))
    assert ab.size == 3 and ab.n_emissions == 4
    labels = ab.text_to_labels("cab")
    assert labels.tolist() == [2, 0, 1]
    assert ab.labels_to_text(labels) == "cab"
    with pytest.raises(ValidationError):
        ab.text_to_labels("axe")


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(ValidationError):
        Alphabet(())
    with pytest.raises(ValidationError):
        Alphabet(("a", "a"))
    with pytest.raises(ValidationError):
        Alphabet(("ab",))


def test_validate_lattice():
    ok = validate_lattice(_uniform(3, 4))
    assert ok.shape == (3, 4)
    with pytest.raises(ValidationError):
        validate_lattice(np.zeros((2, 3)))  # rows not normalized
    with pytest.raises(ValidationError):
        validate_lattice(np.full((2, 3), np.nan))
    bad = _uniform(2, 3)
    bad[0, 0] = np.inf
    with pytest.raises(ValidationError):
        validate_lattice(bad)
    with pytest.raises(ValidationError):
        validate_lattice(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        validate_lattice(np.zeros((3,)))


def test_validate_lattice_allows_neg_inf():
    lat = np.array([[0.0, -np.inf, -np.inf], [-np.inf, 0.0, -np.inf]])
    assert validate_lattice(lat) is not None


# ---------------------------------------------------------------------------
# collapse


def test_collapse_examples():
    assert collapse([1, 1, 0, 2]).tolist() == [0, 1]  # "aa-b" -> "ab"
    assert collapse([0, 0, 0]).tolist() == []
    assert collapse([1, 0, 1]).tolist() == [0, 0]  # blank separates a repeat
    assert collapse([]).tolist() == []


def test_collapse_merges_before_deleting():
    # merging first: "a a - a" -> "a - a" -> "aa"; deleting first would give "a"
    assert collapse([1, 1, 0, 1]).tolist() == [0, 0]


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
def test_collapse_output_has_no_adjacent_blank_artifacts(path):
    out = collapse(path)
    # output labels are 0-based symbol ids: all valid, no blanks left
    assert all(0 <= v <= 2 for v in out.tolist())


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_collapse_canonical_embedding_is_identity(labels):
    # interleaving blanks between all labels is the canonical pre-image
    path = []
    for v in labels:
        path.extend([BLANK, v + 1])
    path.append(BLANK)
    assert collapse(path).tolist() == labels


def test_collapse_is_not_idempotent_on_labels():
    # collapse output may contain adjacent repeats, so re-collapsing the
    # label sequence (shifted back to path space) would merge them; the
    # canonical embedding above is the invariant that actually holds
    out = collapse([1, 0, 1])
    assert out.tolist() == [0, 0]
    assert collapse(out + 1).tolist() == [0]


# ---------------------------------------------------------------------------
# loss values


def test_two_symbol_hand_count():
    # 3 uniform frames over {blank, a, b}, target "ab": exactly the paths
    # ab-, a-b, -ab, aab, abb match, each with probability 1/27
    lat = _uniform(3, 3)
    loss, grad = ctc_loss(lat, [0, 1])
    assert loss == pytest.approx(-np.log(5.0 / 27.0), abs=1e-12)
    assert ctc_brute_force(lat, [0, 1]) == pytest.approx(loss, abs=1e-12)


def test_single_frame_log2():
    lat = _uniform(1, 2)
    loss, grad = ctc_loss(lat, [0])
    assert loss == pytest.approx(np.log(2.0), abs=1e-15)
    assert grad[0, 1] == pytest.approx(-1.0)
    assert grad[0, 0] == pytest.approx(0.0)


def test_empty_target_counts_all_blank_path():
    lat = _uniform(3, 4)
    loss, grad = ctc_loss(lat, [])
    assert loss == pytest.approx(3 * np.log(4.0), abs=1e-12)
    assert np.allclose(grad[:, BLANK], -1.0)
    assert np.allclose(grad[:, 1:], 0.0)


def test_loss_matches_brute_force_randomized(rng):
    for _ in range(50):
        T = int(rng.integers(1, 6))
        K = int(rng.integers(2, 5))
        lat = _random_lattice(rng, T, K)
        L = int(rng.integers(0, min(T, 3) + 1))
        target = rng.integers(0, K - 1, size=L)
        if min_frames(target) > T:
            continue
        loss, _ = ctc_loss(lat, target)
        assert loss == pytest.approx(ctc_brute_force(lat, target), abs=1e-10)
        assert ctc_forward_loss(lat, target) == pytest.approx(loss, abs=0.0)


def test_loss_with_blocked_emissions(rng):
    # -inf entries remove paths; enumeration agrees on what is left
    lat = _random_lattice(rng, 4, 3)
    lat[1] = [0.0, -np.inf, -np.inf]
    loss, _ = ctc_loss(lat, [0])
    assert loss == pytest.approx(ctc_brute_force(lat, [0]), abs=1e-10)


def test_infeasible_target_raises():
    lat = _uniform(2, 3)
    with pytest.raises(InfeasibleTargetError):
        ctc_loss(lat, [0, 1, 0])  # needs 3 frames
    with pytest.raises(InfeasibleTargetError):
        ctc_loss(lat, [0, 0])  # adjacent repeat needs 3 frames
    lat = np.array([[0.0, -np.inf], [0.0, -np.inf]])
    with pytest.raises(InfeasibleTargetError):
        ctc_loss(lat, [0])  # the only symbol is blocked everywhere


def test_min_frames():
    assert min_frames([]) == 0
    assert min_frames([0, 1, 2]) == 3
    assert min_frames([0, 0, 1, 1]) == 6


def test_out_of_range_target_rejected():
    with pytest.raises(ValidationError):
        ctc_loss(_uniform(3, 3), [0, 2])  # K=3 allows symbols 0 and 1
    with pytest.raises(ValidationError):
        ctc_loss(_uniform(3, 3), [-1])


def test_brute_force_guard():
    with pytest.raises(GuardError):
        ctc_brute_force(_uniform(20, 6), [0])


def test_brute_force_unreachable_target_is_inf():
    lat = np.array([[0.0, -np.inf, -np.inf]])
    assert ctc_brute_force(lat, [1]) == np.inf


# ---------------------------------------------------------------------------
# gradients


def test_gradient_rows_sum_to_minus_one(rng):
    for _ in range(20):
        T = int(rng.integers(2, 7))
        K = int(rng.integers(2, 6))
        lat = _random_lattice(rng, T, K)
        target = rng.integers(0, K - 1, size=int(rng.integers(1, 3)))
        if min_frames(target) > T:
            continue
        _, grad = ctc_loss(lat, target)
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-9)


def test_gradient_matches_central_differences(rng):
    lat = _random_lattice(rng, 4, 3)
    target = [0, 1]
    _, grad = ctc_loss(lat, target)
    eps = 1e-6
    for t in range(4):
        for k in range(3):
            bumped = lat.copy()
            bumped[t, k] += eps
            up = _unnormalized_loss(bumped, target)
            bumped[t, k] -= 2 * eps
            dn = _unnormalized_loss(bumped, target)
            assert grad[t, k] == pytest.approx((up - dn) / (2 * eps), abs=1e-6)


def _unnormalized_loss(lat, target):
    # direct path enumeration; no row-normalization check, matching the
    # lattice-space gradient's definition
    T, K = lat.shape
    total = -np.inf
    for path in itertools.product(range(K), repeat=T):
        if collapse(path).tolist() == list(target):
            total = np.logaddexp(total, sum(lat[t, k] for t, k in enumerate(path)))
    return -total


def test_lattice_gradient_never_positive(rng):
    # raising any entry's log-probability (without renormalizing) can only
    # add path mass, so lattice-space gradients are nonpositive everywhere
    for _ in range(20):
        lat = _random_lattice(rng, 5, 4)
        target = rng.integers(0, 3, size=2)
        if min_frames(target) > 5:
            continue
        _, grad = ctc_loss(lat, target)
        assert np.all(grad <= 1e-12)


def test_renormalized_bump_can_raise_loss():
    # under renormalization the story changes: pushing probability onto a
    # symbol that appears on SOME matching path can still raise the loss,
    # because the bump steals mass from better paths through other symbols
    probs = np.array([[0.1, 0.8, 0.1], [0.8, 0.1, 0.1]])
    target = [0]
    base = ctc_forward_loss(np.log(probs), target)

    bumped = probs.copy()
    bumped[0, BLANK] += 0.05  # blank at t=0 lies on the matching path "-a"
    bumped /= bumped.sum(axis=1, keepdims=True)
    bumped_loss = ctc_forward_loss(np.log(bumped), target)
    assert bumped_loss > base  # the unconditional monotonicity claim fails


def test_grad_identifies_posterior_occupancy():
    # -grad is a distribution over symbols per frame (occupancy), and for a
    # dominant path it concentrates there
    probs = np.array([[0.01, 0.98, 0.01], [0.98, 0.01, 0.01]])
    _, grad = ctc_loss(np.log(probs), [0])
    assert -grad[0, 1] > 0.99
    assert -grad[1, 0] > 0.97


# ---------------------------------------------------------------------------
# decoding


def _exhaustive_best(lat, alphabet):
    T, K = lat.shape
    best = (np.inf, ())
    targets = [()]
    for L in range(1, T + 1):
        targets += list(itertools.product(range(alphabet.size), repeat=L))
    for tgt in targets:
        tgt = np.array(tgt, dtype=np.int64)
        if min_frames(tgt) > T:
            continue
        loss = ctc_brute_force(lat, tgt)
        key = (loss, tuple(tgt.tolist()))
        if key < best:
            best = key
    return np.array(best[1], dtype=np.int64)


def test_beam_is_exact_when_saturated(rng):
    ab = Alphabet(("a", "b"))
    for _ in range(40):
        T = int(rng.integers(1, 5))
        lat = _random_lattice(rng, T, ab.n_emissions)
        want = _exhaustive_best(lat, ab)
        got = beam_decode(lat, ab, beam=64)
        assert got.tolist() == want.tolist()


def test_beam_one_equals_greedy(rng):
    ab = Alphabet(("a", "b", "c"))
    for _ in range(60):
        lat = _random_lattice(rng, int(rng.integers(1, 8)), ab.n_emissions)
        assert beam_decode(lat, ab, beam=1).tolist() == greedy_decode(lat, ab).tolist()


def _pinned_lattices():
    """2000 seeded lattices: plain, uniform, rounded, and rounded with -inf holes.

    Uniform rows and rounded logits tie many candidates at a frame's cut-off,
    and widths up to 6 against beams of 1-5 keep the pruning busy.
    """
    rng = np.random.default_rng(7017)
    for n in range(2000):
        T, K = int(rng.integers(1, 11)), int(rng.integers(2, 7))
        z = rng.normal(size=(T, K)) * 2.0
        if n % 4 == 1:
            z[:] = 0.0
        elif n % 4 >= 2:
            z = np.round(z)
        if n % 4 == 3:
            z[rng.random((T, K)) < 0.3] = -np.inf
            z[np.arange(T), rng.integers(0, K, size=T)] = 0.0
        m = z.max(axis=1, keepdims=True)
        yield z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))


def test_beam_hypotheses_are_pinned():
    # the digest was computed with the dict-of-lists beam_decode that the array
    # version replaced; any change to scoring, merging, pruning or tie-breaking
    # changes some of these 10 000 hypotheses
    hyps = []
    for lat in _pinned_lattices():
        ab = Alphabet(tuple("abcde"[: lat.shape[1] - 1]))
        hyps += [beam_decode(lat, ab, beam=b).tolist() for b in (1, 2, 3, 5, 20)]
    digest = hashlib.sha256(json.dumps(hyps).encode()).hexdigest()
    assert digest == "3d90ddf07fc0ce57bb9f98bced9cb29aa39391953b6d77085b747b3b04249dcc"


def test_greedy_collapses_argmax():
    # argmax symbols: a a - b -> "ab"
    lat = np.log(np.array([
        [0.1, 0.8, 0.1],
        [0.2, 0.6, 0.2],
        [0.8, 0.1, 0.1],
        [0.1, 0.2, 0.7],
    ]))
    ab = Alphabet(("a", "b"))
    assert ab.labels_to_text(greedy_decode(lat, ab)) == "ab"


def test_greedy_ties_pick_lowest_index():
    lat = _uniform(2, 3)  # all tied: argmax -> blank, empty transcript
    ab = Alphabet(("a", "b"))
    assert greedy_decode(lat, ab).tolist() == []


def test_beam_prefers_summed_mass_over_single_path():
    # classic case: blank-heavy frames hide the modal transcript from greedy
    probs = np.array([[0.4, 0.6, 0.0001], [0.4, 0.6, 0.0001]])
    probs /= probs.sum(axis=1, keepdims=True)
    lat = np.log(probs)
    ab = Alphabet(("a", "b"))
    greedy = ab.labels_to_text(greedy_decode(lat, ab))
    exact = ab.labels_to_text(beam_decode(lat, ab, beam=16))
    assert greedy == "a"
    # P("a") = .6*.4 + .4*.6 + .36 = .84 beats P("") = .16 and P("aa") tiny
    assert exact == "a"

    # now make the blank mass dominate every single path but not the sum
    probs = np.array([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    lat = np.log(probs)
    # P("") = .25; P("a") = .125+.125+.0625 = .3125 wins despite greedy ""
    assert ab.labels_to_text(beam_decode(lat, ab, beam=16)) == "a"
    assert ab.labels_to_text(greedy_decode(lat, ab)) == ""


def test_beam_validates_width():
    with pytest.raises(ValidationError):
        beam_decode(_uniform(2, 3), Alphabet(("a", "b")), beam=0)


# ---------------------------------------------------------------------------
# metrics


def test_edit_distance_classic():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "") == 3
    assert edit_distance("abc", "abc") == 0
    assert edit_distance([0, 1, 2], [0, 2]) == 1


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8),
       st.text(alphabet="abc", max_size=8))
@settings(max_examples=200, deadline=None)
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    assert abs(len(a) - len(b)) <= edit_distance(a, b) <= max(len(a), len(b))


def test_cer_aggregates_over_corpus():
    refs = ["abc", "de"]
    hyps = ["abc", "dd"]
    assert cer(refs, hyps) == pytest.approx(100.0 / 5.0)
    assert cer(["ab"], ["ab"]) == 0.0
    # insertions can push the rate past 100
    assert cer(["a"], ["bbb"]) == pytest.approx(300.0)


def test_cer_validation():
    with pytest.raises(ValidationError):
        cer(["a"], ["a", "b"])
    with pytest.raises(ValidationError):
        cer([""], ["a"])
