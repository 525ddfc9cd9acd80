"""Connectionist temporal classification: exact loss, gradients, decoding.

The emission lattice is a T x (S+1) matrix of per-frame log-probabilities
over the blank (index 0) plus S alphabet symbols (symbol i at column i+1).
A frame-level path collapses to a label sequence by first merging adjacent
repeats, then deleting blanks; the sequence posterior is the sum of the
probabilities of every path that collapses to it.

ctc_loss runs the usual forward-backward recursion over the blank-interleaved
extended target, entirely in log space.  ctc_brute_force literally enumerates
every path and is kept deliberately independent of the recursion so the two
can audit each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GuardError, InfeasibleTargetError, ValidationError

BLANK = 0
DEFAULT_BEAM_WIDTH = 20

LabelSequence = np.ndarray  # 1-D int array of alphabet indices (blank excluded)

_NEG_INF = -np.inf


@dataclass(frozen=True)
class Alphabet:
    """Symbol inventory of one language; blank is implicit at index 0.

    symbols[i] is emitted by lattice column i+1.  Symbols are single
    characters so transcripts serialize as plain strings.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet needs at least one symbol")
        if any(not isinstance(s, str) or len(s) != 1 for s in self.symbols):
            raise ValidationError("alphabet symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be unique")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def n_emissions(self) -> int:
        """Lattice width: blank plus every symbol."""
        return len(self.symbols) + 1

    def labels_to_text(self, labels) -> str:
        labels = as_labels(labels, self.size)
        return "".join(self.symbols[i] for i in labels)

    def text_to_labels(self, text: str) -> LabelSequence:
        idx = {s: i for i, s in enumerate(self.symbols)}
        try:
            return np.array([idx[ch] for ch in text], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(f"character {exc.args[0]!r} not in alphabet") from None


def as_labels(labels, n_symbols: int | None = None) -> LabelSequence:
    """Coerce to a 1-D int64 label array, validating the index range."""
    arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    if arr.size and arr.min() < 0:
        raise ValidationError("label indices must be non-negative")
    if n_symbols is not None and arr.size and arr.max() >= n_symbols:
        raise ValidationError(
            f"label index {int(arr.max())} out of range for {n_symbols} symbols"
        )
    return arr


def validate_lattice(log_probs) -> np.ndarray:
    """Check a T x K matrix of row-normalized log-probabilities.

    Entries may be -inf (impossible emissions); +inf and NaN are rejected,
    and each row must satisfy logsumexp(row) = 0 within 1e-9.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 2:
        raise ValidationError(
            f"lattice must be 2-D with at least one frame and two columns, got {lp.shape}"
        )
    if np.any(np.isnan(lp)) or np.any(lp == np.inf):
        raise ValidationError("lattice entries must be finite or -inf")
    row_lse = _logsumexp_rows(lp)
    if not np.all(np.abs(row_lse) <= 1e-9):
        worst = float(np.max(np.abs(row_lse)))
        raise ValidationError(f"lattice rows are not normalized (worst |logsumexp| = {worst:g})")
    return lp


def _logsumexp_rows(lp: np.ndarray) -> np.ndarray:
    m = np.max(lp, axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(lp - safe[:, None]), axis=1))
    return np.where(np.isfinite(m), out, m)


def collapse(path, alphabet: Alphabet | None = None) -> LabelSequence:
    """Map a frame-level emission path to its label sequence.

    Adjacent repeats merge first, then blanks are removed; surviving
    emissions e become labels e-1.  [a, a, blank, a] therefore collapses to
    [a, a]: the blank separates the repeated symbol.
    """
    arr = np.asarray(path, dtype=np.int64).reshape(-1)
    if arr.size and arr.min() < 0:
        raise ValidationError("emission indices must be non-negative")
    if alphabet is not None and arr.size and arr.max() >= alphabet.n_emissions:
        raise ValidationError(
            f"emission index {int(arr.max())} out of range for alphabet of size {alphabet.size}"
        )
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    merged = arr[keep]
    return merged[merged != BLANK] - 1


def min_frames(target) -> int:
    """Fewest frames able to emit target: length plus one per adjacent repeat."""
    t = as_labels(target)
    if t.size == 0:
        return 0
    return int(t.size + np.sum(t[1:] == t[:-1]))


def _extended_target(target: LabelSequence) -> tuple[np.ndarray, np.ndarray]:
    """Blank-interleaved target and its skip-allowed mask.

    ext has length 2L+1: blank, c1, blank, c2, ..., blank.  A diagonal skip
    into position s is legal when ext[s] is a symbol different from ext[s-2].
    """
    L = target.size
    ext = np.zeros(2 * L + 1, dtype=np.int64)
    ext[1::2] = target + 1
    skip = np.zeros(ext.size, dtype=bool)
    if L > 1:
        skip[3::2] = ext[3::2] != ext[1:-2:2]
    return ext, skip


def _alpha_pass(lp: np.ndarray, target: LabelSequence):
    """Shared forward recursion: returns (log_p, log_alpha, ext, skip, emit)."""
    T = lp.shape[0]
    need = min_frames(target)
    if need > T:
        raise InfeasibleTargetError(
            f"target of length {target.size} needs at least {need} frames, lattice has {T}"
        )

    ext, skip = _extended_target(target)
    S = ext.size
    emit = lp[:, ext]  # T x S: log-prob of the extended symbol at each frame

    log_alpha = np.full((T, S), _NEG_INF)
    log_alpha[0, 0] = emit[0, 0]
    if S > 1:
        log_alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = log_alpha[t - 1]
        stay = prev
        step1 = np.full(S, _NEG_INF)
        step1[1:] = prev[:-1]
        step2 = np.full(S, _NEG_INF)
        step2[2:] = np.where(skip[2:], prev[:-2], _NEG_INF)
        log_alpha[t] = emit[t] + np.logaddexp(np.logaddexp(stay, step1), step2)

    if S > 1:
        log_p = np.logaddexp(log_alpha[T - 1, S - 1], log_alpha[T - 1, S - 2])
    else:
        log_p = log_alpha[T - 1, 0]
    if not np.isfinite(log_p):
        # feasible targets always have at least one positive-probability path
        # unless -inf lattice entries block every one of them
        raise InfeasibleTargetError("no path with positive probability emits the target")
    return log_p, log_alpha, ext, skip, emit


def ctc_forward_loss(log_probs, target) -> float:
    """Loss only (no gradient); same recursion and validation as ctc_loss."""
    lp = validate_lattice(log_probs)
    target = as_labels(target, lp.shape[1] - 1)
    log_p, *_ = _alpha_pass(lp, target)
    return float(-log_p)


def ctc_loss(log_probs, target) -> tuple[float, np.ndarray]:
    """Exact negative log-posterior of target and its lattice gradient.

    Returns (loss, grad) where grad[t, k] = d loss / d log_probs[t, k].
    Because every frame emits exactly one symbol, each gradient row sums to
    -1.  The whole recursion runs in log space; probabilities themselves are
    only formed at the very end.

    Raises InfeasibleTargetError when the target cannot fit in T frames and
    ValidationError for malformed lattices or out-of-range labels.
    """
    lp = validate_lattice(log_probs)
    T, K = lp.shape
    target = as_labels(target, K - 1)
    log_p, log_alpha, ext, skip, emit = _alpha_pass(lp, target)
    S = ext.size

    # beta excludes the emission at the current frame, so alpha[t]+beta[t]
    # counts each path's frame-t emission exactly once
    log_beta = np.full((T, S), _NEG_INF)
    log_beta[T - 1, S - 1] = 0.0
    if S > 1:
        log_beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = log_beta[t + 1] + emit[t + 1]
        stay = nxt
        step1 = np.full(S, _NEG_INF)
        step1[:-1] = nxt[1:]
        step2 = np.full(S, _NEG_INF)
        step2[:-2] = np.where(skip[2:], nxt[2:], _NEG_INF)
        log_beta[t] = np.logaddexp(np.logaddexp(stay, step1), step2)

    occ = np.full((T, K), _NEG_INF)
    np.logaddexp.at(occ, (np.arange(T)[:, None], ext), log_alpha + log_beta)
    grad = -np.exp(occ - log_p)

    loss = float(-log_p)
    if not np.isfinite(loss):
        raise ValidationError("ctc loss is non-finite")
    return loss, grad


def ctc_brute_force(log_probs, target, *, guard: int = 10**7) -> float:
    """Loss by literal enumeration of every frame-level path.

    Sums the probability of each of the (S+1)^T paths whose collapse equals
    target and returns the negative log of that sum (inf when no path
    matches).  Completely independent of the forward-backward recursion.
    Instances with more than guard paths raise GuardError.
    """
    lp = validate_lattice(log_probs)
    T, K = lp.shape
    target = as_labels(target, K - 1)
    n_paths = K**T
    if n_paths > guard:
        raise GuardError(f"{K}^{T} = {n_paths} paths exceeds the guard of {guard}")

    tgt_emit = target + 1
    L = target.size
    scores = np.zeros(n_paths)
    prev = np.zeros(n_paths, dtype=np.int64)
    matched = np.zeros(n_paths, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    for t in range(T):
        reps = K ** (T - 1 - t)
        col = np.tile(np.repeat(np.arange(K, dtype=np.int64), reps), K**t)
        scores += lp[t, col]
        contrib = alive & (col != BLANK) & (col != prev)
        over = contrib & (matched >= L)
        alive[over] = False
        use = contrib & (matched < L)
        rows = np.nonzero(use)[0]
        if rows.size:
            bad = tgt_emit[matched[rows]] != col[rows]
            alive[rows[bad]] = False
            matched[rows] += 1
        prev = col
    mask = alive & (matched == L)
    if not np.any(mask):
        return float("inf")
    vals = scores[mask]
    m = float(np.max(vals))
    if m == _NEG_INF:
        return float("inf")
    return float(-(m + np.log(np.sum(np.exp(vals - m)))))


# ---------------------------------------------------------------------------
# decoding


def greedy_decode(log_probs, alphabet: Alphabet) -> LabelSequence:
    """Collapse of the per-frame argmax path (ties go to the lowest index)."""
    lp = validate_lattice(log_probs)
    if lp.shape[1] != alphabet.n_emissions:
        raise ValidationError(
            f"lattice width {lp.shape[1]} does not match alphabet ({alphabet.n_emissions})"
        )
    return collapse(np.argmax(lp, axis=1), alphabet)


def beam_decode(log_probs, alphabet: Alphabet, beam: int = DEFAULT_BEAM_WIDTH) -> LabelSequence:
    """Prefix beam search over label sequences.

    Hypotheses are label prefixes; each carries separate log-probabilities
    for alignments ending in blank and in the prefix's last symbol, so paths
    that collapse to the same prefix are merged rather than competing.
    Candidate emissions at every frame are limited to the top `beam` symbols
    of that frame, which makes beam=1 coincide exactly with greedy_decode,
    while a beam at least as wide as every row and every live prefix prunes
    nothing and returns the exact posterior argmax.  Ties break toward the
    lexicographically smaller prefix.

    The beam is a list of prefix tuples with parallel arrays of those two
    log-probabilities and each prefix's last emission.  Every frame scores all
    beam x candidate extensions as one matrix, and an extension that equals a
    live prefix merges into it through a lookup of that prefix's parent.
    """
    lp = validate_lattice(log_probs)
    if lp.shape[1] != alphabet.n_emissions:
        raise ValidationError(
            f"lattice width {lp.shape[1]} does not match alphabet ({alphabet.n_emissions})"
        )
    if beam < 1:
        raise ValidationError("beam width must be at least 1")
    T, K = lp.shape
    width = min(beam, K)

    # candidate emissions of every frame, the same stable order greedy_decode
    # and beam=1 agree on; outside them a frame's emissions count as -inf
    cand = np.argsort(-lp, axis=1, kind="stable")[:, :width]
    rows = np.arange(T)[:, None]
    column = np.full((T, K), -1)
    column[rows, cand] = np.arange(width)
    allowed = np.where(column >= 0, lp, _NEG_INF)
    column[:, BLANK] = -1  # blank never extends a prefix
    grow_lp = np.where(cand == BLANK, _NEG_INF, lp[rows, cand])

    # the beam: prefix tuples plus, per prefix, log P(ending in blank), log P(ending
    # in the last symbol) and that symbol's emission (blank for the empty prefix)
    prefixes: list[tuple[int, ...]] = [()]
    pb = np.zeros(1)
    pnb = np.full(1, _NEG_INF)
    last = np.full(1, BLANK)
    for t in range(T):
        total = np.logaddexp(pb, pnb)
        # staying on a prefix: a blank, or a repeat that merges into the last symbol
        stay_b = total + allowed[t, BLANK]
        stay_nb = pnb + allowed[t, last]
        # extension (i, c) appends cand[t, c] to prefix i; after an equal last
        # symbol only the paths ending in blank extend, the rest are the repeat
        grow = np.where(last[:, None] == cand[t], pb[:, None], total[:, None]) + grow_lp[t]

        # an extension equal to a live prefix merges into it, found by one parent
        # lookup per live prefix; a symbol-ending slot then sums at most two terms,
        # the repeat and the parent's extension
        index = {p: i for i, p in enumerate(prefixes)}
        parent = np.array([index.get(p[:-1], -1) if p else -1 for p in prefixes])
        pos = column[t, last]
        child = np.flatnonzero((parent >= 0) & (pos >= 0))
        if child.size:
            j, c = parent[child], pos[child]
            stay_nb[child] = np.logaddexp(stay_nb[child], grow[j, c])
            grow[j, c] = _NEG_INF

        # stays, then extensions, laid out as _beam_entries reads them; an extension
        # has no blank-ending mass, so its score is its grow entry itself
        score = np.concatenate([np.logaddexp(stay_b, stay_nb), grow.ravel()])
        keep = np.flatnonzero(score > _NEG_INF)
        if keep.size > beam:
            # the `beam` best; ties at the cut-off go to the smaller prefix
            cut = np.sort(score[keep])[-beam]
            tied = keep[score[keep] == cut]
            keep = keep[score[keep] > cut]
            tied_prefixes, _ = _beam_entries(prefixes, last, cand[t], tied)
            order = sorted(range(tied.size), key=tied_prefixes.__getitem__)
            keep = np.concatenate([keep, tied[order[: beam - keep.size]]])
        pb = np.concatenate([stay_b, np.full(grow.size, _NEG_INF)])[keep]
        pnb = np.concatenate([stay_nb, grow.ravel()])[keep]
        prefixes, last = _beam_entries(prefixes, last, cand[t], keep)

    total = np.logaddexp(pb, pnb)
    best = min(prefixes[i] for i in np.flatnonzero(total == total.max()))
    return np.array(best, dtype=np.int64)


def _beam_entries(
    prefixes: list[tuple[int, ...]], last: np.ndarray, cand: np.ndarray, entries: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Prefixes and last emissions of the given entries of one beam_decode frame.

    Entry n < len(prefixes) stays on prefix n; entry len(prefixes) + i*cand.size + c
    appends emission cand[c] to prefix i.
    """
    stays = entries < len(prefixes)
    src, c = np.divmod(entries - len(prefixes), cand.size)
    src = np.where(stays, entries, src)
    emit = np.where(stays, last[src], cand[c])
    out = [
        prefixes[i] if s else prefixes[i] + (e - 1,)
        for i, s, e in zip(src.tolist(), stays.tolist(), emit.tolist())
    ]
    return out, emit


# ---------------------------------------------------------------------------
# error metrics


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    a = list(ref)
    b = list(hyp)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


def cer(references: Sequence, hypotheses: Sequence) -> float:
    """Corpus character error rate: 100 * total edits / total reference length."""
    if len(references) != len(hypotheses):
        raise ValidationError(
            f"got {len(references)} references but {len(hypotheses)} hypotheses"
        )
    total_ref = sum(len(r) for r in references)
    if total_ref == 0:
        raise ValidationError("reference corpus is empty")
    edits = sum(edit_distance(r, h) for r, h in zip(references, hypotheses))
    return 100.0 * edits / total_ref
