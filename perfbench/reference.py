"""Independent references for the benchmark's correctness checks.

Nothing here imports metactc.ctc: each function re-derives its quantity by a
different algorithm from the program's, so agreement is evidence and not a
tautology.

ctc_nll runs the CTC forward recursion in probability space and rescales the
forward variables to sum to one at every frame, accumulating the log of the
scale factors (Rabiner's scaling, as in Graves et al. 2006).  The program's
ctc_loss instead runs the recursion in log space with logaddexp.

cer is a plain Levenshtein distance over a full (m+1) x (n+1) table.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def ctc_nll(log_probs, target) -> float:
    """Negative log-probability of `target` under a T x (S+1) emission lattice.

    Column 0 is the blank and label i is emitted by column i+1.  Returns inf
    when no frame path collapses to the target.
    """
    probs = np.exp(np.asarray(log_probs, dtype=np.float64))
    ext = [0]
    for label in target:
        ext += [int(label) + 1, 0]
    n_states = len(ext)
    can_skip = np.array(
        [s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2] for s in range(n_states)]
    )
    emit = probs[:, ext]

    alpha = np.zeros(n_states)
    alpha[0] = emit[0, 0]
    if n_states > 1:
        alpha[1] = emit[0, 1]
    log_scale = 0.0
    for t in range(emit.shape[0]):
        if t > 0:
            moved = alpha.copy()
            moved[1:] += alpha[:-1]
            moved[2:] += np.where(can_skip[2:], alpha[:-2], 0.0)
            alpha = moved * emit[t]
        total = alpha.sum()
        if total <= 0.0:
            return math.inf
        alpha = alpha / total
        log_scale += math.log(total)
    end = alpha[-1] + (alpha[-2] if n_states > 1 else 0.0)
    if end <= 0.0:
        return math.inf
    return -(log_scale + math.log(end))


def levenshtein(ref: Sequence, hyp: Sequence) -> int:
    """Unit-cost insert/delete/substitute distance over the full DP table."""
    m, n = len(ref), len(hyp)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
            )
    return table[m][n]


def cer(refs: Sequence[str], hyps: Sequence[str]) -> float:
    """Corpus character error rate in percent: 100 * edits / reference chars."""
    edits = sum(levenshtein(r, h) for r, h in zip(refs, hyps, strict=True))
    return 100.0 * edits / sum(len(r) for r in refs)
