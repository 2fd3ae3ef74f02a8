"""Reference results the benchmark checks the CLI's outputs against.

Written from the model the package documents, not by calling it: the
two-group Gaussian cohort, counter-style replication seeds, pooled-quantile
binning (boundary ``j`` is the sorted score of rank ``ceil(j*n/k)``; a
subject goes to the first class whose boundary is >= its score), and the
Youden-optimal threshold with ties to the smallest ``c``.  Sensitivity and
specificity are accumulated from the class frequencies the way the
package's reports define them, so exact agreement is expected; the checks
still compare floats with a small tolerance.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TOLERANCE = 1e-12


def replication_seed(master_seed: int, replication: int) -> int:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication,))
    return int(seq.generate_state(1, np.uint64)[0])


def cohort(n: int, prevalence: float, mu0: float, mu1: float, sigma: float, seed: int):
    """Scores and 0/1 outcomes of one simulated cohort."""
    rng = np.random.default_rng(seed)
    outcomes = (rng.random(n) < prevalence).astype(np.int64)
    means = np.where(outcomes == 1, mu1, mu0)
    scores = rng.standard_normal(n) * sigma + means
    return scores, outcomes


def cohort_csv_sha256(scores, outcomes) -> str:
    """Digest of the cohort CSV: a header, then ``repr(score),outcome`` rows."""
    digest = hashlib.sha256(b"score,outcome\n")
    rows = zip(map(repr, scores.tolist()), outcomes.tolist())
    digest.update("".join(f"{s},{o}\n" for s, o in rows).encode())
    return digest.hexdigest()


def youden_cut(scores, outcomes, ordered, k: int) -> dict:
    """Optimal class threshold ``c`` and its se/sp for one ``k``-class scale.

    ``ordered`` is ``scores`` sorted ascending.
    """
    n = scores.size
    ranks = (np.arange(1, k) * n + k - 1) // k
    classes = np.searchsorted(ordered[ranks - 1], scores, side="left")
    diseased = outcomes == 1
    n1 = int(np.count_nonzero(diseased))
    p1 = np.bincount(classes[diseased], minlength=k) / n1
    p0 = np.bincount(classes[~diseased], minlength=k) / (n - n1)
    se = np.minimum(np.cumsum(p1[::-1])[::-1], 1.0)
    se[0] = 1.0
    sp = np.empty(k)
    sp[0] = 0.0
    sp[1:] = np.minimum(np.cumsum(p0)[:-1], 1.0)
    best = int(np.argmax(se + sp - 1.0))
    return {
        "c": best + 1,
        "se": float(se[best]),
        "sp": float(sp[best]),
        "empty_classes": int(np.count_nonzero((p1 == 0) & (p0 == 0))),
    }


def analysis(scores, outcomes, k: int) -> dict:
    return youden_cut(scores, outcomes, np.sort(scores), k)


def sweep(n, prevalence, mu0, mu1, sigma, seed, ks, reps) -> list[dict]:
    """Per-``k`` records of the Monte Carlo sweep (population sd)."""
    se = np.empty((reps, len(ks)))
    sp = np.empty((reps, len(ks)))
    cc = np.empty((reps, len(ks)))
    for r in range(reps):
        scores, outcomes = cohort(n, prevalence, mu0, mu1, sigma, replication_seed(seed, r))
        ordered = np.sort(scores)
        for j, k in enumerate(ks):
            cut = youden_cut(scores, outcomes, ordered, k)
            se[r, j], sp[r, j], cc[r, j] = cut["se"], cut["sp"], cut["c"]
    return [
        {
            "k": k,
            "mean_se": float(np.mean(se[:, j])),
            "sd_se": float(np.std(se[:, j])),
            "mean_sp": float(np.mean(sp[:, j])),
            "sd_sp": float(np.std(sp[:, j])),
            "mean_c": float(np.mean(cc[:, j])),
        }
        for j, k in enumerate(ks)
    ]


def grid_points(k: int, grid_step: float, allow_negative_deltas: bool) -> int:
    """Number of (base pmf, delta vector) pairs on a counterexample grid.

    Bases are the compositions of ``u = 1/grid_step`` units into ``k``
    parts.  Each delta ranges over ``b-u .. b`` (negative deltas allowed) or
    ``0 .. b`` per class; summed over bases, the second case counts the
    compositions of ``u`` into ``2k`` parts.
    """
    units = round(1.0 / grid_step)
    if allow_negative_deltas:
        return math.comb(units + k - 1, k - 1) * (units + 1) ** k
    return math.comb(units + 2 * k - 1, 2 * k - 1)
