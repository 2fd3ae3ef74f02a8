"""Synthetic two-group cohorts and the Monte Carlo partition sweep.

Scores are Gaussian within each outcome group, with the diseased mean above
the healthy mean.  The sweep draws one cohort per replication, counts its
subjects per class at each requested class count, and records the
criterion-optimal operating point, so the effect of partition granularity on
the chosen cut can be studied empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    _MAX_CELLS,
    ThresholdCriterion,
    Cohort,
    _best_threshold,
    _block_counts,
    _class_ranks,
    # Unused here, but bench/tracing.py wraps these three by name in this module.
    discretize,
    estimate_conditional_pmfs,
    finite_fields,
    require_type,
    require_types,
    seed_int,
    select_threshold,
    strict_int,
    vector,
)
from .errors import (
    DegenerateCohortError,
    EmptyExperimentError,
    InvalidClassCountError,
    InvariantViolationError,
    SpecValidationError,
)

DEFAULT_CLASS_LADDER = (2, 3, 4, 5, 6, 8, 10, 15, 50, 100, 200, 500, 800)
"""Granularities swept by default, from a median split up to 800-tiles."""

DEFAULT_REPS = 1000

_BLOCK_CELLS = 1 << 16  # replications x subjects per block of the sweep


@dataclass(frozen=True)
class CohortSpec:
    """Parameters of one synthetic cohort draw.

    ``n`` subjects receive i.i.d. Bernoulli(``prevalence``) outcomes; scores
    are Normal(``mu_diseased``, ``sigma``) for the diseased and
    Normal(``mu_healthy``, ``sigma``) for the healthy.
    """

    n: int
    prevalence: float
    mu_healthy: float
    mu_diseased: float
    sigma: float
    seed: int

    def __post_init__(self) -> None:
        n = strict_int(self.n, "cohort size", SpecValidationError, minimum=2, maximum=_MAX_CELLS)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed_int(self.seed, "seed", SpecValidationError))
        finite_fields(self, SpecValidationError, "prevalence", "mu_healthy", "mu_diseased", "sigma")
        if not 0.0 < self.prevalence < 1.0:
            raise SpecValidationError(
                f"prevalence must lie strictly inside (0, 1), got {self.prevalence!r}"
            )
        if not self.mu_diseased > self.mu_healthy:
            raise SpecValidationError(
                f"diseased mean must exceed healthy mean, got "
                f"{self.mu_diseased!r} <= {self.mu_healthy!r}"
            )
        if not self.sigma > 0.0:
            raise SpecValidationError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class SweepRecord:
    """Aggregates over replications for one class count."""

    k: int
    mean_se: float
    sd_se: float
    mean_sp: float
    sd_sp: float
    mean_c: float

    def __post_init__(self) -> None:
        k = strict_int(self.k, "k", InvariantViolationError, minimum=2)
        object.__setattr__(self, "k", k)
        finite_fields(
            self, InvariantViolationError, "mean_se", "sd_se", "mean_sp", "sd_sp", "mean_c"
        )
        for name in ("mean_se", "mean_sp"):
            if not -1e-12 <= getattr(self, name) <= 1.0 + 1e-12:
                raise InvariantViolationError(f"{name} must lie in [0, 1]")
        for name in ("sd_se", "sd_sp"):
            if getattr(self, name) < 0.0:
                raise InvariantViolationError(f"{name} must be >= 0")
        if not 1.0 <= self.mean_c <= k:
            raise InvariantViolationError(f"mean_c must lie in [1, {k}]")


@dataclass(frozen=True)
class ExperimentReport:
    """Everything needed to reproduce and read one sweep; ``k_values`` is its records' ``k``s."""

    spec: CohortSpec
    criterion: ThresholdCriterion
    reps: int
    k_values: tuple[int, ...] = field(init=False)
    records: tuple[SweepRecord, ...]

    def __post_init__(self) -> None:
        require_types(self, spec=CohortSpec, criterion=ThresholdCriterion, records=(tuple, list))
        records = tuple(require_type(r, SweepRecord, "record") for r in self.records)
        reps, k_values = _sweep_shape(self.reps, [r.k for r in records], self.spec.n)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "records", records)


def _sweep_shape(reps, k_values, n: int) -> tuple[int, tuple[int, ...]]:
    """``reps`` and the class ladder ``k_values`` of a sweep of ``n``-subject
    cohorts, checked in that order; ``reps x len(k_values)`` is bounded last."""
    reps = strict_int(reps, "replications", EmptyExperimentError, minimum=1)
    ks = vector(k_values, int, "class counts", InvalidClassCountError)
    if (outside := ks[(ks < 2) | (ks > n)]).size:
        raise InvalidClassCountError(f"class count must be in 2..{n}, got {outside[0]}")
    if not ks.size:
        raise EmptyExperimentError("need at least one class count to sweep")
    if reps > _MAX_CELLS // ks.size:
        raise EmptyExperimentError(f"replications x class counts must be at most {_MAX_CELLS}")
    return reps, tuple(ks.tolist())


def replication_seed(master_seed: int, replication: int) -> int:
    """Derive the child seed for one replication from the master seed.

    Children are split off counter-style, so any replication's seed can be
    recomputed without generating its predecessors.
    """
    master_seed = seed_int(master_seed, "seed", SpecValidationError)
    replication = strict_int(replication, "replication", SpecValidationError, minimum=0)
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication,))
    return int(seq.generate_state(1, np.uint64)[0])


def _draw(spec: CohortSpec, seed: int, scores: np.ndarray, outcomes: np.ndarray) -> None:
    """Draw one cohort of ``spec`` from ``seed`` into ``scores`` and ``outcomes``, unchecked."""
    rng = np.random.default_rng(seed)
    outcomes[:] = rng.random(spec.n) < spec.prevalence
    means = np.where(outcomes == 1, spec.mu_diseased, spec.mu_healthy)
    scores[:] = rng.standard_normal(spec.n) * spec.sigma + means


def _empty(shape: tuple, error: type, dtype=float) -> np.ndarray:
    """``np.empty(shape, dtype)``, or ``error`` for a size the machine cannot hold."""
    try:
        return np.empty(shape, dtype)
    except MemoryError:  # raised at once: numpy touches no memory before it fails
        raise error(f"cannot allocate a {np.dtype(dtype)} array of shape {shape}") from None


def generate_cohort(spec: CohortSpec) -> Cohort:
    """Draw one cohort; identical specs give bit-identical cohorts."""
    require_type(spec, CohortSpec, "spec", SpecValidationError)
    scores, outcomes = (_empty((spec.n,), SpecValidationError, kind) for kind in (float, int))
    with np.errstate(over="ignore"):  # Cohort refuses the overflowed scores
        _draw(spec, spec.seed, scores, outcomes)
    return Cohort(scores=scores, outcomes=outcomes)


def run_partition_sweep(
    spec: CohortSpec,
    k_values: tuple[int, ...] = DEFAULT_CLASS_LADDER,
    reps: int = DEFAULT_REPS,
    criterion: ThresholdCriterion = ThresholdCriterion.YOUDEN_J,
) -> ExperimentReport:
    """Monte Carlo sweep over class counts.

    Each replication draws a fresh cohort from a child seed of
    ``spec.seed``.  Blocks of about 65k replications x subjects (32
    replications at ``n = 2000``) are sorted once, tie runs found by a
    running minimum, and the class counts at every ``k`` read off a
    cumulative count to record the criterion-optimal sensitivity,
    specificity, and threshold: the kernel that
    :func:`~scalesense.core.analyze_cohort` runs on a block of one row.
    Means and standard deviations (population form, so one replication gives
    sd 0) are aggregated per ``k``.  Arguments are checked once, and the
    drawn rows once per block: the first replication whose scores overflow
    fails with an invariant violation, and the first that leaves one outcome
    group empty with a degenerate-cohort error naming the replication and
    its child seed.
    """
    require_type(spec, CohortSpec, "spec", SpecValidationError)
    reps, ks = _sweep_shape(reps, k_values, spec.n)
    require_type(criterion, ThresholdCriterion, "criterion")

    n = spec.n
    se, sp, cc = (_empty((reps, len(ks)), EmptyExperimentError) for _ in range(3))
    block = max(1, min(reps, _BLOCK_CELLS // n))
    scores, outcomes = (_empty((block, n), SpecValidationError, kind) for kind in (float, np.int8))
    class_ranks = [_class_ranks(n, k) for k in ks]
    for start in range(0, reps, block):
        rows = slice(start, min(start + block, reps))
        size = rows.stop - start
        with np.errstate(over="ignore"):  # the finite check below refuses overflowed scores
            for i in range(size):
                _draw(spec, replication_seed(spec.seed, start + i), scores[i], outcomes[i])
        finite = np.isfinite(scores[:size]).all(axis=1)
        n1, counts = _block_counts(scores[:size], outcomes[:size], class_ranks)
        if not (ok := finite & (n1 > 0) & (n1 < n)).all():
            i = int(np.argmin(ok))
            if not finite[i]:
                raise InvariantViolationError("all scores must be finite")
            raise DegenerateCohortError(
                f"replication {start + i} (child seed {replication_seed(spec.seed, start + i)}):"
                f" both outcome groups must be non-empty (n1={n1[i]}, n0={n - n1[i]})"
            )
        n1 = n1[:, None]
        for j, (counts1, counts0) in enumerate(counts):
            cc[rows, j], se[rows, j], sp[rows, j], _ = _best_threshold(
                counts1 / n1, counts0 / (n - n1), criterion
            )

    records = tuple(
        SweepRecord(
            k=k,
            mean_se=float(np.mean(se[:, j])),
            sd_se=float(np.std(se[:, j])),
            mean_sp=float(np.mean(sp[:, j])),
            sd_sp=float(np.std(sp[:, j])),
            mean_c=float(np.mean(cc[:, j])),
        )
        for j, k in enumerate(ks)
    )
    return ExperimentReport(spec=spec, criterion=criterion, reps=reps, records=records)
