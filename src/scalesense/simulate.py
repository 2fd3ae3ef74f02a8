"""Synthetic two-group cohorts and the Monte Carlo partition sweep.

Scores are Gaussian within each outcome group, with the diseased mean above
the healthy mean.  The sweep repeatedly regenerates a cohort, discretizes it
at each requested class count, and records the criterion-optimal operating
point, so the effect of partition granularity on the chosen cut can be
studied empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ThresholdCriterion,
    Cohort,
    _best_threshold,
    _class_counts,
    _sort_by_score,
    # Unused here, but bench/tracing.py wraps these three by name in this module.
    discretize,
    estimate_conditional_pmfs,
    finite_float,
    select_threshold,
    strict_int,
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

_SEED_BOUND = 2**64


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
        n = strict_int(self.n, "cohort size", SpecValidationError, minimum=2)
        seed = strict_int(
            self.seed, "seed", SpecValidationError, minimum=0, maximum=_SEED_BOUND - 1
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        for name in ("prevalence", "mu_healthy", "mu_diseased", "sigma"):
            value = finite_float(getattr(self, name), name, SpecValidationError)
            object.__setattr__(self, name, value)
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
        for name in ("mean_se", "sd_se", "mean_sp", "sd_sp", "mean_c"):
            value = finite_float(getattr(self, name), name, InvariantViolationError)
            object.__setattr__(self, name, value)
        for name in ("mean_se", "mean_sp"):
            if not -1e-12 <= getattr(self, name) <= 1.0 + 1e-12:
                raise InvariantViolationError(f"{name} must lie in [0, 1]")
        for name in ("sd_se", "sd_sp"):
            if getattr(self, name) < 0.0:
                raise InvariantViolationError(f"{name} must be >= 0")
        if self.mean_c < 1.0:
            raise InvariantViolationError("mean_c must be >= 1")


@dataclass(frozen=True)
class ExperimentReport:
    """Everything needed to reproduce and read one sweep."""

    spec: CohortSpec
    criterion: ThresholdCriterion
    reps: int
    k_values: tuple[int, ...]
    records: tuple[SweepRecord, ...]

    def __post_init__(self) -> None:
        reps = strict_int(self.reps, "replications", EmptyExperimentError, minimum=1)
        k_values = tuple(
            strict_int(k, "class count", InvalidClassCountError) for k in self.k_values
        )
        if tuple(r.k for r in self.records) != k_values:
            raise InvariantViolationError("need one record per k value, in order")
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "k_values", k_values)


def replication_seed(master_seed: int, replication: int) -> int:
    """Derive the child seed for one replication from the master seed.

    Children are split off counter-style, so any replication's seed can be
    recomputed without generating its predecessors.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication,))
    return int(seq.generate_state(1, np.uint64)[0])


def generate_cohort(spec: CohortSpec) -> Cohort:
    """Draw one cohort; identical specs give bit-identical cohorts."""
    rng = np.random.default_rng(spec.seed)
    outcomes = (rng.random(spec.n) < spec.prevalence).astype(np.int64)
    means = np.where(outcomes == 1, spec.mu_diseased, spec.mu_healthy)
    scores = rng.standard_normal(spec.n) * spec.sigma + means
    return Cohort(scores=scores, outcomes=outcomes)


def run_partition_sweep(
    spec: CohortSpec,
    k_values: tuple[int, ...] = DEFAULT_CLASS_LADDER,
    reps: int = DEFAULT_REPS,
    criterion: ThresholdCriterion = ThresholdCriterion.YOUDEN_J,
) -> ExperimentReport:
    """Monte Carlo sweep over class counts.

    Each replication draws a fresh cohort from a child seed of
    ``spec.seed``, sorts it once and reads the class counts of every ``k``
    off one cumulative count (the kernel of
    :func:`~scalesense.core.analyze_cohort`), recording the
    criterion-optimal sensitivity, specificity, and threshold.  Means and
    standard deviations (population form, so one replication gives sd 0)
    are aggregated per ``k``.  A draw that leaves one outcome group empty
    fails with a degenerate-cohort error naming the replication and its
    child seed.
    """
    reps = strict_int(reps, "replications", EmptyExperimentError, minimum=1)
    ks = tuple(
        strict_int(k, "class count", InvalidClassCountError, minimum=2, maximum=spec.n)
        for k in k_values
    )
    if not ks:
        raise EmptyExperimentError("need at least one class count to sweep")

    se = np.empty((reps, len(ks)), dtype=np.float64)
    sp = np.empty((reps, len(ks)), dtype=np.float64)
    cc = np.empty((reps, len(ks)), dtype=np.float64)
    for r in range(reps):
        child = replace(spec, seed=replication_seed(spec.seed, r))
        try:
            ordered, cum1, n1, n0 = _sort_by_score(generate_cohort(child))
        except DegenerateCohortError as exc:
            raise DegenerateCohortError(
                f"replication {r} (child seed {child.seed}): {exc}"
            ) from exc
        for j, k in enumerate(ks):
            _, counts1, counts0 = _class_counts(ordered, cum1, k)
            cc[r, j], se[r, j], sp[r, j], _ = _best_threshold(
                counts1 / n1, counts0 / n0, criterion
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
    return ExperimentReport(
        spec=spec, criterion=criterion, reps=reps, k_values=ks, records=records
    )
