"""Discretized diagnostic scales and threshold analytics.

A continuous risk score is binned into ``k`` ordered classes by pooled
quantiles.  Conditional class probabilities given the binary outcome then
yield sensitivity and specificity at every candidate threshold, from which
an optimal cutpoint is selected under a configurable criterion.

Threshold convention: a subject is called positive when its class index is
``>= c``, for ``c`` in ``1 .. k+1``.  The sentinel ``c = k+1`` calls nobody
positive, so sensitivity spans the exact range ``[0, 1]`` endpoints at
``c = k+1`` and ``c = 1`` respectively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateCohortError,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientSamplesError,
    InvalidClassCountError,
    InvariantViolationError,
    ScaleSenseError,
    ThresholdOutOfRangeError,
)

MASS_TOLERANCE = 1e-9
"""Absolute slack allowed on probability sums after float arithmetic."""

_REAL = (int, float, np.integer, np.floating)


def strict_int(
    value,
    name: str,
    error: type[ScaleSenseError],
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """Return ``value`` as a Python int, or raise ``error``.

    Accepts ``int`` and numpy integers.  Rejects ``bool`` and every float,
    even an integral one such as ``2.0``, so no value is silently truncated,
    and any value outside the inclusive ``minimum``/``maximum`` bounds given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (minimum is not None and value < minimum) or (
        maximum is not None and value > maximum
    ):
        bounds = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise error(f"{name} must be {bounds}, got {value}")
    return value


def finite_float(value, name: str, error: type[ScaleSenseError]) -> float:
    """Return ``value`` as a finite Python float, or raise ``error``.

    Accepts Python and numpy integers and floats.  Rejects ``bool``,
    strings, ``None``, NaN and values beyond the float range.
    """
    if isinstance(value, _REAL) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise error(f"{name} must be a finite number, got {value!r}")


def finite_floats(values, name: str, error: type[ScaleSenseError]) -> np.ndarray:
    """:func:`finite_float` over a whole sequence, as one float64 array.

    Element types are checked once per distinct type and finiteness in one
    numpy pass, so per-``k`` value types stay cheap inside the sweep.
    """
    if not np.iterable(values):
        raise error(f"{name} must be a sequence of numbers, got {values!r}")
    values = tuple(values)
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, _REAL):
            raise error(f"{name} must be numbers, got a {kind.__name__}")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        raise error(f"{name} must be finite") from None
    if not np.isfinite(array).all():
        raise error(f"{name} must be finite")
    return array


def require_type(value, kind, name: str, error: type = InvariantViolationError):
    """``value``, the argument or field ``name``, if it is an instance of the
    type, or tuple of types, ``kind``; else raise ``error``."""
    if not isinstance(value, kind):
        raise error(f"{name} has unexpected type {type(value).__name__}")
    return value


def require_types(owner, **kinds) -> None:
    """:func:`require_type` on each named field of ``owner``."""
    for name, kind in kinds.items():
        require_type(getattr(owner, name), kind, name)


def _vector(values, kinds: str, name: str) -> np.ndarray:
    """Copy ``values`` into a new 1-D array of a dtype kind in ``kinds`` (any
    when empty), or raise :class:`InvariantViolationError`, also for bools in a
    list that numpy would promote to numbers (ndarrays skip that element scan)."""
    try:
        array = np.array(values, copy=True)
    except (TypeError, ValueError, OverflowError):  # ragged or unconvertible
        array = None
    if (
        array is None or array.ndim != 1 or (array.size and array.dtype.kind not in kinds)
        or (not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, values)))
    ):
        noun = "real numbers" if "f" in kinds else "integers"
        raise InvariantViolationError(f"{name} must be a 1-D sequence of {noun}, not bools")
    return array


class Outcome(IntEnum):
    """Binary reference standard: 1 = condition present, 0 = absent."""

    HEALTHY = 0
    DISEASED = 1


@dataclass(frozen=True, eq=False)
class Cohort:
    """Ordered study sample.

    Attributes
    ----------
    scores:
        Finite float64 risk scores, one per subject, in row order.
    outcomes:
        int64 array of 0/1 labels aligned with ``scores``.  Integer labels
        only: bools, strings and fractions are rejected, not coerced.  So
        are bools mixed into a list of numbers, found by one element scan
        that ndarray inputs skip.
    """

    scores: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        scores = _vector(self.scores, "iuf", "cohort scores").astype(np.float64, copy=False)
        outcomes = _vector(self.outcomes, "iu", "cohort outcomes").astype(np.int64, copy=False)
        if scores.shape[0] != outcomes.shape[0]:
            raise AlignmentError(f"{scores.shape[0]} scores vs {outcomes.shape[0]} outcomes")
        if not np.all(np.isfinite(scores)):
            raise InvariantViolationError("all scores must be finite")
        if outcomes.size and (outcomes.min() < 0 or outcomes.max() > 1):
            raise InvariantViolationError("all outcomes must be 0 or 1")
        scores.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_diseased(self) -> int:
        return int(np.sum(self.outcomes == 1))

    @property
    def n_healthy(self) -> int:
        return len(self) - self.n_diseased


@dataclass(frozen=True)
class PartitionSpec:
    """``k`` ordered classes split by ``k - 1`` upper cut points.

    Boundaries are non-decreasing rather than strictly increasing: with
    tie-heavy scores two quantile ranks can land on the same value, and the
    class squeezed between equal boundaries is simply empty.
    """

    k: int
    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        k = strict_int(self.k, "class count", InvariantViolationError, minimum=1)
        boundaries = finite_floats(self.boundaries, "boundaries", InvariantViolationError)
        if boundaries.size != k - 1:
            raise InvariantViolationError(
                f"expected {k - 1} boundaries for k={k}, got {boundaries.size}"
            )
        if (boundaries[1:] < boundaries[:-1]).any():
            raise InvariantViolationError("boundaries must be non-decreasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "boundaries", tuple(boundaries.tolist()))


@dataclass(frozen=True, eq=False)
class ScaleAssignment:
    """Class index in ``1 .. k`` for each subject, aligned with its cohort."""

    k: int
    class_indices: np.ndarray

    def __post_init__(self) -> None:
        k = strict_int(self.k, "class count", InvariantViolationError, minimum=1)
        idx = _vector(self.class_indices, "iu", "class indices").astype(np.int64, copy=False)
        if idx.size and (idx.min() < 1 or idx.max() > k):
            raise InvariantViolationError(f"class indices must lie in 1..{k}")
        idx.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "class_indices", idx)

    def __len__(self) -> int:
        return int(self.class_indices.shape[0])


@dataclass(frozen=True)
class ConditionalPMF:
    """Class probabilities of the discretized score given one outcome.

    Attributes
    ----------
    probs:
        Probability of each class ``1 .. k``; entries are >= 0 and sum to 1
        within :data:`MASS_TOLERANCE`.
    conditioning_outcome:
        The outcome this distribution conditions on.
    """

    probs: tuple[float, ...]
    conditioning_outcome: Outcome

    def __post_init__(self) -> None:
        array = finite_floats(self.probs, "pmf entries", InvariantViolationError)
        if array.size < 1:
            raise InvariantViolationError("a pmf needs at least one class")
        if (array < 0.0).any():
            raise InvariantViolationError("pmf entries must be non-negative")
        probs = tuple(array.tolist())
        total = math.fsum(probs)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise InvariantViolationError(
                f"pmf mass must be 1 within {MASS_TOLERANCE}, got {total!r}"
            )
        outcome = strict_int(
            self.conditioning_outcome, "conditioning outcome", InvariantViolationError,
            minimum=0, maximum=1,
        )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "conditioning_outcome", Outcome(outcome))

    @property
    def k(self) -> int:
        return len(self.probs)


class ThresholdCriterion(Enum):
    """Cutpoint selection rule applied across candidate thresholds."""

    YOUDEN_J = "youden"
    CLOSEST_TO_TOP_LEFT = "closest-topleft"
    SE_SP_PRODUCT = "se-sp-product"


@dataclass(frozen=True)
class DiagnosticSummary:
    """Selected threshold and its operating characteristics."""

    c: int
    se: float
    sp: float
    criterion_value: float

    def __post_init__(self) -> None:
        c = strict_int(self.c, "threshold index", InvariantViolationError, minimum=1)
        object.__setattr__(self, "c", c)
        for name in ("se", "sp", "criterion_value"):
            value = finite_float(getattr(self, name), name, InvariantViolationError)
            object.__setattr__(self, name, value)
        if not 0.0 <= self.se <= 1.0 or not 0.0 <= self.sp <= 1.0:
            raise InvariantViolationError("se and sp must lie in [0, 1]")


@dataclass(frozen=True)
class ScaleAnalysis:
    """Full single-cohort result: criterion, partition, pmfs, ROC set, chosen cut."""

    criterion: ThresholdCriterion
    partition: PartitionSpec
    pmf_diseased: ConditionalPMF
    pmf_healthy: ConditionalPMF
    roc: tuple[tuple[float, float], ...]
    summary: DiagnosticSummary

    def __post_init__(self) -> None:
        require_types(
            self, criterion=ThresholdCriterion, partition=PartitionSpec,
            pmf_diseased=ConditionalPMF, pmf_healthy=ConditionalPMF, roc=(tuple, list),
            summary=DiagnosticSummary,
        )
        if not all(isinstance(point, (tuple, list)) and len(point) == 2 for point in self.roc):
            raise InvariantViolationError("roc points must be (fpr, tpr) pairs")
        flat = finite_floats(
            itertools.chain.from_iterable(self.roc), "roc points", InvariantViolationError
        ).tolist()
        object.__setattr__(self, "roc", tuple(zip(flat[::2], flat[1::2])))
        k = self.partition.k
        if not k == self.pmf_diseased.k == self.pmf_healthy.k:
            raise InvariantViolationError("partition and pmfs must have the same k")
        if len(self.roc) != k + 1:
            raise InvariantViolationError(f"expected {k + 1} roc points, got {len(self.roc)}")
        if not 1 <= self.summary.c <= k:
            raise InvariantViolationError(f"threshold c={self.summary.c} is not in 1..{k}")


def _tail_sums(probs) -> np.ndarray:
    """Sensitivity at every threshold, per row: ``out[..., c-1] = P(class >= c)``.

    Built by sequential accumulation from the top class down, so the result
    is non-increasing entry by entry in float arithmetic, clipped into
    ``[0, 1]``, with the ``c = 1`` and ``c = k+1`` endpoints exactly 1 and 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + 1,))
    out[..., :-1] = np.minimum(np.cumsum(p[..., ::-1], axis=-1)[..., ::-1], 1.0)
    out[..., 0] = 1.0
    return out


def _head_sums(probs) -> np.ndarray:
    """Specificity at every threshold: ``out[..., c-1] = P(class < c)``."""
    p = np.asarray(probs, dtype=np.float64)
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + 1,))
    out[..., 1:] = np.minimum(np.cumsum(p, axis=-1), 1.0)
    out[..., -1] = 1.0
    return out


def _class_count(cohort: Cohort, k) -> int:
    """Validate ``k`` as a class count for ``cohort`` and return it."""
    require_type(cohort, Cohort, "cohort")
    k = strict_int(k, "class count", InvalidClassCountError, minimum=1)
    if len(cohort) == 0:
        raise EmptyInputError("cannot discretize an empty cohort")
    if k > len(cohort):
        raise InsufficientSamplesError(f"k={k} exceeds cohort size n={len(cohort)}")
    return k


def _require_pmf_pair(pmf_diseased, pmf_healthy) -> None:
    """Check that both arguments are pmfs, of the same class count."""
    require_type(pmf_diseased, ConditionalPMF, "pmf_diseased")
    require_type(pmf_healthy, ConditionalPMF, "pmf_healthy")
    if pmf_diseased.k != pmf_healthy.k:
        raise DimensionMismatchError(
            f"pmf class counts differ: {pmf_diseased.k} vs {pmf_healthy.k}"
        )


def _class_ranks(n: int, k: int) -> np.ndarray:
    """1-based ranks ``ceil(j * n / k)``, ``j = 0 .. k``, among ``n`` sorted
    scores: 0, the ranks of the ``k - 1`` class boundaries, then ``n``."""
    return (np.arange(k + 1) * n + k - 1) // k


def _require_both_groups(n1: int, n0: int) -> None:
    if n1 == 0 or n0 == 0:
        raise DegenerateCohortError(
            f"both outcome groups must be non-empty (n1={n1}, n0={n0})"
        )


def _block_counts(scores, outcomes, class_ranks):
    """Sort each row of ``scores`` in place; return its diseased count and a
    lazy iterator of :func:`_edge_counts` at each of ``class_ranks``.
    ``cum1[:, i]`` holds the diseased among a row's ``i`` smallest scores and
    ``ends[:, j]`` its scores up to the end of rank ``j``'s tie run, in int32
    while ``n < 2**31``.  Neither sort need be stable: tied scores share a
    class, so their order changes no count."""
    n = scores.shape[1]
    dtype = np.int32 if n < 2**31 else np.int64
    cum1, ends = np.zeros((2, scores.shape[0], n + 1), dtype=dtype)
    by_score = np.take_along_axis(outcomes, np.argsort(scores, axis=1), axis=1)
    np.cumsum(by_score, axis=1, out=cum1[:, 1:])
    scores.sort(axis=1)
    ends[:, 1:] = n
    last_of_run = scores[:, :-1] != scores[:, 1:]
    np.copyto(ends[:, 1:-1], np.arange(1, n, dtype=dtype), where=last_of_run)
    np.minimum.accumulate(ends[:, :0:-1], axis=1, out=ends[:, :0:-1])
    return cum1[:, -1].copy(), (_edge_counts(cum1, ends[:, ranks]) for ranks in class_ranks)


def _edge_counts(cum1: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diseased and healthy counts per class and cohort row, checked exactly:
    the kernel of :func:`analyze_cohort` (a block of one row) and the sweep.
    ``edges[r, j]`` counts row ``r``'s sorted scores up to ``boundary_j``
    (classes ``1 .. j``): the tie-run ends of :func:`_block_counts` read at
    the :func:`_class_ranks`."""
    at_edges = cum1[np.arange(len(cum1))[:, None], edges]
    counts1 = at_edges[:, 1:] - at_edges[:, :-1]
    counts0 = edges[:, 1:] - edges[:, :-1] - counts1
    n1 = cum1[:, -1]
    sums_ok = (counts1.sum(axis=1) == n1) & (counts0.sum(axis=1) == cum1.shape[1] - 1 - n1)
    if not sums_ok.all() or min(counts1.min(), counts0.min()) < 0:
        raise InvariantViolationError(f"class counts at k={counts1.shape[1]} do not add up")
    return counts1, counts0


def _pmf_pair(counts1, n1: int, counts0, n0: int) -> tuple[ConditionalPMF, ConditionalPMF]:
    return (
        ConditionalPMF(probs=(counts1 / n1).tolist(), conditioning_outcome=Outcome.DISEASED),
        ConditionalPMF(probs=(counts0 / n0).tolist(), conditioning_outcome=Outcome.HEALTHY),
    )


def discretize(cohort: Cohort, k: int) -> tuple[PartitionSpec, ScaleAssignment]:
    """Bin cohort scores into ``k`` classes at pooled sample quantiles.

    Boundary ``j`` is the sorted pooled score of 1-based rank
    ``ceil(j * n / k)``; a subject lands in the smallest class ``j`` with
    ``score <= boundary_j``, else class ``k``.  Tied scores always share a
    class, so heavy ties can leave interior classes empty.
    """
    k = _class_count(cohort, k)
    boundaries = np.sort(cohort.scores)[_class_ranks(len(cohort), k)[1:-1] - 1]
    indices = 1 + np.searchsorted(boundaries, cohort.scores, side="left")
    spec = PartitionSpec(k=k, boundaries=boundaries.tolist())
    assignment = ScaleAssignment(k=k, class_indices=indices.astype(np.int64))
    return spec, assignment


def estimate_conditional_pmfs(
    assignment: ScaleAssignment, cohort: Cohort
) -> tuple[ConditionalPMF, ConditionalPMF]:
    """Empirical class frequencies within each outcome group.

    Returns ``(pmf_diseased, pmf_healthy)``.
    """
    require_type(assignment, ScaleAssignment, "assignment")
    require_type(cohort, Cohort, "cohort")
    if len(assignment) != len(cohort):
        raise AlignmentError(
            f"{len(assignment)} class indices vs {len(cohort)} cohort rows"
        )
    n1 = cohort.n_diseased
    n0 = len(cohort) - n1
    _require_both_groups(n1, n0)
    k = assignment.k
    idx = assignment.class_indices
    counts1 = np.bincount(idx[cohort.outcomes == 1], minlength=k + 1)[1:]
    counts0 = np.bincount(idx[cohort.outcomes == 0], minlength=k + 1)[1:]
    return _pmf_pair(counts1, n1, counts0, n0)


def sensitivity(pmf: ConditionalPMF, c: int) -> float:
    """Probability of a positive call (class >= ``c``) under ``pmf``.

    Meaningful as sensitivity when ``pmf`` conditions on the diseased
    outcome.  ``c`` may be ``k + 1``, the call-nobody-positive sentinel.
    """
    require_type(pmf, ConditionalPMF, "pmf")
    c = strict_int(c, "threshold", ThresholdOutOfRangeError, minimum=1, maximum=pmf.k + 1)
    return float(_tail_sums(pmf.probs)[c - 1])


def specificity(pmf: ConditionalPMF, c: int) -> float:
    """Probability of a negative call (class < ``c``) under ``pmf``.

    Meaningful as specificity when ``pmf`` conditions on the healthy
    outcome.
    """
    require_type(pmf, ConditionalPMF, "pmf")
    c = strict_int(c, "threshold", ThresholdOutOfRangeError, minimum=1, maximum=pmf.k + 1)
    return float(_head_sums(pmf.probs)[c - 1])


def _criterion_values(
    criterion: ThresholdCriterion, se: np.ndarray, sp: np.ndarray
) -> np.ndarray:
    if criterion is ThresholdCriterion.YOUDEN_J:
        return se + sp - 1.0
    if criterion is ThresholdCriterion.CLOSEST_TO_TOP_LEFT:
        return (1.0 - se) ** 2 + (1.0 - sp) ** 2
    return se * sp  # SE_SP_PRODUCT; the public entries refuse any other criterion


def _best_threshold(probs1, probs0, criterion: ThresholdCriterion) -> tuple:
    """``(c, se, sp, criterion value)`` at the optimal ``c`` of each row of
    class probabilities given each outcome, ties to the smallest ``c``."""
    se = _tail_sums(probs1)[:, :-1]
    sp = _head_sums(probs0)[:, :-1]
    values = _criterion_values(criterion, se, sp)
    pick = np.argmin if criterion is ThresholdCriterion.CLOSEST_TO_TOP_LEFT else np.argmax
    best = pick(values, axis=1)
    rows = np.arange(best.size)
    return best + 1, se[rows, best], sp[rows, best], values[rows, best]


def select_threshold(
    pmf_diseased: ConditionalPMF,
    pmf_healthy: ConditionalPMF,
    criterion: ThresholdCriterion = ThresholdCriterion.YOUDEN_J,
) -> DiagnosticSummary:
    """Pick the criterion-optimal threshold among ``c = 1 .. k``.

    Youden J and the se*sp product are maximized; distance to the ideal
    top-left ROC corner is minimized.  Exact criterion ties resolve to the
    smallest ``c``.
    """
    _require_pmf_pair(pmf_diseased, pmf_healthy)
    require_type(criterion, ThresholdCriterion, "criterion")
    c, se, sp, value = (
        x[0] for x in _best_threshold([pmf_diseased.probs], [pmf_healthy.probs], criterion)
    )
    return DiagnosticSummary(c=c, se=float(se), sp=float(sp), criterion_value=float(value))


def roc_points(
    pmf_diseased: ConditionalPMF, pmf_healthy: ConditionalPMF
) -> list[tuple[float, float]]:
    """``(fpr, tpr)`` at every threshold ``c = 1 .. k+1``, in that order.

    Starts at exactly ``(1, 1)`` and ends at exactly ``(0, 0)``; both
    coordinates are non-increasing along the list.  These points suffice to
    re-derive :func:`select_threshold` for any criterion.
    """
    _require_pmf_pair(pmf_diseased, pmf_healthy)
    se = _tail_sums(pmf_diseased.probs)
    sp = _head_sums(pmf_healthy.probs)
    return list(zip((1.0 - sp).tolist(), se.tolist()))


def analyze_cohort(
    cohort: Cohort,
    k: int,
    criterion: ThresholdCriterion = ThresholdCriterion.YOUDEN_J,
) -> ScaleAnalysis:
    """Run the full pipeline: partition, estimate, select, trace the ROC.

    Partition, pmfs and errors are those of :func:`discretize` and
    :func:`estimate_conditional_pmfs`, counted by the sweep's kernel
    (:func:`_block_counts`) on a block of one row, with int8 outcomes as
    the sweep holds them.
    """
    k = _class_count(cohort, k)
    require_type(criterion, ThresholdCriterion, "criterion")
    n = len(cohort)
    scores = cohort.scores[None].copy()
    ranks = _class_ranks(n, k)
    n1, counts = _block_counts(scores, cohort.outcomes[None].astype(np.int8), [ranks])
    n1 = int(n1[0])
    _require_both_groups(n1, n - n1)
    [(counts1, counts0)] = counts  # exhausted, so the kernel's buffers are freed here
    pmf1, pmf0 = _pmf_pair(counts1[0], n1, counts0[0], n - n1)
    return ScaleAnalysis(
        criterion=criterion,
        partition=PartitionSpec(k=k, boundaries=scores[0, ranks[1:-1] - 1].tolist()),
        pmf_diseased=pmf1,
        pmf_healthy=pmf0,
        roc=tuple(roc_points(pmf1, pmf0)),
        summary=select_threshold(pmf1, pmf0, criterion),
    )
