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

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
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

# float64 cells numpy can size: bounds a cohort's n, a sweep's results and a witness's k
_MAX_CELLS = (2**63 - 1) // 8


def _shown(value) -> str:
    """A caller's ``value`` as an error message shows it: its ``repr`` cut to
    80 characters, or an integer past 128 bits by its bit count."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"a {value.bit_length()}-bit integer"
    try:
        text = repr(value)
    except ValueError:  # it holds an integer past the 4300 digits str prints
        text = f"a {type(value).__name__}"
    return text if len(text) <= 80 else text[:77] + "..."


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
        raise error(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if (minimum is not None and value < minimum) or (maximum is not None and value > maximum):
        bounds = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise error(f"{name} must be {bounds}, got {_shown(value)}")
    return value


def seed_int(value, name: str, error: type[ScaleSenseError]) -> int:
    """:func:`strict_int` over ``0 .. 2**64 - 1``, the seeds ``SeedSequence`` takes."""
    return strict_int(value, name, error, minimum=0, maximum=2**64 - 1)


def vector(values, kind: type, name: str, error: type[ScaleSenseError]) -> np.ndarray:
    """``values`` as a new read-only 1-D array of ``kind``, int64 for ``int``
    and all-finite float64 for ``float``, or raise ``error``.  ``values`` is a
    1-D ndarray, typed by its dtype (any dtype when empty), or a sequence other
    than text, typed once per distinct element type.  Elements are Python or
    numpy integers, or for ``float`` also floats: no bool, text or ``None``."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        kinds = {values.dtype.type} if values.size else set()
        if values.dtype == np.uint64 or not values.size:  # past int64 a list overflows, not wraps
            values = values.tolist()
    elif isinstance(values, Sequence) and not isinstance(values, (str, bytes, bytearray)):
        kinds = set(map(type, values))
    else:
        got = f"{values.ndim}-D array" if isinstance(values, np.ndarray) else type(values).__name__
        raise error(f"{name} must be a 1-D array or a sequence, not a {got}")
    real = kind is float
    allowed = (int, float, np.integer, np.floating) if real else (int, np.integer)
    for element in kinds:
        if issubclass(element, (bool, np.timedelta64)) or not issubclass(element, allowed):
            raise error(f"{name} must be {'real' if real else 'integers'}, not {element.__name__}")
    try:
        with np.errstate(over="ignore"):  # a longdouble past float64's range casts to inf
            array = np.array(values, kind)
    except OverflowError:  # an integer past int64, or past float64's range
        array = None
    if array is None or real and not np.isfinite(array).all():
        raise error(f"{name} must be {'finite' if real else 'within int64'}")
    array.setflags(write=False)
    return array


def finite_float(value, name: str, error: type[ScaleSenseError]) -> float:
    """:func:`vector` of the one ``value``, as a Python float."""
    return float(vector((value,), float, name, error)[0])


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


def finite_fields(owner, error: type[ScaleSenseError], *names: str) -> None:
    """:func:`finite_float` on each named field of the frozen ``owner``, stored back."""
    for name in names:
        object.__setattr__(owner, name, finite_float(getattr(owner, name), name, error))


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
        int64 array of 0/1 labels aligned with ``scores``.

    Both are copied by :func:`vector` from a 1-D ndarray or a list, tuple or
    other sequence of numbers: integer outcomes, real scores.  Bools, text,
    ``None``, fractional outcomes, sets, dicts, iterators and 2-D arrays are
    rejected, not coerced; a list's element types are checked once per
    distinct type, an ndarray's by its dtype.
    """

    scores: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        scores = vector(self.scores, float, "all scores", InvariantViolationError)
        outcomes = vector(self.outcomes, int, "all outcomes", InvariantViolationError)
        if scores.shape[0] != outcomes.shape[0]:
            raise AlignmentError(f"{scores.shape[0]} scores vs {outcomes.shape[0]} outcomes")
        if outcomes.size and (outcomes.min() < 0 or outcomes.max() > 1):
            raise InvariantViolationError("all outcomes must be 0 or 1")
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
    """``k`` ordered classes split by ``k - 1`` upper cut points; ``k`` is derived.

    Boundaries are non-decreasing rather than strictly increasing: with
    tie-heavy scores two quantile ranks can land on the same value, and the
    class squeezed between equal boundaries is simply empty.
    """

    k: int = field(init=False)
    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        boundaries = vector(self.boundaries, float, "boundaries", InvariantViolationError)
        if (boundaries[1:] < boundaries[:-1]).any():
            raise InvariantViolationError("boundaries must be non-decreasing")
        object.__setattr__(self, "k", boundaries.size + 1)
        object.__setattr__(self, "boundaries", tuple(boundaries.tolist()))


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
        array = vector(self.probs, float, "pmf entries", InvariantViolationError)
        if (array < 0.0).any():
            raise InvariantViolationError("pmf entries must be non-negative")
        probs = tuple(array.tolist())
        try:
            total = math.fsum(probs)
        except OverflowError:  # entries whose sum is past float64's range
            total = math.inf
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
        finite_fields(self, InvariantViolationError, "se", "sp", "criterion_value")
        if not 0.0 <= self.se <= 1.0 or not 0.0 <= self.sp <= 1.0:
            raise InvariantViolationError("se and sp must lie in [0, 1]")


@dataclass(frozen=True)
class ScaleAnalysis:
    """Full single-cohort result: criterion, partition, pmfs, and the ROC set
    and chosen cut, which are derived from them."""

    criterion: ThresholdCriterion
    partition: PartitionSpec
    pmf_diseased: ConditionalPMF
    pmf_healthy: ConditionalPMF
    roc: tuple[tuple[float, float], ...] = field(init=False)
    summary: DiagnosticSummary = field(init=False)

    def __post_init__(self) -> None:
        require_types(
            self, criterion=ThresholdCriterion, partition=PartitionSpec,
            pmf_diseased=ConditionalPMF, pmf_healthy=ConditionalPMF,
        )
        pmfs = self.pmf_diseased, self.pmf_healthy
        if not self.partition.k == pmfs[0].k == pmfs[1].k:
            raise InvariantViolationError("partition and pmfs must have the same k")
        if [pmf.conditioning_outcome for pmf in pmfs] != [Outcome.DISEASED, Outcome.HEALTHY]:
            raise InvariantViolationError("pmfs must condition on outcomes 1 and 0, in order")
        object.__setattr__(self, "roc", tuple(roc_points(*pmfs)))
        object.__setattr__(self, "summary", select_threshold(*pmfs, self.criterion))


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
    """Specificity at every threshold: ``out[..., c-1] = P(class < c)``, the
    :func:`_tail_sums` of the classes in reverse order, read back to front."""
    return _tail_sums(np.asarray(probs, dtype=np.float64)[..., ::-1])[..., ::-1]


def _class_count(cohort: Cohort, k) -> int:
    """Validate ``k`` as a class count for ``cohort`` and return it."""
    require_type(cohort, Cohort, "cohort")
    k = strict_int(k, "class count", InvalidClassCountError, minimum=1)
    if len(cohort) == 0:
        raise EmptyInputError("cannot discretize an empty cohort")
    if k > len(cohort):
        raise InsufficientSamplesError(f"k={_shown(k)} exceeds cohort size n={len(cohort)}")
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
        ConditionalPMF(probs=counts1 / n1, conditioning_outcome=Outcome.DISEASED),
        ConditionalPMF(probs=counts0 / n0, conditioning_outcome=Outcome.HEALTHY),
    )


def discretize(cohort: Cohort, k: int) -> PartitionSpec:
    """Split cohort scores into ``k`` classes at pooled sample quantiles:
    boundary ``j`` is the sorted score of 1-based rank ``ceil(j * n / k)``."""
    k = _class_count(cohort, k)
    return PartitionSpec(boundaries=np.sort(cohort.scores)[_class_ranks(len(cohort), k)[1:-1] - 1])


def estimate_conditional_pmfs(
    partition: PartitionSpec, cohort: Cohort
) -> tuple[ConditionalPMF, ConditionalPMF]:
    """``(pmf_diseased, pmf_healthy)``: the class frequencies of ``cohort``
    per outcome under ``partition``, which need not come from ``cohort``.  A
    subject lands in the smallest class ``j`` with ``score <= boundary_j``,
    else class ``k``, so tied scores share a class and heavy ties can leave
    classes empty."""
    require_type(partition, PartitionSpec, "partition")
    require_type(cohort, Cohort, "cohort")
    n1, n0 = cohort.n_diseased, cohort.n_healthy
    _require_both_groups(n1, n0)
    k = partition.k
    classes = np.searchsorted(np.array(partition.boundaries), cohort.scores, side="left")
    counts0, counts1 = np.bincount(cohort.outcomes * k + classes, minlength=2 * k).reshape(2, k)
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
    """``(c, se, sp, criterion value)`` at the optimal ``c`` of each row of class probabilities
    given each outcome, equal float values to the smallest (see :func:`select_threshold`)."""
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
    top-left ROC corner is minimized.  Equal float criterion values resolve
    to the smallest ``c``; values equal in exact arithmetic can differ after
    rounding, and then a larger ``c`` can win.
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
        partition=PartitionSpec(boundaries=scores[0, ranks[1:-1] - 1]),
        pmf_diseased=pmf1,
        pmf_healthy=pmf0,
    )
