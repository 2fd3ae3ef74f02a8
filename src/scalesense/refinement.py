"""Mass-shaving refinement of class PMFs and sensitivity monotonicity.

A ``k``-class pmf is refined to ``k + 1`` classes by shaving mass
``deltas[i]`` out of each class ``i`` and pooling the shaved mass into one
appended class.  With thresholds ``c`` on the base scale and ``c'`` on the
refined scale, sensitivity cannot drop as long as ``c <= c'`` and the base
mass sitting between the two thresholds is covered by the shaved mass drawn
from below ``c'`` (the mass-control condition).  Outside those conditions a
drop is possible; :func:`search_counterexample` derives the first explicit
witness on a rational grid in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from .core import MASS_TOLERANCE, ConditionalPMF, Outcome, finite_fields, finite_float
from .core import require_type, require_types, sensitivity, strict_int, vector
from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidClassCountError,
    InvalidDeltaError,
    InvariantViolationError,
    NegativeProbabilityError,
    NotCoveredError,
)


class VerdictStatus(Enum):
    """Outcome of checking one refinement against the monotonicity claim."""

    HOLDS = "holds"
    VIOLATED = "violated"
    ASSUMPTION_FAILED = "assumption_failed"
    INVALID_DELTAS = "invalid_deltas"
    NOT_COVERED = "not_covered_by_theorem"


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Verdict plus the two sensitivities it compared."""

    status: VerdictStatus
    se_base: float
    se_refined: float

    def __post_init__(self) -> None:
        require_types(self, status=VerdictStatus)
        finite_fields(self, InvariantViolationError, "se_base", "se_refined")


@dataclass(frozen=True)
class RefinementWitness:
    """One concrete refinement scenario.

    Attributes
    ----------
    base:
        The ``k``-class pmf being refined.
    deltas:
        Mass shaved from each base class; the constructor is research mode,
        so they may be negative (see :func:`apply_refinement`); :meth:`build`
        applies the strict delta checks first.
    c, c_prime:
        Positive thresholds on the base (``1 <= c <= k``) and refined
        (``1 <= c_prime <= k + 1``) scales.
    """

    base: ConditionalPMF
    deltas: tuple[float, ...]
    c: int
    c_prime: int

    def __post_init__(self) -> None:
        deltas = vector(self.deltas, float, "deltas", InvalidDeltaError)
        object.__setattr__(self, "deltas", tuple(deltas.tolist()))
        k = self.refined.k - 1
        c = strict_int(self.c, "c", InvariantViolationError, minimum=1, maximum=k)
        c_prime = strict_int(
            self.c_prime, "c_prime", InvariantViolationError, minimum=1, maximum=k + 1
        )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_prime", c_prime)

    @cached_property
    def refined(self) -> ConditionalPMF:
        """The ``k + 1``-class pmf: class ``i <= k`` holds ``base[i] -
        deltas[i]`` and class ``k + 1`` the shaved total.  Derived once, at
        construction, which fails wherever :func:`apply_refinement` does."""
        return apply_refinement(self.base, self.deltas, validate_deltas=False)

    @classmethod
    def build(
        cls, base: ConditionalPMF, deltas: tuple[float, ...], c: int, c_prime: int
    ) -> "RefinementWitness":
        """The witness of ``base`` and ``deltas`` once they pass
        :func:`apply_refinement`'s strict checks ``0 <= deltas[i] <= base[i]``."""
        apply_refinement(base, deltas)
        return cls(base=base, deltas=deltas, c=c, c_prime=c_prime)


def apply_refinement(
    base: ConditionalPMF,
    deltas: tuple[float, ...],
    validate_deltas: bool = True,
) -> ConditionalPMF:
    """Shave ``deltas`` off the base classes and pool them into a new class.

    With ``validate_deltas`` (the default) each delta must satisfy
    ``0 <= deltas[i] <= base.probs[i]``.  Research mode drops the
    non-negativity requirement so deliberately malformed refinements can be
    studied, but the refined vector must still be a valid pmf.
    """
    require_type(base, ConditionalPMF, "base")
    require_type(validate_deltas, bool, "validate_deltas")
    deltas = tuple(vector(deltas, float, "deltas", InvalidDeltaError).tolist())
    if len(deltas) != base.k:
        raise DimensionMismatchError(
            f"expected {base.k} deltas, got {len(deltas)}"
        )
    if validate_deltas and (fault := _delta_fault(base.probs, deltas)):
        raise InvalidDeltaError(fault)
    kept = tuple(p - d for p, d in zip(base.probs, deltas))
    shaved = math.fsum(deltas)
    if any(q < -MASS_TOLERANCE for q in kept) or shaved < -MASS_TOLERANCE:
        raise NegativeProbabilityError(
            "refinement would drive a class probability below zero"
        )
    # Mixed-sign deltas can leave a rounding residue like -1e-17 where the
    # exact sum is zero; clamp it rather than reject the whole refinement.
    kept = tuple(max(q, 0.0) for q in kept)
    shaved = max(shaved, 0.0)
    return ConditionalPMF(
        probs=kept + (shaved,),
        conditioning_outcome=base.conditioning_outcome,
    )


def _delta_fault(probs, deltas) -> Optional[str]:
    """The first ``deltas[i]`` outside ``[0, probs[i]]``, described, or None."""
    for i, (p, d) in enumerate(zip(probs, deltas)):
        if not 0.0 <= d <= p:
            return f"delta {i + 1} = {d!r} lies outside [0, {p!r}]"
    return None


def check_mass_control(witness: RefinementWitness) -> bool:
    """Does the shaved mass below ``c'`` cover the base mass in ``[c, c')``?

    This is the control condition under which sensitivity monotonicity is
    guaranteed for ``c <= c'``, compared with :data:`MASS_TOLERANCE` of
    slack.  Requires ``c <= c_prime``; the case ``c > c_prime`` is outside
    the guarantee.
    """
    require_type(witness, RefinementWitness, "witness")
    if witness.c > witness.c_prime:
        raise NotCoveredError(
            f"c={witness.c} > c_prime={witness.c_prime} is not covered"
        )
    between = math.fsum(witness.base.probs[witness.c - 1 : witness.c_prime - 1])
    shaved_below = math.fsum(witness.deltas[: witness.c_prime - 1])
    return between <= shaved_below + MASS_TOLERANCE


def verify_monotonicity(witness: RefinementWitness) -> MonotonicityVerdict:
    """Compare base and refined sensitivity and classify the scenario.

    The status ladder is checked in order: malformed deltas, threshold pair
    outside the guarantee, mass-control failure, then the actual
    sensitivity comparison (``holds`` or ``violated``).  Sensitivities are
    reported in every case.
    """
    require_type(witness, RefinementWitness, "witness")
    se_base = sensitivity(witness.base, witness.c)
    se_refined = sensitivity(witness.refined, witness.c_prime)
    if _delta_fault(witness.base.probs, witness.deltas):
        status = VerdictStatus.INVALID_DELTAS
    elif witness.c > witness.c_prime:
        status = VerdictStatus.NOT_COVERED
    elif not check_mass_control(witness):
        status = VerdictStatus.ASSUMPTION_FAILED
    # Two slacks of MASS_TOLERANCE each: the control's own, and the mass error a
    # ConditionalPMF admits, which sensitivity's endpoint pinned at 1 hides.
    elif se_refined >= se_base - 2 * MASS_TOLERANCE:
        status = VerdictStatus.HOLDS
    else:
        status = VerdictStatus.VIOLATED
    return MonotonicityVerdict(status=status, se_base=se_base, se_refined=se_refined)


def search_counterexample(
    k: int,
    grid_step: float,
    allow_negative_deltas: bool = False,
    enforce_assumption: bool = True,
) -> Optional[RefinementWitness]:
    """Find the first sensitivity drop on a rational grid.

    Base pmfs and deltas range over multiples of ``grid_step``; thresholds
    range over ``1 <= c <= k`` and ``c <= c' <= k + 1``.  Returns the first
    witness (in lexicographic order over base, deltas, c, c') whose refined
    sensitivity is strictly below its base sensitivity, or ``None`` when the
    whole grid is clean.

    ``enforce_assumption`` keeps only scenarios passing the mass-control
    condition; ``allow_negative_deltas`` additionally admits negative
    shavings (mass moved down-scale) whose total is not negative.

    No grid point is visited.  For ``c <= c'`` the refinement definition
    gives ``se(refined, c') - se(base, c) = sum(deltas[:c'-1]) -
    sum(base[c-1:c'-1])``, the mass-control margin, so an enforced
    condition leaves the grid clean.  Otherwise the lex-first base
    ``(0, ..., 0, 1)`` drops at ``c = 1``: with its lex-first deltas, all
    zero, first at ``c' = k + 1``; with negative deltas, whose lex-first
    admissible vector is ``(-1, 0, ..., 0, 1)``, already at ``c' = 2``.
    """
    k = strict_int(k, "class count", InvalidClassCountError, minimum=2)
    require_type(allow_negative_deltas, bool, "allow_negative_deltas")
    require_type(enforce_assumption, bool, "enforce_assumption")
    grid_step = finite_float(grid_step, "grid step", EmptyGridError)
    if not 0.0 < grid_step <= 0.5:
        raise EmptyGridError(f"grid step must lie in (0, 0.5], got {grid_step!r}")
    ratio = 1.0 / grid_step
    units = round(ratio) if math.isfinite(ratio) else 0
    if abs(units * grid_step - 1.0) > MASS_TOLERANCE:
        raise EmptyGridError(
            f"grid step {grid_step!r} does not evenly divide the unit interval"
        )
    if enforce_assumption:
        return None

    one = units * grid_step
    zeros = (0.0,) * (k - 1)
    if allow_negative_deltas:
        deltas, c_prime = (-one,) + zeros[1:] + (one,), 2
    else:
        deltas, c_prime = (0.0,) * k, k + 1
    base = ConditionalPMF(probs=zeros + (one,), conditioning_outcome=Outcome.DISEASED)
    return RefinementWitness(base=base, deltas=deltas, c=1, c_prime=c_prime)
