import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesense import (
    ConditionalPMF,
    DimensionMismatchError,
    EmptyGridError,
    InvalidClassCountError,
    InvalidDeltaError,
    InvariantViolationError,
    MASS_TOLERANCE,
    NegativeProbabilityError,
    NotCoveredError,
    Outcome,
    RefinementWitness,
    VerdictStatus,
    apply_refinement,
    check_mass_control,
    search_counterexample,
    sensitivity,
    verify_monotonicity,
)
from conftest import refinement_inputs


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_counterexample(
    k, grid_step, allow_negative_deltas=False, enforce_assumption=True
):
    """Reference search: enumerate every grid point in lexicographic order
    over base, deltas, c, c' on integer grid units and return the first
    witness whose refined sensitivity drops, or ``None``."""
    units = round(1.0 / grid_step)
    for base_units in _compositions(units, k):
        delta_ranges = [
            range(b - units, b + 1) if allow_negative_deltas else range(0, b + 1)
            for b in base_units
        ]
        for delta_units in itertools.product(*delta_ranges):
            shaved = sum(delta_units)
            if shaved < 0:
                continue
            refined_units = tuple(
                b - d for b, d in zip(base_units, delta_units)
            ) + (shaved,)
            for c in range(1, k + 1):
                base_tail = sum(base_units[c - 1 :])
                for c_prime in range(c, k + 2):
                    if enforce_assumption:
                        between = sum(base_units[c - 1 : c_prime - 1])
                        covered = sum(delta_units[: c_prime - 1])
                        if between > covered:
                            continue
                    if sum(refined_units[c_prime - 1 :]) < base_tail:
                        base_pmf = ConditionalPMF(
                            probs=tuple(u * grid_step for u in base_units),
                            conditioning_outcome=Outcome.DISEASED,
                        )
                        return RefinementWitness(
                            base=base_pmf,
                            deltas=tuple(u * grid_step for u in delta_units),
                            c=c,
                            c_prime=c_prime,
                        )
    return None


def witness(base_probs, deltas, c, c_prime, validate=True):
    base = ConditionalPMF(probs=base_probs, conditioning_outcome=Outcome.DISEASED)
    make = RefinementWitness.build if validate else RefinementWitness
    return make(base=base, deltas=deltas, c=c, c_prime=c_prime)


def near_tolerance_witnesses(seed, count):
    """``count`` valid witnesses, ``c <= c'``, whose pmf mass falls short of 1
    by up to MASS_TOLERANCE and whose base mass in ``[c, c')`` is up to
    MASS_TOLERANCE when the rest of the mass fits outside it; ``c = 1``, where
    sensitivity is pinned at 1, in about half of them."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        k = int(rng.integers(2, 7))
        c = 1 if rng.random() < 0.5 else int(rng.integers(1, k + 1))
        c_prime = int(rng.integers(c, k + 2))
        between = list(range(c - 1, min(c_prime - 1, k)))
        probs = np.zeros(k)
        if between:
            probs[between] = rng.dirichlet(np.ones(len(between))) * rng.uniform(0, MASS_TOLERANCE)
        outside = [i for i in range(k) if i not in between] or between
        probs[rng.choice(outside)] += 1.0 - rng.uniform(0, MASS_TOLERANCE) - probs.sum()
        deltas = probs * rng.uniform(0, 1, k) * (rng.random(k) < 0.3)
        try:
            base = ConditionalPMF(probs=probs.tolist(), conditioning_outcome=Outcome.DISEASED)
        except InvariantViolationError:  # float rounding took the mass past the tolerance
            continue
        made += 1
        yield RefinementWitness.build(base, deltas.tolist(), c, c_prime)


class TestApplyRefinement:
    def test_shaves_mass_into_appended_class(self):
        base = ConditionalPMF((0.6, 0.4), Outcome.DISEASED)
        refined = apply_refinement(base, (0.1, 0.2))
        assert refined.k == 3
        assert refined.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert refined.probs[1] == pytest.approx(0.2, abs=1e-15)
        assert refined.probs[2] == pytest.approx(0.3, abs=1e-15)
        assert refined.conditioning_outcome is Outcome.DISEASED

    def test_zero_deltas_keep_the_distribution(self):
        base = ConditionalPMF((0.25, 0.75), Outcome.HEALTHY)
        refined = apply_refinement(base, (0.0, 0.0))
        assert refined.probs == (0.25, 0.75, 0.0)

    def test_full_shave_moves_everything(self):
        base = ConditionalPMF((0.6, 0.4), Outcome.DISEASED)
        refined = apply_refinement(base, (0.6, 0.4))
        assert refined.probs[:2] == (0.0, 0.0)
        assert refined.probs[2] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_delta_when_validating(self):
        base = ConditionalPMF((0.6, 0.4), Outcome.DISEASED)
        with pytest.raises(InvalidDeltaError):
            apply_refinement(base, (-0.1, 0.2))

    def test_rejects_delta_exceeding_class_mass(self):
        base = ConditionalPMF((0.6, 0.4), Outcome.DISEASED)
        with pytest.raises(InvalidDeltaError):
            apply_refinement(base, (0.7, 0.0))

    def test_rejects_wrong_delta_count(self):
        base = ConditionalPMF((0.6, 0.4), Outcome.DISEASED)
        with pytest.raises(DimensionMismatchError):
            apply_refinement(base, (0.1,))

    def test_research_mode_allows_negative_deltas(self):
        base = ConditionalPMF((0.2, 0.8), Outcome.DISEASED)
        refined = apply_refinement(base, (-0.3, 0.5), validate_deltas=False)
        assert refined.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert refined.probs[1] == pytest.approx(0.3, abs=1e-15)
        assert refined.probs[2] == pytest.approx(0.2, abs=1e-15)

    def test_research_mode_still_requires_a_valid_pmf(self):
        base = ConditionalPMF((0.2, 0.8), Outcome.DISEASED)
        with pytest.raises(NegativeProbabilityError):
            apply_refinement(base, (0.5, 0.0), validate_deltas=False)
        with pytest.raises(NegativeProbabilityError):  # a pooled mass past float64's range
            apply_refinement(base, (1e308, 1e308), validate_deltas=False)

    @given(refinement_inputs())
    @settings(max_examples=200, deadline=None)
    def test_mass_is_conserved(self, inputs):
        base, deltas = inputs
        refined = apply_refinement(base, deltas)
        assert abs(math.fsum(refined.probs) - 1.0) <= 1e-9
        assert refined.probs[-1] == pytest.approx(math.fsum(deltas), abs=1e-9)


class TestWitnessInvariants:
    def test_deltas_whose_pool_overflows_are_a_negative_probability(self):
        base = ConditionalPMF((0.5, 0.5), Outcome.DISEASED)
        with pytest.raises(NegativeProbabilityError) as excinfo:
            RefinementWitness(base, (-1e308, -1e308), 1, 2)
        assert excinfo.value.code == "negative-probability"

    @pytest.mark.parametrize("value", [None, "x", 1.5, object(), 1, np.True_])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: search_counterexample(2, 0.5, allow_negative_deltas=v),
            lambda v: search_counterexample(2, 0.5, enforce_assumption=v),
            lambda v: apply_refinement(
                ConditionalPMF((0.6, 0.4), Outcome.DISEASED), (0.1, 0.2), validate_deltas=v
            ),
        ],
        ids=["allow_negative_deltas", "enforce_assumption", "validate_deltas"],
    )
    def test_flags_must_be_bools(self, call, value):
        with pytest.raises(InvariantViolationError, match="unexpected type"):
            call(value)

    def test_thresholds_must_be_in_range(self):
        with pytest.raises(InvariantViolationError):
            witness((0.6, 0.4), (0.1, 0.2), c=0, c_prime=2)
        with pytest.raises(InvariantViolationError):
            witness((0.6, 0.4), (0.1, 0.2), c=3, c_prime=2)
        with pytest.raises(InvariantViolationError):
            witness((0.6, 0.4), (0.1, 0.2), c=1, c_prime=4)

    @pytest.mark.parametrize("field", ["c", "c_prime"])
    def test_thresholds_are_not_truncated(self, field):
        thresholds = {"c": 1, "c_prime": 2, field: 1.7}
        with pytest.raises(InvariantViolationError) as excinfo:
            witness((0.6, 0.4), (0.1, 0.2), **thresholds)
        assert excinfo.value.code == "invariant-violation"


class TestMassControl:
    def test_equal_thresholds_always_pass(self):
        w = witness((0.6, 0.4), (0.1, 0.2), c=2, c_prime=2)
        assert check_mass_control(w) is True

    def test_uncovered_between_mass_fails(self):
        w = witness((0.6, 0.4), (0.1, 0.2), c=1, c_prime=2)
        assert check_mass_control(w) is False

    def test_exact_boundary_equality_passes(self):
        w = witness((0.05, 0.95), (0.05, 0.0), c=1, c_prime=2)
        assert check_mass_control(w) is True

    def test_reversed_thresholds_are_not_covered(self):
        w = witness((0.6, 0.4), (0.1, 0.2), c=2, c_prime=1)
        with pytest.raises(NotCoveredError):
            check_mass_control(w)

    def test_agrees_with_exact_arithmetic_on_a_tenths_grid(self):
        """Every witness at k=3 with base and deltas in tenths, built as
        ``units / 10``, against the condition in exact rationals."""
        disagree = checked = 0
        for base_units in _compositions(10, 3):
            base = ConditionalPMF(tuple(u / 10 for u in base_units), Outcome.DISEASED)
            for delta_units in itertools.product(*(range(b + 1) for b in base_units)):
                deltas = tuple(u / 10 for u in delta_units)
                for c in range(1, 4):
                    for c_prime in range(c, 5):
                        exact = sum(base_units[c - 1 : c_prime - 1]) <= sum(
                            delta_units[: c_prime - 1]
                        )
                        w = RefinementWitness(base=base, deltas=deltas, c=c, c_prime=c_prime)
                        disagree += check_mass_control(w) != exact
                        checked += 1
        assert (checked, disagree) == (27027, 0)


class TestVerifyMonotonicity:
    def test_identity_refinement_holds_with_equal_sensitivity(self):
        w = witness((0.3, 0.7), (0.0, 0.0), c=2, c_prime=2)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.HOLDS
        assert verdict.se_base == verdict.se_refined == 0.7

    def test_covered_refinement_holds(self):
        w = witness((0.6, 0.4), (0.1, 0.2), c=2, c_prime=2)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.HOLDS
        assert verdict.se_base == pytest.approx(0.4, abs=1e-12)
        assert verdict.se_refined == pytest.approx(0.5, abs=1e-12)

    def test_failed_mass_control_is_reported(self):
        w = witness((0.6, 0.4), (0.1, 0.2), c=1, c_prime=2)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.ASSUMPTION_FAILED
        assert verdict.se_base == 1.0

    def test_negative_deltas_are_flagged_not_raised(self):
        w = witness((0.2, 0.8), (-0.3, 0.5), c=1, c_prime=2, validate=False)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.INVALID_DELTAS
        # the sensitivity drop is still visible in the reported numbers
        assert verdict.se_base == 1.0
        assert verdict.se_refined < 1.0

    def test_reversed_thresholds_report_not_covered(self):
        w = witness((0.6, 0.4), (0.0, 0.0), c=2, c_prime=1)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.NOT_COVERED

    @given(refinement_inputs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_never_violated_when_covered(self, inputs, data):
        base, deltas = inputs
        c = data.draw(st.integers(1, base.k))
        c_prime = data.draw(st.integers(c, base.k + 1))
        w = RefinementWitness.build(base, deltas, c, c_prime)
        verdict = verify_monotonicity(w)
        assert verdict.status in (
            VerdictStatus.HOLDS,
            VerdictStatus.ASSUMPTION_FAILED,
        )
        if verdict.status is VerdictStatus.HOLDS:
            assert verdict.se_refined >= verdict.se_base - 2 * MASS_TOLERANCE

    def test_a_pmf_short_of_mass_at_the_pinned_endpoint_holds(self):
        """se(base, 1) is pinned at 1 although this pmf's mass is
        0.9999999999999999, and the base mass between the thresholds is just
        under MASS_TOLERANCE: together the drop exceeds one tolerance."""
        w = witness((0.0, 0.0, 9.99999999e-10, 0.0, 0.0, 0.9999999989999999), (0.0,) * 6, 1, 4)
        assert check_mass_control(w)
        verdict = verify_monotonicity(w)
        assert verdict.se_base - verdict.se_refined > MASS_TOLERANCE
        assert verdict.status is VerdictStatus.HOLDS

    @pytest.mark.parametrize("seed", [0, 1])
    def test_covered_witnesses_near_the_tolerance_are_never_violated(self, seed):
        statuses = Counter(
            verify_monotonicity(w).status for w in near_tolerance_witnesses(seed, 10_000)
        )
        assert set(statuses) <= {VerdictStatus.HOLDS, VerdictStatus.ASSUMPTION_FAILED}
        assert statuses[VerdictStatus.HOLDS] > 5_000

    @given(refinement_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_thresholds_never_need_the_control(self, inputs, data):
        # with c' = c and valid deltas the guarantee needs no side condition
        base, deltas = inputs
        c = data.draw(st.integers(1, base.k))
        w = RefinementWitness.build(base, deltas, c, c)
        verdict = verify_monotonicity(w)
        assert verdict.status is VerdictStatus.HOLDS

    @given(refinement_inputs(min_k=2, max_k=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_chained_refinements_stay_monotone(self, inputs, data):
        base, deltas = inputs
        c = data.draw(st.integers(1, base.k))
        first = RefinementWitness.build(base, deltas, c, c)
        assert verify_monotonicity(first).status is VerdictStatus.HOLDS
        mid = first.refined
        fractions = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=mid.k, max_size=mid.k)
        )
        second_deltas = tuple(f * p for f, p in zip(fractions, mid.probs))
        second = RefinementWitness.build(mid, second_deltas, c, c)
        assert verify_monotonicity(second).status is VerdictStatus.HOLDS
        assert sensitivity(second.refined, c) >= sensitivity(base, c) - 1e-9


class TestSearchCounterexample:
    def test_clean_grid_under_validation_and_control(self):
        assert search_counterexample(2, 0.1) is None

    def test_clean_grid_for_three_classes(self):
        assert search_counterexample(3, 0.1) is None

    def test_clean_grid_even_with_negative_deltas_when_controlled(self):
        assert (
            search_counterexample(2, 0.1, allow_negative_deltas=True) is None
        )

    def test_negative_deltas_without_control_break_monotonicity(self):
        found = search_counterexample(
            2, 0.1, allow_negative_deltas=True, enforce_assumption=False
        )
        assert found is not None
        assert found.base.probs == (0.0, 1.0)
        assert found.deltas == (-1.0, 1.0)
        assert (found.c, found.c_prime) == (1, 2)
        verdict = verify_monotonicity(found)
        assert verdict.se_base == 1.0
        assert verdict.se_refined == 0.0

    def test_uncontrolled_thresholds_break_even_with_valid_deltas(self):
        found = search_counterexample(
            2, 0.1, allow_negative_deltas=False, enforce_assumption=False
        )
        assert found is not None
        assert found.base.probs == (0.0, 1.0)
        assert found.deltas == (0.0, 0.0)
        assert (found.c, found.c_prime) == (1, 3)
        assert sensitivity(found.base, 1) == 1.0
        assert sensitivity(found.refined, 3) == 0.0

    def test_accepts_a_numpy_integer_class_count(self):
        assert search_counterexample(np.int64(3), 0.5) is None

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_rejects_a_non_integer_class_count(self, k):
        with pytest.raises(InvalidClassCountError) as excinfo:
            search_counterexample(k, 0.5)
        assert excinfo.value.code == "invalid-class-count"

    @pytest.mark.parametrize("enforce_assumption", [True, False])
    @pytest.mark.parametrize("k", [10**21, 2**61, 2**63])
    def test_rejects_more_classes_than_numpy_can_size(self, k, enforce_assumption):
        """Refused by the bound before anything is allocated."""
        with pytest.raises(InvalidClassCountError) as excinfo:
            search_counterexample(k, 0.5, enforce_assumption=enforce_assumption)
        assert excinfo.value.code == "invalid-class-count"

    @pytest.mark.parametrize("allow_negative_deltas", [False, True])
    def test_a_witness_no_machine_can_hold_is_an_invalid_class_count(self, allow_negative_deltas):
        """Within the bound, but its first tuple needs 2**62 bytes, past any
        64-bit address space, so the allocation fails at once."""
        with pytest.raises(InvalidClassCountError) as excinfo:
            search_counterexample(
                2**59, 0.5, allow_negative_deltas=allow_negative_deltas, enforce_assumption=False
            )
        assert excinfo.value.code == "invalid-class-count"

    def test_requires_at_least_two_classes(self):
        with pytest.raises(InvalidClassCountError):
            search_counterexample(1, 0.1)

    def test_rejects_non_divisor_grid_step(self):
        with pytest.raises(EmptyGridError):
            search_counterexample(2, 0.3)

    def test_rejects_out_of_range_grid_step(self):
        with pytest.raises(EmptyGridError):
            search_counterexample(2, 0.6)
        with pytest.raises(EmptyGridError):
            search_counterexample(2, 0.0)
        with pytest.raises(EmptyGridError) as excinfo:
            search_counterexample(2, 5e-324)
        assert excinfo.value.code == "empty-grid"
        with pytest.raises(EmptyGridError):  # float() overflows; its repr would exceed 4300 digits
            search_counterexample(2, 10**5000)

    @pytest.mark.parametrize(
        "k, grid_step",
        [(k, step) for k in (2, 3) for step in (0.5, 0.25, 0.1)]
        + [(4, 0.5), (4, 0.25)],
    )
    @pytest.mark.parametrize("allow_negative_deltas", [False, True])
    @pytest.mark.parametrize("enforce_assumption", [True, False])
    def test_matches_the_brute_force_search(
        self, k, grid_step, allow_negative_deltas, enforce_assumption
    ):
        flags = dict(
            allow_negative_deltas=allow_negative_deltas,
            enforce_assumption=enforce_assumption,
        )
        expected = brute_force_counterexample(k, grid_step, **flags)
        found = search_counterexample(k, grid_step, **flags)
        if expected is None:
            assert found is None
            return
        assert found is not None
        assert found.base == expected.base
        assert found.deltas == expected.deltas
        assert found.refined == expected.refined
        assert (found.c, found.c_prime) == (expected.c, expected.c_prime)

    def test_many_classes_return_the_first_witness(self):
        found = search_counterexample(2000, 0.5, enforce_assumption=False)
        assert found is not None
        assert found.base.probs == (0.0,) * 1999 + (1.0,)
        assert found.deltas == (0.0,) * 2000
        assert (found.c, found.c_prime) == (1, 2001)
        verdict = verify_monotonicity(found)
        assert verdict.se_base == 1.0
        assert verdict.se_refined == 0.0
