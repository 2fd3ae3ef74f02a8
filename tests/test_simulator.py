import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import scalesense.simulate as simulate
from scalesense import (
    CohortSpec,
    DegenerateCohortError,
    EmptyExperimentError,
    InvalidClassCountError,
    InvariantViolationError,
    ScaleSenseError,
    SpecValidationError,
    ThresholdCriterion,
    discretize,
    estimate_conditional_pmfs,
    generate_cohort,
    replication_seed,
    run_partition_sweep,
    select_threshold,
)


def reference_sweep(spec, k_values, reps, criterion):
    """The sweep as it ran before the counting kernel: one
    discretize -> estimate_conditional_pmfs -> select_threshold pass per
    replication and ``k``, aggregated per column."""
    se = np.empty((reps, len(k_values)))
    sp = np.empty((reps, len(k_values)))
    cc = np.empty((reps, len(k_values)))
    for r in range(reps):
        cohort = generate_cohort(replace(spec, seed=replication_seed(spec.seed, r)))
        for j, k in enumerate(k_values):
            _, assignment = discretize(cohort, k)
            summary = select_threshold(*estimate_conditional_pmfs(assignment, cohort), criterion)
            se[r, j], sp[r, j], cc[r, j] = summary.se, summary.sp, summary.c
    return [
        (k, np.mean(se[:, j]), np.std(se[:, j]), np.mean(sp[:, j]), np.std(sp[:, j]),
         np.mean(cc[:, j]))
        for j, k in enumerate(k_values)
    ]


def spec(**overrides):
    params = dict(
        n=400, prevalence=0.3, mu_healthy=0.0, mu_diseased=1.0, sigma=1.0, seed=42
    )
    params.update(overrides)
    return CohortSpec(**params)


class TestCohortSpec:
    def test_rejects_tiny_cohorts(self):
        with pytest.raises(SpecValidationError):
            spec(n=1)

    @pytest.mark.parametrize("prevalence", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_degenerate_prevalence(self, prevalence):
        with pytest.raises(SpecValidationError):
            spec(prevalence=prevalence)

    def test_rejects_non_separated_means(self):
        with pytest.raises(SpecValidationError):
            spec(mu_healthy=1.0, mu_diseased=1.0)
        with pytest.raises(SpecValidationError):
            spec(mu_healthy=2.0, mu_diseased=1.0)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(SpecValidationError):
            spec(sigma=0.0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(SpecValidationError):
            spec(seed=-1)
        with pytest.raises(SpecValidationError):
            spec(seed=2**64)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 5.9), ("n", 6.0), ("seed", True), ("seed", 1.9), ("sigma", "1"),
         ("sigma", 10**400), ("sigma", np.float32("inf")),
         ("mu_healthy", float("nan"))],
    )
    def test_rejects_values_that_would_be_coerced(self, field, value):
        with pytest.raises(SpecValidationError) as excinfo:
            spec(**{field: value})
        assert excinfo.value.code == "spec-validation-error"

    @pytest.mark.parametrize(
        "field, value",
        [("n", 2**62), ("n", 10**5000), ("seed", 10**5000), ("sigma", 10**5000)],
        ids=["n-past-numpy", "n-past-digit-limit", "seed-past-digit-limit", "sigma-past-digits"],
    )
    def test_rejects_values_numpy_or_json_cannot_hold(self, field, value):
        with pytest.raises(SpecValidationError) as excinfo:
            spec(**{field: value})
        assert excinfo.value.code == "spec-validation-error"

    def test_accepts_the_largest_array_numpy_can_size(self):
        assert spec(n=(2**63 - 1) // 8).n == 2**60 - 1

    def test_accepts_numpy_scalars(self):
        made = spec(n=np.int64(50), seed=np.uint64(7), sigma=np.float32(0.5))
        assert (type(made.n), type(made.seed), type(made.sigma)) == (int, int, float)


class TestGenerateCohort:
    def test_same_spec_gives_identical_cohorts(self):
        a = generate_cohort(spec())
        b = generate_cohort(spec())
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_different_seeds_give_different_cohorts(self):
        a = generate_cohort(spec(seed=1))
        b = generate_cohort(spec(seed=2))
        assert not np.array_equal(a.scores, b.scores)

    def test_group_means_approach_their_targets(self):
        cohort = generate_cohort(spec(n=10_000, seed=7))
        diseased = cohort.scores[cohort.outcomes == 1]
        healthy = cohort.scores[cohort.outcomes == 0]
        assert abs(diseased.mean() - 1.0) <= 4.0 / np.sqrt(diseased.size)
        assert abs(healthy.mean() - 0.0) <= 4.0 / np.sqrt(healthy.size)
        prevalence = cohort.n_diseased / len(cohort)
        assert abs(prevalence - 0.3) <= 4.0 * np.sqrt(0.3 * 0.7 / len(cohort))

    def test_a_cohort_the_machine_cannot_hold_is_a_spec_error(self):
        # 2**59 float64 scores are 4 EiB: inside the size bound, and refused by
        # numpy's allocator at once, without touching memory.
        with pytest.raises(SpecValidationError, match="cannot allocate") as excinfo:
            generate_cohort(spec(n=2**59))
        assert excinfo.value.code == "spec-validation-error"


class TestReplicationSeeds:
    def test_derivation_is_deterministic(self):
        assert replication_seed(42, 17) == replication_seed(42, 17)

    def test_children_are_pairwise_distinct(self):
        seeds = [replication_seed(42, r) for r in range(1000)]
        assert len(set(seeds)) == len(seeds)

    def test_children_differ_across_masters(self):
        assert replication_seed(1, 0) != replication_seed(2, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: generate_cohort(None),
        lambda: run_partition_sweep(None),
        lambda: run_partition_sweep({"n": 10}, k_values=(2,), reps=1),
        lambda: replication_seed("x", 0),
        lambda: replication_seed(1.5, 0),
        lambda: replication_seed(-1, 0),
        lambda: replication_seed(2**64, 0),
        lambda: replication_seed(None, 0),
        lambda: replication_seed(0, "x"),
        lambda: replication_seed(0, 1.5),
        lambda: replication_seed(0, -1),
        lambda: replication_seed(0, True),
    ],
    ids=[
        "cohort-spec-none", "sweep-spec-none", "sweep-spec-dict", "seed-text", "seed-float",
        "seed-negative", "seed-too-large", "seed-none", "replication-text",
        "replication-float", "replication-negative", "replication-bool",
    ],
)
def test_simulate_entry_points_refuse_wrong_arguments(call):
    with pytest.raises(ScaleSenseError) as excinfo:
        call()
    assert excinfo.value.code == "spec-validation-error"


class TestPartitionSweep:
    def test_single_replication_has_zero_spread(self):
        report = run_partition_sweep(spec(), k_values=(2,), reps=1)
        record = report.records[0]
        assert record.sd_se == 0.0
        assert record.sd_sp == 0.0

    def test_identical_calls_give_identical_reports(self):
        a = run_partition_sweep(spec(), k_values=(2, 5), reps=4)
        b = run_partition_sweep(spec(), k_values=(2, 5), reps=4)
        assert a == b

    def test_k_order_only_permutes_records(self):
        forward = run_partition_sweep(spec(), k_values=(2, 4, 8), reps=3)
        backward = run_partition_sweep(spec(), k_values=(8, 4, 2), reps=3)
        by_k_fwd = {r.k: r for r in forward.records}
        by_k_bwd = {r.k: r for r in backward.records}
        assert by_k_fwd == by_k_bwd

    def test_criterion_is_honored(self):
        youden = run_partition_sweep(spec(), k_values=(4,), reps=3)
        product = run_partition_sweep(
            spec(), k_values=(4,), reps=3, criterion=ThresholdCriterion.SE_SP_PRODUCT
        )
        assert youden.criterion is ThresholdCriterion.YOUDEN_J
        assert product.criterion is ThresholdCriterion.SE_SP_PRODUCT

    def test_records_align_with_requested_ks(self):
        report = run_partition_sweep(spec(), k_values=(3, 2, 6), reps=2)
        assert report.k_values == (3, 2, 6)
        assert tuple(r.k for r in report.records) == (3, 2, 6)

    def test_rejects_zero_replications(self):
        with pytest.raises(EmptyExperimentError):
            run_partition_sweep(spec(), k_values=(2,), reps=0)

    def test_rejects_out_of_range_class_counts(self):
        with pytest.raises(InvalidClassCountError):
            run_partition_sweep(spec(), k_values=(1,), reps=1)
        with pytest.raises(InvalidClassCountError):
            run_partition_sweep(spec(n=100), k_values=(101,), reps=1)

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"reps": 2.5}, "empty-experiment"),
            ({"reps": True}, "empty-experiment"),
            ({"k_values": (2.5,)}, "invalid-class-count"),
            ({"k_values": None}, "invalid-class-count"),
            ({"k_values": 2}, "invalid-class-count"),
            ({"k_values": 10**5000}, "invalid-class-count"),
        ],
    )
    def test_rejects_non_integer_arguments(self, overrides, code):
        arguments = {"k_values": (2,), "reps": 1, **overrides}
        with pytest.raises(ScaleSenseError) as excinfo:
            run_partition_sweep(spec(), **arguments)
        assert excinfo.value.code == code

    @pytest.mark.parametrize(
        "reps, k_values", [(2**62, (2,)), (10**5000, (2,)), (2**59, (2, 3, 4))],
        ids=["reps-past-numpy", "reps-past-digit-limit", "reps-times-ks-past-numpy"],
    )
    def test_rejects_more_results_than_numpy_can_hold(self, reps, k_values):
        with pytest.raises(EmptyExperimentError) as excinfo:
            run_partition_sweep(spec(), k_values=k_values, reps=reps)
        assert excinfo.value.code == "empty-experiment"

    @pytest.mark.parametrize(
        "size, error",
        [(dict(reps=2**59), EmptyExperimentError), (dict(n=2**59), SpecValidationError)],
        ids=["reps", "n"],
    )
    def test_results_or_cohorts_the_machine_cannot_hold_name_their_size(self, size, error):
        # 2**59 float64 cells are 4 EiB, which numpy's allocator refuses at once.
        with pytest.raises(error, match="cannot allocate") as excinfo:
            run_partition_sweep(spec(n=size.get("n", 400)), k_values=(2,), reps=size.get("reps", 1))
        assert excinfo.value.code == error.code

    def test_rejects_empty_k_list(self):
        with pytest.raises(EmptyExperimentError):
            run_partition_sweep(spec(), k_values=(), reps=1)

    def test_degenerate_draw_names_its_replication_and_seed(self):
        tiny = spec(n=2, prevalence=0.5, seed=1)
        first = next(
            r
            for r in range(50)
            if generate_cohort(replace(tiny, seed=replication_seed(1, r))).n_diseased
            in (0, 2)
        )
        with pytest.raises(DegenerateCohortError) as excinfo:
            run_partition_sweep(tiny, k_values=(2,), reps=50)
        message = str(excinfo.value)
        assert f"replication {first} " in message
        assert f"child seed {replication_seed(1, first)}" in message
        assert excinfo.value.code == "degenerate-cohort"

    @pytest.mark.parametrize("criterion", list(ThresholdCriterion), ids=lambda c: c.value)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_per_k_reference(self, criterion, seed):
        base = spec(n=60, seed=seed)
        ks = (2, 3, 7, 13, 30, 59, 60)
        report = run_partition_sweep(base, k_values=ks, reps=12, criterion=criterion)
        got = [
            (r.k, r.mean_se, r.sd_se, r.mean_sp, r.sd_sp, r.mean_c) for r in report.records
        ]
        assert got == reference_sweep(base, ks, 12, criterion)

    @pytest.mark.parametrize("criterion", list(ThresholdCriterion), ids=lambda c: c.value)
    def test_matches_the_reference_at_block_boundaries(self, monkeypatch, criterion):
        block = 16
        base = spec(n=60, seed=5)
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", base.n * block)
        ks = (2, 3, 7, 13, 30, 59, 60)
        for reps in (1, block - 1, block, block + 1, 2 * block + 3):
            report = run_partition_sweep(base, k_values=ks, reps=reps, criterion=criterion)
            got = [
                (r.k, r.mean_se, r.sd_se, r.mean_sp, r.sd_sp, r.mean_c) for r in report.records
            ]
            assert got == reference_sweep(base, ks, reps, criterion), f"reps={reps}"

    def test_one_row_per_block_above_the_cell_budget(self):
        base = spec(n=simulate._BLOCK_CELLS + 1, seed=3)
        ks = (2, 7, 1000)
        report = run_partition_sweep(base, k_values=ks, reps=3)
        got = [(r.k, r.mean_se, r.sd_se, r.mean_sp, r.sd_sp, r.mean_c) for r in report.records]
        assert got == reference_sweep(base, ks, 3, ThresholdCriterion.YOUDEN_J)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_size_changes_no_bit(self, monkeypatch, rows):
        base = spec(seed=11)
        arguments = dict(k_values=(2, 5, 50, 400), reps=37)
        default = run_partition_sweep(base, **arguments)
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", base.n * rows)
        assert run_partition_sweep(base, **arguments) == default

    def test_degenerate_draw_inside_a_block_names_the_first(self, monkeypatch):
        block = 16
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 3 * block)

        def bad(base, r):
            cohort = generate_cohort(replace(base, seed=replication_seed(base.seed, r)))
            return cohort.n_diseased in (0, len(cohort))

        def bad_reps(base):
            return [r for r in range(2 * block) if bad(base, r)]

        # A seed whose first bad replication is not first in its block, with a
        # later replication of the same block also bad.
        tiny = next(
            base
            for base in (spec(n=3, prevalence=0.2, seed=s) for s in range(200))
            if (found := bad_reps(base))
            and found[0] % block
            and len(found) > 1
            and found[1] // block == found[0] // block
        )
        first = bad_reps(tiny)[0]
        with pytest.raises(DegenerateCohortError) as excinfo:
            run_partition_sweep(tiny, k_values=(2,), reps=2 * block)
        message = str(excinfo.value)
        assert f"replication {first} " in message
        assert f"child seed {replication_seed(tiny.seed, first)}" in message

    def test_overflowing_scores_are_an_invariant_violation(self):
        # sigma * z overflows once |z| > 1.8; seed 42's first draw has no such z.
        # The overflow itself is expected, so numpy must not warn about it.
        wide = spec(n=50, sigma=1e308, seed=0)
        for draw in (lambda: generate_cohort(wide), lambda: run_partition_sweep(wide, (2,), 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvariantViolationError, match="all scores must be finite"):
                    draw()

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_first_faulty_draw_wins_and_overflow_is_checked_first(self, monkeypatch, seed):
        # Tiny cohorts whose scores often overflow and whose diseased group is
        # often empty.  In blocks of 16 rows, the first fault of these seeds is
        # at replication 0 (both faults), 1 (empty group) or 3 (both), and a
        # later replication of the same block is faulty too.
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 3 * 16)
        base = spec(n=3, prevalence=0.2, sigma=1e308, seed=seed)

        def fault(r):
            try:
                cohort = generate_cohort(replace(base, seed=replication_seed(seed, r)))
            except InvariantViolationError:
                return "invariant-violation"
            return "degenerate-cohort" if cohort.n_diseased in (0, 3) else None

        expected = next(code for r in range(32) if (code := fault(r)))
        with pytest.raises(ScaleSenseError) as excinfo:
            run_partition_sweep(base, k_values=(2,), reps=32)
        assert excinfo.value.code == expected

    def test_peak_memory_is_bounded_at_large_n(self):
        # A block holds at most about _BLOCK_CELLS subjects, so a cohort this
        # large is swept one replication at a time (about 8 MB traced); a
        # fixed 16 rows per block would hold 16 cohorts at once (about 44 MB).
        tracemalloc.start()
        try:
            run_partition_sweep(spec(n=100_000), k_values=(2, 10), reps=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_aggregates_match_a_manual_replay(self):
        base = spec(n=150, seed=9)
        report = run_partition_sweep(base, k_values=(3,), reps=5)
        ses = []
        for r in range(5):
            child = replace(base, seed=replication_seed(base.seed, r))
            cohort = generate_cohort(child)
            _, assignment = discretize(cohort, 3)
            pmf1, pmf0 = estimate_conditional_pmfs(assignment, cohort)
            ses.append(select_threshold(pmf1, pmf0).se)
        record = report.records[0]
        assert record.mean_se == np.mean(ses)
        assert record.sd_se == np.std(ses)
