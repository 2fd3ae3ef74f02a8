import inspect
import math
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalesense
from scalesense import (
    AlignmentError,
    Cohort,
    CohortFileSchema,
    CohortSpec,
    ConditionalPMF,
    DegenerateCohortError,
    DiagnosticSummary,
    DimensionMismatchError,
    EmptyExperimentError,
    EmptyInputError,
    InsufficientSamplesError,
    InvalidClassCountError,
    InvalidDeltaError,
    InvariantViolationError,
    MonotonicityVerdict,
    Outcome,
    PartitionSpec,
    Provenance,
    RefinementWitness,
    ReportDocument,
    ScaleAssignment,
    ScaleSenseError,
    ThresholdCriterion,
    ThresholdOutOfRangeError,
    VerdictStatus,
    analyze_cohort,
    apply_refinement,
    discretize,
    estimate_conditional_pmfs,
    roc_points,
    run_partition_sweep,
    select_threshold,
    sensitivity,
    specificity,
    verify_monotonicity,
)
from scalesense.core import (
    _block_counts,
    _class_ranks,
    _criterion_values,
    _edge_counts,
    _head_sums,
    _shown,
    _tail_sums,
    strict_int,
)
from conftest import integer_score_cohorts, pmf_pairs, pmfs


def reference_counts(cohort, k):
    """The per-``k`` path the counting kernel replaced: sort, cut at the
    quantile ranks, assign every subject a class, count per outcome."""
    n = len(cohort)
    ordered = np.sort(cohort.scores)
    ranks = (np.arange(1, k) * n + k - 1) // k
    boundaries = ordered[ranks - 1]
    indices = 1 + np.searchsorted(boundaries, cohort.scores, side="left")
    counts1 = np.bincount(indices[cohort.outcomes == 1], minlength=k + 1)[1:]
    counts0 = np.bincount(indices[cohort.outcomes == 0], minlength=k + 1)[1:]
    return boundaries, counts1, counts0


def reference_summary(probs1, probs0, criterion):
    """Threshold selection as it was before the shared helper."""
    k = len(probs1)
    se = _tail_sums(probs1)[:k]
    sp = _head_sums(probs0)[:k]
    values = _criterion_values(criterion, se, sp)
    objective = -values if criterion is ThresholdCriterion.CLOSEST_TO_TOP_LEFT else values
    best = int(np.argmax(objective))
    return DiagnosticSummary(
        c=best + 1, se=float(se[best]), sp=float(sp[best]),
        criterion_value=float(values[best]),
    )


@st.composite
def tie_heavy_cohorts(draw, max_n=80, n=None):
    """Cohorts whose integer scores take at most a handful of values; ``n``
    subjects if given, else from 1 to ``max_n``."""
    if n is None:
        n = draw(st.integers(1, max_n))
    top = draw(st.integers(0, 6))
    scores = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Cohort(scores=np.array(scores, dtype=np.float64), outcomes=np.array(outcomes))


@st.composite
def ladder_cohorts(draw):
    """Cohorts of 4 to 400 normal scores with both outcomes present, half of
    them rounded to a few distinct values (heavy ties)."""
    n = draw(st.integers(4, 400))
    n1 = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outcomes = rng.permutation(np.repeat([1, 0], [n1, n - n1]))
    scores = rng.normal(size=n) + draw(st.floats(0.0, 3.0)) * outcomes
    if draw(st.booleans()):
        scores = np.round(scores * draw(st.sampled_from([0.5, 1.0, 2.0])))
    return Cohort(scores=scores, outcomes=outcomes)


# Class ladders in which each k divides the next: every cut rank of one
# scale, ceil(j * n / k), is also a cut rank of the next, so each scale
# refines the one before it.
NESTED_LADDERS = ((2, 4, 8, 16, 32, 64), (3, 6, 12, 24, 48), (5, 10, 50, 100))


def scaled_youden(cohort, analysis):
    """The chosen cut's Youden J times ``n1 * n0``, counted exactly on the
    cohort as ``above1 * n0 + below0 * n1 - n1 * n0``."""
    c = analysis.summary.c
    positive = cohort.scores > (analysis.partition.boundaries[c - 2] if c > 1 else -math.inf)
    diseased = cohort.outcomes == 1
    n1, n0 = int(diseased.sum()), int((~diseased).sum())
    above1 = int((positive & diseased).sum())
    below0 = int((~positive & ~diseased).sum())
    return above1 * n0 + below0 * n1 - n1 * n0


# Containers that the numeric-vector rule refuses, each built from a list
# of valid values: none is a 1-D ndarray or a sequence other than text.
REFUSED_CONTAINERS = {
    "set": set,
    "dict": dict.fromkeys,
    "generator": lambda values: (value for value in values),
    "iterator": iter,
    "str": lambda values: ",".join(map(str, values)),
    "bytes": lambda values: ",".join(map(str, values)).encode(),
    "2d-array": lambda values: np.array([values]),
}

HALVES = ConditionalPMF(probs=(0.5, 0.5, 0.0), conditioning_outcome=Outcome.DISEASED)
TINY_SPEC = CohortSpec(n=20, prevalence=0.5, mu_healthy=0.0, mu_diseased=1.0, sigma=1.0, seed=1)

# Every numeric-vector entry point: what it keeps of a vector, valid values
# for it, whether it takes floats, and the code it refuses a vector with.
VECTOR_ENTRIES = {
    "cohort-scores": (lambda v: Cohort(scores=v, outcomes=[0, 1, 1]).scores, [2, 0, 1], True,
                      InvariantViolationError),
    "cohort-outcomes": (lambda v: Cohort(scores=[1.0, 2.0, 3.0], outcomes=v).outcomes,
                        [0, 1, 1], False, InvariantViolationError),
    "partition": (lambda v: PartitionSpec(boundaries=v).boundaries, [0, 1, 1], True,
                  InvariantViolationError),
    "assignment": (lambda v: ScaleAssignment(k=3, class_indices=v).class_indices, [3, 1, 2],
                   False, InvariantViolationError),
    "pmf": (lambda v: ConditionalPMF(probs=v, conditioning_outcome=Outcome.DISEASED).probs,
            [0, 1, 0], True, InvariantViolationError),
    "witness-deltas": (lambda v: RefinementWitness(base=HALVES, deltas=v, c=1, c_prime=1).deltas,
                       [0, 0, 0], True, InvalidDeltaError),
    "apply-refinement-deltas": (lambda v: apply_refinement(HALVES, v).probs, [0, 0, 0], True,
                                InvalidDeltaError),
    "sweep-k-values": (lambda v: run_partition_sweep(TINY_SPEC, k_values=v, reps=1).k_values,
                       [2, 5, 3], False, InvalidClassCountError),
}


def refused_container(entry, container):
    """A call of ``entry`` on its valid values in the refused ``container``."""
    build, values = VECTOR_ENTRIES[entry][:2]
    return lambda: build(REFUSED_CONTAINERS[container](values))


INVARIANT_CONTAINER_CASES = [
    (f"{entry}-in-{container}", refused_container(entry, container))
    for entry, (*_, error) in VECTOR_ENTRIES.items()
    if error is InvariantViolationError
    for container in REFUSED_CONTAINERS
]


def small_cohort():
    return Cohort(scores=[0.1, 0.4, 0.7, 0.9], outcomes=[0, 1, 0, 1])


def small_analysis():
    return analyze_cohort(small_cohort(), 2)


def small_sweep():
    spec = CohortSpec(
        n=20, prevalence=0.5, mu_healthy=0.0, mu_diseased=1.0, sigma=1.0, seed=1
    )
    return run_partition_sweep(spec, k_values=(2, 4), reps=2)


def small_document():
    return ReportDocument("1", Provenance(seed=1, tool_version="0.1.0"), small_analysis())


def public_dataclass_examples():
    """One valid instance of every dataclass that ``scalesense`` exports."""
    analysis, report = small_analysis(), small_sweep()
    cohort = Cohort(scores=[0.1, 0.4, 0.7, 0.9], outcomes=[0, 1, 0, 1])
    partition, assignment = discretize(cohort, 2)
    witness = RefinementWitness.build(analysis.pmf_diseased, (0.0, 0.25), c=1, c_prime=2)
    document = small_document()
    examples = [
        cohort, partition, assignment, analysis.pmf_diseased, analysis.summary, analysis,
        witness, verify_monotonicity(witness), report.spec, report.records[0], report,
        CohortFileSchema(), document.provenance, document,
    ]
    return {type(example): example for example in examples}


PUBLIC_DATACLASSES = [
    obj for name in scalesense.__all__ if is_dataclass(obj := getattr(scalesense, name))
]


def public_function_arguments(folder):
    """Valid keyword arguments for every function that ``scalesense`` exports,
    with the files they read written into ``folder``."""
    analysis = small_analysis()
    pmf1, pmf0 = analysis.pmf_diseased, analysis.pmf_healthy
    cohort = Cohort(scores=[0.1, 0.4, 0.7, 0.9], outcomes=[0, 1, 0, 1])
    witness = RefinementWitness.build(pmf1, (0.0, 0.25), c=1, c_prime=2)
    spec = small_sweep().spec
    scalesense.write_cohort(cohort, folder / "cohort.csv")
    scalesense.write_report(small_document(), folder / "report.json")
    return {
        "discretize": dict(cohort=cohort, k=2),
        "estimate_conditional_pmfs": dict(assignment=discretize(cohort, 2)[1], cohort=cohort),
        "sensitivity": dict(pmf=pmf1, c=1),
        "specificity": dict(pmf=pmf0, c=1),
        "select_threshold": dict(pmf_diseased=pmf1, pmf_healthy=pmf0),
        "roc_points": dict(pmf_diseased=pmf1, pmf_healthy=pmf0),
        "analyze_cohort": dict(cohort=cohort, k=2),
        "apply_refinement": dict(base=pmf1, deltas=(0.0, 0.25)),
        "check_mass_control": dict(witness=witness),
        "verify_monotonicity": dict(witness=witness),
        "search_counterexample": dict(k=2, grid_step=0.5),
        "replication_seed": dict(master_seed=1, replication=0),
        "generate_cohort": dict(spec=spec),
        "run_partition_sweep": dict(spec=spec, k_values=(2,), reps=2),
        "load_cohort": dict(path=folder / "cohort.csv"),
        "write_cohort": dict(cohort=cohort, path=folder / "written.csv"),
        "write_report": dict(document=small_document(), path=folder / "written.json"),
        "read_report": dict(path=folder / "report.json"),
    }


PUBLIC_FUNCTIONS = [
    name for name in scalesense.__all__ if inspect.isfunction(getattr(scalesense, name))
]


# One value of each kind that has slipped past an entry's checks before:
# integers at and past int64 and uint64 (10**5000 also past the digits str
# prints), extreme and non-finite floats, numpy scalars, and empty, odd and 2-D
# containers.  Each size is refused before anything is allocated, or tiny.
EXTREME_VALUES = {
    "-1": -1, "0": 0, "1": 1, "2**63": 2**63, "2**64": 2**64, "10**5000": 10**5000,
    "-0.0": -0.0, "5e-324": 5e-324, "1e308": 1e308, "inf": math.inf, "nan": math.nan,
    "float32": np.float32(0.1), "longdouble-1e400": np.longdouble("1e400"),
    "uint64-max": np.uint64(2**64 - 1), "int8-minus-1": np.int8(-1),
    "empty-tuple": (), "empty-list": [], "nan-tuple": (math.nan,), "huge-pair": (1e308, 1e308),
    "empty-array": np.array([]), "2d-array": np.zeros((2, 2)), "nan-array": np.array([math.nan]),
    "frozenset": frozenset({1}), "bytes": b"1", "text": "1", "True": True,
}


def escapes(call, changes) -> list:
    """``"label: error"`` for each ``(label, kwargs)`` of ``changes`` on which
    ``call(**kwargs)``, with warnings raised as errors, raises anything but a
    :class:`ScaleSenseError`."""
    escaped = []
    for label, kwargs in changes:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                call(**kwargs)
        except ScaleSenseError:
            pass
        except Exception as exc:
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    return escaped


# The package's public names, spelled out.  __all__ is derived from the
# imports in __init__, so a helper imported there would turn up in it.
PUBLIC_NAMES = [
    "AlignmentError", "Cohort", "CohortFileSchema", "CohortSpec", "ConditionalPMF",
    "DEFAULT_CLASS_LADDER", "DEFAULT_REPS", "DegenerateCohortError", "DiagnosticSummary",
    "DimensionMismatchError", "EmptyExperimentError", "EmptyGridError", "EmptyInputError",
    "ExperimentReport", "FLAT_CSV_HEADER", "FileIOError", "InsufficientSamplesError",
    "InvalidClassCountError", "InvalidDeltaError", "InvariantViolationError", "MASS_TOLERANCE",
    "MonotonicityVerdict", "NegativeProbabilityError", "NotCoveredError", "Outcome",
    "ParseError", "PartitionSpec", "Provenance", "RefinementWitness", "ReportDocument",
    "SCHEMA_VERSION", "ScaleAnalysis", "ScaleAssignment", "ScaleSenseError", "SchemaError",
    "SpecValidationError", "SweepRecord", "ThresholdCriterion", "ThresholdOutOfRangeError",
    "VerdictStatus", "__version__", "analyze_cohort", "apply_refinement", "check_mass_control",
    "discretize", "estimate_conditional_pmfs", "generate_cohort", "load_cohort", "read_report",
    "replication_seed", "roc_points", "run_partition_sweep", "search_counterexample",
    "select_threshold", "sensitivity", "specificity", "verify_monotonicity", "write_cohort",
    "write_report",
]


class TestPublicSurface:
    def test_all_names_each_public_name_once(self):
        assert len(set(scalesense.__all__)) == len(scalesense.__all__)
        assert sorted(scalesense.__all__) == PUBLIC_NAMES
        assert scalesense.__all__[0] == "__version__"

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from scalesense import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(scalesense.__all__)


class TestValueTypes:
    def test_cohort_rejects_misaligned_arrays(self):
        with pytest.raises(AlignmentError):
            Cohort(scores=[1.0, 2.0], outcomes=[0])

    def test_cohort_rejects_bad_labels(self):
        with pytest.raises(InvariantViolationError):
            Cohort(scores=[1.0], outcomes=[3])

    def test_cohort_counts_and_samples(self):
        cohort = Cohort(scores=[1.0, 2.0, 3.0], outcomes=[0, 1, 1])
        assert len(cohort) == 3
        assert cohort.n_diseased == 2
        assert cohort.n_healthy == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cohort(scores=["a"], outcomes=[0]),
            lambda: Cohort(scores=[1.0, 2.0], outcomes=[0.5, 1]),
            lambda: Cohort(scores=["1.5"], outcomes=[0]),
            lambda: Cohort(scores=[True, False], outcomes=[0, 1]),
            lambda: Cohort(scores=[1.0, 2.0], outcomes=[True, False]),
            lambda: Cohort(scores=[True, 2.0], outcomes=[True, 0]),
            lambda: Cohort(scores=[True, 2.0], outcomes=[1, 0]),
            lambda: Cohort(scores=(1.0, 2.0), outcomes=(np.True_, 0)),
            lambda: PartitionSpec(boundaries=(True,)),
            lambda: ScaleAssignment(k=2.0, class_indices=[1, 2]),
            lambda: ConditionalPMF(probs=(1.0, False), conditioning_outcome=Outcome.HEALTHY),
            lambda: ConditionalPMF(probs=(1.0,), conditioning_outcome="x"),
            lambda: ConditionalPMF(probs=(1.0,), conditioning_outcome=1.0),
            lambda: ConditionalPMF(probs=(1.0,), conditioning_outcome=True),
            lambda: DiagnosticSummary(c=1.0, se=0.5, sp=0.5, criterion_value=0.0),
            lambda: DiagnosticSummary(c=1, se="0.5", sp=0.5, criterion_value=0.0),
            lambda: replace(small_analysis(), partition=None),
            lambda: replace(small_analysis(), pmf_healthy=(0.5, 0.5)),
            lambda: replace(small_analysis(), criterion="youden"),
            lambda: replace(small_sweep(), spec=None),
            lambda: replace(small_sweep(), criterion="youden"),
            lambda: replace(small_sweep(), records=None),
            lambda: replace(small_sweep(), records=(None, None)),
            lambda: ScaleAssignment(k=2, class_indices=[1.7, 2]),
            lambda: ScaleAssignment(k=2, class_indices=None),
            lambda: ScaleAssignment(k=2, class_indices=[True, 2]),
            lambda: MonotonicityVerdict(status=None, se_base="x", se_refined=None),
            lambda: MonotonicityVerdict(status="holds", se_base=1.0, se_refined=1.0),
            lambda: MonotonicityVerdict(status=VerdictStatus.HOLDS, se_base="x", se_refined=1.0),
            lambda: replace(small_document(), payload=None),
            lambda: replace(small_document(), provenance=None),
            lambda: Cohort(scores=[[1.0], [2.0, 3.0]], outcomes=[0, 1]),
            lambda: ConditionalPMF(probs=(), conditioning_outcome=Outcome.DISEASED),
        ]
        + [build for _, build in INVARIANT_CONTAINER_CASES],
        ids=[
            "cohort-text-score",
            "cohort-fractional-outcome",
            "cohort-numeric-text-score",
            "cohort-bool-score",
            "cohort-bool-outcome",
            "cohort-bool-mixed-into-both",
            "cohort-bool-mixed-into-scores",
            "cohort-numpy-bool-mixed-into-outcomes",
            "partition-bool-boundary",
            "assignment-float-k",
            "pmf-bool-entry",
            "pmf-text-outcome",
            "pmf-float-outcome",
            "pmf-bool-outcome",
            "summary-float-c",
            "summary-text-se",
            "analysis-partition-none",
            "analysis-pmf-tuple",
            "analysis-criterion-text",
            "report-spec-none",
            "report-criterion-text",
            "report-records-none",
            "report-record-none",
            "assignment-fractional-index",
            "assignment-indices-none",
            "assignment-bool-mixed-into-indices",
            "verdict-status-none",
            "verdict-status-text",
            "verdict-text-sensitivity",
            "document-payload-none",
            "document-provenance-none",
            "cohort-ragged-scores",
            "pmf-no-classes",
        ]
        + [name for name, _ in INVARIANT_CONTAINER_CASES],
    )
    def test_rejects_values_that_would_be_coerced(self, build):
        with pytest.raises(InvariantViolationError) as excinfo:
            build()
        assert excinfo.value.code == "invariant-violation"

    @pytest.mark.parametrize("container", list(REFUSED_CONTAINERS))
    @pytest.mark.parametrize(
        "entry", ["witness-deltas", "apply-refinement-deltas", "sweep-k-values"]
    )
    def test_deltas_and_class_ladders_refuse_other_containers(self, entry, container):
        error = VECTOR_ENTRIES[entry][3]
        with pytest.raises(error) as excinfo:
            refused_container(entry, container)()
        assert excinfo.value.code == error.code

    @pytest.mark.parametrize(
        "dtype", [f"{sign}int{bits}" for sign in ("", "u") for bits in (8, 16, 32, 64)]
        + ["float32", "float64"],
    )
    @pytest.mark.parametrize("entry", list(VECTOR_ENTRIES))
    def test_arrays_of_any_numeric_dtype_read_as_their_list(self, entry, dtype):
        build, values, takes_floats, error = VECTOR_ENTRIES[entry]
        array = np.array(values, dtype)
        if array.dtype.kind == "f" and not takes_floats:
            for form in (array, array.tolist()):
                with pytest.raises(error):
                    build(form)
        else:
            kept = build(array)
            assert np.array_equal(kept, build(array.tolist()))
            assert np.array_equal(kept, build(values))

    def test_ranges_are_accepted(self):
        assert Cohort(scores=range(3), outcomes=[0, 1, 1]).scores.tolist() == [0.0, 1.0, 2.0]
        assert Cohort(scores=[1.0, 2.0], outcomes=range(2)).outcomes.tolist() == [0, 1]
        assert PartitionSpec(boundaries=range(3)).boundaries == (0.0, 1.0, 2.0)
        assert ScaleAssignment(k=3, class_indices=range(1, 4)).class_indices.tolist() == [1, 2, 3]
        assert run_partition_sweep(TINY_SPEC, k_values=range(2, 5), reps=1).k_values == (2, 3, 4)

    def test_fractional_float32_entries_keep_their_float32_value(self):
        array = np.array([0.1, 0.9], np.float32)
        assert Cohort(scores=array, outcomes=[0, 1]).scores.tolist() == array.tolist()

    def test_array_entries_past_int64_are_refused_as_their_list(self):
        for form in (np.array([1, 2**64 - 1], np.uint64), [1, 2**64 - 1]):
            with pytest.raises(InvariantViolationError, match="within int64"):
                ScaleAssignment(k=2, class_indices=form)

    @pytest.mark.parametrize("dtype", ["float64", "int8", "uint64", "U1", "O", "?", "c16"])
    def test_empty_arrays_of_any_dtype_are_accepted(self, dtype):
        empty = np.array([], dtype)
        assert len(Cohort(scores=empty, outcomes=empty)) == 0
        assert PartitionSpec(boundaries=empty).k == 1
        assert len(ScaleAssignment(k=1, class_indices=empty)) == 0
        with pytest.raises(EmptyExperimentError):
            run_partition_sweep(TINY_SPEC, k_values=empty, reps=1)

    def test_every_public_dataclass_has_an_example(self):
        assert set(public_dataclass_examples()) == set(PUBLIC_DATACLASSES)

    @pytest.mark.parametrize("cls", PUBLIC_DATACLASSES, ids=lambda cls: cls.__name__)
    def test_a_wrongly_typed_field_is_refused_as_a_domain_error(self, cls):
        """Any one field set to ``None``, text, a float or a bare object
        either constructs or raises a :class:`ScaleSenseError`."""
        example = public_dataclass_examples()[cls]
        escaped = []
        for field in filter(lambda field: field.init, fields(cls)):
            for value in (None, "x", 1.5, object()):
                try:
                    replace(example, **{field.name: value})
                except ScaleSenseError:
                    pass
                except Exception as exc:
                    escaped.append(f"{field.name}={value!r}: {type(exc).__name__}: {exc}")
        assert escaped == []

    def test_list_parts_are_accepted_as_tuples(self):
        report = small_sweep()
        as_lists = replace(report, records=list(report.records))
        assert as_lists == report
        assert isinstance(as_lists.records, tuple)

    def test_cohort_arrays_are_frozen(self):
        cohort = Cohort(scores=[1.0], outcomes=[0])
        with pytest.raises(ValueError):
            cohort.scores[0] = 5.0

    def test_partition_derives_k_from_its_boundaries(self):
        assert [PartitionSpec(boundaries=(1.0,) * n).k for n in (0, 1, 4)] == [1, 2, 5]
        with pytest.raises(TypeError):
            PartitionSpec(k=2, boundaries=(1.0,))

    def test_partition_allows_tied_boundaries(self):
        spec = PartitionSpec(boundaries=(1.0, 1.0))
        assert spec.boundaries == (1.0, 1.0)

    def test_partition_rejects_decreasing_boundaries(self):
        with pytest.raises(InvariantViolationError):
            PartitionSpec(boundaries=(2.0, 1.0))

    def test_analysis_derives_its_roc_and_cut(self):
        analysis = small_analysis()
        pmfs = analysis.pmf_diseased, analysis.pmf_healthy
        for criterion in ThresholdCriterion:
            derived = replace(analysis, criterion=criterion)
            assert derived.roc == tuple(roc_points(*pmfs))
            assert derived.summary == select_threshold(*pmfs, criterion)

    def test_analysis_refuses_pmfs_of_the_wrong_outcomes(self):
        """Each pmf must condition on the outcome its field names: swapped
        pmfs would write a report that reads back with the outcomes swapped."""
        analysis = small_analysis()
        pmf1, pmf0 = analysis.pmf_diseased, analysis.pmf_healthy
        for pmf_diseased, pmf_healthy in (
            (pmf0, pmf1),
            (pmf1, ConditionalPMF(pmf0.probs, Outcome.DISEASED)),
            (ConditionalPMF(pmf1.probs, Outcome.HEALTHY), pmf0),
        ):
            with pytest.raises(InvariantViolationError):
                replace(analysis, pmf_diseased=pmf_diseased, pmf_healthy=pmf_healthy)

    def test_assignment_rejects_out_of_range_classes(self):
        with pytest.raises(InvariantViolationError):
            ScaleAssignment(k=2, class_indices=np.array([1, 3]))

    def test_pmf_rejects_negative_entries(self):
        with pytest.raises(InvariantViolationError):
            ConditionalPMF(probs=(-0.1, 1.1), conditioning_outcome=Outcome.HEALTHY)

    def test_pmf_rejects_bad_mass(self):
        with pytest.raises(InvariantViolationError):
            ConditionalPMF(probs=(0.5, 0.4), conditioning_outcome=Outcome.HEALTHY)
        with pytest.raises(InvariantViolationError):  # a mass past float64's range
            ConditionalPMF(probs=(1e308, 1e308), conditioning_outcome=Outcome.HEALTHY)

    def test_pmf_accepts_tiny_mass_slack(self):
        probs = (0.1,) * 10
        assert ConditionalPMF(probs, Outcome.DISEASED).k == 10


class TestPublicFunctions:
    def test_every_public_function_has_valid_arguments(self, tmp_path):
        arguments = public_function_arguments(tmp_path)
        assert set(arguments) == set(PUBLIC_FUNCTIONS)
        for name, kwargs in arguments.items():
            getattr(scalesense, name)(**kwargs)

    @pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
    def test_a_wrongly_typed_argument_is_refused_as_a_domain_error(
        self, name, tmp_path, monkeypatch
    ):
        """Any one parameter, keywords included, set to ``None``, text, a
        float or a bare object either runs or raises a
        :class:`ScaleSenseError`.  ``"x"`` is a valid path for the writers,
        so they write into ``tmp_path``."""
        monkeypatch.chdir(tmp_path)
        function = getattr(scalesense, name)
        valid = public_function_arguments(tmp_path)[name]
        escaped = []
        for parameter in inspect.signature(function).parameters:
            for value in (None, "x", 1.5, object()):
                try:
                    function(**{**valid, parameter: value})
                except ScaleSenseError:
                    pass
                except Exception as exc:
                    escaped.append(f"{parameter}={value!r}: {type(exc).__name__}: {exc}")
        assert escaped == []

    def test_a_wrong_criterion_is_refused_before_any_draw_or_sort(self, monkeypatch):
        analysis = small_analysis()
        cohort, spec = Cohort(scores=[0.1, 0.4, 0.7, 0.9], outcomes=[0, 1, 0, 1]), small_sweep().spec

        def fail(*args):
            raise AssertionError("drew or sorted before checking the criterion")

        monkeypatch.setattr(scalesense.simulate, "_draw", fail)
        monkeypatch.setattr(scalesense.core, "_block_counts", fail)
        calls = (
            lambda: analyze_cohort(cohort, 2, "youden"),
            lambda: run_partition_sweep(spec, (2,), 2, "youden"),
            lambda: select_threshold(analysis.pmf_diseased, analysis.pmf_healthy, "youden"),
        )
        for call in calls:
            with pytest.raises(InvariantViolationError, match="criterion has unexpected type"):
                call()


# str() refuses an integer of more than 4300 digits, so a message that formats
# this one fails unless it is shown by its bit count.
UNPRINTABLE = 10**5000


class TestExtremeValues:
    @pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
    def test_an_extreme_argument_is_refused_as_a_domain_error(self, name, tmp_path, monkeypatch):
        """Any one parameter set to any of :data:`EXTREME_VALUES`, with
        warnings raised as errors, either runs or raises a
        :class:`ScaleSenseError`.  ``"1"`` is a valid path for the writers, so
        they write into ``tmp_path``."""
        monkeypatch.chdir(tmp_path)
        function = getattr(scalesense, name)
        valid = public_function_arguments(tmp_path)[name]
        changes = (
            (f"{parameter}={label}", {**valid, parameter: value})
            for parameter in inspect.signature(function).parameters
            for label, value in EXTREME_VALUES.items()
        )
        assert escapes(function, changes) == []

    @pytest.mark.parametrize("cls", PUBLIC_DATACLASSES, ids=lambda cls: cls.__name__)
    def test_an_extreme_field_is_refused_as_a_domain_error(self, cls):
        """Any one field set to any of :data:`EXTREME_VALUES`, with warnings
        raised as errors, either constructs or raises a :class:`ScaleSenseError`."""
        example = public_dataclass_examples()[cls]
        changes = (
            (f"{field.name}={label}", {field.name: value})
            for field in fields(cls) if field.init
            for label, value in EXTREME_VALUES.items()
        )
        assert escapes(lambda **change: replace(example, **change), changes) == []

    @pytest.mark.parametrize(
        "call, code",
        [
            (lambda path: discretize(small_cohort(), UNPRINTABLE), "insufficient-samples"),
            (lambda path: analyze_cohort(small_cohort(), UNPRINTABLE), "insufficient-samples"),
            (lambda path: discretize(small_cohort(), (UNPRINTABLE,)), "invalid-class-count"),
            (lambda path: scalesense.load_cohort(UNPRINTABLE), "io-error"),
            (lambda path: scalesense.load_cohort([UNPRINTABLE]), "io-error"),
            (lambda path: scalesense.read_report(UNPRINTABLE), "io-error"),
            (lambda path: scalesense.write_cohort(small_cohort(), UNPRINTABLE), "io-error"),
            (lambda path: scalesense.write_report(small_document(), UNPRINTABLE), "io-error"),
            (lambda path: scalesense.write_report(small_document(), path, UNPRINTABLE),
             "schema-error"),
            (lambda path: scalesense.write_report(small_document(), path, np.array([])),
             "schema-error"),
            (lambda path: scalesense.write_report(small_document(), path, np.zeros((2, 2))),
             "schema-error"),
        ],
        ids=[
            "discretize-k", "analyze-cohort-k", "discretize-k-in-a-tuple", "load-cohort-path",
            "load-cohort-path-in-a-list", "read-report-path", "write-cohort-path",
            "write-report-path", "write-report-unprintable-fmt", "write-report-empty-array-fmt",
            "write-report-2d-array-fmt",
        ],
    )
    def test_a_value_no_message_can_print_gets_the_entry_code(self, tmp_path, call, code):
        """Each of these once escaped as a bare ``ValueError``: from ``str()`` of
        a 5001-digit integer, alone or in a container, or from comparing an
        array with a format name."""
        with pytest.raises(ScaleSenseError) as excinfo:
            call(tmp_path / "report.json")
        assert excinfo.value.code == code
        assert "digits" not in str(excinfo.value)
        assert not (tmp_path / "report.json").exists()

    def test_shown_values_are_bounded(self):
        assert _shown(2**128 - 1) == str(2**128 - 1)
        assert _shown(2**128) == "a 129-bit integer"
        assert _shown("x" * 1000) == "'" + "x" * 76 + "..."
        assert _shown((UNPRINTABLE,)) == "a tuple"
        assert _shown(np.int64(-3)) == repr(np.int64(-3))

    def test_strict_int_shows_values_past_128_bits_by_their_bit_count(self):
        with pytest.raises(ThresholdOutOfRangeError, match=r"got a 16610-bit integer$"):
            strict_int(-UNPRINTABLE, "c", ThresholdOutOfRangeError, minimum=1)


class TestDiscretize:
    def test_even_split_on_distinct_scores(self):
        cohort = Cohort(scores=[1.0, 2.0, 3.0, 4.0], outcomes=[0, 0, 1, 1])
        spec, assignment = discretize(cohort, 2)
        assert spec.boundaries == (2.0,)
        assert assignment.class_indices.tolist() == [1, 1, 2, 2]

    def test_single_class_puts_everyone_together(self):
        cohort = Cohort(scores=[3.0, 1.0, 2.0], outcomes=[0, 1, 0])
        spec, assignment = discretize(cohort, 1)
        assert spec.boundaries == ()
        assert assignment.class_indices.tolist() == [1, 1, 1]

    def test_ties_never_split(self):
        cohort = Cohort(scores=[1.0, 1.0, 1.0, 2.0], outcomes=[0, 0, 1, 1])
        spec, assignment = discretize(cohort, 2)
        assert spec.boundaries == (1.0,)
        assert assignment.class_indices.tolist() == [1, 1, 1, 2]

    def test_heavy_ties_leave_classes_empty(self):
        cohort = Cohort(
            scores=[1.0, 1.0, 1.0, 1.0, 5.0, 6.0], outcomes=[0, 1, 0, 1, 0, 1]
        )
        spec, assignment = discretize(cohort, 3)
        assert spec.boundaries == (1.0, 1.0)
        # class 2 is squeezed between tied boundaries and stays empty
        assert 2 not in set(assignment.class_indices.tolist())

    def test_row_order_is_preserved(self):
        cohort = Cohort(scores=[4.0, 1.0, 3.0, 2.0], outcomes=[0, 0, 1, 1])
        _, assignment = discretize(cohort, 2)
        assert assignment.class_indices.tolist() == [2, 1, 2, 1]

    def test_rejects_nonpositive_k(self):
        cohort = Cohort(scores=[1.0, 2.0], outcomes=[0, 1])
        with pytest.raises(InvalidClassCountError):
            discretize(cohort, 0)

    def test_rejects_k_larger_than_n(self):
        cohort = Cohort(scores=[1.0, 2.0], outcomes=[0, 1])
        with pytest.raises(InsufficientSamplesError):
            discretize(cohort, 3)

    def test_rejects_empty_cohort(self):
        cohort = Cohort(scores=[], outcomes=[])
        with pytest.raises(EmptyInputError):
            discretize(cohort, 1)

    @given(integer_score_cohorts(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_assignment_depends_only_on_ranks(self, cohort, k):
        if k > len(cohort):
            k = len(cohort)
        _, base = discretize(cohort, k)
        for transform in (lambda s: 2.0 * s + 3.0, lambda s: s**3):
            mapped = Cohort(scores=transform(cohort.scores), outcomes=cohort.outcomes)
            _, moved = discretize(mapped, k)
            assert np.array_equal(base.class_indices, moved.class_indices)

    @given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_distinct_scores_balance_when_k_divides_n(self, k, m, rnd):
        n = k * m
        scores = rnd.sample(range(10 * n), n)
        cohort = Cohort(
            scores=[float(s) for s in scores], outcomes=[i % 2 for i in range(n)]
        )
        _, assignment = discretize(cohort, k)
        counts = np.bincount(assignment.class_indices, minlength=k + 1)[1:]
        assert counts.tolist() == [m] * k


class TestEstimate:
    def test_class_frequencies_by_group(self):
        cohort = Cohort(scores=[1, 2, 3, 4, 5, 6], outcomes=[1, 1, 0, 1, 0, 0])
        assignment = ScaleAssignment(k=3, class_indices=np.array([1, 2, 2, 3, 3, 3]))
        pmf1, pmf0 = estimate_conditional_pmfs(assignment, cohort)
        assert pmf1.conditioning_outcome is Outcome.DISEASED
        assert pmf0.conditioning_outcome is Outcome.HEALTHY
        np.testing.assert_allclose(pmf1.probs, (1 / 3, 1 / 3, 1 / 3), rtol=0, atol=0)
        np.testing.assert_allclose(pmf0.probs, (0.0, 1 / 3, 2 / 3), rtol=0, atol=1e-15)

    def test_empty_classes_get_zero_mass(self):
        cohort = Cohort(scores=[1, 2], outcomes=[1, 0])
        assignment = ScaleAssignment(k=3, class_indices=np.array([1, 3]))
        pmf1, pmf0 = estimate_conditional_pmfs(assignment, cohort)
        assert pmf1.probs == (1.0, 0.0, 0.0)
        assert pmf0.probs == (0.0, 0.0, 1.0)

    def test_rejects_single_group_cohort(self):
        cohort = Cohort(scores=[1, 2], outcomes=[1, 1])
        assignment = ScaleAssignment(k=2, class_indices=np.array([1, 2]))
        with pytest.raises(DegenerateCohortError):
            estimate_conditional_pmfs(assignment, cohort)

    def test_rejects_misaligned_assignment(self):
        cohort = Cohort(scores=[1, 2, 3], outcomes=[1, 0, 1])
        assignment = ScaleAssignment(k=2, class_indices=np.array([1, 2]))
        with pytest.raises(AlignmentError):
            estimate_conditional_pmfs(assignment, cohort)

    @given(integer_score_cohorts(min_n=4), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_masses_sum_to_one_per_group(self, cohort, k):
        if cohort.n_diseased == 0 or cohort.n_healthy == 0:
            return
        k = min(k, len(cohort))
        _, assignment = discretize(cohort, k)
        pmf1, pmf0 = estimate_conditional_pmfs(assignment, cohort)
        assert abs(math.fsum(pmf1.probs) - 1.0) <= 1e-9
        assert abs(math.fsum(pmf0.probs) - 1.0) <= 1e-9


class TestSensitivitySpecificity:
    def setup_method(self):
        self.pmf = ConditionalPMF((0.1, 0.2, 0.7), Outcome.DISEASED)

    def test_tail_and_head_sums(self):
        assert sensitivity(self.pmf, 2) == pytest.approx(0.9, abs=1e-12)
        assert sensitivity(self.pmf, 3) == pytest.approx(0.7, abs=1e-12)
        healthy = ConditionalPMF((0.7, 0.2, 0.1), Outcome.HEALTHY)
        assert specificity(healthy, 2) == pytest.approx(0.7, abs=1e-12)
        assert specificity(healthy, 3) == pytest.approx(0.9, abs=1e-12)

    def test_boundary_identities_are_exact(self):
        assert sensitivity(self.pmf, 1) == 1.0
        assert sensitivity(self.pmf, 4) == 0.0
        assert specificity(self.pmf, 1) == 0.0
        assert specificity(self.pmf, 4) == 1.0

    def test_threshold_range_is_enforced(self):
        with pytest.raises(ThresholdOutOfRangeError):
            sensitivity(self.pmf, 0)
        with pytest.raises(ThresholdOutOfRangeError):
            sensitivity(self.pmf, 5)
        with pytest.raises(ThresholdOutOfRangeError):
            specificity(self.pmf, -1)

    @given(pmfs(max_k=12))
    @settings(max_examples=200, deadline=None)
    def test_sensitivity_never_increases_in_c(self, pmf):
        values = [sensitivity(pmf, c) for c in range(1, pmf.k + 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == 1.0
        assert values[-1] == 0.0

    @given(pmfs(max_k=12))
    @settings(max_examples=200, deadline=None)
    def test_specificity_never_decreases_in_c(self, pmf):
        values = [specificity(pmf, c) for c in range(1, pmf.k + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == 1.0

    @given(pmfs(max_k=12), st.integers(1, 13))
    @settings(max_examples=200, deadline=None)
    def test_tail_and_head_are_complementary(self, pmf, c):
        if c > pmf.k + 1:
            c = pmf.k + 1
        assert sensitivity(pmf, c) + specificity(pmf, c) == pytest.approx(
            1.0, abs=1e-9
        )


class TestSelectThreshold:
    def test_youden_tie_resolves_to_smallest_c(self):
        pmf1 = ConditionalPMF((0.1, 0.2, 0.7), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.7, 0.2, 0.1), Outcome.HEALTHY)
        summary = select_threshold(pmf1, pmf0)
        assert summary.c == 2
        assert summary.se == pytest.approx(0.9, abs=1e-12)
        assert summary.sp == pytest.approx(0.7, abs=1e-12)

    def test_uninformative_scale_calls_everyone_positive(self):
        pmf1 = ConditionalPMF((0.5, 0.5), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.5, 0.5), Outcome.HEALTHY)
        summary = select_threshold(pmf1, pmf0)
        assert (summary.c, summary.se, summary.sp) == (1, 1.0, 0.0)
        assert summary.criterion_value == 0.0

    def test_separated_pmfs_pick_the_top_class(self):
        pmf1 = ConditionalPMF((0.05, 0.15, 0.8), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.6, 0.3, 0.1), Outcome.HEALTHY)
        summary = select_threshold(pmf1, pmf0)
        assert summary.c == 3
        assert summary.criterion_value == pytest.approx(0.7, abs=1e-12)

    def test_rejects_mismatched_class_counts(self):
        pmf1 = ConditionalPMF((0.5, 0.5), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.3, 0.3, 0.4), Outcome.HEALTHY)
        with pytest.raises(DimensionMismatchError):
            select_threshold(pmf1, pmf0)

    def test_topleft_variant_minimizes_corner_distance(self):
        pmf1 = ConditionalPMF((0.1, 0.2, 0.7), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.7, 0.2, 0.1), Outcome.HEALTHY)
        summary = select_threshold(
            pmf1, pmf0, ThresholdCriterion.CLOSEST_TO_TOP_LEFT
        )
        best = min(
            range(1, 4),
            key=lambda c: (1 - sensitivity(pmf1, c)) ** 2
            + (1 - specificity(pmf0, c)) ** 2,
        )
        assert summary.c == best

    @given(pmf_pairs(max_k=10), st.sampled_from(list(ThresholdCriterion)))
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_scan(self, pair, criterion):
        pmf1, pmf0 = pair
        summary = select_threshold(pmf1, pmf0, criterion)
        best_c, best_value = None, None
        for c in range(1, pmf1.k + 1):
            se = sensitivity(pmf1, c)
            sp = specificity(pmf0, c)
            if criterion is ThresholdCriterion.YOUDEN_J:
                value = se + sp - 1.0
                better = best_value is None or value > best_value
            elif criterion is ThresholdCriterion.CLOSEST_TO_TOP_LEFT:
                # Products, not ``** 2``: numpy squares exactly, while a float
                # ``**`` goes through libm pow, which can be 1 ulp off.
                value = (1.0 - se) * (1.0 - se) + (1.0 - sp) * (1.0 - sp)
                better = best_value is None or value < best_value
            else:
                value = se * sp
                better = best_value is None or value > best_value
            if better:
                best_c, best_value = c, value
        assert summary.c == best_c
        assert summary.criterion_value == best_value


class TestRocPoints:
    def test_traces_all_thresholds(self):
        pmf1 = ConditionalPMF((0.1, 0.2, 0.7), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.7, 0.2, 0.1), Outcome.HEALTHY)
        points = roc_points(pmf1, pmf0)
        assert len(points) == 4
        assert points[0] == (1.0, 1.0)
        assert points[-1] == (0.0, 0.0)

    def test_uninformative_scale_lies_on_the_diagonal(self):
        pmf = ConditionalPMF((0.5, 0.5), Outcome.DISEASED)
        pmf0 = ConditionalPMF((0.5, 0.5), Outcome.HEALTHY)
        assert roc_points(pmf, pmf0) == [(1.0, 1.0), (0.5, 0.5), (0.0, 0.0)]

    @given(pmf_pairs(max_k=10))
    @settings(max_examples=150, deadline=None)
    def test_both_coordinates_non_increasing(self, pair):
        points = roc_points(*pair)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))

    @pytest.mark.parametrize("criterion", list(ThresholdCriterion))
    def test_sufficient_to_rederive_selection(self, criterion, rng):
        # dyadic masses make every comparison exact, so recomputing the
        # criterion from (fpr, tpr) pairs must reproduce the selection
        for _ in range(50):
            k = int(rng.integers(2, 7))
            units1 = rng.multinomial(16, np.ones(k) / k)
            units0 = rng.multinomial(16, np.ones(k) / k)
            pmf1 = ConditionalPMF(tuple(units1 / 16.0), Outcome.DISEASED)
            pmf0 = ConditionalPMF(tuple(units0 / 16.0), Outcome.HEALTHY)
            summary = select_threshold(pmf1, pmf0, criterion)
            points = roc_points(pmf1, pmf0)[:k]
            if criterion is ThresholdCriterion.YOUDEN_J:
                values = [tpr - fpr for fpr, tpr in points]
                best = max(range(k), key=lambda i: (values[i], -i))
            elif criterion is ThresholdCriterion.CLOSEST_TO_TOP_LEFT:
                values = [(1 - tpr) ** 2 + fpr**2 for fpr, tpr in points]
                best = min(range(k), key=lambda i: (values[i], i))
            else:
                values = [tpr * (1 - fpr) for fpr, tpr in points]
                best = max(range(k), key=lambda i: (values[i], -i))
            assert summary.c == best + 1


class TestCountingKernel:
    @given(tie_heavy_cohorts(), st.data(), st.sampled_from(list(ThresholdCriterion)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_k_reference(self, cohort, data, criterion):
        n = len(cohort)
        k = data.draw(st.integers(1, n), label="k")
        boundaries, counts1, counts0 = reference_counts(cohort, k)
        n1, n0 = cohort.n_diseased, cohort.n_healthy
        if n1 == 0 or n0 == 0:
            with pytest.raises(DegenerateCohortError):
                analyze_cohort(cohort, k, criterion)
            return
        analysis = analyze_cohort(cohort, k, criterion)
        assert analysis.summary == reference_summary(counts1 / n1, counts0 / n0, criterion)
        assert analysis.partition.boundaries == tuple(boundaries.tolist())
        assert analysis.pmf_diseased.probs == tuple((counts1 / n1).tolist())
        assert analysis.pmf_healthy.probs == tuple((counts0 / n0).tolist())
        partition, assignment = discretize(cohort, k)
        assert analysis.partition == partition
        pmfs = estimate_conditional_pmfs(assignment, cohort)
        assert (analysis.pmf_diseased, analysis.pmf_healthy) == pmfs

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Cohort(scores=[1.0, 2.0], outcomes=[0, 1]), InsufficientSamplesError),
            (lambda: Cohort(scores=[], outcomes=[]), EmptyInputError),
            (lambda: Cohort(scores=[1.0, 2.0, 3.0], outcomes=[1, 1, 1]), DegenerateCohortError),
        ],
        ids=["k-above-n", "empty", "one-group"],
    )
    def test_analysis_raises_what_the_per_k_pipeline_raises(self, build, error):
        with pytest.raises(error):
            analyze_cohort(build(), 3)


class TestBlockKernel:
    """The block kernel on stacked tie-heavy rows: its sorted rows and
    diseased totals, and its lazily yielded counts against
    :func:`reference_counts`, row by row, at every ``k``."""

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(tie_heavy_cohorts(n=n), min_size=1, max_size=6)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_tied_rows_match_the_per_row_kernel(self, cohorts):
        n = len(cohorts[0])
        scores = np.array([cohort.scores for cohort in cohorts])
        outcomes = np.array([cohort.outcomes for cohort in cohorts], dtype=np.int8)
        all_ranks = [_class_ranks(n, k) for k in range(1, n + 1)]
        n1, counts = _block_counts(scores, outcomes, all_ranks)
        assert n1.dtype == np.int32 and iter(counts) is counts
        for row, cohort in enumerate(cohorts):
            assert scores[row].tolist() == sorted(cohort.scores.tolist())
            assert n1[row] == cohort.n_diseased
        for ranks, (counts1, counts0) in zip(all_ranks, counts, strict=True):
            for row, cohort in enumerate(cohorts):
                boundaries, ref1, ref0 = reference_counts(cohort, len(ranks) - 1)
                assert np.array_equal(scores[row, ranks[1:-1] - 1], boundaries)
                assert counts1[row].tolist() == ref1.tolist()
                assert counts0[row].tolist() == ref0.tolist()

    def test_miscounted_rows_fail_the_count_check(self):
        cum1 = np.array([[0, 1, 1, 2], [0, 0, 1, 1]])
        _edge_counts(cum1, np.array([[0, 2, 3], [0, 1, 3]]))
        for edges in ([[0, 2, 3], [0, 1, 2]], [[0, 2, 3], [0, 2, 1]]):
            with pytest.raises(InvariantViolationError, match="k=2 do not add up"):
                _edge_counts(cum1, np.array(edges))


class TestAnalyzeCohort:
    @pytest.mark.parametrize("k, bound", [(10, 32), (20_000, 40)])
    def test_peak_memory_per_subject_is_bounded(self, k, bound):
        # The one-row kernel holds the scores' copy, int8 outcomes, the
        # argsort and int32 cum1/ends: about 26 bytes per subject at k=10,
        # where int64 outcomes and buffers took about 41.  At k=20000 the
        # pmfs, boundaries and ROC points add about 8 more.
        n = 200_000
        rng = np.random.default_rng(5)
        cohort = Cohort(scores=rng.normal(size=n), outcomes=rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            analyze_cohort(cohort, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < bound

    def test_pipeline_composes_the_parts(self, rng):
        scores = np.concatenate([rng.normal(0, 1, 40), rng.normal(1.5, 1, 40)])
        outcomes = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
        cohort = Cohort(scores=scores, outcomes=outcomes)
        analysis = analyze_cohort(cohort, 4)
        assert analysis.partition.k == 4
        assert analysis.pmf_diseased.k == 4
        assert len(analysis.roc) == 5
        again = select_threshold(analysis.pmf_diseased, analysis.pmf_healthy)
        assert analysis.summary == again

    @given(
        st.one_of(ladder_cohorts(), tie_heavy_cohorts(max_n=120)),
        st.sampled_from(NESTED_LADDERS),
    )
    @settings(max_examples=300, deadline=None)
    def test_youden_j_does_not_fall_along_nested_ladders(self, cohort, ladder):
        """The paper's refinement theorem where quantile scales satisfy it:
        a nested scale's thresholds include the coarser scale's, so the
        in-sample optimal J cannot fall."""
        assume(0 < cohort.n_diseased < len(cohort))
        ladder = [k for k in ladder if k <= len(cohort)]
        js = [scaled_youden(cohort, analyze_cohort(cohort, k)) for k in ladder]
        assert js == sorted(js), dict(zip(ladder, js))

    def test_the_non_nested_step_from_2_to_3_classes_can_lower_j(self):
        cohort = Cohort(scores=[0.0, 1.0, 2.0, 3.0, 4.0], outcomes=[0, 0, 0, 1, 0])
        js = {k: scaled_youden(cohort, analyze_cohort(cohort, k)) for k in (2, 3, 4)}
        assert js == {2: 3, 3: 2, 4: 3}

    @pytest.mark.parametrize(
        "call",
        [
            lambda pmf: analyze_cohort(None, 2),
            lambda pmf: discretize("x", 2),
            lambda pmf: roc_points(None, pmf),
            lambda pmf: roc_points(pmf, "x"),
            lambda pmf: select_threshold(None, pmf),
            lambda pmf: select_threshold(pmf, 1.5),
        ],
        ids=[
            "analyze-none", "discretize-text", "roc-none", "roc-text", "select-none",
            "select-float",
        ],
    )
    def test_wrongly_typed_arguments_are_domain_errors(self, call):
        with pytest.raises(InvariantViolationError) as excinfo:
            call(small_analysis().pmf_diseased)
        assert excinfo.value.code == "invariant-violation"
