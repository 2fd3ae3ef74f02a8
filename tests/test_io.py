import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesense import (
    Cohort,
    CohortFileSchema,
    CohortSpec,
    EmptyInputError,
    ExperimentReport,
    FileIOError,
    InvariantViolationError,
    ParseError,
    Provenance,
    ReportDocument,
    ScaleSenseError,
    SchemaError,
    SweepRecord,
    ThresholdCriterion,
    analyze_cohort,
    estimate_conditional_pmfs,
    discretize,
    load_cohort,
    read_report,
    run_partition_sweep,
    write_cohort,
    write_report,
)


def write(tmp_path, text, name="cohort.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCohortFileSchema:
    def test_rejects_identical_columns(self):
        with pytest.raises(InvariantViolationError):
            CohortFileSchema(score_column="x", outcome_column="x")

    def test_rejects_multichar_delimiter(self):
        with pytest.raises(InvariantViolationError):
            CohortFileSchema(delimiter=";;")


class TestLoadCohort:
    def test_reads_a_minimal_file(self, tmp_path):
        path = write(tmp_path, "score,outcome\n1.5,0\n2.5,1\n")
        cohort = load_cohort(path)
        assert cohort.scores.tolist() == [1.5, 2.5]
        assert cohort.outcomes.tolist() == [0, 1]

    def test_extra_columns_are_ignored(self, tmp_path):
        path = write(tmp_path, "id,score,outcome\na,1.0,0\nb,2.0,1\n")
        cohort = load_cohort(path)
        assert cohort.scores.tolist() == [1.0, 2.0]

    def test_headerless_files_use_positional_columns(self, tmp_path):
        path = write(tmp_path, "1.0,0\n2.0,1\n")
        cohort = load_cohort(path, CohortFileSchema(has_header=False))
        assert len(cohort) == 2

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "score;outcome\n1.0;0\n2.0;1\n")
        cohort = load_cohort(path, CohortFileSchema(delimiter=";"))
        assert len(cohort) == 2

    def test_bad_outcome_names_the_row(self, tmp_path):
        path = write(tmp_path, "score,outcome\n1.0,0\n2.0,1\n3.0,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_cohort(path)

    def test_bad_score_names_the_row(self, tmp_path):
        path = write(tmp_path, "score,outcome\n1.0,0\noops,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_cohort(path)

    def test_non_finite_scores_are_rejected(self, tmp_path):
        path = write(tmp_path, "score,outcome\nnan,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_cohort(path)
        path = write(tmp_path, "score,outcome\n1e999,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_cohort(path)

    def test_short_rows_are_rejected(self, tmp_path):
        path = write(tmp_path, "score,outcome\n1.0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_cohort(path)

    def test_missing_column_names_the_column(self, tmp_path):
        path = write(tmp_path, "score,label\n1.0,0\n")
        with pytest.raises(SchemaError, match="outcome"):
            load_cohort(path)

    def test_empty_data_is_rejected(self, tmp_path):
        path = write(tmp_path, "score,outcome\n")
        with pytest.raises(EmptyInputError):
            load_cohort(path)
        path = write(tmp_path, "")
        with pytest.raises(EmptyInputError):
            load_cohort(path)

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(FileIOError):
            load_cohort(tmp_path / "nope.csv")

    @pytest.mark.parametrize(
        "data",
        [
            b"score,outcome\n1.0,0\n\xff\xfe,1\n",
            b"score,outcome\n" + b"1" * 131073 + b",0\n",
        ],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_bytes_are_parse_errors(self, tmp_path, data):
        path = tmp_path / "cohort.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as excinfo:
            load_cohort(path)
        assert excinfo.value.code == "parse-error"

    @given(
        st.one_of(
            st.binary(max_size=200),
            st.text(alphabet='score,utcme01.5-e"\n\r\x00 \tnaif\xe9', max_size=200)
            .map(lambda text: text.encode("utf-8")),
            st.lists(
                st.tuples(st.text(max_size=8), st.text(max_size=4)), max_size=6
            ).map(
                lambda rows: b"score,outcome\n"
                + "".join(f"{a},{b}\n" for a, b in rows).encode("utf-8")
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_load_or_fail_cleanly(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "cohort.csv"
        path.write_bytes(data)
        try:
            cohort = load_cohort(path)
        except ScaleSenseError:
            return
        assert isinstance(cohort, Cohort)

    def test_pipeline_from_file_reproduces_known_pmf(self, tmp_path):
        path = write(
            tmp_path,
            "score,outcome\n10,1\n20,0\n30,1\n40,0\n50,1\n60,0\n",
        )
        cohort = load_cohort(path)
        _, assignment = discretize(cohort, 3)
        pmf1, _ = estimate_conditional_pmfs(assignment, cohort)
        np.testing.assert_allclose(pmf1.probs, (1 / 3, 1 / 3, 1 / 3), rtol=0, atol=0)


class TestWriteCohort:
    def test_round_trip_is_exact(self, tmp_path):
        cohort = Cohort(
            scores=[0.1 + 0.2, 1e-17, -3.5, 12345.6789, 2.0**-1040],
            outcomes=[0, 1, 0, 1, 1],
        )
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        back = load_cohort(path)
        assert np.array_equal(back.scores, cohort.scores)
        assert np.array_equal(back.outcomes, cohort.outcomes)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact_for_arbitrary_floats(self, tmp_path_factory, rows):
        cohort = Cohort(
            scores=[r[0] for r in rows], outcomes=[r[1] for r in rows]
        )
        path = tmp_path_factory.mktemp("rt") / "c.csv"
        write_cohort(cohort, path)
        back = load_cohort(path)
        assert np.array_equal(back.scores, cohort.scores)

    def test_headerless_write_reads_back(self, tmp_path):
        schema = CohortFileSchema(has_header=False)
        cohort = Cohort(scores=[1.0, 2.0], outcomes=[0, 1])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path, schema)
        assert load_cohort(path, schema).scores.tolist() == [1.0, 2.0]


def sweep_document():
    spec = CohortSpec(
        n=120, prevalence=0.3, mu_healthy=0.0, mu_diseased=1.0, sigma=1.0, seed=5
    )
    report = run_partition_sweep(spec, k_values=(4, 2, 3), reps=3)
    return ReportDocument(
        schema_version="1",
        provenance=Provenance(seed=5, tool_version="0.1.0"),
        payload=report,
    )


def analysis_document():
    rng = np.random.default_rng(11)
    scores = np.concatenate([rng.normal(0, 1, 30), rng.normal(1, 1, 30)])
    outcomes = np.repeat([0, 1], 30)
    return ReportDocument(
        schema_version="1",
        provenance=Provenance(seed=None, tool_version="0.1.0", timestamp="t0"),
        payload=analyze_cohort(Cohort(scores=scores, outcomes=outcomes), 4),
    )


def report_body(document, tmp_path):
    path = tmp_path / "source.json"
    write_report(document, path)
    return json.loads(path.read_text())


def json_paths(node, prefix=()):
    """Every position in a decoded JSON tree, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def mutate(body, path, value=None, drop=False):
    body = json.loads(json.dumps(body))
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return body


def same_json(rewritten, original):
    """Equal JSON trees, down to key order and float bits, except that an
    integer in a float field reads back as the equal float."""
    if type(original) is int and type(rewritten) is float:
        return rewritten == float(original)
    if type(rewritten) is not type(original):
        return False
    if isinstance(original, dict):
        return list(rewritten) == list(original) and all(
            same_json(rewritten[key], original[key]) for key in original
        )
    if isinstance(original, list):
        return len(rewritten) == len(original) and all(
            map(same_json, rewritten, original)
        )
    return repr(rewritten) == repr(original)


JSON_REPLACEMENTS = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.booleans(),
    st.floats(),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9),
    st.lists(st.one_of(st.integers(), st.floats(), st.none()), max_size=3),
)


class TestReports:
    def test_json_round_trip_of_a_sweep(self, tmp_path):
        document = sweep_document()
        path = tmp_path / "r.json"
        write_report(document, path)
        assert read_report(path) == document

    def test_json_round_trip_of_an_analysis(self, tmp_path, rng):
        scores = np.concatenate([rng.normal(0, 1, 30), rng.normal(1, 1, 30)])
        outcomes = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
        cohort = Cohort(scores=scores, outcomes=outcomes)
        document = ReportDocument(
            schema_version="1",
            provenance=Provenance(seed=None, tool_version="0.1.0"),
            payload=analyze_cohort(cohort, 5),
        )
        path = tmp_path / "a.json"
        write_report(document, path)
        assert read_report(path) == document

    def test_json_keys_and_kind(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(sweep_document(), path)
        body = json.loads(path.read_text())
        assert set(body) == {"schema_version", "provenance", "payload"}
        assert set(body["provenance"]) == {"seed", "tool_version", "timestamp"}
        assert body["provenance"]["timestamp"] is None
        assert body["payload"]["kind"] == "partition_sweep"

    def test_writes_are_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(sweep_document(), p1)
        write_report(sweep_document(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_flat_csv_shape_and_order(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(sweep_document(), path, "flat-csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "k,mean_se,sd_se,mean_sp,sd_sp,mean_c"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [2, 3, 4]
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_flat_csv_rejects_analysis_payloads(self, tmp_path, rng):
        scores = np.concatenate([rng.normal(0, 1, 20), rng.normal(1, 1, 20)])
        outcomes = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
        document = ReportDocument(
            schema_version="1",
            provenance=Provenance(seed=None, tool_version="0.1.0"),
            payload=analyze_cohort(Cohort(scores=scores, outcomes=outcomes), 3),
        )
        with pytest.raises(SchemaError):
            write_report(document, tmp_path / "r.csv", "flat-csv")

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            write_report(sweep_document(), tmp_path / "r.xml", "xml")

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_report(path)

    def test_missing_keys_are_schema_errors(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema_version": "1"}))
        with pytest.raises(SchemaError):
            read_report(path)

    @pytest.mark.parametrize(
        "path, value, code",
        [
            (("schema_version",), "99", "schema-error"),
            (("payload", "reps"), -5, "empty-experiment"),
            (("payload", "spec", "seed"), 1.9, "spec-validation-error"),
            (("provenance", "seed"), "x", "invariant-violation"),
            (("payload", "records"), None, "schema-error"),
            (("payload", "k_values"), 5, "schema-error"),
            (("payload", "records", 0, "k"), "abc", "invariant-violation"),
            (("payload", "records", 0, "mean_se"), "x", "invariant-violation"),
        ],
        ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_malformed_values_are_domain_errors(self, tmp_path, path, value, code):
        body = mutate(report_body(sweep_document(), tmp_path), path, value)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(body))
        with pytest.raises(ScaleSenseError) as excinfo:
            read_report(target)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("make", [sweep_document, analysis_document])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_reports_fail_cleanly_or_round_trip(
        self, tmp_path_factory, make, data
    ):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        original = report_body(make(), tmp_path)
        path = data.draw(st.sampled_from(list(json_paths(original))[1:]))
        if isinstance(path[-1], str) and data.draw(st.booleans()):
            body = mutate(original, path, drop=True)
        else:
            body = mutate(original, path, data.draw(JSON_REPLACEMENTS))
        source, rewrite = tmp_path / "mutated.json", tmp_path / "rewrite.json"
        source.write_text(json.dumps(body, indent=2) + "\n")
        try:
            document = read_report(source)
        except ScaleSenseError:
            return
        write_report(document, rewrite)
        if source.read_bytes() != rewrite.read_bytes():
            assert same_json(json.loads(rewrite.read_text()), body)

    def test_unknown_kind_is_a_schema_error(self, tmp_path):
        body = {
            "schema_version": "1",
            "provenance": {"seed": 1, "tool_version": "x", "timestamp": None},
            "payload": {"kind": "mystery"},
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(body))
        with pytest.raises(SchemaError):
            read_report(path)

    @given(
        st.integers(2, 50),
        st.integers(0, 2**64 - 1),
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_for_arbitrary_records(
        self, tmp_path_factory, k, seed, stats
    ):
        record = SweepRecord(
            k=k,
            mean_se=stats[0],
            sd_se=stats[1],
            mean_sp=stats[2],
            sd_sp=stats[3],
            mean_c=1.0 + stats[4] * k,
        )
        spec = CohortSpec(
            n=100, prevalence=0.5, mu_healthy=-1.0, mu_diseased=1.0, sigma=2.0,
            seed=seed,
        )
        document = ReportDocument(
            schema_version="1",
            provenance=Provenance(seed=seed, tool_version="0.1.0"),
            payload=ExperimentReport(
                spec=spec,
                criterion=ThresholdCriterion.SE_SP_PRODUCT,
                reps=1,
                k_values=(k,),
                records=(record,),
            ),
        )
        path = tmp_path_factory.mktemp("rr") / "r.json"
        write_report(document, path)
        assert read_report(path) == document
