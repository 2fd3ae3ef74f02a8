import csv
import io as _stdio
import json
import math
from pathlib import Path

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


def reference_load_cohort(path, schema=None):
    """The whole-file loader that the streaming one replaced, kept verbatim
    as the oracle for ``test_matches_the_reference_loader``."""
    schema = schema or CohortFileSchema()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        rows = list(csv.reader(_stdio.StringIO(text), delimiter=schema.delimiter))
    except csv.Error as exc:
        raise ParseError(f"{path} is not a readable CSV: {exc}") from exc
    rows = [row for row in rows if any(field.strip() for field in row)]
    if schema.has_header:
        if not rows:
            raise EmptyInputError(f"{path} has no rows")
        header = [h.strip() for h in rows[0]]
        for column in (schema.score_column, schema.outcome_column):
            if column not in header:
                raise SchemaError(f"missing column '{column}' in {path}")
        score_idx = header.index(schema.score_column)
        outcome_idx = header.index(schema.outcome_column)
        data = rows[1:]
    else:
        score_idx, outcome_idx = 0, 1
        data = rows
    if not data:
        raise EmptyInputError(f"{path} has no data rows")

    scores = []
    outcomes = []
    needed = max(score_idx, outcome_idx) + 1
    for rownum, row in enumerate(data, start=1):
        if len(row) < needed:
            raise ParseError(
                f"row {rownum}: expected at least {needed} fields, got {len(row)}"
            )
        raw_score = row[score_idx].strip()
        try:
            score = float(raw_score)
        except ValueError:
            raise ParseError(
                f"row {rownum}: score {raw_score!r} is not a number"
            ) from None
        if not math.isfinite(score):
            raise ParseError(f"row {rownum}: score {raw_score!r} is not finite")
        raw_outcome = row[outcome_idx].strip()
        if raw_outcome not in ("0", "1"):
            raise ParseError(
                f"row {rownum}: outcome must be 0 or 1, got {raw_outcome!r}"
            )
        scores.append(score)
        outcomes.append(int(raw_outcome))
    del text, rows, data  # freed before the arrays, which skip Cohort's list scan
    return Cohort(np.array(scores, dtype=np.float64), np.array(outcomes, dtype=np.int64))


def load_outcome(loader, path, schema=None):
    """What ``loader`` makes of ``path``: a cohort or a domain error."""
    try:
        return loader(path, schema)
    except ScaleSenseError as exc:
        return exc


# Messages that quote a decoder's or csv reader's position, which depends on
# how much of the file was read at once.
WHOLE_FILE_FAULTS = ("is not UTF-8 text", "is not a readable CSV")

# Raw bytes, CSV-alphabet text, and ``score,outcome`` rows of arbitrary text.
CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet='score,utcme01.5-e"\n\r\x00 \tnaif\xe9', max_size=200)
    .map(lambda text: text.encode("utf-8")),
    st.lists(st.tuples(st.text(max_size=8), st.text(max_size=4)), max_size=6).map(
        lambda rows: b"score,outcome\n"
        + "".join(f"{a},{b}\n" for a, b in rows).encode("utf-8")
    ),
)


@st.composite
def mostly_valid_files(draw):
    """Cohort files whose rows mostly parse, as bytes with their schema.

    Half the files mix in odd tokens near the edge of what ``float`` and the
    outcome check accept: ``1_0``, ``+2`` and a quoted ``"3"`` are scores,
    ``nan`` is not; `` 1`` is an outcome once stripped, ``1.0`` and ``01``
    are not.  Headers may pad their names or put the outcome column first.
    """
    score = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    outcome = st.sampled_from(["0", "1"])
    if draw(st.booleans()):
        score = score | st.sampled_from(["nan", "1_0", "+2", '"3"'])
        outcome = st.sampled_from(["0", "1", " 1", "1.0", "01"])
    delimiter = draw(st.sampled_from([",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    has_header = draw(st.booleans())
    rows = draw(st.lists(st.tuples(score, outcome), max_size=8))
    header = draw(
        st.sampled_from([("score", "outcome"), (" score", "outcome "), ("outcome", "score")])
    )
    if has_header and header[0] == "outcome":
        rows = [row[::-1] for row in rows]
    lines = [header] * has_header + rows
    text = "".join(delimiter.join(line) + newline for line in lines)
    schema = CohortFileSchema(delimiter=delimiter, has_header=has_header)
    return text.encode("utf-8"), schema


class TestCohortFileSchema:
    def test_rejects_identical_columns(self):
        with pytest.raises(InvariantViolationError):
            CohortFileSchema(score_column="x", outcome_column="x")

    def test_rejects_multichar_delimiter(self):
        with pytest.raises(InvariantViolationError):
            CohortFileSchema(delimiter=";;")

    @pytest.mark.parametrize(
        "fields",
        [
            {"delimiter": "\n"},
            {"delimiter": "\r"},
            {"score_column": " s"},
            {"outcome_column": "o "},
        ],
        ids=["newline-delimiter", "return-delimiter", "padded-score", "padded-outcome"],
    )
    def test_rejects_layouts_that_would_not_read_back(self, fields):
        with pytest.raises(InvariantViolationError):
            CohortFileSchema(**fields)


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

    @given(CSV_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_load_or_fail_cleanly(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "cohort.csv"
        path.write_bytes(data)
        try:
            cohort = load_cohort(path)
        except ScaleSenseError:
            return
        assert isinstance(cohort, Cohort)

    @given(st.one_of(CSV_BYTES.map(lambda data: (data, None)), mostly_valid_files()))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_reference_loader(self, tmp_path_factory, case):
        data, schema = case
        path = tmp_path_factory.mktemp("diff") / "cohort.csv"
        path.write_bytes(data)
        got = load_outcome(load_cohort, path, schema)
        want = load_outcome(reference_load_cohort, path, schema)
        if isinstance(want, Cohort):
            assert isinstance(got, Cohort), got
            assert got.scores.dtype == want.scores.dtype
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.outcomes.tobytes() == want.outcomes.tobytes()
            return
        assert isinstance(got, ScaleSenseError), got
        if "is not UTF-8 text" in str(want) and got.code == "schema-error":
            # Two faults: a bad header, read first now, and bytes further on
            # that do not decode.  Without those bytes the old loader agrees.
            path.write_bytes(data.decode("utf-8", "replace").encode("utf-8"))
            assert load_outcome(reference_load_cohort, path, schema).code == got.code
            return
        assert got.code == want.code
        if not any(fault in str(want) for fault in WHOLE_FILE_FAULTS):
            assert str(got) == str(want)

    @pytest.mark.parametrize(
        "data",
        [
            b"score,label\n" + b"1" * 131073 + b",0\n",
            b"score,label\n" + b"1,0\n" * 3000 + b"\xff,0\n",
            b"score,label\n1,0\n\xc3",
        ],
        ids=["field-over-csv-limit", "bad-byte-past-first-chunk", "truncated-at-end"],
    )
    def test_first_fault_in_reading_order_wins(self, tmp_path, data):
        path = tmp_path / "cohort.csv"
        path.write_bytes(data)
        assert load_outcome(reference_load_cohort, path).code == "parse-error"
        assert load_outcome(load_cohort, path).code == "schema-error"

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


# (document, JSON path, value put there, error code read_report must raise)
MALFORMED_REPORTS = [
    (sweep_document, ("schema_version",), "99", "schema-error"),
    (sweep_document, ("payload", "reps"), -5, "empty-experiment"),
    (sweep_document, ("payload", "spec", "seed"), 1.9, "spec-validation-error"),
    (sweep_document, ("provenance", "seed"), "x", "invariant-violation"),
    (sweep_document, ("payload", "records"), None, "schema-error"),
    (sweep_document, ("payload", "k_values"), 5, "schema-error"),
    (sweep_document, ("payload", "records", 0, "k"), "abc", "invariant-violation"),
    (sweep_document, ("payload", "records", 0, "mean_se"), "x", "invariant-violation"),
    # k_values are (4, 2, 3): n=3 leaves k=4 above n; record 1 has k=2.
    (sweep_document, ("payload", "spec", "n"), 3, "invalid-class-count"),
    (sweep_document, ("payload", "k_values", 0), 500, "invalid-class-count"),
    (sweep_document, ("payload", "records", 1, "mean_c"), 9.0, "invariant-violation"),
    # An empty class ladder, which no sweep writes.
    (sweep_document, ("payload",),
     {"kind": "partition_sweep", "spec": {"n": 120, "prevalence": 0.3, "mu_healthy": 0.0,
      "mu_diseased": 1.0, "sigma": 1.0, "seed": 5}, "criterion": "youden", "reps": 3,
      "k_values": [], "records": []},
     "empty-experiment"),
    # k=4: a partition, pmf, ROC list or threshold that disagrees with it.
    (analysis_document, ("payload", "partition"), {"k": 2, "boundaries": [0.0]},
     "invariant-violation"),
    (analysis_document, ("payload", "pmf_diseased"), [1.0], "invariant-violation"),
    (analysis_document, ("payload", "pmf_healthy"), [0.5, 0.5], "invariant-violation"),
    (analysis_document, ("payload", "roc_points"), [[1.0, 1.0], [0.0, 0.0]],
     "invariant-violation"),
    (analysis_document, ("payload", "summary", "c"), 5, "invariant-violation"),
]


def malformed_report_id(make, path, value, code):
    """``path-value-code``, led by ``analysis/`` for the analysis report."""
    lead = "analysis/" if make is analysis_document else ""
    shown = value if isinstance(value, (str, int, float, type(None))) else type(value).__name__
    return f"{lead}{'/'.join(map(str, path))}-{shown}-{code}"


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

    @pytest.mark.parametrize(
        "document", [None, "report", Provenance(seed=1, tool_version="0.1.0")],
        ids=["none", "text", "provenance"],
    )
    def test_only_report_documents_are_written(self, tmp_path, document):
        path = tmp_path / "r.json"
        with pytest.raises(SchemaError):
            write_report(document, path)
        assert not path.exists()

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            write_report(sweep_document(), tmp_path / "r.xml", "xml")

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_report(path)

    @pytest.mark.parametrize(
        "data", [b'{"schema_version": "\xff"}', b"[" * 100_000], ids=["not-utf8", "deep"]
    )
    def test_unreadable_json_is_a_parse_error(self, tmp_path, data):
        path = tmp_path / "r.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            read_report(path)

    def test_missing_keys_are_schema_errors(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema_version": "1"}))
        with pytest.raises(SchemaError):
            read_report(path)

    @pytest.mark.parametrize(
        "make, path, value, code",
        MALFORMED_REPORTS,
        ids=[malformed_report_id(*case) for case in MALFORMED_REPORTS],
    )
    def test_malformed_values_are_domain_errors(self, tmp_path, make, path, value, code):
        body = mutate(report_body(make(), tmp_path), path, value)
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
            mean_c=1.0 + stats[4] * (k - 1),
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
