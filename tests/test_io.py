import csv
import decimal
import hashlib
import io as _stdio
import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesense import (
    Cohort,
    CohortFileSchema,
    CohortSpec,
    ConditionalPMF,
    EmptyInputError,
    ExperimentReport,
    FileIOError,
    InvariantViolationError,
    Outcome,
    ParseError,
    PartitionSpec,
    Provenance,
    ReportDocument,
    ScaleAnalysis,
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
from scalesense import io as scalesense_io
from scalesense.core import _shown


def write(tmp_path, text, name="cohort.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def reference_load_cohort(path, schema=None):
    """The whole-file loader that the streaming one replaced, kept as the
    oracle for ``test_matches_the_reference_loader``; it echoes a bad value
    through ``_shown``, as the streaming loader does."""
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
                f"row {rownum}: score {_shown(raw_score)} is not a number"
            ) from None
        if not math.isfinite(score):
            raise ParseError(f"row {rownum}: score {_shown(raw_score)} is not finite")
        raw_outcome = row[outcome_idx].strip()
        if raw_outcome not in ("0", "1"):
            raise ParseError(
                f"row {rownum}: outcome must be 0 or 1, got {_shown(raw_outcome)}"
            )
        scores.append(score)
        outcomes.append(int(raw_outcome))
    del text, rows, data  # freed before the arrays, which skip Cohort's list scan
    return Cohort(np.array(scores, dtype=np.float64), np.array(outcomes, dtype=np.int64))


def reference_write_cohort(cohort, path, schema=None):
    """The ``csv.writer`` cohort writer that the joined rows replaced, kept
    as the oracle for ``test_matches_the_reference_writer``."""
    schema = schema or CohortFileSchema()
    with Path(path).open("w", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=schema.delimiter, lineterminator="\n")
        if schema.has_header:
            writer.writerow([schema.score_column, schema.outcome_column])
        writer.writerows(zip(map(repr, cohort.scores.tolist()), cohort.outcomes.tolist()))


def reference_report_text(document):
    """The ``json`` encoder's text of a report, which the report writer
    replaced and must reproduce byte for byte."""
    return json.dumps(document, indent=2, default=scalesense_io._encode) + "\n"


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
    Blank and whitespace-only rows may come before the header and between
    data rows, so a fault's row number counts past the rows skipped.
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
    lines = [delimiter.join(line) for line in [header] * has_header + rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", "  ", f" {delimiter} "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    text = "".join(line + newline for line in lines)
    schema = CohortFileSchema(delimiter=delimiter, has_header=has_header)
    return text.encode("utf-8"), schema


# What a cohort row can hold besides its delimiter and newline: a quote, which
# csv would escape, and the characters of a finite float's repr and of 0/1.
ROW_CHARS = '"0123456789.+-e'

# Delimiters of plain cohort files, which :func:`load_cohort` may parse in bulk;
# faults to put in one of their rows (or their header); and score or column name
# lengths around both the plain path's line limit and the csv module's field limit.
PLAIN_DELIMITERS = [",", ";", "|", "\t", " "]
ROW_FAULTS = [
    "none", "unquoted-header", "nan", "infinite", "underscore", "blank-line", "quoted-score",
    "padded-outcome", "bad-outcome", "crlf", "non-ascii", "extra-field",
    "three-then-one-field", "short-line", "long-field",
]
LONG_FIELDS = [csv.field_size_limit() + offset for offset in (-3, -2, 0, 1)]

# The neighbours of 1e-4 and 1e16 sit on both sides of the points where
# orjson's float notation and float.__repr__'s part ways (see io._reprs).
SWITCH_NEIGHBOURS = tuple(
    float(np.nextafter(x, toward)) for x in (1e-4, 1e16) for toward in (0.0, math.inf)
)
SPECIAL_FLOATS = (
    -0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -1.5e-300, 1.7976931348623157e308,
    *SWITCH_NEIGHBOURS,
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
UNIT_FLOATS = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.1 + 0.2, 1.0])
# Text whose JSON needs escapes: quote, backslash, non-ASCII, a JSON-legal
# line separator and control characters.
TEXTS = st.text() | st.sampled_from(['"', "\\", "é", "\u2028", "\x00\x1f\x7f", 'a"\\é\u2028\n'])


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
            {"score_column": "a\rb"},
            {"delimiter": "\ud800"},
            {"outcome_column": "o\udfff"},
        ]
        + [{"delimiter": char} for char in ROW_CHARS]
        + [{"has_header": value} for value in ("yes", None, 1.5, 2)],
        ids=[
            "newline-delimiter", "return-delimiter", "padded-score", "padded-outcome",
            "return-in-score", "surrogate-delimiter", "surrogate-in-outcome",
        ]
        + [f"delimiter-{char}" for char in ROW_CHARS]
        + ["header-text", "header-none", "header-float", "header-int"],
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

    @pytest.mark.parametrize(
        "row",
        ["x" * 100_000 + ",1", "9" * 100_000 + ",1", "1.0," + "2" * 100_000],
        ids=["score-not-a-number", "score-not-finite", "outcome"],
    )
    def test_a_long_bad_value_is_shown_cut_short(self, tmp_path, row):
        path = write(tmp_path, f"score,outcome\n{row}\n")
        with pytest.raises(ParseError) as excinfo:
            load_cohort(path)
        assert excinfo.value.code == "parse-error"
        assert len(str(excinfo.value)) < 200

    def test_non_finite_scores_are_rejected(self, tmp_path):
        path = write(tmp_path, "score,outcome\nnan,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_cohort(path)
        path = write(tmp_path, "score,outcome\n1e999,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_cohort(path)

    @pytest.mark.parametrize("pad", ["\x1c", "\x1f", "\x0b", "\x85", "\u2028"])
    def test_scores_padded_with_any_whitespace_load_as_the_reference_loads_them(
        self, tmp_path, pad
    ):
        """``str.strip`` removes ``\\x1c`` to ``\\x1f``, which ``float`` alone refuses."""
        path = write(tmp_path, f"score,outcome\n{pad}0.5{pad},1\n2.5,0\n")
        got, want = load_cohort(path), reference_load_cohort(path)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.outcomes.tolist() == want.outcomes.tolist() == [1, 0]

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

    @pytest.mark.parametrize("read", [1, 7, 64, None], ids=lambda read: f"read-{read or 'default'}")
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_plain_path_matches_the_reference_loader_at_slice_boundaries(
        self, tmp_path_factory, read, data
    ):
        """Written cohorts with one fault at a drawn row, and maybe a valid row
        that is not plain before it, load as the reference loads them, whatever
        the read size cuts the file into."""
        delimiter = data.draw(st.sampled_from(PLAIN_DELIMITERS))
        long = data.draw(st.sampled_from(LONG_FIELDS))
        names = data.draw(st.sampled_from([
            ("score", "outcome"), (f"s{delimiter}x", "o"), ('s"x', "o"), ("s\nx", "o"),
            ("s" * long, "o"),
        ]))
        schema = CohortFileSchema(*names, delimiter=delimiter, has_header=data.draw(st.booleans()))
        rows = data.draw(st.lists(st.tuples(FLOATS, st.integers(0, 1)), min_size=1, max_size=20))
        path = tmp_path_factory.mktemp("plain") / "cohort.csv"
        cohort = Cohort(scores=[s for s, _ in rows], outcomes=[o for _, o in rows])
        write_cohort(cohort, path, schema)
        lines = path.read_text().split("\n")
        first = len(lines) - 1 - len(rows)
        row = first + data.draw(st.integers(0, len(rows) - 1))
        handover = data.draw(st.sampled_from(["none", "quoted-score", "padded-outcome"]))
        if handover != "none" and row > first:  # the row loop takes over from its slice
            before = data.draw(st.integers(first, row - 1))
            score, outcome = lines[before].rsplit(delimiter, 1)
            pad = "\t" if delimiter == " " else " "  # a valid row, not an empty field
            lines[before] = {
                "quoted-score": f'"3"{delimiter}{outcome}',
                "padded-outcome": f"{score}{delimiter}{pad}{outcome}",
            }[handover]
        score, outcome = lines[row].rsplit(delimiter, 1)
        long_score = "0" * (long - 1) + "1"
        fault = data.draw(st.sampled_from(ROW_FAULTS))
        if fault == "unquoted-header" and schema.has_header:
            lines[: -len(rows) - 1] = [delimiter.join(names)]
        lines[row] = {
            "none": lines[row],
            "unquoted-header": lines[row],
            "nan": f"nan{delimiter}{outcome}",
            "infinite": f"1e999{delimiter}{outcome}",
            "underscore": f"1_0{delimiter}{outcome}",
            "blank-line": f"\n{lines[row]}",
            "quoted-score": f'"3"{delimiter}{outcome}',
            "padded-outcome": f"{score}{delimiter} {outcome}",
            "crlf": f"{lines[row]}\r",
            "non-ascii": f"{score}\u00a0{delimiter}{outcome}",
            "bad-outcome": f"{score}{delimiter}2",
            "extra-field": f"{score}{delimiter}{outcome}{delimiter}{outcome}",
            "three-then-one-field": f"{score}{delimiter}{outcome}{delimiter}{outcome}\n{outcome}",
            "short-line": f"{lines[row]}\n0",
            "long-field": f"{long_score}{delimiter}{outcome}",
        }[fault]
        text = "\n".join(lines)
        path.write_text(text[:-1] if data.draw(st.booleans()) else text)  # maybe no last "\n"
        with mock.patch.object(scalesense_io, "_READ", read or scalesense_io._READ):
            got = load_outcome(load_cohort, path, schema)
        want = load_outcome(reference_load_cohort, path, schema)
        if isinstance(want, Cohort):
            assert isinstance(got, Cohort), got
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.outcomes.tobytes() == want.outcomes.tobytes()
        else:
            assert isinstance(got, ScaleSenseError), got
            assert (got.code, str(got)) == (want.code, str(want))

    @pytest.mark.parametrize("length", LONG_FIELDS)
    def test_a_column_name_near_the_csv_limit_loads_as_the_reference_loads_it(
        self, tmp_path, length
    ):
        """The header is held to the csv field limit as the data lines are."""
        schema = CohortFileSchema(score_column="s" * length)
        path = tmp_path / "cohort.csv"
        write_cohort(Cohort(scores=[1.5, 2.5], outcomes=[0, 1]), path, schema)
        got = load_outcome(load_cohort, path, schema)
        want = load_outcome(reference_load_cohort, path, schema)
        assert type(got) is type(want)
        if isinstance(want, Cohort):
            assert got.scores.tolist() == want.scores.tolist() == [1.5, 2.5]
        else:
            assert (got.code, str(got)) == (want.code, str(want)) and want.code == "parse-error"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "rows", ["1.5,0\n2.5,1\n", '1.5,0\n"2.5",1\n'], ids=["plain", "quoted"]
    )
    def test_a_pipe_is_opened_once(self, tmp_path, rows):
        fifo = tmp_path / "cohort.csv"
        os.mkfifo(fifo)
        loaded = []
        threads = [
            threading.Thread(target=fifo.write_text, args=("score,outcome\n" + rows,), daemon=True),
            threading.Thread(target=lambda: loaded.append(load_cohort(fifo)), daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert loaded[0].scores.tolist() == [1.5, 2.5]

    @given(
        rows=st.lists(st.tuples(FLOATS, st.integers(0, 1)), min_size=1, max_size=30),
        delimiter=st.sampled_from(PLAIN_DELIMITERS),
        has_header=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_written_cohorts_load_without_the_row_loop(
        self, tmp_path_factory, rows, delimiter, has_header
    ):
        cohort = Cohort(scores=[s for s, _ in rows], outcomes=[o for _, o in rows])
        schema = CohortFileSchema(delimiter=delimiter, has_header=has_header)
        path = tmp_path_factory.mktemp("plain") / "cohort.csv"
        write_cohort(cohort, path, schema)
        yielded, reader = [], csv.reader

        def counted(*args, **kwargs):
            for row in reader(*args, **kwargs):
                yielded.append(row)
                yield row

        with mock.patch.object(scalesense_io.csv, "reader", counted):
            back = load_cohort(path, schema)
        assert len(yielded) <= has_header  # the header, if any
        assert back.scores.tobytes() == cohort.scores.tobytes()
        assert back.outcomes.tobytes() == cohort.outcomes.tobytes()

    def test_peak_memory_per_row_is_bounded(self, tmp_path):
        # The score and outcome arrays, grown as slices are parsed, and the
        # Cohort's copies of them: about 26 bytes per row.  Reserving rows
        # from the file size up front took about 104.
        n = 200_000
        rng = np.random.default_rng(5)
        path = tmp_path / "cohort.csv"
        write_cohort(Cohort(scores=rng.normal(size=n), outcomes=rng.integers(0, 2, n)), path)
        tracemalloc.start()
        try:
            load_cohort(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 40

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
        pmf1, _ = estimate_conditional_pmfs(discretize(cohort, 3), cohort)
        np.testing.assert_allclose(pmf1.probs, (1 / 3, 1 / 3, 1 / 3), rtol=0, atol=0)


def halfway_texts():
    """Exact decimal midpoints between neighbouring floats, and the decimals
    just above and below each: ties that must round to even, and near-ties."""
    texts = []
    with decimal.localcontext() as context:
        context.prec = 1200  # enough for every digit of a subnormal's midpoint
        for x in (1.0, 0.1, 1e22, 2.0**-1022, 5e-324, 1.7976931348623157e308 / 3):
            mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, math.inf)))) / 2
            nudge = decimal.Decimal(10) ** (mid.adjusted() - 70)
            texts += [str(mid), str(mid + nudge), str(mid - nudge)]
    return texts


def score_text_cases():
    """Score texts, by case, on which one ``orjson.loads`` of a plain slice
    and the row loop's ``float`` could part ways, each as a delimiter and the
    list of scores to write."""
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    cases = {
        "random-bit-reprs": (",", list(map(repr, bits[np.isfinite(bits)].tolist()))),
        "exponent-forms": (",", ["1E5", "1e+5", "-2.5E-3", "7e0", "0e999999"]),
        "halfway-decimals": (",", halfway_texts()),
    }
    hard = ["2.4703282292062328e-324", "2.4703282292062327e-324", "9007199254740993",
            str(2**64), str(-(2**63) - 1), "1" * 30, "1" * 400, "1e-400"]
    float_only = ["1_0", ".5", "+1", "5.", "00.5", "nan", "inf", "Infinity", "1e999",
                  "\x0b1.5", "1.5\x0b", "\x1c1.5", "1.5\x1c"]
    not_numbers = ["true", "false", "null", '"3"', "[1]", "{}"]
    negative_zeros = ["-0", "-0 ", " -0"]
    for text in hard + float_only + not_numbers + negative_zeros:
        cases[f"score-{text!r}"] = (",", ["0.5", text, "-2.25", text])
    for text in ["1,0", "[1,2]", '"1,2"']:
        cases[f"semicolons-{text!r}"] = (";", ["0.5", text, "-2.25"])
    # A comma in a score adds a JSON item and a list spanning lines takes
    # items away: here there are still two a line, and every other one is a
    # number, so only the check for commas keeps this slice from JSON.
    cases["semicolons-count-coincides"] = (";", ["1,2", "[3", "4]", "5,6"])
    return cases


class TestScoreParse:
    """A plain slice's scores, parsed by one ``orjson.loads``, are what the
    row loop's ``float`` makes of them, checked against the reference loader.
    A later orjson that parses differently fails here; its fix is a version
    pin, not a looser test."""

    @pytest.mark.parametrize("case", sorted(score_text_cases()))
    @pytest.mark.parametrize("whole", [True, False], ids=["one-slice", "slice-a-line"])
    def test_matches_the_reference_loader(self, tmp_path, case, whole):
        delimiter, scores = score_text_cases()[case]
        body = "".join(f"{score}{delimiter}{i % 2}\n" for i, score in enumerate(scores))
        path = write(tmp_path, f"score{delimiter}outcome\n{body}")
        schema = CohortFileSchema(delimiter=delimiter)
        with mock.patch.object(scalesense_io, "_READ", len(body) if whole else 1), \
                mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads:
            got = load_outcome(load_cohort, path, schema)
        want = load_outcome(reference_load_cohort, path, schema)
        assert loads.called or "semicolons" in case
        if isinstance(want, Cohort):
            assert isinstance(got, Cohort), got
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.outcomes.tobytes() == want.outcomes.tobytes()
        else:
            assert isinstance(got, ScaleSenseError), got
            assert (got.code, str(got)) == (want.code, str(want))

    def test_orjson_is_given_no_text_shorter_than_a_full_read(self, tmp_path):
        """A file's last, short slice is parsed by ``float``, so orjson never
        makes the buffer it keeps for short texts (see ``io._READ``)."""
        n = scalesense_io._READ // 8  # a few full reads and a short one
        rng = np.random.default_rng(3)
        cohort = Cohort(scores=rng.normal(size=n), outcomes=rng.integers(0, 2, n))
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        with mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads:
            back = load_cohort(path)
        lengths = [len(call.args[0]) for call in loads.call_args_list]
        assert lengths and min(lengths) > scalesense_io._READ
        assert sum(lengths) < path.stat().st_size  # the short slice went to float
        assert back.scores.tobytes() == cohort.scores.tobytes()
        assert back.outcomes.tobytes() == cohort.outcomes.tobytes()


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

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_writer(self, tmp_path_factory, data):
        """Same bytes as ``csv.writer`` for every allowed delimiter kind, with
        and without a header, and column names that ``csv`` must quote."""
        delimiter = data.draw(st.sampled_from([",", ";", "|", "\t", " ", "é"]))
        quoted = st.sampled_from([f"a{delimiter}b", 'say "x"', "x,y", "p\nq"])
        plain = st.text(min_size=1).filter(lambda name: name == name.strip() and "\r" not in name)
        names = data.draw(st.lists(quoted | plain, min_size=2, max_size=2, unique=True))
        schema = CohortFileSchema(*names, delimiter=delimiter, has_header=data.draw(st.booleans()))
        rows = data.draw(st.lists(st.tuples(FLOATS, st.integers(0, 1)), max_size=30))
        cohort = Cohort(
            scores=np.array([score for score, _ in rows], dtype=np.float64),
            outcomes=np.array([outcome for _, outcome in rows], dtype=np.int64),
        )
        folder = tmp_path_factory.mktemp("csv")
        got, want = folder / "got.csv", folder / "want.csv"
        write_cohort(cohort, got, schema)
        reference_write_cohort(cohort, want, schema)
        assert got.read_bytes() == want.read_bytes()


def float_text_cases():
    """Float64 arrays on which ``io._reprs`` must give ``float.__repr__``'s text."""
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=150_000, dtype=np.uint64).view(np.float64)
    normals = rng.normal(size=120_000) * 10.0 ** rng.integers(-8, 21, size=120_000)
    switches = [9999999999999998.0]
    for x in (1e-4, -1e-4, 1e16, -1e16):
        switches += [np.nextafter(x, 0.0), x, np.nextafter(x, math.copysign(math.inf, x))]
    tiny = [5e-324, -5e-324, 2.0**-1040, np.nextafter(2.0**-1022, 0.0), 2.0**-1022, 0.0, -0.0]
    tiny += [1.7976931348623157e308, -1.7976931348623157e308]
    pmf_like = rng.integers(0, 11, size=50_000) / 123_457.0  # below 1e-4, zeros among them
    return {
        "random-bits": bits[np.isfinite(bits)],
        "scaled-normals": normals,
        "switch-points": np.array(switches),
        "subnormals-zeros-max": np.array(tiny),
        "pmf-like": np.concatenate([pmf_like, -pmf_like[:100]]),
        "empty": np.array([], dtype=np.float64),
    }


class TestFloatText:
    """``io._reprs`` is ``float.__repr__`` element by element.  A later orjson
    whose float text changes fails here; its fix is a version pin, not a
    looser test."""

    @pytest.mark.parametrize("case", sorted(float_text_cases()))
    def test_matches_float_repr(self, case):
        values = float_text_cases()[case]
        assert scalesense_io._reprs(values) == list(map(float.__repr__, values.tolist()))


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
    (sweep_document, ("payload", "records", 0, "k"), "abc", "invariant-violation"),
    (sweep_document, ("payload", "records", 0, "mean_se"), "x", "invariant-violation"),
    # k_values are (4, 2, 3): n=3 leaves k=4 above n; record 1 has k=2.
    (sweep_document, ("payload", "spec", "n"), 3, "invalid-class-count"),
    # A class ladder that disagrees with the records' k, from which it is derived.
    (sweep_document, ("payload", "k_values"), 5, "invariant-violation"),
    (sweep_document, ("payload", "k_values", 0), 500, "invariant-violation"),
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
    # Derived keys that disagree with the pmfs, criterion or boundaries they derive from:
    # the true operating point at c=1 where the chosen cut is c=4, one ROC coordinate
    # moved, the last point's 0.0 written as -0.0, and k=3 with 3 boundaries.
    (analysis_document, ("payload", "summary"),
     {"c": 1, "se": 1.0, "sp": 0.0, "criterion_value": 0.0}, "invariant-violation"),
    (analysis_document, ("payload", "roc_points", 2, 1), 0.75, "invariant-violation"),
    (analysis_document, ("payload", "roc_points", 4, 0), -0.0, "invariant-violation"),
    (analysis_document, ("payload", "partition", "k"), 3, "invariant-violation"),
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


PROVENANCES = st.builds(
    Provenance, seed=st.none() | st.integers(0, 2**64 - 1), tool_version=TEXTS,
    timestamp=st.none() | TEXTS,
)


@st.composite
def sweep_documents(draw):
    """Sweep report documents of arbitrary finite floats and provenance text."""
    n = draw(st.integers(2, 10**6))
    mu_healthy, mu_diseased = sorted(draw(st.lists(FLOATS, min_size=2, max_size=2, unique=True)))
    spec = CohortSpec(
        n=n,
        prevalence=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        mu_healthy=mu_healthy,
        mu_diseased=mu_diseased,
        sigma=draw(FLOATS.filter(lambda sigma: sigma > 0.0)),
        seed=draw(st.integers(0, 2**63)),
    )
    k_values = draw(st.lists(st.integers(2, n), min_size=1, max_size=4))
    records = tuple(
        SweepRecord(
            k=k,
            mean_se=draw(UNIT_FLOATS),
            sd_se=abs(draw(FLOATS)),
            mean_sp=draw(UNIT_FLOATS),
            sd_sp=abs(draw(FLOATS)),
            mean_c=draw(st.floats(1.0, k)),
        )
        for k in k_values
    )
    payload = ExperimentReport(
        spec=spec,
        criterion=draw(st.sampled_from(ThresholdCriterion)),
        reps=draw(st.integers(1, 10**6)),
        records=records,
    )
    return ReportDocument("1", draw(PROVENANCES), payload)


@st.composite
def analysis_documents(draw):
    """Single-cohort report documents of arbitrary finite floats, ``k`` of 1 to 6."""
    k = draw(st.integers(1, 6))
    small = st.floats(0.0, 1.0 / k) | st.sampled_from([-0.0, 0.0, 5e-324, 1e-05])

    def pmf(outcome):
        head = draw(st.lists(small, min_size=k - 1, max_size=k - 1))
        probs = tuple(head) + (1.0 - math.fsum(head),)
        return ConditionalPMF(probs=probs, conditioning_outcome=outcome)

    boundaries = sorted(draw(st.lists(FLOATS, min_size=k - 1, max_size=k - 1)))
    payload = ScaleAnalysis(
        criterion=draw(st.sampled_from(ThresholdCriterion)),
        partition=PartitionSpec(boundaries=boundaries),
        pmf_diseased=pmf(Outcome.DISEASED),
        pmf_healthy=pmf(Outcome.HEALTHY),
    )
    return ReportDocument("1", draw(PROVENANCES), payload)


# sha256 of write_report's bytes for sweep_document() and analysis_document()
REPORT_SHA256 = {
    "sweep": "263fb37bd3358356c4bda7ce17b3dd97910fd8e0b3827e77b62282acd66ecbf9",
    "analysis": "5760a4c07df7e21b44dc522b4594d39b538acc5ea7e3b6991f80c17293c9e09c",
}


class TestReports:
    @given(st.one_of(sweep_documents(), analysis_documents()), st.sampled_from([1, 2, 3, 4096]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_json_encoder(self, tmp_path_factory, document, slice_items):
        """Byte for byte the text of ``json.dump(..., indent=2)``, however the
        report's lists fall into slices."""
        path = tmp_path_factory.mktemp("json") / "r.json"
        with mock.patch.object(scalesense_io, "_SLICE", slice_items):
            write_report(document, path)
        assert path.read_bytes() == reference_report_text(document).encode("utf-8")

    @given(
        st.integers(0, 4).flatmap(
            lambda size: st.lists(st.lists(FLOATS, min_size=size, max_size=size), max_size=9)
        ),
        st.booleans(),
        st.sampled_from([1, 2, 3, 4096]),
    )
    @settings(max_examples=300, deadline=None)
    def test_lists_of_float_lists_match_the_json_encoder(self, rows, as_tuples, slice_items):
        """Rows of as many floats each, as ROC points are, however they fall into slices."""
        rows = [tuple(row) for row in rows] if as_tuples else rows
        parts = []
        with mock.patch.object(scalesense_io, "_SLICE", slice_items):
            scalesense_io._dump(rows, parts.append)
        assert "".join(parts) == json.dumps(rows, indent=2)

    def test_lists_longer_than_a_slice_match_the_json_encoder(self, tmp_path):
        rng = np.random.default_rng(3)
        cohort = Cohort(scores=rng.normal(size=20_000), outcomes=rng.integers(0, 2, 20_000))
        k = 2 * scalesense_io._SLICE + 3
        document = ReportDocument(
            "1", Provenance(seed=3, tool_version="0.1.0"), analyze_cohort(cohort, k)
        )
        path = tmp_path / "r.json"
        write_report(document, path)
        assert path.read_text(encoding="utf-8") == reference_report_text(document)

    def test_a_report_of_pmf_entries_below_1e_4_matches_the_json_encoder(self, tmp_path):
        """At the fine-partition end every pmf entry is a small count over
        ``n1`` or ``n0``, below 1e-4 and repeated, however the lists fall
        into slices."""
        rng = np.random.default_rng(23)
        outcomes = rng.permutation(np.repeat([0, 1], 22_000))
        cohort = Cohort(scores=rng.normal(outcomes, 1.0), outcomes=outcomes)
        document = ReportDocument(
            "1", Provenance(seed=23, tool_version="0.1.0"), analyze_cohort(cohort, 22_000)
        )
        probs = document.payload.pmf_diseased.probs + document.payload.pmf_healthy.probs
        assert max(probs) < 1e-4
        want = reference_report_text(document).encode("utf-8")
        for slice_items in (1, 7, 4096):
            path = tmp_path / f"r{slice_items}.json"
            with mock.patch.object(scalesense_io, "_SLICE", slice_items):
                write_report(document, path)
            assert path.read_bytes() == want
        assert read_report(path) == document

    @pytest.mark.parametrize("kind", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, tmp_path, kind):
        document = {"sweep": sweep_document, "analysis": analysis_document}[kind]()
        path = tmp_path / "r.json"
        write_report(document, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[kind]
        assert path.read_text(encoding="utf-8") == reference_report_text(document)

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

    @pytest.mark.parametrize("version", ["99", 99, None], ids=["text", "integer", "none"])
    def test_a_document_of_another_version_cannot_be_built(self, version):
        """So write_report cannot write a version read_report refuses."""
        document = sweep_document()
        with pytest.raises(SchemaError) as excinfo:
            ReportDocument(version, document.provenance, document.payload)
        assert excinfo.value.code == "schema-error"

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**5000], ids=["negative", "2**64", "huge"])
    def test_a_provenance_seed_outside_the_seed_range_is_refused(self, seed):
        with pytest.raises(InvariantViolationError) as excinfo:
            Provenance(seed=seed, tool_version="0.1.0")
        assert excinfo.value.code == "invariant-violation"

    @pytest.mark.parametrize(
        "change, code",
        [
            (lambda report: replace(report, spec=replace(report.spec, n=10**5000)),
             "spec-validation-error"),
            (lambda report: replace(report, reps=10**5000), "empty-experiment"),
        ],
        ids=["n", "reps"],
    )
    def test_sizes_json_cannot_write_are_refused_before_writing(self, change, code):
        """Integers past Python's 4300-digit limit would fail inside json.dumps."""
        with pytest.raises(ScaleSenseError) as excinfo:
            change(sweep_document().payload)
        assert excinfo.value.code == code

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

    @pytest.mark.parametrize("key", ["roc_points", "summary"])
    def test_a_derived_key_nested_near_the_recursion_limit_fails_cleanly(self, tmp_path, key):
        """Nesting that ``json.loads`` may read but checking the key may not."""
        text = json.dumps(mutate(report_body(analysis_document(), tmp_path), ("payload", key), "X"))
        limit = sys.getrecursionlimit()
        target = tmp_path / "deep.json"
        for depth in range(limit - 60, limit + 1):
            target.write_text(text.replace('"X"', "[" * depth + "]" * depth))
            with pytest.raises(ScaleSenseError):
                read_report(target)

    @pytest.mark.parametrize(
        "path", [("schema_version",), ("payload", "records", 0, "k")], ids=["version", "record"]
    )
    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, path):
        """``json.loads`` refuses it with a plain ValueError, not a JSONDecodeError."""
        text = json.dumps(mutate(report_body(sweep_document(), tmp_path), path, "X"))
        target = tmp_path / "long.json"
        target.write_text(text.replace('"X"', "1" * 5000))
        with pytest.raises(ParseError):
            read_report(target)

    def test_missing_keys_are_schema_errors(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema_version": "1"}))
        with pytest.raises(SchemaError):
            read_report(path)

    @pytest.mark.parametrize(
        "path, value",
        [(("payload", "criterion"), "x" * 100_000), (("payload", "kind"), ["x"] * 50_000)],
        ids=["criterion", "payload-kind"],
    )
    def test_a_long_bad_value_is_shown_cut_short(self, tmp_path, path, value):
        body = mutate(report_body(sweep_document(), tmp_path), path, value)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(body))
        with pytest.raises(SchemaError) as excinfo:
            read_report(target)
        assert excinfo.value.code == "schema-error"
        assert len(str(excinfo.value)) < 200

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
                records=(record,),
            ),
        )
        path = tmp_path_factory.mktemp("rr") / "r.json"
        write_report(document, path)
        assert read_report(path) == document


class BytesPath:
    def __fspath__(self):
        return b"cohort.csv"


PATH_FUNCTIONS = {
    "load_cohort": load_cohort,
    "write_cohort": lambda path: write_cohort(Cohort(scores=[1.0, 2.0], outcomes=[0, 1]), path),
    "write_report": lambda path: write_report(sweep_document(), path),
    "read_report": read_report,
}


class TestPathArguments:
    @pytest.mark.parametrize("function", PATH_FUNCTIONS)
    @pytest.mark.parametrize(
        "path",
        [None, 1.5, object(), True, b"cohort.csv", BytesPath(), "cohort\0.csv",
         "cohort\ud800.csv"],
        ids=["none", "float", "object", "bool", "bytes", "bytes-pathlike", "null-byte",
             "lone-surrogate"],
    )
    def test_non_paths_are_io_errors(self, function, path):
        with pytest.raises(FileIOError) as excinfo:
            PATH_FUNCTIONS[function](path)
        assert excinfo.value.code == "io-error"

    @pytest.mark.parametrize("function", PATH_FUNCTIONS)
    @pytest.mark.parametrize("name", [".", "missing/cohort.csv"], ids=["directory", "no-parent"])
    def test_paths_that_cannot_be_opened_are_io_errors(self, tmp_path, function, name):
        with pytest.raises(FileIOError) as excinfo:
            PATH_FUNCTIONS[function](tmp_path / name)
        assert excinfo.value.code == "io-error"

    def test_a_name_of_undecodable_bytes_still_names_a_file(self, tmp_path):
        """``surrogateescape`` text, as ``os.listdir`` gives for a non-UTF-8 name, encodes."""
        path = str(tmp_path / "x\udcff.csv")
        PATH_FUNCTIONS["write_cohort"](path)
        assert len(load_cohort(path)) == 2

    @pytest.mark.parametrize("function", PATH_FUNCTIONS)
    def test_a_file_descriptor_is_left_open_and_unwritten(self, tmp_path, function):
        target = tmp_path / "fd.txt"
        fd = os.open(target, os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(FileIOError):
                PATH_FUNCTIONS[function](fd)
            os.fstat(fd)  # raises OSError if the call closed it
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        finally:
            os.close(fd)
        assert target.read_bytes() == b""


NOT_VALUES = [None, "x", 1.5, object(), 0, "", False, []]
NOT_VALUE_IDS = ["none", "text", "float", "object", "zero", "empty-text", "false", "empty-list"]


class TestValueArguments:
    @pytest.mark.parametrize("cohort", NOT_VALUES, ids=NOT_VALUE_IDS)
    def test_write_cohort_refuses_a_non_cohort(self, tmp_path, cohort):
        path = tmp_path / "c.csv"
        with pytest.raises(SchemaError) as excinfo:
            write_cohort(cohort, path)
        assert excinfo.value.code == "schema-error"
        assert not path.exists()

    @pytest.mark.parametrize("function", ["load_cohort", "write_cohort"])
    @pytest.mark.parametrize("schema", NOT_VALUES[1:], ids=NOT_VALUE_IDS[1:])
    def test_a_non_schema_is_refused_not_defaulted(self, tmp_path, function, schema):
        path = write(tmp_path, "score,outcome\n1.0,0\n2.0,1\n")
        calls = {
            "load_cohort": lambda: load_cohort(path, schema),
            "write_cohort": lambda: write_cohort(Cohort(scores=[5.0], outcomes=[1]), path, schema),
        }
        with pytest.raises(SchemaError) as excinfo:
            calls[function]()
        assert excinfo.value.code == "schema-error"
        assert path.read_text() == "score,outcome\n1.0,0\n2.0,1\n"

    def test_a_schema_of_none_is_the_default(self, tmp_path):
        path = tmp_path / "c.csv"
        write_cohort(Cohort(scores=[1.0, 2.0], outcomes=[0, 1]), path, None)
        assert path.read_text() == "score,outcome\n1.0,0\n2.0,1\n"
        assert load_cohort(path, None).scores.tolist() == [1.0, 2.0]
