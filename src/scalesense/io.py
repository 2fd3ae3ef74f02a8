"""Cohort CSV ingestion and deterministic report serialization.

Reports serialize either as structured JSON (lossless floats via shortest
round-trip repr, fixed key order, so identical inputs give byte-identical
files) or as a flat CSV of sweep records for spreadsheet use (12 significant
digits).  Provenance carries no wall-clock data unless a timestamp is passed
explicitly, keeping outputs reproducible by default.

Cohort rows and runs of report floats are joined in bulk into the bytes
``csv.writer`` and ``json.dump(..., indent=2)`` would write value by value;
the floats' text comes from :func:`_reprs`, which matches ``float.__repr__``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    ConditionalPMF,
    Cohort,
    Outcome,
    PartitionSpec,
    ScaleAnalysis,
    ThresholdCriterion,
    _shown,
    require_type,
    require_types,
    seed_int,
)
from .errors import (
    EmptyInputError,
    FileIOError,
    InvariantViolationError,
    ParseError,
    SchemaError,
)
from .simulate import CohortSpec, ExperimentReport, SweepRecord

SCHEMA_VERSION = "1"

FLAT_CSV_HEADER = tuple(f.name for f in fields(SweepRecord))

_KEYS = {"roc": "roc_points"}  # JSON keys other than their field's name
_KINDS = {ExperimentReport: "partition_sweep", ScaleAnalysis: "scale_analysis"}  # payload tags
_DECODERS = {  # field name -> decode(JSON value, key), for fields not read as they stand
    "provenance": lambda v, k: _build(Provenance, v, k),
    "payload": lambda v, k: _payload(v, k),
    "spec": lambda v, k: _build(CohortSpec, v, k),
    "criterion": lambda v, k: _criterion(v, k),
    "records": lambda v, k: tuple(_build(SweepRecord, r, "record") for r in _items(v, k)),
    "partition": lambda v, k: _build(PartitionSpec, v, k),
    "boundaries": lambda v, k: _items(v, k),
    "pmf_diseased": lambda v, k: ConditionalPMF(_items(v, k), Outcome.DISEASED),
    "pmf_healthy": lambda v, k: ConditionalPMF(_items(v, k), Outcome.HEALTHY),
}
_OUTCOMES = {"0": 0, "1": 1}  # outcome cells, once stripped
_SLICE = 4096  # cohort rows per write or float parse, report list items per write
# Characters per bulk read of a cohort file.  orjson parses a shorter text in an
# 8 MiB buffer that it keeps from then on (orjson 3.8 does while 12 bytes per
# character and 256 more come to less than 8 MiB), so _scores gives it none.
_READ = 699_030


@dataclass(frozen=True)
class CohortFileSchema:
    """Column layout of a cohort CSV."""

    score_column: str = "score"
    outcome_column: str = "outcome"
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self) -> None:
        require_types(
            self, score_column=str, outcome_column=str, delimiter=str, has_header=bool
        )
        for column in (self.score_column, self.outcome_column):
            # load_cohort strips names and reads a "\r" as a line break
            if not column or column != column.strip() or "\r" in column:
                raise InvariantViolationError(
                    f"column name {_shown(column)} must be non-empty, unpadded and free of \\r"
                )
        if self.score_column == self.outcome_column:
            raise InvariantViolationError("column names must be distinct")
        if len(self.delimiter) != 1 or self.delimiter in '\r\n"0123456789.+-e':  # see write_cohort
            raise InvariantViolationError(
                "delimiter must be one character that is no line break, quote or part of a number"
            )
        try:  # a lone surrogate cannot be written to a UTF-8 file
            (self.score_column + self.outcome_column + self.delimiter).encode("utf-8")
        except UnicodeEncodeError:
            raise InvariantViolationError("column names and delimiter must be UTF-8 text") from None


@dataclass(frozen=True)
class Provenance:
    """Reproducibility trail attached to every report document."""

    seed: Optional[int]
    tool_version: str
    timestamp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed is not None:
            seed = seed_int(self.seed, "provenance seed", InvariantViolationError)
            object.__setattr__(self, "seed", seed)
        require_types(self, tool_version=str, timestamp=(str, type(None)))


@dataclass(frozen=True)
class ReportDocument:
    """Versioned envelope around a sweep report or a single-cohort analysis; its
    version, checked first, is :data:`SCHEMA_VERSION`, as :func:`read_report` needs."""

    schema_version: str
    provenance: Provenance
    payload: Union[ExperimentReport, ScaleAnalysis]

    def __post_init__(self) -> None:
        if not isinstance(self.schema_version, str) or self.schema_version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version, expected {SCHEMA_VERSION!r}")
        require_types(self, provenance=Provenance, payload=tuple(_KINDS))


def _path(path) -> Path:
    """``path`` as a :class:`Path`; a value that cannot name a file is an io-error,
    as is a name the file system cannot encode (a lone surrogate)."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    with suppress(UnicodeEncodeError):
        if isinstance(name, str) and b"\0" not in os.fsencode(name):
            return Path(name)
    raise FileIOError(f"need a file path, got {_shown(path)}")


def load_cohort(
    path: Union[str, Path], schema: Optional[CohortFileSchema] = None
) -> Cohort:
    """Read a cohort CSV, validating every row.

    Rows whose fields are all whitespace are skipped and do not count in row
    numbers.  Rows with an unparseable or non-finite score, or an outcome
    other than 0/1, fail with a parse error naming the 1-based data row, as
    do bytes that are not UTF-8 and CSV the reader rejects (such as a field
    over the ``csv`` module's size limit).  A missing column fails with a
    schema error; a file with no data rows fails with empty-input.  Of
    several faults the first in reading order wins: a missing column beats
    a later over-long field or undecodable byte.

    A plain file, as :func:`write_cohort` writes, is parsed in bulk until
    its first slice that is not plain, which the row loop takes over.
    """
    schema = CohortFileSchema() if schema is None else schema
    require_type(schema, CohortFileSchema, "schema", SchemaError)
    path = _path(path)
    scores, outcomes = array("d"), array("b")  # no float object kept per row
    try:
        with path.open(encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=schema.delimiter)
            score_idx, outcome_idx = 0, 1
            if schema.has_header:
                header = [h.strip() for h in next(filter(_filled, reader), ())]
                if not header:
                    raise EmptyInputError(f"{path} has no rows")
                for column in (schema.score_column, schema.outcome_column):
                    if column not in header:
                        raise SchemaError(f"missing column '{column}' in {path}")
                score_idx = header.index(schema.score_column)
                outcome_idx = header.index(schema.outcome_column)
            while (score_idx, outcome_idx) == (0, 1) and (
                lines := handle.read(_READ) + handle.readline()  # whole lines only
            ):
                if not _plain(lines, schema.delimiter, scores, outcomes):
                    reader = csv.reader(chain(StringIO(lines), handle), delimiter=schema.delimiter)
                    break
            for row in reader:
                try:  # float refuses "\x1c"-"\x1f" padding, which strip removes
                    score = float(row[score_idx].strip())
                    outcome = _OUTCOMES[row[outcome_idx].strip()]
                except (IndexError, ValueError, KeyError):
                    if not _filled(row):  # a blank row fails the parse above
                        continue
                    raise _row_fault(row, len(scores) + 1, score_idx, outcome_idx) from None
                if not math.isfinite(score):
                    raise _row_fault(row, len(scores) + 1, score_idx, outcome_idx)
                scores.append(score)
                outcomes.append(outcome)
    except OSError as exc:
        raise FileIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path} is not a readable CSV: {exc}") from exc
    if not scores:
        raise EmptyInputError(f"{path} has no data rows")
    return Cohort(np.frombuffer(scores), np.frombuffer(outcomes, dtype=np.int8))


def _plain(lines: str, delimiter: str, scores: array, outcomes: array) -> bool:
    """Append the rows of ``lines`` to ``scores`` and ``outcomes`` if they are
    plain, and say whether they were: ASCII lines of at most
    ``csv.field_size_limit()`` characters, each a score ``float`` takes as finite
    (so no quote), the delimiter, and 0 or 1.  ``csv.reader`` yields each as
    ``[score, outcome]``, and :func:`_scores` gives each score the value the
    row loop's ``float`` would."""
    try:  # ValueError: non-ASCII text, a score float refuses
        raw = np.frombuffer(lines.encode("ascii"), dtype=np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        labels = raw[ends - 1] - ord("0")  # wraps below "0", so > 1 unless 0 or 1
        if (
            not lines.endswith("\n") or lines.count(delimiter) != ends.size
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()
            or labels.max() > 1 or not (raw[ends - 2] == ord(delimiter)).all()
        ):
            return False
        del raw  # the slice's bytes, freed before its scores are parsed
        values = _scores(lines, delimiter, ends)
    except ValueError:
        return False
    if not np.isfinite(np.frombuffer(values)).all():
        return False
    scores.extend(values)
    outcomes.frombytes(labels.tobytes())
    return True


def _scores(lines: str, delimiter: str, ends: np.ndarray) -> array:
    """``float`` of the score on each line of a plain slice, whose newlines are
    at ``ends``: from one ``orjson.loads`` of the slice where that is sure to
    give the same values, else a score at a time.

    No score holds a comma (scores that might are not parsed as JSON), so with
    each delimiter and each newline but the last read as ``,`` the slice is a
    JSON list whose every other item, from the first, is a score.  A value that
    ran on past its line would start at a score and be a list, object or string
    there: ``array`` refuses those and null.  A text naming ``true`` or
    ``false`` is refused, and so is one that may hold ``-0`` (the integer 0 to
    JSON, -0.0 to ``float``) if a score reads 0.  What is left are JSON
    numbers, a subset of what ``float`` takes, which orjson rounds as ``float``
    does (``tests/test_io.py`` checks both).  A slice shorter than
    :data:`_READ`, a file's last, is not parsed as JSON.
    """
    if len(lines) >= _READ and (delimiter == "," or "," not in lines):
        import orjson  # not at module level: sweep and search read no cohort and skip its load

        text = "[%s]" % lines.replace("\n", ",", ends.size - 1).replace(delimiter, ",")
        try:  # TypeError: a score that is a string, null, list or object
            parsed = orjson.loads(text)
            values = array("d", parsed[::2])  # from the list: an ndarray slice boxes each item
        except (orjson.JSONDecodeError, TypeError):
            pass
        else:
            if "true" not in text and "false" not in text and (
                "-0" not in text or np.frombuffer(values).all()
            ):
                return values
    values, cuts = array("d"), [0, *(ends[_SLICE - 1 :: _SLICE] + 1).tolist(), len(lines)]
    for start, stop in zip(cuts, cuts[1:]):  # _SLICE rows at a time, which bounds the split
        split = lines[start:stop].replace("\n", delimiter).split(delimiter)
        values.extend(map(float, split[:-1:2]))
    return values


def _filled(row: list) -> bool:
    """Whether a CSV row has a field that is not all whitespace."""
    return bool("".join(row).strip())


def _row_fault(row: list, rownum: int, score_idx: int, outcome_idx: int) -> ParseError:
    """The error for a data row that failed to load: its first fault in field-count,
    score-parse, finite-score, outcome order."""
    needed = max(score_idx, outcome_idx) + 1
    if len(row) < needed:
        return ParseError(f"row {rownum}: expected at least {needed} fields, got {len(row)}")
    raw_score = row[score_idx].strip()
    try:
        score = float(raw_score)
    except ValueError:
        return ParseError(f"row {rownum}: score {_shown(raw_score)} is not a number")
    if not math.isfinite(score):
        return ParseError(f"row {rownum}: score {_shown(raw_score)} is not finite")
    outcome = _shown(row[outcome_idx].strip())
    return ParseError(f"row {rownum}: outcome must be 0 or 1, got {outcome}")


@contextmanager
def _writing(path: Union[str, Path]):
    """``path`` opened for UTF-8 text; an OSError opening or writing it is an io-error."""
    try:
        with _path(path).open("w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise FileIOError(f"cannot write {path}: {exc}") from exc


def write_cohort(
    cohort: Cohort, path: Union[str, Path], schema: Optional[CohortFileSchema] = None
) -> None:
    """Write a cohort CSV that :func:`load_cohort` reads back exactly.

    Scores are written with shortest round-trip precision.  Rows are joined
    without ``csv.writer``, as no allowed delimiter needs quoting in them,
    :data:`_SLICE` at a time; the file is plain unless a name is quoted.
    """
    require_type(cohort, Cohort, "cohort", SchemaError)
    schema = CohortFileSchema() if schema is None else schema
    require_type(schema, CohortFileSchema, "schema", SchemaError)
    with _writing(path) as handle:
        writer = csv.writer(handle, delimiter=schema.delimiter, lineterminator="\n")
        if schema.has_header:
            writer.writerow([schema.score_column, schema.outcome_column])
        ends = (f"{schema.delimiter}0\n", f"{schema.delimiter}1\n")
        for start in range(0, len(cohort), _SLICE):
            scores = _reprs(cohort.scores[start : start + _SLICE])
            rows = [""] * (2 * len(scores))  # each score, then its delimiter, outcome and newline
            rows[::2] = scores
            rows[1::2] = map(ends.__getitem__, cohort.outcomes[start : start + _SLICE].tolist())
            handle.write("".join(rows))


def _reprs(values) -> list:
    """``float.__repr__`` of each of ``values``: Python floats or a contiguous float64 array.

    orjson writes the same shortest round-trip digits in bulk, and the same
    text for zeros and for ``1e-4 <= |x| < 1e16``; outside that range its
    notation differs (``1e16``, ``0.00001``), so those values are formatted
    by ``float.__repr__``, once per distinct bit pattern.
    """
    import orjson  # not at module level: sweep and search format no floats and skip its load

    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    magnitudes = np.abs(values)
    odd = np.flatnonzero(~((magnitudes >= 1e-4) & (magnitudes < 1e16) | (values == 0)))
    if odd.size:
        bits, inverse = np.unique(values[odd].view(np.uint64), return_inverse=True)
        fixed = list(map(float.__repr__, bits.view(np.float64).tolist()))
        for i, text in zip(odd.tolist(), map(fixed.__getitem__, inverse.tolist())):
            texts[i] = text
    return texts


def _fields(value) -> dict:
    """A dataclass as a JSON object: its fields in declaration order, as ``_KEYS`` names them."""
    return {_KEYS.get(f.name, f.name): getattr(value, f.name) for f in fields(value)}


def _encode(value):
    """Report values as the JSON their reader expects (the ``default`` hook of :func:`_dump`)."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, ConditionalPMF):
        return value.probs
    if is_dataclass(value):
        kind = _KINDS.get(type(value))
        return {"kind": kind, **_fields(value)} if kind else _fields(value)
    raise SchemaError(f"cannot write a {type(value).__name__} to a report")


def write_report(
    document: ReportDocument, path: Union[str, Path], fmt: str = "structured-json"
) -> None:
    """Serialize a report document.

    ``structured-json`` handles both payload kinds losslessly.  ``flat-csv``
    is defined for sweep payloads only: one row per class count, ascending
    by ``k``, 12 significant digits.
    """
    require_type(document, ReportDocument, "document", SchemaError)
    require_type(fmt, str, "fmt", SchemaError)
    if fmt == "structured-json":
        with _writing(path) as handle:
            _dump(document, handle.write)
            handle.write("\n")
    elif fmt == "flat-csv":
        if not isinstance(document.payload, ExperimentReport):
            raise SchemaError("flat-csv output is defined for sweep reports only")
        lines = [",".join(FLAT_CSV_HEADER)]
        for record in sorted(document.payload.records, key=lambda r: r.k):
            lines.append(",".join(_csv_cell(v) for v in _fields(record).values()))
        with _writing(path) as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        raise SchemaError(f"unknown report format {_shown(fmt)}")


def _dump(value, write, pad: str = "\n") -> None:
    """Write ``value`` as ``json.dump(value, indent=2, default=_encode)`` does,
    list items :data:`_SLICE` at a time through :func:`_joined`."""
    inner = pad + "  "
    if not isinstance(value, (str, int, float, list, tuple, dict, type(None))):
        _dump(_encode(value), write, pad)
    elif not value or not isinstance(value, (list, tuple, dict)):
        write(json.dumps(value))
    elif isinstance(value, dict):
        head = "{"
        for key, item in value.items():
            write(f"{head}{inner}{json.dumps(key)}: ")
            _dump(item, write, inner)
            head = ","
        write(pad + "}")
    else:
        head = "["
        for start in range(0, len(value), _SLICE):
            write(f"{head}{inner}{_joined(value[start : start + _SLICE], inner)}")
            head = ","
        write(pad + "]")


def _joined(items, pad: str) -> str:
    """``items`` as JSON list items at ``pad``.  A report list holds items of
    one kind, as its value type makes them, so the first names it: floats
    (finite, as constructors check) go in one join, rows of as many floats
    each (ROC points) through one ``%`` template, anything else through
    ``json.dumps``."""
    first = items[0]
    if isinstance(first, float):
        return f",{pad}".join(_reprs(items))
    if isinstance(first, (list, tuple)) and first and isinstance(first[0], float):
        inner = pad + "  "
        point = f"[{inner}{f',{inner}'.join(['%s'] * len(first))}{pad}]"
        values = tuple(_reprs([value for item in items for value in item]))
        return f",{pad}".join([point] * len(items)) % values
    return f",{pad}".join(
        json.dumps(item, indent=2, default=_encode).replace("\n", pad) for item in items
    )


def _csv_cell(value) -> str:
    return str(value) if isinstance(value, int) else format(value, ".12g")


def _build(cls, mapping, context: str):
    """Construct ``cls`` from the decoded JSON object ``mapping``.

    ``mapping`` must hold one key per field of ``cls``, named as
    :func:`_fields` names it.  :data:`_DECODERS` turns a raw JSON value into
    the value of the field it names, called as ``decode(raw, key)``.  The
    constructor then validates every value and derives its ``init=False``
    fields, whose keys must hold the JSON text written for the derived value.
    """
    if not isinstance(mapping, dict):
        raise SchemaError(f"report {context} must be a JSON object")
    values, derived = {}, {}
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        if key not in mapping:
            raise SchemaError(f"report {context} lacks key '{key}'")
        if f.init:
            decode = _DECODERS.get(f.name)
            values[f.name] = decode(mapping[key], key) if decode else mapping[key]
        else:
            derived[key] = f.name
    value = cls(**values)
    for key, name in derived.items():
        if json.dumps(mapping[key]) != json.dumps(getattr(value, name), default=_encode):
            raise InvariantViolationError(f"report {context} {key} disagrees with the rest")
    return value


def _items(value, key: str) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(f"report {key} must be a JSON list")
    return tuple(value)


def _criterion(value, key: str) -> ThresholdCriterion:
    try:
        return ThresholdCriterion(value)
    except ValueError:
        raise SchemaError(f"report {key} has unknown criterion {_shown(value)}") from None


def _payload(mapping, key: str) -> Union[ExperimentReport, ScaleAnalysis]:
    kind = mapping.get("kind") if isinstance(mapping, dict) else None
    for cls, tag in _KINDS.items():
        if kind == tag:
            return _build(cls, mapping, key)
    raise SchemaError(f"unknown payload kind {_shown(kind)}")


def read_report(path: Union[str, Path]) -> ReportDocument:
    """Parse a structured JSON report back into typed objects.

    Inverse of :func:`write_report` for the ``structured-json`` format:
    reading a written document reproduces it exactly, floats included.
    Every value is checked by the constructor it is passed to, and every
    derived key (ROC points, summary, partition ``k``, sweep ``k_values``)
    against the value derived from the rest, so a malformed report fails
    with a :class:`ScaleSenseError`.
    """
    path = _path(path)
    try:  # RecursionError: from json.loads, or from checking a derived key that nests deeply
        return _build(ReportDocument, json.loads(path.read_text(encoding="utf-8")), "envelope")
    except OSError as exc:
        raise FileIOError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: bad bytes, JSON or integer digits
        raise ParseError(f"{path} is not readable JSON: {exc}") from exc
