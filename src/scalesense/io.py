"""Cohort CSV ingestion and deterministic report serialization.

Reports serialize either as structured JSON (lossless floats via shortest
round-trip repr, fixed key order, so identical inputs give byte-identical
files) or as a flat CSV of sweep records for spreadsheet use (12 significant
digits).  Provenance carries no wall-clock data unless a timestamp is passed
explicitly, keeping outputs reproducible by default.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    ConditionalPMF,
    Cohort,
    DiagnosticSummary,
    Outcome,
    PartitionSpec,
    ScaleAnalysis,
    ThresholdCriterion,
    strict_int,
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


@dataclass(frozen=True)
class CohortFileSchema:
    """Column layout of a cohort CSV."""

    score_column: str = "score"
    outcome_column: str = "outcome"
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self) -> None:
        if not self.score_column or not self.outcome_column:
            raise InvariantViolationError("column names must be non-empty")
        if self.score_column == self.outcome_column:
            raise InvariantViolationError("column names must be distinct")
        if len(self.delimiter) != 1:
            raise InvariantViolationError("delimiter must be a single character")


@dataclass(frozen=True)
class Provenance:
    """Reproducibility trail attached to every report document."""

    seed: Optional[int]
    tool_version: str
    timestamp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed is not None:
            seed = strict_int(self.seed, "provenance seed", InvariantViolationError)
            object.__setattr__(self, "seed", seed)
        if not isinstance(self.tool_version, str):
            raise InvariantViolationError("tool_version must be a string")
        if self.timestamp is not None and not isinstance(self.timestamp, str):
            raise InvariantViolationError("timestamp must be a string or None")


@dataclass(frozen=True)
class ReportDocument:
    """Versioned envelope around a sweep report or a single-cohort analysis."""

    schema_version: str
    provenance: Provenance
    payload: Union[ExperimentReport, ScaleAnalysis]


def load_cohort(
    path: Union[str, Path], schema: Optional[CohortFileSchema] = None
) -> Cohort:
    """Read a cohort CSV, validating every row.

    Rows with an unparseable or non-finite score, or an outcome other than
    0/1, fail with a parse error naming the 1-based data row, as do bytes
    that are not UTF-8 and CSV the reader rejects (such as a field over the
    ``csv`` module's size limit).  A missing column fails with a schema
    error; a file with no data rows fails with empty-input.
    """
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


def write_cohort(
    cohort: Cohort, path: Union[str, Path], schema: Optional[CohortFileSchema] = None
) -> None:
    """Write a cohort CSV that :func:`load_cohort` reads back exactly.

    Scores are written with shortest round-trip precision.
    """
    schema = schema or CohortFileSchema()
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, delimiter=schema.delimiter, lineterminator="\n")
    if schema.has_header:
        writer.writerow([schema.score_column, schema.outcome_column])
    for score, outcome in zip(cohort.scores, cohort.outcomes):
        writer.writerow([repr(float(score)), int(outcome)])
    _write_text(path, buffer.getvalue())


def _write_text(path: Union[str, Path], text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileIOError(f"cannot write {path}: {exc}") from exc


def _fields(value) -> dict:
    """A dataclass as a JSON object: its fields, in declaration order."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _payload_to_dict(payload: Union[ExperimentReport, ScaleAnalysis]) -> dict:
    if not isinstance(payload, (ExperimentReport, ScaleAnalysis)):
        raise SchemaError(f"unsupported payload type {type(payload).__name__}")
    if isinstance(payload, ExperimentReport):
        return {
            "kind": "partition_sweep",
            "spec": _fields(payload.spec),
            "criterion": payload.criterion.value,
            "reps": payload.reps,
            "k_values": payload.k_values,
            "records": [_fields(r) for r in payload.records],
        }
    return {
        "kind": "scale_analysis",
        "criterion": payload.criterion.value,
        "partition": _fields(payload.partition),
        "pmf_diseased": payload.pmf_diseased.probs,
        "pmf_healthy": payload.pmf_healthy.probs,
        "roc_points": payload.roc,
        "summary": _fields(payload.summary),
    }


def write_report(
    document: ReportDocument, path: Union[str, Path], fmt: str = "structured-json"
) -> None:
    """Serialize a report document.

    ``structured-json`` handles both payload kinds losslessly.  ``flat-csv``
    is defined for sweep payloads only: one row per class count, ascending
    by ``k``, 12 significant digits.
    """
    if fmt == "structured-json":
        body = {
            "schema_version": document.schema_version,
            "provenance": _fields(document.provenance),
            "payload": _payload_to_dict(document.payload),
        }
        _write_text(path, json.dumps(body, indent=2) + "\n")
    elif fmt == "flat-csv":
        if not isinstance(document.payload, ExperimentReport):
            raise SchemaError("flat-csv output is defined for sweep reports only")
        lines = [",".join(FLAT_CSV_HEADER)]
        for record in sorted(document.payload.records, key=lambda r: r.k):
            lines.append(",".join(_csv_cell(v) for v in _fields(record).values()))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        raise SchemaError(f"unknown report format {fmt!r}")


def _csv_cell(value) -> str:
    return str(value) if isinstance(value, int) else format(value, ".12g")


def _build(cls, mapping, context: str, keys: Optional[dict] = None, **decoders):
    """Construct ``cls`` from the decoded JSON object ``mapping``.

    ``mapping`` must hold one key per field of ``cls``; ``keys`` renames
    fields whose JSON key differs.  ``decoders`` turn a raw JSON value into
    the field's value, called as ``decode(raw, key)``.  The constructor
    then validates every value.
    """
    if not isinstance(mapping, dict):
        raise SchemaError(f"report {context} must be a JSON object")
    values = {}
    for f in fields(cls):
        key = (keys or {}).get(f.name, f.name)
        if key not in mapping:
            raise SchemaError(f"report {context} lacks key '{key}'")
        decode = decoders.get(f.name)
        values[f.name] = decode(mapping[key], key) if decode else mapping[key]
    return cls(**values)


def _items(value, key: str) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(f"report {key} must be a JSON list")
    return tuple(value)


def _version(value, key: str) -> str:
    if value != SCHEMA_VERSION:
        raise SchemaError(f"unsupported {key} {value!r}, expected {SCHEMA_VERSION!r}")
    return value


def _criterion(value, key: str) -> ThresholdCriterion:
    try:
        return ThresholdCriterion(value)
    except ValueError:
        raise SchemaError(f"report {key} has unknown criterion {value!r}") from None


def _payload(mapping, key: str) -> Union[ExperimentReport, ScaleAnalysis]:
    kind = mapping.get("kind") if isinstance(mapping, dict) else None
    if kind == "partition_sweep":
        return _build(
            ExperimentReport,
            mapping,
            key,
            spec=lambda v, k: _build(CohortSpec, v, k),
            criterion=_criterion,
            k_values=_items,
            records=lambda v, k: tuple(
                _build(SweepRecord, r, "record") for r in _items(v, k)
            ),
        )
    if kind == "scale_analysis":
        return _build(
            ScaleAnalysis,
            mapping,
            key,
            keys={"roc": "roc_points"},
            partition=lambda v, k: _build(PartitionSpec, v, k, boundaries=_items),
            pmf_diseased=lambda v, k: ConditionalPMF(_items(v, k), Outcome.DISEASED),
            pmf_healthy=lambda v, k: ConditionalPMF(_items(v, k), Outcome.HEALTHY),
            roc=lambda v, k: tuple(_items(point, k) for point in _items(v, k)),
            summary=lambda v, k: _build(DiagnosticSummary, v, k),
            criterion=_criterion,
        )
    raise SchemaError(f"unknown payload kind {kind!r}")


def read_report(path: Union[str, Path]) -> ReportDocument:
    """Parse a structured JSON report back into typed objects.

    Inverse of :func:`write_report` for the ``structured-json`` format:
    reading a written document reproduces it exactly, floats included.
    Every value is checked by the constructor it is passed to, so a
    malformed report fails with a :class:`ScaleSenseError`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileIOError(f"cannot read {path}: {exc}") from exc
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return _build(
        ReportDocument,
        body,
        "envelope",
        schema_version=_version,
        provenance=lambda v, k: _build(Provenance, v, k),
        payload=_payload,
    )
