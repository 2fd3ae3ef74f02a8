"""Spans recorded around calls into scalesense's public functions.

The benchmark never edits the package.  Instead, :meth:`Tracer.wrap`
replaces a function in the namespace where its caller looks it up (for
example ``scalesense.simulate.discretize``, which ``run_partition_sweep``
calls), so each call leaves one span: name, start, end and the index of the
enclosing span.  Spans stay in memory until the job ends and are then
written out in one piece.

:func:`summarize` turns a span list into per-name call counts, total time
and self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans of the wrapped functions in one single-threaded job."""

    def __init__(self) -> None:
        # [name, start, end, parent index, note]; parent -1 marks a root span.
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, namespace, attr: str, note=None) -> None:
        """Replace ``namespace.attr`` with a function that records a span.

        ``note(args, result)`` may return a dict of counts to keep with the
        span; it runs after the span's end time is taken.
        """
        fn = getattr(namespace, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(namespace, attr, traced)


def discretize_note(args, result) -> dict:
    """Rows binned by one ``discretize(cohort, k)`` call."""
    return {"rows": len(args[0])}


def pmf_note(args, result) -> dict:
    """Classes produced by one ``estimate_conditional_pmfs`` call, and how
    many of them hold no subject of either outcome."""
    pmf1, pmf0 = result
    empty = (np.asarray(pmf1.probs) == 0.0) & (np.asarray(pmf0.probs) == 0.0)
    return {"classes": len(pmf1.probs), "empty_classes": int(np.count_nonzero(empty))}


def install(tracer: Tracer) -> None:
    """Wrap every public function the CLI's subcommands reach, per module."""
    import scalesense.cli as cli
    import scalesense.core as core
    import scalesense.simulate as simulate

    tracer.wrap(cli, "run")
    for attr in (
        "run_partition_sweep",
        "generate_cohort",
        "write_cohort",
        "load_cohort",
        "analyze_cohort",
        "write_report",
        "search_counterexample",
        "verify_monotonicity",
    ):
        tracer.wrap(cli, attr)
    for namespace in (simulate, core):
        tracer.wrap(namespace, "discretize", discretize_note)
        tracer.wrap(namespace, "estimate_conditional_pmfs", pmf_note)
        tracer.wrap(namespace, "select_threshold")
    tracer.wrap(simulate, "replication_seed")
    tracer.wrap(simulate, "generate_cohort")
    tracer.wrap(core, "roc_points")


def summarize(spans: list) -> dict:
    """Per span name: ``calls``, ``total_s``, ``self_s``, summed notes, and
    the start times of its spans in call order (``starts``)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "starts": [], "notes": defaultdict(int)}
    )
    for index, (name, start, end, parent, note) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["starts"].append(start)
        for key, value in (note or {}).items():
            entry["notes"][key] += value
    return out
