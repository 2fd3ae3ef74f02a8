"""Command-line interface.

Every subcommand is a deterministic batch step that prints a single summary
line on success.  Exit status: 0 on success, 1 on a domain error (also used
by ``refine-check`` when the monotonicity claim does not hold), 2 on usage
errors (argparse's native convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .core import ThresholdCriterion, ConditionalPMF, Outcome, analyze_cohort
from .errors import ScaleSenseError
from .io import (
    SCHEMA_VERSION,
    CohortFileSchema,
    Provenance,
    ReportDocument,
    load_cohort,
    write_cohort,
    write_report,
)
from .refinement import (
    RefinementWitness,
    VerdictStatus,
    search_counterexample,
    verify_monotonicity,
)
from .simulate import (
    DEFAULT_CLASS_LADDER,
    DEFAULT_REPS,
    CohortSpec,
    generate_cohort,
    run_partition_sweep,
)

_CRITERIA = {c.value: c for c in ThresholdCriterion}


def _comma_list(convert, noun: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesense",
        description="Discretized diagnostic scales: binning, threshold "
        "selection, refinement monotonicity checks, Monte Carlo sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument("--seed", required=True, type=int)
    spec_flags.add_argument("--n", required=True, type=int)
    spec_flags.add_argument("--prevalence", required=True, type=float)
    spec_flags.add_argument("--mu0", required=True, type=float, help="healthy mean")
    spec_flags.add_argument("--mu1", required=True, type=float, help="diseased mean")
    spec_flags.add_argument("--sigma", required=True, type=float)

    analyze = sub.add_parser(
        "analyze", help="discretize one cohort CSV and report the optimal cut"
    )
    analyze.add_argument("--input", required=True, help="cohort CSV path")
    analyze.add_argument("--k", required=True, type=int, help="number of classes")
    analyze.add_argument(
        "--criterion", choices=sorted(_CRITERIA), default="youden"
    )
    analyze.add_argument("--out", required=True, help="output report path (JSON)")
    layout = CohortFileSchema()
    analyze.add_argument("--score-column", default=layout.score_column)
    analyze.add_argument("--outcome-column", default=layout.outcome_column)
    analyze.add_argument("--delimiter", default=layout.delimiter)
    analyze.add_argument(
        "--no-header", action="store_true", help="columns are score,outcome by position"
    )
    analyze.add_argument(
        "--timestamp", default=None, help="optional provenance timestamp"
    )
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = sub.add_parser(
        "simulate",
        parents=[spec_flags],
        help="draw one synthetic cohort and write it as CSV",
    )
    simulate.add_argument("--out", required=True, help="output cohort CSV path")
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser(
        "sweep",
        parents=[spec_flags],
        help="Monte Carlo sweep of optimal cuts across class counts",
    )
    sweep.add_argument(
        "--k-list",
        type=_comma_list(int, "integers"),
        default=DEFAULT_CLASS_LADDER,
        help="comma-separated class counts "
        f"(default {','.join(map(str, DEFAULT_CLASS_LADDER))})",
    )
    sweep.add_argument("--reps", type=int, default=DEFAULT_REPS)
    sweep.add_argument("--criterion", choices=sorted(_CRITERIA), default="youden")
    sweep.add_argument("--out", required=True, help="output report path")
    sweep.add_argument(
        "--format",
        choices=("structured-json", "flat-csv"),
        default=None,
        help="default: flat-csv for .csv outputs, structured-json otherwise",
    )
    sweep.add_argument(
        "--timestamp", default=None, help="optional provenance timestamp"
    )
    sweep.set_defaults(handler=_cmd_sweep)

    refine = sub.add_parser(
        "refine-check", help="verify sensitivity monotonicity for one refinement"
    )
    floats = _comma_list(float, "floats")
    refine.add_argument("--base", required=True, type=floats, help="base pmf, comma-separated")
    refine.add_argument("--deltas", required=True, type=floats, help="shaved mass per class")
    refine.add_argument("--c", required=True, type=int, help="base-scale threshold")
    refine.add_argument(
        "--c-prime", required=True, type=int, help="refined-scale threshold"
    )
    refine.set_defaults(handler=_cmd_refine_check)

    counter = sub.add_parser(
        "counterexample", help="grid search for a sensitivity drop"
    )
    counter.add_argument("--k", required=True, type=int)
    counter.add_argument("--grid-step", type=float, default=0.1)
    counter.add_argument(
        "--allow-negative-deltas",
        action=argparse.BooleanOptionalAction,
        default=False,
    )
    counter.add_argument(
        "--enforce-assumption",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    counter.set_defaults(handler=_cmd_counterexample)

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    schema = CohortFileSchema(
        score_column=args.score_column,
        outcome_column=args.outcome_column,
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )
    cohort = load_cohort(args.input, schema)
    analysis = analyze_cohort(cohort, args.k, _CRITERIA[args.criterion])
    _write(analysis, None, args, "structured-json")
    s = analysis.summary
    print(
        f"analyze: n={len(cohort)} k={args.k} criterion={args.criterion} "
        f"c={s.c} se={s.se:.6f} sp={s.sp:.6f} -> {args.out}"
    )
    return 0


def _write(payload, seed: Optional[int], args: argparse.Namespace, fmt: str) -> None:
    provenance = Provenance(seed=seed, tool_version=__version__, timestamp=args.timestamp)
    write_report(ReportDocument(SCHEMA_VERSION, provenance, payload), args.out, fmt)


def _spec(args: argparse.Namespace) -> CohortSpec:
    return CohortSpec(
        n=args.n,
        prevalence=args.prevalence,
        mu_healthy=args.mu0,
        mu_diseased=args.mu1,
        sigma=args.sigma,
        seed=args.seed,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cohort = generate_cohort(_spec(args))
    write_cohort(cohort, args.out)
    print(
        f"simulate: n={len(cohort)} diseased={cohort.n_diseased} "
        f"healthy={cohort.n_healthy} seed={args.seed} -> {args.out}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = run_partition_sweep(
        _spec(args),
        k_values=tuple(args.k_list),
        reps=args.reps,
        criterion=_CRITERIA[args.criterion],
    )
    fmt = args.format
    if fmt is None:
        fmt = "flat-csv" if str(args.out).lower().endswith(".csv") else "structured-json"
    _write(report, args.seed, args, fmt)
    ks = ",".join(str(k) for k in report.k_values)
    print(
        f"sweep: reps={report.reps} k_values={ks} criterion={args.criterion} "
        f"seed={args.seed} -> {args.out}"
    )
    return 0


def _cmd_refine_check(args: argparse.Namespace) -> int:
    base = ConditionalPMF(probs=args.base, conditioning_outcome=Outcome.DISEASED)
    witness = RefinementWitness(base=base, deltas=args.deltas, c=args.c, c_prime=args.c_prime)
    verdict = verify_monotonicity(witness)
    print(
        f"refine-check: {verdict.status.value} "
        f"(se_base={verdict.se_base:.6f}, se_refined={verdict.se_refined:.6f})"
    )
    return 0 if verdict.status is VerdictStatus.HOLDS else 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    witness = search_counterexample(
        k=args.k,
        grid_step=args.grid_step,
        allow_negative_deltas=args.allow_negative_deltas,
        enforce_assumption=args.enforce_assumption,
    )
    if witness is None:
        print(
            f"counterexample: none (k={args.k}, grid_step={args.grid_step}, "
            f"allow_negative_deltas={args.allow_negative_deltas}, "
            f"enforce_assumption={args.enforce_assumption})"
        )
        return 0
    verdict = verify_monotonicity(witness)
    base = ",".join(repr(p) for p in witness.base.probs)
    deltas = ",".join(repr(d) for d in witness.deltas)
    print(
        f"counterexample: base={base} deltas={deltas} c={witness.c} "
        f"c_prime={witness.c_prime} se_base={verdict.se_base:.6f} "
        f"se_refined={verdict.se_refined:.6f}"
    )
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ScaleSenseError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
