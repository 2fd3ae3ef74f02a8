"""scalesense benchmark: three workloads driven through ``scalesense.cli.run``.

Run from the repository root::

    python3 bench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Workloads (the seed shapes the inputs; the program only sees argv and files):

``sweep``
    ``sweep --n 2000 --reps 1000`` over the default class ladder, structured
    JSON out.  The paper's headline Monte Carlo experiment; almost all of its
    time is in ``core`` (discretize, pmf estimation, threshold selection).
``ingest``
    ``simulate --n 1000000`` writes a ~21 MB cohort CSV, ``analyze --k
    100000`` reads it back, then ``analyze --k 10`` reads a 2e5-row file of
    tied integer scores 0-20 generated before timing.  Puts the load on
    ``io`` and runs ``core`` once on a large n instead of many small calls,
    so a sweep-only change should not move it; the tied file exercises
    classes left empty by ties.
``search``
    Five ``counterexample`` grid searches (three clean grids, two with a
    witness).  Pure-Python integer enumeration in ``refinement``, no numpy or
    file I/O; the seed does not apply.

Every job runs in a fresh interpreter (``bench/job.py``), one at a time,
until ``--seconds`` have passed.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
jobs and reports the per-layer metrics, measured from spans recorded around
calls into each module (``bench/tracing.py``).  ``LAYER_METRICS`` below
says which end-to-end metric each per-layer metric should move.

Every output of every call is checked: at the pinned seed and for the
seed-independent ``search`` workload, against the sha256 digests in
``bench/golden.json``; otherwise against ``bench/oracle.py`` on first sight
and against that first job's bytes afterwards, so traced and untraced jobs
must produce identical outputs.  A call fails when it raises, exits
non-zero or produces an output that does not match.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it print every metric with its
unit and the machine and input notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, which is every child's cwd
GOLDEN = BENCH / "golden.json"
RUN_LIMIT_S = 170.0

LADDER = (2, 3, 4, 5, 6, 8, 10, 15, 50, 100, 200, 500, 800)
SPEC = {"n": 2000, "prevalence": 0.3, "mu0": 0.0, "mu1": 1.0, "sigma": 1.0}
SPEC_ARGS = ["--prevalence", "0.3", "--mu0", "0", "--mu1", "1", "--sigma", "1"]
SWEEP_REPS = 1000
INGEST_ROWS = 1_000_000
INGEST_K = 100_000
TIES_ROWS = 200_000
TIES_K = 10
# (k, grid step, allow negative deltas, enforce the mass-control assumption)
SEARCH_GRIDS = (
    (3, 0.05, False, True),
    (3, 0.05, True, True),
    (4, 0.1, False, True),
    (2, 0.1, True, False),
    (4, 0.05, False, False),
)
SETUP_REPEATS = 9

# name, unit, better, what the metric is
E2E_METRICS = (
    ("setup_s", "s", "lower", "fresh interpreter until `import scalesense.cli` returns, median of 9"),
    ("job_s", "s", "lower", "in-process wall time of one job's CLI calls, median over the run's jobs"),
    ("peak_rss_mb", "MiB", "lower", "ru_maxrss of the job's process, median over the run's jobs"),
)

# name, unit, better, the end-to-end metric it should move (on which workload)
LAYER_METRICS = (
    ("setup.interpreter_s", "s", "lower", "setup_s, every workload"),
    ("setup.numpy_import_s", "s", "lower", "setup_s, every workload"),
    ("setup.scalesense_import_s", "s", "lower", "setup_s, every workload"),
    ("sweep_s", "s", "lower", "job_s on sweep"),
    ("simulate_s", "s", "lower", "job_s on ingest"),
    ("analyze_s", "s", "lower", "job_s on ingest"),
    ("counterexample_s", "s", "lower", "job_s on search"),
    ("cli.run.self_s", "s", "lower", "job_s, every workload (parsing, provenance, print)"),
    ("replication_seed.calls", "count", "lower", "sweep_s on sweep"),
    ("replication_seed.self_s", "s", "lower", "sweep_s on sweep"),
    ("generate_cohort.calls", "count", "lower", "sweep_s on sweep; simulate_s on ingest"),
    ("generate_cohort.self_s", "s", "lower", "sweep_s on sweep; simulate_s on ingest"),
    ("run_partition_sweep.self_s", "s", "lower", "sweep_s on sweep (aggregation and loop)"),
    ("replication_ms.p50", "ms", "lower", "sweep_s on sweep"),
    ("replication_ms.p99", "ms", "lower", "sweep_s on sweep"),
    ("discretize.calls", "count", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("discretize.rows", "count", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("discretize.self_s", "s", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("estimate_conditional_pmfs.calls", "count", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("estimate_conditional_pmfs.self_s", "s", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("select_threshold.calls", "count", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("select_threshold.self_s", "s", "lower", "sweep_s on sweep, not analyze_s on ingest"),
    ("roc_points.self_s", "s", "lower", "analyze_s on ingest"),
    ("analyze_cohort.self_s", "s", "lower", "analyze_s on ingest"),
    ("empty_class_ratio", "ratio", "lower", "none: tie-handling check on ingest"),
    ("load_cohort.self_s", "s", "lower", "analyze_s and peak_rss_mb on ingest"),
    ("load_cohort.mb_per_s", "MB/s", "higher", "analyze_s and peak_rss_mb on ingest"),
    ("write_cohort.self_s", "s", "lower", "simulate_s on ingest"),
    ("write_cohort.mb_per_s", "MB/s", "higher", "simulate_s on ingest"),
    ("write_report.self_s", "s", "lower", "analyze_s on ingest; about 0 on sweep"),
    ("write_report.bytes", "bytes", "lower", "analyze_s on ingest"),
    ("search_counterexample.calls", "count", "lower", "counterexample_s on search; 0 elsewhere"),
    ("search_counterexample.self_s", "s", "lower", "counterexample_s on search; 0 elsewhere"),
    ("verify_monotonicity.self_s", "s", "lower", "counterexample_s on search; 0 elsewhere"),
    ("grid_points", "count", "lower", "counterexample_s on search (computed from the grids)"),
    ("grid_points_per_s", "1/s", "higher", "counterexample_s on search"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced job_s"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Output:
    """One checked output of a CLI call: a file, or its stdout if ``path`` is None.

    With a pinned digest the bytes must hash to it.  Without one, the first
    bytes seen must pass ``validate`` (which returns an error or None), and
    every later job must reproduce them exactly.
    """

    def __init__(self, label: str, path: Optional[Path], pinned: Optional[str],
                 validate: Callable[[bytes], Optional[str]]):
        self.label, self.path, self.sha, self.validate = label, path, pinned, validate

    def check(self, call: dict) -> Optional[str]:
        try:
            data = call["stdout"].encode() if self.path is None else (ROOT / self.path).read_bytes()
        except OSError as exc:
            return f"{self.label}: {exc}"
        digest = sha256(data)
        if self.sha is None:
            error = self.validate(data)
            if error:
                return f"{self.label}: {error}"
            self.sha = digest
        elif digest != self.sha:
            return f"{self.label}: sha256 {digest} != expected {self.sha}"
        return None


def expect_text(text: str) -> Callable[[bytes], Optional[str]]:
    return lambda data: None if data == text.encode() else f"got {data[:200]!r}, expected {text!r}"


@dataclass
class Plan:
    """The calls of one job and everything needed to check and account for them."""

    calls: list = field(default_factory=list)  # argv lists
    outputs: list = field(default_factory=list)  # per call: list of Output
    loaded: list = field(default_factory=list)  # CSVs read by load_cohort
    written: list = field(default_factory=list)  # CSVs written by write_cohort
    reports: list = field(default_factory=list)  # report files written
    grid_points: int = 0
    notes: dict = field(default_factory=dict)

    def add(self, argv: list, outputs: list) -> None:
        self.calls.append([str(a) for a in argv])
        self.outputs.append(outputs)


def pinned_for(golden: dict, workload: str, seed: int, seeded: bool):
    if seeded and seed != golden.get("seed"):
        return lambda label: None
    digests = golden.get("outputs", {}).get(workload, {})
    return lambda label: digests.get(label)


def check_json(data: bytes, want: dict) -> Optional[str]:
    """Compare a report's fields with expected values; floats within TOLERANCE."""
    try:
        got = json.loads(data)
    except ValueError as exc:
        return f"not JSON: {exc}"
    if json.dumps(got, indent=2) + "\n" != data.decode():
        return "not written as 2-space-indented JSON with shortest round-trip floats"

    def walk(path, g, w):
        if isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w):
                return f"{path}: expected a list of {len(w)}"
            return next(filter(None, (walk(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(g, w)))), None)
        if isinstance(w, dict):
            if not isinstance(g, dict):
                return f"{path}: expected an object"
            for key, value in w.items():
                error = walk(f"{path}.{key}", g.get(key), value)
                if error:
                    return error
            return None
        if isinstance(w, float):
            ok = isinstance(g, (int, float)) and math.isclose(
                g, w, rel_tol=oracle.TOLERANCE, abs_tol=oracle.TOLERANCE)
        else:
            ok = g == w
        return None if ok else f"{path}: got {str(g)[:80]}, expected {str(w)[:80]}"

    return walk("report", got, want)


def plan_sweep(seed: int, work: Path, golden: dict) -> Plan:
    pinned = pinned_for(golden, "sweep", seed, seeded=True)
    out = work / "sweep.json"
    plan = Plan(reports=[out])
    ks = ",".join(map(str, LADDER))
    line = f"sweep: reps={SWEEP_REPS} k_values={ks} criterion=youden seed={seed} -> {out}\n"
    report_sha = pinned("sweep.json")
    validate = None
    if report_sha is None:
        records = oracle.sweep(*SPEC.values(), seed, LADDER, SWEEP_REPS)
        want = {
            "schema_version": "1",
            "provenance": {"seed": seed, "timestamp": None},
            "payload": {
                "kind": "partition_sweep",
                "spec": {"n": SPEC["n"], "prevalence": SPEC["prevalence"], "seed": seed},
                "criterion": "youden",
                "reps": SWEEP_REPS,
                "k_values": list(LADDER),
                "records": records,
            },
        }
        validate = lambda data: check_json(data, want)
    plan.add(
        ["sweep", "--seed", seed, "--n", SPEC["n"], *SPEC_ARGS, "--reps", SWEEP_REPS, "--out", out],
        [Output("stdout:sweep", None, pinned("stdout:sweep"), expect_text(line)),
         Output("sweep.json", out, report_sha, validate)],
    )
    plan.notes = {"n": SPEC["n"], "reps": SWEEP_REPS, "k_values": list(LADDER),
                  "rows_binned": SWEEP_REPS * len(LADDER) * SPEC["n"]}
    return plan


def plan_ingest(seed: int, work: Path, golden: dict) -> Plan:
    pinned = pinned_for(golden, "ingest", seed, seeded=True)
    cohort_csv = work / "cohort.csv"
    ties_csv = work / "ties.csv"
    big_json = work / f"analyze-k{INGEST_K}.json"
    ties_json = work / f"analyze-ties-k{TIES_K}.json"
    plan = Plan(loaded=[cohort_csv, ties_csv], written=[cohort_csv], reports=[big_json, ties_json])

    scores, outcomes = oracle.cohort(INGEST_ROWS, SPEC["prevalence"], SPEC["mu0"], SPEC["mu1"],
                                     SPEC["sigma"], seed)
    n1 = int(outcomes.sum())
    csv_sha = pinned("cohort.csv") or oracle.cohort_csv_sha256(scores, outcomes)
    plan.add(
        ["simulate", "--seed", seed, "--n", INGEST_ROWS, *SPEC_ARGS, "--out", cohort_csv],
        [Output("stdout:simulate", None, pinned("stdout:simulate"), expect_text(
            f"simulate: n={INGEST_ROWS} diseased={n1} healthy={INGEST_ROWS - n1} "
            f"seed={seed} -> {cohort_csv}\n")),
         Output("cohort.csv", cohort_csv, csv_sha, None)],
    )

    # Integer point scores: few distinct values, so quantile cuts collide.
    rng = np.random.default_rng([seed, 1])
    tie_outcomes = (rng.random(TIES_ROWS) < SPEC["prevalence"]).astype(np.int64)
    tie_scores = np.clip(np.rint(rng.normal(7.0 + 3.0 * tie_outcomes, 2.5)), 0, 20)
    (ROOT / ties_csv).write_text(
        "score,outcome\n"
        + "".join(f"{int(s)},{o}\n" for s, o in zip(tie_scores.tolist(), tie_outcomes.tolist()))
    )

    for label, path, k, s, o in (
        (big_json.name, big_json, INGEST_K, scores, outcomes),
        (ties_json.name, ties_json, TIES_K, tie_scores, tie_outcomes),
    ):
        cut = oracle.analysis(s, o, k)
        source = cohort_csv if path is big_json else ties_csv
        line = (f"analyze: n={s.size} k={k} criterion=youden c={cut['c']} "
                f"se={cut['se']:.6f} sp={cut['sp']:.6f} -> {path}\n")
        plan.add(
            ["analyze", "--input", source, "--k", k, "--out", path],
            [Output(f"stdout:{label}", None, pinned(f"stdout:{label}"), expect_text(line)),
             Output(label, path, pinned(label), _analysis_validator(k, cut))],
        )
        plan.notes[label] = {"rows": int(s.size), "k": k, "empty_classes": cut["empty_classes"]}
    plan.notes["ties.csv bytes"] = (ROOT / ties_csv).stat().st_size
    return plan


def _analysis_validator(k: int, cut: dict) -> Callable[[bytes], Optional[str]]:
    def validate(data: bytes) -> Optional[str]:
        error = check_json(data, {
            "schema_version": "1",
            "payload": {"kind": "scale_analysis", "criterion": "youden",
                        "summary": {"c": cut["c"], "se": cut["se"], "sp": cut["sp"]}},
        })
        if error:
            return error
        payload = json.loads(data)["payload"]
        sizes = (len(payload["partition"]["boundaries"]), len(payload["pmf_diseased"]),
                 len(payload["pmf_healthy"]), len(payload["roc_points"]))
        if sizes != (k - 1, k, k, k + 1):
            return f"boundaries/pmf/pmf/roc sizes {sizes} for k={k}"
        empty = sum(p == 0 and q == 0 for p, q in zip(payload["pmf_diseased"], payload["pmf_healthy"]))
        if empty != cut["empty_classes"]:
            return f"{empty} empty classes, expected {cut['empty_classes']}"
        return None

    return validate


WITNESS = re.compile(
    r"counterexample: base=(\S+) deltas=(\S+) c=(\d+) c_prime=(\d+) "
    r"se_base=(\d\.\d{6}) se_refined=(\d\.\d{6})\n"
)


def _witness_validator(k: int, step: float, allow_negative: bool):
    """A witness line must describe a real drop: a grid pmf, grid deltas,
    ``c <= c'`` and refined sensitivity below base sensitivity."""

    def validate(data: bytes) -> Optional[str]:
        match = WITNESS.fullmatch(data.decode())
        if not match:
            return f"not a witness line: {data[:200]!r}"
        base = [float(x) for x in match[1].split(",")]
        deltas = [float(x) for x in match[2].split(",")]
        c, c_prime = int(match[3]), int(match[4])
        units = [round(x / step) for x in base + deltas]
        on_grid = all(abs(u * step - x) < 1e-9 for u, x in zip(units, base + deltas))
        refined = [b - d for b, d in zip(base, deltas)] + [math.fsum(deltas)]
        se_base, se_refined = math.fsum(base[c - 1:]), math.fsum(refined[c_prime - 1:])
        if not (len(base) == len(deltas) == k and on_grid and abs(math.fsum(base) - 1) < 1e-9
                and min(base) >= 0 and min(refined) >= -1e-9 and 1 <= c <= k and c <= c_prime <= k + 1
                and (allow_negative or min(deltas) >= 0) and se_refined < se_base - 1e-9):
            return f"not a valid sensitivity drop: {data!r}"
        if (match[5], match[6]) != (f"{se_base:.6f}", f"{se_refined:.6f}"):
            return f"printed sensitivities disagree with the witness: {data!r}"
        return None

    return validate


def plan_search(seed: int, work: Path, golden: dict) -> Plan:
    pinned = pinned_for(golden, "search", seed, seeded=False)
    plan = Plan()
    for k, step, negative, enforce in SEARCH_GRIDS:
        argv = ["counterexample", "--k", k, "--grid-step", step]
        argv += ["--allow-negative-deltas"] if negative else []
        argv += [] if enforce else ["--no-enforce-assumption"]
        label = " ".join(map(str, argv))
        if enforce:
            # The refinement theorem: with the mass-control condition enforced
            # no grid point can lower sensitivity.
            validate = expect_text(
                f"counterexample: none (k={k}, grid_step={step}, allow_negative_deltas="
                f"{negative}, enforce_assumption={enforce})\n")
        else:
            validate = _witness_validator(k, step, negative)
        plan.add(argv, [Output(label, None, pinned(label), validate)])
        points = oracle.grid_points(k, step, negative)
        plan.grid_points += points
        plan.notes[label] = {"grid_points": points, "found_witness": not enforce}
    return plan


WORKLOADS = {"sweep": plan_sweep, "ingest": plan_ingest, "search": plan_search}


def run_child(argv: list, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def setup_times(variants: dict, repeats: int, deadline: float) -> dict:
    """Median wall time of fresh interpreters running each code snippet,
    sampled in interleaved rounds after one untimed warm-up round."""
    samples = {name: [] for name in variants}
    for round_ in range(repeats + 1):
        for name, code in variants.items():
            start = time.perf_counter()
            proc = run_child(["-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"], deadline)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"set-up step {name!r} failed:\n{proc.stderr}")
            if round_:
                samples[name].append(elapsed)
    return {name: statistics.median(values) for name, values in samples.items()}


def run_job(plan: Plan, work: Path, traced: bool, index: int, deadline: float) -> tuple[dict, list]:
    """Run one job in a fresh interpreter; return its result and per-call errors."""
    for path in plan.written + plan.reports:
        (ROOT / path).unlink(missing_ok=True)
    spec_path = ROOT / work / "job.json"
    result_path = ROOT / work / f"result-{index}.json"
    spec_path.write_text(json.dumps(
        {"src": str(SRC), "calls": plan.calls, "trace": traced, "result": str(result_path)}))
    try:
        proc = run_child([str(BENCH / "job.py"), str(spec_path)], deadline)
    except subprocess.TimeoutExpired:
        return None, ["job timed out"] * len(plan.calls)
    if proc.returncode != 0:
        return None, [f"job exited {proc.returncode}: {proc.stderr[-2000:]}"] * len(plan.calls)
    result = json.loads(result_path.read_text())
    result_path.unlink()
    errors = []
    for call, outputs in zip(result["calls"], plan.outputs):
        if call["error"] or call["code"] != 0:
            errors.append(f"{call['command']} exited {call['code']}: {call['error'] or ''}")
            continue
        errors.append(next(filter(None, (o.check(call) for o in outputs)), None))
    result["traced"] = traced
    result["bytes"] = {
        kind: sum((ROOT / p).stat().st_size for p in paths if (ROOT / p).exists())
        for kind, paths in (("loaded", plan.loaded), ("written", plan.written), ("reports", plan.reports))
    }
    return result, errors


def job_layers(result: dict, plan: Plan) -> dict:
    """Per-layer values of one traced job."""
    spans = tracing.summarize(result["spans"])

    def get(name: str, key: str = "self_s"):
        return spans[name][key] if name in spans else 0

    def note(name: str, key: str) -> int:
        return spans[name]["notes"][key] if name in spans else 0

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    size = result["bytes"]
    values = {"cli.run.self_s": get("cli.run")}
    for name in ("replication_seed", "generate_cohort", "run_partition_sweep"):
        values[f"{name}.calls"] = get(f"simulate.{name}", "calls")
        values[f"{name}.self_s"] = get(f"simulate.{name}")
    for name in ("discretize", "estimate_conditional_pmfs", "select_threshold", "roc_points", "analyze_cohort"):
        values[f"{name}.calls"] = get(f"core.{name}", "calls")
        values[f"{name}.self_s"] = get(f"core.{name}")
    values["discretize.rows"] = note("core.discretize", "rows")
    classes = note("core.estimate_conditional_pmfs", "classes")
    values["empty_class_ratio"] = rate(note("core.estimate_conditional_pmfs", "empty_classes"), classes)
    for name in ("load_cohort", "write_cohort", "write_report"):
        values[f"{name}.self_s"] = get(f"io.{name}")
    values["load_cohort.mb_per_s"] = rate(size["loaded"] / 1e6, get("io.load_cohort", "total_s"))
    values["write_cohort.mb_per_s"] = rate(size["written"] / 1e6, get("io.write_cohort", "total_s"))
    values["write_report.bytes"] = size["reports"]
    for name in ("search_counterexample", "verify_monotonicity"):
        values[f"{name}.calls"] = get(f"refinement.{name}", "calls")
        values[f"{name}.self_s"] = get(f"refinement.{name}")
    values["grid_points"] = plan.grid_points
    values["grid_points_per_s"] = rate(plan.grid_points, get("refinement.search_counterexample", "total_s"))
    starts = spans["simulate.replication_seed"]["starts"] if "simulate.replication_seed" in spans else []
    values["replication_gaps_ms"] = np.diff(starts) * 1e3
    return values


def command_seconds(result: dict) -> dict:
    totals = {f"{c}_s": 0.0 for c in ("sweep", "simulate", "analyze", "counterexample")}
    for call in result["calls"]:
        totals[f"{call['command']}_s"] += call["seconds"]
    return totals


def median_of(dicts: list, key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def machine_notes() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scalesense" / "cli.py").is_file():
        print(f"error: no scalesense sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    try:
        golden = json.loads(GOLDEN.read_text())
        plan = WORKLOADS[args.workload](args.seed, work, golden)

        scalesense_import = "import scalesense.cli"
        if args.trace:
            setup = setup_times({"interpreter": "pass", "numpy": "import numpy",
                                 "scalesense": scalesense_import}, SETUP_REPEATS, deadline)
        else:
            setup = setup_times({"scalesense": scalesense_import}, SETUP_REPEATS, deadline)

        # Jobs run back to back while the next one is expected to end within
        # --seconds; a traced run alternates untraced and traced jobs.
        results, errors, durations = [], [], []
        measure_until = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            start = time.monotonic()
            result, job_errors = run_job(plan, work, traced, len(results), deadline)
            durations.append(time.monotonic() - start)
            errors += job_errors
            if result is None:
                break
            results.append(result)
            enough = len(results) >= (2 if args.trace else 1)
            if enough and time.monotonic() + statistics.median(durations) > measure_until:
                break
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)

    failed = sum(e is not None for e in errors)
    for error in filter(None, errors):
        print(f"check failed: {error}", file=sys.stderr)
    untraced = [r for r in results if not r["traced"]]
    traced_jobs = [r for r in results if r["traced"]]
    if not untraced or (args.trace and not traced_jobs):
        print("error: no job completed", file=sys.stderr)
        return 1

    e2e = {
        "setup_s": setup["scalesense"],
        "job_s": median_of(untraced, "job_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
    }
    job_samples = f"{len(untraced)} untraced jobs"
    samples = {"setup_s": f"{SETUP_REPEATS} interpreters"}
    lines = [(name, e2e[name], unit, samples.get(name, job_samples), what)
             for name, unit, _, what in E2E_METRICS]
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in E2E_METRICS}
    if args.trace:
        layers = [job_layers(r, plan) for r in traced_jobs]
        per_command = [command_seconds(r) for r in untraced]
        gaps = np.concatenate([v.pop("replication_gaps_ms") for v in layers])
        values = {key: median_of(layers, key) for key in layers[0]}
        values.update({key: median_of(per_command, key) for key in per_command[0]})
        values["replication_ms.p50"] = float(np.percentile(gaps, 50)) if gaps.size else 0.0
        values["replication_ms.p99"] = float(np.percentile(gaps, 99)) if gaps.size else 0.0
        values["setup.interpreter_s"] = setup["interpreter"]
        values["setup.numpy_import_s"] = setup["numpy"] - setup["interpreter"]
        values["setup.scalesense_import_s"] = setup["scalesense"] - setup["numpy"]
        values["trace.overhead_s"] = median_of(traced_jobs, "job_s") - e2e["job_s"]
        samples.update({name: job_samples for name in per_command[0]})
        samples.update({f"setup.{name}": f"{SETUP_REPEATS} interpreters each"
                        for name in ("interpreter_s", "numpy_import_s", "scalesense_import_s")})
        samples["replication_ms.p50"] = samples["replication_ms.p99"] = f"{gaps.size} gaps"
        samples["trace.overhead_s"] = f"{len(traced_jobs)} traced vs {job_samples}"
        traced_samples = f"{len(traced_jobs)} traced jobs"
        lines += [(name, values[name], unit, samples.get(name, traced_samples), moves)
                  for name, unit, _, moves in LAYER_METRICS]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}

    notes = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": len(results), "untraced_jobs": len(untraced), "traced_jobs": len(traced_jobs),
        "job_s_samples": [r["job_s"] for r in results], "wall_s": time.monotonic() - started,
        "machine": machine_notes(), "inputs": {**plan.notes, "bytes": results[0]["bytes"]},
        "checked_against": "bench/golden.json" if args.seed == golden["seed"] or args.workload == "search"
        else "bench/oracle.py, then the first job's bytes",
    }
    for name, value, unit, count, what in lines:
        print(f"{name:34} {value:>16.6f} {unit:6} ({count}; {what})")
    print(json.dumps({"notes": notes}))
    print(json.dumps({"correct": failed == 0, "attempted": len(errors), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
