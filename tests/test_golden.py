"""Golden digests: the exact bytes of reference reports for fixed seeds.

Determinism tests compare two runs of the same code with each other, so a
refactor that changes every run the same way would pass them.  These
digests pin the bytes themselves.  Any intended change to report output
must update them in the same change, with the reason stated.
"""

import hashlib

import pytest

from scalesense.cli import run

SPEC_FLAGS = (
    "--seed", "42", "--n", "300", "--prevalence", "0.3",
    "--mu0", "0", "--mu1", "1", "--sigma", "1",
)
SWEEP_FLAGS = ("sweep",) + SPEC_FLAGS + ("--k-list", "8,2,50,3,10,4,5", "--reps", "25")

SWEEP_JSON_SHA256 = "db3d20c053376785df196df268922b09cc4b15659893c335830c81811b5d4b1f"
SWEEP_CSV_SHA256 = "e018bcf216623f0596bf364aff0de097ab0e563ba36937e7e3dc9afe3846f7a1"
ANALYZE_JSON_SHA256 = "60eb78e8fe49e0532ba0154881741e1ebf9f56f216df05845eae6bfc29e4f624"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "fmt, name, digest",
    [
        ("structured-json", "sweep.json", SWEEP_JSON_SHA256),
        ("flat-csv", "sweep.csv", SWEEP_CSV_SHA256),
    ],
    ids=["structured-json", "flat-csv"],
)
def test_sweep_report_bytes_are_pinned(tmp_path, capsys, fmt, name, digest):
    out = tmp_path / name
    assert run(list(SWEEP_FLAGS) + ["--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "sweep: reps=25 k_values=8,2,50,3,10,4,5 criterion=youden "
        f"seed=42 -> {out}\n"
    )
    assert sha256(out) == digest


def test_analyze_report_bytes_are_pinned(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    report = tmp_path / "analysis.json"
    assert run(["simulate"] + list(SPEC_FLAGS) + ["--out", str(cohort)]) == 0
    assert run(
        ["analyze", "--input", str(cohort), "--k", "6", "--criterion",
         "closest-topleft", "--out", str(report)]
    ) == 0
    assert sha256(report) == ANALYZE_JSON_SHA256


@pytest.mark.parametrize(
    "flags, stdout",
    [
        (
            ["--k", "2", "--grid-step", "0.05", "--allow-negative-deltas",
             "--no-enforce-assumption"],
            "counterexample: base=0.0,1.0 deltas=-1.0,1.0 c=1 c_prime=2 "
            "se_base=1.000000 se_refined=0.000000\n",
        ),
        (
            ["--k", "4", "--grid-step", "0.05", "--no-enforce-assumption"],
            "counterexample: base=0.0,0.0,0.0,1.0 deltas=0.0,0.0,0.0,0.0 c=1 "
            "c_prime=5 se_base=1.000000 se_refined=0.000000\n",
        ),
        (
            ["--k", "3", "--grid-step", "0.1"],
            "counterexample: none (k=3, grid_step=0.1, "
            "allow_negative_deltas=False, enforce_assumption=True)\n",
        ),
    ],
    ids=["negative-deltas", "uncontrolled", "clean"],
)
def test_counterexample_stdout_is_pinned(capsys, flags, stdout):
    assert run(["counterexample"] + flags) == 0
    assert capsys.readouterr().out == stdout
