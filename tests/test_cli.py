import json
import subprocess
import sys
import warnings

import pytest

import scalesense.cli as cli
from scalesense import DEFAULT_CLASS_LADDER, __version__, load_cohort, read_report
from scalesense.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cohort_csv(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    code, _, _ = invoke(
        capsys,
        "simulate", "--seed", "7", "--n", "80", "--prevalence", "0.4",
        "--mu0", "0", "--mu1", "1", "--sigma", "1", "--out", str(path),
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_a_loadable_cohort(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, out, _ = invoke(
            capsys,
            "simulate", "--seed", "3", "--n", "40", "--prevalence", "0.5",
            "--mu0", "0", "--mu1", "2", "--sigma", "1", "--out", str(path),
        )
        assert code == 0
        assert out.startswith("simulate:")
        assert len(load_cohort(path)) == 40

    def test_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            invoke(
                capsys,
                "simulate", "--seed", "3", "--n", "40", "--prevalence", "0.5",
                "--mu0", "0", "--mu1", "2", "--sigma", "1", "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_bad_spec(self, tmp_path, capsys):
        code, _, err = invoke(
            capsys,
            "simulate", "--seed", "3", "--n", "40", "--prevalence", "2.0",
            "--mu0", "0", "--mu1", "2", "--sigma", "1",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "spec-validation-error" in err

    def test_a_size_numpy_cannot_hold_is_a_spec_error(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, _, err = invoke(
            capsys,
            "simulate", "--seed", "0", "--n", "4611686018427387904", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1", "--out", str(path),
        )
        assert code == 1
        assert "spec-validation-error" in err
        assert not path.exists()


    def test_a_cohort_the_machine_cannot_hold_is_a_spec_error(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, _, err = invoke(
            capsys,
            "simulate", "--seed", "0", "--n", str(2**59), "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1", "--out", str(path),
        )
        assert code == 1
        assert "spec-validation-error" in err and "cannot allocate" in err
        assert not path.exists()


class TestAnalyze:
    def test_writes_a_structured_report(self, cohort_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys,
            "analyze", "--input", str(cohort_csv), "--k", "4",
            "--out", str(out_path),
        )
        assert code == 0
        assert out.startswith("analyze:")
        document = read_report(out_path)
        assert document.payload.partition.k == 4
        assert document.provenance.seed is None
        assert document.provenance.timestamp is None

    def test_reports_domain_errors(self, cohort_csv, tmp_path, capsys):
        code, _, err = invoke(
            capsys,
            "analyze", "--input", str(cohort_csv), "--k", "4000",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "insufficient-samples" in err

    def test_missing_input_is_an_io_error(self, tmp_path, capsys):
        code, _, err = invoke(
            capsys,
            "analyze", "--input", str(tmp_path / "nope.csv"), "--k", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "io-error" in err

    def test_custom_columns(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("risk|label\n1.0|0\n2.0|1\n3.0|0\n4.0|1\n")
        code, _, _ = invoke(
            capsys,
            "analyze", "--input", str(path), "--k", "2",
            "--score-column", "risk", "--outcome-column", "label",
            "--delimiter", "|", "--out", str(tmp_path / "r.json"),
        )
        assert code == 0


class TestSweep:
    def test_flat_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys,
            "sweep", "--seed", "42", "--n", "100", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1",
            "--k-list", "4,2,3", "--reps", "5", "--out", str(out_path),
        )
        assert code == 0
        assert out.startswith("sweep:")
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,mean_se,sd_se,mean_sp,sd_sp,mean_c"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4"]

    def test_json_output_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, _ = invoke(
            capsys,
            "sweep", "--seed", "42", "--n", "100", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1",
            "--k-list", "2,3", "--reps", "4", "--out", str(out_path),
        )
        assert code == 0
        document = read_report(out_path)
        assert document.payload.k_values == (2, 3)
        assert document.provenance.seed == 42

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = invoke(
                capsys,
                "sweep", "--seed", "11", "--n", "60", "--prevalence", "0.3",
                "--mu0", "0", "--mu1", "1", "--sigma", "1",
                "--k-list", "2,3", "--reps", "4", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_bad_k(self, tmp_path, capsys):
        code, _, err = invoke(
            capsys,
            "sweep", "--seed", "1", "--n", "50", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1",
            "--k-list", "1,2", "--reps", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "invalid-class-count" in err

    def test_replications_numpy_cannot_hold_are_an_empty_experiment(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        code, _, err = invoke(
            capsys,
            "sweep", "--seed", "0", "--n", "100", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1",
            "--k-list", "2", "--reps", "4611686018427387904", "--out", str(path),
        )
        assert code == 1
        assert "empty-experiment" in err
        assert not path.exists()

    def test_replications_the_machine_cannot_hold_are_an_empty_experiment(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        code, _, err = invoke(
            capsys,
            "sweep", "--seed", "0", "--n", "100", "--prevalence", "0.3",
            "--mu0", "0", "--mu1", "1", "--sigma", "1",
            "--k-list", "2", "--reps", str(2**59), "--out", str(path),
        )
        assert code == 1
        assert "empty-experiment" in err and "cannot allocate" in err
        assert not path.exists()


class TestRefineCheck:
    def test_failed_control_prints_status_and_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys,
            "refine-check", "--base", "0.6,0.4", "--deltas", "0.1,0.2",
            "--c", "1", "--c-prime", "2",
        )
        assert code == 1
        assert "assumption_failed" in out

    # The second case's shavings sum to 0.7999999999999999 in floats, below the 0.8 they cover.
    # The third's base falls short of mass 1 by 1e-16 and holds 9.99999999e-10 between the
    # thresholds, where se_base is pinned at 1: a drop of two slacks, each within tolerance.
    @pytest.mark.parametrize(
        "base, deltas, c, c_prime",
        [
            ("0.6,0.4", "0.1,0.2", "2", "2"),
            ("0,0.2,0.8", "0,0.1,0.7", "3", "4"),
            ("0,0,9.99999999e-10,0,0,0.9999999989999999", "0,0,0,0,0,0", "1", "4"),
        ],
    )
    def test_holding_refinement_exits_zero(self, capsys, base, deltas, c, c_prime):
        code, out, _ = invoke(
            capsys,
            "refine-check", "--base", base, "--deltas", deltas, "--c", c, "--c-prime", c_prime,
        )
        assert code == 0
        assert "holds" in out

    def test_negative_deltas_are_reported_as_invalid(self, capsys):
        # leading-dash values need the --flag=value spelling under argparse
        code, out, _ = invoke(
            capsys,
            "refine-check", "--base", "0.2,0.8", "--deltas=-0.3,0.5",
            "--c", "1", "--c-prime", "2",
        )
        assert code == 1
        assert "invalid_deltas" in out

    def test_invalid_base_pmf_is_a_domain_error(self, capsys):
        code, _, err = invoke(
            capsys,
            "refine-check", "--base", "0.6,0.6", "--deltas", "0.0,0.0",
            "--c", "1", "--c-prime", "1",
        )
        assert code == 1
        assert "invariant-violation" in err

    @pytest.mark.parametrize(
        "base, deltas, code",
        [("1e308,1e308", "0,0", "invariant-violation"),
         ("0.5,0.5", "-1e308,-1e308", "negative-probability")],
        ids=["base-mass", "pooled-mass"],
    )
    def test_overflowing_sums_are_one_error_line(self, capsys, base, deltas, code):
        status, out, err = invoke(
            capsys,
            "refine-check", "--base", base, f"--deltas={deltas}", "--c", "1", "--c-prime", "2",
        )
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {code}: ") and err.count("\n") == 1


class TestCounterexample:
    def test_clean_search_reports_none(self, capsys):
        code, out, _ = invoke(capsys, "counterexample", "--k", "2")
        assert code == 0
        assert "counterexample: none" in out

    def test_found_witness_is_printed(self, capsys):
        code, out, _ = invoke(
            capsys,
            "counterexample", "--k", "2", "--grid-step", "0.1",
            "--allow-negative-deltas", "--no-enforce-assumption",
        )
        assert code == 0
        assert "base=0.0,1.0" in out
        assert "deltas=-1.0,1.0" in out
        assert "c=1" in out and "c_prime=2" in out

    @pytest.mark.parametrize("enforce", ["--enforce-assumption", "--no-enforce-assumption"])
    def test_more_classes_than_numpy_can_size_are_one_error_line(self, capsys, enforce):
        code, out, err = invoke(
            capsys, "counterexample", "--k", str(10**21), "--grid-step", "0.5", enforce
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-class-count: ") and err.count("\n") == 1

    def test_bad_grid_step_is_a_domain_error(self, capsys):
        code, _, err = invoke(
            capsys, "counterexample", "--k", "2", "--grid-step", "0.3"
        )
        assert code == 1
        assert "empty-grid" in err


class TestPaths:
    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
    def test_a_name_the_file_system_cannot_encode_is_one_error_line(
        self, tmp_path, capsys, command
    ):
        """A cohort written or read, or a report written, under a lone surrogate."""
        bad, good = str(tmp_path / "x\ud800.csv"), str(tmp_path / "out.json")
        spec = ["--seed", "1", "--n", "50", "--prevalence", "0.3", "--mu0", "0", "--mu1", "1",
                "--sigma", "1"]
        argv = {
            "simulate": ["simulate", *spec, "--out", bad],
            "analyze": ["analyze", "--input", bad, "--k", "3", "--out", good],
            "sweep": ["sweep", *spec, "--k-list", "2", "--reps", "2", "--out", bad],
        }[command]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: io-error: ") and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert invoke(capsys, "bogus")[0] == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert invoke(capsys, "analyze", "--k", "2")[0] == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert invoke(capsys, "counterexample", "--k", "2", "--frobnicate")[0] == 2

    def test_non_integer_k_exits_two(self, capsys):
        assert invoke(capsys, "analyze", "--input", "x", "--k", "two", "--out", "y")[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--seed", "1", "--n", "50", "--prevalence", "0.3", "--mu0", "0",
              "--mu1", "1", "--sigma", "1", "--k-list", "2,x", "--out", "s.json"],
             "expected comma-separated integers, got '2,x'"),
            (["refine-check", "--base", "0.5,0.5", "--deltas", "0.1,y", "--c", "1",
              "--c-prime", "1"],
             "expected comma-separated floats, got '0.1,y'"),
        ],
        ids=["k-list", "deltas"],
    )
    def test_malformed_comma_list_exits_two(self, capsys, argv, message):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert message in err

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
        for sub in ("analyze", "simulate", "sweep", "refine-check", "counterexample"):
            assert invoke(capsys, sub, "--help")[0] == 0


class TestParserReuse:
    """``run`` builds its parser on its first call in a process and reuses it
    on every later call, with each call's output a fresh parser's."""

    SPEC = ["--seed", "4", "--n", "800", "--prevalence", "0.4", "--mu0", "0", "--mu1", "1",
            "--sigma", "1"]
    SEARCH = ["counterexample", "--k", "2", "--grid-step", "0.1", "--allow-negative-deltas",
              "--no-enforce-assumption"]

    @pytest.fixture(autouse=True)
    def first_call_in_the_process(self):
        cli._parser.cache_clear()

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
        cohort = tmp_path / "c.csv"
        for argv in (
            ["simulate", *self.SPEC, "--out", str(cohort)],
            ["analyze", "--input", str(cohort), "--k", "3", "--out", str(tmp_path / "a.json")],
            ["sweep", *self.SPEC, "--k-list", "2,3", "--reps", "2",
             "--out", str(tmp_path / "s.json")],
            self.SEARCH,
            ["counterexample", "--k", "2", "--grid-step", "0.5"],
        ):
            assert invoke(capsys, *argv)[0] == 0
        assert len(built) == 1
        assert build() is not build()

    def test_no_value_leaks_into_the_next_call(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        sweep = ["sweep", *self.SPEC, "--reps", "1", "--out", str(out)]
        assert invoke(capsys, *sweep, "--k-list", "2,5")[0] == 0
        assert read_report(out).payload.k_values == (2, 5)
        assert invoke(capsys, *sweep)[0] == 0
        assert read_report(out).payload.k_values == DEFAULT_CLASS_LADDER

        bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
        bare.write_text("1.0,0\n2.0,1\n3.0,0\n")
        headed.write_text("score,outcome\n1.0,0\n2.0,1\n3.0,0\n4.0,1\n")
        analyze = ["analyze", "--k", "2", "--out", str(tmp_path / "a.json")]
        code, text, _ = invoke(capsys, *analyze, "--input", str(bare), "--no-header")
        assert (code, text.split()[1]) == (0, "n=3")
        code, text, _ = invoke(capsys, *analyze, "--input", str(headed))
        assert (code, text.split()[1]) == (0, "n=4")

    def test_usage_help_and_version_leave_the_next_call_as_a_first_call(self, capsys):
        first = invoke(capsys, *self.SEARCH)
        cli._parser.cache_clear()
        code, out, err = invoke(capsys, "counterexample", "--k", "two")
        assert (code, out) == (2, "")
        assert err.startswith("usage: scalesense counterexample ")
        assert invoke(capsys, "--help") == (0, cli.build_parser().format_help(), "")
        assert invoke(capsys, "--version") == (0, f"{__version__}\n", "")
        assert invoke(capsys, *self.SEARCH) == first
        assert first[0] == 0 and first[1].startswith("counterexample: base=")


SPEC_VALUES = {"--seed": "1", "--n": "20", "--prevalence": "0.5", "--mu0": "0", "--mu1": "1",
               "--sigma": "1"}
# Valid, tiny values of each command's options.
VALID_OPTIONS = {
    "simulate": {**SPEC_VALUES, "--out": "c.csv"},
    "sweep": {**SPEC_VALUES, "--k-list": "2,3", "--reps": "2", "--criterion": "youden",
              "--out": "s.json", "--format": "structured-json", "--timestamp": "t"},
    "analyze": {"--input": "cohort.csv", "--k": "2", "--criterion": "youden", "--out": "a.json",
                "--score-column": "score", "--outcome-column": "outcome", "--delimiter": ",",
                "--timestamp": "t"},
    "refine-check": {"--base": "0.6,0.4", "--deltas": "0.1,0.2", "--c": "1", "--c-prime": "2"},
    "counterexample": {"--k": "2", "--grid-step": "0.5"},
}
# Texts put in place of one valid value: integers at and past int64 and uint64 (the
# longest past the digits int() reads), extreme and non-finite floats, and odd lists.
EXTREME_TEXTS = [
    "-1", "0", "1", str(2**63), str(2**64 - 1), str(2**64), "1" + "0" * 5000, "-0.0", "5e-324",
    "1e308", "1e400", "inf", "nan", "", "True", "x", "1e308,1e308", "nan,", ",", "0.5,0.5,",
]


class TestExtremeArguments:
    @pytest.mark.parametrize("command", list(VALID_OPTIONS))
    def test_each_run_ends_in_one_summary_error_or_usage_line(
        self, command, tmp_path, monkeypatch, capsys
    ):
        """Any one option set to any of :data:`EXTREME_TEXTS`, with warnings
        raised as errors, exits 2 with argparse's usage and error, 1 with one
        ``error:`` line, or, where the value is valid, as the command does
        with one summary line.  Output paths such as ``"1"`` are valid, so the
        run writes into ``tmp_path``."""
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", *sum(SPEC_VALUES.items(), ()), "--out", "cohort.csv"]) == 0
        capsys.readouterr()
        odd = []
        for option in VALID_OPTIONS[command]:
            for text in EXTREME_TEXTS:
                argv = [command, *sum({**VALID_OPTIONS[command], option: text}.items(), ())]
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code = run(argv)
                except Exception as exc:  # SystemExit is no Exception, so it fails the test
                    odd.append(f"{option}={text[:20]!r}: {type(exc).__name__}: {exc}")
                    continue
                out, err = capsys.readouterr()
                usage = err.startswith("usage: ") and ": error: " in err.splitlines()[-1]
                error = err.startswith("error: ") and err.count("\n") == 1
                summary = out.startswith(f"{command}: ") and out.count("\n") == 1
                expected = {
                    0: summary and not err,
                    1: error and not out or command == "refine-check" and summary and not err,
                    2: usage and not out,
                }
                if not expected.get(code):
                    odd.append(f"{option}={text[:20]!r}: exit {code}, out {out!r}, err {err!r}")
        assert odd == []


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "scalesense",
                "sweep", "--seed", "2", "--n", "50", "--prevalence", "0.3",
                "--mu0", "0", "--mu1", "1", "--sigma", "1",
                "--k-list", "2", "--reps", "2",
                "--out", str(tmp_path / "s.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("sweep:")
        body = json.loads((tmp_path / "s.json").read_text())
        assert body["payload"]["kind"] == "partition_sweep"
