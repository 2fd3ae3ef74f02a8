"""The benchmark's tracer still installs on, and runs through, the package.

``bench/tracing.py`` wraps functions by name in the namespaces where their
callers look them up (``scalesense.simulate.discretize`` and the like).  A
refactor that unbinds one of those names breaks ``bench/run.py --trace 1``
without failing any other test; this one catches it.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import scalesense.cli as cli
import scalesense.core as core
import scalesense.simulate as simulate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def restored_namespaces():
    """Put back every function the tracer replaces, for the tests after."""
    namespaces = (cli, core, simulate)
    saved = [dict(vars(namespace)) for namespace in namespaces]
    yield
    for namespace, names in zip(namespaces, saved):
        vars(namespace).update(names)


def _jobs(tmp_path, tag):
    spec_flags = ["--seed", "3", "--n", "120", "--prevalence", "0.4",
                  "--mu0", "0", "--mu1", "1", "--sigma", "1"]
    cohort = tmp_path / f"cohort-{tag}.csv"
    outputs = [tmp_path / f"sweep-{tag}.json", tmp_path / f"analysis-{tag}.json"]
    for argv in (
        ["sweep", *spec_flags, "--k-list", "2,5,120", "--reps", "3", "--out", str(outputs[0])],
        ["simulate", *spec_flags, "--out", str(cohort)],
        ["analyze", "--input", str(cohort), "--k", "7", "--out", str(outputs[1])],
    ):
        assert cli.run(argv) == 0
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs]


def test_traced_jobs_run_and_match_untraced_bytes(tmp_path, capsys, tracing, restored_namespaces):
    untraced = _jobs(tmp_path, "untraced")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert _jobs(tmp_path, "traced") == untraced
    capsys.readouterr()

    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    assert calls["cli.run"] == 3
    assert calls["simulate.run_partition_sweep"] == 1
    assert calls["simulate.replication_seed"] == 3
    assert calls["simulate.generate_cohort"] == 1
    assert calls["io.write_cohort"] == 1
    assert calls["io.load_cohort"] == 1
    assert calls["core.analyze_cohort"] == 1
    assert calls["core.select_threshold"] == 1
    assert calls["core.roc_points"] == 1
    assert calls["io.write_report"] == 2
