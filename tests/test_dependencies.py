"""Every third-party module the package imports is a declared dependency,
``import scalesense.cli`` loads none but numpy and no process-pool module,
and ``orjson`` is loaded only by the commands that format float runs or parse
a plain cohort file, where no parse makes it keep its buffer for short texts."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    """Top-level names of the absolute imports in ``path``, function-level ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    """Distribution names in ``[project] dependencies`` of ``pyproject.toml``,
    as import names (lower case, ``-`` read as ``_``)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed)
    }


def test_every_third_party_import_is_a_declared_dependency():
    imported = set().union(*map(imported_modules, (ROOT / "src" / "scalesense").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"scalesense"}
    assert third_party, "found no third-party import; the walk is broken"
    assert third_party <= declared_dependencies()


def run_python(script, *args):
    """``script`` run by a fresh interpreter that imports the package from
    ``src``, given ``args``; its completed process, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, check=True,
    )


CLI_IMPORTS = """
import sys

before = set(sys.modules)
import scalesense.cli

print(*sorted({name.split(".")[0] for name in set(sys.modules) - before}))
"""


def test_importing_the_cli_loads_no_third_party_module_but_numpy():
    """``import scalesense.cli``, which every command runs before its work and
    which the benchmark times as its start-up, loads numpy and nothing else
    from outside the standard library: a module-level import of any other
    fails here."""
    loaded = set(run_python(CLI_IMPORTS).stdout.split())
    assert "numpy" in loaded and "scalesense" in loaded, "the import went unseen"
    assert loaded - set(sys.stdlib_module_names) - {"scalesense"} == {"numpy"}


def test_importing_the_cli_loads_no_process_pool():
    """The sweep forks its workers with ``os.fork``; ``multiprocessing`` or
    ``concurrent.futures``, if imported at start-up, would cost every
    command their load time."""
    loaded = set(run_python(CLI_IMPORTS).stdout.split())
    assert "scalesense" in loaded, "the import went unseen"
    assert not loaded & {"multiprocessing", "concurrent"}


LAZY_ORJSON = """
import sys
from scalesense.cli import run

out = sys.argv[1]
spec = ["--seed", "1", "--n", "60", "--prevalence", "0.4", "--mu0", "0", "--mu1", "1",
        "--sigma", "1"]
for name in ("s.json", "s.csv"):
    assert run(["sweep", *spec, "--k-list", "2,3", "--reps", "2", "--out", f"{out}/{name}"]) == 0
assert run(["refine-check", "--base", "0.6,0.4", "--deltas", "0.1,0.2", "--c", "1",
            "--c-prime", "2"]) in (0, 1)
assert run(["counterexample", "--k", "2", "--grid-step", "0.5"]) in (0, 1)
print("orjson loaded:", "orjson" in sys.modules)
assert run(["simulate", *spec, "--out", f"{out}/c.csv"]) == 0
print("orjson loaded:", "orjson" in sys.modules)
"""


def test_orjson_stays_unloaded_until_a_command_formats_float_runs(tmp_path):
    """A fresh interpreter runs ``sweep`` (JSON and flat CSV), ``refine-check``
    and ``counterexample`` without loading ``orjson``, then ``simulate`` loads
    it: an eager import would cost every command its load time."""
    done = run_python(LAZY_ORJSON, tmp_path)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("orjson loaded:")]
    assert loaded == ["orjson loaded: False", "orjson loaded: True"]


LAZY_ORJSON_LOAD = """
import sys
import scalesense.io

print("orjson loaded:", "orjson" in sys.modules)
path = sys.argv[1] + "/c.csv"
with open(path, "w") as handle:  # one full read of plain rows, then a short one
    handle.write("score,outcome\\n" + "0.5,1\\n" * (scalesense.io._READ // 5))
scalesense.io.load_cohort(path)
print("orjson loaded:", "orjson" in sys.modules)
"""


def test_orjson_stays_unloaded_until_a_plain_cohort_file_is_parsed(tmp_path):
    """``import scalesense.io`` does not load ``orjson``; parsing a plain
    cohort file, written here without the package, does."""
    done = run_python(LAZY_ORJSON_LOAD, tmp_path)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("orjson loaded:")]
    assert loaded == ["orjson loaded: False", "orjson loaded: True"]


ORJSON_BUFFER = """
import sys
import orjson

def size():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))

read = int(sys.argv[1])
before = size()
orjson.loads("[%s]" % (" " * read))  # as short as a text load_cohort gives orjson
long = size()
orjson.loads("[0]")
print(long - before, size() - long)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_orjson_keeps_a_buffer_only_after_parsing_a_text_shorter_than_a_cohort_read():
    """orjson parses a short text in an 8 MiB buffer that it keeps for good,
    and a text of ``io._READ`` characters or more in memory it frees, which is
    why ``load_cohort`` gives it no shorter one.  A later orjson that moves the
    limit fails here; its fix is a new ``_READ`` or a version pin."""
    from scalesense.io import _READ

    done = subprocess.run(
        [sys.executable, "-c", ORJSON_BUFFER, str(_READ)],
        capture_output=True, text=True, check=True,
    )
    long_kib, short_kib = map(int, done.stdout.split())
    assert long_kib < 1024 and short_kib >= 8192
