import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from scalesense import Cohort, ConditionalPMF, Outcome


@st.composite
def pmf_tuples(draw, min_k=1, max_k=10):
    """Normalized probability tuples of varying length."""
    k = draw(st.integers(min_k, max_k))
    weights = draw(
        st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
        ).filter(lambda w: sum(w) > 1e-6)
    )
    arr = np.asarray(weights, dtype=np.float64)
    arr = arr / arr.sum()
    return tuple(float(p) for p in arr)


@st.composite
def pmfs(draw, min_k=1, max_k=10, outcome=Outcome.DISEASED):
    return ConditionalPMF(
        probs=draw(pmf_tuples(min_k=min_k, max_k=max_k)),
        conditioning_outcome=outcome,
    )


@st.composite
def pmf_pairs(draw, min_k=1, max_k=10):
    """Two pmfs over the same class count, one per outcome."""
    k = draw(st.integers(min_k, max_k))
    p1 = draw(pmf_tuples(min_k=k, max_k=k))
    p0 = draw(pmf_tuples(min_k=k, max_k=k))
    return (
        ConditionalPMF(probs=p1, conditioning_outcome=Outcome.DISEASED),
        ConditionalPMF(probs=p0, conditioning_outcome=Outcome.HEALTHY),
    )


@st.composite
def refinement_inputs(draw, min_k=1, max_k=8):
    """A base pmf plus valid deltas (0 <= delta_i <= p_i)."""
    base = draw(pmfs(min_k=min_k, max_k=max_k))
    fractions = draw(
        st.lists(st.floats(0.0, 1.0), min_size=base.k, max_size=base.k)
    )
    deltas = tuple(f * p for f, p in zip(fractions, base.probs))
    return base, deltas


@st.composite
def integer_score_cohorts(draw, min_n=2, max_n=60):
    """Cohorts with integer-valued scores (exact under monotone transforms)."""
    n = draw(st.integers(min_n, max_n))
    scores = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Cohort(scores=[float(s) for s in scores], outcomes=outcomes)


@pytest.fixture(autouse=True, scope="session")
def source_tree_on_child_path():
    """Interpreters that tests start (``python -m scalesense``) import this
    checkout's ``src``, as the test process itself does via ``pythonpath``."""
    src = Path(__file__).resolve().parents[1] / "src"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(src), prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def every_child_reaped():
    """A test fails if it leaves a child process running or unreaped, as a
    sweep that forks must not."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
