"""What the benchmark reads of the package: the names its tracer wraps by
string, and the calls its scripts make."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridmp.pathsim import TimeGrid, draw_drivers, simulate_chain

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """The bench script ``name``.py, loaded by path as ``bench_<name>`` while the fixture lives."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracer():
    yield from _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


def _module(name: str):
    return importlib.import_module("hybridmp" if name == "__init__" else f"hybridmp.{name}")


def test_every_function_span_resolves(tracer):
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.FUNCTION_SPANS
               if not hasattr(_module(module), attr)]
    assert missing == []


def test_every_method_span_is_defined_on_its_class(tracer):
    missing = [f"{module}.{cls}.{attr}" for module, cls, attr, _ in tracer.METHOD_SPANS
               if attr not in vars(getattr(_module(module), cls))]
    assert missing == []


def test_to_problem_spec_is_the_spec_itself(lq):
    # bench/workloads.py, bench/selftest.py and bench/baseline.py call it
    assert lq.to_problem_spec() is lq


def test_forward_values_passes_every_check_at_the_toy_size(workloads, lq):
    checks, digests = workloads.forward_values(workloads.TOY["filter"][0], lq, 42, 1)
    assert [name for name, check in checks.items() if not check["pass"]] == []
    assert list(digests) == ["values.json"]


def test_simulate_chain_runs_as_the_baseline_script_calls_it(lq):
    # bench/baseline.py: simulate_chain(problem.generator, grid, n, seed, pi0=problem.pi0),
    # where problem is the spec itself (see above)
    grid = TimeGrid(lq.horizon, 40)
    alpha = simulate_chain(lq.generator, grid, 64, 42, pi0=lq.pi0)
    assert np.array_equal(alpha, draw_drivers(lq, grid, 64, 42)[0])
    assert set(np.unique(alpha)) == {1, 2}
