from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hybridmp import LQSpec, TimeGrid, load_spec

import _report

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def lq() -> LQSpec:
    """The package's reference problem, as its spec file states it."""
    return load_spec(Path(__file__).resolve().parents[1] / "specs" / "default_lq.json")


@pytest.fixture(scope="session")
def spec(lq):
    return lq


@pytest.fixture(scope="session")
def grid200() -> TimeGrid:
    return TimeGrid(1.0, 200)


@pytest.fixture(scope="session")
def regime_free() -> LQSpec:
    return LQSpec(a=(0.3, 0.3), b=(0.8, 0.8), sigma=0.3, Q=(1.0, 1.0),
                  R=(1.5, 1.5), G=(0.8, 0.8), lambda1=1.0, lambda2=1.0,
                  horizon=1.0, x0=1.0, pi0=0.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _report.RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _report.RESULTS:
            terminalreporter.write_line(line)
