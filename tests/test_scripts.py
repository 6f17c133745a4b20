"""Smoke tests of the example scripts, loaded by path and run small."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lq_experiment_prints_trace_and_verdict(capsys):
    code = _load("lq_experiment").main(["--n-steps", "20", "--n-paths", "300"])
    assert code in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["iter", "cost", "SE", "residual", "sup-change"]
    assert any(line.startswith("converged: ") for line in lines)
