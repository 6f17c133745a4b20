"""The benchmark's tracer wraps package names by string; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
