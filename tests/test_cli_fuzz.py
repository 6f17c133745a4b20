"""The CLI's exit-code contract under fuzzed config and spec documents.

``hybridmp run`` must end in 0 (all metrics pass), 1 (a metric fails) or
2 with an ``error.json`` naming one of the package's error classes,
whatever the documents hold; no other exception may escape ``cli.main``.
Each example starts from a valid toy run and moves up to three config
keys and three spec keys to a schema edge, one past it, an extreme
finite number or a value of the wrong JSON type.  A size inside the
valid range is at most 200 paths x 20 steps with ``lq_max_iter`` <= 5;
a size outside it is one that ``ExperimentConfig`` refuses before any
allocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridmp import errors
from hybridmp.cli import main
from hybridmp.harness import SUITES

ERROR_NAMES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}

MISSING = object()  # the key is left out of the document

TOY_SPEC = {
    "a1": 0.5, "a2": -0.5, "b1": 1.0, "b2": 0.5, "sigma": 0.3,
    "Q1": 1.0, "Q2": 1.0, "R1": 1.0, "R2": 2.0, "G1": 1.0, "G2": 1.0,
    "lambda1": 1.0, "lambda2": 1.0, "T": 1.0, "x0": 1.0, "pi0": 0.5,
}

TINY = 5e-324  # the smallest positive double
TINY_HORIZON = dict(TOY_SPEC, T=TINY)  # its grid step underflows to 0
HUGE = sys.float_info.max
# Finite numbers at the ends of the double range, and values of no JSON number type.
EXTREMES = [TINY, -TINY, 1e-300, 1e308, -1e308, HUGE, -HUGE]
NOT_NUMBERS = [math.nan, math.inf, -math.inf, "1.0", True, None, [1.0], {"x": 1.0}]

# Per spec key: its schema edge and the value one past it, where the schema has one.
SPEC_EDGES = {
    **{key: [TINY, 0.0] for key in ("sigma", "R1", "R2", "T")},
    **{key: [0.0, -TINY] for key in ("Q1", "Q2", "G1", "G2", "lambda1", "lambda2")},
    "pi0": [0.0, 1.0, -TINY, math.nextafter(1.0, 2.0)],
    **{key: [] for key in ("a1", "a2", "b1", "b2", "x0", "u_lo", "u_hi")},
    "c1": [1.0],  # an unknown key
}

# Per config key: its schema edges (toy sizes only), the values one past
# them, and wrong types.  n_steps, n_paths and lq_max_iter are never left
# out, since their defaults are not toy sizes.
CONFIG_EDGES = {
    "suite": ["nope", "", 5, ["lq-solve"], MISSING],
    "spec": ["spec.json", "missing.json", "", 3, [], MISSING],
    "n_steps": [10, 9, 10.0, 10.5, -1, 2**62, 1e300, "10", True, math.nan],
    "n_paths": [100, 99, 200.0, 100.5, 2**62, 10**30, "100", False, math.inf],
    "seed": [0, 2**64 - 1, -1, 2**64, 1.5, "1", None, MISSING],
    "workers": [0, 2**63, -1, 1.5, "2", MISSING],
    "out": [5, None, "", MISSING],
    "tolerances": [{}, [], 3, {"not_a_metric": 1.0}, MISSING],
    "write_paths": [True, False, 1, "yes", MISSING],
    "lq_max_iter": [1, 0, 5.0, 1.5, "5", None],
    "lq_damping": [1.0, TINY, 0.0, math.nextafter(1.0, 2.0), -0.5, math.nan, "0.5",
                   True, MISSING],
    "lq_tol": [TINY, HUGE, math.inf, 0.0, -1.0, math.nan, "0.001", MISSING],
    "n_path": [100],  # a misspelt key
}


def _put(doc: dict, key: str, value) -> None:
    if value is MISSING:
        doc.pop(key, None)
    else:
        doc[key] = value


@st.composite
def run_documents(draw):
    """(config, spec): a valid toy run with a few keys moved to an edge."""
    spec = dict(TOY_SPEC, T=draw(st.sampled_from([1.0, 0.1])))
    for key in draw(st.lists(st.sampled_from(sorted(SPEC_EDGES)), max_size=3, unique=True)):
        _put(spec, key, draw(st.sampled_from(SPEC_EDGES[key] + EXTREMES + NOT_NUMBERS
                                             + [MISSING])))
    suite = draw(st.sampled_from(sorted(SUITES)))
    config = {"suite": suite, "spec": spec,
              "n_steps": draw(st.sampled_from([10, 20])),
              "n_paths": draw(st.sampled_from([100, 200])),
              "lq_max_iter": draw(st.sampled_from([1, 5]))}
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_EDGES)), max_size=3, unique=True)):
        if key == "tolerances" and draw(st.booleans()):
            value = {draw(st.sampled_from(SUITES[suite][1])):
                     draw(st.sampled_from([0.0, 1e308, -1e308] + NOT_NUMBERS))}
        else:
            value = draw(st.sampled_from(CONFIG_EDGES[key]))
        _put(config, key, value)
    if config.get("suite") in ("mp-check", "lq-solve") and draw(st.booleans()):
        # the top of the RNG's path range: its filter history exceeds any array
        config["n_paths"] = 2**62 - 1
    return config, spec


def _run(config: dict, spec: dict, workdir: Path) -> tuple[int, Path]:
    """``hybridmp run`` in-process on the documents; (exit code, output directory)."""
    if config.get("spec") == "spec.json":
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    path = workdir / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / "out"
    env = {name: os.environ.pop(name) for name in list(os.environ)
           if name.startswith("HYBRIDMP_")}
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(out)])
    finally:
        os.environ.update(env)
    return code, out


# A warning of an invalid value is a silent NaN, which the contract forbids.
@pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=150)
@given(run_documents())
@example(({"suite": "filter-check", "spec": TINY_HORIZON, "n_steps": 10, "n_paths": 100,
           "lq_max_iter": 1}, TINY_HORIZON))
def test_exit_code_contract(documents):
    config, spec = documents
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _run(config, spec, Path(tmp))
        assert code in (0, 1, 2)
        if code == 2:
            doc = json.loads((out / "error.json").read_text(encoding="utf-8"))
            assert doc["error"] in ERROR_NAMES, doc
        else:
            assert (out / "results.json").exists()
