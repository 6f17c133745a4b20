"""``hybridmp validate`` corpus: spec documents and what the CLI prints for each.

The corpus holds the default spec, thirty random specs (numpy seed 1,
see ``random_specs``), the fuzz test's schema edges, extreme and
non-finite numbers moved into its toy spec one key at a time, and a few
named cases: a drift that overflows to NaN, a volatility below the
floor, an empty control interval, a steep drift and a steep control
gain.  The table maps each case name to its document, the exit code of
``cli.main(["validate", "--spec", file])`` and everything it printed.
``tests/test_validate_corpus.py`` reruns each case against the
committed ``validate_corpus.json``.

    PYTHONPATH=src python tests/_validate_corpus.py           # print the table
    PYTHONPATH=src python tests/_validate_corpus.py --write   # regenerate it

Regenerate only for a change that means to move a message, and say which.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from hybridmp import cli

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "validate_corpus.json"
sys.path.insert(0, str(TESTS))
from test_cli_fuzz import EXTREMES, SPEC_EDGES, TOY_SPEC  # noqa: E402

# Numbers of no JSON number type that Python's json still reads.
NON_FINITE = [math.nan, math.inf, -math.inf]


def random_specs(n: int = 30, seed: int = 1) -> list[dict]:
    """Spec documents with a_i, b_i in [-2, 2], sigma in {0.05, 0.1, 0.3,
    1, 2}, Q_i, G_i in [0, 3], R_i in [0.1, 3], lambda_i in [0, 5], T in
    [0.2, 3], x0 in [-2, 2], pi0 in {0, 1, U(0, 1)}, and u in [-1, 1] for
    about 30% of them."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        doc = {}
        for i in (1, 2):
            doc[f"a{i}"] = float(rng.uniform(-2.0, 2.0))
            doc[f"b{i}"] = float(rng.uniform(-2.0, 2.0))
            doc[f"Q{i}"] = float(rng.uniform(0.0, 3.0))
            doc[f"R{i}"] = float(rng.uniform(0.1, 3.0))
            doc[f"G{i}"] = float(rng.uniform(0.0, 3.0))
            doc[f"lambda{i}"] = float(rng.uniform(0.0, 5.0))
        doc["sigma"] = float(rng.choice([0.05, 0.1, 0.3, 1.0, 2.0]))
        doc["T"] = float(rng.uniform(0.2, 3.0))
        doc["x0"] = float(rng.uniform(-2.0, 2.0))
        doc["pi0"] = [0.0, 1.0, float(rng.uniform())][int(rng.integers(3))]
        if rng.uniform() < 0.3:
            doc["u_lo"], doc["u_hi"] = -1.0, 1.0
        docs.append(doc)
    return docs


def documents() -> dict[str, dict]:
    default = json.loads((TESTS.parent / "specs" / "default_lq.json").read_text())
    docs = {"default": default}
    for n, doc in enumerate(random_specs()):
        docs[f"random {n:02d}"] = doc
    for key in sorted(SPEC_EDGES):
        for value in SPEC_EDGES[key] + EXTREMES + NON_FINITE:
            docs[f"toy {key}={value!r}"] = dict(TOY_SPEC, **{key: value})
    # a1 x and b1 v overflow to +inf and -inf at once: the drift is NaN there
    docs["toy a1=1e308, b1=-1e308"] = dict(TOY_SPEC, a1=1e308, b1=-1e308)
    docs["toy sigma=1e-9"] = dict(TOY_SPEC, sigma=1e-9)
    docs["toy u_lo > u_hi"] = dict(TOY_SPEC, u_lo=1.0, u_hi=-1.0)
    docs["default a=(1e9, -1e9)"] = dict(default, a1=1e9, a2=-1e9)
    docs["default b1=1e5"] = dict(default, b1=1e5)
    return docs


def run_validate(doc: dict, directory: Path) -> tuple[int, str]:
    """``hybridmp validate`` on ``doc`` written to a file; (exit code, stdout)."""
    path = directory / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--spec", str(path)])
    return code, out.getvalue()


def table() -> dict:
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in documents().items():
            code, stdout = run_validate(doc, Path(tmp))
            rows[name] = {"spec": doc, "exit": code, "stdout": stdout}
    return rows


def main(argv: list[str]) -> int:
    text = json.dumps(table(), indent=1) + "\n"
    if argv == ["--write"]:
        CORPUS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
