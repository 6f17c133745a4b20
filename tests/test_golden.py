"""Every suite's artifacts are byte-identical to the committed golden table."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_artifacts_match_the_golden_table():
    # a fresh process with one BLAS thread, so the digests do not depend on
    # the thread count of the calling process
    env = dict(os.environ, **dict.fromkeys(ONE_THREAD, "1"))
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "_golden.py")], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    want = json.loads((TESTS / "golden_artifacts.json").read_text())
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
