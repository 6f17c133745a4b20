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
    # every entry and file that moved, not only the first
    moved = []
    for name in sorted(want.keys() | got.keys()):
        old, new = want.get(name, {}), got.get(name, {})
        old_files, new_files = old.get("sha256", {}), new.get("sha256", {})
        if old.get("exit") != new.get("exit"):
            moved.append(f"{name}: exit {new.get('exit')}, golden {old.get('exit')}")
        moved += [f"{name} {file}: {str(new_files.get(file))[:12]}, "
                  f"golden {str(old_files.get(file))[:12]}"
                  for file in sorted(old_files.keys() | new_files.keys())
                  if old_files.get(file) != new_files.get(file)]
    assert not moved, "artifacts differ from the golden table:\n" + "\n".join(moved)
    assert got == want
