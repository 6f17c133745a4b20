"""Artifact identity table: every suite at a small size, seeds 3 and 42.

Each shipped ``configs/*.json`` is loaded as ``hybridmp run`` loads it,
resized to ``SIZES`` and run with one worker; the table maps
"<suite> seed <n>" to the run's exit code and the sha256 of every file
it wrote.  ``tests/test_golden.py`` reruns this in a subprocess with one
BLAS thread and compares against ``golden_artifacts.json``.

    PYTHONPATH=src python tests/_golden.py           # print the table
    PYTHONPATH=src python tests/_golden.py --write   # regenerate the golden

Regenerate only for a change that means to move numbers, and say which
entries moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from hybridmp.harness import ExperimentConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_artifacts.json"
SEEDS = (3, 42)
SIZES = {
    "filter-check": {"n_paths": 400, "n_steps": 200, "write_paths": True},
    "lq-solve": {"n_paths": 512, "n_steps": 40},
    "convergence-sweep": {"n_paths": 200, "n_steps": 2000},
    "mp-check": {"n_paths": 400, "n_steps": 20},
}


def table() -> dict:
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.json")):
            for seed in SEEDS:
                cfg = ExperimentConfig.from_file(str(config), seed=seed, workers=1)
                out = Path(tmp) / f"{cfg.suite}-{seed}"
                cfg = dataclasses.replace(cfg, out_dir=str(out), **SIZES[cfg.suite])
                code = run_suite(cfg)
                rows[f"{cfg.suite} seed {seed}"] = {
                    "exit": code,
                    "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in sorted(out.iterdir())},
                }
    return rows


def main(argv: list[str]) -> int:
    text = json.dumps(table(), indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
