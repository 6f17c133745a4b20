#!/usr/bin/env python3
"""Run every shipped suite config and summarize.

Each ``configs/*.json`` is loaded with ``ExperimentConfig.from_file``,
exactly as ``hybridmp run --config`` loads it, and written to
``--out/<suite>``.  Prints a one-line verdict per metric, then the
12-character sha256 prefix of every artifact in the suite's
``manifest.json``.  Exit code 0 iff every suite passes.  Comparing the
prefixes (or the ``manifest.json`` files) of two runs checks that a
change left every artifact byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from hybridmp.harness import ExperimentConfig, run_suite

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every config's seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override every config's worker count")
    args = parser.parse_args(argv)

    worst = 0
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = ExperimentConfig.from_file(str(path), seed=args.seed,
                                         workers=args.workers, out=args.out)
        cfg.out_dir = str(Path(args.out) / cfg.suite)
        start = time.time()
        code = run_suite(cfg)
        worst = max(worst, code)
        results = Path(cfg.out_dir) / "results.json"
        if results.exists():
            doc = json.loads(results.read_text())
            for name, rec in sorted(doc["metrics"].items()):
                flag = "pass" if rec["pass"] else "FAIL"
                print(f"{cfg.suite:18s} {name:22s} {rec['value']:12.6g} "
                      f"{rec['comparator']:>2s} {rec['tolerance']:<10.6g} {flag}")
        manifest = Path(cfg.out_dir) / "manifest.json"
        if manifest.exists():
            for name, digest in sorted(json.loads(manifest.read_text()).items()):
                print(f"{cfg.suite:18s} {name:22s} sha256 {digest[:12]}")
        print(f"{cfg.suite:18s} done in {time.time() - start:.1f}s (exit {code})")
    return worst


if __name__ == "__main__":
    sys.exit(main())
