#!/usr/bin/env python3
"""Run every shipped suite config and summarize.

Each ``configs/*.json`` is loaded with ``ExperimentConfig.from_file``,
exactly as ``hybridmp run --config`` loads it, and written to
``--out/<suite>``.  Prints a one-line verdict per metric, then the
12-character sha256 prefix of every artifact in the suite's
``manifest.json``.  Exit code 0 iff every suite passes.

``--check FILE`` compares every suite's ``manifest.json`` with the table
in FILE ({suite: manifest}), prints each missing, extra or differing
digest, and exits 1 if there is any.  ``scripts/shipped_manifests.json``
is the table for the shipped configs (no ``--seed``); ``--record FILE``
writes the run's table, for a change that means to move numbers.

    PYTHONPATH=src python scripts/run_all_suites.py --check scripts/shipped_manifests.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from hybridmp.harness import ExperimentConfig, run_suite

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def compare_manifests(want: dict, got: dict) -> list[str]:
    """One line per suite or artifact digest that ``got`` lacks, adds or changes."""
    problems = []
    for suite in sorted(want.keys() | got.keys()):
        if suite not in got:
            problems.append(f"{suite}: missing (no manifest.json)")
        elif suite not in want:
            problems.append(f"{suite}: extra (not in the table)")
        else:
            for name in sorted(want[suite].keys() | got[suite].keys()):
                old, new = want[suite].get(name), got[suite].get(name)
                if new is None:
                    problems.append(f"{suite} {name}: missing")
                elif old is None:
                    problems.append(f"{suite} {name}: extra")
                elif old != new:
                    problems.append(f"{suite} {name}: {new[:12]} differs from {old[:12]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every config's seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override every config's workers (validated; selects nothing)")
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 unless every manifest matches this table")
    parser.add_argument("--record", metavar="FILE",
                        help="write this run's manifests as a table")
    args = parser.parse_args(argv)

    worst = 0
    manifests = {}
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
            manifests[cfg.suite] = json.loads(manifest.read_text())
            for name, digest in sorted(manifests[cfg.suite].items()):
                print(f"{cfg.suite:18s} {name:22s} sha256 {digest[:12]}")
        print(f"{cfg.suite:18s} done in {time.time() - start:.1f}s (exit {code})")
    if args.record:
        Path(args.record).write_text(json.dumps(manifests, indent=2, sort_keys=True) + "\n")
    if args.check:
        problems = compare_manifests(json.loads(Path(args.check).read_text()), manifests)
        for line in problems:
            print(f"check: {line}")
        print(f"check: {len(problems)} mismatches against {args.check}")
        if problems:
            return 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
