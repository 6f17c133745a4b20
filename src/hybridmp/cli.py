"""Command-line entry point.

hybridmp run --config cfg.json [--seed N] [--workers N] [--out DIR]
hybridmp validate --spec spec.json

Environment variables HYBRIDMP_SEED, HYBRIDMP_WORKERS and HYBRIDMP_OUT
override the config file; explicit flags override both.  ``workers`` is
validated but selects nothing (blocks of paths run in order), kept for old configs.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from pathlib import Path

from .errors import HybridMPError
from .harness import ENV_PREFIX, ExperimentConfig, run_suite, validate_spec_file, write_error
from .model import read_json_object


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridmp",
        description="Verification suites for partially observed "
                    "regime-switching control",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log suite progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured suite")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None, help="output directory")

    val = sub.add_parser("validate", help="check a problem spec document")
    val.add_argument("--spec", required=True, help="LQ spec JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.command == "validate":
        code, messages = validate_spec_file(args.spec)
        for line in messages:
            print(line)
        return code

    try:
        cfg = ExperimentConfig.from_file(
            args.config, seed=args.seed, workers=args.workers, out=args.out
        )
        code = run_suite(cfg)
    except (HybridMPError, OSError, MemoryError) as exc:
        # from run_suite only when error.json is unwritable
        out = args.out if args.out is not None else os.environ.get(ENV_PREFIX + "OUT")
        with contextlib.suppress(HybridMPError):  # else the config's own out, if it reads
            out = read_json_object(Path(args.config), "config").get("out") if out is None else out
        out = out if isinstance(out, str) else "results"
        if not write_error(out, exc):
            print(f"error: cannot write {out}/error.json", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code == 2:
        print(f"error recorded in {cfg.out_dir}/error.json", file=sys.stderr)
    else:
        print(f"{cfg.suite}: {'pass' if code == 0 else 'FAIL'} "
              f"(results in {cfg.out_dir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
