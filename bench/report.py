#!/usr/bin/env python3
"""Run every workload untraced and traced, then print one table.

    python3 bench/report.py

Each run is a separate ``bench/run.py`` process with the default seed
and seconds, so the tracing wrappers can never leak into an untraced
number.  The report prints, per workload, every end-to-end metric with
its unit and sample count, the tracing overhead (traced minus untraced
``wall_s``), the layer split of the traced run and the output
fingerprints.  It also reruns ``filter``
with one worker and checks that its outputs match the run with the
default worker count, which is the package's determinism guarantee.
Exit code 0 iff every run is correct and the fingerprints agree.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, OUT_DIR, ROOT, SECONDS, SEED, default_workers, record_name

WORKLOADS = ("filter", "adjoint", "picard")
RUN_TIMEOUT_S = 600


def run(workload: str, trace: int, workers: int) -> dict:
    """One bench/run.py process; returns the record it wrote."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--trace", str(trace), "--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads((OUT_DIR / f"{record_name(workload, SEED, workers, trace)}.json").read_text())


def main() -> int:
    workers = default_workers()
    plain = {w: run(w, 0, workers) for w in WORKLOADS}
    traced = {w: run(w, 1, workers) for w in WORKLOADS}
    one_worker = run("filter", 0, 1)

    env = plain["picard"]["environment"]
    print(f"git {env['git_sha'][:12]}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  {env['openblas']}  "
          f"workers {env['workers']}  BLAS threads {env['blas_threads']}  seed {SEED}  "
          f"{SECONDS:g} s per run")
    print(f"\n{'end-to-end (untraced)':24s}" + "".join(f"{w:>30s}" for w in WORKLOADS))
    names = list(dict.fromkeys(n for w in WORKLOADS for n in plain[w]["rows"]))
    for name in names:
        cells = []
        for w in WORKLOADS:
            row = plain[w]["rows"].get(name)
            cells.append(f"{row['value']:.5g} {row['unit']} (n={row['samples']})" if row else "-")
        print(f"{name:24s}" + "".join(f"{c:>30s}" for c in cells))

    print(f"\n{'tracing overhead':24s}" + "".join(
        f"{traced[w]['rows']['trace.wall_s']['value'] - plain[w]['rows']['wall_s']['value']:>+28.3f} s"
        for w in WORKLOADS))
    print(f"\n{'per layer (traced run)':50s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, row in traced["picard"]["rows"].items():
        values = [traced[w]["rows"][name]["value"] for w in WORKLOADS]
        if any(values):
            print(f"{name:44s}{row['unit']:>6s}" + "".join(f"{v:>14.5g}" for v in values))

    ok = True
    print()
    for w in WORKLOADS:
        for record in (plain[w], traced[w]):
            for problem in record["problems"]:
                ok = False
                print(f"PROBLEM {w} trace {record['trace']}: {problem}")
        same = plain[w]["fingerprint"] == traced[w]["fingerprint"]
        ok &= same
        print(f"outputs {w:8s} {plain[w]['fingerprint'][:16]}  {plain[w]['outputs']}; "
              f"traced run {'identical' if same else 'DIFFERENT'}")
    same = one_worker["fingerprint"] == plain["filter"]["fingerprint"]
    ok &= same
    print(f"outputs filter with 1 worker: {'identical' if same else 'DIFFERENT'} "
          f"(wall_s {one_worker['rows']['wall_s']['value']:.3f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
