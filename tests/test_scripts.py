"""Smoke tests of the example scripts, loaded by path and run small."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lq_experiment_prints_trace_and_verdict(capsys):
    code = _load("lq_experiment").main(["--n-steps", "20", "--n-paths", "300"])
    assert code in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["iter", "step", "cost", "SE", "residual", "ensemble-change"]
    at = next(i for i, line in enumerate(lines) if line.startswith("converged: "))
    assert re.fullmatch(r"final sup-change: \S+ at k=\d+ \(t=\S+\)", lines[at + 1])


def test_lq_experiment_gates_every_seed(capsys):
    # one summary row per seed, whose verdict is the rule applied to its
    # printed columns (converged, ratio <= 1e-2, tail R^2 >= 0.5); the
    # exit code is 1 iff some seed fails
    module = _load("lq_experiment")
    argv = ["--n-steps", "20", "--n-paths", "300", "--seed", "1", "2"]
    code = module.main(argv)
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[:2] == ["seed", "iters"])
    assert lines[at].split() == ["seed", "iters", "converged", "ratio", "tail-R2", "cost",
                                 "verdict"]
    rows = [line.split() for line in lines[at + 1:at + 3]]
    assert [row[0] for row in rows] == ["1", "2"]
    for row in rows:
        ok = row[2] == "True" and float(row[3]) <= 1e-2 and float(row[4]) >= 0.5
        assert row[-1] == ("pass" if ok else "FAIL")
    passed = sum(row[-1] == "pass" for row in rows)
    assert lines[at + 3] == f"{passed} of 2 seeds pass"
    assert code == (0 if passed == 2 else 1)
    # the summary ends with the median of the rows' iteration counts
    median = (int(rows[0][1]) + int(rows[1][1])) / 2
    assert lines[at + 4:] == [f"median iterations over 2 seeds: {median:g}"]

    # a ratio bound nothing meets fails every seed
    module.LQ_MAX_RATIO = 0.0
    assert module.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-2] == "0 of 2 seeds pass"


def test_lq_experiment_exits_2_on_bad_input(tmp_path, capsys):
    # a missing or malformed --spec, or a setting the solver rejects,
    # prints the error and exits 2, no traceback
    module = _load("lq_experiment")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    small = ["--n-steps", "20", "--n-paths", "300"]
    for argv, message in ((["--spec", str(tmp_path / "missing.json")], "cannot read spec file"),
                          (["--spec", str(bad)], "is not valid JSON"),
                          (["--n-steps", "0"], "at least one step"),
                          (["--damping", "2"], "damping must be in (0, 1]"),
                          (["--seed", "-1"], "seed must be in [0, 2**64)")):
        assert module.main(small + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_compare_manifests_names_every_mismatch():
    compare = _load("run_all_suites").compare_manifests
    want = {"lq-solve": {"results.json": "a" * 64, "trace.csv": "b" * 64},
            "mp-check": {"results.json": "c" * 64}}
    assert compare(want, json.loads(json.dumps(want))) == []
    got = {"lq-solve": {"results.json": "d" * 64, "surface.csv": "e" * 64},
           "filter-check": {"results.json": "f" * 64}}
    assert compare(want, got) == [
        "filter-check: extra (not in the table)",
        "lq-solve results.json: dddddddddddd differs from aaaaaaaaaaaa",
        "lq-solve surface.csv: extra",
        "lq-solve trace.csv: missing",
        "mp-check: missing (no manifest.json)",
    ]


def test_run_all_suites_checks_against_a_recorded_table(tmp_path, capsys):
    # one small config; --record writes its table, --check passes on a
    # rerun and fails once a digest in the table is changed
    module = _load("run_all_suites")
    configs = tmp_path / "configs"
    configs.mkdir()
    spec = SCRIPTS.parent / "specs" / "default_lq.json"
    (configs / "mp.json").write_text(json.dumps(
        {"suite": "mp-check", "spec": str(spec), "n_paths": 200, "n_steps": 20, "seed": 3}))
    module.CONFIGS = configs
    table = tmp_path / "table.json"
    out = ["--out", str(tmp_path / "out")]
    code = module.main(out + ["--record", str(table)])
    recorded = json.loads(table.read_text())
    assert set(recorded) == {"mp-check"} and set(recorded["mp-check"]) == {"results.json"}
    assert module.main(out + ["--check", str(table)]) == code
    assert capsys.readouterr().out.splitlines()[-1] == f"check: 0 mismatches against {table}"

    recorded["mp-check"]["results.json"] = "0" * 64
    table.write_text(json.dumps(recorded))
    assert module.main(out + ["--check", str(table)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("check: mp-check results.json: ")
    assert lines[-1] == f"check: 1 mismatches against {table}"
