from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hybridmp import ConfigError, harness, parallel
from hybridmp.cli import main
from hybridmp.harness import (
    CONFIG_KEYS,
    CSV_PATHS,
    SUITES,
    ExperimentConfig,
    run_suite,
    validate_spec_file,
    write_error,
)
from hybridmp.model import LQ_SPEC_KEYS, LQ_SPEC_REQUIRED
from hybridmp.wonham import coupled_forward

DEFAULT_SPEC = {
    "a1": 0.5, "a2": -0.5, "b1": 1.0, "b2": 0.5, "sigma": 0.3,
    "Q1": 1.0, "Q2": 1.0, "R1": 1.0, "R2": 2.0, "G1": 1.0, "G2": 1.0,
    "lambda1": 1.0, "lambda2": 1.0, "T": 1.0, "x0": 1.0, "pi0": 0.5,
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("HYBRIDMP_SEED", "HYBRIDMP_WORKERS", "HYBRIDMP_OUT"):
        monkeypatch.delenv(name, raising=False)


def _write_config(tmp_path, name="cfg.json", **overrides):
    doc = {"suite": "filter-check", "spec": DEFAULT_SPEC, "n_steps": 200,
           "n_paths": 150, "out": str(tmp_path / "out")}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _schema() -> dict:
    path = Path(__file__).resolve().parents[1] / "docs" / "experiment_config.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExperimentConfig:
    def test_rejects_unknown_suite(self, lq):
        with pytest.raises(ConfigError, match="suite"):
            ExperimentConfig(suite="everything", spec=lq)

    def test_rejects_tiny_grids_and_ensembles(self, lq):
        with pytest.raises(ConfigError, match="n_steps"):
            ExperimentConfig(suite="filter-check", spec=lq, n_steps=5)
        with pytest.raises(ConfigError, match="n_paths"):
            ExperimentConfig(suite="filter-check", spec=lq, n_paths=50)

    def test_zero_workers_is_accepted_and_kept(self, lq):
        # 0 and 1 both run the blocks serially, so 0 is not resolved to a core count
        assert ExperimentConfig(suite="filter-check", spec=lq, workers=0).workers == 0

    def test_history_bound_names_the_bytes_and_spares_the_largest_size_that_fits(self, lq):
        limit = np.iinfo(np.intp).max
        n_steps = limit // (16 * 1000) - 1  # 16 B per path and node, just under the limit
        ExperimentConfig(suite="mp-check", spec=lq, n_paths=1000, n_steps=n_steps)
        with pytest.raises(ConfigError, match=f"needs a {16 * 1000 * (n_steps + 2)} B"):
            ExperimentConfig(suite="mp-check", spec=lq, n_paths=1000, n_steps=n_steps + 1)
        # convergence-sweep ignores n_steps, so no n_steps is too large for it
        ExperimentConfig(suite="convergence-sweep", spec=lq, n_steps=10**30)

    def test_from_file_reads_inline_spec(self, tmp_path):
        path = _write_config(tmp_path, seed=7)
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.suite == "filter-check"
        assert cfg.seed == 7
        assert cfg.spec.a == (0.5, -0.5)

    def test_from_file_resolves_spec_relative_to_config(self, tmp_path):
        (tmp_path / "specs").mkdir()
        (tmp_path / "specs" / "s.json").write_text(json.dumps(DEFAULT_SPEC),
                                                   encoding="utf-8")
        path = _write_config(tmp_path, spec="specs/s.json")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.spec.sigma == 0.3

    def test_seed_defaults_to_42(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(tmp_path)))
        assert cfg.seed == 42

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path, seed=7)
        monkeypatch.setenv("HYBRIDMP_SEED", "11")
        assert ExperimentConfig.from_file(str(path)).seed == 11

    def test_cli_argument_overrides_env_and_file(self, tmp_path,
                                                 monkeypatch):
        path = _write_config(tmp_path, seed=7)
        monkeypatch.setenv("HYBRIDMP_SEED", "11")
        assert ExperimentConfig.from_file(str(path), seed=23).seed == 23

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path)
        monkeypatch.setenv("HYBRIDMP_OUT", "envdir")
        assert ExperimentConfig.from_file(str(path)).out_dir == "envdir"
        assert ExperimentConfig.from_file(str(path), out="clidir").out_dir \
            == "clidir"

    def test_malformed_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentConfig.from_file(str(path))

    def test_allowed_keys_are_the_schema_properties(self):
        assert CONFIG_KEYS == _schema()["properties"].keys()

    def test_schema_defaults_are_the_dataclass_defaults(self):
        fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        checked = set()
        for key, prop in _schema()["properties"].items():
            if "default" in prop:
                field = fields["out_dir" if key == "out" else key]
                default = (field.default_factory() if field.default is dataclasses.MISSING
                           else field.default)
                assert prop["default"] == default, key
                checked.add(key)
        assert checked == CONFIG_KEYS - {"suite", "spec"}

    def test_lq_spec_keys_are_the_schema_lq_spec_properties(self):
        lq_spec = _schema()["$defs"]["lq_spec"]
        assert LQ_SPEC_KEYS == lq_spec["properties"].keys()
        assert LQ_SPEC_REQUIRED == set(lq_spec["required"])

    def test_missing_spec_raises(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "filter-check"}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="spec"):
            ExperimentConfig.from_file(str(path))


class TestRunSuite:
    def test_filter_check_writes_contracted_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, tolerances={"qv_error": 0.2})))
        code = run_suite(cfg)
        out = tmp_path / "out"
        results = json.loads((out / "results.json").read_text())
        assert code == 0
        assert results["pass"] is True
        assert results["suite"] == "filter-check"
        assert results["seed"] == 42
        assert set(results["metrics"]) == {
            "tower_property_z", "qv_error", "ks_zakai_sup_gap",
            "oracle_rmse_ratio"}
        for m in results["metrics"].values():
            assert set(m) == {"value", "tolerance", "comparator", "pass"}
        assert results["grid"] == {"n_steps": 200, "n_paths": 150}
        assert "workers" not in results
        assert results["spec"]["a1"] == 0.5

    def test_filter_check_runs_at_the_top_seed(self, tmp_path):
        # the fine-grid check ensemble is drawn at seed + 1, which wraps
        # to 0 at the top of the seed range instead of overflowing
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, n_paths=100)), seed=2**64 - 1)
        assert run_suite(cfg) in (0, 1)
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["seed"] == 2**64 - 1

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, tolerances={"qv_error": 0.2})))
        run_suite(cfg)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "results.json" in manifest
        for name, digest in manifest.items():
            assert _sha256(out / name) == digest

    def test_impossible_tolerance_fails_suite(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, tolerances={"qv_error": 1e-9})))
        assert run_suite(cfg) == 1
        results = json.loads(
            (tmp_path / "out" / "results.json").read_text())
        assert results["pass"] is False
        assert results["metrics"]["qv_error"]["pass"] is False

    def test_spec_violation_writes_error_and_exits_2(self, tmp_path):
        bad = dict(DEFAULT_SPEC, a1=1e9)
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, spec=bad)))
        assert run_suite(cfg) == 2
        out = tmp_path / "out"
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert not (out / "results.json").exists()

    def test_results_identical_across_worker_counts(self, tmp_path):
        digests = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig.from_file(
                str(_write_config(tmp_path, name=f"cfg{workers}.json",
                                  out=str(out),
                                  tolerances={"qv_error": 0.2})),
                workers=workers)
            run_suite(cfg)
            digests.append(_sha256(out / "results.json"))
        assert digests[0] == digests[1]

    def test_pooled_filter_check_matches_the_serial_one(self, tmp_path, monkeypatch):
        # 8192 paths are two default blocks, so workers=2 runs them on the pool
        pools = []
        run_pool = parallel._run_pool
        monkeypatch.setattr(parallel, "_run_pool",
                            lambda *args: pools.append(args[-1]) or run_pool(*args))
        digests = []
        for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
            out = tmp_path / tag
            cfg = ExperimentConfig.from_file(
                str(_write_config(tmp_path, name=f"cfg_{tag}.json", out=str(out),
                                  n_paths=8192)),
                workers=workers)
            run_suite(cfg)
            digests.append(_sha256(out / "results.json"))
        assert pools == [2]
        assert len(set(digests)) == 1

    def test_mp_check_passes_at_a_small_size(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, suite="mp-check", n_steps=20, n_paths=400)))
        assert run_suite(cfg) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert set(results["metrics"]) == {
            "gateaux_gap_ratio", "duality_rel_gap", "bsde_min_r2"}
        assert all(m["pass"] for m in results["metrics"].values())
        # the deterministic start makes the first designs collinear
        assert 0 < results["svd_fallback_steps"] < 20

    def test_tolerance_for_an_unknown_metric_exits_2(self, tmp_path):
        # a misspelled key would otherwise leave duality_rel_gap at its default
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, suite="mp-check", n_steps=20, n_paths=400,
            tolerances={"dualty_rel_gap": 0.0})))
        assert run_suite(cfg) == 2
        out = tmp_path / "out"
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        for name in ("dualty_rel_gap", "gateaux_gap_ratio", "duality_rel_gap", "bsde_min_r2"):
            assert name in err["message"]
        assert not (out / "results.json").exists()
        assert not (out / "manifest.json").exists()

    def test_filter_check_writes_paths_and_filter_csv(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, n_steps=200, n_paths=400, write_paths=True)))
        assert run_suite(cfg) in (0, 1)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"paths.csv", "filter.csv"} <= set(manifest)
        # the run writes the first CSV_PATHS paths of its 100-path check ensemble
        cp = coupled_forward(cfg.spec, cfg.grid, 100, cfg.seed)
        n, nodes = CSV_PATHS, cfg.n_steps + 1

        def columns(name):
            lines = (out / name).read_text().strip().splitlines()
            assert len(lines) == 1 + n * nodes
            rows = list(csv.reader(lines))
            return lines[0], {key: [row[j] for row in rows[1:]]
                              for j, key in enumerate(rows[0])}

        def parses_back(cells, values):
            # every value to %.10g, and an empty cell after the last step
            values = np.asarray(values, dtype=np.float64)
            expected = [f"{float(v):.10g}" for v in values.ravel()]
            if values.shape[-1] == nodes - 1:
                expected = [c for row in np.reshape(expected, values.shape)
                            for c in [*row, ""]]
            assert cells == expected

        header, paths = columns("paths.csv")
        assert header == "path,t,W,alpha,X,u"
        assert paths["path"][0] == "0" and float(paths["t"][0]) == 0.0
        assert paths["path"] == [str(p) for p in range(n) for _ in range(nodes)]
        parses_back(paths["t"], np.tile(cfg.grid.times, n))
        parses_back(paths["W"], cp.bundle.brownian[:n])
        assert paths["alpha"] == [str(a) for a in cp.bundle.regimes[:n].ravel()]
        parses_back(paths["X"], cp.bundle.states[:n])
        parses_back(paths["u"], cp.bundle.controls[:n])

        header, filt = columns("filter.csv")
        assert header == "path,t,pi,nu_increment,V1,V2"
        assert filt["path"] == paths["path"] and filt["t"] == paths["t"]
        parses_back(filt["pi"], cp.filter_path.probs[:n, :, 0])
        parses_back(filt["nu_increment"], cp.filter_path.nu_increments[:n])
        assert set(filt["V1"]) == set(filt["V2"]) == {""}

    def test_lq_solve_emits_trace_and_surface(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, suite="lq-solve", n_steps=50, n_paths=512,
            tolerances={"cost_mean": 2.0})))
        code = run_suite(cfg)
        out = tmp_path / "out"
        results = json.loads((out / "results.json").read_text())
        assert code == 0
        assert set(results["metrics"]) == {
            "converged", "cost_mean", "stationarity_ratio",
            "bsde_tail_r2_min"}
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iter,step,cost,SE,residual,ensemble_change"
        assert len(trace) >= 2
        assert 0 < results["svd_fallback_steps"] < 50
        assert (out / "control_surface.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"results.json", "trace.csv",
                "control_surface.csv"} <= set(manifest)

    def test_convergence_sweep_emits_table(self, tmp_path):
        cfg = ExperimentConfig.from_file(str(_write_config(
            tmp_path, suite="convergence-sweep", n_paths=100)))
        code = run_suite(cfg)
        out = tmp_path / "out"
        assert code in (0, 1)
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "n_steps,oracle_rmse,cost_mean,cost_se"
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["250", "500", "1000", "2000"]
        # results.json holds the same rows at full precision, so the
        # manifest sees digits that the CSV rounds away
        sweep = json.loads((out / "results.json").read_text())["sweep"]
        assert [row["n_steps"] for row in sweep] == [250, 500, 1000, 2000]
        for row, line in zip(sweep, rows[1:]):
            assert line == ",".join([str(row["n_steps"])] + [
                f"{row[key]:.10g}" for key in ("oracle_rmse", "cost_mean", "cost_se")])


class TestValidateSpecFile:
    def test_clean_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(DEFAULT_SPEC), encoding="utf-8")
        code, messages = validate_spec_file(str(path))
        assert code == 0
        assert messages == ["spec OK"]

    def test_violations_exit_1(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(DEFAULT_SPEC, a1=1e9)),
                        encoding="utf-8")
        code, messages = validate_spec_file(str(path))
        assert code == 1
        assert any("b_x" in m for m in messages)

    def test_unreadable_exit_2(self, tmp_path):
        code, messages = validate_spec_file(str(tmp_path / "absent.json"))
        assert code == 2


class TestCli:
    def test_run_pass(self, tmp_path, capsys):
        path = _write_config(tmp_path, tolerances={"qv_error": 0.2})
        assert main(["run", "--config", str(path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_run_seed_flag_lands_in_results(self, tmp_path):
        path = _write_config(tmp_path, tolerances={"qv_error": 0.2})
        main(["run", "--config", str(path), "--seed", "5"])
        results = json.loads(
            (tmp_path / "out" / "results.json").read_text())
        assert results["seed"] == 5

    def test_run_bad_config_returns_2_and_writes_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        out = tmp_path / "errout"
        assert main(["run", "--config", str(path),
                     "--out", str(out)]) == 2
        assert (out / "error.json").exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, env", [
        ({"n_steps": "abc"}, {}),
        ({}, {"HYBRIDMP_SEED": "x"}),
        ({"n_path": 500}, {}),
        ({"spec": dict(DEFAULT_SPEC, u_low=-0.5)}, {}),
        ({"suite": "lq-solve", "lq_max_iter": 0}, {}),
        ({"suite": "lq-solve", "lq_tol": -1}, {}),
        ({"suite": "lq-solve", "lq_damping": 1.5}, {}),
        ({"seed": -1}, {}),
        ({}, {"HYBRIDMP_SEED": str(2**64)}),
        ({"n_steps": 200.5}, {}),
        ({"seed": True}, {}),
        ({"n_paths": "1000"}, {}),
        ({"suite": "lq-solve", "lq_damping": True}, {}),
        ({"tolerances": {"qv_error": True}}, {}),
        ({"tolerances": {"qv_error": "0.1"}}, {}),
        ({"suite": "mp-check", "n_steps": 20, "n_paths": 200,
          "tolerances": {"duality_rel_gap": float("nan")}}, {}),
        ({"spec": dict(DEFAULT_SPEC, sigma=True)}, {}),
        ({"spec": dict(DEFAULT_SPEC, a1="0.5")}, {}),
        ({"spec": dict(DEFAULT_SPEC, x0=False)}, {}),
        ({"suite": ["filter-check"]}, {}),
    ], ids=["bad-int", "bad-env-seed", "unknown-key", "unknown-spec-key",
            "zero-max-iter", "negative-tol", "damping-above-1", "negative-seed",
            "env-seed-2**64", "fractional-n-steps", "bool-seed", "string-n-paths",
            "bool-damping", "bool-tolerance", "string-tolerance", "nan-tolerance",
            "bool-sigma", "string-a1", "bool-x0", "list-suite"])
    def test_bad_config_field_returns_2_and_writes_error(
            self, tmp_path, monkeypatch, capsys, overrides, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = _write_config(tmp_path, **overrides)
        out = tmp_path / "errout"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "ConfigError"
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env, out, want", [
        ("flagout", "envout", "cfgout", "flagout"),
        (None, "envout", "cfgout", "envout"),
        (None, None, "cfgout", "cfgout"),
        (None, None, None, "results"),
        (None, None, 5, "results"),
    ], ids=["flag", "env", "config-out", "default", "config-out-not-a-string"])
    def test_unloadable_config_writes_error_where_out_resolves(
            self, tmp_path, monkeypatch, flag, env, out, want):
        # the config fails to load (unknown key), yet error.json goes where
        # --out, then HYBRIDMP_OUT, then the config's own out would put results
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("HYBRIDMP_OUT", env)
        doc = {"suite": "filter-check", "spec": DEFAULT_SPEC, "n_path": 500}
        if out is not None:
            doc["out"] = out
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(path),
                     *(["--out", flag] if flag else [])]) == 2
        assert json.loads((tmp_path / want / "error.json").read_text())["error"] == "ConfigError"
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [want]

    def test_unreadable_config_writes_error_to_results(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": "cfgout", ', encoding="utf-8")
        assert main(["run", "--config", "cfg.json"]) == 2
        assert (tmp_path / "results" / "error.json").exists()

    @pytest.mark.parametrize("config", ["good", "unreadable", "spec-violation"])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, config):
        # --out under a regular file: no error.json can be written, so the
        # error goes to stderr with the directory it could not write
        (tmp_path / "F").write_text("", encoding="utf-8")
        out = tmp_path / "F" / "x"
        if config == "unreadable":
            path = tmp_path / "missing.json"
        else:
            path = _write_config(tmp_path, **({"spec": dict(DEFAULT_SPEC, a1=1e9)}
                                              if config == "spec-violation" else {}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}/error.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite_records", [True, False], ids=["run-suite", "cli-fallback"])
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys, suite_records):
        # a failed allocation is recorded like a config error, with numpy's
        # message (bytes and shape), not a traceback; nothing real is allocated.
        # Without run_suite's record the error reaches cli.main, which writes it.
        def runner(cfg, out):
            raise MemoryError("Unable to allocate 8.00 EiB for an array with shape "
                              "(1152921504606846976,) and data type float64")

        monkeypatch.setitem(harness.SUITES, "filter-check",
                            (runner, harness.SUITES["filter-check"][1]))
        if not suite_records:
            monkeypatch.setattr(harness, "write_error", lambda out_dir, exc: False)
        out = tmp_path / "errout"
        assert main(["run", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "MemoryError"
        assert "8.00 EiB" in doc["message"]

    @pytest.mark.parametrize("flags, env, overrides", [
        (["--workers", "-3"], {}, {}),
        ([], {"HYBRIDMP_WORKERS": "-1"}, {}),
        ([], {}, {"workers": -1}),
    ], ids=["flag", "env", "file"])
    def test_negative_workers_exit_2(self, tmp_path, monkeypatch, capsys,
                                     flags, env, overrides):
        # a negative worker count is an error
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = _write_config(tmp_path, **overrides)
        out = tmp_path / "errout"
        assert main(["run", "--config", str(path), "--out", str(out), *flags]) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "ConfigError"
        assert "workers" in doc["message"]
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("suite, key, value, message", [
        ("lq-solve", "n_paths", 10**30, "n_paths must be in [100, 2**62)"),
        ("mp-check", "n_steps", 10**30, "B filter history"),
        ("lq-solve", "n_paths", 2**62, "n_paths must be in [100, 2**62)"),
    ], ids=["lq-paths-1e30", "mp-steps-1e30", "lq-paths-2**62"])
    def test_oversized_sizes_exit_2_before_any_allocation(self, tmp_path, capsys,
                                                          suite, key, value, message):
        # sizes past the RNG's or numpy's bounds are refused before any work
        out = tmp_path / "errout"
        path = _write_config(tmp_path, suite=suite, **{key: value})
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "ConfigError"
        assert message in doc["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("horizon", [5e-324, 1e-320], ids=["dt-zero", "dt-subnormal"])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_degenerate_grid_exits_2_naming_it(self, tmp_path, capsys, suite, horizon):
        # a horizon whose step underflows would run every pass on 0/0
        out = tmp_path / "errout"
        path = _write_config(tmp_path, suite=suite, spec=dict(DEFAULT_SPEC, T=horizon),
                             n_steps=10, n_paths=100, lq_max_iter=1)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "ConfigError"
        assert f"grid of horizon {horizon!r} and n_steps=" in doc["message"]
        assert "below the smallest normal double" in doc["message"]
        assert not (out / "results.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"{not json", b"[1, 2]", b"\xff{}", b"[" * 10**5],
                             ids=["missing", "invalid-json", "json-array", "not-utf8",
                                  "nested-too-deep"])
    @pytest.mark.parametrize("source", ["config", "spec-named-by-config", "validate"])
    def test_unreadable_document_exits_2_naming_the_file(self, tmp_path, capsys,
                                                         source, content):
        bad = tmp_path / "doc.json"
        if content is not None:
            bad.write_bytes(content)
        if source == "validate":
            assert main(["validate", "--spec", str(bad)]) == 2
            message = capsys.readouterr().out
        else:
            config = bad if source == "config" else _write_config(tmp_path, spec=str(bad))
            out = tmp_path / "errout"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 2
            doc = json.loads((out / "error.json").read_text())
            assert doc["error"] == "ConfigError"
            message = doc["message"]
        assert str(bad) in message

    def test_validate_subcommand_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(DEFAULT_SPEC), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(DEFAULT_SPEC, a1=1e9)),
                       encoding="utf-8")
        assert main(["validate", "--spec", str(good)]) == 0
        assert main(["validate", "--spec", str(bad)]) == 1
        assert main(["validate", "--spec",
                     str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["a1", "R2", "lambda1", "T"])
    def test_non_finite_constant_exits_2(self, tmp_path, key, value):
        spec = dict(DEFAULT_SPEC, **{key: value})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["validate", "--spec", str(spec_path)]) == 2
        out = tmp_path / "errout"
        path = _write_config(tmp_path, spec=spec)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"

    def test_validate_rejects_a_constant_of_the_wrong_json_type(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(DEFAULT_SPEC, sigma=True)), encoding="utf-8")
        assert main(["validate", "--spec", str(path)]) == 2
        assert "sigma must be a JSON number" in capsys.readouterr().out

    def test_validate_rejects_unknown_spec_key(self, tmp_path, capsys):
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(dict(DEFAULT_SPEC, u_low=-0.5)), encoding="utf-8")
        assert main(["validate", "--spec", str(typo)]) == 2
        assert "u_low" in capsys.readouterr().out


class TestWriteError:
    def test_document_shape(self, tmp_path):
        write_error(str(tmp_path / "o"), ConfigError("boom"))
        doc = json.loads((tmp_path / "o" / "error.json").read_text())
        assert doc == {"error": "ConfigError", "message": "boom"}
