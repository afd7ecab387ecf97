import filecmp
import json
from pathlib import Path

import jsonschema
import pytest

from mixrate.cli import SCHEMAS, config_hash, main

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestRatesCommand:
    def test_end_to_end(self, tmp_path):
        cfg = {"cells": [{"alpha": 1.0, "beta": 3.0},
                         {"alpha": 3.0, "beta": 3.0},
                         {"alpha": 1.5, "beta": 0.5, "r": 4}]}
        cfg_path = write_cfg(tmp_path, "rates.json", cfg)
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert rows[0] == "alpha,beta,r,regime,exponent"
        assert len(rows) == 4
        assert "donsker_bounded" in rows[1]
        assert "iid_like" in rows[2]
        manifest = read_manifest(out)
        assert manifest["command"] == "rates"
        assert manifest["config_hash"] == config_hash(cfg)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "rates.json",
                             {"cells": [{"alpha": 1.0, "beta": 3.0}]})
        out = tmp_path / "out"
        main(["rates", "--config", cfg_path, "--output-dir", str(out)])
        first = (out / "rates.csv").read_bytes()
        main(["rates", "--config", cfg_path, "--output-dir", str(out)])
        assert (out / "rates.csv").read_bytes() == first

    def test_schema_violation_exits_2(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "bad.json",
                             {"cells": [{"alpha": 1.0, "beta": 3.0}],
                              "extra_key": 1})
        assert main(["rates", "--config", cfg_path,
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "absent.json"),
                     "--output-dir", str(tmp_path / "o")]) == 2


class TestPhaseCommand:
    def test_diagram_with_svg(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "phase.json",
                             {"beta_grid": [0.5, 1.5, 3.0],
                              "alpha_grid": [0.5, 1.5, 3.0]})
        out = tmp_path / "out"
        assert main(["phase", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        text = (out / "phase.csv").read_text()
        assert "dependence_dominated" in text
        assert "iid_like" in text
        svg_text = (out / "phase.svg").read_text()
        assert svg_text.startswith("<svg")
        assert "circle" in svg_text


class TestSimulateCommand:
    def test_iid_short_range_run(self, tmp_path):
        cfg = {"dgp": {"generator": "iid_uniform"}, "statistic": "ks",
               "n_grid": [64, 128, 256, 512], "replications": 30,
               "base_seed": 0, "tolerance": 0.1}
        cfg_path = write_cfg(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theory_exponent"] == 0.0
        assert summary["verdict"] == "pass"
        csv_rows = (out / "simulate.csv").read_text().strip().splitlines()
        assert len(csv_rows) == 5
        assert (out / "simulate.svg").read_text().startswith("<svg")

    def test_too_few_replications_exits_2(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sim.json",
                             {"dgp": {"generator": "iid_uniform"},
                              "statistic": "ks",
                              "n_grid": [64, 128, 256, 512],
                              "replications": 5, "base_seed": 0})
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        # a periodic chain passes the schema; power iteration for its
        # stationary law then fails to converge
        cfg_path = write_cfg(tmp_path, "sim.json",
                             {"dgp": {"generator": "markov",
                                      "params": {"transition": [[0.0, 1.0],
                                                                [1.0, 0.0]],
                                                 "state_values": [0.2, 0.8]}},
                              "statistic": "ks",
                              "n_grid": [64, 128, 256, 512],
                              "replications": 30, "base_seed": 0})
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("dgp,extra", [
        ({"generator": "renewal"}, {}),
        ({"generator": "renewal", "params": {"l_max": 100}}, {}),
        ({"generator": "renewal", "params": {"tail_exponent": -2.0}}, {}),
        ({"generator": "renewal", "params": {"tail_exponent": 0.0}}, {}),
        ({"generator": "ar1", "params": {}}, {}),
        ({"generator": "ar1", "params": {"a": 1.0}}, {}),
        ({"generator": "markov", "params": {"transition": [[1.0]]}}, {}),
        ({"generator": "markov", "params": {"state_values": [0.5]}}, {}),
        ({"generator": "iid_uniform"}, {"tolerance": -0.1}),
    ], ids=["renewal_no_params", "renewal_no_tail", "renewal_negative_tail",
            "renewal_zero_tail", "ar1_no_a", "ar1_unit_root",
            "markov_no_values", "markov_no_transition", "negative_tolerance"])
    def test_config_fault_exits_2(self, tmp_path, capsys, dgp, extra):
        cfg_path = write_cfg(tmp_path, "sim.json",
                             {"dgp": dgp, "statistic": "ks",
                              "n_grid": [64, 128, 256, 512],
                              "replications": 30, "base_seed": 0, **extra})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestMixingEstCommand:
    def test_markov_with_exact_column(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, "mix.json",
            {"dgp": {"generator": "markov",
                     "params": {"transition": [[0.9, 0.1], [0.2, 0.8]],
                                "state_values": [0.2, 0.8]}},
             "n": 5000, "q_grid": [1, 5, 20], "m_bins": 2, "seed": 3})
        out = tmp_path / "out"
        assert main(["mixing-est", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        rows = (out / "mixing_est.csv").read_text().strip().splitlines()
        assert rows[0] == "q,estimate,exact"
        assert len(rows) == 4
        # exact column populated for a finite chain
        assert all(len(r.split(",")) == 3 and r.split(",")[2] for r in rows[1:])


class TestSemanticConfigFaults:
    """Config faults, in the schemas or beyond them, exit 2 before anything
    is written."""

    @pytest.mark.parametrize("command,cfg", [
        ("simulate", {"dgp": {"generator": "markov",
                              "params": {"transition": [[0.5, 0.6], [0.5, 0.5]],
                                         "state_values": [0.2, 0.8]}},
                      "statistic": "ks", "n_grid": [64, 128, 256, 512],
                      "replications": 30, "base_seed": 0}),
        ("mixing-est", {"dgp": {"generator": "markov",
                                "params": {"transition": [[0.9, 0.1], [0.2, 0.8]],
                                           "state_values": [0.2, 0.5, 0.8]}},
                        "n": 5000, "q_grid": [1, 5], "m_bins": 2, "seed": 3}),
        ("mixing-est", {"dgp": {"generator": "markov",
                                "params": {"transition": [[0.9, 0.1], [0.2]],
                                           "state_values": [0.2, 0.8]}},
                        "n": 5000, "q_grid": [1, 5], "m_bins": 2, "seed": 3}),
        ("mixing-est", {"dgp": {"generator": "iid_uniform"},
                        "n": 100, "q_grid": [1, 5], "m_bins": 8, "seed": 3}),
        ("mixing-est", {"dgp": {"generator": "iid_uniform"},
                        "n": 1000, "q_grid": [1, 600], "m_bins": 2, "seed": 3}),
        ("ot-bench", {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 1.0,
                      "n_grid": [8, 12, 16, 24], "replications": 1,
                      "base_seed": 0, "k_override": 5}),
        ("rates", {"cells": [{"alpha": 1.0, "beta": 3.0, "r": "abc"}]}),
        ("rates", {"cells": [{"alpha": 1.0, "beta": 3.0, "r": 1.5}]}),
        ("rates", {"cells": [{"alpha": -1.0, "beta": 3.0}]}),
        ("phase", {"beta_grid": [0, 1], "alpha_grid": [1.0, 2.0]}),
        ("phase", {"beta_grid": [], "alpha_grid": [1.0, 2.0]}),
        ("simulate", {"dgp": {"generator": "iid_uniform"}, "statistic": "ks",
                      "n_grid": [64, 64, 128, 256], "replications": 30,
                      "base_seed": 0}),
        ("ot-bench", {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
                      "n_grid": [16, 16, 24, 32], "replications": 1,
                      "base_seed": 0, "k_override": 20}),
        ("mixing-est", {"dgp": {"generator": "iid_uniform"},
                        "n": 1000, "q_grid": [], "m_bins": 2, "seed": 3}),
    ], ids=["rows_not_stochastic", "state_values_length", "ragged_transition",
            "too_few_observations_for_bins", "gap_not_below_half_n",
            "beta_at_regime_boundary", "r_not_a_number", "r_not_above_2",
            "negative_alpha", "zero_in_beta_grid", "empty_beta_grid",
            "simulate_repeated_n", "ot_bench_repeated_n", "empty_q_grid"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, cfg):
        cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestOtBenchCommand:
    def test_small_benchmark(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, "ot.json",
            {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
             "n_grid": [16, 24, 32, 48], "replications": 1, "base_seed": 0,
             "k_override": 20})
        out = tmp_path / "out"
        assert main(["ot-bench", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        rows = (out / "ot_bench.csv").read_text().strip().splitlines()
        assert rows[0].startswith("n,exact_w2,sinkhorn_div")
        assert len(rows) == 5
        verdict = json.loads((out / "ot_verdict.json").read_text())
        assert verdict["regime"] == "fast"

    @pytest.mark.parametrize("extra", [
        {"d": 3},
        {"d": 3, "k_override": 5},
        {"d": 3, "eps_override": 0.5},
        {"beta": 0.0},
        {"beta": -1.0},
        {"eps_override": 0.0},
        {"k_override": 0},
    ], ids=["d3_no_overrides", "d3_k_only", "d3_eps_only", "zero_beta",
            "negative_beta", "zero_eps", "zero_k"])
    def test_config_fault_exits_2(self, tmp_path, capsys, extra):
        cfg_path = write_cfg(
            tmp_path, "ot.json",
            {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
             "n_grid": [8, 12, 16, 24], "replications": 1, "base_seed": 0,
             **extra})
        out = tmp_path / "o"
        assert main(["ot-bench", "--config", cfg_path,
                     "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_both_overrides_allow_low_dimension(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, "ot.json",
            {"dgp": {"generator": "iid_uniform"}, "d": 2, "beta": 3.0,
             "n_grid": [8, 12, 16, 24], "replications": 1, "base_seed": 0,
             "eps_override": 0.5, "k_override": 5})
        out = tmp_path / "out"
        assert main(["ot-bench", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        rows = (out / "ot_bench.csv").read_text().strip().splitlines()
        assert all(r.endswith(",5,0.5") for r in rows[1:])


class TestVerifyCommand:
    def test_invariant_bank_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--output-dir", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["failed"] == 0
        assert report["passed"] == 23
        assert "passed: 23" in capsys.readouterr().out


@pytest.mark.parametrize("command,config,results", [
    ("verify", None, ["verify.json"]),
    ("phase", CONFIGS / "phase_default.json", ["phase.csv", "phase.svg"])])
def test_rerun_in_one_process_is_byte_identical(tmp_path, command, config, results):
    """A second run in the same process writes the same bytes."""
    args = [command] + ([] if config is None else ["--config", str(config)])
    for out in ("first", "second"):
        assert main(args + ["--output-dir", str(tmp_path / out)]) == 0
    for name in results:
        assert filecmp.cmp(tmp_path / "first" / name, tmp_path / "second" / name,
                           shallow=False), name


class TestOutputDirEnv:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("MIXRATE_OUTPUT_DIR", str(out))
        cfg_path = write_cfg(tmp_path, "rates.json",
                             {"cells": [{"alpha": 1.0, "beta": 3.0}]})
        assert main(["rates", "--config", cfg_path]) == 0
        assert (out / "rates.csv").exists()
        assert (out / "manifest.json").exists()


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_valid_under_its_metaschema(name):
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[name])


class TestConfigHash:
    def test_key_order_invariant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
