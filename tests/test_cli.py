import copy
import csv
import filecmp
import json
import math
from pathlib import Path

import jsonschema
import pytest

from mixrate import ot, rates
from mixrate.cli import SCHEMAS, config_hash, main
from mixrate.empirical import _STATISTICS

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

    def test_norm_index_just_above_two(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "rates.json",
                             {"cells": [{"alpha": 1.0, "beta": 0.5, "r": 2.0000001}]})
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg_path, "--output-dir", str(out)]) == 0
        assert "dependence_dominated" in (out / "rates.csv").read_text()

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

    def test_csv_rows_keep_config_order(self, tmp_path):
        """Rows follow an unsorted n_grid; each n's row is the one a sorted
        grid writes, since replica r draws seed base_seed + r at every n."""
        rows = {}
        for name, n_grid in (("sorted", [64, 128, 256, 512]),
                             ("unsorted", [256, 64, 512, 128])):
            cfg_path = write_cfg(tmp_path, f"{name}.json", {
                "dgp": {"generator": "iid_uniform"}, "statistic": "w1",
                "n_grid": n_grid, "replications": 30, "base_seed": 3})
            assert main(["simulate", "--config", cfg_path,
                         "--output-dir", str(tmp_path / name)]) == 0
            rows[name] = (tmp_path / name / "simulate.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows["unsorted"][1:]] == ["256", "64", "512", "128"]
        assert sorted(rows["unsorted"][1:], key=lambda r: int(r.split(",")[0])) \
            == rows["sorted"][1:]

    def test_too_few_replications_exits_2(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sim.json",
                             {"dgp": {"generator": "iid_uniform"},
                              "statistic": "ks",
                              "n_grid": [64, 128, 256, 512],
                              "replications": 5, "base_seed": 0})
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(tmp_path / "o")]) == 2

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
        # simulate rejects ar1 and markov whatever their params, so their
        # params faults run through mixing-est, which reads the same dgp schema
        if dgp["generator"] in ("ar1", "markov"):
            command, cfg = "mixing-est", {"dgp": dgp, "n": 5000, "q_grid": [1, 5],
                                          "m_bins": 2, "seed": 3}
        else:
            command, cfg = "simulate", {"dgp": dgp, "statistic": "ks",
                                        "n_grid": [64, 128, 256, 512],
                                        "replications": 30, "base_seed": 0, **extra}
        cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "marginal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dgp,marginal", [
        ({"generator": "ar1", "params": {"a": 0.0}}, "Gaussian"),
        ({"generator": "markov",
          "params": {"transition": [[0.5, 0.5], [0.5, 0.5]],
                     "state_values": [0.2, 0.8]}}, "discrete"),
    ], ids=["ar1", "markov"])
    def test_non_uniform_marginal_exits_2(self, tmp_path, capsys, dgp, marginal):
        # the statistics are centred at the Uniform[0, 1] CDF: an i.i.d.
        # N(0, 1) sample would read a slope near 1/2 and fail its verdict
        cfg_path = write_cfg(tmp_path, "sim.json",
                             {"dgp": dgp, "statistic": "ks",
                              "n_grid": [64, 128, 256, 512],
                              "replications": 30, "base_seed": 0})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"has a {marginal}" in err
        assert not out.exists()

    def test_theory_exponent_is_the_rate_table(self, tmp_path):
        """summary.json's theory exponent is rate_exponent's for the
        statistic's entropy exponent (ks 0, monotone and w1 1) and the
        renewal tail exponent, within 1e-8 of the closed form
        (1 - beta)/(2(1 + beta)) for beta < 1 (0 beyond), and equal to it at
        the example configs' tail exponents 0.5 and 3.0."""
        alphas = {"ks": 0, "monotone": 1, "w1": 1}
        assert set(alphas) == set(_STATISTICS)
        for beta in (0.05, 0.3, 0.5, 0.7, 0.999, 1.0, 1.3, 3.0, 7.5):
            closed = (1.0 - beta) / (2.0 * (1.0 + beta)) if beta < 1 else 0.0
            for statistic, alpha in alphas.items():
                out = tmp_path / f"{statistic}_{beta}"
                cfg_path = write_cfg(tmp_path, "sim.json", {
                    "dgp": {"generator": "renewal",
                            "params": {"tail_exponent": beta, "l_max": 50}},
                    "statistic": statistic, "n_grid": [16, 32, 64, 128],
                    "replications": 30, "base_seed": 0})
                assert main(["simulate", "--config", cfg_path,
                             "--output-dir", str(out)]) == 0
                theory = json.loads((out / "summary.json").read_text())["theory_exponent"]
                assert theory == float(rates.rate_exponent(alpha, beta).exponent)
                assert theory == pytest.approx(closed, rel=0, abs=1e-8)
                if beta in (0.5, 3.0):
                    assert theory == closed


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

    def test_numerical_failure_exits_3(self, tmp_path):
        # a periodic chain passes the schema; power iteration for its
        # stationary law then fails to converge
        cfg_path = write_cfg(tmp_path, "mix.json",
                             {"dgp": {"generator": "markov",
                                      "params": {"transition": [[0.0, 1.0],
                                                                [1.0, 0.0]],
                                                 "state_values": [0.2, 0.8]}},
                              "n": 5000, "q_grid": [1, 5], "m_bins": 2, "seed": 3})
        assert main(["mixing-est", "--config", cfg_path,
                     "--output-dir", str(tmp_path / "o")]) == 3


class TestSemanticConfigFaults:
    """Config faults, in the schemas or beyond them, exit 2 before anything
    is written."""

    @pytest.mark.parametrize("command,cfg", [
        ("mixing-est", {"dgp": {"generator": "markov",
                                "params": {"transition": [[0.5, 0.6], [0.5, 0.5]],
                                           "state_values": [0.2, 0.8]}},
                        "n": 5000, "q_grid": [1, 5], "m_bins": 2, "seed": 3}),
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
                      "base_seed": 0}),
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
                      "base_seed": 0}),
        ("mixing-est", {"dgp": {"generator": "iid_uniform"},
                        "n": 1000, "q_grid": [], "m_bins": 2, "seed": 3}),
        # json.dumps writes nan and inf as the non-standard literals NaN and
        # Infinity, which json.loads would otherwise accept
        ("rates", {"cells": [{"alpha": 1.0, "beta": math.nan}]}),
        ("rates", {"cells": [{"alpha": 1.0, "beta": math.inf}]}),
        ("rates", {"cells": [{"alpha": 1.0, "beta": 3.0, "r": math.inf}]}),
        ("phase", {"beta_grid": [math.nan, 0.5], "alpha_grid": [1.0, 2.0]}),
        ("simulate", {"dgp": {"generator": "renewal",
                              "params": {"tail_exponent": math.nan, "l_max": 1000}},
                      "statistic": "ks", "n_grid": [64, 128, 256, 512],
                      "replications": 30, "base_seed": 0}),
        ("mixing-est", {"dgp": {"generator": "markov",
                                "params": {"transition": [[math.nan, math.nan], [0.5, 0.5]],
                                           "state_values": [0.2, 0.8]}},
                        "n": 5000, "q_grid": [1, 5], "m_bins": 2, "seed": 3}),
        # seeds are integers >= 0: numpy's generators reject a negative one
        ("verify", {"seed": -1}),
        ("mixing-est", {"dgp": {"generator": "iid_uniform"},
                        "n": 1000, "q_grid": [1, 5], "m_bins": 2, "seed": -3}),
        ("simulate", {"dgp": {"generator": "iid_uniform"}, "statistic": "ks",
                      "n_grid": [64, 128, 256, 512], "replications": 30,
                      "base_seed": -3}),
        ("ot-bench", {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
                      "n_grid": [16, 24, 32, 48], "replications": 1,
                      "base_seed": -3}),
        # axes of two clouds would share a seed from 839 replications at d = 6
        ("ot-bench", {"dgp": {"generator": "iid_uniform"}, "d": 6, "beta": 3.0,
                      "n_grid": [2, 3, 4, 5], "replications": 839,
                      "base_seed": 0}),
    ], ids=["rows_not_stochastic", "state_values_length", "ragged_transition",
            "too_few_observations_for_bins", "gap_not_below_half_n",
            "beta_at_regime_boundary", "r_not_a_number", "r_not_above_2",
            "negative_alpha", "zero_in_beta_grid", "empty_beta_grid",
            "simulate_repeated_n", "ot_bench_repeated_n", "empty_q_grid",
            "rates_nan_beta", "rates_infinite_beta", "rates_infinity_literal_r",
            "phase_nan_beta", "simulate_nan_tail_exponent",
            "mixing_est_nan_transition", "verify_negative_seed",
            "mixing_est_negative_seed", "simulate_negative_base_seed",
            "ot_bench_negative_base_seed", "ot_bench_repeated_seed"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, cfg):
        cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestIntegerFields:
    """JSON Schema's integer admits 1.0; a config that writes an integer
    field as a float exits 2 before anything is written."""

    VALID = {
        "mixing-est": {"dgp": {"generator": "iid_uniform"},
                       "n": 1000, "q_grid": [1, 5], "m_bins": 2, "seed": 3},
        "simulate": {"dgp": {"generator": "renewal",
                             "params": {"tail_exponent": 0.5, "l_max": 100}},
                     "statistic": "ks", "n_grid": [64, 128, 256, 512],
                     "replications": 30, "base_seed": 0},
        "ot-bench": {"dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
                     "n_grid": [16, 24, 32, 48], "replications": 1,
                     "base_seed": 0},
        "verify": {"seed": 0},
    }

    @pytest.mark.parametrize("command,path", [
        ("mixing-est", ["n"]), ("mixing-est", ["q_grid", 1]),
        ("mixing-est", ["m_bins"]), ("mixing-est", ["seed"]),
        ("simulate", ["n_grid", 0]), ("simulate", ["replications"]),
        ("simulate", ["base_seed"]), ("simulate", ["dgp", "params", "l_max"]),
        ("ot-bench", ["d"]), ("ot-bench", ["n_grid", 3]),
        ("ot-bench", ["replications"]), ("ot-bench", ["base_seed"]),
        ("verify", ["seed"]),
    ], ids=lambda x: x if isinstance(x, str) else "/".join(map(str, x)))
    def test_float_exits_2_and_writes_nothing(self, tmp_path, capsys, command, path):
        cfg = copy.deepcopy(self.VALID[command])
        # valid as written, so the float alone is the fault
        jsonschema.Draft202012Validator(SCHEMAS[command.replace("-", "_")]).validate(cfg)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float(node[path[-1]])
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
             "n_grid": [16, 24, 32, 48], "replications": 1, "base_seed": 0})
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
        {"beta": 0.0},
        {"beta": -1.0},
        # the harness always runs the (k_n, eps_n) schedule: there is no
        # field that sets either
        {"eps_override": 0.5},
        {"k_override": 5},
    ], ids=["d3_no_overrides", "zero_beta", "negative_beta",
            "eps_override_field", "k_override_field"])
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

    def test_wide_valued_dgp_runs_sinkhorn_in_the_log_domain(self, tmp_path):
        # clouds on {0, 100}^4: max(C)/eps is about 8e4, far above the
        # Gibbs-kernel bound of 500, so every Sinkhorn iterate is a log-sum-exp
        cfg = {"dgp": {"generator": "markov",
                       "params": {"transition": [[0.9, 0.1], [0.2, 0.8]],
                                  "state_values": [0.0, 100.0]}},
               "d": 4, "beta": 3.0, "n_grid": [16, 24, 32, 48],
               "replications": 1, "base_seed": 0}
        n, d = cfg["n_grid"][0], cfg["d"]
        X = ot.gen_cloud(cfg["dgp"], n, d, cfg["base_seed"])
        Y = ot.gen_cloud(cfg["dgp"], n, d, cfg["base_seed"] + 1)
        _, eps = rates.ot_schedule(cfg["beta"], d, n)
        assert not ot.SinkhornState.init(X, Y, eps).gibbs
        out = tmp_path / "out"
        assert main(["ot-bench", "--config", write_cfg(tmp_path, "ot.json", cfg),
                     "--output-dir", str(out)]) == 0
        with open(out / "ot_bench.csv") as fh:
            values = [float(row["sinkhorn_div"]) for row in csv.DictReader(fh)]
        assert len(values) == 4 and all(map(math.isfinite, values))


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
    ("phase", CONFIGS / "phase_default.json", ["phase.csv", "phase.svg"]),
    ("simulate", CONFIGS / "simulate_shortrange.json",
     ["simulate.csv", "simulate.svg", "summary.json"]),
    ("mixing-est", CONFIGS / "mixing_est_markov.json", ["mixing_est.csv"])])
def test_rerun_in_one_process_is_byte_identical(tmp_path, command, config, results):
    """A second run in the same process writes the same bytes."""
    args = [command] + ([] if config is None else ["--config", str(config)])
    for out in ("first", "second"):
        assert main(args + ["--output-dir", str(tmp_path / out)]) == 0
    for name in results:
        assert filecmp.cmp(tmp_path / "first" / name, tmp_path / "second" / name,
                           shallow=False), name


def test_ot_bench_rerun_repeats_every_deterministic_column(tmp_path):
    """A second ot-bench run writes the same estimates and schedule; only the
    wall-clock columns may differ."""
    kept = ["n", "exact_w2", "sinkhorn_div", "k_n", "eps_n"]
    columns = []
    for out in ("first", "second"):
        assert main(["ot-bench", "--config", str(CONFIGS / "ot_bench_small.json"),
                     "--output-dir", str(tmp_path / out)]) == 0
        with open(tmp_path / out / "ot_bench.csv", newline="") as f:
            columns.append([[row[k] for k in kept] for row in csv.DictReader(f)])
    assert len(columns[0]) == 4
    assert columns[0] == columns[1]


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
