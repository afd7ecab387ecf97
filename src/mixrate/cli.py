"""Command-line entry point: JSON-configured experiment runs with
deterministic CSV/JSON/SVG outputs and a manifest per run.

Exit codes: 0 success, 2 configuration/schema violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, empirical, mixing, ot, rates, svg
from .classes import uniform01_cdf

OUTPUT_DIR_ENV = "MIXRATE_OUTPUT_DIR"

# the params each generator requires, with their admissible ranges
_DGP_PARAMS = {
    "iid_uniform": {},
    "renewal": {
        "properties": {"tail_exponent": {"type": "number", "exclusiveMinimum": 0},
                       "l_max": {"type": "integer", "minimum": 1}},
        "required": ["tail_exponent"],
    },
    "ar1": {
        "properties": {"a": {"type": "number", "exclusiveMinimum": -1,
                             "exclusiveMaximum": 1}},
        "required": ["a"],
    },
    "markov": {
        "properties": {"transition": {"type": "array", "minItems": 1},
                       "state_values": {"type": "array", "minItems": 1}},
        "required": ["transition", "state_values"],
    },
}

_DGP_SCHEMA = {
    "type": "object",
    "properties": {
        "generator": {"enum": list(_DGP_PARAMS)},
        "params": {"type": "object"},
    },
    "required": ["generator"],
    "additionalProperties": False,
    "allOf": [
        {"if": {"properties": {"generator": {"const": gen}}},
         "then": {"properties": {"params": params}, "required": ["params"]}}
        for gen, params in _DGP_PARAMS.items() if params
    ],
}

# norm index r > 2, or "inf" for sup-norm brackets
_R_SCHEMA = {"anyOf": [{"type": "number", "exclusiveMinimum": 2}, {"const": "inf"}]}
_PHASE_GRID = {"type": "array", "minItems": 1,
               "items": {"type": "number", "exclusiveMinimum": 0}}

SCHEMAS = {
    "rates": {
        "type": "object",
        "properties": {
            "cells": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "properties": {
                        "alpha": {"type": "number", "minimum": 0},
                        "beta": {"type": "number", "exclusiveMinimum": 0},
                        "r": _R_SCHEMA,
                    },
                    "required": ["alpha", "beta"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["cells"],
        "additionalProperties": False,
    },
    "phase": {
        "type": "object",
        "properties": {
            "beta_grid": _PHASE_GRID,
            "alpha_grid": _PHASE_GRID,
            "r": _R_SCHEMA,
        },
        "required": ["beta_grid", "alpha_grid"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "dgp": _DGP_SCHEMA,
            "statistic": {"enum": list(empirical._STATISTICS)},
            "n_grid": {"type": "array", "minItems": 4, "uniqueItems": True,
                       "items": {"type": "integer", "minimum": 2}},
            "replications": {"type": "integer", "minimum": 30},
            "base_seed": {"type": "integer"},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "required": ["dgp", "statistic", "n_grid", "replications", "base_seed"],
        "additionalProperties": False,
    },
    "mixing_est": {
        "type": "object",
        "properties": {
            "dgp": _DGP_SCHEMA,
            "n": {"type": "integer", "minimum": 10},
            "q_grid": {"type": "array", "minItems": 1,
                       "items": {"type": "integer", "minimum": 1}},
            "m_bins": {"type": "integer", "minimum": 2},
            "seed": {"type": "integer"},
        },
        "required": ["dgp", "n", "q_grid", "m_bins", "seed"],
        "additionalProperties": False,
    },
    "ot_bench": {
        "type": "object",
        "properties": {
            "dgp": _DGP_SCHEMA,
            "d": {"type": "integer", "minimum": 2},
            "beta": {"type": "number", "exclusiveMinimum": 0},
            "n_grid": {"type": "array", "minItems": 4, "uniqueItems": True,
                       "items": {"type": "integer", "minimum": 2}},
            "replications": {"type": "integer", "minimum": 1},
            "base_seed": {"type": "integer"},
            "eps_override": {"type": "number", "exclusiveMinimum": 0},
            "k_override": {"type": "integer", "minimum": 1},
        },
        "required": ["dgp", "d", "beta", "n_grid", "replications", "base_seed"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {"seed": {"type": "integer"}},
        "additionalProperties": False,
    },
}


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_manifest(outdir: Path, command: str, cfg: dict) -> None:
    manifest = {"artifact_version": __version__, "command": command,
                "config": cfg, "config_hash": config_hash(cfg)}
    atomic_write(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not standard JSON; write \"inf\" for an infinite r")


class _JsonFraction(float):
    """A JSON number written with a fraction or an exponent, such as 1.0.
    It is never integral, so a schema's integer type, which admits integral
    floats, rejects it before numpy meets it as a size or an index."""

    def is_integer(self) -> bool:
        return False


def _r_value(x):
    return math.inf if x == "inf" else float(x)


def _cmd_rates(cfg: dict, outdir: Path) -> None:
    rows = []
    for cell in cfg["cells"]:
        rep = rates.rate_exponent(cell["alpha"], cell["beta"],
                                  _r_value(cell.get("r", "inf")))
        rows.append([cell["alpha"], cell["beta"], cell.get("r", "inf"),
                     rep.regime.value,
                     "" if rep.exponent is None else float(rep.exponent)])
    atomic_write(outdir / "rates.csv",
                 _csv_text(["alpha", "beta", "r", "regime", "exponent"], rows))


def _cmd_phase(cfg: dict, outdir: Path) -> None:
    diagram = rates.phase_diagram(cfg["beta_grid"], cfg["alpha_grid"],
                                  _r_value(cfg.get("r", "inf")))
    rows = [[b, a, rep.regime.value,
             "" if rep.exponent is None else float(rep.exponent)]
            for b, a, rep in diagram.cells]
    atomic_write(outdir / "phase.csv",
                 _csv_text(["beta", "alpha", "regime", "exponent"], rows))
    atomic_write(outdir / "phase.svg",
                 svg.emit_phase_svg(diagram, title="rate regimes"))


def _cmd_simulate(cfg: dict, outdir: Path) -> None:
    dgp, theory = cfg["dgp"], 0.0
    if dgp["generator"] == "renewal":
        theory = float(rates.rate_exponent(
            empirical._ENTROPY_EXPONENTS[cfg["statistic"]],
            dgp["params"]["tail_exponent"]).exponent)
    oracle = uniform01_cdf()
    pairs, ses, rows = [], [], []
    for n in cfg["n_grid"]:
        mean, se = empirical.mc_sup_expectation(
            cfg["dgp"], cfg["statistic"], n, cfg["replications"],
            cfg["base_seed"], oracle)
        pairs.append((n, mean))
        ses.append(se)
        rows.append([n, mean, se])
    fit = empirical.slope_fit(pairs, ses)
    tol = cfg.get("tolerance", 0.06)
    summary = {"slope": fit.slope, "slope_se": fit.slope_se,
               "r_squared": fit.r_squared, "theory_exponent": theory,
               "verdict": "pass" if abs(fit.slope - theory) <= tol else "fail"}
    atomic_write(outdir / "simulate.csv",
                 _csv_text(["n", "mean", "jackknife_se"], rows))
    atomic_write(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True))
    series = [svg.Series("measured", fit.n_grid, fit.estimates,
                         fit.standard_errors)]
    theory_line = [svg.TheoryLine(f"slope {theory:.3f}", theory,
                                  (float(fit.n_grid[0]), float(fit.estimates[0])))]
    atomic_write(outdir / "simulate.svg",
                 svg.emit_svg(series, theory_line, title="supremum scaling",
                              ylabel=cfg["statistic"]))


def _cmd_mixing_est(cfg: dict, outdir: Path) -> None:
    sample = empirical.generate(cfg["dgp"], cfg["n"], cfg["seed"])
    estimates = mixing.estimate_beta_binning(sample, cfg["q_grid"], cfg["m_bins"])
    prof = sample.mixing_oracle
    exact = [""] * len(estimates)
    if prof is not None and prof.kind == mixing.ProfileKind.EXACT_MARKOV:
        exact = mixing.exact_beta_markov(prof, cfg["q_grid"]).tolist()
    rows = [[q, float(est), ex] for q, est, ex in zip(cfg["q_grid"], estimates, exact)]
    atomic_write(outdir / "mixing_est.csv",
                 _csv_text(["q", "estimate", "exact"], rows))


def _cmd_ot_bench(cfg: dict, outdir: Path) -> None:
    report = ot.compare_estimators(
        cfg["dgp"], cfg["d"], cfg["beta"], cfg["n_grid"],
        replications=cfg["replications"], base_seed=cfg["base_seed"],
        eps_override=cfg.get("eps_override"), k_override=cfg.get("k_override"))
    rows = [[int(n), ev, sv, et, st, k, e] for n, ev, sv, et, st, (k, e)
            in zip(report.n_grid, report.exact_values, report.sinkhorn_values,
                   report.exact_times, report.sinkhorn_times, report.schedules)]
    atomic_write(outdir / "ot_bench.csv",
                 _csv_text(["n", "exact_w2", "sinkhorn_div", "exact_seconds",
                            "sinkhorn_seconds", "k_n", "eps_n"], rows))
    verdict = {"regime": report.regime,
               "exact_runtime_exponent": report.exact_runtime_exponent,
               "sinkhorn_runtime_exponent": report.sinkhorn_runtime_exponent}
    atomic_write(outdir / "ot_verdict.json",
                 json.dumps(verdict, indent=2, sort_keys=True))


def _verify_bank(seed: int) -> tuple[int, int, list[str]]:
    rng = np.random.default_rng(seed)
    failures = []
    passed = 0

    def check(name, ok):
        nonlocal passed
        if ok:
            passed += 1
        else:
            failures.append(name)

    # variance bound on random exact chains
    for trial in range(10):
        P = rng.random((4, 4)) + 0.1
        P /= P.sum(axis=1, keepdims=True)
        pi = mixing.stationary_distribution(P)
        h = rng.normal(size=4)
        rep = empirical.verify_variance_bound(P, pi, h, q=int(rng.integers(1, 30)), r=4)
        check(f"variance_bound_{trial}", rep.holds)
    # tau_q is the first crossing: beta_tau <= tau * slope, and not at tau - 1
    from .classes import EntropyModel
    ent = EntropyModel(alpha=2.0, sigma=1.0, b=1.0)
    for trial in range(10):
        prof = mixing.MixingProfile(kind=mixing.ProfileKind.POLYNOMIAL,
                                    flavor=mixing.MixingFlavor.BETA,
                                    scale=1.0, exponent=float(rng.uniform(0.3, 3.0)))
        delta = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(100, 5000))
        tau = rates.tau_q(prof, ent, delta, n)
        slope = rates._entropy_dyadic_sum(ent, delta) / n
        check(f"tau_q_first_crossing_{trial}",
              prof.coefficient(tau) <= tau * slope
              and (tau == 0 or prof.coefficient(tau - 1) > (tau - 1) * slope))
    # sinkhorn sanities
    X = rng.normal(size=(12, 2))
    Y = rng.normal(size=(12, 2))
    check("sinkhorn_self_zero", abs(ot.sinkhorn_divergence(X, X, 0.5, 50)) < 1e-10)
    vals = [ot.t_eps_k(X, Y, 0.5, k) for k in (1, 5, 25)]
    check("sinkhorn_monotone", vals[0] <= vals[1] + 1e-10 <= vals[2] + 2e-10)
    check("w2_solvers_agree",
          abs(ot.exact_w2(X[:, :1], Y[:, :1], "sorted")
              - ot.exact_w2(X[:, :1], Y[:, :1], "assignment")) < 1e-9)
    return passed, len(failures), failures


def _cmd_verify(cfg: dict, outdir: Path) -> None:
    passed, failed, failures = _verify_bank(cfg.get("seed", 0))
    print(f"passed: {passed}  failed: {failed}")
    for name in failures:
        print(f"FAIL {name}")
    atomic_write(outdir / "verify.json",
                 json.dumps({"passed": passed, "failed": failed,
                             "failures": failures}, indent=2, sort_keys=True))
    if failed:
        raise FloatingPointError(f"{failed} invariant checks failed")


# the marginal law of each generator whose marginal is not Uniform[0, 1]
_NON_UNIFORM_MARGINALS = {"ar1": "Gaussian N(0, 1/(1 - a^2))",
                          "markov": "discrete (on state_values)"}


def _check_semantics(command: str, cfg: dict) -> None:
    """Config faults the schemas cannot express; raises ValueError."""
    dgp = cfg.get("dgp", {})
    generator = dgp.get("generator")
    if command == "simulate" and generator in _NON_UNIFORM_MARGINALS:
        raise ValueError(f"simulate centres at the Uniform[0, 1] CDF; generator {generator!r}"
                         f" has a {_NON_UNIFORM_MARGINALS[generator]} marginal")
    if generator == "markov":
        mixing._check_markov_config(dgp["params"]["transition"],
                                    dgp["params"]["state_values"])
    if command == "mixing-est":
        mixing._check_binning(cfg["n"], np.asarray(cfg["q_grid"]), cfg["m_bins"])
    if command == "ot-bench" and not ("eps_override" in cfg and "k_override" in cfg):
        rates.ot_schedule(cfg["beta"], cfg["d"], min(cfg["n_grid"]))


_COMMANDS = {"rates": _cmd_rates, "phase": _cmd_phase, "simulate": _cmd_simulate,
             "mixing-est": _cmd_mixing_est, "ot-bench": _cmd_ot_bench,
             "verify": _cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixrate",
        description="Empirical-process rate experiments under mixing dependence")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"),
                       help="JSON configuration file")
        p.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)
    schema_key = args.command.replace("-", "_")
    try:
        cfg = {} if args.config is None else json.loads(
            Path(args.config).read_text(), parse_constant=_reject_constant,
            parse_float=_JsonFraction)
        # the schemas are constants: the tests check them against the
        # metaschema, a check that would cost every run milliseconds
        jsonschema.Draft202012Validator(SCHEMAS[schema_key]).validate(cfg)
        _check_semantics(args.command, cfg)
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    try:
        write_manifest(outdir, args.command, cfg)
        _COMMANDS[args.command](cfg, outdir)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        mod = type(exc).__module__
        print(f"numerical failure [{mod}.{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
