"""The three benchmark workloads: inputs made from a seed, the timed steps,
and the outputs each step is judged by.

A workload is a fixed list of steps run in order by one caller (a closed
loop). One step is one op: a CLI invocation through ``mixrate.cli.main``
or one group of public API calls. ``make_inputs`` writes every input the
program receives to the work directory; the steps read nothing else.

Why these three: each puts a different layer on the critical path.

* ``sampling``: generators and supremum oracles (renewal pmf set-up per
  call, the per-step Markov loop, the scalar W1 oracle).
* ``bounds``: dependence coefficients and bounds (``exact_beta_markov``
  through ``lambda_phi_beta``, the O(q^2) path); no generator or oracle.
* ``transport``: Sinkhorn and the assignment solver at sizes whose cost
  matrices (up to 2 MiB, plus temporaries of the same size) exceed a
  per-core L2 cache.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Seed-independent sizes. A pass takes 3.5-6 s on a 2-core Xeon VM, so one
# run of --seconds 30 holds about five passes to take the median over.
RENEWAL = {"tail_exponent": 0.5, "l_max": 100_000}
SAMPLING_KS_GRID = [1024, 2048, 4096, 8192, 16384]
SAMPLING_KS_REPS = 50
SAMPLING_W1_GRID = [1024, 2048, 4096, 8192]
SAMPLING_W1_REPS = 30
MARKOV_2STATE = [[0.9, 0.1], [0.1, 0.9]]
MARKOV_N = 2**19
BOUNDS_CHAINS = 3
BOUNDS_H_PER_CHAIN = 4
BOUNDS_STATES = 5
BOUNDS_Q_MAX = 50
BOUNDS_R = (3, 4, 8)
MAIN_BOUND_N = 100_000
FINITE_CLASS_N = 10_000
OT_GRID = [192, 256, 384, 512]
PHASE = {"beta_grid": [0.25, 0.5, 0.75, 1.5, 2.0, 3.0],
         "alpha_grid": [0.5, 1.0, 1.5, 2.5, 3.0, 4.0, 6.0], "r": "inf"}

WORKLOAD_TAGS = {"sampling": 1, "bounds": 2, "transport": 3}
WORKLOADS = tuple(WORKLOAD_TAGS)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload]])


def _seed31(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _random_chain(rng: np.random.Generator, m: int) -> list:
    P = rng.random((m, m)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return P.tolist()


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's CLI configs and API inputs under ``workdir``.

    Returns the manifest ``{"configs": {step: [command, path]},
    "api": path-or-None}`` that the worker loads at set-up.
    """
    rng = _rng(workload, seed)
    configs: dict[str, tuple[str, dict]] = {}
    api = None
    if workload == "sampling":
        configs["simulate_renewal_ks"] = ("simulate", {
            "dgp": {"generator": "renewal", "params": dict(RENEWAL)},
            "statistic": "ks", "n_grid": SAMPLING_KS_GRID,
            "replications": SAMPLING_KS_REPS, "base_seed": _seed31(rng),
            "tolerance": 0.06})
        configs["simulate_iid_w1"] = ("simulate", {
            "dgp": {"generator": "iid_uniform"}, "statistic": "w1",
            "n_grid": SAMPLING_W1_GRID, "replications": SAMPLING_W1_REPS,
            "base_seed": _seed31(rng)})
        configs["mixing_est_markov"] = ("mixing-est", {
            "dgp": {"generator": "markov",
                    "params": {"transition": MARKOV_2STATE,
                               "state_values": [0.2, 0.8]}},
            "n": MARKOV_N, "q_grid": list(range(1, 11)), "m_bins": 2,
            "seed": _seed31(rng)})
    elif workload == "bounds":
        api = {"chains": [
            {"transition": _random_chain(rng, BOUNDS_STATES),
             "h": rng.normal(size=(BOUNDS_H_PER_CHAIN, BOUNDS_STATES)).tolist()}
            for _ in range(BOUNDS_CHAINS)],
            "bound_chain": _random_chain(rng, BOUNDS_STATES)}
        configs["verify"] = ("verify", {"seed": _seed31(rng)})
        configs["phase"] = ("phase", PHASE)
    elif workload == "transport":
        configs["ot_bench"] = ("ot-bench", {
            "dgp": {"generator": "iid_uniform"}, "d": 4, "beta": 3.0,
            "n_grid": OT_GRID, "replications": 1, "base_seed": _seed31(rng)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = {"configs": {}, "api": None}
    for step, (command, cfg) in configs.items():
        path = workdir / f"{step}.json"
        path.write_text(json.dumps(cfg, indent=1))
        manifest["configs"][step] = [command, str(path)]
    if api is not None:
        path = workdir / "api_inputs.json"
        path.write_text(json.dumps(api))
        manifest["api"] = str(path)
    return manifest


# ---------------------------------------------------------------------------
# Steps. ``run`` is timed; ``collect`` turns what it left behind into the
# outputs that are checked, outside the timed pass.


class CliStep:
    def __init__(self, name: str, command: str, config: str, outdir: Path):
        self.name, self.command, self.config = name, command, config
        self.outdir = outdir / name

    def run(self, mixrate):
        argv = [self.command, "--config", self.config, "--output-dir", str(self.outdir)]
        try:
            return mixrate.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code if isinstance(exc.code, int) else 2

    def collect(self, code) -> dict:
        out = {"exit_code": code}
        if code != 0:
            return out
        reader = _COLLECTORS[self.command]
        out.update(reader(self.outdir))
        return out


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def _collect_simulate(d: Path) -> dict:
    rows = _read_csv(d / "simulate.csv")
    summary = json.loads((d / "summary.json").read_text())
    svg_text = (d / "simulate.svg").read_text()
    return {"n": [int(r["n"]) for r in rows],
            "mean": [float(r["mean"]) for r in rows],
            "jackknife_se": [float(r["jackknife_se"]) for r in rows],
            "summary": summary, "svg_ok": svg_text.startswith("<svg")}


def _collect_mixing_est(d: Path) -> dict:
    rows = _read_csv(d / "mixing_est.csv")
    return {"q": [int(r["q"]) for r in rows],
            "estimate": [float(r["estimate"]) for r in rows],
            "exact": [_num(r["exact"]) for r in rows]}


def _collect_verify(d: Path) -> dict:
    return json.loads((d / "verify.json").read_text())


def _collect_phase(d: Path) -> dict:
    rows = _read_csv(d / "phase.csv")
    svg_text = (d / "phase.svg").read_text()
    return {"beta": [float(r["beta"]) for r in rows],
            "alpha": [float(r["alpha"]) for r in rows],
            "regime": [r["regime"] for r in rows],
            "exponent": [_num(r["exponent"]) for r in rows],
            "svg_ok": svg_text.startswith("<svg")}


def _collect_ot_bench(d: Path) -> dict:
    # exact_seconds, sinkhorn_seconds and the runtime exponents are
    # wall-clock readings, so they are left out of the judged outputs
    rows = _read_csv(d / "ot_bench.csv")
    verdict = json.loads((d / "ot_verdict.json").read_text())
    return {"n": [int(r["n"]) for r in rows],
            "exact_w2": [float(r["exact_w2"]) for r in rows],
            "sinkhorn_div": [float(r["sinkhorn_div"]) for r in rows],
            "k_n": [int(r["k_n"]) for r in rows],
            "eps_n": [float(r["eps_n"]) for r in rows],
            "regime": verdict["regime"]}


_COLLECTORS = {"simulate": _collect_simulate, "mixing-est": _collect_mixing_est,
               "verify": _collect_verify, "phase": _collect_phase,
               "ot-bench": _collect_ot_bench}


class SweepStep:
    """Criterion-4-shaped exact variance-bound sweep on one random chain."""

    def __init__(self, name: str, transition, hs):
        self.name = name
        self.transition = np.asarray(transition, dtype=float)
        self.hs = np.asarray(hs, dtype=float)

    def run(self, mixrate):
        verify = mixrate.empirical.verify_variance_bound
        pi = mixrate.mixing.stationary_distribution(self.transition)
        reports = []
        for h in self.hs:
            for q in range(1, BOUNDS_Q_MAX + 1):
                for r in BOUNDS_R:
                    reports.append(verify(self.transition, pi, h, q, r))
        return reports

    def collect(self, reports) -> dict:
        return {"cases": len(reports),
                "violations": sum(not rep.holds for rep in reports),
                "lhs": [rep.lhs for rep in reports],
                "rhs": [rep.rhs for rep in reports]}


def _exact_profile(mixrate, transition):
    P = np.asarray(transition, dtype=float)
    mixing = mixrate.mixing
    return mixing.MixingProfile(
        kind=mixing.ProfileKind.EXACT_MARKOV, flavor=mixing.MixingFlavor.BETA,
        transition=P, stationary=mixing.stationary_distribution(P))


class MainBoundStep:
    name = "main_bound"

    def __init__(self, transition):
        self.transition = transition

    def run(self, mixrate):
        ent = mixrate.classes.EntropyModel(alpha=1.0, sigma=1.0, b=1.0)
        return mixrate.rates.main_bound(
            ent, _exact_profile(mixrate, self.transition), MAIN_BOUND_N, 4.0)

    def collect(self, rb) -> dict:
        # integral_residual is where the 1e-9 bisection stopped: noise at
        # that tolerance, with no stable value to compare
        return {"a": rb.a, "tail_term": rb.tail_term, "total": rb.total,
                "tau_at_sigma": int(rb.tau_at_sigma),
                "lambda_at_sigma": rb.lambda_at_sigma}


class FiniteClassStep:
    name = "finite_class_bound"

    def __init__(self, transition):
        self.transition = transition

    def run(self, mixrate):
        return mixrate.rates.finite_class_bound(
            1.0, 1.0, 100, FINITE_CLASS_N,
            _exact_profile(mixrate, self.transition), 4.0)

    def collect(self, value) -> dict:
        return {"value": float(value)}


def build_steps(workload: str, manifest: dict, api: dict | None,
                outdir: Path) -> list:
    """The workload's steps in execution order."""
    cli = {step: CliStep(step, command, path, outdir)
           for step, (command, path) in manifest["configs"].items()}
    if workload == "bounds":
        sweeps = [SweepStep(f"sweep_chain_{i}", c["transition"], c["h"])
                  for i, c in enumerate(api["chains"])]
        return sweeps + [MainBoundStep(api["bound_chain"]),
                         FiniteClassStep(api["bound_chain"]),
                         cli["verify"], cli["phase"]]
    return list(cli.values())


# ---------------------------------------------------------------------------
# Seed-free invariants, checked at every seed.


def invariant_failures(step: str, out: dict) -> list[str]:
    bad = []
    if out.get("exit_code", 0) != 0:
        return [f"{step}: exit code {out['exit_code']}"]
    if "svg_ok" in out and not out["svg_ok"]:
        bad.append(f"{step}: SVG output is not an SVG document")
    if step == "verify" and out["failed"] != 0:
        bad.append(f"verify: {out['failed']} failed checks {out['failures']}")
    if step.startswith("sweep_chain") and out["violations"] != 0:
        bad.append(f"{step}: {out['violations']} variance-bound violations")
    if step == "ot_bench":
        if any(not (w >= 0.0) for w in out["exact_w2"]):
            bad.append("ot_bench: negative or NaN exact W2")
        if any(not math.isfinite(s) for s in out["sinkhorn_div"]):
            bad.append("ot_bench: non-finite Sinkhorn divergence")
    return bad
