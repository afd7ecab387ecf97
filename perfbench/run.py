"""mixrate benchmark: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {sampling,bounds,transport} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; ``src/mixrate`` is imported from
there. Every input is generated from ``--seed`` into ``.perfbench/`` and
the program receives only those files. Each run is one closed loop with a
single caller: a fresh interpreter runs the workload's steps back to back,
pass after pass, for ``--seconds``. Set-up is timed separately in several
fresh interpreters, since a CLI user pays it on every invocation.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over interpreters) and ``peak_rss_mb``. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
listed in ``layers.json``. The last line of standard output is the JSON
result; the line before it carries run metadata and the largest relative
deviation from the reference outputs, neither of which is gated.

At the default seed every output is compared with ``reference/`` (see
``check.py``); at any seed the seed-free invariants in ``workloads.py``
must hold. ``--record-reference`` rewrites the reference from the current
source at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import load_layers, per_layer_metrics  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


def _spawn_worker(root: Path, extra: list[str], result: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result),
           "--spawned-at", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _git_sha(root: Path):
    if not (root / ".git").exists():  # git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "mixrate" / "__init__.py").is_file():
        print(f"no mixrate source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        print("the reference is recorded at the default seed only", file=sys.stderr)
        return 2

    workdir = root / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = workloads.make_inputs(args.workload, args.seed, workdir / "inputs")
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    result_path = workdir / "result.json"
    common = ["--manifest", str(manifest_path)]

    phase_samples = []
    for _ in range(SETUP_PROBES):
        probe = _spawn_worker(root, common + ["--setup-only"], result_path, 60.0)
        phase_samples.append(probe["phases"])
    reference = HERE / "reference" / f"{args.workload}.json"
    extra = common + ["--workload", args.workload, "--workdir", str(workdir),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record_reference:
        extra.append("--record")
    elif args.seed == workloads.DEFAULT_SEED:
        extra += ["--reference", str(reference)]
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    res = _spawn_worker(root, extra, result_path, budget)
    phase_samples.append(res["phases"])
    setups = [p["setup_s"] for p in phase_samples]

    if args.record_reference:
        if res["failed"]:
            print("\n".join(res["failures"]), file=sys.stderr)
            return 1
        reference.parent.mkdir(exist_ok=True)
        reference.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "steps": res["first_outputs"]}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {reference.relative_to(root)}")

    if args.trace:
        layers = load_layers()
        phases = {k: statistics.median(p[k] for p in phase_samples)
                  for k in phase_samples[0] if k != "setup_s"}
        metrics = per_layer_metrics(layers, res["records"], res["traced_walls"],
                                    statistics.median(res["untraced_walls"]), phases)
    else:
        metrics = {"wall_s": (statistics.median(res["walls"]), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (res["peak_rss_mib"], "MiB")}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(res["walls"]), "traced_passes": len(res["traced_walls"]),
            "pass_walls_s": res["walls"], "setup_samples_s": setups,
            "reference_compared": res["max_rel_deviation"] is not None,
            "max_rel_deviation": res["max_rel_deviation"],
            "failures": res["failures"][:20],
            "git_sha": _git_sha(root), "nproc": os.cpu_count(),
            "blas_threads": res["blas_threads"], "versions": res["versions"],
            "src_lines": _src_lines(root)}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
