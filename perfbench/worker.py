"""One benchmark process: set up, then run one workload's passes until the
time is up, and write a JSON result file. Started by ``run.py`` in a fresh
interpreter, with ``src`` on ``PYTHONPATH``.

``--setup-only`` stops once set-up is done, so ``run.py`` can take set-up
time from several fresh interpreters. Set-up is what a CLI user pays on
every run: interpreter start, ``import mixrate`` and ``mixrate.cli``, and
loading and validating the configs.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 1
MIN_PASSES_TRACED = 2  # one untraced and one traced


def setup(root: Path, manifest_path: Path, spawned_at: float):
    t0 = time.monotonic()
    import mixrate
    import mixrate.cli
    t1 = time.monotonic()
    src = (root / "src").resolve()
    if src not in Path(mixrate.__file__).resolve().parents:
        raise RuntimeError(f"imported mixrate from {mixrate.__file__}, not from {src}")
    import jsonschema
    manifest = json.loads(manifest_path.read_text())
    for command, path in manifest["configs"].values():
        cfg = json.loads(Path(path).read_text())
        jsonschema.validate(cfg, mixrate.cli.SCHEMAS[command.replace("-", "_")])
    api = None if manifest["api"] is None else json.loads(Path(manifest["api"]).read_text())
    t2 = time.monotonic()
    phases = {"setup.interpreter_s": T_START - spawned_at,
              "setup.import_s": t1 - t0, "setup.config_s": t2 - t1,
              "setup_s": t2 - spawned_at}
    return mixrate, manifest, api, phases


def blas_threads():
    """OpenBLAS thread count of this process, or None when not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_passes(args, mixrate, manifest, api) -> dict:
    import check
    import workloads
    from tracer import Tracer, load_layers

    steps = workloads.build_steps(args.workload, manifest, api,
                                  Path(args.workdir) / "out")
    reference = None
    if args.reference:
        reference = json.loads(Path(args.reference).read_text())["steps"]
    layers = load_layers()
    tracer = Tracer(mixrate, layers) if args.trace else None

    walls, traced_walls, records = [], [], []
    attempted, failed = 0, 0
    failures: list[str] = []
    worst_dev = 0.0
    first_outputs = None
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        raws = []
        t0 = time.perf_counter()
        for step in steps:
            try:
                raws.append((step, step.run(mixrate), None))
            except Exception as exc:  # the op fails; the run goes on
                raws.append((step, None, exc))
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            records.append(tracer.take())
            traced_walls.append(wall)
        walls.append(wall)

        outputs = {}
        for step, raw, exc in raws:
            attempted += 1
            problems = []
            if exc is not None:
                problems.append(f"{step.name}: {type(exc).__name__}: {exc}")
            else:
                try:
                    out = step.collect(raw)
                except (OSError, ValueError, KeyError) as err:
                    problems.append(f"{step.name}: unreadable output: {err!r}")
                else:
                    outputs[step.name] = out
                    problems += workloads.invariant_failures(step.name, out)
                    if reference is not None:
                        diffs, dev = check.compare(out, reference[step.name], step.name)
                        problems += diffs
                        worst_dev = max(worst_dev, dev)
                    if first_outputs is not None and out != first_outputs.get(step.name):
                        kind = "traced" if traced else "repeated"
                        problems.append(f"{step.name}: {kind} pass output differs "
                                        "from the first pass")
            if problems:
                failed += 1
                failures += problems
        if first_outputs is None:
            first_outputs = outputs

        elapsed = time.perf_counter() - loop_start
        min_passes = MIN_PASSES_TRACED if tracer is not None else MIN_PASSES
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > args.seconds:
            break

    untraced = [w for i, w in enumerate(walls) if tracer is None or i % 2 == 0]
    result = {"walls": walls, "untraced_walls": untraced,
              "traced_walls": traced_walls, "records": records,
              "attempted": attempted, "failed": failed, "failures": failures,
              "max_rel_deviation": worst_dev if reference is not None else None,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.record:
        result["first_outputs"] = first_outputs
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    mixrate, manifest, api, phases = setup(Path.cwd(), Path(args.manifest), args.spawned_at)
    result = {"phases": phases}
    if not args.setup_only:
        import numpy
        import scipy
        result.update(run_passes(args, mixrate, manifest, api))
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "mixrate": mixrate.__version__}
        result["blas_threads"] = blas_threads()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
