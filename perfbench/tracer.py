"""Layer tracer: wraps the public functions of each mixrate module in spans
and counts work at the layer boundaries, from outside the package.

A span records its duration and how much of it its child spans covered;
self time is the difference. Nothing in ``src/`` is edited: the wrappers
replace module attributes while installed, and every other binding of the
same function object is replaced too, because several call sites bind by
name (``empirical._STATISTICS``, ``from .rates import lambda_phi_beta`` in
``empirical``, ``from .empirical import generate`` in ``ot``,
``from .classes import uniform01_cdf`` in ``cli``). Wrapping only the
defining module would let those calls run untraced and read zero.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS_FILE = Path(__file__).with_name("layers.json")

# Oracle constructors whose returned CdfOracle gets counting callables.
_ORACLE_FACTORIES = ("uniform01_cdf", "gaussian_cdf", "discrete_cdf",
                     "point_mass_cdf")


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text())


def per_layer_names(layers: dict) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for fn in layers["functions"]:
        names += [f"{fn['name']}.calls", f"{fn['name']}.self_s"]
    names += [c["name"] for c in layers["counters"]]
    for layer in layers["layers"]:
        names += [f"{layer}.self_s", f"{layer}.errors"]
    names += [p["name"] for p in layers["phases"]]
    names += [t["name"] for t in layers["trace"]]
    return names


def _public_callables(module):
    """(key, owner, attribute, function) for the module's public functions
    and the public plain methods of its public classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", obj, attr, member


class Tracer:
    """Spans and counters for one process. ``install`` patches the package,
    ``uninstall`` restores every patched binding; ``take`` returns and
    clears what was recorded since the last ``take``."""

    def __init__(self, mixrate, layers: dict):
        self.mixrate = mixrate
        self.layers = layers["layers"]
        self._patches: list[tuple] = []
        self._stack: list[list[float]] = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()
        self._seen_errors = defaultdict(list)

    def take(self) -> dict:
        rec = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "counts": dict(self.counts), "errors": dict(self.errors)}
        # cleared in place: the wrappers hold references to these
        for store in (self.calls, self.self_s, self.counts, self.errors,
                      self._seen_errors):
            store.clear()
        return rec

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, key: str, fn, after=None):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    tracer.counts[f"{key}.nonzero_exits"] += 1
                raise
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - frame[0]
            if after is not None:
                result = after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    def _error(self, layer: str, exc: BaseException):
        # an exception crossing several spans of one layer counts once
        seen = self._seen_errors[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)
            self.errors[layer] += 1

    def _counting(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _hooks(self):
        """Counters taken from a wrapped function's arguments or result:
        hooks by span key, and the hook for every mixing function."""
        m = self.mixrate
        counts = self.counts

        def samples(args, result):
            if isinstance(result, m.mixing.SequenceSample):
                counts["mixing.samples_generated"] += len(result)
            return result

        def oracle(args, result):
            return dataclasses.replace(
                result,
                quantile=self._counting("classes.oracle_scalar_calls", result.quantile),
                cdf_antideriv=(None if result.cdf_antideriv is None else
                               self._counting("classes.oracle_scalar_calls",
                                              result.cdf_antideriv)))

        def sinkhorn_bytes(args, result):
            counts["ot.sinkhorn_iterate.computed_bytes"] += 32 * result.cost.size
            return result

        def written(args, result):
            counts["cli.bytes_written"] += len(args[1].encode())
            return result

        def exit_code(args, result):
            if result != 0:
                counts["cli.main.nonzero_exits"] += 1
            return result

        hooks = {f"classes.{name}": oracle for name in _ORACLE_FACTORIES}
        hooks.update({"ot.sinkhorn_iterate": sinkhorn_bytes,
                      "cli.atomic_write": written, "cli.main": exit_code})
        return hooks, samples

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks, samples = self._hooks()
        replacement = {}  # id(original) -> wrapper
        originals = {}
        for layer in self.layers:
            module = getattr(self.mixrate, layer)
            for key, owner, attr, fn in _public_callables(module):
                after = hooks.get(key, samples if layer == "mixing" else None)
                wrapper = self._span(layer, key, fn, after)
                replacement[id(fn)] = wrapper
                originals[id(fn)] = fn
                self._patch(owner, attr, fn, wrapper)
        sq = self.mixrate.ot._sq_dists
        counts = self.counts

        def cost_cells(*args, **kwargs):
            d2 = sq(*args, **kwargs)
            counts["ot.cost_matrix_cells"] += d2.size
            return d2
        replacement[id(sq)] = cost_cells
        originals[id(sq)] = sq
        self._patch(self.mixrate.ot, "_sq_dists", sq, cost_cells)
        # rebind every other reference to a wrapped function in the package
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mixrate" or modname.startswith("mixrate.")):
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if id(value) in replacement and value is originals[id(value)]:
                    self._patch(module, name, value, replacement[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if id(v) in replacement and v is originals[id(v)]:
                            self._patch(value, k, v, replacement[id(v)])

    def _patch(self, owner, attr, original, wrapper):
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def per_layer_metrics(layers: dict, records: list[dict], traced_walls: list[float],
                      untraced_median: float, phases: dict) -> dict:
    """Per-layer metrics as the mean over traced passes."""
    n = len(records)
    calls, self_s, counts, errors = Counter(), defaultdict(float), Counter(), Counter()
    for rec in records:
        calls.update(rec["calls"])
        for k, v in rec["self_s"].items():
            self_s[k] += v
        counts.update(rec["counts"])
        errors.update(rec["errors"])
    out = {}
    for fn in layers["functions"]:
        out[f"{fn['name']}.calls"] = (calls[fn["name"]] / n, "count")
        out[f"{fn['name']}.self_s"] = (self_s[fn["name"]] / n, "s")
    for c in layers["counters"]:
        out[c["name"]] = (counts[c["name"]] / n, c["unit"])
    layer_total = 0.0
    for layer in layers["layers"]:
        s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer) / n
        layer_total += s
        out[f"{layer}.self_s"] = (s, "s")
        out[f"{layer}.errors"] = (errors[layer] / n, "count")
    for p in layers["phases"]:
        out[p["name"]] = (phases[p["name"]], "s")
    wall = sum(traced_walls) / n
    out["trace.wall_s"] = (wall, "s")
    out["trace.unattributed_s"] = (wall - layer_total, "s")
    out["trace.overhead_s"] = (wall - untraced_median, "s")
    return out
