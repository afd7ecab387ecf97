"""Comparison of a pass's outputs with the reference recorded at the
default seed.

Floats agree when ``|x - ref| <= RTOL * |ref|``. RTOL admits rewrites that
are exact up to rounding, such as a closed-form Orlicz norm (1e-10
relative) or an in-place log-sum-exp (2e-15), and still catches any change
of algorithm, seed stream or sample.
Integers, strings, booleans (regime labels, verdicts, counts) compare
exactly. Wall-clock fields are never collected, so never compared.
"""

from __future__ import annotations

import math

RTOL = 1e-7


def compare(out, ref, path: str = "") -> tuple[list[str], float]:
    """Mismatches between ``out`` and ``ref``, and the largest relative
    deviation among the floats compared."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ"], math.inf
        problems, worst = [], 0.0
        for key in ref:
            p, w = compare(out[key], ref[key], f"{path}.{key}" if path else key)
            problems += p
            worst = max(worst, w)
        return problems, worst
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length differs"], math.inf
        problems, worst = [], 0.0
        for i, (o, r) in enumerate(zip(out, ref)):
            p, w = compare(o, r, f"{path}[{i}]")
            problems += p
            worst = max(worst, w)
        return problems, worst
    if isinstance(ref, float) and isinstance(out, float):
        if out == ref:
            return [], 0.0
        if math.isnan(ref) or math.isnan(out):
            same = math.isnan(ref) and math.isnan(out)
            return ([] if same else [f"{path}: {out!r} != {ref!r}"]), 0.0
        rel = abs(out - ref) / abs(ref) if ref != 0.0 else math.inf
        if math.isnan(rel):  # an infinity on one side only
            rel = math.inf
        if rel > RTOL:
            return [f"{path}: {out!r} vs reference {ref!r} (rel {rel:.2e})"], rel
        return [], rel
    if type(out) is not type(ref) or out != ref:
        return [f"{path}: {out!r} != reference {ref!r}"], 0.0
    return [], 0.0
