"""Compare a repetition's outputs with stored reference outputs.

Integers, booleans and strings must match exactly, and so must the float
fields named in EXACT_FLOAT_KEYS: focal points, MUSIC and wavenumber
estimates. Other floats may move in their low bits (a performance change may
reorder arithmetic) and must agree within FLOAT_REL_TOL relative, or
FLOAT_ABS_TOL absolute for values near zero.
"""

from __future__ import annotations

import math

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12

EXACT_FLOAT_KEYS = frozenset(
    {
        "angle_rad",  # squint focal angle (a grid value)
        "range_m",  # squint focal range (a grid value)
        "music_est",
        "music_true",
        "wavenumber_est",
        "wavenumber_true",
    }
)


def _leaves(value, path):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{path}.{k}" if path else k)
    elif isinstance(value, (list, tuple)):
        yield ("len", path, len(value))
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield ("leaf", path, value)


def compare_outputs(ref: dict, out: dict) -> list:
    """Messages for each mismatch between ref and out; empty when they agree."""
    fails = []
    if set(ref) != set(out):
        return [f"keys differ: {sorted(set(ref) ^ set(out))}"]
    for key in sorted(ref):
        exact = key in EXACT_FLOAT_KEYS
        want = list(_leaves(ref[key], key))
        got = list(_leaves(out[key], key))
        if [(k, p) for k, p, _ in want] != [(k, p) for k, p, _ in got]:
            fails.append(f"{key}: shape differs")
            continue
        for (kind, path, a), (_, _, b) in zip(want, got):
            if isinstance(a, float) and isinstance(b, float) and not exact:
                ok = math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)
            else:
                ok = type(a) is type(b) and a == b
            if not ok:
                fails.append(f"{path}: {b!r} != reference {a!r}")
                break
    return fails
