"""Traced layers (the package's public functions) and measured work counters.

Every counter is measured on the calls the program makes while traced: the
sizes of the complex arrays ``numpy.exp`` returns, of the arrays passed to
``numpy.fft``, of the delay matrices returned, the number of matrices
decomposed, and the size of the files written. None is a formula of the
workload's parameters, so a change that skips or reuses work moves them.
For a fixed seed each repeats exactly from run to run.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

# (module, function): the layer name is "<module short name>.<function>"
LAYERS = [
    ("nfisac.config", "load_config"),
    ("nfisac.arrays", "spherical_delay_matrix"),
    ("nfisac.arrays", "spherical_delays"),
    ("nfisac.codebook", "gains_at_freq"),
    ("nfisac.codebook", "polar_codeword"),
    ("nfisac.codebook", "angular_spread"),
    ("nfisac.squint", "focal_points"),
    ("nfisac.music", "collect_snapshots"),
    ("nfisac.music", "sample_covariance"),
    ("nfisac.music", "music_spectrum"),
    ("nfisac.music", "music_localize"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("nfisac.delay_phase", "fit_trajectory"),
    ("nfisac.delay_phase", "apply_delay_phase"),
    ("nfisac.wavenumber", "upa_snapshot"),
    ("nfisac.wavenumber", "wavenumber_transform"),
    ("nfisac.wavenumber", "calibrate_radius_range"),
    ("nfisac.wavenumber", "estimate_position"),
    ("nfisac.allocation", "water_fill"),
    ("nfisac.allocation", "partition_and_allocate"),
    ("nfisac.echoes", "simulate_echoes"),
    ("nfisac.echoes", "sense_from_echoes"),
    ("nfisac.echoes", "parabolic_refine"),
    ("nfisac.tracking", "kalman_predict_update"),
    ("nfisac.tracking", "predict_arc"),
    ("nfisac.experiments", "run_experiment"),
    ("nfisac.csvio", "write_csv"),
]

SETUP_LAYERS = ("config.load_config",)

# An exp is counted against the module of the innermost open span, so a
# helper's exps count for the layer that called it; every package module
# with a traced layer has a counter.
EXP_MODULES = tuple(dict.fromkeys(m.split(".", 1)[1] for m, _ in LAYERS if m.startswith("nfisac.")))

COUNTERS = [f"{m}.exp_entries" for m in EXP_MODULES] + [
    "unattributed.exp_entries",
    "work.complex_exp_bytes",
    "fft.calls",
    "fft.entries",
    "arrays.delay_entries",
    "linalg.eigendecompositions",
    "csvio.bytes_written",
]


def layer_name(module: str, func: str) -> str:
    short = module.split(".", 1)[1] if module.startswith("nfisac.") else module
    return f"{short}.{func}"


def _exp(counts, layer, args, kwargs, result):
    if not np.iscomplexobj(result):
        return
    module = layer.split(".", 1)[0] if layer else "unattributed"
    counts[f"{module}.exp_entries"] += np.size(result)
    counts["work.complex_exp_bytes"] += np.asarray(result).nbytes


def _fft(counts, layer, args, kwargs, result):
    counts["fft.calls"] += 1
    counts["fft.entries"] += np.size(args[0])


def _delays(counts, layer, args, kwargs, result):
    counts["arrays.delay_entries"] += result.size


def _eig(counts, layer, args, kwargs, result):
    batch = 1
    for dim in np.shape(args[0])[:-2]:
        batch *= dim
    counts["linalg.eigendecompositions"] += batch


def _write_csv(counts, layer, args, kwargs, result):
    counts["csvio.bytes_written"] += os.path.getsize(args[0])


_SPAN_COUNTERS = {
    "arrays.spherical_delay_matrix": _delays,
    "arrays.spherical_delays": _delays,
    "numpy.linalg.eigh": _eig,
    "numpy.linalg.eigvalsh": _eig,
    "csvio.write_csv": _write_csv,
}

# numpy entry points counted inside the spans, with no span of their own
COUNTED = [
    ("numpy", "exp", _exp),
    ("numpy.fft", "fft", _fft),
    ("numpy.fft", "fft2", _fft),
]


def tracer_args():
    """The Tracer's span targets and counted calls, as module objects."""
    targets = []
    for module, func in LAYERS:
        name = layer_name(module, func)
        targets.append((name, importlib.import_module(module), func, _SPAN_COUNTERS.get(name)))
    counted = [(f"{m}.{f}", importlib.import_module(m), f, fn) for m, f, fn in COUNTED]
    return targets, counted


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, func in LAYERS:
        base = layer_name(module, func)
        names += [(f"{base}.calls", "count"), (f"{base}.total_s", "s"), (f"{base}.self_s", "s")]
    names += [(c, "bytes" if "bytes" in c else "count") for c in COUNTERS]
    names += [
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans_per_rep", "count"),
        ("ref.run_s_nproc_blas", "s"),
    ]
    return names
