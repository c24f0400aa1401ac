"""Machine-speed calibration: a fixed kernel sampled while measuring.

The machine the benchmark was built on (2 shared vCPUs) changes speed by up
to 1.5x within seconds, and for minutes at a time, with other tenants' load,
so raw wall times of the same work spread by 15-35% from run to run. While
a run measures, a timer signal interrupts it every ``INTERVAL_S`` and times
a calibration kernel once. The kernel does the kind of work the workload
spends its time on, because the machine's slow states do not slow all work
alike:

- ``grid`` (the three grid workloads): four complex exps over 8192 points
  that stay in cache (compute-bound), and a complex matrix-vector product
  over a 16 MB matrix (bound by memory beyond L2). Over five minutes of
  ``squint-focal`` the exps alone cut the spread of repetition times from
  0.16 to 0.11 (IQR/median), the pair to 0.04; on ``music-trials`` the pair
  cut it from 0.10 to 0.04 between 25-s windows.
- ``loop`` (``isac-loop``): a pure-Python loop and 40 small NumPy calls on
  128-element arrays, interpreter and per-call overhead like the workload.
  Against ``isac-loop`` the grid kernel's time correlated 0.2 and 0.8 in two
  sets of ten runs, while the grid workloads correlated 0.92-0.97.

Kernels write into preallocated arrays or allocate only small ones, so
their time does not depend on the state the workload left the allocator in.
``clock()`` leaves the time spent in the kernel out, so repetition and step
times exclude it. A repetition's calibration time is the mean of the
samples taken during it (widened by ``REP_MARGIN_S`` on each side;
``STEP_MARGIN_S`` for a step), and the gated times are given in units of
it. Means, because the speed switches between states and a mean integrates
the workload's time and the kernel's time over the same interval. The
kernels use no package code, so a change to the package does not move them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
REP_MARGIN_S = 1.0  # a repetition's calibration window reaches this far out
STEP_MARGIN_S = 0.5  # and a step's

_paused = 0.0  # seconds spent in the kernel so far
_samples = []  # (clock() when taken, kernel seconds)
_kernel = None


def _grid_kernel():
    z = 1j * np.linspace(0.0, 6.0, 1 << 13)
    z_out = np.empty_like(z)
    m = (np.arange(2048 * 512) % 11).reshape(2048, 512) * (1.0 + 1.0j)
    v = np.ones(512, dtype=complex)
    m_out = np.empty(2048, dtype=complex)

    def run():
        for _ in range(4):
            np.exp(z, out=z_out)
        np.matmul(m, v, out=m_out)

    return run


def _loop_kernel():
    x = np.linspace(0.0, 1.0, 128)
    w = np.exp(1j * x)

    def run():
        acc = 0.0
        for i in range(1000):
            acc += abs(complex(i, 1.0))
        for _ in range(40):
            acc += np.abs(np.exp(-2j * np.pi * x) @ w) ** 2
        return acc

    return run


KERNELS = {"grid": _grid_kernel, "loop": _loop_kernel}


def clock() -> float:
    """perf_counter without the time spent sampling the kernel."""
    return time.perf_counter() - _paused


def _sample(signum, frame):
    global _paused
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    _samples.append((t0 - _paused, t1 - t0))
    _paused += time.perf_counter() - t0


def start(kind: str):
    """Sample the ``KERNELS[kind]`` kernel every INTERVAL_S until stop()."""
    global _kernel
    _kernel = KERNELS[kind]()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def means_between(intervals, margin: float) -> np.ndarray:
    """Mean kernel time over the samples taken in [t0 - margin, t1 + margin]
    for each (t0, t1) in intervals."""
    if not _samples:
        raise RuntimeError("no calibration samples")
    times, secs = np.array(_samples).T
    csum = np.concatenate([[0.0], np.cumsum(secs)])
    spans = np.asarray(intervals, dtype=float).reshape(-1, 2)
    lo = np.searchsorted(times, spans[:, 0] - margin, side="left")
    hi = np.searchsorted(times, spans[:, 1] + margin, side="right")
    if np.any(hi <= lo):
        raise RuntimeError("no calibration samples near an interval")
    return (csum[hi] - csum[lo]) / (hi - lo)
