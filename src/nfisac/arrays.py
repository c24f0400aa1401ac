"""Uniform linear array geometry and the spherical wavefront steering model.

The spherical model keeps the exact per-element propagation distance, so it is
valid arbitrarily close to the array; the planar far-field approximation,
which linearizes the distance in the element offset, is only a test oracle.
The model is pure phase: element amplitudes are identically one.

Single steering vectors use np.exp (near_field_steering). Grids of points
evaluate the manifold exp(-2j*pi*f*tau) across a band chunk by chunk through
steering_chunks, whose unit phasors come from a table lookup and a short
series (phasors) rather than a complex exp per entry; their consumers only choose products
of those rows with their weights, each taken through gains, except the
complex64 screen of squint.screened_argmax, whose values decide nothing.

All quantities are SI (Hz, m, s, rad). Angles are measured from the array
axis, so broadside is pi/2. is_psd, the covariance check that MUSIC and the
tracker share, sits here beside the other numerics both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT as C


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Uniform linear array on a line, centered on the origin.

    Build one with ArrayGeometry.ula(num_elements, spacing_m).
    element_offsets_s[n] = (n - (N-1)/2) * d / c is the signed propagation
    time from the array center to element n along the array axis. It is
    derived, never passed, so the offsets are strictly increasing and
    exactly antisymmetric: every rounding in that expression is symmetric
    in sign, so element N-1-n's offset is exactly minus element n's.
    """

    num_elements: int
    spacing_m: float
    element_offsets_s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, d = self.num_elements, self.spacing_m
        if n < 1:
            raise ValueError("num_elements must be >= 1")
        if d <= 0:
            raise ValueError("spacing_m must be > 0")
        t = (np.arange(n, dtype=float) - (n - 1) / 2.0) * d / C
        object.__setattr__(self, "element_offsets_s", t)

    @classmethod
    def ula(cls, num_elements: int, spacing_m: float) -> "ArrayGeometry":
        """Centered ULA of num_elements elements spacing_m apart."""
        return cls(num_elements, spacing_m)

    def aperture_m(self) -> float:
        return (self.num_elements - 1) * self.spacing_m


@dataclass(frozen=True)
class PolarPoint:
    """A location (range, angle) relative to the array center."""

    range_m: float
    angle_rad: float

    def __post_init__(self) -> None:
        if not self.range_m > 0:
            raise ValueError("range_m must be > 0")
        if not 0.0 < self.angle_rad < np.pi:
            raise ValueError("angle_rad must lie in (0, pi)")

    def delay_s(self) -> float:
        return self.range_m / C


@dataclass(frozen=True)
class CarrierGrid:
    """Uniformly spaced OFDM subcarriers around a center frequency.

    num_subcarriers is M+1 with M even, so subcarrier M/2 sits exactly at the
    center frequency.
    """

    center_hz: float
    num_subcarriers: int
    spacing_hz: float

    def __post_init__(self) -> None:
        if self.center_hz <= 0:
            raise ValueError("center_hz must be > 0")
        if self.num_subcarriers < 1 or self.num_subcarriers % 2 == 0:
            raise ValueError("num_subcarriers must be odd (M even)")
        if self.spacing_hz < 0:
            raise ValueError("spacing_hz must be >= 0")
        if self.freq(0) <= 0:
            raise ValueError("lowest subcarrier frequency must be > 0")

    @property
    def half_m(self) -> int:
        """M/2, the center subcarrier index."""
        return (self.num_subcarriers - 1) // 2

    def freq(self, m: int) -> float:
        if not 0 <= m < self.num_subcarriers:
            raise IndexError(f"subcarrier index {m} out of range 0..{self.num_subcarriers - 1}")
        return self.center_hz + (m - self.half_m) * self.spacing_hz

    def freqs(self, ms=None) -> np.ndarray:
        m = np.arange(self.num_subcarriers, dtype=float) if ms is None else np.asarray(ms, dtype=int)
        if ms is not None and np.any((m < 0) | (m >= self.num_subcarriers)):
            raise IndexError(f"subcarrier indices {m.tolist()} out of range 0..{self.num_subcarriers - 1}")
        return self.center_hz + (m - self.half_m) * self.spacing_hz

    def bandwidth_hz(self) -> float:
        return (self.num_subcarriers - 1) * self.spacing_hz


def spherical_delays(geom: ArrayGeometry, p: PolarPoint) -> np.ndarray:
    """Exact per-element propagation delay (seconds) from point p."""
    tau = p.delay_s()
    t = geom.element_offsets_s
    return np.sqrt(tau * tau + t * t - 2.0 * tau * t * np.cos(p.angle_rad))


def spherical_delay_matrix(
    geom: ArrayGeometry, taus: np.ndarray, cosines: np.ndarray, out=None, work=None
) -> np.ndarray:
    """Per-element delays for many points at once, shape (len(taus), N).

    taus and cosines are matched 1-D arrays of point delays r/c and cos(angle).
    out, which receives the delays, and work, the one full-size intermediate,
    are float arrays of that shape, allocated here when not given.
    """
    t = geom.element_offsets_s[None, :]
    taus = np.asarray(taus, dtype=float)[:, None]
    cosines = np.asarray(cosines, dtype=float)[:, None]
    shape = (taus.shape[0], t.shape[1])
    out = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    # sqrt(tau^2 + t^2 - 2 tau t cos), rounded in that order
    np.add(taus * taus, t * t, out=out)
    np.multiply(2.0 * taus, t, out=work)
    np.multiply(work, cosines, out=work)
    np.subtract(out, work, out=out)
    return np.sqrt(out, out=out)


# entry k is exp(-2j*pi*k/_TURN_STEPS), the unit phasor k whole steps into a
# turn; k past the half turn is taken as k - _TURN_STEPS, so every angle lies
# in [-pi, pi) and rounds by at most half an ulp of pi. It is built in place:
# temporaries made at import would stay in the process's peak memory
_TURN_STEPS = 4096
_PHASOR_TABLE = np.arange(_TURN_STEPS, dtype=complex)
_PHASOR_TABLE[_TURN_STEPS // 2 :] -= _TURN_STEPS
_PHASOR_TABLE *= -2j * np.pi / _TURN_STEPS
np.exp(_PHASOR_TABLE, out=_PHASOR_TABLE)
# adding 1.5 * 2**52 rounds a |t| < 2**51 to the nearest integer j (ties to
# even) and leaves j's two's-complement low bits in the sum's low bits
_ROUND_MAGIC = 1.5 * 2.0**52
# exp(-2j*pi*r/_TURN_STEPS) for |r| <= 1/2 is 1 + u, u = q*(_C2 + _C4*q) +
# i*r*(_S1 + _S3*q) with q = r*r; the terms left out are below 3e-18
_K = 2.0 * np.pi / _TURN_STEPS
_C2, _C4, _S1, _S3 = -_K * _K / 2.0, _K**4 / 24.0, -_K, _K**3 / 6.0


def phasors(freq_hz, delays: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """exp(-2j*pi*freq_hz*delays) into out, with no complex exp per entry.

    freq_hz is one frequency or, for R x N delays, an R x 1 column of one
    frequency per row; each row then has the bits that a call with its own
    frequency alone gives it.
    t = (freq_hz * _TURN_STEPS) * delays (scaling by a power of two is exact)
    is split into the nearest integer j and the remainder r = t - j, which is
    exact, and the result is _PHASOR_TABLE[j mod _TURN_STEPS] times a short
    series for exp(-2j*pi*r/_TURN_STEPS). The one rounding that matters is
    that of freq_hz * delays, which np.exp's argument has too: the two agree
    to within a few ulps of that product in phase, and every entry's modulus
    is within 4e-16 of one. Valid for |freq_hz * delays| < 2**39 turns,
    negative delays included.

    out is a C-contiguous complex array shaped like delays and scratch a
    float array of at least 4 * delays.size entries. out doubles as work
    space, so it must not overlap delays.
    """
    n = delays.size
    flat = out.reshape(-1)
    t, q = flat.view(float)[:n], flat.view(float)[n:]
    e = scratch[: 2 * n].view(complex)
    idx = scratch[2 * n : 3 * n].view(np.int64)
    tmp = scratch[3 * n : 4 * n]
    np.multiply(delays, freq_hz * _TURN_STEPS, out=t.reshape(delays.shape))
    np.add(t, _ROUND_MAGIC, out=q)
    np.bitwise_and(q.view(np.int64), _TURN_STEPS - 1, out=idx)
    np.subtract(q, _ROUND_MAGIC, out=q)
    r = np.subtract(t, q, out=t)
    np.multiply(r, r, out=q)
    np.multiply(q, _C4, out=tmp)
    np.add(tmp, _C2, out=tmp)
    np.multiply(tmp, q, out=e.real)
    np.multiply(q, _S3, out=tmp)
    np.add(tmp, _S1, out=tmp)
    np.multiply(tmp, r, out=e.imag)
    # the indices are already reduced mod _TURN_STEPS; mode "wrap" then only
    # compares them, which is faster than the default mode's checked path
    np.take(_PHASOR_TABLE, idx, out=flat, mode="wrap")
    # table * (1 + u) as table + table * u: the last step rounds once, so
    # the modulus stays within 4e-16 of one
    np.multiply(e, flat, out=e)
    np.add(flat, e, out=flat)
    return out


# chunk rows so a chunk's delays, steering and subcarrier step (~1.3 MB at
# 32 K entries; the 1 MB phasor scratch is touched only while they are
# built) stay in a core's L2 cache while every subcarrier revisits them
_CHUNK_ENTRIES = 32_768


def steering_chunks(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    taus: np.ndarray,
    cosines: np.ndarray,
    offsets_s=None,
    dtype=complex,
    spans=None,
):
    """Spherical-wavefront steering rows at grid's subcarriers over matched point arrays.

    Yields (lo, hi, rows) for consecutive row ranges lo:hi of the 1-D
    taus/cosines arrays, _CHUNK_ENTRIES // N rows each but the last, so
    that the passes over a chunk's subcarriers run in cache rather than
    streaming from memory. delays are the points' spherical_delay_matrix
    less the per-element offsets_s, if given (a front end's delays). rows
    yields (m, i, a) for subcarriers m in ascending order: a holds the
    steering rows i:i + len(a) of the chunk at subcarrier m. Without spans
    that is every row at every subcarrier 0..M: first
    phasors(grid.freq(0), delays), then that matrix times
    step = phasors(grid.spacing_hz, delays) in place, once per subcarrier.
    A one-frequency caller passes CarrierGrid(f, 1, 0.0).

    spans = (first, last), two integer arrays with 0 <= first <= last <= M
    and first nondecreasing from row to row, gives each row the subcarriers
    first..last it is needed at. Each row then starts as
    phasors(grid.freq(first), delays), in one call for the chunk with a
    column of frequencies, and at each subcarrier m where a row is needed a
    is the window from the first row still needed at m to the last row
    started by m. Only a window's rows are stepped to the next subcarrier,
    and only rows that some window steps get a step phasor. A window may
    hold rows past their last subcarrier, whose values stay exact. A chunk
    whose every span is the whole band runs the loop above, and with
    first = 0 every row keeps the bits it has without spans.

    dtype is the rows' complex type. With np.complex64 the delays and both
    phasors are still computed in float64, through a complex128 staging
    buffer, and rounded once into complex64 buffers, where the recurrence
    then runs: rows for a screen, each entry within (s + 1) u + sqrt(5) s u
    of the float64 row s steps after its start, u = 2**-24
    (squint._screen_error).

    Every chunk is computed into buffers allocated once per call, so a
    yielded matrix is valid only until rows yields the next one, and must
    not be modified.
    """
    n = geom.num_elements
    num_m = grid.num_subcarriers
    chunk = max(1, _CHUNK_ENTRIES // n)
    cap = min(taus.size, chunk)  # rows of the largest chunk
    delay_buf = np.empty((cap, n))
    steering_buf = np.empty((cap, n), dtype=dtype)
    step_buf = np.empty((cap, n), dtype=dtype) if num_m > 1 and grid.spacing_hz else None
    # phasors write complex128; narrower rows are staged through this buffer
    stage = None if steering_buf.dtype == complex else np.empty((cap, n), dtype=complex)
    scratch = np.empty(4 * cap * n)  # phasors' work space, and the delays'

    def phasors_into(freq_hz, delays, out):
        if stage is None:
            return phasors(freq_hz, delays, out, scratch)
        np.copyto(out, phasors(freq_hz, delays, stage[: out.shape[0]], scratch))
        return out

    def advance(a, step):
        # numpy rounds an in-place product of one complex entry otherwise
        # than its array loops do, so a lone entry is stepped out of place
        if a.size > 1:
            a *= step
        else:
            a[...] = a * step

    def rows(delays, a):
        step = None if step_buf is None else phasors_into(grid.spacing_hz, delays, step_buf[: a.shape[0]])
        yield 0, 0, phasors_into(grid.freq(0), delays, a)
        for m in range(1, num_m):
            if step is not None:
                advance(a, step)
            yield m, 0, a

    def windows(delays, a, first, last):
        # by subcarrier m, the rows started by m and the first row still
        # needed at m: both grow with m, so a row inside the window at m
        # has been inside it at every subcarrier since its first
        ms = np.arange(num_m)
        needed = np.maximum.accumulate(last)
        stop = np.searchsorted(first, ms, side="right")
        start = np.minimum(np.searchsorted(needed, ms), stop)
        began = np.concatenate([[0], stop[:-1]])  # rows start[m]:began[m] step to m
        stepped = np.flatnonzero(start < began)
        phasors_into(grid.freqs()[first][:, None], delays, a)
        step = None
        if step_buf is not None and stepped.size:
            s0, s1 = start[stepped[0]], began[stepped[-1]]
            step = step_buf[: a.shape[0]]
            phasors_into(grid.spacing_hz, delays[s0:s1], step[s0:s1])
        band = range(first[0], needed[-1] + 1)
        for m, i, j, k in zip(band, start[band].tolist(), began[band].tolist(), stop[band].tolist()):
            if step is not None and i < j:
                advance(a[i:j], step[i:j])
            if i < k:
                yield m, i, a[i:k]

    for lo in range(0, taus.size, chunk):
        hi = min(lo + chunk, taus.size)
        delays = delay_buf[: hi - lo]
        work = scratch[: delays.size].reshape(delays.shape)
        spherical_delay_matrix(geom, taus[lo:hi], cosines[lo:hi], out=delays, work=work)
        if offsets_s is not None:
            delays -= offsets_s
        a = steering_buf[: hi - lo]
        if spans is None or (spans[0][hi - 1] == 0 and spans[1][lo:hi].min() == num_m - 1):
            yield lo, hi, rows(delays, a)
        else:
            yield lo, hi, windows(delays, a, spans[0][lo:hi], spans[1][lo:hi])


def gains(a: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """|a @ w| for steering rows a (R x N) and weights w (N, or N x K), into out if given.

    Every product of steering rows goes through here, so that a row's gains
    have the same bits however the rows are grouped into products. numpy
    hands a product of one row to BLAS's dot (or, against several weight
    columns, to its matrix-vector kernel), whose last bits differ from those
    of the kernels that multiply two rows or more; those give each row the
    same bits whatever the row count. So a lone row is multiplied as two
    equal rows, and its gains are the first row's.

    squint.screened_argmax's complex64 screen bypasses this on purpose: it
    takes one product of a chunk's rows with all its weights, since a
    screen value only has to lie within a proved distance of the gain
    computed here, whatever its bits; the gains that decide are taken here.
    """
    if a.shape[0] == 1:
        return np.abs((np.concatenate([a, a]) @ w)[:1], out=out)
    return np.abs(a @ w, out=out)


def _check_source_range(geom: ArrayGeometry, p: PolarPoint) -> None:
    # source inside the aperture breaks the point-source phase model
    if p.range_m <= geom.aperture_m() / 2:
        raise ValueError("source range must exceed half the aperture")


def near_field_steering(
    geom: ArrayGeometry, p: PolarPoint, grid: CarrierGrid, m: int
) -> np.ndarray:
    """Spherical-wavefront steering vector at subcarrier m; entries unit modulus."""
    _check_source_range(geom, p)
    f = grid.freq(m)
    return np.exp(-2j * np.pi * f * spherical_delays(geom, p))


def rayleigh_distance(geom: ArrayGeometry, grid: CarrierGrid) -> float:
    """Near/far boundary 2*D^2/lambda for aperture D at the center frequency."""
    wavelength = C / grid.center_hz
    d_ap = geom.aperture_m()
    return 2.0 * d_ap * d_ap / wavelength


def is_psd(matrix: np.ndarray, scale_floor: float = 0.0) -> bool:
    """Whether a Hermitian matrix is positive semidefinite within rounding.

    One Cholesky factorization of R + delta I, delta = 1e-9 * scale, where
    scale = max(largest diagonal entry, scale_floor). The largest diagonal
    entry of a PSD matrix lies between lambda_max / N and lambda_max, so this
    accepts a smallest eigenvalue down to about -1e-9 * lambda_max / N and
    rejects one below -1e-9 * max(lambda_max, scale_floor). Without a
    positive scale, only the zero matrix is PSD.
    """
    r = np.asarray(matrix)
    n = r.shape[0]
    scale = max(float(r.diagonal().real.max()), scale_floor)
    if scale <= 0.0:
        return not np.any(r)
    shifted = r.copy()
    shifted.flat[:: n + 1] += 1e-9 * scale
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True
