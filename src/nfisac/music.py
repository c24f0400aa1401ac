"""2-D (angle, range) MUSIC on a linear array with single-frequency snapshots.

The spherical-wavefront manifold depends on range as well as angle below the
near/far boundary, so scanning the MUSIC spectrum over a polar grid estimates
both jointly. The number of sources is an input; no model-order selection.

The shipped path has one source per trial: snapshot_trials draws the
snapshots, snapshot_subspace takes their signal basis e without forming the
covariance, and single_source_peaks finds the peak of its spectrum. That
spectrum grows with the beam gain |e^H a|, so its peak is a focal point of
w = e, found by focal_points' certified grid search
(squint.screened_argmax) without building the spectrum, bit for bit
music_peaks' first peak of music_spectrum (see single_source_peaks).

Beside it stands the textbook oracle: music_localize takes a covariance's
top-k eigenvectors, music_spectrum evaluates their spectrum over the whole
grid, and music_peaks ranks its local maxima (a bound on the global maximum
cannot certify the second-largest local maximum).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, is_psd, near_field_steering
from .codebook import PolarGrid, gains_at_freq
from .constants import SPEED_OF_LIGHT as C
from .errors import BoundaryPeakWarning
from .squint import best_per_column, screened_argmax

# one-source bases whose peaks one screened search finds together: each
# steering pass costs about as much Python overhead as a dozen bases'
# products, so passes are shared widely; on a 181 x 60 grid each basis adds
# about 16 KB to the search's traced peak memory, 1.6 MB at one basis
_SEARCH_BLOCK = 64
# subspace iteration stops once ||R V - V (V^H R V)||_F <= _SUBSPACE_TOL * ||V^H R V||_F
_SUBSPACE_TOL = 1e-12
# iterations before a signal subspace falls back to a full eigendecomposition;
# at N = 256, k = 1 a fallback then costs about 1.5x the eigh alone
_SUBSPACE_ITERATIONS = 150


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """Hermitian PSD snapshot covariance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.matrix, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("covariance must be square")
        asym = float(np.abs(r - r.conj().T).max())
        if asym > 1e-10:
            raise ValueError(f"covariance asymmetry {asym:.2e} exceeds 1e-10")
        if not is_psd(r):
            raise ValueError("covariance is not positive semidefinite")
        object.__setattr__(self, "matrix", r)


def _covariance_basis(cov: SampleCovariance, k: int) -> np.ndarray:
    """The covariance's top-k eigenvectors, as np.linalg.eigh orders them: its signal basis."""
    n = cov.matrix.shape[0]
    if not 0 < k < n:
        raise ValueError("num_sources must lie in 1..N-1")
    return np.linalg.eigh(cov.matrix)[1][:, n - k:]


def snapshot_subspace(snapshots: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenspace basis of the sample covariance of row-snapshots X (T x N).

    Block subspace iteration V <- qr(R V) on R = X^T conj(X) / T, with R
    applied through X, R V = X^T conj(X conj(V)) / T, and never formed. It
    starts from the k columns of R whose sum_t |x_tj|^2 is largest (ties to
    the smaller index) and stops once the residual ||R V - V (V^H R V)||
    falls under _SUBSPACE_TOL times ||V^H R V||. A subspace that has not
    converged within _SUBSPACE_ITERATIONS (eigenvalues k and k+1 too close,
    as at low SNR) is music_localize's eigh basis of sample_covariance(X), so
    it has the covariance path's bits. A converged basis differs from eigh's,
    but the projector V V^H, all MUSIC reads, agrees to rounding.
    """
    x = np.asarray(snapshots, dtype=complex)
    t_count, n = x.shape
    if not 0 < k < n:
        raise ValueError("num_sources must lie in 1..N-1")
    power = (x.real ** 2 + x.imag ** 2).sum(axis=0)
    start = np.argsort(-power, kind="stable")[:k]
    v = np.linalg.qr(x.T @ x[:, start].conj() / t_count)[0]
    for _ in range(_SUBSPACE_ITERATIONS):
        w = x.T @ (x @ v.conj()).conj() / t_count
        h = v.conj().T @ w
        if np.linalg.norm(w - v @ h) <= _SUBSPACE_TOL * np.linalg.norm(h):
            return v
        v = np.linalg.qr(w)[0]
    return _covariance_basis(sample_covariance(x), k)


def _draw_trial(seed, symbols: np.ndarray, noise) -> None:
    """A trial's random draws, into buffers the caller owns: the RNG stage.

    symbols (S x 2 x T) receives each source's real then imaginary symbol
    parts, and noise (2 x T x N, or None without noise) the noise's real then
    imaginary parts, from one np.random.default_rng(seed) stream in that
    order. One fill per buffer draws the same numbers as one standard_normal
    call per part.
    """
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=symbols)
    if noise is not None:
        rng.standard_normal(out=noise)


def _assemble(steering: list, symbols: np.ndarray, noise, noise_scale: float, x: np.ndarray) -> None:
    """x = sum_s s_s a_s^T + noise_scale (noise[0] + 1j noise[1]), in place: the assembly stage.

    The symbols s_s = (re + 1j im) / sqrt(2), each outer product and the
    scaled noise have the bits of forming them as complex temporaries; the
    first source's product is written into x and the noise is scaled in
    place (overwriting it) and added to x.real and x.imag, so one source
    makes no T x N temporary.
    """
    if not steering:
        x[...] = 0.0
    for i, (a, (re, im)) in enumerate(zip(steering, symbols)):
        s = (re + 1j * im) / np.sqrt(2)
        if i == 0:
            np.multiply(s[:, None], a[None, :], out=x)
        else:
            x += s[:, None] * a[None, :]
    if noise is not None:
        noise *= noise_scale
        x.real += noise[0]
        x.imag += noise[1]


def snapshot_trials(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    sources,
    snapshot_count: int,
    noise_power: float,
    seeds,
):
    """Yield the snapshots collect_snapshots draws from each seed in seeds, in order.

    Every trial is assembled into one T x N buffer allocated once per call,
    so a yielded matrix is valid only until the next one is yielded, and
    must not be modified. The first trial is drawn on the caller's thread;
    while the caller works on a trial, the next seed's symbols and noise are
    drawn into buffers this call allocated by the one worker of a
    ThreadPoolExecutor the call owns (numpy's Generator releases the GIL
    while it fills). Each seed keeps its own stream and trials are assembled
    in order on the caller's thread, so no bit depends on the thread's
    timing. An error raised while a trial is drawn is raised here, and
    closing the generator early waits for the draw under way.
    """
    # imported here: concurrent.futures imports logging, a cost only a MUSIC run should pay
    from concurrent.futures import ThreadPoolExecutor

    sources = list(sources)
    if snapshot_count <= len(sources):
        raise ValueError("snapshot_count must exceed the number of sources")
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    t_count, n = snapshot_count, geom.num_elements
    steering = [near_field_steering(geom, p, grid, grid.half_m) for p in sources]
    symbols = np.empty((len(sources), 2, t_count))
    noise = np.empty((2, t_count, n)) if noise_power > 0 else None
    noise_scale = np.sqrt(noise_power / 2)
    x = np.empty((t_count, n), dtype=complex)
    seeds = iter(seeds)
    for first in itertools.islice(seeds, 1):  # none when seeds is empty
        _draw_trial(first, symbols, noise)
        with ThreadPoolExecutor(max_workers=1) as helper:
            for seed in seeds:
                _assemble(steering, symbols, noise, noise_scale, x)
                drawing = helper.submit(_draw_trial, seed, symbols, noise)
                yield x
                drawing.result()
        _assemble(steering, symbols, noise, noise_scale, x)
        yield x


def collect_snapshots(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    sources,
    snapshot_count: int,
    noise_power: float,
    seed,
) -> np.ndarray:
    """Rows are snapshots: x_t = sum_s s_{s,t} a_{M/2}(p_s) + n_t.

    Source symbols are unit-power circular complex; noise is circular complex
    with the given power per antenna. One np.random.default_rng(seed) stream
    draws each source's T real then T imaginary symbol parts, then the T x N
    real and the T x N imaginary noise parts (no noise draw at power 0).
    snapshot_trials with one seed: the draw and the assembly run on the
    caller's thread.
    """
    (x,) = snapshot_trials(geom, grid, sources, snapshot_count, noise_power, [seed])
    return x


def sample_covariance(snapshots: np.ndarray) -> SampleCovariance:
    """R = (1/T) sum_t x_t x_t^H for row-snapshots, symmetrized exactly."""
    x = np.asarray(snapshots, dtype=complex)
    r = x.T @ x.conj() / x.shape[0]
    r = (r + r.conj().T) / 2
    return SampleCovariance(r)


def music_spectrum(basis: np.ndarray, geom: ArrayGeometry, grid: CarrierGrid, pg: PolarGrid) -> np.ndarray:
    """1 / ||E_n^H a||^2 over the polar grid for one signal basis, as (angles x ranges).

    basis is an orthonormal N x k basis E_s of a signal subspace, k being the
    number of sources. The spectrum is evaluated at the center frequency
    by codebook.gains_at_freq, one steering pass over the grid, using
    ||E_n^H a||^2 = N - ||E_s^H a||^2 so only the small signal subspace is
    projected; the denominator is floored at the smallest normal float.
    Larger values lie closer to the manifold.
    """
    rr, aa = np.meshgrid(pg.ranges_m, pg.angles_rad, indexing="xy")
    proj = gains_at_freq(geom, grid.center_hz, (rr / C).ravel(), np.cos(aa).ravel(), basis)
    return _spectrum_value(geom.num_elements, proj.sum(axis=1)).reshape(pg.shape)


def _spectrum_value(n: int, proj: np.ndarray) -> np.ndarray:
    """The MUSIC spectrum 1 / max(N - ||E_s^H a||^2, tiny) from the projections ||E_s^H a||^2."""
    return 1.0 / np.maximum(n - proj, np.finfo(float).tiny)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Boolean mask of 4-neighborhood local maxima (plateau counted once)."""
    peak = np.ones_like(values, dtype=bool)
    peak[1:, :] &= values[1:, :] > values[:-1, :]
    peak[:-1, :] &= values[:-1, :] >= values[1:, :]
    peak[:, 1:] &= values[:, 1:] > values[:, :-1]
    peak[:, :-1] &= values[:, :-1] >= values[:, 1:]
    return peak


def music_peaks(values: np.ndarray, pg: PolarGrid, num_sources: int) -> list:
    """The num_sources largest local maxima of a spectrum over pg, sorted by peak height.

    Ties break toward smaller range, then smaller angle. A peak on the grid
    boundary triggers a BoundaryPeakWarning, since the true maximum may lie
    outside the grid.
    """
    mask = _local_maxima(values)
    ia, ir = np.nonzero(mask)
    if ia.size == 0:
        return []
    order = sorted(
        range(ia.size),
        key=lambda k: (-values[ia[k], ir[k]], pg.ranges_m[ir[k]], pg.angles_rad[ia[k]]),
    )
    return [_grid_peak(pg, int(ia[k]), int(ir[k])) for k in order[:num_sources]]


def _grid_peak(pg: PolarGrid, a_i: int, r_i: int) -> PolarPoint:
    """The grid node (angle index a_i, range index r_i) as a MUSIC peak.

    A peak on the grid boundary triggers a BoundaryPeakWarning, since the
    true maximum may lie outside the grid.
    """
    n_ang, n_rng = pg.shape
    if a_i in (0, n_ang - 1) or r_i in (0, n_rng - 1):
        warnings.warn("MUSIC peak on the evaluation grid boundary", BoundaryPeakWarning)
    return PolarPoint(float(pg.ranges_m[r_i]), float(pg.angles_rad[a_i]))


def single_source_peaks(bases, geom: ArrayGeometry, grid: CarrierGrid, pg: PolarGrid):
    """Yield (peak, value) for each one-source basis in bases, in order.

    Each basis is an orthonormal N x 1 signal basis e, as
    snapshot_subspace(X, 1) returns it. peak is
    music_peaks(music_spectrum(e, geom, grid, pg), pg, 1)[0] and value the
    spectrum's value there, and a peak on the grid boundary warns the same
    way; but no spectrum is built. The peak is the grid argmax of the
    spectrum's value, _spectrum_value of |e^H a|^2 computed with
    music_spectrum's steering rows and products at the center frequency,
    ties to the smaller range, then the smaller angle. That point is a local
    maximum under music_peaks' plateau rule and the first it ranks.
    squint.screened_argmax's certified range screen, on any angle axis,
    returns the points that can hold it, and squint.best_per_column ranks
    their values: up to _SEARCH_BLOCK bases are columns of one search, each
    with its own running best and its candidates' |e^H a| taken from its
    own float64 products, so a peak depends neither on the order of bases
    nor on which share its search.
    """
    center = CarrierGrid(grid.center_hz, 1, 0.0)
    no_delays = np.zeros(geom.num_elements)
    bases = iter(bases)
    while True:
        block = list(itertools.islice(bases, _SEARCH_BLOCK))
        if not block:
            return
        if any(np.shape(e) != (geom.num_elements, 1) for e in block):
            raise ValueError("each basis must be N x 1: one source")
        weights = np.array([np.asarray(e)[:, 0] for e in block])
        col, idx, g, _ = screened_argmax(geom, center, weights, no_delays, pg)
        values, at = best_per_column(col, idx, _spectrum_value(geom.num_elements, np.square(g, out=g)))
        for value, i in zip(values, at):
            r_i, a_i = divmod(int(i), pg.angles_rad.size)
            yield _grid_peak(pg, a_i, r_i), float(value)


def music_localize(
    cov: SampleCovariance,
    geom: ArrayGeometry,
    grid: CarrierGrid,
    pg: PolarGrid,
    num_sources: int,
) -> list:
    """music_peaks of the music_spectrum of cov's top num_sources eigenvectors (np.linalg.eigh)."""
    return music_peaks(music_spectrum(_covariance_basis(cov, num_sources), geom, grid, pg), pg, num_sources)
