"""2-D (angle, range) MUSIC on a linear array with single-frequency snapshots.

The spherical-wavefront manifold depends on range as well as angle below the
near/far boundary, so scanning the MUSIC spectrum over a polar grid estimates
both jointly. The number of sources is an input; no model-order selection.

With one source the spectrum 1 / (N - |e^H a|^2) grows with the beam gain
|e^H a| of the signal basis e, so its peak is a focal point of w = e:
single_source_peaks finds it with focal_points' certified grid search
(squint.screened_argmax) and builds no spectrum. It compares the spectrum
value itself, as music_spectra computes it, and breaks exact ties toward the
smaller range, then the smaller angle, so its peak is music_peaks' first, bit
for bit. With more sources the spectrum is built (music_spectra) and its
local maxima ranked (music_peaks): a bound on the global maximum cannot
certify the second-largest local maximum.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, gains, is_psd, spherical_delays, steering_chunks
from .codebook import PolarGrid
from .constants import SPEED_OF_LIGHT as C
from .errors import BoundaryPeakWarning
from .squint import screened_argmax

# spectrum entries (signal bases x grid points) that one steering pass serves
_PASS_ENTRIES = 2_000_000
# one-source bases whose peaks one screened search finds together: each
# steering pass costs about as much Python overhead as a dozen bases'
# products, so passes are shared widely; the search's saved gains grow with
# it, to about 87 KB per basis on a 181 x 60 grid
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


def _top_subspace(apply, start: np.ndarray, k: int, covariance) -> np.ndarray:
    """Orthonormal N x k basis of a Hermitian PSD matrix R's top-k eigenspace.

    apply(V) returns R V, start holds k columns of R, and covariance() builds
    R itself. Block subspace iteration V <- qr(R V) starts from qr(start) and
    stops once the residual ||R V - V (V^H R V)|| falls under _SUBSPACE_TOL
    times ||V^H R V||; a subspace that has not converged within
    _SUBSPACE_ITERATIONS (eigenvalues k and k+1 too close, as at low SNR)
    comes from np.linalg.eigh(covariance()) instead. The basis differs from
    eigh's, but the projector V V^H, all MUSIC reads, agrees to rounding.
    """
    n = start.shape[0]
    if not 0 < k < n:
        raise ValueError("num_sources must lie in 1..N-1")
    v = np.linalg.qr(start)[0]
    for _ in range(_SUBSPACE_ITERATIONS):
        w = apply(v)
        h = v.conj().T @ w
        if np.linalg.norm(w - v @ h) <= _SUBSPACE_TOL * np.linalg.norm(h):
            return v
        v = np.linalg.qr(w)[0]
    return np.linalg.eigh(covariance())[1][:, n - k:]


def signal_subspace(matrix: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenspace basis of a Hermitian PSD matrix R; see _top_subspace.

    The iteration starts from the k columns of R with the largest diagonal
    (ties to the smaller index), so the result depends on R alone.
    """
    r = np.asarray(matrix)
    start = np.argsort(-r.diagonal().real, kind="stable")[:k]
    return _top_subspace(lambda v: r @ v, r[:, start], k, lambda: r)


def snapshot_subspace(snapshots: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenspace basis of the sample covariance of row-snapshots X (T x N).

    The same iteration as signal_subspace on R = X^T conj(X) / T, with R
    applied through X, R V = X^T conj(X conj(V)) / T, and never formed. It
    starts from the k columns of R whose sum_t |x_tj|^2 is largest (ties to
    the smaller index). Only a subspace that does not converge builds
    sample_covariance(X), so its eigh has the bits of the covariance path's
    fallback.
    """
    x = np.asarray(snapshots, dtype=complex)
    t_count = x.shape[0]
    power = (x.real ** 2 + x.imag ** 2).sum(axis=0)
    start = np.argsort(-power, kind="stable")[:k]
    return _top_subspace(
        lambda v: x.T @ (x @ v.conj()).conj() / t_count,
        x.T @ x[:, start].conj() / t_count,
        k,
        lambda: sample_covariance(x).matrix,
    )


@dataclass(frozen=True, eq=False)
class MusicSpectrum:
    """1 / ||E_n^H a||^2 over a polar grid; larger = closer to the manifold."""

    values: np.ndarray  # (num_angles, num_ranges)
    grid: PolarGrid
    num_sources: int


def collect_snapshots(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    sources,
    snapshot_count: int,
    noise_power: float,
    seed: int,
) -> np.ndarray:
    """Rows are snapshots: x_t = sum_s s_{s,t} a_{M/2}(p_s) + n_t.

    Source symbols are unit-power circular complex; noise is circular complex
    with the given power per antenna.
    """
    sources = list(sources)
    if snapshot_count <= len(sources):
        raise ValueError("snapshot_count must exceed the number of sources")
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    rng = np.random.default_rng(seed)
    t_count, n = snapshot_count, geom.num_elements
    x = np.zeros((t_count, n), dtype=complex)
    fc = grid.center_hz
    for p in sources:
        a = np.exp(-2j * np.pi * fc * spherical_delays(geom, p))
        symbols = (rng.standard_normal(t_count) + 1j * rng.standard_normal(t_count)) / np.sqrt(2)
        x += symbols[:, None] * a[None, :]
    if noise_power > 0:
        noise = (rng.standard_normal((t_count, n)) + 1j * rng.standard_normal((t_count, n)))
        x += np.sqrt(noise_power / 2) * noise
    return x


def sample_covariance(snapshots: np.ndarray) -> SampleCovariance:
    """R = (1/T) sum_t x_t x_t^H for row-snapshots, symmetrized exactly."""
    x = np.asarray(snapshots, dtype=complex)
    r = x.T @ x.conj() / x.shape[0]
    r = (r + r.conj().T) / 2
    return SampleCovariance(r)


def music_spectra(bases, geom: ArrayGeometry, grid: CarrierGrid, pg: PolarGrid):
    """Yield the MUSIC spectrum of each signal basis in bases, in order.

    Each basis is an orthonormal N x k basis of a signal subspace, k being
    the spectrum's num_sources, as signal_subspace and snapshot_subspace
    return it. Spectra are evaluated on the polar grid at the center
    frequency, using ||E_n^H a||^2 = N - ||E_s^H a||^2 so only the small
    signal subspace is projected. bases may be any iterable, such as a
    generator of trials. One steering pass over the grid serves up to
    _PASS_ENTRIES // grid-size bases, so the spectra of a pass hold at most
    _PASS_ENTRIES floats (16 MB), whatever the number of bases. Each basis is
    projected with its own product, so its spectrum has the same bits as when
    it is evaluated alone.
    """
    rr, aa = np.meshgrid(pg.ranges_m, pg.angles_rad, indexing="xy")
    taus = (rr / C).ravel()
    cosines = np.cos(aa).ravel()
    batch = max(1, _PASS_ENTRIES // taus.size)
    bases = iter(bases)
    while True:
        conj = [np.conj(es) for es in itertools.islice(bases, batch)]
        if not conj:
            return
        den = np.empty((len(conj), taus.size), dtype=float)
        for lo, hi, (a,) in steering_chunks(geom, CarrierGrid(grid.center_hz, 1, 0.0), taus, cosines):
            for row, es_conj in zip(den, conj):
                proj = gains(a, es_conj) ** 2
                row[lo:hi] = es_conj.shape[0] - proj.sum(axis=1)
        den = np.maximum(den, np.finfo(float).tiny)
        for row, es_conj in zip(den, conj):
            yield MusicSpectrum((1.0 / row).reshape(pg.shape), pg, es_conj.shape[1])


def music_spectrum(
    cov: SampleCovariance,
    geom: ArrayGeometry,
    grid: CarrierGrid,
    pg: PolarGrid,
    num_sources: int,
) -> MusicSpectrum:
    """The MUSIC spectrum of one covariance's signal_subspace; see music_spectra."""
    return next(music_spectra([signal_subspace(cov.matrix, num_sources)], geom, grid, pg))


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Boolean mask of 4-neighborhood local maxima (plateau counted once)."""
    peak = np.ones_like(values, dtype=bool)
    peak[1:, :] &= values[1:, :] > values[:-1, :]
    peak[:-1, :] &= values[:-1, :] >= values[1:, :]
    peak[:, 1:] &= values[:, 1:] > values[:, :-1]
    peak[:, :-1] &= values[:, :-1] >= values[:, 1:]
    return peak


def music_peaks(spec: MusicSpectrum) -> list:
    """The spectrum's num_sources largest local maxima, sorted by peak height.

    Ties break toward smaller range. A peak on the grid boundary triggers a
    BoundaryPeakWarning, since the true maximum may lie outside the grid.
    """
    values, pg = spec.values, spec.grid
    mask = _local_maxima(values)
    ia, ir = np.nonzero(mask)
    if ia.size == 0:
        return []
    order = sorted(
        range(ia.size),
        key=lambda k: (-values[ia[k], ir[k]], pg.ranges_m[ir[k]], pg.angles_rad[ia[k]]),
    )
    return [_grid_peak(pg, int(ia[k]), int(ir[k])) for k in order[:spec.num_sources]]


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
    snapshot_subspace(X, 1) returns it. peak is music_peaks(spec)[0] and
    value spec's value there, for spec the basis's music_spectra spectrum,
    and a peak on the grid boundary warns the same way; but no spectrum is
    built. The peak is the grid argmax of the spectrum value
    1 / max(N - |e^H a|^2, tiny), computed with music_spectra's steering
    rows and products at the center frequency (direct rows only: a
    mirrored product would move the low bits), ties to the smaller range,
    then the smaller angle. That point is a local maximum under music_peaks'
    plateau rule and the first it ranks. squint.screened_argmax finds it
    with its certified range screen: up to _SEARCH_BLOCK bases are columns
    of one search, each with its own products and running best, so a peak
    depends neither on the order of bases nor on which share its search.
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
        values, at, _ = screened_argmax(geom, center, weights, no_delays, pg, music=True)
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
    """Peaks of one covariance's MUSIC spectrum; see music_peaks."""
    return music_peaks(music_spectrum(cov, geom, grid, pg, num_sources))
