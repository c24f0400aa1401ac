"""2-D (angle, range) MUSIC on a linear array with single-frequency snapshots.

The spherical-wavefront manifold depends on range as well as angle below the
near/far boundary, so scanning the MUSIC spectrum over a polar grid estimates
both jointly. The number of sources is an input; no model-order selection.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import arrays
from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, spherical_delays, steering_chunks
from .codebook import PolarGrid
from .constants import SPEED_OF_LIGHT as C
from .errors import BoundaryPeakWarning


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """Hermitian PSD snapshot covariance and the snapshot count behind it.

    eigvecs holds the eigenvectors by ascending eigenvalue, from the one
    decomposition that also checks positive semidefiniteness.
    """

    matrix: np.ndarray
    snapshot_count: int
    eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.matrix, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("covariance must be square")
        asym = float(np.abs(r - r.conj().T).max())
        if asym > 1e-10:
            raise ValueError(f"covariance asymmetry {asym:.2e} exceeds 1e-10")
        eig, vecs = np.linalg.eigh(r)
        if eig[0] < -1e-9 * max(eig[-1], 0.0):
            raise ValueError("covariance is not positive semidefinite")
        object.__setattr__(self, "matrix", r)
        object.__setattr__(self, "eigvecs", vecs)


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
    t_count = x.shape[0]
    r = x.T @ x.conj() / t_count
    r = (r + r.conj().T) / 2
    return SampleCovariance(r, t_count)


def music_spectra(
    covs,
    geom: ArrayGeometry,
    grid: CarrierGrid,
    pg: PolarGrid,
    num_sources: int,
):
    """Yield the MUSIC spectrum of each covariance in covs, in order.

    Spectra are evaluated on the polar grid at the center frequency, using
    ||E_n^H a||^2 = N - ||E_s^H a||^2 so only the small signal subspace is
    projected. covs may be any iterable, such as a generator of trials: each
    covariance is read once, for its signal subspace, and may be freed after.
    One steering pass over the grid serves up to _CHUNK_ENTRIES // grid-size
    covariances, so the spectra of a pass take no more memory than one
    steering chunk, whatever the number of covariances. Each covariance is
    projected with its own product, so its spectrum has the same bits as when
    it is evaluated alone.
    """
    fc = grid.center_hz
    rr, aa = np.meshgrid(pg.ranges_m, pg.angles_rad, indexing="xy")
    taus = (rr / C).ravel()
    cosines = np.cos(aa).ravel()
    batch = max(1, arrays._CHUNK_ENTRIES // taus.size)
    covs = iter(covs)
    while True:
        subspaces = []
        for cov in itertools.islice(covs, batch):
            n = cov.matrix.shape[0]
            if not 0 < num_sources < n:
                raise ValueError("num_sources must lie in 1..N-1")
            subspaces.append((n, cov.eigvecs[:, n - num_sources:].conj()))
        if not subspaces:
            return
        den = np.empty((len(subspaces), taus.size), dtype=float)
        for lo, hi, _, a in steering_chunks(geom, fc, taus, cosines):
            for row, (n, es_conj) in zip(den, subspaces):
                proj = np.abs(a @ es_conj) ** 2
                row[lo:hi] = n - proj.sum(axis=1)
        den = np.maximum(den, np.finfo(float).tiny)
        for row in den:
            yield MusicSpectrum((1.0 / row).reshape(pg.shape), pg, num_sources)


def music_spectrum(
    cov: SampleCovariance,
    geom: ArrayGeometry,
    grid: CarrierGrid,
    pg: PolarGrid,
    num_sources: int,
) -> MusicSpectrum:
    """The MUSIC spectrum of one covariance; see music_spectra."""
    return next(music_spectra([cov], geom, grid, pg, num_sources))


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
    picked = order[:spec.num_sources]
    n_ang, n_rng = pg.shape
    results = []
    for k in picked:
        a_i, r_i = int(ia[k]), int(ir[k])
        if a_i in (0, n_ang - 1) or r_i in (0, n_rng - 1):
            warnings.warn(
                "MUSIC peak on the evaluation grid boundary", BoundaryPeakWarning
            )
        results.append(PolarPoint(float(pg.ranges_m[r_i]), float(pg.angles_rad[a_i])))
    return results


def music_localize(
    cov: SampleCovariance,
    geom: ArrayGeometry,
    grid: CarrierGrid,
    pg: PolarGrid,
    num_sources: int,
) -> list:
    """Peaks of one covariance's MUSIC spectrum; see music_peaks."""
    return music_peaks(music_spectrum(cov, geom, grid, pg, num_sources))
