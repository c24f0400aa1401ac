"""Planar-wavefront references the tests compare the near-field model against.

The package models spherical wavefronts only; these far-field forms are
test oracles: the planar steering vector and the DFT codeword matched to it.
"""

import numpy as np

from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, _check_source_range
from nfisac.codebook import Beamformer


def far_field_steering(
    geom: ArrayGeometry, p: PolarPoint, grid: CarrierGrid, m: int
) -> np.ndarray:
    """Planar-wavefront steering vector at subcarrier m; entries unit modulus."""
    _check_source_range(geom, p)
    f = grid.freq(m)
    delays = p.delay_s() - geom.element_offsets_s * np.cos(p.angle_rad)
    return np.exp(-2j * np.pi * f * delays)


def dft_codeword(geom: ArrayGeometry, grid: CarrierGrid, angle_rad: float) -> Beamformer:
    """Frequency-flat codeword matched to the planar wavefront at angle_rad."""
    if not 0.0 < angle_rad < np.pi:
        raise ValueError("angle_rad must lie in (0, pi)")
    phase = 2.0 * np.pi * grid.center_hz * geom.element_offsets_s * np.cos(angle_rad)
    return Beamformer(-phase)
