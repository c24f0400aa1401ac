"""Subspace localization: covariance statistics, spectra, peak picking."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nfisac.music as music
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, spherical_delays
from nfisac.codebook import PolarGrid
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.errors import BoundaryPeakWarning
from nfisac.music import (
    SampleCovariance,
    collect_snapshots,
    music_localize,
    music_peaks,
    music_spectra,
    music_spectrum,
    sample_covariance,
    signal_subspace,
    single_source_peaks,
    snapshot_subspace,
)

FC = 3.0e11
WL = C / FC
GRID1 = CarrierGrid(FC, 1, 0.0)


def test_sample_covariance_converges_to_model():
    # with unit-power symbols, E[R] = a a^H + noise_power * I; at 1e4
    # snapshots the relative Frobenius error sits well under 5 percent.
    # a transposed or conjugated accumulation fails this by a wide margin.
    geom = ArrayGeometry.ula(16, WL / 2)
    p = PolarPoint(0.8, 1.1)
    noise_power = 0.1
    x = collect_snapshots(geom, GRID1, [p], 10_000, noise_power, seed=17)
    r_hat = sample_covariance(x).matrix
    a = np.exp(-2j * np.pi * FC * spherical_delays(geom, p))
    r_model = np.outer(a, a.conj()) + noise_power * np.eye(16)
    rel = np.linalg.norm(r_hat - r_model) / np.linalg.norm(r_model)
    assert rel < 0.05


def test_noiseless_source_on_grid_node_recovered_exactly():
    geom = ArrayGeometry.ula(128, WL / 2)
    angles = np.linspace(1.2, 1.9, 71)
    ranges = np.geomspace(4.0, 16.0, 25)
    pg = PolarGrid(angles, ranges)
    truth = PolarPoint(float(ranges[12]), float(angles[30]))
    x = collect_snapshots(geom, GRID1, [truth], 32, 0.0, seed=3)
    peaks = music_localize(sample_covariance(x), geom, GRID1, pg, 1)
    assert len(peaks) == 1
    assert peaks[0].angle_rad == truth.angle_rad
    assert peaks[0].range_m == truth.range_m


def test_two_sources_separated_in_angle_resolved_at_20_db():
    geom = ArrayGeometry.ula(256, WL / 2)
    angles = np.linspace(1.2, 1.9, 71)
    ranges = np.geomspace(6.0, 18.0, 25)
    pg = PolarGrid(angles, ranges)
    r_node = float(ranges[12])
    truths = [PolarPoint(r_node, float(angles[20])), PolarPoint(r_node, float(angles[55]))]
    x = collect_snapshots(geom, GRID1, truths, 256, 0.01, seed=9)
    peaks = music_localize(sample_covariance(x), geom, GRID1, pg, 2)
    assert len(peaks) == 2
    got = sorted(p.angle_rad for p in peaks)
    want = sorted(p.angle_rad for p in truths)
    d_ang = angles[1] - angles[0]
    for g, w in zip(got, want):
        assert abs(g - w) <= 2 * d_ang + 1e-12
    for p in peaks:
        k = np.searchsorted(ranges, p.range_m)
        assert abs(k - 12) <= 2


def test_num_sources_must_be_below_element_count():
    geom = ArrayGeometry.ula(16, WL / 2)
    x = collect_snapshots(geom, GRID1, [PolarPoint(1.0, 1.0)], 32, 0.01, seed=1)
    cov = sample_covariance(x)
    pg = PolarGrid(np.linspace(0.9, 1.1, 5), np.array([1.0]))
    with pytest.raises(ValueError, match="1..N-1"):
        music_spectrum(cov, geom, GRID1, pg, 16)
    with pytest.raises(ValueError, match="1..N-1"):
        music_spectrum(cov, geom, GRID1, pg, 0)
    for k in (0, 16):
        with pytest.raises(ValueError, match="1..N-1"):
            snapshot_subspace(x, k)


def test_peak_on_grid_boundary_warns():
    geom = ArrayGeometry.ula(64, WL / 2)
    angles = np.linspace(1.2, 1.6, 21)
    pg = PolarGrid(angles, np.geomspace(0.5, 2.0, 15))
    truth = PolarPoint(float(np.geomspace(0.5, 2.0, 15)[7]), float(angles[0]))
    x = collect_snapshots(geom, GRID1, [truth], 32, 0.0, seed=5)
    with pytest.warns(BoundaryPeakWarning):
        music_localize(sample_covariance(x), geom, GRID1, pg, 1)


def test_covariance_validation():
    with pytest.raises(ValueError, match="square"):
        SampleCovariance(np.ones((2, 3), dtype=complex))
    bad = np.array([[1.0, 1.0j], [1.0j, 1.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        SampleCovariance(bad)
    neg = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        SampleCovariance(neg)


def test_spectrum_invariant_under_covariance_scaling():
    geom = ArrayGeometry.ula(32, WL / 2)
    truth = PolarPoint(1.0, 1.3)
    x = collect_snapshots(geom, GRID1, [truth], 64, 0.01, seed=11)
    cov = sample_covariance(x)
    scaled = SampleCovariance(cov.matrix * 3.7)
    pg = PolarGrid(np.linspace(1.1, 1.5, 41), np.geomspace(0.5, 2.0, 21))
    s0 = music_spectrum(cov, geom, GRID1, pg, 1).values
    s1 = music_spectrum(scaled, geom, GRID1, pg, 1).values
    assert np.argmax(s0) == np.argmax(s1)
    np.testing.assert_allclose(s1, s0, rtol=1e-6)


def test_collect_snapshots_validation_and_determinism():
    geom = ArrayGeometry.ula(16, WL / 2)
    p = PolarPoint(1.0, 1.0)
    with pytest.raises(ValueError, match="snapshot_count"):
        collect_snapshots(geom, GRID1, [p], 1, 0.01, seed=1)
    with pytest.raises(ValueError, match="noise_power"):
        collect_snapshots(geom, GRID1, [p], 8, -0.1, seed=1)
    x0 = collect_snapshots(geom, GRID1, [p], 16, 0.02, seed=21)
    x1 = collect_snapshots(geom, GRID1, [p], 16, 0.02, seed=21)
    assert np.array_equal(x0, x1)


def test_flat_spectrum_plateau_yields_single_boundary_peak():
    # pure white covariance makes the spectrum one flat plateau; the plateau
    # is counted once, lands on the grid corner, and is flagged as boundary
    geom = ArrayGeometry.ula(16, WL / 2)
    cov = SampleCovariance(np.eye(16, dtype=complex))
    pg = PolarGrid(np.linspace(1.0, 1.4, 11), np.geomspace(0.5, 2.0, 7))
    with pytest.warns(BoundaryPeakWarning):
        peaks = music_localize(cov, geom, GRID1, pg, 1)
    assert len(peaks) == 1


# largest relative spectrum difference allowed between the subspace-iteration
# path and a full eigh; the scenarios below reach about 2e-11
SPECTRUM_RTOL = 1e-8
DIFF_GEOM = ArrayGeometry.ula(32, WL / 2)
DIFF_GRID = PolarGrid(np.linspace(1.0, 2.1, 45), np.geomspace(0.3, 3.0, 16))


def _random_snapshots(count, seed):
    # k = 1..3 sources, SNR -15..30 dB, k + 2 .. 4N snapshots
    rng = np.random.default_rng(seed)
    n = DIFF_GEOM.num_elements
    for _ in range(count):
        k = int(rng.integers(1, 4))
        snr_db = rng.uniform(-15.0, 30.0)
        snapshots = int(rng.integers(k + 2, 4 * n + 1))
        sources = [
            PolarPoint(float(rng.uniform(0.4, 2.5)), float(rng.uniform(1.1, 2.0)))
            for _ in range(k)
        ]
        x = collect_snapshots(
            DIFF_GEOM, GRID1, sources, snapshots, 10 ** (-snr_db / 10), int(rng.integers(2**31))
        )
        yield k, x


def _random_covariances(count, seed):
    for k, x in _random_snapshots(count, seed):
        yield k, sample_covariance(x)


def _spectra_and_peaks(scenarios):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryPeakWarning)
        for k, cov in scenarios:
            spec = music_spectrum(cov, DIFF_GEOM, GRID1, DIFF_GRID, k)
            out.append((spec.values, music_peaks(spec)))
    return out


def test_signal_subspace_spectra_match_full_eigh(monkeypatch):
    # the spectrum reads only the projector onto the signal subspace, so any
    # orthonormal basis of it gives the same peaks and, to rounding, values
    scenarios = list(_random_covariances(150, seed=2024))
    eigh = np.linalg.eigh
    fallbacks = []

    def counted_eigh(a, *args, **kwargs):
        fallbacks.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    iterated = _spectra_and_peaks(scenarios)
    iterated_fallbacks = len(fallbacks)
    monkeypatch.setattr(music, "_SUBSPACE_ITERATIONS", 1)
    forced = _spectra_and_peaks(scenarios)
    forced_fallbacks = len(fallbacks) - iterated_fallbacks
    monkeypatch.setattr(
        music, "signal_subspace", lambda r, k: eigh(r)[1][:, r.shape[0] - k:]
    )
    reference = _spectra_and_peaks(scenarios)

    # the iteration converged on most scenarios; with a budget of one, every
    # scenario fell back to eigh
    assert iterated_fallbacks < len(scenarios) // 4
    assert forced_fallbacks == len(scenarios)
    for (it_vals, it_peaks), (fb_vals, fb_peaks), (ref_vals, ref_peaks) in zip(
        iterated, forced, reference
    ):
        assert it_peaks == ref_peaks
        np.testing.assert_allclose(it_vals, ref_vals, rtol=SPECTRUM_RTOL, atol=0)
        assert fb_peaks == ref_peaks
        assert np.array_equal(fb_vals, ref_vals)


# largest entry difference allowed between the projectors of the snapshot
# and covariance paths; the scenarios below reach 6.3e-14, and their spectra
# differ by at most 3.9e-12 relative, well inside SPECTRUM_RTOL
PROJECTOR_ATOL = 1e-12


def _snapshot_scenarios():
    # (k, snapshots): fewer snapshots than elements, three sources and -15 dB,
    # alone and together, then random draws as in _random_snapshots
    edges = [(3, -15.0, 5), (1, -15.0, 3), (3, 30.0, 5), (3, -15.0, 128), (2, 0.0, 16)]
    scenarios = []
    for seed, (k, snr_db, snapshots) in enumerate(edges):
        sources = [PolarPoint(0.6 + 0.7 * j, 1.2 + 0.3 * j) for j in range(k)]
        x = collect_snapshots(DIFF_GEOM, GRID1, sources, snapshots, 10 ** (-snr_db / 10), seed)
        scenarios.append((k, x))
    return scenarios + list(_random_snapshots(60, seed=77))


def _snapshot_spectra_and_peaks(scenarios):
    bases = (snapshot_subspace(x, k) for k, x in scenarios)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryPeakWarning)
        return [
            (spec.values, music_peaks(spec))
            for spec in music_spectra(bases, DIFF_GEOM, GRID1, DIFF_GRID)
        ]


def _covariance_spectra_and_peaks(scenarios):
    return _spectra_and_peaks((k, sample_covariance(x)) for k, x in scenarios)


def test_snapshot_subspace_projector_matches_covariance_path():
    n = DIFF_GEOM.num_elements
    for k, x in _snapshot_scenarios():
        v = snapshot_subspace(x, k)
        ref = signal_subspace(sample_covariance(x).matrix, k)
        assert v.shape == (n, k)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(k), rtol=0, atol=1e-12)
        diff = np.abs(v @ v.conj().T - ref @ ref.conj().T).max()
        assert diff <= PROJECTOR_ATOL


def test_snapshot_spectra_match_covariance_path():
    scenarios = _snapshot_scenarios()
    for (vals, peaks), (ref_vals, ref_peaks) in zip(
        _snapshot_spectra_and_peaks(scenarios), _covariance_spectra_and_peaks(scenarios), strict=True
    ):
        assert peaks == ref_peaks
        np.testing.assert_allclose(vals, ref_vals, rtol=SPECTRUM_RTOL, atol=0)


def test_snapshot_fallback_has_the_covariance_paths_bits(monkeypatch):
    # with a budget of one step no scenario converges, and the fallback's eigh
    # runs on the covariance the covariance path decomposes
    scenarios = _snapshot_scenarios()
    eigh = np.linalg.eigh
    fallbacks = []

    def counted_eigh(a, *args, **kwargs):
        fallbacks.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(music, "_SUBSPACE_ITERATIONS", 1)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    forced = _snapshot_spectra_and_peaks(scenarios)
    assert len(fallbacks) == len(scenarios)
    reference = _covariance_spectra_and_peaks(scenarios)
    assert len(fallbacks) == 2 * len(scenarios)
    for (vals, peaks), (ref_vals, ref_peaks) in zip(forced, reference, strict=True):
        assert peaks == ref_peaks
        assert np.array_equal(vals, ref_vals)


def test_snapshot_spectra_do_not_depend_on_trial_order_or_passes(monkeypatch):
    # a trial's spectrum is the same whichever trials come before it and
    # however many share its steering pass
    scenarios = _snapshot_scenarios()[:12]

    def spectra(trials):
        bases = (snapshot_subspace(x, k) for k, x in trials)
        return [spec.values for spec in music_spectra(bases, DIFF_GEOM, GRID1, DIFF_GRID)]

    together = spectra(scenarios)
    backwards = spectra(scenarios[::-1])[::-1]
    alone = [spectra([trial])[0] for trial in scenarios]
    monkeypatch.setattr(music, "_PASS_ENTRIES", 2 * DIFF_GRID.angles_rad.size * DIFF_GRID.ranges_m.size)
    pairs = spectra(scenarios)
    for got in (backwards, alone, pairs):
        assert len(got) == len(together)
        for a, b in zip(got, together):
            assert np.array_equal(a, b)


def _hermitian_with_spectrum(eigenvalues, seed):
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    r = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (r + r.conj().T) / 2


@pytest.mark.parametrize("n", [16, 256])
def test_covariance_psd_boundary(n):
    # the check tolerates rounding-sized negative eigenvalues and nothing more
    lam_max = 250.0

    def spectrum(rel):
        return np.r_[-rel * lam_max, np.linspace(0.05, 1.0, n - 1) * lam_max]

    tiny = _hermitian_with_spectrum(spectrum(1e-12), seed=n)
    assert np.linalg.eigvalsh(tiny)[0] == pytest.approx(-1e-12 * lam_max, rel=1e-2)
    SampleCovariance(tiny)
    SampleCovariance(np.zeros((n, n), dtype=complex))
    x = collect_snapshots(ArrayGeometry.ula(n, WL / 2), GRID1, [PolarPoint(1.0, 1.2)], 8, 0.0, seed=4)
    SampleCovariance(sample_covariance(x).matrix)
    with pytest.raises(ValueError, match="positive semidefinite"):
        SampleCovariance(_hermitian_with_spectrum(spectrum(1e-6), seed=n))


@st.composite
def one_source_batches(draw):
    # a grid symmetric about broadside, its first range inside the
    # half-aperture or clear of it, and 1..20 trials whose targets sit off
    # the grid, on its nodes (the boundary included), mirrored about
    # broadside or at broadside, where the spectrum has exact ties; a
    # coordinate basis vector gives a spectrum flat to the last bit
    geom = ArrayGeometry.ula(draw(st.sampled_from([4, 16, 32])), WL / 2)
    edge = draw(st.floats(0.3, 1.4))
    angles = np.linspace(edge, np.pi - edge, draw(st.integers(1, 41)))
    r0 = draw(st.sampled_from([0.004, 0.05, 0.3]))
    ranges = np.geomspace(r0, r0 * draw(st.floats(2.0, 20.0)), draw(st.integers(1, 16)))
    pg = PolarGrid(angles, ranges)
    trials = []
    for _ in range(draw(st.integers(1, 20))):
        i = draw(st.integers(0, angles.size - 1))
        j = draw(st.integers(0, ranges.size - 1))
        kind = draw(st.sampled_from(["off", "node", "boundary", "mirror", "broadside", "flat"]))
        if kind == "flat":
            trials.append(np.eye(geom.num_elements, dtype=complex)[:, [draw(st.integers(0, geom.num_elements - 1))]])
            continue
        if kind == "off":
            angle = draw(st.floats(max(0.05, edge - 0.1), min(np.pi - 0.05, np.pi - edge + 0.1)))
            target = PolarPoint(draw(st.floats(0.8 * ranges[0], 1.2 * ranges[-1])), angle)
        elif kind == "boundary":
            i = draw(st.sampled_from([0, angles.size - 1]))
            j = draw(st.sampled_from([0, ranges.size - 1, j]))
            target = PolarPoint(float(ranges[j]), float(angles[i]))
        elif kind == "mirror":
            target = PolarPoint(float(ranges[j]), float(np.pi - angles[i]))
        elif kind == "broadside":
            target = PolarPoint(float(ranges[j]), np.pi / 2)
        else:
            target = PolarPoint(float(ranges[j]), float(angles[i]))
        noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
        x = collect_snapshots(geom, GRID1, [target], draw(st.integers(2, 48)), noise, draw(st.integers(0, 2**31)))
        trials.append(snapshot_subspace(x, 1))
    return geom, pg, trials


def _searched(bases, geom, pg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryPeakWarning)
        found = list(single_source_peaks(bases, geom, GRID1, pg))
    return found, sum(issubclass(w.category, BoundaryPeakWarning) for w in caught)


@given(one_source_batches())
@settings(max_examples=150, deadline=None)
def test_single_source_peaks_equal_the_spectrum_peaks(case):
    # the certified search returns music_peaks' first peak of each basis's
    # spectrum and its value, bit for bit, with the same boundary warnings,
    # whatever the order of the bases and whichever share a search
    geom, pg, bases = case
    want = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryPeakWarning)
        for spec in music_spectra(bases, geom, GRID1, pg):
            peak = music_peaks(spec)[0]
            at = (np.searchsorted(pg.angles_rad, peak.angle_rad), np.searchsorted(pg.ranges_m, peak.range_m))
            want.append((peak, float(spec.values[at])))
    warned = sum(issubclass(w.category, BoundaryPeakWarning) for w in caught)
    assert _searched(bases, geom, pg) == (want, warned)
    backwards, _ = _searched(bases[::-1], geom, pg)
    assert backwards[::-1] == want
    for block in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(music, "_SEARCH_BLOCK", block)
            assert _searched(bases, geom, pg)[0] == want


def test_single_source_peaks_take_one_source_bases_only():
    x = collect_snapshots(DIFF_GEOM, GRID1, [PolarPoint(1.0, 1.2)], 16, 0.01, seed=2)
    with pytest.raises(ValueError, match="N x 1"):
        list(single_source_peaks([snapshot_subspace(x, 2)], DIFF_GEOM, GRID1, DIFF_GRID))
