"""Subspace localization: covariance statistics, spectra, peak picking."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nfisac.arrays as arrays
import nfisac.music as music
import nfisac.squint as squint
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, spherical_delays, steering_chunks
from nfisac.codebook import PolarGrid
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.errors import BoundaryPeakWarning
from nfisac.music import (
    SampleCovariance,
    collect_snapshots,
    music_localize,
    music_peaks,
    music_spectrum,
    sample_covariance,
    single_source_peaks,
    snapshot_subspace,
)

FC = 3.0e11
WL = C / FC
GRID1 = CarrierGrid(FC, 1, 0.0)


def eigh_basis(cov, k):
    """cov's top-k eigenvectors from a full eigh: the textbook signal basis."""
    return np.linalg.eigh(cov.matrix)[1][:, -k:]


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
    for k in (0, 16):
        with pytest.raises(ValueError, match="1..N-1"):
            music_localize(cov, geom, GRID1, pg, k)
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
    s0 = music_spectrum(eigh_basis(cov, 1), geom, GRID1, pg)
    s1 = music_spectrum(eigh_basis(scaled, 1), geom, GRID1, pg)
    assert np.argmax(s0) == np.argmax(s1)
    np.testing.assert_allclose(s1, s0, rtol=1e-6)


def test_collect_snapshots_validation_and_determinism():
    geom = ArrayGeometry.ula(16, WL / 2)
    p = PolarPoint(1.0, 1.0)
    with pytest.raises(ValueError, match="snapshot_count"):
        collect_snapshots(geom, GRID1, [p], 1, 0.01, seed=1)
    with pytest.raises(ValueError, match="noise_power"):
        collect_snapshots(geom, GRID1, [p], 8, -0.1, seed=1)
    # a source's steering vector is near_field_steering's, which rejects a
    # point source no further than half the aperture
    with pytest.raises(ValueError, match="half the aperture"):
        collect_snapshots(geom, GRID1, [p, PolarPoint(geom.aperture_m() / 2, 2.0)], 8, 0.01, seed=1)
    x0 = collect_snapshots(geom, GRID1, [p], 16, 0.02, seed=21)
    x1 = collect_snapshots(geom, GRID1, [p], 16, 0.02, seed=21)
    assert np.array_equal(x0, x1)


def snapshots_oracle(geom, grid, sources, snapshot_count, noise_power, seed):
    """collect_snapshots as it was written with complex temporaries: the reference."""
    sources = list(sources)
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


@st.composite
def snapshot_cases(draw):
    t_count = draw(st.integers(2, 300))
    sources = [
        PolarPoint(draw(st.floats(0.3, 30.0)), draw(st.floats(0.05, np.pi - 0.05)))
        for _ in range(draw(st.integers(1, min(2, t_count - 1))))
    ]
    seed = draw(st.one_of(
        st.integers(0, 2**63),
        st.tuples(st.integers(0, 2**31), st.integers(0, 9)).map(np.random.SeedSequence),
    ))
    noise = draw(st.sampled_from([0.0, 1e-4, 1.0]))
    return ArrayGeometry.ula(draw(st.integers(2, 300)), WL / 2), sources, t_count, noise, seed


@given(snapshot_cases())
@settings(max_examples=100, deadline=None)
def test_collect_snapshots_keep_the_bits_of_complex_temporaries(case):
    # drawing into reused buffers and assembling in place must draw the same
    # stream and round every sum and product as the complex expression did,
    # alone and as each trial of a pipelined sequence
    geom, sources, t_count, noise, seed = case
    want = snapshots_oracle(geom, GRID1, sources, t_count, noise, seed)
    assert collect_snapshots(geom, GRID1, sources, t_count, noise, seed).tobytes() == want.tobytes()
    seeds = [seed, 7, seed]
    got = [x.tobytes() for x in music.snapshot_trials(geom, GRID1, sources, t_count, noise, seeds)]
    assert got == [snapshots_oracle(geom, GRID1, sources, t_count, noise, s).tobytes() for s in seeds]


class DrawFailed(Exception):
    pass


def test_snapshot_trials_draw_on_one_helper_and_leave_no_thread(monkeypatch):
    geom, p = ArrayGeometry.ula(16, WL / 2), PolarPoint(1.0, 1.0)
    start = threading.active_count()
    draw_trial = music._draw_trial
    alive, drawn_on = [], []

    def counted(seed, symbols, noise):
        alive.append(threading.active_count() - start)
        drawn_on.append(threading.current_thread())
        if seed == "fail":
            raise DrawFailed(seed)
        draw_trial(seed, symbols, noise)

    monkeypatch.setattr(music, "_draw_trial", counted)
    assert len(list(music.snapshot_trials(geom, GRID1, [p], 8, 0.1, range(6)))) == 6
    # the first trial is drawn on the caller's thread, the rest on one helper
    assert alive == [0, 1, 1, 1, 1, 1]
    helpers = set(drawn_on[1:])
    assert drawn_on[0] is threading.current_thread() and len(helpers) == 1
    assert threading.current_thread() not in helpers
    assert threading.active_count() == start
    # a failed draw raises its own error on the caller's thread, first or not
    for seeds in (["fail", 1], [0, 1, "fail", 3]):
        with pytest.raises(DrawFailed):
            for _ in music.snapshot_trials(geom, GRID1, [p], 8, 0.1, seeds):
                pass
        assert threading.active_count() == start
    # a consumer that stops while the next trial is drawn waits for that draw
    trials = music.snapshot_trials(geom, GRID1, [p], 8, 0.1, range(6))
    next(trials)
    assert threading.active_count() <= start + 1
    trials.close()
    assert threading.active_count() == start
    assert max(alive) == 1


def test_flat_spectrum_plateau_yields_single_boundary_peak():
    # pure white covariance makes the spectrum one flat plateau; the plateau
    # is counted once, lands on the grid corner, and is flagged as boundary
    geom = ArrayGeometry.ula(16, WL / 2)
    cov = SampleCovariance(np.eye(16, dtype=complex))
    pg = PolarGrid(np.linspace(1.0, 1.4, 11), np.geomspace(0.5, 2.0, 7))
    with pytest.warns(BoundaryPeakWarning):
        peaks = music_localize(cov, geom, GRID1, pg, 1)
    assert len(peaks) == 1


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


def _spectra_and_peaks(scenarios):
    # (spectrum, peaks) of each (k, signal basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryPeakWarning)
        out = []
        for k, basis in scenarios:
            values = music_spectrum(basis, DIFF_GEOM, GRID1, DIFF_GRID)
            out.append((values, music_peaks(values, DIFF_GRID, k)))
        return out


def _snapshot_spectra_and_peaks(scenarios):
    return _spectra_and_peaks((k, snapshot_subspace(x, k)) for k, x in scenarios)


def _covariance_spectra_and_peaks(scenarios):
    # the spectra and peaks of the eigh bases; music_localize's peaks are these
    out = _spectra_and_peaks((k, eigh_basis(sample_covariance(x), k)) for k, x in scenarios)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryPeakWarning)
        for (k, x), (_, peaks) in zip(scenarios, out, strict=True):
            assert music_localize(sample_covariance(x), DIFF_GEOM, GRID1, DIFF_GRID, k) == peaks
    return out


def _sin_theta_bound(v, r):
    """Davis-Kahan bound on ||V V^H - U U^H||_2 for R's eigh basis U, and R's relative eigengap.

    (||R V - V H|| + N eps ||R||) / gap, H = V^H R V: the residual the
    iteration stopped at plus eigh's backward error, over the gap between
    V's Ritz values and R's other eigenvalues.
    """
    n, k = v.shape
    lam = np.linalg.eigvalsh(r)
    h = v.conj().T @ r @ v
    ritz = np.linalg.eigvalsh((h + h.conj().T) / 2)
    gap = np.abs(ritz[:, None] - lam[None, : n - k]).min()
    return (np.linalg.norm(r @ v - v @ h, 2) + n * np.finfo(float).eps * lam[-1]) / gap, gap / lam[-1]


def test_snapshot_subspace_projector_matches_covariance_path(monkeypatch):
    # the iterated basis V spans the eigh basis's subspace: their projectors,
    # all MUSIC reads, differ by at most the sin-theta (Davis-Kahan) bound.
    # The scenarios reach a quarter of it, and 1.1e-9 where the gap is 1e-4
    # of ||R||. The iteration converged on most scenarios without falling
    # back to eigh
    eigh = np.linalg.eigh
    fallbacks = []

    def counted_eigh(a, *args, **kwargs):
        fallbacks.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    n = DIFF_GEOM.num_elements
    scenarios = _snapshot_scenarios()
    for k, x in scenarios:
        v = snapshot_subspace(x, k)
        r = sample_covariance(x).matrix
        ref = eigh(r)[1][:, n - k:]
        assert v.shape == (n, k)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(k), rtol=0, atol=1e-12)
        bound, _ = _sin_theta_bound(v, r)
        diff = np.abs(v @ v.conj().T - ref @ ref.conj().T).max()
        assert diff <= bound
    assert len(fallbacks) < len(scenarios) // 4


def test_snapshot_spectra_match_covariance_path():
    # the snapshot path's spectrum 1 / D_s against the eigh basis's 1 / D_r,
    # D = ||(I - P) a||^2 for the basis's projector P and |a_n| = 1: with
    # ||P_s - P_r|| <= delta, the sin-theta bound, sqrt(D_s) and sqrt(D_r)
    # differ by at most delta sqrt(N), so
    # |D_s - D_r| <= delta sqrt(N) (2 sqrt(D_s) + delta sqrt(N)), and each
    # computed D (N - sum_i |e_i^H a|^2) is within rho = 2 k N (N + 2) eps of
    # its exact value. Relative to the least computed D_s, d, that bounds the
    # spectra's difference; it is below 1e-8 wherever the eigengap exceeds
    # 1e-3 of ||R||
    n = DIFF_GEOM.num_elements
    scenarios = _snapshot_scenarios()
    for (k, x), (vals, peaks), (ref_vals, ref_peaks) in zip(
        scenarios, _snapshot_spectra_and_peaks(scenarios), _covariance_spectra_and_peaks(scenarios), strict=True
    ):
        assert peaks == ref_peaks
        delta, rel_gap = _sin_theta_bound(snapshot_subspace(x, k), sample_covariance(x).matrix)
        rho = 2 * k * n * (n + 2) * np.finfo(float).eps
        d = 1.0 / vals.max()
        rtol = (delta * np.sqrt(n) * (2 * np.sqrt(d + rho) + delta * np.sqrt(n)) + 2 * rho) / d
        np.testing.assert_allclose(vals, ref_vals, rtol=rtol, atol=0)
        if rel_gap > 1e-3:
            assert rtol <= 1e-8


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
    # one eigh for the reference basis and one inside music_localize
    reference = _covariance_spectra_and_peaks(scenarios)
    assert len(fallbacks) == 3 * len(scenarios)
    for (vals, peaks), (ref_vals, ref_peaks) in zip(forced, reference, strict=True):
        assert peaks == ref_peaks
        assert np.array_equal(vals, ref_vals)


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
        half = geom.aperture_m() / 2
        if target.range_m <= half:
            # a source lies beyond half the aperture: one drawn inside it,
            # at a grid range that is not clear, moves just outside
            target = PolarPoint(float(np.nextafter(half, np.inf)), target.angle_rad)
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
        for e in bases:
            values = music_spectrum(e, geom, GRID1, pg)
            peak = music_peaks(values, pg, 1)[0]
            at = (np.searchsorted(pg.angles_rad, peak.angle_rad), np.searchsorted(pg.ranges_m, peak.range_m))
            want.append((peak, float(values[at])))
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


def test_single_source_peak_past_broadside_on_a_symmetric_axis(monkeypatch):
    # on an angle axis symmetric about pi/2 the search screens only the rows
    # with cos >= 0 and reads the angles past pi/2 through reversed weights;
    # a noisy target past broadside must still peak where music_peaks puts
    # the spectrum's first peak, with the spectrum's value there
    geom = ArrayGeometry.ula(32, WL / 2)
    angles = np.linspace(0.4, np.pi - 0.4, 41)
    pg = PolarGrid(angles, np.geomspace(0.05, 1.0, 16))
    bases = [
        snapshot_subspace(collect_snapshots(geom, GRID1, [PolarPoint(0.2, 2.05)], 32, 0.1, seed=s), 1)
        for s in range(4)
    ]
    screened = []

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        if dtype == np.complex64:
            screened.append(cosines.copy())
        return steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)

    monkeypatch.setattr(squint, "steering_chunks", recorded)
    found = list(single_source_peaks(bases, geom, GRID1, pg))
    assert screened and all(c.min() >= 0 for c in screened)
    for (peak, value), e in zip(found, bases, strict=True):
        values = music_spectrum(e, geom, GRID1, pg)
        assert peak == music_peaks(values, pg, 1)[0]
        assert value == values[np.searchsorted(angles, peak.angle_rad), np.searchsorted(pg.ranges_m, peak.range_m)]
        assert peak.angle_rad > np.pi / 2


def test_one_subcarrier_search_takes_one_whole_window_per_chunk(monkeypatch):
    # with one subcarrier every row's span is the whole band, so each chunk
    # of every steering pass, the complex64 screen's and the confirm pass's,
    # yields one window: all its rows at subcarrier 0, as without spans
    geom = ArrayGeometry.ula(32, WL / 2)
    pg = PolarGrid(np.linspace(0.4, 2.4, 41), np.geomspace(0.05, 1.0, 16))
    bases = [
        snapshot_subspace(collect_snapshots(geom, GRID1, [PolarPoint(0.3, 1.1)], 32, 0.1, seed=s), 1)
        for s in range(3)
    ]
    chunks = []  # per chunk: its row count and its windows (m, i, rows)

    def counted(rows, windows):
        for m, i, a in rows:
            windows.append((m, i, len(a)))
            yield m, i, a

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        for lo, hi, rows in steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans):
            chunks.append((hi - lo, []))
            yield lo, hi, counted(rows, chunks[-1][1])

    want = list(single_source_peaks(bases, geom, GRID1, pg))
    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", 7 * geom.num_elements)
    monkeypatch.setattr(squint, "steering_chunks", recorded)
    assert list(single_source_peaks(bases, geom, GRID1, pg)) == want
    assert len(chunks) > 2 and any(size == 7 for size, _ in chunks)
    assert all(windows == [(0, 0, size)] for size, windows in chunks)
