import dataclasses

import numpy as np
import pytest

from moric.core import CsiFrame
from moric.delay_doppler import (
    STD_FLOOR,
    VAR_FLOOR,
    DopplerParams,
    decompose,
    estimate_velocity_phase,
    estimate_velocity_psd,
    extract_velocity_set,
    normalize,
    periodic_sinc,
    snr_gate,
)
from moric.sanitize import sanitize_frame
from moric.simulator import NoiseParams, Scene, ScatterCluster, Trajectory, synthesize_csi

from conftest import make_gesture_scene, make_radio, random_frame


def _frame(data, sample_rate_hz=100.0):
    data = np.asarray(data, dtype=complex)
    cfg = make_radio(n_subcarriers=data.shape[1], sample_rate_hz=sample_rate_hz)
    return CsiFrame(config=cfg, data=data)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_decompose_constant_channel_hits_bin_zero():
    n, t = 16, 3
    frame = _frame(np.ones((1, n, t)))
    bins = decompose(frame, remove_static=False)[0]
    assert np.allclose(bins[0], 1.0, atol=1e-12)
    assert np.allclose(bins[1:], 0.0, atol=1e-12)


def test_decompose_tone_lands_in_bin_three():
    n, t = 52, 4
    h = np.exp(-2j * np.pi * np.arange(n) * 3 / n)[None, :, None] * np.ones((1, n, t))
    frame = _frame(h)
    bins = decompose(frame, remove_static=False)[0]
    # independent direct-summation oracle
    expected = np.array(
        [np.mean(h[0, :, 0] * np.exp(2j * np.pi * np.arange(n) * i / n)) for i in range(n)]
    )
    assert np.allclose(bins[:, 0], expected, atol=1e-12)
    energy = np.abs(bins[:, 0]) ** 2
    assert energy[3] > 0.999 * energy.sum()


def test_decompose_two_paths_two_maxima():
    n, t = 52, 2
    k = np.arange(n)
    h = (
        np.exp(-2j * np.pi * k * 3 / n) + np.exp(-2j * np.pi * k * 9 / n)
    )[None, :, None] * np.ones((1, n, t))
    mags = np.abs(decompose(_frame(h), remove_static=False)[0, :, 0])
    top2 = set(np.argsort(mags)[-2:])
    assert top2 == {3, 9}


def test_decompose_profile_metadata():
    # one [bin, time] block per stream, stream-major
    frame = _frame(np.ones((2, 52, 3)))
    bins = decompose(frame)
    assert bins.shape == (2, 52, 3) and bins.dtype == np.complex128


def test_decompose_is_the_ifft_over_subcarriers_bitwise():
    frame = random_frame(np.random.default_rng(19), n_streams=3, n_subcarriers=16, n_time=40)
    raw = np.fft.ifft(frame.data, axis=1)
    assert decompose(frame, remove_static=False).tobytes() == raw.tobytes()
    assert decompose(frame).tobytes() == (raw - raw.mean(axis=2, keepdims=True)).tobytes()


def test_parseval_identity():
    rng = np.random.default_rng(17)
    n, t = 52, 8
    data = rng.normal(size=(1, n, t)) + 1j * rng.normal(size=(1, n, t))
    frame = _frame(data)
    bins = decompose(frame, remove_static=False)[0]
    lhs = np.sum(np.abs(bins) ** 2, axis=0)
    rhs = np.sum(np.abs(data[0]) ** 2, axis=0) / n
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_leakage_follows_periodic_sinc_envelope():
    n = 52
    df = 312.5e3
    rng = np.random.default_rng(18)
    for _ in range(5):
        tau = rng.uniform(0, (n - 1) / (n * df))
        h = np.exp(-2j * np.pi * np.arange(n) * df * tau)[None, :, None] * np.ones((1, n, 2))
        frame = _frame(h)
        mags = np.abs(decompose(frame, remove_static=False)[0, :, 0])
        bin_delay_s = np.arange(n) / frame.config.bandwidth_hz
        expected = np.abs(periodic_sinc(df * (bin_delay_s - tau), n))
        assert np.max(np.abs(mags - expected)) < 1e-6


def significant_local_maxima(mags, rel_threshold=0.5):
    """Local maxima above rel_threshold * global max; the Dirichlet envelope
    keeps sidelobes at <= 0.22 of the main lobe, so this isolates true peaks."""
    mags = np.asarray(mags)
    peaks = []
    for i in range(len(mags)):
        left = mags[i - 1] if i > 0 else -np.inf
        right = mags[i + 1] if i < len(mags) - 1 else -np.inf
        if mags[i] > left and mags[i] > right and mags[i] >= rel_threshold * mags.max():
            peaks.append(i)
    return peaks


def test_quarter_resolution_paths_merge():
    n = 52
    df = 312.5e3
    dtau = 1.0 / (n * df)
    k = np.arange(n)
    tau0 = 10 * dtau
    h = (
        np.exp(-2j * np.pi * k * df * tau0) + np.exp(-2j * np.pi * k * df * (tau0 + dtau / 4))
    )[None, :, None] * np.ones((1, n, 2))
    mags = np.abs(decompose(_frame(h), remove_static=False)[0, :, 0])
    assert len(significant_local_maxima(mags)) == 1


def test_supra_resolution_paths_stay_distinct():
    # paths separated by 2x and 4x the delay resolution keep two peaks
    n = 52
    df = 312.5e3
    dtau = 1.0 / (n * df)
    k = np.arange(n)
    for sep_bins in (2, 4):
        tau0 = 10 * dtau
        h = (
            np.exp(-2j * np.pi * k * df * tau0)
            + np.exp(-2j * np.pi * k * df * (tau0 + sep_bins * dtau))
        )[None, :, None] * np.ones((1, n, 2))
        mags = np.abs(decompose(_frame(h), remove_static=False)[0, :, 0])
        assert len(significant_local_maxima(mags)) == 2


# ---------------------------------------------------------------------------
# PSD velocity estimation
# ---------------------------------------------------------------------------


def test_psd_constant_series_is_zero_velocity(radio):
    params = DopplerParams(window_len=64, hop=4, fft_pad=512)
    v = estimate_velocity_psd(np.ones((1, 200), dtype=complex), radio, params)
    assert np.allclose(v, 0.0)


def test_psd_positive_tone_velocity(radio):
    # e^{j 2 pi 10 s / fs} at fs=100: v = lambda * 10 = 1.2491 m/s
    params = DopplerParams(window_len=64, hop=4, fft_pad=512)
    fs = radio.sample_rate_hz
    s = np.arange(300)
    x = np.exp(2j * np.pi * 10.0 * s / fs)
    v = estimate_velocity_psd(x[None], radio, params)[0]
    lam = radio.wavelength_m
    grid = lam * fs / params.fft_pad
    assert lam * 10.0 == pytest.approx(1.2491352, rel=1e-6)
    assert np.max(np.abs(v - lam * 10.0)) <= grid

    # independent oracle: direct DFT peak of one full window
    win = x[:64] * np.hanning(64)
    spec = np.abs(np.fft.fft(win, 512)) ** 2
    freqs = np.fft.fftfreq(512, 1 / fs)
    assert lam * freqs[np.argmax(spec)] == pytest.approx(v[100], abs=1e-12)


def test_psd_negative_tone_velocity(radio):
    params = DopplerParams(window_len=64, hop=4, fft_pad=512)
    fs = radio.sample_rate_hz
    s = np.arange(300)
    x = np.exp(-2j * np.pi * 20.0 * s / fs)
    v = estimate_velocity_psd(x[None], radio, params)[0]
    lam = radio.wavelength_m
    assert -lam * 20.0 == pytest.approx(-2.4983, rel=1e-4)
    assert np.max(np.abs(v + lam * 20.0)) <= lam * fs / params.fft_pad


def test_psd_rejects_window_longer_than_series(radio):
    params = DopplerParams(window_len=64, hop=4, fft_pad=512)
    with pytest.raises(ValueError):
        estimate_velocity_psd(np.ones((1, 32), dtype=complex), radio, params)


def test_psd_rejects_input_that_is_not_rows_by_time(radio):
    params = DopplerParams(window_len=16, hop=4, fft_pad=64)
    for shape in ((64,), (2, 3, 64)):
        with pytest.raises(ValueError, match=r"expected a \[rows, T\] batch"):
            estimate_velocity_psd(np.ones(shape, dtype=complex), radio, params)


def test_doppler_params_validation():
    with pytest.raises(ValueError):
        DopplerParams(window_len=64, hop=0)
    with pytest.raises(ValueError):
        DopplerParams(window_len=64, fft_pad=32)


# ---------------------------------------------------------------------------
# Phase-derivative velocity estimation
# ---------------------------------------------------------------------------


def test_phase_constant_series_zero(radio):
    v = estimate_velocity_phase(np.ones(50, dtype=complex), radio)
    assert np.allclose(v, 0.0)


def test_phase_tone_velocity_accuracy(radio):
    fs = radio.sample_rate_hz
    s = np.arange(200)
    x = np.exp(2j * np.pi * 10.0 * s / fs)
    v = estimate_velocity_phase(x, radio)
    lam = radio.wavelength_m
    # closed-form phase slope: v = lambda * 10 away from the edges
    inner = v[2:-2]
    assert np.max(np.abs(inner - lam * 10.0)) < 0.01 * lam * 10.0


def test_phase_conjugation_negates_exactly(radio):
    rng = np.random.default_rng(23)
    x = rng.normal(size=80) + 1j * rng.normal(size=80)
    v = estimate_velocity_phase(x, radio)
    v_conj = estimate_velocity_phase(np.conj(x), radio)
    assert np.array_equal(v_conj, -v)


def test_phase_all_zero_series(radio):
    v = estimate_velocity_phase(np.zeros(40, dtype=complex), radio)
    assert np.array_equal(v, np.zeros(40))


def test_phase_and_psd_agree_on_clean_tone(radio):
    params = DopplerParams(window_len=64, hop=4, fft_pad=512)
    fs = radio.sample_rate_hz
    s = np.arange(400)
    x = np.exp(2j * np.pi * 7.0 * s / fs)
    v_psd = estimate_velocity_psd(x[None], radio, params)[0]
    v_phase = estimate_velocity_phase(x, radio)
    rms = np.sqrt(np.mean((v_psd - v_phase) ** 2))
    assert rms < 0.1


# ---------------------------------------------------------------------------
# SNR gating and normalization
# ---------------------------------------------------------------------------


def _rows(values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def test_gate_iid_noise_is_discarded():
    # equal-variance segments: SNR concentrates near 0 dB, so rows gate
    rng = np.random.default_rng(29)
    _, snrs, gated = snr_gate(rng.normal(size=(50, 500)))
    snrs = np.abs(snrs)
    assert np.median(snrs) < 1.0  # |SNR| concentrates well below the gate
    assert np.mean(snrs < 1.0) >= 0.75
    assert np.all(gated)  # every draw sits at or below the 2 dB threshold


def test_gate_keeps_100x_motion_variance():
    t = 100
    values = np.zeros(t)
    edge = np.tile([1.0, -1.0], 5)
    values[:10] = edge
    values[-10:] = edge
    center = np.tile([10.0, -10.0], 30)
    values[20:80] = center
    out, snr_db, gated = snr_gate(_rows(values))
    assert snr_db[0] == pytest.approx(20.0, abs=1e-9)
    assert not gated[0]
    assert np.array_equal(out[0], values)


def test_gate_all_zero_vector():
    out, snr_db, gated = snr_gate(_rows(np.zeros(100)))
    assert snr_db[0] == pytest.approx(0.0)
    assert gated[0]
    assert np.all(out == 0)


def test_gate_requires_minimum_length():
    with pytest.raises(ValueError):
        snr_gate(_rows(np.zeros(10)))


def test_normalize_constant_vector_to_zeros():
    assert np.allclose(normalize(_rows(np.full(50, 2.5))), 0.0)


def test_normalize_affine_invariance():
    rng = np.random.default_rng(31)
    x = rng.normal(size=64)
    a, b = 3.7, -1.2
    v1 = normalize(_rows(x))
    v2 = normalize(_rows(a * x + b))
    assert np.allclose(v1, v2, atol=1e-12)


def test_normalize_moments():
    rng = np.random.default_rng(32)
    v = normalize(_rows(rng.normal(loc=4.0, scale=2.0, size=256)))[0]
    assert abs(v.mean()) < 1e-12
    assert abs(v.std() - 1.0) < 1e-9


def test_normalize_passes_gated_through():
    rng = np.random.default_rng(33)
    values, _, gated = snr_gate(np.vstack([np.zeros(50), rng.normal(size=50)]))
    out = normalize(values)
    assert gated[0]
    assert np.all(out[0] == 0)


# Per-row reference: the gate and normalization as they ran on one velocity
# series at a time before velocity sets became arrays.


def _reference_gate(values, threshold_db=2.0, static_frac=0.10, motion_frac=0.60):
    t = len(values)
    n_edge = max(1, int(round(static_frac * t)))
    lo = int(round((1.0 - motion_frac) / 2.0 * t))
    static = np.concatenate([values[:n_edge], values[t - n_edge :]])
    motion = values[lo : t - lo]
    snr_db = 10.0 * np.log10(
        max(float(np.var(motion)), VAR_FLOOR) / max(float(np.var(static)), VAR_FLOOR)
    )
    if snr_db <= threshold_db:
        return np.zeros(t), snr_db, True
    return values, snr_db, False


def _reference_normalize(values, gated):
    if gated:
        return values
    return (values - values.mean()) / max(float(values.std()), STD_FLOOR)


def _reference_psd(bin_series, radio, params):
    """estimate_velocity_psd as it ran one series at a time, each window
    zero-padded by the FFT call itself."""
    x = np.asarray(bin_series, dtype=np.complex128)
    t = len(x)
    w = params.window_len
    fs = radio.sample_rate_hz
    lam = radio.wavelength_m
    starts = np.arange(0, t - w + 1, params.hop)
    segments = x[starts[:, None] + np.arange(w)[None, :]] * np.hanning(w)[None, :]
    spectra = np.abs(np.fft.fft(segments, n=params.fft_pad, axis=1)) ** 2
    freqs = np.fft.fftfreq(params.fft_pad, d=1.0 / fs)
    freqs = np.where(freqs == -fs / 2.0, fs / 2.0, freqs)
    peak_v = lam * freqs[np.argmax(spectra, axis=1)]
    centers = starts + (w - 1) / 2.0
    return np.interp(np.arange(t, dtype=np.float64), centers, peak_v)


def _reference_velocity_rows(frame, params, apply_normalize):
    rows = []
    for stream, bins in enumerate(decompose(frame, remove_static=True)):
        for i, series in enumerate(bins):
            v = _reference_psd(series, frame.config, params)
            v, snr_db, gated = _reference_gate(v)
            if apply_normalize:
                v = _reference_normalize(v, gated)
            rows.append((v, i, stream, snr_db, gated))
    values, bins, streams, snr_db, gated = zip(*rows)
    return np.stack(values), np.array(bins), np.array(streams), np.array(snr_db), np.array(gated)


def _sanitized_frames():
    """A clean 1-stream and an impaired 3-stream capture of 400 frames, and an
    impaired 3-stream capture of 1000 frames, all 16 subcarriers."""
    rng = np.random.default_rng(34)
    radio = make_radio(n_subcarriers=16)
    impaired = NoiseParams(csd_delay_s=(0.0, 50e-9, 100e-9), sto_walk_std_s=5e-9, awgn_snr_db=15.0)
    frames = []
    for gesture, streams, noise, duration_s in (
        ("circle", 1, None, 4.0),
        ("push_pull", 3, impaired, 4.0),
        ("left_right", 3, impaired, 10.0),
    ):
        scene = make_gesture_scene(rng, gesture, radio, duration_s=duration_s)
        scene = dataclasses.replace(scene, n_streams=streams, noise=noise or scene.noise)
        frames.append(sanitize_frame(synthesize_csi(scene, seed=streams)[0]))
    return frames


_PARAM_SETS = (DopplerParams(), DopplerParams(window_len=40, hop=3, fft_pad=256))


def test_extract_velocity_set_matches_per_row_reference_bitwise():
    n_gated = n_rows = 0
    for frame in _sanitized_frames():
        for params in _PARAM_SETS:
            for apply_normalize in (True, False):
                vs = extract_velocity_set(frame, params, apply_normalize=apply_normalize)
                values, bins, streams, snr_db, gated = _reference_velocity_rows(
                    frame, params, apply_normalize
                )
                assert vs.values.tobytes() == values.tobytes()
                assert vs.snr_db.tobytes() == snr_db.tobytes()
                assert np.array_equal(vs.gated, gated)
                assert np.array_equal(vs.delay_bins, bins) and np.array_equal(vs.streams, streams)
                n_gated += int(gated.sum())
                n_rows += len(gated)
    assert 0 < n_gated < n_rows


def test_estimate_velocity_psd_is_one_row_of_the_set():
    # one delay-bin row run through the estimator alone and the set's rows
    # before gating agree bitwise
    for frame in _sanitized_frames()[1:]:
        for params in _PARAM_SETS:
            vs = extract_velocity_set(frame, params, apply_normalize=False)
            series = decompose(frame, remove_static=True).reshape(-1, frame.n_time)
            kept = np.flatnonzero(~vs.gated)
            assert kept.size > 0
            for row in kept:
                v = estimate_velocity_psd(series[row][None], frame.config, params)[0]
                assert v.tobytes() == vs.values[row].tobytes()
                assert v.tobytes() == _reference_psd(series[row], frame.config, params).tobytes()


# ---------------------------------------------------------------------------
# End-to-end velocity extraction on simulator output
# ---------------------------------------------------------------------------


def test_extract_velocity_set_keeps_motion_bin(radio):
    # a mid-capture gesture lights up exactly the cluster's delay bin; the
    # recovered series tracks the projected velocity's shape
    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    m = np.array([0.0, 1.0, 0.0])
    scene = Scene(
        radio=radio,
        point_start=(1.0, 2.0, 1.0),
        trajectory=Trajectory(
            kind="gesture",
            gesture="push_pull",
            amplitude_m=0.15,
            period_s=0.8,
            active_start_s=0.8,
            active_duration_s=1.4,
        ),
        duration_s=3.0,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=m, concentration=1e6, n_scatterers=100, delay_s=5 / (n * df)
            ),
        ),
    )
    frame, truth = synthesize_csi(scene, seed=51)
    vs = extract_velocity_set(frame, DopplerParams(), apply_normalize=False)
    (target,) = np.flatnonzero((vs.streams == 0) & (vs.delay_bins == 5))
    assert not vs.gated[target]
    truth_series = truth.projected_velocity[0]
    corr = np.corrcoef(vs.values[target], truth_series)[0, 1]
    assert corr > 0.7
    assert vs.n_time == frame.n_time


def test_psd_recovers_projection_on_moderate_cluster(radio):
    # kappa >= 1e3, SNR >= 30 dB: PSD argmax recovers v(s) . m within
    # max(0.05 m/s, one frequency-grid cell)
    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    params = DopplerParams()
    m = np.array([0.0, 0.0, 1.0])
    for target in (0.4, -1.2):
        scene = Scene(
            radio=radio,
            point_start=(1.5, 1.0, 1.2),
            trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, target)),
            duration_s=2.56,
            frame_rate_hz=radio.sample_rate_hz,
            clusters=(
                ScatterCluster(
                    mean_direction=m, concentration=1e3, n_scatterers=150, delay_s=4 / (n * df)
                ),
            ),
            noise=NoiseParams(awgn_snr_db=30.0),
        )
        frame, _ = synthesize_csi(scene, seed=81)
        series = decompose(frame, remove_static=True)[0, 4]
        v = estimate_velocity_psd(series[None], radio, params)[0]
        tol = max(0.05, radio.wavelength_m * radio.sample_rate_hz / params.fft_pad)
        rms = np.sqrt(np.mean((v - target) ** 2))
        assert rms <= tol, f"target {target}: rms {rms:.4f} > {tol:.4f}"

