import numpy as np
import pytest

from moric.core import CsiFrame
from moric.sanitize import (
    HAMPEL_MAD_FLOOR,
    HAMPEL_MAD_SCALE,
    MEDIAN_BLOCK_SAMPLES,
    _median_network,
    _select_median,
    compensate_phase,
    hampel_batch,
    hampel_complex,
    sanitize_frame,
    unwrap_phase,
)
from moric.simulator import NoiseParams, Scene, Trajectory, synthesize_csi

from conftest import make_radio


def _frame_from_phase(phases, magnitude=1.0):
    """Single-stream frame; 1-D input is a per-subcarrier phase profile."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim == 1:
        phases = phases[:, None]
    if phases.shape[1] < 2:
        phases = np.repeat(phases, 2, axis=1)
    n = phases.shape[0]
    cfg = make_radio(n_subcarriers=n)
    data = magnitude * np.exp(1j * phases)[None, :, :]
    return CsiFrame(config=cfg, data=data)


def test_pure_linear_trend_removed():
    n = 52
    k = np.arange(n)
    frame = _frame_from_phase(0.3 * k + 1.2)
    out = compensate_phase(frame)
    assert np.max(np.abs(np.angle(out.data))) < 1e-9


def test_constant_phase_removed():
    frame = _frame_from_phase(np.full(52, 0.7))
    out = compensate_phase(frame)
    assert np.max(np.abs(np.angle(out.data))) < 1e-12


def test_sinusoidal_residual_matches_least_squares_oracle():
    n = 52
    k = np.arange(1, n + 1, dtype=float)
    wiggle = 0.01 * np.sin(2 * np.pi * k / 13.0)
    theta = 0.1 * k + 0.5 + wiggle
    frame = _frame_from_phase(theta)
    out = compensate_phase(frame)
    # independent oracle: residual of the sinusoid about its own LS line
    slope, intercept = np.polyfit(k, wiggle, 1)
    expected = wiggle - (slope * k + intercept)
    assert np.allclose(np.angle(out.data[0, :, 0]), expected, atol=1e-9)


def test_compensation_is_idempotent():
    rng = np.random.default_rng(8)
    n = 52
    k = np.arange(n)
    theta = 0.2 * k + 0.4 + 0.05 * rng.normal(size=n)
    frame = _frame_from_phase(theta)
    once = compensate_phase(frame)
    twice = compensate_phase(once)
    assert np.allclose(once.data, twice.data, atol=1e-12)


def test_magnitude_preserved():
    rng = np.random.default_rng(9)
    cfg = make_radio(n_subcarriers=16)
    data = rng.normal(size=(2, 16, 5)) + 1j * rng.normal(size=(2, 16, 5))
    frame = CsiFrame(config=cfg, data=data)
    out = compensate_phase(frame)
    assert np.allclose(np.abs(out.data), np.abs(data), rtol=1e-12, atol=0)


def test_single_subcarrier_rejected():
    cfg = make_radio(n_subcarriers=2)
    frame = CsiFrame(config=cfg, data=np.ones((1, 2, 2), dtype=complex))
    # N = 2 is the smallest legal grid; the degenerate case is caught by RadioConfig
    compensate_phase(frame)
    with pytest.raises(ValueError):
        make_radio(n_subcarriers=1)


def test_unwrap_ties_toward_positive_pi():
    # a jump of exactly -pi must unwrap as +pi
    seq = np.array([0.0, -np.pi])
    out = unwrap_phase(seq)
    assert out[1] == pytest.approx(np.pi)
    seq2 = np.array([0.0, np.pi])
    assert unwrap_phase(seq2)[1] == pytest.approx(np.pi)


def test_compensation_restores_sto_sfo_phase_variance(radio):
    """On a static channel, the post-compensation across-subcarrier phase
    variance with STO/SFO enabled matches the clean run within 10%."""

    def scene(noise):
        return Scene(
            radio=radio,
            point_start=(1.0, 1.0, 1.0),
            trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, 0.0)),
            duration_s=1.0,
            frame_rate_hz=radio.sample_rate_hz,
            static_paths=((30e-9, 1.0 + 0.0j),),
            noise=noise,
        )

    def mean_phase_var(frame):
        out = compensate_phase(frame)
        residual = np.angle(out.data[0])  # [N, T]
        return float(np.mean(np.var(residual, axis=0)))

    distorted, _ = synthesize_csi(
        scene(NoiseParams(sto_walk_std_s=2e-9, sfo_ratio=1 + 2e-8, awgn_snr_db=30.0)), seed=33
    )
    clean, _ = synthesize_csi(scene(NoiseParams(awgn_snr_db=30.0)), seed=33)
    v_distorted = mean_phase_var(distorted)
    v_clean = mean_phase_var(clean)
    assert v_distorted == pytest.approx(v_clean, rel=0.10)


# ---------------------------------------------------------------------------
# Hampel filter
# ---------------------------------------------------------------------------


def test_hampel_constant_series_unchanged():
    x = np.full(20, 3.5)
    assert np.array_equal(hampel_batch(x[None], window=5, n_sigmas=3.0)[0], x)


def test_hampel_replaces_isolated_spike():
    x = np.array([0.0, 0, 0, 10.0, 0, 0, 0])
    out = hampel_batch(x[None], window=5, n_sigmas=3.0)[0]
    # oracle: median of the spike's window is 0, MAD is 0 (floored), so the
    # spike exceeds any threshold and is replaced by the median
    assert out[3] == 0.0
    assert np.array_equal(out[[0, 1, 2, 4, 5, 6]], np.zeros(6))


def test_hampel_ramp_unchanged():
    x = np.arange(10, dtype=float)
    out = hampel_batch(x[None], window=5, n_sigmas=3.0)[0]
    # oracle: in every centered window of a ramp, |x - med| <= 2 while
    # 3 * 1.4826 * MAD >= 3 * 1.4826 * 1, so nothing is flagged
    assert np.array_equal(out, x)


def test_hampel_never_leaves_window_range():
    rng = np.random.default_rng(12)
    x = rng.normal(size=200)
    x[::17] += rng.normal(scale=20.0, size=len(x[::17]))
    out = hampel_batch(x[None], window=11, n_sigmas=3.0)[0]
    half = 5
    for j in range(len(x)):
        lo, hi = max(0, j - half), min(len(x), j + half + 1)
        assert x[lo:hi].min() <= out[j] <= x[lo:hi].max()


def test_hampel_validates_window():
    with pytest.raises(ValueError):
        hampel_batch(np.zeros((1, 10)), window=4)
    with pytest.raises(ValueError):
        hampel_batch(np.zeros((1, 10)), window=1)


def test_hampel_rejects_input_that_is_not_rows_by_time():
    for shape in ((10,), (2, 3, 10)):
        with pytest.raises(ValueError, match=r"expected a \[rows, T\] batch"):
            hampel_batch(np.zeros(shape))
        with pytest.raises(ValueError, match=r"expected a \[rows, T\] batch"):
            hampel_complex(np.zeros(shape, dtype=complex))


def test_hampel_complex_filters_parts_independently():
    re = np.array([0.0, 0, 0, 10.0, 0, 0, 0])
    im = np.array([1.0, 1, 1, 1, 1, 1, -9.0])
    out = hampel_complex((re + 1j * im)[None], window=5, n_sigmas=3.0)[0]
    assert out[3].real == 0.0
    assert out[6].imag == 1.0
    assert np.array_equal(out.real[[0, 1, 2, 4, 5, 6]], re[[0, 1, 2, 4, 5, 6]])


def _reference_hampel(x, window, n_sigmas):
    """The per-column definition: median and MAD of each centered window,
    truncated at the edges, computed with np.median."""
    t = x.shape[1]
    half = window // 2
    out = x.copy()
    for j in range(t):
        win = x[:, max(0, j - half) : min(t, j + half + 1)]
        med = np.median(win, axis=1)
        mad = np.median(np.abs(win - med[:, None]), axis=1)
        thresh = n_sigmas * HAMPEL_MAD_SCALE * np.maximum(mad, HAMPEL_MAD_FLOOR)
        outlier = np.abs(x[:, j] - med) > thresh
        out[outlier, j] = med[outlier]
    return out


def _spiky_rows(rng, rows, t):
    x = rng.normal(size=(rows, t))
    spikes = rng.random(size=(rows, t)) < 0.05
    x[spikes] += rng.normal(scale=25.0, size=spikes.sum())
    x[0] = 2.0  # constant row: MAD is 0 everywhere and the floor applies
    x[1, : t // 2] = -1.0  # constant run next to noise
    return x


@pytest.mark.parametrize("window", [3, 5, 11])
def test_hampel_batch_matches_per_column_reference_bitwise(window):
    rng = np.random.default_rng(window)
    for t in (1, window - 1, window, window + 1, 1000):
        x = _spiky_rows(rng, 4, t)
        assert np.array_equal(hampel_batch(x, window, 3.0), _reference_hampel(x, window, 3.0)), t
    # rows spanning several median-network row blocks, and tie-heavy
    # integer-valued rows where many window values equal the median
    many = _spiky_rows(rng, 40, 1000)
    assert 40 * (1000 - 2 * (window // 2)) > 2 * MEDIAN_BLOCK_SAMPLES
    ties = rng.integers(-2, 3, size=(40, 300)).astype(np.float64)
    ties[rng.random(size=ties.shape) < 0.05] *= 40.0
    for x in (many, ties):
        assert hampel_batch(x, window, 3.0).tobytes() == _reference_hampel(x, window, 3.0).tobytes()


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_median_network_selects_the_median_of_every_zero_one_input(n):
    # by the 0-1 principle a comparator network that selects the median of
    # every 0/1 input selects the median of every input
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    values = [bits[:, k].astype(np.float64) for k in range(n)]
    median = _select_median(values, np.empty(2**n))
    assert np.array_equal(median, (bits.sum(axis=1) > n // 2).astype(np.float64))
    network = _median_network(n)
    assert all(0 <= i < j < n and (lo or hi) for i, j, lo, hi in network)


def test_median_network_keeps_31_of_37_comparators_for_11_inputs():
    assert len(_median_network(11)) == 31


def test_hampel_complex_equals_filtering_parts_separately():
    rng = np.random.default_rng(5)
    z = _spiky_rows(rng, 6, 300) + 1j * _spiky_rows(rng, 6, 300)
    out = hampel_complex(z, window=11, n_sigmas=3.0)
    assert out.real.tobytes() == hampel_batch(z.real, 11, 3.0).tobytes()
    assert out.imag.tobytes() == hampel_batch(z.imag, 11, 3.0).tobytes()


def test_sanitize_frame_round_trips_through_delay_domain(radio):
    # with no outliers present, the IDFT -> filter -> DFT round trip is exact
    scene = Scene(
        radio=radio,
        point_start=(1.0, 1.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, 0.0)),
        duration_s=0.3,
        frame_rate_hz=radio.sample_rate_hz,
        static_paths=((30e-9, 1.0 + 0.0j),),
    )
    frame, _ = synthesize_csi(scene, seed=2)
    plain = compensate_phase(frame)
    filtered = sanitize_frame(frame)
    assert np.allclose(plain.data, filtered.data, atol=1e-12)
