"""Delay-domain decomposition and per-bin Doppler velocity estimation.

The IDFT over the subcarrier axis splits the channel into N delay bins at
tau_i = i / (N * df); each bin's complex time series is turned into a Doppler
velocity series by a sliding-window PSD argmax, and the [stream x bin, time]
velocity rows are SNR gated and z-normalized. The phase derivative Im{h'/h}
(`estimate_velocity_phase`) is the PSD estimator's reference, not a stage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .core import SPEED_OF_LIGHT, CsiFrame, DopplerParams, PipelineConfig, RadioConfig, VelocitySet
from .lanes import in_lanes

VAR_FLOOR = 1e-12
STD_FLOOR = 1e-9
STATIC_FRAC = 0.10  # the SNR gate's static segments: this share of T at each end
MOTION_FRAC = 0.60  # and its motion segment: this central share of T
# Windows per PSD row block, the unit the lanes take: 24 rows of 400 frames or
# 8 rows of 1000 frames at the default window and hop, so a 1 x 16 x 400
# capture is one block and runs on the calling thread
PSD_BLOCK_WINDOWS = 2048


def decompose(frame: CsiFrame, remove_static: bool = True) -> np.ndarray:
    """The IDFT over subcarriers as a complex [stream, bin, time] array:
    h(s; tau_i) = (1/N) sum_n H_n(s) e^{j 2 pi n i / N}.

    Bin i lies at delay i / RadioConfig.bandwidth_hz, so the delay resolution
    is 1 / bandwidth and the path-length resolution c / bandwidth. With
    remove_static=True (the pipeline default) each bin's time mean is
    subtracted, so the static path phasor does not mask motion.
    """
    bins = np.fft.ifft(frame.data, axis=1)
    if remove_static:
        bins = bins - bins.mean(axis=2, keepdims=True)
    return bins


def periodic_sinc(x, n: int):
    """sinc_N(x) = sin(pi N x) / (N sin(pi x)), the finite-IDFT leakage envelope.

    At integer x the removable singularity evaluates to (-1)^{x (N-1)}.
    """
    x = np.asarray(x, dtype=np.float64)
    denom = np.sin(np.pi * x)
    near_int = np.abs(denom) < 1e-12
    safe = np.where(near_int, 1.0, denom)
    vals = np.sin(np.pi * n * x) / (n * safe)
    ints = np.rint(x).astype(np.int64)
    limit = np.where((ints * (n - 1)) % 2 == 0, 1.0, -1.0)
    return np.where(near_int, limit, vals)


def estimate_velocity_psd(series: np.ndarray, radio: RadioConfig, params: DopplerParams) -> np.ndarray:
    """Velocity per frame of every row of a complex [rows, T] array, from the
    argmax of a sliding Hann-windowed PSD.

    Each window is zero-padded to params.fft_pad; the two-sided frequency grid
    spans (-fs/2, fs/2]; the window estimates are linearly interpolated back to
    the input length. The gather index, window, speed table, window centres
    and interpolation grid are built once. The rows go in blocks of about
    PSD_BLOCK_WINDOWS windows to the lanes of `moric.lanes`, which take them
    one at a time; a block allocates one zero-padded [windows, fft_pad]
    buffer and one power buffer, writes each of its rows' windows into them
    in turn and writes only its own rows of the output. An FFT of the padded
    buffer is bitwise the FFT with n=fft_pad, and faster.
    """
    series = np.asarray(series, dtype=np.complex128)
    if series.ndim != 2:
        raise ValueError(f"expected a [rows, T] batch, got shape {series.shape}")
    t = series.shape[1]
    w = params.window_len
    if w > t:
        raise ValueError(f"window_len {w} exceeds series length {t}")
    fs = radio.sample_rate_hz
    starts = np.arange(0, t - w + 1, params.hop)
    index = starts[:, None] + np.arange(w)[None, :]
    window = np.hanning(w)[None, :]
    freqs = np.fft.fftfreq(params.fft_pad, d=1.0 / fs)
    freqs = np.where(freqs == -fs / 2.0, fs / 2.0, freqs)  # grid is (-fs/2, fs/2]
    speeds = radio.wavelength_m * freqs
    centers = starts + (w - 1) / 2.0
    grid = np.arange(t, dtype=np.float64)
    out = np.empty(series.shape)
    block = max(1, PSD_BLOCK_WINDOWS // len(starts))

    def rows_block(b: int) -> None:
        padded = np.zeros((len(starts), params.fft_pad), dtype=np.complex128)
        power = np.empty(padded.shape)
        for row in range(b * block, min((b + 1) * block, len(series))):
            np.multiply(series[row, index], window, out=padded[:, :w])
            np.abs(np.fft.fft(padded, axis=1), out=power)
            np.square(power, out=power)
            out[row] = np.interp(grid, centers, speeds[np.argmax(power, axis=1)])

    in_lanes(rows_block, -(-len(series) // block))
    return out


def estimate_velocity_phase(bin_series: np.ndarray, radio: RadioConfig) -> np.ndarray:
    """Velocity per frame from the instantaneous phase derivative.

    The per-sample derivative is the centered mean of the adjacent
    phase increments angle(h[s+1] h*[s]) (one-sided at the edges), the
    discrete form of Im{h'/h} that stays unbiased for tones up to the
    Nyquist rate. Samples whose magnitude falls below 1e-12 of the series
    maximum are set to zero; an all-zero series maps to an all-zero output.
    """
    x = np.asarray(bin_series, dtype=np.complex128)
    t = len(x)
    if t < 2:
        raise ValueError("need at least 2 samples")
    mags = np.abs(x)
    peak = mags.max()
    out = np.zeros(t)
    if peak == 0.0:
        return out
    fs = radio.sample_rate_hz
    inc = np.angle(x[1:] * np.conj(x[:-1]))  # phase step per frame
    dphi = np.empty(t)
    dphi[1:-1] = (inc[1:] + inc[:-1]) * (fs / 2.0)
    dphi[0] = inc[0] * fs
    dphi[-1] = inc[-1] * fs
    mask = mags >= 1e-12 * peak
    out[mask] = SPEED_OF_LIGHT / (2.0 * np.pi * radio.carrier_hz) * dphi[mask]
    return out


def snr_gate(
    values: np.ndarray, threshold_db: float = PipelineConfig.snr_threshold_db
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate each row of `values` [rows, T] on its motion-to-static variance ratio.

    The static segments are the first and last STATIC_FRAC of the window,
    the motion segment is the central MOTION_FRAC. Returns (values, snr_db,
    gated): rows at or below the threshold are zeroed and marked gated.
    """
    values = np.asarray(values, dtype=np.float64)
    t = values.shape[1]
    if not np.isfinite(threshold_db):
        raise ValueError(f"threshold_db must be finite, got {threshold_db}")
    if t < 20:
        raise ValueError(f"need at least 20 samples to gate, got {t}")
    n_edge = max(1, int(round(STATIC_FRAC * t)))
    lo = int(round((1.0 - MOTION_FRAC) / 2.0 * t))
    static = np.concatenate([values[:, :n_edge], values[:, t - n_edge :]], axis=1)
    motion = values[:, lo : t - lo]
    snr_db = 10.0 * np.log10(
        np.maximum(motion.var(axis=1), VAR_FLOOR) / np.maximum(static.var(axis=1), VAR_FLOOR)
    )
    gated = snr_db <= threshold_db
    return np.where(gated[:, None], 0.0, values), snr_db, gated


def normalize(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance scaling of each row of `values` [rows, T].

    The standard deviation is floored at STD_FLOOR, so constant rows, and
    the all-zero gated rows among them, map to zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    std = np.maximum(values.std(axis=1, keepdims=True), STD_FLOOR)
    return (values - values.mean(axis=1, keepdims=True)) / std


def extract_velocity_set(
    frame: CsiFrame,
    params: Optional[DopplerParams] = None,
    snr_threshold_db: float = PipelineConfig.snr_threshold_db,
) -> VelocitySet:
    """Decompose a (sanitized) frame and estimate one velocity row per
    (stream, delay bin), stream-major, gated and normalized."""
    params = params or DopplerParams()
    bins = decompose(frame)
    values = estimate_velocity_psd(bins.reshape(-1, frame.n_time), frame.config, params)
    values, snr_db, gated = snr_gate(values, threshold_db=snr_threshold_db)
    values = normalize(values)
    streams, delay_bins = np.indices(bins.shape[:2]).reshape(2, -1)
    return VelocitySet(
        values=values,
        delay_bins=delay_bins,
        streams=streams,
        snr_db=snr_db,
        gated=gated,
        source=frame.meta.sample_id if frame.meta is not None else "",
    )
