"""Delay-domain decomposition and per-bin Doppler velocity estimation.

The IDFT over the subcarrier axis splits the channel into N delay bins at
tau_i = i / (N * df); each bin's complex time series is turned into a Doppler
velocity series either by a sliding-window PSD argmax (robust default) or by
the instantaneous phase derivative Im{h'/h}. The [stream x bin, time] velocity
rows are then SNR gated and z-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import SPEED_OF_LIGHT, CsiFrame, RadioConfig, VelocitySet

VAR_FLOOR = 1e-12
STD_FLOOR = 1e-9
SNR_THRESHOLD_DB = 2.0


@dataclass(frozen=True)
class DelayProfile:
    """Per-stream delay decomposition: bins[i, s] = h(s; tau_i)."""

    bins: np.ndarray
    stream: int
    bin_delay_s: np.ndarray
    delta_tau_min_s: float
    delta_d_min_m: float

    def __post_init__(self):
        if self.bins.shape[0] != len(self.bin_delay_s):
            raise ValueError("one delay value per bin required")


@dataclass(frozen=True)
class DopplerParams:
    """Sliding-window Doppler estimation parameters.

    The SNR gate compares motion and static segments of the interpolated
    velocity series, so captures should satisfy T >= ~5x window_len for the
    static edges to span several window estimates.
    """

    window_len: int = 64
    hop: int = 4
    fft_pad: int = 512
    window_fn: str = "hann"
    estimator: str = "psd_argmax"  # or "phase_derivative"

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.fft_pad < self.window_len:
            raise ValueError("fft_pad must be >= window_len")
        if self.window_fn != "hann":
            raise ValueError(f"unsupported window function {self.window_fn!r}")
        if self.estimator not in ("psd_argmax", "phase_derivative"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


def decompose(frame: CsiFrame, remove_static: bool = True) -> List[DelayProfile]:
    """IDFT over subcarriers: h(s; tau_i) = (1/N) sum_n H_n(s) e^{j 2 pi n i / N}.

    With remove_static=True (the pipeline default) each bin's temporal mean is
    subtracted so the static path phasor does not mask motion; pass False to
    inspect the raw decomposition (energy conservation, leakage).
    """
    n = frame.config.n_subcarriers
    df = frame.config.subcarrier_spacing_hz
    bins_all = np.fft.ifft(frame.data, axis=1)  # [S, N, T]
    if remove_static:
        bins_all = bins_all - bins_all.mean(axis=2, keepdims=True)
    delta_tau = 1.0 / (n * df)
    delays = np.arange(n) * delta_tau
    return [
        DelayProfile(
            bins=bins_all[m],
            stream=m,
            bin_delay_s=delays,
            delta_tau_min_s=delta_tau,
            delta_d_min_m=SPEED_OF_LIGHT * delta_tau,
        )
        for m in range(frame.n_streams)
    ]


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


def estimate_velocity_psd(
    bin_series: np.ndarray, radio: RadioConfig, params: DopplerParams
) -> np.ndarray:
    """Velocity per frame from the argmax of a sliding Hann-windowed PSD.

    Each window is zero-padded to params.fft_pad; the two-sided frequency grid
    spans (-fs/2, fs/2]; the window estimates are linearly interpolated back to
    the input length.
    """
    x = np.asarray(bin_series, dtype=np.complex128)
    t = len(x)
    w = params.window_len
    if w > t:
        raise ValueError(f"window_len {w} exceeds series length {t}")
    fs = radio.sample_rate_hz
    lam = radio.wavelength_m
    starts = np.arange(0, t - w + 1, params.hop)
    segments = x[starts[:, None] + np.arange(w)[None, :]] * np.hanning(w)[None, :]
    spectra = np.abs(np.fft.fft(segments, n=params.fft_pad, axis=1)) ** 2
    freqs = np.fft.fftfreq(params.fft_pad, d=1.0 / fs)
    freqs = np.where(freqs == -fs / 2.0, fs / 2.0, freqs)  # grid is (-fs/2, fs/2]
    peak_v = lam * freqs[np.argmax(spectra, axis=1)]
    centers = starts + (w - 1) / 2.0
    return np.interp(np.arange(t, dtype=np.float64), centers, peak_v)


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
    values: np.ndarray,
    threshold_db: float = SNR_THRESHOLD_DB,
    static_frac: float = 0.10,
    motion_frac: float = 0.60,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate each row of `values` [rows, T] on its motion-to-static variance ratio.

    The static segments are the first and last `static_frac` of the window,
    the motion segment is the central `motion_frac`. Returns (values, snr_db,
    gated): rows at or below the threshold are zeroed and marked gated.
    """
    values = np.asarray(values, dtype=np.float64)
    t = values.shape[1]
    if t < 20:
        raise ValueError(f"need at least 20 samples to gate, got {t}")
    n_edge = max(1, int(round(static_frac * t)))
    lo = int(round((1.0 - motion_frac) / 2.0 * t))
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
    snr_threshold_db: float = SNR_THRESHOLD_DB,
    apply_normalize: bool = True,
) -> VelocitySet:
    """Decompose a (sanitized) frame and estimate one velocity row per
    (stream, delay bin), stream-major, gated and normalized."""
    params = params or DopplerParams()
    radio = frame.config
    n_bins = radio.n_subcarriers
    series = np.concatenate([p.bins for p in decompose(frame, remove_static=True)])
    values = np.empty(series.shape)
    for row, x in enumerate(series):
        if params.estimator == "psd_argmax":
            values[row] = estimate_velocity_psd(x, radio, params)
        else:
            values[row] = estimate_velocity_phase(x, radio)
    values, snr_db, gated = snr_gate(values, threshold_db=snr_threshold_db)
    if apply_normalize:
        values = normalize(values)
    return VelocitySet(
        values=values,
        delay_bins=np.tile(np.arange(n_bins), frame.n_streams),
        streams=np.repeat(np.arange(frame.n_streams), n_bins),
        snr_db=snr_db,
        gated=gated,
        source=frame.meta.sample_id if frame.meta is not None else "",
    )
