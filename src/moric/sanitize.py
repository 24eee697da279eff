"""Phase sanitization: remove STO/SFO-induced linear phase distortion across
subcarriers, and suppress impulsive outliers with a Hampel filter.

STO, SFO, and CSD all multiply the channel by phasors whose phase is linear
in the subcarrier index, so a per-frame least-squares line fitted to the
unwrapped phase captures them jointly; subtracting the fitted line leaves the
multipath structure and the motion information intact.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import CsiFrame

HAMPEL_MAD_SCALE = 1.4826  # MAD-to-sigma factor for Gaussian data
HAMPEL_MAD_FLOOR = 1e-9


def unwrap_phase(phase: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unwrap by adding multiples of 2*pi so successive differences lie in
    (-pi, pi]; a difference of exactly -pi is tied toward +pi."""
    p = np.asarray(phase, dtype=np.float64)
    d = np.diff(p, axis=axis)
    # map each difference into (-pi, pi]
    wrapped = d - 2.0 * np.pi * np.ceil((d - np.pi) / (2.0 * np.pi))
    correction = np.cumsum(wrapped - d, axis=axis)
    out = p.copy()
    sl = [slice(None)] * p.ndim
    sl[axis] = slice(1, None)
    out[tuple(sl)] += correction
    return out


def compensate_phase(frame: CsiFrame) -> CsiFrame:
    """Remove the per-frame linear phase trend across subcarriers.

    For every stream and frame, the measured phase is unwrapped along the
    subcarrier index k = 1..N, a line eps*k + tau is fitted by least squares,
    and the fitted line is subtracted. Magnitudes pass through unchanged.
    """
    n = frame.config.n_subcarriers
    if n < 2:
        raise ValueError("phase compensation needs at least 2 subcarriers")
    data = frame.data
    theta = unwrap_phase(np.angle(data), axis=1)  # [S, N, T]
    k = np.arange(1, n + 1, dtype=np.float64)[None, :, None]
    k_bar = (n + 1) / 2.0
    theta_bar = theta.mean(axis=1, keepdims=True)
    denom = np.sum((k[0, :, 0] - k_bar) ** 2)
    eps = np.sum((theta - theta_bar) * (k - k_bar), axis=1, keepdims=True) / denom
    tau = theta_bar - k_bar * eps
    residual = theta - eps * k - tau
    out = np.abs(data) * np.exp(1j * residual)
    return CsiFrame(config=frame.config, data=out, meta=frame.meta)


def hampel(series, window: int = 11, n_sigmas: float = 3.0) -> np.ndarray:
    """Hampel filter over a real 1-D series.

    Each sample is compared against the median of its centered window
    (truncated at the edges); samples deviating by more than
    n_sigmas * 1.4826 * max(MAD, floor) are replaced by that median.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    return hampel_batch(x[None, :], window, n_sigmas)[0]


def _replace_outliers(
    x: np.ndarray, out: np.ndarray, cols, med: np.ndarray, mad: np.ndarray, n_sigmas: float
) -> None:
    """Write x[:, cols] into out[:, cols], with the samples that lie beyond the
    Hampel threshold replaced by their window median."""
    thresh = n_sigmas * HAMPEL_MAD_SCALE * np.maximum(mad, HAMPEL_MAD_FLOOR)
    xc = x[:, cols]
    out[:, cols] = np.where(np.abs(xc - med) > thresh, med, xc)


def hampel_batch(x: np.ndarray, window: int = 11, n_sigmas: float = 3.0) -> np.ndarray:
    """Hampel filter applied independently to every row of a [rows, T] array.

    Columns whose centered window fits inside the series are filtered in one
    pass over a sliding-window view; only the truncated edge columns, whose
    windows may have even length, are filtered one at a time. The result is
    bitwise equal to applying the per-column definition with `np.median`.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[1]
    half = window // 2
    out = x.copy()
    if t >= window:
        win = sliding_window_view(x, window, axis=1)  # [rows, t - 2 * half, window]
        # for an odd window the middle order statistic is exactly np.median's value
        med = np.partition(win, half, axis=-1)[..., half]
        dev = win - med[..., None]
        np.abs(dev, out=dev)
        dev.partition(half, axis=-1)
        _replace_outliers(x, out, slice(half, t - half), med, dev[..., half], n_sigmas)
    # edge columns: [0, half) and [t - half, t), or every column when t < window
    for j in [*range(min(half, t)), *range(max(half, t - half), t)]:
        win = x[:, max(0, j - half) : min(t, j + half + 1)]
        med = np.median(win, axis=1)
        mad = np.median(np.abs(win - med[:, None]), axis=1)
        _replace_outliers(x, out, j, med, mad, n_sigmas)
    return out


def hampel_complex(series: np.ndarray, window: int = 11, n_sigmas: float = 3.0) -> np.ndarray:
    """Filter real and imaginary parts independently; accepts [rows, T] or 1-D."""
    z = np.asarray(series, dtype=np.complex128)
    batch = np.atleast_2d(z)
    rows = batch.shape[0]
    parts = hampel_batch(np.concatenate([batch.real, batch.imag]), window, n_sigmas)
    filtered = parts[:rows] + 1j * parts[rows:]
    return filtered[0] if z.ndim == 1 else filtered


def sanitize_frame(
    frame: CsiFrame,
    apply_hampel: bool = True,
    hampel_window: int = 11,
    hampel_sigmas: float = 3.0,
) -> CsiFrame:
    """Full sanitize stage: linear phase compensation, then (optionally) Hampel
    filtering of the delay-bin series.

    The outlier filter operates on h(s; tau_i) after the IDFT over
    subcarriers; since the IDFT is exactly invertible, the frame is
    transformed to the delay domain, filtered per bin, and transformed back,
    so the stage still consumes and produces subcarrier-domain CSI.
    """
    out = compensate_phase(frame)
    if not apply_hampel:
        return out
    s, n, t = out.data.shape
    bins = np.fft.ifft(out.data, axis=1).reshape(s * n, t)
    filtered = hampel_complex(bins, hampel_window, hampel_sigmas).reshape(s, n, t)
    restored = np.fft.fft(filtered, axis=1)
    return CsiFrame(config=out.config, data=restored, meta=out.meta)
