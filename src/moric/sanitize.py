"""Phase sanitization: remove STO/SFO-induced linear phase distortion across
subcarriers, and suppress impulsive outliers with a Hampel filter.

STO, SFO, and CSD all multiply the channel by phasors whose phase is linear
in the subcarrier index, so a per-frame least-squares line fitted to the
unwrapped phase captures them jointly; subtracting the fitted line leaves the
multipath structure and the motion information intact.

The Hampel filter's window medians (of the samples, then of their absolute
deviations) come from a comparator network: np.minimum/np.maximum over the
window's shifted column slices, which selects the median without sorting.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from .core import CsiFrame

HAMPEL_MAD_SCALE = 1.4826  # MAD-to-sigma factor for Gaussian data
HAMPEL_MAD_FLOOR = 1e-9
# Samples (rows x window positions) per median-network pass. Blocking the rows
# keeps the network's working arrays (one per window tap, 128 KiB each) within
# the L2 cache: on a 2-vCPU Xeon (2 MiB L2 per core), window 11 over 312 rows
# of 400 samples took 15-17 ms in blocks against 18-20 ms in one pass, and
# over 32 rows of 1000 samples 3.0-3.4 against 3.5-3.9 ms.
MEDIAN_BLOCK_SAMPLES = 16384


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


@functools.lru_cache(maxsize=8)
def _median_network(n: int) -> Tuple[Tuple[int, int, bool, bool], ...]:
    """Comparators (i, j, lo, hi), i < j, that leave the median of n inputs
    (n odd) at position n // 2.

    The network is Batcher's merge-exchange sort (Knuth 5.2.2, algorithm M),
    pruned to the comparators the middle output depends on: 31 of 37 for
    n = 11. A kept comparator writes min(v[i], v[j]) to i if `lo` and
    max(v[i], v[j]) to j if `hi`; an output no later comparator reads is
    not written.
    """
    comparators = []
    t = max(1, (n - 1).bit_length())  # ceil(log2 n)
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            comparators.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    needed = {n // 2}
    kept = []
    for i, j in reversed(comparators):
        lo, hi = i in needed, j in needed
        if lo or hi:
            kept.append((i, j, lo, hi))
            needed |= {i, j}
    return tuple(reversed(kept))


def _select_median(values: List[np.ndarray], spare: np.ndarray) -> np.ndarray:
    """Median of len(values) equal-shape arrays, elementwise, by running
    their median network in place; `spare` is one more array of that shape.
    Min and max only select inputs, so on finite input the result is
    np.median's value, bitwise up to the sign of a zero (0.0 == -0.0 ties
    may resolve the other way, as they may between np.partition calls)."""
    for i, j, lo, hi in _median_network(len(values)):
        a, b = values[i], values[j]
        if lo and hi:
            np.minimum(a, b, out=spare)
            np.maximum(a, b, out=b)
            values[i], spare = spare, a
        elif lo:
            np.minimum(a, b, out=a)
        else:
            np.maximum(a, b, out=b)
    return values[len(values) // 2]


def hampel_batch(x: np.ndarray, window: int = 11, n_sigmas: float = 3.0) -> np.ndarray:
    """Hampel filter applied independently to every row of a [rows, T] array.

    Columns whose centered window fits inside the series are filtered by a
    median selection network over the `window` shifted column slices, in
    row blocks of about MEDIAN_BLOCK_SAMPLES samples; only the truncated
    edge columns, whose windows may have even length, are filtered one at a
    time. On finite input the result is bitwise equal to applying the
    per-column definition with `np.median`, up to the sign of a zero median.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    x = np.asarray(x, dtype=np.float64)
    rows, t = x.shape
    half = window // 2
    out = x.copy()
    if t >= window:
        m = t - 2 * half
        med = np.empty((rows, m))
        mad = np.empty((rows, m))
        block = max(1, MEDIAN_BLOCK_SAMPLES // m)
        work = np.empty((window + 1, min(block, rows), m))
        for r0 in range(0, rows, block):
            rb = slice(r0, r0 + block)
            xb = x[rb]
            bufs = list(work[:, : len(xb)])
            for k, buf in enumerate(bufs[:window]):
                buf[...] = xb[:, k : k + m]
            med[rb] = _select_median(bufs[:window], bufs[window])
            for k, buf in enumerate(bufs[:window]):
                np.abs(np.subtract(xb[:, k : k + m], med[rb], out=buf), out=buf)
            mad[rb] = _select_median(bufs[:window], bufs[window])
        _replace_outliers(x, out, slice(half, t - half), med, mad, n_sigmas)
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


def sanitize_frame(frame: CsiFrame) -> CsiFrame:
    """Full sanitize stage: linear phase compensation, then Hampel filtering
    of the delay-bin series (window 11, 3 sigmas).

    The outlier filter operates on h(s; tau_i) after the IDFT over
    subcarriers; since the IDFT is exactly invertible, the frame is
    transformed to the delay domain, filtered per bin, and transformed back,
    so the stage still consumes and produces subcarrier-domain CSI.
    """
    out = compensate_phase(frame)
    s, n, t = out.data.shape
    bins = np.fft.ifft(out.data, axis=1).reshape(s * n, t)
    filtered = hampel_complex(bins).reshape(s, n, t)
    restored = np.fft.fft(filtered, axis=1)
    return CsiFrame(config=out.config, data=restored, meta=out.meta)
