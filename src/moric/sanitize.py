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
from .delay_doppler import decompose
from .lanes import in_lanes

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
    """Hampel filter applied independently to every row of a [rows, T] array:
    a sample more than n_sigmas * 1.4826 * max(MAD, floor) away from the median
    of its centered window (truncated at the edges) is replaced by that median.

    Every median comes from the median selection network, over row blocks of
    about MEDIAN_BLOCK_SAMPLES samples that the lanes of `moric.lanes` take
    one at a time; each block writes only its own rows. Columns whose
    centered window fits inside the series run the network over the
    `window` shifted column slices. A truncated edge window is filled up to
    `window` taps with -inf and +inf, alternating outward from the series, so
    the network picks its median; a window of even length is run once more
    with the infinities negated, and its median is the mean of the two
    middle values, as np.median takes it. On finite input the result is
    bitwise equal to applying the per-column definition with `np.median`,
    up to the sign of a zero median.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a [rows, T] batch, got shape {x.shape}")
    rows, t = x.shape
    half = window // 2
    m = t - 2 * half  # columns whose centered window fits
    # edge columns: [0, half) and [t - half, t), or every column when t < window
    edges = np.r_[0 : min(half, t), max(half, t - half) : t]
    taps = edges[:, None] + np.arange(-half, half + 1)
    inside = (taps >= 0) & (taps < t)
    # a truncated window's missing taps hold -inf and +inf in turn, outward
    # from the series: -inf first on the left and +inf first on the right,
    # so they balance whenever the window's length is odd
    pads = np.where(taps < 0, np.where(taps % 2, -np.inf, np.inf), np.where((taps - t) % 2, -np.inf, np.inf))
    even = np.flatnonzero((~inside).sum(axis=1) % 2)  # windows of even length
    # each edge window, then each even one again with its infinities negated
    runs = np.r_[np.arange(len(edges)), even]
    gather = np.clip(taps[runs], 0, t - 1).T  # [window, runs]
    inside = inside[runs].T[:, None]
    pads = np.concatenate([pads, -pads[even]]).T[:, None]

    def edge_median(values: np.ndarray) -> np.ndarray:
        picked = _select_median(list(values), np.empty_like(values[0]))
        med = picked[:, : len(edges)].copy()
        med[:, even] = (med[:, even] + picked[:, len(edges) :]) / 2
        return med

    out = np.empty_like(x)
    block = max(1, MEDIAN_BLOCK_SAMPLES // max(m, 1))

    def filter_rows(b: int) -> None:
        xb, ob = x[b * block : (b + 1) * block], out[b * block : (b + 1) * block]
        if m > 0:
            bufs = list(np.empty((window + 1, len(xb), m)))
            for k, buf in enumerate(bufs[:window]):
                buf[...] = xb[:, k : k + m]
            med = _select_median(bufs[:window], bufs[window]).copy()
            for k, buf in enumerate(bufs[:window]):
                np.abs(np.subtract(xb[:, k : k + m], med, out=buf), out=buf)
            mad = _select_median(bufs[:window], bufs[window])
            _replace_outliers(xb, ob, slice(half, t - half), med, mad, n_sigmas)
        near = xb[:, gather].transpose(1, 0, 2)  # [window, rows, runs]
        med = edge_median(np.where(inside, near, pads))
        mad = edge_median(np.where(inside, np.abs(near - med[:, runs]), pads))
        _replace_outliers(xb, ob, edges, med, mad, n_sigmas)

    in_lanes(filter_rows, -(-rows // block))
    return out


def hampel_complex(series: np.ndarray, window: int = 11, n_sigmas: float = 3.0) -> np.ndarray:
    """hampel_batch of the real and imaginary parts of a complex [rows, T]
    array, each filtered independently, as one batch of 2 * rows rows."""
    z = np.asarray(series, dtype=np.complex128)
    if z.ndim != 2:
        raise ValueError(f"expected a [rows, T] batch, got shape {z.shape}")
    parts = hampel_batch(np.concatenate([z.real, z.imag]), window, n_sigmas)
    return parts[: len(z)] + 1j * parts[len(z) :]


def sanitize_frame(frame: CsiFrame) -> CsiFrame:
    """Full sanitize stage: linear phase compensation, then Hampel filtering
    of the delay-bin series (window 11, 3 sigmas).

    The outlier filter operates on h(s; tau_i) after the IDFT over
    subcarriers; since the IDFT is exactly invertible, the frame is
    transformed to the delay domain, filtered per bin, and transformed back,
    so the stage still consumes and produces subcarrier-domain CSI.
    """
    out = compensate_phase(frame)
    bins = decompose(out, remove_static=False)
    filtered = hampel_complex(bins.reshape(-1, out.n_time)).reshape(bins.shape)
    restored = np.fft.fft(filtered, axis=1)
    return CsiFrame(config=out.config, data=restored, meta=out.meta)
