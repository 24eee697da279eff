"""Random convolutional kernel transform for velocity time series.

A bank of random dilated kernels is frozen from a seed and applied to every
velocity vector; each kernel contributes its biased maximum response plus one
proportion-of-positive-values (PPV) feature per bias. The bank stays fixed
across all inputs so the transform is a deterministic embedding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ByteReader, FormatError

KERNEL_LENGTHS = (7, 9, 11)
BANK_MAGIC = b"KBNK"


@dataclass(frozen=True)
class Kernel:
    length: int
    weights: np.ndarray  # mean-centered standard normal draws
    biases: np.ndarray  # uniform (-1, 1)
    dilation: int
    padded: bool

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if len(w) != self.length:
            raise ValueError("weight count must equal kernel length")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def padding(self) -> int:
        return ((self.length - 1) * self.dilation) // 2 if self.padded else 0


@dataclass(frozen=True)
class KernelBank:
    seed: int
    input_length: int
    n_biases: int
    kernels: Tuple[Kernel, ...]

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    @property
    def features_per_kernel(self) -> int:
        return self.n_biases + 1

    @property
    def dim(self) -> int:
        return self.n_kernels * self.features_per_kernel


def build_bank(seed: int, n_kernels: int, n_biases: int, input_length: int) -> KernelBank:
    """Deterministically draw a kernel bank for series of a given length.

    Per kernel, in order: length from {7, 9, 11}; weights ~ N(0,1) then
    mean-centered; dilation 2^floor(x) with x ~ U[0, log2((T-1)/(len-1))],
    which keeps every receptive field within the series; a fair padding coin;
    n_biases biases ~ U(-1, 1).
    """
    if n_kernels < 1 or n_biases < 1:
        raise ValueError("need at least one kernel and one bias")
    if input_length <= max(KERNEL_LENGTHS):
        raise ValueError(f"input_length must exceed {max(KERNEL_LENGTHS)}")
    rng = np.random.default_rng(seed)
    lengths = np.asarray(KERNEL_LENGTHS)
    kernels = []
    for _ in range(n_kernels):
        length = int(rng.choice(lengths))
        weights = rng.normal(0.0, 1.0, length)
        weights = weights - weights.mean()
        x_max = np.log2((input_length - 1) / (length - 1))
        dilation = int(2 ** np.floor(rng.uniform(0.0, x_max)))
        padded = bool(rng.integers(0, 2))
        biases = rng.uniform(-1.0, 1.0, n_biases)
        kernels.append(
            Kernel(length=length, weights=weights, biases=biases, dilation=dilation, padded=padded)
        )
    return KernelBank(
        seed=int(seed), input_length=int(input_length), n_biases=int(n_biases), kernels=tuple(kernels)
    )


def _convolve_rows(x: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Dilated convolution of every row: z[r, t] = sum_j w[j] x[r, t + j*d]."""
    pad = kernel.padding
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad)))
    t = x.shape[1]
    span = (kernel.length - 1) * kernel.dilation
    out_len = t - span
    z = np.zeros((x.shape[0], out_len))
    for j in range(kernel.length):
        off = j * kernel.dilation
        z += kernel.weights[j] * x[:, off : off + out_len]
    return z


def apply_batch(bank: KernelBank, x: np.ndarray) -> np.ndarray:
    """Feature matrix [rows, D] for a [rows, T] batch of series.

    Per kernel the features are [max(z) + b_1, PPV(z + b_1), ..,
    PPV(z + b_B)] with PPV(y) = mean(y > 0).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a [rows, T] batch")
    if x.shape[1] != bank.input_length:
        raise ValueError(
            f"series length {x.shape[1]} does not match bank length {bank.input_length}"
        )
    fpk = bank.features_per_kernel
    out = np.empty((x.shape[0], bank.dim))
    for k, kernel in enumerate(bank.kernels):
        z = _convolve_rows(x, kernel)
        col = k * fpk
        out[:, col] = z.max(axis=1) + kernel.biases[0]
        for j, b in enumerate(kernel.biases):
            out[:, col + 1 + j] = np.mean(z > -b, axis=1)
    return out


def apply(bank: KernelBank, series: np.ndarray) -> np.ndarray:
    """Feature vector of length D for a single series of the bank's length."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    return apply_batch(bank, series[None, :])[0]


# ---------------------------------------------------------------------------
# Bank serialization (bitwise round trip; embedded in the model file)
# ---------------------------------------------------------------------------


def serialize_bank(bank: KernelBank) -> bytes:
    parts = [
        BANK_MAGIC,
        struct.pack("<qIII", bank.seed, bank.input_length, bank.n_biases, bank.n_kernels),
    ]
    for k in bank.kernels:
        parts.append(struct.pack("<IIB", k.length, k.dilation, int(k.padded)))
        parts.append(np.asarray(k.weights, dtype="<f8").tobytes())
        parts.append(np.asarray(k.biases, dtype="<f8").tobytes())
    return b"".join(parts)


def deserialize_bank(blob: bytes, offset: int = 0):
    """Parse a serialized bank; returns (KernelBank, bytes_consumed).

    Raises FormatError on a bad magic or a truncated bank."""
    r = ByteReader(blob, f"kernel bank at byte {offset}", offset)
    if r.take(4) != BANK_MAGIC:
        raise FormatError(f"{r.source}: bad magic")
    seed, input_length, n_biases, n_kernels = r.unpack("<qIII")
    kernels = []
    for _ in range(n_kernels):
        length, dilation, padded = r.unpack("<IIB")
        kernels.append(
            Kernel(
                length=length,
                weights=r.array("<f8", length),
                biases=r.array("<f8", n_biases),
                dilation=dilation,
                padded=bool(padded),
            )
        )
    bank = KernelBank(
        seed=seed, input_length=input_length, n_biases=n_biases, kernels=tuple(kernels)
    )
    return bank, r.pos - offset
