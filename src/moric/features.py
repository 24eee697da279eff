"""Random convolutional kernel transform for velocity time series.

A bank of random dilated kernels is frozen from a seed and applied to every
velocity row; each kernel contributes its biased maximum response plus one
proportion-of-positive-values (PPV) feature per bias. The bank stays fixed
across all inputs so the transform is a deterministic embedding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .core import ByteReader, FormatError, format_errors
from .lanes import in_lanes

KERNEL_LENGTHS = (7, 9, 11)
BANK_MAGIC = b"KBNK"
# Samples (rows x series length) convolved per pass. Blocking the rows keeps
# one group's output z within a few MiB, near the L2 cache: on a 2-vCPU Xeon,
# 117 live rows of 400 samples took 46 ms in blocks against 72 ms in one pass.
BLOCK_SAMPLES = 8192


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
        if self.length not in KERNEL_LENGTHS:
            raise ValueError(f"kernel length {self.length} is not one of {KERNEL_LENGTHS}")
        if self.dilation < 1:
            raise ValueError(f"kernel dilation must be >= 1, got {self.dilation}")
        if w.shape != (self.length,):
            raise ValueError("weight count must equal kernel length")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def padding(self) -> int:
        return ((self.length - 1) * self.dilation) // 2 if self.padded else 0


class _Group(NamedTuple):
    """Kernels that share one im2col: z[k, r, t] = sum_j weights[k, j] *
    x_padded[r, t + j * dilation], x_padded carrying `padding` zeros per side."""

    index: np.ndarray  # [Kg] positions of the group's kernels in the bank
    dilation: int
    padding: int
    weights: np.ndarray  # [Kg, taps]
    biases: np.ndarray  # [Kg, B]


def _plan_groups(kernels: Tuple[Kernel, ...]) -> Tuple[_Group, ...]:
    """Group kernels by (dilation, padded); unpadded ones also by length.

    A padded kernel of length L is centred in max(KERNEL_LENGTHS) taps whose
    outer taps are zero, with padding (max_len - 1) * d / 2: the outer taps
    only ever meet the extra zeros, so the output equals the L-tap kernel
    with padding (L - 1) * d / 2, and padded kernels of every length share
    one group per dilation."""
    taps = max(KERNEL_LENGTHS)
    members: Dict[tuple, list] = {}
    for i, k in enumerate(kernels):
        key = (k.dilation, True, taps) if k.padded else (k.dilation, False, k.length)
        members.setdefault(key, []).append(i)
    groups = []
    for (dilation, padded, n_taps), index in members.items():
        weights = np.zeros((len(index), n_taps))
        for row, i in enumerate(index):
            start = (n_taps - kernels[i].length) // 2
            weights[row, start : start + kernels[i].length] = kernels[i].weights
        groups.append(
            _Group(
                index=np.asarray(index),
                dilation=dilation,
                padding=(n_taps - 1) * dilation // 2 if padded else 0,
                weights=weights,
                biases=np.stack([kernels[i].biases for i in index]),
            )
        )
    return tuple(groups)


@dataclass(frozen=True)
class KernelBank:
    seed: int
    input_length: int
    n_biases: int
    kernels: Tuple[Kernel, ...]
    # the grouped transform plan, derived from `kernels` once per bank
    groups: Tuple[_Group, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_length < 1 or self.n_biases < 1:
            raise ValueError("input_length and n_biases must be >= 1")
        for k in self.kernels:
            if k.biases.shape != (self.n_biases,):
                raise ValueError(f"every kernel needs {self.n_biases} biases")
            # An unpadded kernel wider than the series has no output; a padded
            # one would pad each row by more than its length. build_bank never
            # draws either.
            if (k.length - 1) * k.dilation >= self.input_length:
                raise ValueError(
                    f"kernel of length {k.length} and dilation {k.dilation} "
                    f"does not fit a series of length {self.input_length}"
                )
        object.__setattr__(self, "groups", _plan_groups(self.kernels))

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


def _convolve_group(x: np.ndarray, g: _Group) -> np.ndarray:
    """Dilated convolution of every row by every kernel of a group, [Kg, rows, n_out],
    as one GEMM over the taps-major im2col of the padded rows."""
    if g.padding:
        x = np.pad(x, ((0, 0), (g.padding, g.padding)))
    taps = g.weights.shape[1]
    n_out = x.shape[1] - (taps - 1) * g.dilation
    cols = np.empty((taps, len(x), n_out))
    for j in range(taps):  # cols[j, r, t] = x[r, t + j * dilation]
        cols[j] = x[:, j * g.dilation : j * g.dilation + n_out]
    return (g.weights @ cols.reshape(taps, -1)).reshape(len(g.weights), len(x), n_out)


def apply_batch(bank: KernelBank, x: np.ndarray) -> np.ndarray:
    """Feature matrix [rows, D] for a [rows, T] batch of series.

    Per kernel the features are [max(z) + b_1, PPV(z + b_1), ..,
    PPV(z + b_B)] with PPV(y) = mean(y > 0). An all-zero row (an SNR-gated
    velocity row) convolves to z = 0, so its features are [b_1, b_1 > 0,
    .., b_B > 0] and it is not convolved. The other rows are convolved in
    blocks of BLOCK_SAMPLES samples, one GEMM per kernel group and block;
    the lanes of `moric.lanes` take the blocks one at a time, and each block
    writes only its own rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a [rows, T] batch, got shape {x.shape}")
    if x.shape[1] != bank.input_length:
        raise ValueError(
            f"series length {x.shape[1]} does not match bank length {bank.input_length}"
        )
    fpk = bank.features_per_kernel
    out = np.empty((x.shape[0], bank.n_kernels, fpk))
    for g in bank.groups:
        out[:, g.index, 0] = g.biases[:, 0]
        out[:, g.index, 1:] = g.biases > 0
    live = np.flatnonzero(np.any(x != 0, axis=1))
    block = max(1, BLOCK_SAMPLES // bank.input_length)

    def rows_block(b: int) -> None:
        rows = live[b * block : (b + 1) * block]
        x_rows = x[rows]
        for g in bank.groups:
            z = _convolve_group(x_rows, g)
            feats = np.empty((len(rows), len(g.index), fpk))
            feats[:, :, 0] = z.max(axis=2).T + g.biases[:, 0]
            above = z[:, None] > -g.biases[:, :, None, None]  # [Kg, B, rows, n_out]
            feats[:, :, 1:] = (above.sum(axis=3, dtype=np.int32) / z.shape[2]).transpose(2, 0, 1)
            out[np.ix_(rows, g.index)] = feats

    in_lanes(rows_block, -(-live.size // block))
    return out.reshape(x.shape[0], bank.dim)


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

    Raises FormatError on a bad magic, a truncated bank or a field that
    breaks a Kernel or KernelBank invariant."""
    r = ByteReader(blob, f"kernel bank at byte {offset}", offset)
    if r.take(4) != BANK_MAGIC:
        raise FormatError(f"{r.source}: bad magic")
    seed, input_length, n_biases, n_kernels = r.unpack("<qIII")
    kernels = []
    with format_errors(r.source):
        for _ in range(n_kernels):
            length, dilation, padded = r.unpack("<IIB")
            if padded not in (0, 1):
                raise FormatError(f"{r.source}: bad padding flag {padded} at byte {r.pos - 1}")
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
