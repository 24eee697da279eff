"""Output checks for the benchmark.

Each check compares a program output with a computation made apart from the
program, or with a property the method must have, and raises `CheckFailed`
when it does not hold. The kernel bank and velocity sets are read through
their documented byte layouts (`KBNK`, `DVEL`), so the checks do not depend
on how the program holds them in memory.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

BANK_HEADER = struct.Struct("<4sqIII")
BANK_KERNEL = struct.Struct("<IIB")
DVEL_HEADER = struct.Struct("<4sIII")
DVEL_ROW = struct.Struct("<IIfB")

# velocity values are stored as f32 in DVEL, so moments hold to f32 precision
MOMENT_TOL = 1e-4
# features are compared with a reference fed the f32-rounded velocity rows
MAX_FEATURE_TOL = 1e-4
PPV_FLIPS = 2  # positions allowed to cross a bias threshold through rounding
LOGIT_RTOL = 1e-9
SLOPE_TOL = 1e-6  # rad per subcarrier
MIN_DISTORTION = 1e-3  # rad per subcarrier: the input must carry a real slope


class CheckFailed(Exception):
    """A program output disagrees with its reference or property."""


# ---------------------------------------------------------------------------
# Random-kernel features
# ---------------------------------------------------------------------------


class RefKernel:
    def __init__(self, weights: np.ndarray, biases: np.ndarray, dilation: int, padded: bool):
        self.weights = weights
        self.biases = biases
        self.dilation = dilation
        self.padding = ((len(weights) - 1) * dilation) // 2 if padded else 0

    def output_length(self, n_time: int) -> int:
        return n_time + 2 * self.padding - (len(self.weights) - 1) * self.dilation


def parse_bank(blob: bytes) -> List[RefKernel]:
    """Kernels of a serialized bank (`features.serialize_bank` layout)."""
    magic, _seed, _length, n_biases, n_kernels = BANK_HEADER.unpack_from(blob, 0)
    if magic != b"KBNK":
        raise CheckFailed(f"kernel bank has bad magic {magic!r}")
    pos = BANK_HEADER.size
    kernels = []
    for _ in range(n_kernels):
        length, dilation, padded = BANK_KERNEL.unpack_from(blob, pos)
        pos += BANK_KERNEL.size
        weights = np.frombuffer(blob, "<f8", length, pos)
        pos += 8 * length
        biases = np.frombuffer(blob, "<f8", n_biases, pos)
        pos += 8 * n_biases
        kernels.append(RefKernel(weights, biases, dilation, bool(padded)))
    return kernels


def reference_features(kernels: Sequence[RefKernel], series: np.ndarray) -> np.ndarray:
    """[max + b_1, PPV(b_1), .., PPV(b_B)] per kernel, by direct correlation
    of the zero-padded series with the zero-stuffed dilated kernel."""
    out = []
    for k in kernels:
        taps = np.zeros((len(k.weights) - 1) * k.dilation + 1)
        taps[:: k.dilation] = k.weights
        z = np.correlate(np.pad(series, k.padding), taps, mode="valid")
        out.append(z.max() + k.biases[0])
        out.extend(np.mean(z > -b) for b in k.biases)
    return np.asarray(out)


def check_features(kernels: Sequence[RefKernel], series: np.ndarray, features: np.ndarray) -> None:
    """Program feature rows against the direct reference, row by row."""
    fpk = len(kernels[0].biases) + 1
    for r, (x, got) in enumerate(zip(series, features)):
        want = reference_features(kernels, x)
        if got.shape != want.shape:
            raise CheckFailed(f"feature row {r} has {got.shape[0]} values, want {want.shape[0]}")
        for i, k in enumerate(kernels):
            g, w = got[i * fpk : (i + 1) * fpk], want[i * fpk : (i + 1) * fpk]
            if not abs(g[0] - w[0]) <= MAX_FEATURE_TOL * max(1.0, abs(w[0])):
                raise CheckFailed(f"row {r} kernel {i}: max feature {g[0]} != reference {w[0]}")
            ppv_tol = PPV_FLIPS / k.output_length(len(x)) + 1e-12
            if np.any(np.abs(g[1:] - w[1:]) > ppv_tol):
                raise CheckFailed(f"row {r} kernel {i}: PPV {g[1:]} != reference {w[1:]}")


# ---------------------------------------------------------------------------
# Velocity sets
# ---------------------------------------------------------------------------


def read_velocity_rows(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    """(values [rows, T] as float64, gated [rows]) from a DVEL file."""
    raw = Path(path).read_bytes()
    magic, _version, n_rows, n_time = DVEL_HEADER.unpack_from(raw, 0)
    if magic != b"DVEL":
        raise CheckFailed(f"{path}: bad DVEL magic {magic!r}")
    values = np.empty((n_rows, n_time))
    gated = np.empty(n_rows, dtype=bool)
    pos = DVEL_HEADER.size
    for r in range(n_rows):
        gated[r] = bool(DVEL_ROW.unpack_from(raw, pos)[3])
        pos += DVEL_ROW.size
        values[r] = np.frombuffer(raw, "<f4", n_time, pos)
        pos += 4 * n_time
    return values, gated


def check_velocity_rows(values: np.ndarray, gated: np.ndarray) -> None:
    """Gated rows are all zero; kept rows are zero-mean with unit variance."""
    if values.shape[0] == 0:
        raise CheckFailed("velocity set is empty")
    if np.any(values[gated] != 0.0):
        raise CheckFailed("a gated velocity row holds non-zero values")
    kept = values[~gated]
    if kept.size:
        mean_err = np.max(np.abs(kept.mean(axis=1)))
        std_err = np.max(np.abs(kept.std(axis=1) - 1.0))
        if mean_err > MOMENT_TOL or std_err > MOMENT_TOL:
            raise CheckFailed(
                f"kept velocity rows not normalized: |mean| {mean_err:.2e}, |std - 1| {std_err:.2e}"
            )


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def reference_logits(params: Mapping[str, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Batched forward pass: per head ReLU(X W1 + b1) W2 + b2, max over rows,
    heads concatenated, then the ReLU classifier MLP."""
    n_heads = sum(1 for name in params if name.startswith("head") and name.endswith("_w1"))
    pooled = []
    for k in range(n_heads):
        hidden = np.maximum(rows @ params[f"head{k}_w1"] + params[f"head{k}_b1"], 0.0)
        pooled.append((hidden @ params[f"head{k}_w2"] + params[f"head{k}_b2"]).max(axis=0))
    u = np.concatenate(pooled)
    h = np.maximum(u @ params["cls_w1"] + params["cls_b1"], 0.0)
    return h @ params["cls_w2"] + params["cls_b2"]


def check_logits(params: Mapping[str, np.ndarray], rows: np.ndarray, logits: np.ndarray) -> None:
    want = reference_logits(params, rows)
    scale = max(1.0, float(np.max(np.abs(want))))
    if logits.shape != want.shape or np.max(np.abs(logits - want)) > LOGIT_RTOL * scale:
        raise CheckFailed(f"logits {logits} differ from the reference forward pass {want}")


def check_set_invariance(
    forward: Callable[[np.ndarray], np.ndarray], n_rows: int, rng: np.random.Generator
) -> None:
    """Logits are bitwise equal on a row-permuted copy with duplicated rows.

    `forward` maps an index array into the set's rows to the logits of the
    set made of those rows.
    """
    base = forward(np.arange(n_rows))
    order = np.concatenate([rng.permutation(n_rows), rng.integers(0, n_rows, 3)])
    shuffled = forward(order)
    if not np.array_equal(base, shuffled):
        raise CheckFailed(f"logits changed under row permutation/duplication: {base} vs {shuffled}")


def check_label(predicted: str, labels: Sequence[str], logits: np.ndarray) -> None:
    want = labels[int(np.argmax(logits))]
    if predicted != want:
        raise CheckFailed(f"predicted {predicted!r} but the reference logits pick {want!r}")


# ---------------------------------------------------------------------------
# Phase compensation
# ---------------------------------------------------------------------------


def ls_slopes(phase: np.ndarray) -> np.ndarray:
    """Least-squares slope along axis 1 of a [stream, subcarrier, time] phase."""
    k = np.arange(phase.shape[1]) - (phase.shape[1] - 1) / 2.0
    return np.einsum("snt,n->st", phase, k) / np.sum(k * k)


def check_phase_compensation(before: np.ndarray, after: np.ndarray) -> None:
    """Magnitudes unchanged, the removed phase linear in the subcarrier index,
    and the least-squares phase slope of the result near zero.

    The result's phase is taken as the input's unwrapped phase plus the
    unwrapped removed phase, so no second unwrap of the residual (which can
    jump by more than pi between subcarriers) enters the slope.
    """
    scale = float(np.max(np.abs(before)))
    if np.max(np.abs(np.abs(after) - np.abs(before))) > 1e-9 * scale:
        raise CheckFailed("phase compensation changed CSI magnitudes")
    removed = np.unwrap(np.angle(after * np.conj(before)), axis=1)
    curvature = np.abs(np.diff(removed, n=2, axis=1))
    if curvature.max() > 1e-6:
        raise CheckFailed(f"removed phase is not linear in the subcarrier (max {curvature.max():.2e})")
    input_phase = np.unwrap(np.angle(before), axis=1)
    distortion = float(np.median(np.abs(ls_slopes(input_phase))))
    if distortion < MIN_DISTORTION:
        raise CheckFailed(f"input carries no phase slope to remove (median {distortion:.2e})")
    residual = float(np.max(np.abs(ls_slopes(input_phase + removed))))
    if residual > SLOPE_TOL:
        raise CheckFailed(f"phase slope {residual:.2e} rad/subcarrier remains after compensation")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def check_accuracy(what: str, accuracy: float, floor: float) -> None:
    if not accuracy >= floor:
        raise CheckFailed(f"{what} accuracy {accuracy:.3f} below the floor {floor}")


def check_report(report, n_subjects: int) -> None:
    """`Report.validate()` passes and every subject was held out once."""
    try:
        report.validate()
    except ValueError as exc:
        raise CheckFailed(f"LOSO report invalid: {exc}") from exc
    if len(report.fold_subjects) != n_subjects or len(report.fold_accuracies) != n_subjects:
        raise CheckFailed(f"LOSO ran {len(report.fold_subjects)} folds, want {n_subjects}")
    if abs(report.mean_accuracy - float(np.mean(report.fold_accuracies))) > 1e-12:
        raise CheckFailed("LOSO mean accuracy is not the mean of the fold accuracies")


def check_sweep(sweep: Dict[int, dict], counts: Sequence[int], uncalibrated: float) -> None:
    """Every count is present, and count 0 equals the uncalibrated accuracy."""
    if sorted(sweep) != sorted(counts):
        raise CheckFailed(f"sweep counts {sorted(sweep)} != requested {sorted(counts)}")
    if sweep[0]["mean_accuracy"] != uncalibrated:
        raise CheckFailed(
            f"sweep count 0 accuracy {sweep[0]['mean_accuracy']} != uncalibrated {uncalibrated}"
        )
    for count, entry in sweep.items():
        if not 0.0 <= entry["mean_accuracy"] <= 1.0:
            raise CheckFailed(f"sweep count {count} accuracy {entry['mean_accuracy']} out of range")
