"""Set classifier over per-delay-bin feature vectors.

Shared MLP heads reduce every feature row independently; an elementwise max
over rows pools each head's outputs into a fixed-size vector, which makes the
prediction invariant (bitwise) to the ordering and repetition of rows. A
second MLP maps the concatenated pooled vectors to class logits. Training is
plain mini-batch backprop with an adaptive-moment optimizer using decoupled
weight decay, cross-entropy with label smoothing, and early stopping on
validation loss. A post-hoc temperature + per-class-bias calibration can be
fitted on a handful of held-out samples.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ByteReader, FeatureSet, FormatError
from .features import KernelBank, deserialize_bank, serialize_bank

MODEL_MAGIC = b"MORM"
MODEL_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelDims:
    input_dim: int
    n_heads: int = 2
    head_hidden: int = 256
    reduced_dim: int = 128
    cls_hidden: int = 128
    n_classes: int = 2

    def __post_init__(self):
        for name in ("input_dim", "n_heads", "head_hidden", "reduced_dim", "cls_hidden", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Calibration:
    """Temperature plus per-class bias applied to logits before the softmax."""

    temperature: float
    bias: np.ndarray

    def __post_init__(self):
        if not (self.temperature > 0 and np.isfinite(self.temperature)):
            raise ValueError("temperature must be positive")
        b = np.asarray(self.bias, dtype=np.float64)
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 2500
    label_smoothing: float = 0.1
    patience: int = 200
    weight_decay: float = 1e-4
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):
        if self.lr <= 0 or self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("training hyperparameters must be positive")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass(frozen=True)
class MoricModel:
    dims: ModelDims
    class_labels: Tuple[str, ...]
    params: Dict[str, np.ndarray]
    seed: int = 0
    kernel_bank: Optional[KernelBank] = None
    calibration: Optional[Calibration] = None
    mask_gated: bool = False

    def __post_init__(self):
        if len(self.class_labels) != self.dims.n_classes:
            raise ValueError("class label count must match n_classes")
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"parameter {name} contains non-finite values")

    def with_calibration(self, calibration: Calibration) -> "MoricModel":
        return replace(self, calibration=calibration)


def param_names(n_heads: int) -> List[str]:
    names = []
    for k in range(n_heads):
        names += [f"head{k}_w1", f"head{k}_b1", f"head{k}_w2", f"head{k}_b2"]
    names += ["cls_w1", "cls_b1", "cls_w2", "cls_b2"]
    return names


def _param_shapes(dims: ModelDims) -> Dict[str, Tuple[int, ...]]:
    shapes: Dict[str, Tuple[int, ...]] = {}
    for k in range(dims.n_heads):
        shapes[f"head{k}_w1"] = (dims.input_dim, dims.head_hidden)
        shapes[f"head{k}_b1"] = (dims.head_hidden,)
        shapes[f"head{k}_w2"] = (dims.head_hidden, dims.reduced_dim)
        shapes[f"head{k}_b2"] = (dims.reduced_dim,)
    shapes["cls_w1"] = (dims.n_heads * dims.reduced_dim, dims.cls_hidden)
    shapes["cls_b1"] = (dims.cls_hidden,)
    shapes["cls_w2"] = (dims.cls_hidden, dims.n_classes)
    shapes["cls_b2"] = (dims.n_classes,)
    return shapes


def init_params(dims: ModelDims, seed: int) -> Dict[str, np.ndarray]:
    """Uniform fan-in initialization, drawn in a fixed parameter order."""
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(dims)
    params = {}
    for name in param_names(dims.n_heads):
        shape = shapes[name]
        fan_in = shape[0] if len(shape) == 2 else shapes[name.replace("_b", "_w")][0]
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, shape)
    return params


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _select_rows(fs: FeatureSet, mask_gated: bool) -> np.ndarray:
    rows = fs.features
    if mask_gated and not np.all(fs.gated):
        rows = rows[~fs.gated]
    return rows


def forward(model: MoricModel, fs: FeatureSet) -> Tuple[np.ndarray, np.ndarray]:
    """Class logits and probabilities for one feature set.

    Every row is transformed independently (row-by-row vector products, so the
    result is bitwise independent of row order and repetition), max-pooled per
    head, and classified.
    """
    rows = _select_rows(fs, model.mask_gated)
    if rows.shape[0] == 0:
        raise ValueError("empty feature set")
    if rows.shape[1] != model.dims.input_dim:
        raise ValueError(
            f"feature dimension {rows.shape[1]} does not match model D={model.dims.input_dim}"
        )
    p = model.params
    pooled = []
    for k in range(model.dims.n_heads):
        w1, b1 = p[f"head{k}_w1"], p[f"head{k}_b1"]
        w2, b2 = p[f"head{k}_w2"], p[f"head{k}_b2"]
        fmax = None
        for row in rows:
            z1 = np.maximum(np.dot(row, w1) + b1, 0.0)
            f_red = np.dot(z1, w2) + b2
            fmax = f_red if fmax is None else np.maximum(fmax, f_red)
        pooled.append(fmax)
    u = np.concatenate(pooled)
    h = np.maximum(np.dot(u, p["cls_w1"]) + p["cls_b1"], 0.0)
    logits = np.dot(h, p["cls_w2"]) + p["cls_b2"]
    return logits, softmax(logits)


def predict(model: MoricModel, fs: FeatureSet, use_calibration: bool = False):
    """Predicted label and probability vector; ties break toward the lowest
    class index."""
    logits, probs = forward(model, fs)
    if use_calibration:
        if model.calibration is None:
            raise ValueError("model carries no calibration")
        probs = calibrated_probs(model.calibration, logits)
    idx = int(np.argmax(probs))
    return model.class_labels[idx], probs


# ---------------------------------------------------------------------------
# Batched forward/backward for training
# ---------------------------------------------------------------------------


def _pack_sets(row_matrices: Sequence[np.ndarray]):
    offsets = np.zeros(len(row_matrices) + 1, dtype=np.int64)
    for i, m in enumerate(row_matrices):
        offsets[i + 1] = offsets[i] + m.shape[0]
    rows = np.concatenate(row_matrices, axis=0)
    return rows, offsets


def _batch_forward(params, dims: ModelDims, rows: np.ndarray, offsets: np.ndarray):
    """Forward pass over a packed batch; returns logits plus the cache needed
    for backprop."""
    n_sets = len(offsets) - 1
    cache = {"rows": rows, "offsets": offsets, "heads": []}
    pooled = np.empty((n_sets, dims.n_heads * dims.reduced_dim))
    for k in range(dims.n_heads):
        w1, b1 = params[f"head{k}_w1"], params[f"head{k}_b1"]
        w2, b2 = params[f"head{k}_w2"], params[f"head{k}_b2"]
        z1 = np.maximum(rows @ w1 + b1, 0.0)
        f_red = z1 @ w2 + b2  # [total_rows, Dr]
        amax = np.empty((n_sets, dims.reduced_dim), dtype=np.int64)
        for b in range(n_sets):
            seg = f_red[offsets[b] : offsets[b + 1]]
            idx = np.argmax(seg, axis=0)  # first max: ties route to lowest row
            amax[b] = offsets[b] + idx
            pooled[b, k * dims.reduced_dim : (k + 1) * dims.reduced_dim] = seg[
                idx, np.arange(dims.reduced_dim)
            ]
        cache["heads"].append({"z1": z1, "amax": amax})
    h = np.maximum(pooled @ params["cls_w1"] + params["cls_b1"], 0.0)
    logits = h @ params["cls_w2"] + params["cls_b2"]
    cache["pooled"] = pooled
    cache["h"] = h
    return logits, cache


def smoothed_targets(labels_idx: np.ndarray, n_classes: int, smoothing: float) -> np.ndarray:
    q = np.full((len(labels_idx), n_classes), smoothing / n_classes)
    q[np.arange(len(labels_idx)), labels_idx] += 1.0 - smoothing
    return q


def loss_and_grads(params, dims: ModelDims, rows, offsets, labels_idx, smoothing: float):
    """Mean smoothed cross-entropy over the batch plus analytic gradients.

    The max-pool subgradient routes to exactly one argmax row per pooled
    dimension (the first maximum).
    """
    logits, cache = _batch_forward(params, dims, rows, offsets)
    n = logits.shape[0]
    probs = softmax(logits, axis=1)
    q = smoothed_targets(labels_idx, dims.n_classes, smoothing)
    loss = float(-np.sum(q * np.log(np.maximum(probs, 1e-300))) / n)

    grads = {}
    dz = (probs - q) / n
    grads["cls_w2"] = cache["h"].T @ dz
    grads["cls_b2"] = dz.sum(axis=0)
    dh = dz @ params["cls_w2"].T
    da = dh * (cache["h"] > 0)
    grads["cls_w1"] = cache["pooled"].T @ da
    grads["cls_b1"] = da.sum(axis=0)
    du = da @ params["cls_w1"].T  # [n_sets, K*Dr]
    dr_idx = np.arange(dims.reduced_dim)
    for k in range(dims.n_heads):
        head = cache["heads"][k]
        d_fmax = du[:, k * dims.reduced_dim : (k + 1) * dims.reduced_dim]
        d_fred = np.zeros((rows.shape[0], dims.reduced_dim))
        for b in range(n):
            # (row, dim) pairs are unique within a set, so indexed add is exact
            d_fred[head["amax"][b], dr_idx] += d_fmax[b]
        grads[f"head{k}_w2"] = head["z1"].T @ d_fred
        grads[f"head{k}_b2"] = d_fred.sum(axis=0)
        dz1 = d_fred @ params[f"head{k}_w2"].T
        da1 = dz1 * (head["z1"] > 0)
        grads[f"head{k}_w1"] = rows.T @ da1
        grads[f"head{k}_b1"] = da1.sum(axis=0)
    return loss, grads


def _batch_loss(params, dims, row_matrices, labels_idx, smoothing, batch_size=256):
    total = 0.0
    for start in range(0, len(row_matrices), batch_size):
        chunk = row_matrices[start : start + batch_size]
        rows, offsets = _pack_sets(chunk)
        logits, _ = _batch_forward(params, dims, rows, offsets)
        probs = softmax(logits, axis=1)
        q = smoothed_targets(labels_idx[start : start + batch_size], dims.n_classes, smoothing)
        total += float(-np.sum(q * np.log(np.maximum(probs, 1e-300))))
    return total / len(row_matrices)


def train(
    train_set: Sequence[Tuple[FeatureSet, str]],
    val_set: Sequence[Tuple[FeatureSet, str]],
    cfg: TrainConfig,
    n_heads: int = 2,
    head_hidden: int = 256,
    reduced_dim: int = 128,
    cls_hidden: int = 128,
    kernel_bank: Optional[KernelBank] = None,
    mask_gated: bool = False,
) -> MoricModel:
    """Train a set classifier, returning the checkpoint with the lowest
    validation loss. Deterministic for a fixed config seed and input order.

    Features are standardized to the training set's per-dimension moments for
    optimization conditioning; the affine transform is folded into the first
    layer of the returned model, so inference consumes raw features.
    """
    if not train_set:
        raise ValueError("empty training set")
    labels = sorted({lbl for _, lbl in train_set} | {lbl for _, lbl in val_set})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes, got {labels}")
    label_to_idx = {lbl: i for i, lbl in enumerate(labels)}
    input_dim = train_set[0][0].dim
    dims = ModelDims(
        input_dim=input_dim,
        n_heads=n_heads,
        head_hidden=head_hidden,
        reduced_dim=reduced_dim,
        cls_hidden=cls_hidden,
        n_classes=len(labels),
    )

    train_rows = [_select_rows(fs, mask_gated) for fs, _ in train_set]
    train_labels = np.array([label_to_idx[lbl] for _, lbl in train_set])
    val_rows = [_select_rows(fs, mask_gated) for fs, _ in val_set]
    val_labels = np.array([label_to_idx[lbl] for _, lbl in val_set])

    stacked = np.concatenate(train_rows, axis=0)
    feat_mean = stacked.mean(axis=0)
    feat_scale = np.maximum(stacked.std(axis=0), 1e-9)
    train_rows = [(r - feat_mean) / feat_scale for r in train_rows]
    val_rows = [(r - feat_mean) / feat_scale for r in val_rows]

    params = init_params(dims, cfg.seed)
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0

    rng = np.random.default_rng([cfg.seed, 0xBA7C])
    best_loss = np.inf
    best_params = copy.deepcopy(params)
    stale = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            rows, offsets = _pack_sets([train_rows[i] for i in batch])
            loss, grads = loss_and_grads(
                params, dims, rows, offsets, train_labels[batch], cfg.label_smoothing
            )
            if not np.isfinite(loss):
                raise ValueError(
                    f"non-finite training loss at epoch {epoch}, batch starting {start}"
                )
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for name, g in grads.items():
                m_state[name] = ADAM_BETA1 * m_state[name] + (1 - ADAM_BETA1) * g
                v_state[name] = ADAM_BETA2 * v_state[name] + (1 - ADAM_BETA2) * g * g
                update = (m_state[name] / bc1) / (np.sqrt(v_state[name] / bc2) + ADAM_EPS)
                params[name] -= cfg.lr * (update + cfg.weight_decay * params[name])

        if val_rows:
            val_loss = _batch_loss(params, dims, val_rows, val_labels, cfg.label_smoothing)
        else:
            val_loss = _batch_loss(params, dims, train_rows, train_labels, cfg.label_smoothing)
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = copy.deepcopy(params)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    # fold the feature standardization into the first layer:
    # ((x - mu) / sd) @ w1 + b1  ==  x @ (w1 / sd) + (b1 - (mu / sd) @ w1)
    for k in range(n_heads):
        w1 = best_params[f"head{k}_w1"]
        best_params[f"head{k}_b1"] = best_params[f"head{k}_b1"] - (feat_mean / feat_scale) @ w1
        best_params[f"head{k}_w1"] = w1 / feat_scale[:, None]

    return MoricModel(
        dims=dims,
        class_labels=tuple(labels),
        params=best_params,
        seed=cfg.seed,
        kernel_bank=kernel_bank,
        mask_gated=mask_gated,
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def calibrated_probs(calibration: Calibration, logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    return softmax(z / calibration.temperature + calibration.bias, axis=-1)


def calibrate(
    model: MoricModel,
    cal_set: Sequence[Tuple[FeatureSet, str]],
    steps: int = 500,
    lr: float = 0.01,
) -> Calibration:
    """Fit a temperature and per-class bias by gradient descent on the
    negative log likelihood of the calibration samples. The temperature is
    parameterized as exp(log T) so it stays positive."""
    if not cal_set:
        raise ValueError("empty calibration set")
    label_to_idx = {lbl: i for i, lbl in enumerate(model.class_labels)}
    logits = np.stack([forward(model, fs)[0] for fs, _ in cal_set])
    y = np.array([label_to_idx[lbl] for _, lbl in cal_set])
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0

    log_t = 0.0
    bias = np.zeros(c)
    for _ in range(steps):
        t = np.exp(log_t)
        q = softmax(logits / t + bias, axis=1)
        resid = (q - onehot) / n
        grad_bias = resid.sum(axis=0)
        grad_log_t = float(np.sum(resid * (-logits / t)))
        log_t -= lr * grad_log_t
        bias -= lr * grad_bias
    return Calibration(temperature=float(np.exp(log_t)), bias=bias)


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


def save_model(model: MoricModel, path) -> None:
    d = model.dims
    parts = [
        MODEL_MAGIC,
        struct.pack(
            "<IIIIIIIqB",
            MODEL_VERSION,
            d.input_dim,
            d.n_heads,
            d.head_hidden,
            d.reduced_dim,
            d.cls_hidden,
            d.n_classes,
            model.seed,
            int(model.mask_gated),
        ),
    ]
    for label in model.class_labels:
        blob = label.encode("utf-8")
        parts.append(struct.pack("<H", len(blob)))
        parts.append(blob)
    for name in param_names(d.n_heads):
        parts.append(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())
    if model.kernel_bank is not None:
        parts.append(b"\x01")
        parts.append(serialize_bank(model.kernel_bank))
    else:
        parts.append(b"\x00")
    if model.calibration is not None:
        parts.append(b"\x01")
        parts.append(struct.pack("<d", model.calibration.temperature))
        parts.append(np.asarray(model.calibration.bias, dtype="<f8").tobytes())
    else:
        parts.append(b"\x00")
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path) -> MoricModel:
    """Inverse of save_model. Raises FormatError on a bad magic, version,
    label, embedded bank or flag byte, and on any truncation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    r = ByteReader(raw, path, pos=4)
    version, input_dim, n_heads, head_hidden, reduced_dim, cls_hidden, n_classes, seed, mask_gated = r.unpack(
        "<IIIIIIIqB"
    )
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    dims = ModelDims(
        input_dim=input_dim,
        n_heads=n_heads,
        head_hidden=head_hidden,
        reduced_dim=reduced_dim,
        cls_hidden=cls_hidden,
        n_classes=n_classes,
    )
    labels = []
    for _ in range(n_classes):
        (length,) = r.unpack("<H")
        try:
            labels.append(r.take(length).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: class label is not UTF-8: {exc}") from None
    shapes = _param_shapes(dims)
    params = {
        name: r.array("<f4", int(np.prod(shapes[name]))).astype(np.float64).reshape(shapes[name])
        for name in param_names(n_heads)
    }
    bank = None
    if _read_flag(r):
        bank, used = deserialize_bank(raw, r.pos)
        r.pos += used
    calibration = None
    if _read_flag(r):
        (temperature,) = r.unpack("<d")
        calibration = Calibration(temperature=temperature, bias=r.array("<f8", n_classes))
    return MoricModel(
        dims=dims,
        class_labels=tuple(labels),
        params=params,
        seed=seed,
        kernel_bank=bank,
        calibration=calibration,
        mask_gated=bool(mask_gated),
    )


def _read_flag(r: ByteReader) -> bool:
    (flag,) = r.take(1)
    if flag not in (0, 1):
        raise FormatError(f"{r.source}: bad flag byte {flag} at byte {r.pos - 1}")
    return flag == 1
