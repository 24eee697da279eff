"""Set classifier over per-delay-bin feature vectors.

Shared MLP heads reduce every feature row independently; an elementwise max
over rows pools each head's outputs into a fixed-size vector, and a second MLP
maps the concatenated pooled vectors to class logits. Training and inference
run one batched forward kernel; inference first deduplicates and sorts a set's
rows by their bytes, making the prediction bitwise invariant to row order and
repetition. Training is plain mini-batch backprop with an adaptive-moment
optimizer using decoupled weight decay, cross-entropy with label smoothing,
and early stopping on validation loss. It drops each set's repeated rows
once, keeping first occurrences in order, and each head's backward pass runs
over its argmax rows only: the max-pool gives every other row zero gradient.
A post-hoc temperature + per-class-bias calibration can be fitted on the fixed
logits of a handful of held-out samples; `calibrate` fits many draws of them
as one batched descent.

A model file (MORM, version 4) goes through `core.write_framed` and
`core.read_framed` like CSIT and DVEL: a header that sizes the payload,
the f32 weights and the kernel bank, then a JSON trailer holding the dims,
class labels, seed, calibration and the `PipelineConfig` that made the
features.

The parameters live in one flat vector, packed in `param_names` order (the
MORM weight layout); the named arrays are views of it. Training runs in
float32: weights, optimizer state, gradients and every matrix product, with
only the softmax and the loss taken in float64. The returned model is float64
holding the f32 values its file stores, and inference runs in float64.

A training step fans its heads' forward and backward passes, one head per
item, and the AdamW update of the flat vector, one `ADAM_BLOCK` slice per
item, out over up to n_heads lanes (`moric.lanes`); each item writes its own
memory with the arithmetic of a serial step. Inference (`forward`,
`predict`) runs one set on the calling thread. `train` and `forward` hold BLAS at one thread, so their bits depend
on neither thread count. `train` holds five float32 weight vectors (weights,
gradient, two moments, best checkpoint) and frees them before it builds the
float64 model it returns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import FeatureSet, FormatError, JsonRecord, PipelineConfig, format_errors, read_framed, write_framed
from .features import KernelBank, deserialize_bank, serialize_bank
from .lanes import in_lanes, one_blas_thread

MODEL_MAGIC = b"MORM"
MODEL_VERSION = 4
_MODEL_HEADER = struct.Struct("<4sIII")  # magic, version, f32 weight count, kernel bank bytes

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per optimizer block: ~256 KiB of float32 per vector
LOSS_CHUNK_SETS = 256  # sets per forward pass of an epoch's validation loss
CALIBRATE_STEPS = 500  # gradient steps of a calibration fit
CALIBRATE_LR = 0.01  # and their step size
CALIBRATE_DRAWS = 10  # seeded draws per samples-per-class count of a calibration sweep


@dataclass(frozen=True)
class ModelDims(JsonRecord):
    _require_all_keys = True

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
class Calibration(JsonRecord):
    """Temperature plus per-class bias applied to logits before the softmax."""

    temperature: float
    bias: np.ndarray

    def __post_init__(self):
        if not (self.temperature > 0 and np.isfinite(self.temperature)):
            raise ValueError("temperature must be positive")
        b = np.array(self.bias, dtype=np.float64)  # a copy: the caller's array stays writeable
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ValueError("bias must be a vector of finite values")
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = field(default=1e-4, metadata={"flag": "--lr", "help": "AdamW learning rate"})
    batch_size: int = field(default=64, metadata={"flag": "--batch", "help": "training sets per step"})
    max_epochs: int = field(default=2500, metadata={"flag": "--epochs", "help": "most epochs to train"})
    label_smoothing: float = 0.1
    patience: int = field(default=200, metadata={"flag": "--patience", "help": "early-stopping patience in epochs"})
    weight_decay: float = field(default=1e-4, metadata={"flag": "--weight-decay", "help": "AdamW weight decay"})
    seed: int = 0  # the CLI's root --seed
    val_fraction: float = field(default=0.15, metadata={"flag": "--val-frac", "help": "validation share of each class"})
    n_heads: int = field(default=ModelDims.n_heads, metadata={"flag": "--heads", "help": "shared MLP heads"})

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name, top in (("weight_decay", math.inf), ("label_smoothing", 1.0), ("val_fraction", 1.0)):
            if not 0 <= getattr(self, name) < top:
                raise ValueError(f"{name} must lie in [0, {top}), got {getattr(self, name)}")


@dataclass(frozen=True)
class MoricModel:
    dims: ModelDims
    class_labels: Tuple[str, ...]
    params: Dict[str, np.ndarray]
    seed: int = 0
    kernel_bank: Optional[KernelBank] = None
    calibration: Optional[Calibration] = None
    pipeline: Optional[PipelineConfig] = None

    def __post_init__(self):
        if len(self.class_labels) != self.dims.n_classes:
            raise ValueError("class label count must match n_classes")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValueError(f"duplicate class labels {list(self.class_labels)}")
        if self.calibration is not None and self.calibration.bias.shape != (self.dims.n_classes,):
            raise ValueError(f"calibration bias must hold {self.dims.n_classes} values")
        p, bank = self.pipeline, self.kernel_bank
        if bank is not None and bank.dim != self.dims.input_dim:
            raise ValueError(f"kernel bank dimension {bank.dim} does not match model D={self.dims.input_dim}")
        if p is not None and bank is not None:
            want, got = (p.kernel_seed, p.n_kernels, p.n_biases), (bank.seed, bank.n_kernels, bank.n_biases)
            if want != got:
                raise ValueError(f"pipeline kernel_seed, n_kernels, n_biases {want} differ from the bank's {got}")
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"parameter {name} contains non-finite values")


def param_names(n_heads: int) -> List[str]:
    names = []
    for k in range(n_heads):
        names += [f"head{k}_w1", f"head{k}_b1", f"head{k}_w2", f"head{k}_b2"]
    names += ["cls_w1", "cls_b1", "cls_w2", "cls_b2"]
    return names


def _part_shapes(dims: ModelDims):
    """Shapes of (w1, b1, w2, b2) for one head and for the classifier MLP."""
    hid, red, ch, nc = dims.head_hidden, dims.reduced_dim, dims.cls_hidden, dims.n_classes
    head = ((dims.input_dim, hid), (hid,), (hid, red), (red,))
    cls = ((dims.n_heads * red, ch), (ch,), (ch, nc), (nc,))
    return head, cls


def _weight_count(dims: ModelDims) -> int:
    head, cls = _part_shapes(dims)
    return dims.n_heads * sum(map(math.prod, head)) + sum(map(math.prod, cls))


def _param_views(dims: ModelDims, flat: np.ndarray) -> Dict[str, np.ndarray]:
    """The named parameters as views of `flat` [_weight_count(dims)], packed
    in param_names order: the MORM weight layout."""
    head, cls = _part_shapes(dims)
    views, pos = {}, 0
    for name, shape in zip(param_names(dims.n_heads), head * dims.n_heads + cls):
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    return views


def _init_weights(dims: ModelDims, seed: int, dtype=np.float64) -> np.ndarray:
    """Uniform fan-in initialization of the flat weight vector, drawn in
    param_names order in float64 and stored as `dtype`."""
    rng = np.random.default_rng(seed)
    flat = np.empty(_weight_count(dims), dtype=dtype)
    params = _param_views(dims, flat)
    for name, p in params.items():
        bound = 1.0 / np.sqrt(params[name.replace("_b", "_w")].shape[0])
        p[...] = rng.uniform(-bound, bound, p.shape)
    return flat


def init_params(dims: ModelDims, seed: int) -> Dict[str, np.ndarray]:
    """Uniform fan-in initialization, drawn in a fixed parameter order; the
    arrays are views of one float64 buffer."""
    return _param_views(dims, _init_weights(dims, seed))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


@one_blas_thread()
def forward(model: MoricModel, fs: FeatureSet) -> Tuple[np.ndarray, np.ndarray]:
    """Class logits and probabilities for one feature set.

    The rows are deduplicated and sorted by their raw bytes (so a row and its
    signed-zero twin stay apart), then run through the training kernel as one
    set: any permutation or repetition of the rows reaches the matrix products
    as the same matrix, so the result is bitwise invariant to both.
    """
    rows = fs.features
    if rows.shape[0] == 0:
        raise ValueError("empty feature set")
    if rows.shape[1] != model.dims.input_dim:
        raise ValueError(
            f"feature dimension {rows.shape[1]} does not match model D={model.dims.input_dim}"
        )
    rows = np.ascontiguousarray(rows)
    rows = np.unique(_row_keys(rows)).view(rows.dtype).reshape(-1, model.dims.input_dim)
    logits, _ = _batch_forward(model.params, model.dims, rows, np.array([0, rows.shape[0]]))
    return logits[0], softmax(logits[0])


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
# Batched forward/backward, shared by training and inference
# ---------------------------------------------------------------------------


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a C-contiguous matrix, equal only for rows
    with equal raw bytes."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """One copy of each distinct row, compared by raw bytes, in order of first
    occurrence."""
    rows = np.ascontiguousarray(rows)
    _, first = np.unique(_row_keys(rows), return_index=True)
    return rows[np.sort(first)]


def _pack_sets(row_matrices: Sequence[np.ndarray]):
    offsets = np.zeros(len(row_matrices) + 1, dtype=np.int64)
    for i, m in enumerate(row_matrices):
        offsets[i + 1] = offsets[i] + m.shape[0]
    rows = np.concatenate(row_matrices, axis=0)
    return rows, offsets


def _batch_forward(params, dims: ModelDims, rows: np.ndarray, offsets: np.ndarray, lanes: int = 1):
    """Forward pass over a packed batch, the heads spread over up to `lanes`
    lanes; returns logits plus the cache needed for backprop."""
    n_sets = len(offsets) - 1
    pooled = np.empty((n_sets, dims.n_heads * dims.reduced_dim), dtype=rows.dtype)

    heads = in_lanes(lambda k: _head_forward(params, dims, k, rows, offsets, pooled), dims.n_heads, lanes)
    h = np.maximum(pooled @ params["cls_w1"] + params["cls_b1"], 0.0)
    logits = h @ params["cls_w2"] + params["cls_b2"]
    return logits, {"rows": rows, "offsets": offsets, "heads": heads, "pooled": pooled, "h": h}


def _head_forward(params, dims: ModelDims, k: int, rows, offsets, pooled) -> dict:
    """Head k's shared MLP over every row and its max-pool per set, written
    into head k's columns of `pooled`; returns the head's backprop cache."""
    dr = dims.reduced_dim
    z1 = rows @ params[f"head{k}_w1"]
    z1 += params[f"head{k}_b1"]
    np.maximum(z1, 0.0, out=z1)
    f_red = z1 @ params[f"head{k}_w2"] + params[f"head{k}_b2"]  # [total_rows, Dr]
    amax = np.empty((len(offsets) - 1, dr), dtype=np.int64)
    for b in range(len(amax)):
        # first max: ties route to the lowest row
        amax[b] = np.argmax(f_red[offsets[b] : offsets[b + 1]], axis=0)
    amax += offsets[:-1, None]
    pooled[:, k * dr : (k + 1) * dr] = f_red[amax, np.arange(dr)]
    return {"z1": z1, "amax": amax}


def smoothed_targets(labels_idx: np.ndarray, n_classes: int, smoothing: float) -> np.ndarray:
    q = np.full((len(labels_idx), n_classes), smoothing / n_classes)
    q[np.arange(len(labels_idx)), labels_idx] += 1.0 - smoothing
    return q


def _smoothed_cross_entropy(logits: np.ndarray, labels_idx: np.ndarray, smoothing: float):
    """Summed smoothed cross-entropy of logits [n, C], the float64 softmax and the targets."""
    # float64 softmax: a float32 probability can underflow to 0 and the loss to inf
    probs = softmax(logits.astype(np.float64), axis=1)
    q = smoothed_targets(labels_idx, logits.shape[1], smoothing)
    return float(-np.sum(q * np.log(np.maximum(probs, 1e-300)))), probs, q


def loss_and_grads(params, dims: ModelDims, rows, offsets, labels_idx, smoothing: float):
    """Mean smoothed cross-entropy over the batch plus analytic gradients,
    named views of one flat vector of `rows.dtype` in param_names order.

    The max-pool subgradient routes to exactly one argmax row per pooled
    dimension (the first maximum); each head's backward pass runs over the
    rows that are an argmax of some dimension.
    """
    grad = np.empty(_weight_count(dims), dtype=rows.dtype)
    loss = _loss_and_flat_grad(params, dims, rows, offsets, labels_idx, smoothing, grad)
    return loss, _param_views(dims, grad)


def _loss_and_flat_grad(params, dims: ModelDims, rows, offsets, labels_idx, smoothing: float, grad) -> float:
    """loss_and_grads writing the gradient into the flat vector `grad`, the
    heads' forward and backward passes spread over one lane per head."""
    logits, cache = _batch_forward(params, dims, rows, offsets, dims.n_heads)
    n = logits.shape[0]
    total, probs, q = _smoothed_cross_entropy(logits, labels_idx, smoothing)

    grads = _param_views(dims, grad)
    dz = ((probs - q) / n).astype(rows.dtype)
    np.matmul(cache["h"].T, dz, out=grads["cls_w2"])
    grads["cls_b2"][...] = dz.sum(axis=0)
    dh = dz @ params["cls_w2"].T
    da = dh * (cache["h"] > 0)
    np.matmul(cache["pooled"].T, da, out=grads["cls_w1"])
    grads["cls_b1"][...] = da.sum(axis=0)
    du = da @ params["cls_w1"].T  # [n_sets, K*Dr]
    dr = dims.reduced_dim
    in_lanes(
        lambda k: _head_backward(params, dims, k, rows, cache["heads"][k], du[:, k * dr : (k + 1) * dr], grads),
        dims.n_heads,
    )
    return total / n


def _head_backward(params, dims: ModelDims, k: int, rows, head: dict, d_fmax, grads) -> None:
    """Head k's parameter gradients, written into `grads`, from the gradient
    of its pooled outputs d_fmax [n_sets, Dr]."""
    # only a head's argmax rows get gradient; run its backward on those
    hit = np.zeros(rows.shape[0], dtype=bool)
    hit[head["amax"]] = True
    active = np.flatnonzero(hit)
    compact = np.cumsum(hit) - 1  # row -> index among the active rows
    d_fred = np.zeros((active.size, dims.reduced_dim), dtype=rows.dtype)
    # each row belongs to one set, so the (row, dim) pairs are unique
    d_fred[compact[head["amax"]], np.arange(dims.reduced_dim)] = d_fmax
    z1 = head["z1"][active]
    np.matmul(z1.T, d_fred, out=grads[f"head{k}_w2"])
    grads[f"head{k}_b2"][...] = d_fred.sum(axis=0)
    dz1 = d_fred @ params[f"head{k}_w2"].T
    da1 = dz1 * (z1 > 0)
    np.matmul(rows[active].T, da1, out=grads[f"head{k}_w1"])
    grads[f"head{k}_b1"][...] = da1.sum(axis=0)


def _batch_loss(params, dims, row_matrices, labels_idx, smoothing):
    total = 0.0
    for start in range(0, len(row_matrices), LOSS_CHUNK_SETS):
        rows, offsets = _pack_sets(row_matrices[start : start + LOSS_CHUNK_SETS])
        logits, _ = _batch_forward(params, dims, rows, offsets, dims.n_heads)
        total += _smoothed_cross_entropy(logits, labels_idx[start : start + LOSS_CHUNK_SETS], smoothing)[0]
    return total / len(row_matrices)


@one_blas_thread()
def train(
    train_set: Sequence[Tuple[FeatureSet, str]],
    val_set: Sequence[Tuple[FeatureSet, str]],
    cfg: TrainConfig,
    head_hidden: int = ModelDims.head_hidden,
    reduced_dim: int = ModelDims.reduced_dim,
    cls_hidden: int = ModelDims.cls_hidden,
    kernel_bank: Optional[KernelBank] = None,
) -> MoricModel:
    """Train a set classifier, returning the checkpoint with the lowest
    validation loss. Deterministic for a fixed config seed and input order.

    Features are standardized to the training set's per-dimension moments
    (over every row, repeats included) for optimization conditioning; the
    affine transform is folded into the first layer of the returned model, so
    inference consumes raw features. Each set trains on its distinct rows.
    """
    if not train_set:
        raise ValueError("empty training set")
    for name, items in (("training", train_set), ("validation", val_set)):
        for i, (fs, _) in enumerate(items):
            if fs.n_rows == 0:
                raise ValueError(f"feature set {i} of the {name} set has no rows")
    labels = sorted({lbl for _, lbl in train_set} | {lbl for _, lbl in val_set})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes, got {labels}")
    label_to_idx = {lbl: i for i, lbl in enumerate(labels)}
    input_dim = train_set[0][0].dim
    dims = ModelDims(
        input_dim=input_dim,
        n_heads=cfg.n_heads,
        head_hidden=head_hidden,
        reduced_dim=reduced_dim,
        cls_hidden=cls_hidden,
        n_classes=len(labels),
    )

    train_labels = np.array([label_to_idx[lbl] for _, lbl in train_set])
    val_labels = np.array([label_to_idx[lbl] for _, lbl in val_set])

    stacked = np.concatenate([fs.features for fs, _ in train_set], axis=0)  # repeats included
    feat_mean = stacked.mean(axis=0)
    feat_scale = np.maximum(stacked.std(axis=0), 1e-9)
    del stacked  # a float64 copy of every training row: not kept through the epochs
    # a repeated row never changes the max-pool or its gradient, so each set
    # trains on its distinct rows; first-occurrence order keeps the first-max
    # tie rule routing to the same row
    train_rows = [((_distinct_rows(fs.features) - feat_mean) / feat_scale).astype(np.float32) for fs, _ in train_set]
    val_rows = [((_distinct_rows(fs.features) - feat_mean) / feat_scale).astype(np.float32) for fs, _ in val_set]

    flat = _init_weights(dims, cfg.seed, np.float32)
    params = _param_views(dims, flat)
    grad = np.empty_like(flat)
    m_state = np.zeros_like(flat)
    v_state = np.zeros_like(flat)
    step = 0

    rng = np.random.default_rng([cfg.seed, 0xBA7C])
    best_loss = np.inf
    best = flat.copy()
    stale = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            rows, offsets = _pack_sets([train_rows[i] for i in batch])
            loss = _loss_and_flat_grad(
                params, dims, rows, offsets, train_labels[batch], cfg.label_smoothing, grad
            )
            del rows, offsets  # the packed batch is not kept through the validation pass
            if not np.isfinite(loss):
                raise ValueError(
                    f"non-finite training loss at epoch {epoch}, batch starting {start}"
                )
            step += 1
            _adam_step(flat, grad, m_state, v_state, step, cfg, dims.n_heads)

        if val_rows:
            val_loss = _batch_loss(params, dims, val_rows, val_labels, cfg.label_smoothing)
        else:
            val_loss = _batch_loss(params, dims, train_rows, train_labels, cfg.label_smoothing)
        if val_loss < best_loss:
            best_loss = val_loss
            np.copyto(best, flat)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    # the float64 model below is the largest allocation: drop the training state first
    del flat, params, grad, m_state, v_state, train_rows, val_rows
    folded = best.astype(np.float64)
    del best
    best_params = _param_views(dims, folded)
    # fold the feature standardization into the first layer:
    # ((x - mu) / sd) @ w1 + b1  ==  x @ (w1 / sd) + (b1 - (mu / sd) @ w1)
    for k in range(dims.n_heads):
        w1 = best_params[f"head{k}_w1"]
        best_params[f"head{k}_b1"] -= (feat_mean / feat_scale) @ w1
        w1 /= feat_scale[:, None]
    # MORM stores f32: rounding here makes the returned model the one a file holds
    for p in best_params.values():
        p[...] = p.astype(np.float32)

    return MoricModel(
        dims=dims,
        class_labels=tuple(labels),
        params=best_params,
        seed=cfg.seed,
        kernel_bank=kernel_bank,
    )


def _adam_step(flat, grad, m, v, step: int, cfg: TrainConfig, lanes: int) -> None:
    """One AdamW update of the flat weights and moment vectors, in place, one
    `ADAM_BLOCK` slice per item over up to `lanes` lanes, so that each block's
    temporaries stay in cache. The update is elementwise, so the split leaves
    the bits alone."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step

    def update_block(b: int) -> None:
        w, g, mb, vb = (a[b * ADAM_BLOCK : (b + 1) * ADAM_BLOCK] for a in (flat, grad, m, v))
        mb += (1 - ADAM_BETA1) * (g - mb)
        vb += (1 - ADAM_BETA2) * (g * g - vb)
        update = np.sqrt(vb / bc2)
        update += ADAM_EPS
        np.divide(mb / bc1, update, out=update)
        update += cfg.weight_decay * w
        update *= cfg.lr
        w -= update

    in_lanes(update_block, -(-flat.size // ADAM_BLOCK), lanes)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def label_indices(model: MoricModel, labels: Sequence[str]) -> np.ndarray:
    """Class indices of `labels`; raises ValueError naming a label that is
    not one of the model's classes."""
    index = {lbl: i for i, lbl in enumerate(model.class_labels)}
    unknown = sorted(set(labels) - index.keys())
    if unknown:
        raise ValueError(
            f"gesture {unknown[0]!r} is not a class of the model {list(model.class_labels)}"
        )
    return np.array([index[lbl] for lbl in labels], dtype=np.int64)


def calibrated_probs(calibration: Calibration, logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    return softmax(z / calibration.temperature + calibration.bias, axis=-1)


def check_calibrate_args(steps: int, lr: float) -> None:
    """Raise ValueError for fewer than 1 step or an lr that is not finite and positive."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"lr must be finite and positive, got {lr}")


def calibrate(
    logits: np.ndarray,
    labels: np.ndarray,
    steps: int = CALIBRATE_STEPS,
    lr: float = CALIBRATE_LR,
) -> Tuple[Calibration, ...]:
    """Fit a temperature and per-class bias per draw by gradient descent on
    the negative log likelihood of that draw's calibration samples.

    `logits` [draws, n, C] are the samples' fixed logits and `labels`
    [draws, n] their class indices. All draws run as one batched descent, and
    each draw's arithmetic is that of a fit on the draw alone. The temperature
    is parameterized as exp(log T) so it stays positive. Every step writes
    into buffers allocated once: a fit of a few samples costs its numpy calls,
    not its arithmetic."""
    check_calibrate_args(steps, lr)
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 3 or labels.shape != logits.shape[:2]:
        raise ValueError(f"logits {logits.shape} and labels {labels.shape} are not [draws, n, C], [draws, n]")
    draws, n, c = logits.shape
    if draws == 0 or n == 0:
        raise ValueError("empty calibration set")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must be class indices in [0, {c})")
    onehot = np.zeros((draws, n, c))
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=2)

    log_t = np.zeros(draws)
    bias = np.zeros((draws, 1, c))
    t = np.empty((draws, 1, 1))
    scaled = np.empty_like(logits)  # logits / T
    z = np.empty_like(logits)  # scaled + bias, then its softmax, then the residual
    row = np.empty((draws, n, 1))  # per-sample max, then softmax denominator
    grad_bias = np.empty_like(bias)
    step_t = np.empty(draws)
    add, maximum = np.add.reduce, np.maximum.reduce
    for _ in range(steps):
        np.exp(log_t, t[:, 0, 0])
        np.divide(logits, t, scaled)
        np.add(scaled, bias, z)
        maximum(z, axis=2, keepdims=True, out=row)
        np.subtract(z, row, z)
        np.exp(z, z)
        add(z, axis=2, keepdims=True, out=row)
        np.divide(z, row, z)
        np.subtract(z, onehot, z)
        np.divide(z, n, z)
        add(z, axis=1, keepdims=True, out=grad_bias)
        # d loss / d log T = sum(resid * -scaled); IEEE negation is exact, so
        # adding lr * sum(resid * scaled) is subtracting lr times the gradient
        np.multiply(z, scaled, z)
        add(z, axis=(1, 2), out=step_t)
        np.multiply(step_t, lr, step_t)
        np.add(log_t, step_t, log_t)
        np.multiply(grad_bias, lr, grad_bias)
        np.subtract(bias, grad_bias, bias)
    return tuple(
        Calibration(temperature=float(np.exp(lt)), bias=b[0]) for lt, b in zip(log_t, bias)
    )


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ModelMeta(JsonRecord):
    """The JSON trailer of a model file: every MoricModel field but the
    weights and the kernel bank, which precede it as binary payload."""

    _json_name = "model"
    _require_all_keys = True

    dims: ModelDims
    class_labels: Tuple[str, ...]
    seed: int
    calibration: Optional[Calibration]
    pipeline: Optional[PipelineConfig]


def save_model(model: MoricModel, path) -> None:
    weights = np.concatenate([np.ravel(model.params[n]) for n in param_names(model.dims.n_heads)], dtype="<f4")
    bank = serialize_bank(model.kernel_bank) if model.kernel_bank is not None else b""
    meta = _ModelMeta(
        dims=model.dims,
        class_labels=model.class_labels,
        seed=model.seed,
        calibration=model.calibration,
        pipeline=model.pipeline,
    )
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, weights.size, len(bank))
    write_framed(path, header, weights.tobytes() + bank, meta)


def load_model(path) -> MoricModel:
    """Inverse of save_model. Raises FormatError on a bad magic or version, a
    weight count or bank size the file does not hold or the dims do not
    imply, a bad embedded bank, a missing or malformed trailer, any truncation
    or trailing bytes, and on a decoded field that MoricModel or the records
    it holds reject."""
    r, (n_weights, n_bank) = read_framed(path, _MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, "model")
    weights = r.array("<f4", n_weights)  # bounded by the file size before it allocates
    bank_at = r.pos
    r.take(n_bank)  # a file too short for the bank is truncated, whatever the bank holds
    bank = None
    if n_bank:
        try:
            bank, used = deserialize_bank(r.raw, bank_at)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if used != n_bank:
            raise FormatError(f"{path}: the kernel bank takes {used} bytes, the header says {n_bank}")
    meta = r.trailer(_ModelMeta)
    if meta is None:
        raise FormatError(f"{path}: missing the model trailer")
    with format_errors(path), np.errstate(invalid="ignore"):  # MoricModel rejects a signaling NaN as quiet
        if n_weights != _weight_count(meta.dims):
            raise FormatError(f"{path}: {n_weights} weights where the dims need {_weight_count(meta.dims)}")
        params = _param_views(meta.dims, weights.astype(np.float64))
        return MoricModel(params=params, kernel_bank=bank, **vars(meta))
