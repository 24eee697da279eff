import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moric import classifier, lanes
from moric.classifier import (
    Calibration,
    ModelDims,
    MoricModel,
    TrainConfig,
    calibrate,
    calibrated_probs,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    param_names,
    predict,
    save_model,
    smoothed_targets,
    softmax,
    train,
    _batch_forward,
    _batch_loss,
    _distinct_rows,
    _pack_sets,
    _weight_count,
)
from moric.core import DopplerParams, FeatureSet, PipelineConfig
from moric.features import build_bank

from conftest import join_model, split_model


def make_feature_set(rng, n_rows=6, dim=12, label=None, rows=None):
    feats = rng.normal(size=(n_rows, dim)) if rows is None else rows
    n = feats.shape[0]
    return FeatureSet(
        features=feats,
        delay_bins=np.arange(n),
        streams=np.zeros(n, dtype=int),
        gated=np.zeros(n, dtype=bool),
        label=label,
    )


def small_model(rng_seed=0, dim=12, n_classes=3):
    dims = ModelDims(
        input_dim=dim, n_heads=2, head_hidden=8, reduced_dim=5, cls_hidden=6, n_classes=n_classes
    )
    params = init_params(dims, rng_seed)
    return MoricModel(
        dims=dims,
        class_labels=tuple(f"c{i}" for i in range(n_classes)),
        params=params,
        seed=rng_seed,
    )


def _reference_forward(model, fs):
    """Row-by-row forward pass: one vector product per row per head, a running
    max per head, then the classifier MLP."""
    rows = fs.features
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
    return np.dot(h, p["cls_w2"]) + p["cls_b2"]


def _signed_zero_twins(rng, dim=12):
    """A row and its copy with one 0.0 flipped to -0.0: equal as floats, not
    as bytes."""
    row = rng.normal(size=dim)
    row[3] = 0.0
    twin = row.copy()
    twin[3] = -0.0
    return make_feature_set(rng, rows=np.stack([row, twin]))


def _rows_subset(fs, idx):
    return FeatureSet(
        features=fs.features[idx],
        delay_bins=fs.delay_bins[idx],
        streams=fs.streams[idx],
        gated=fs.gated[idx],
    )


# ---------------------------------------------------------------------------
# Set invariance
# ---------------------------------------------------------------------------


def test_forward_matches_row_by_row_reference():
    rng = np.random.default_rng(7)
    dims = ModelDims(input_dim=1000, n_classes=4)
    model = MoricModel(
        dims=dims, class_labels=("a", "b", "c", "d"), params=init_params(dims, 3), seed=3
    )
    for n_rows in (1, 16, 156):
        feats = rng.normal(size=(n_rows, 1000))
        gated = np.zeros(n_rows, dtype=bool)
        gated[1::4] = True
        feats[gated] = 0.0
        fs = FeatureSet(
            features=feats,
            delay_bins=np.arange(n_rows),
            streams=np.zeros(n_rows, dtype=int),
            gated=gated,
        )
        logits, probs = forward(model, fs)
        want = _reference_forward(model, fs)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(logits - want) <= 1e-12 * scale), n_rows
        assert np.allclose(probs, softmax(want), rtol=0, atol=1e-12)


def test_forward_permutation_invariant_bitwise():
    rng = np.random.default_rng(1)
    model = small_model()
    for trial in range(20):
        fs = make_feature_set(rng, n_rows=rng.integers(1, 12))
        logits, probs = forward(model, fs)
        perm = rng.permutation(fs.n_rows)
        shuffled = FeatureSet(
            features=fs.features[perm],
            delay_bins=fs.delay_bins[perm],
            streams=fs.streams[perm],
            gated=fs.gated[perm],
        )
        logits_p, probs_p = forward(model, shuffled)
        assert np.array_equal(logits, logits_p)
        assert np.array_equal(probs, probs_p)
    twins = _signed_zero_twins(rng)
    logits, probs = forward(model, twins)
    logits_p, probs_p = forward(model, _rows_subset(twins, [1, 0]))
    assert np.array_equal(logits, logits_p)
    assert np.array_equal(probs, probs_p)


def test_forward_duplication_invariant_bitwise():
    rng = np.random.default_rng(2)
    model = small_model()
    for trial in range(20):
        fs = make_feature_set(rng, n_rows=rng.integers(1, 10))
        logits, _ = forward(model, fs)
        dup = rng.integers(0, fs.n_rows)
        stacked = FeatureSet(
            features=np.vstack([fs.features, fs.features[dup : dup + 1]]),
            delay_bins=np.concatenate([fs.delay_bins, fs.delay_bins[dup : dup + 1]]),
            streams=np.concatenate([fs.streams, fs.streams[dup : dup + 1]]),
            gated=np.concatenate([fs.gated, fs.gated[dup : dup + 1]]),
        )
        logits_d, _ = forward(model, stacked)
        assert np.array_equal(logits, logits_d)
    twins = _signed_zero_twins(rng)
    logits, _ = forward(model, twins)
    for idx in ([0, 1, 0], [1, 0, 1], [1, 1, 0, 0]):
        logits_d, _ = forward(model, _rows_subset(twins, idx))
        assert np.array_equal(logits, logits_d)


def test_softmax_is_a_distribution():
    rng = np.random.default_rng(3)
    model = small_model()
    fs = make_feature_set(rng)
    _, probs = forward(model, fs)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs > 0)


def test_forward_rejects_empty_and_mismatched():
    model = small_model()
    rng = np.random.default_rng(4)
    empty = FeatureSet(
        features=np.zeros((0, 12)),
        delay_bins=np.zeros(0, dtype=int),
        streams=np.zeros(0, dtype=int),
        gated=np.zeros(0, dtype=bool),
    )
    with pytest.raises(ValueError):
        forward(model, empty)
    with pytest.raises(ValueError):
        forward(model, make_feature_set(rng, dim=13))


def test_gated_only_set_still_classifies():
    model = small_model()
    n = 4
    fs = FeatureSet(
        features=np.zeros((n, 12)),
        delay_bins=np.arange(n),
        streams=np.zeros(n, dtype=int),
        gated=np.ones(n, dtype=bool),
    )
    label, probs = predict(model, fs)
    assert label in model.class_labels
    assert abs(probs.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Gradient correctness
# ---------------------------------------------------------------------------


def finite_difference_grad(params, dims, rows, offsets, labels, smoothing, name, index, eps=1e-4):
    base = params[name].copy()
    flat = params[name].reshape(-1)
    flat[index] += eps
    loss_plus, _ = loss_and_grads(params, dims, rows, offsets, labels, smoothing)
    flat[index] -= 2 * eps
    loss_minus, _ = loss_and_grads(params, dims, rows, offsets, labels, smoothing)
    params[name][...] = base
    return (loss_plus - loss_minus) / (2 * eps)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    dims = ModelDims(
        input_dim=10, n_heads=2, head_hidden=7, reduced_dim=4, cls_hidden=5, n_classes=3
    )
    params = init_params(dims, 3)
    sets = [rng.normal(size=(rng.integers(2, 6), 10)) for _ in range(4)]
    rows, offsets = _pack_sets(sets)
    labels = np.array([0, 1, 2, 1])
    loss, grads = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
    assert np.isfinite(loss)

    rng_probe = np.random.default_rng(23)
    for name in param_names(dims.n_heads):
        size = params[name].size
        for index in rng_probe.choice(size, size=min(4, size), replace=False):
            fd = finite_difference_grad(params, dims, rows, offsets, labels, 0.1, name, index)
            an = grads[name].reshape(-1)[index]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4, f"{name}[{index}]: fd={fd}, analytic={an}"


def _reference_loss_and_grads(params, dims, rows, offsets, labels_idx, smoothing):
    """The dense per-name float64 backward pass: every row of the batch,
    argmax or not, one new array per gradient."""
    logits, cache = _batch_forward(params, dims, rows, offsets)
    n = logits.shape[0]
    probs = softmax(logits, axis=1)
    q = smoothed_targets(labels_idx, dims.n_classes, smoothing)
    loss = float(-np.sum(q * np.log(np.maximum(probs, 1e-300))) / n)
    grads = {}
    dz = (probs - q) / n
    grads["cls_w2"] = cache["h"].T @ dz
    grads["cls_b2"] = dz.sum(axis=0)
    da = (dz @ params["cls_w2"].T) * (cache["h"] > 0)
    grads["cls_w1"] = cache["pooled"].T @ da
    grads["cls_b1"] = da.sum(axis=0)
    du = da @ params["cls_w1"].T
    dr_idx = np.arange(dims.reduced_dim)
    for k in range(dims.n_heads):
        head = cache["heads"][k]
        d_fmax = du[:, k * dims.reduced_dim : (k + 1) * dims.reduced_dim]
        d_fred = np.zeros((rows.shape[0], dims.reduced_dim))
        for b in range(n):
            d_fred[head["amax"][b], dr_idx] += d_fmax[b]
        grads[f"head{k}_w2"] = head["z1"].T @ d_fred
        grads[f"head{k}_b2"] = d_fred.sum(axis=0)
        da1 = (d_fred @ params[f"head{k}_w2"].T) * (head["z1"] > 0)
        grads[f"head{k}_w1"] = rows.T @ da1
        grads[f"head{k}_b1"] = da1.sum(axis=0)
    return loss, grads


def test_gradients_follow_row_dtype():
    rng = np.random.default_rng(19)
    dims = ModelDims(input_dim=30, n_heads=2, head_hidden=12, reduced_dim=6, cls_hidden=7, n_classes=3)
    params = {k: v.astype(np.float32).astype(np.float64) for k, v in init_params(dims, 5).items()}
    rows, offsets = _pack_sets([rng.normal(size=(int(rng.integers(1, 9)), 30)) for _ in range(6)])
    rows = rows.astype(np.float32).astype(np.float64)
    labels = np.array([0, 1, 2, 2, 1, 0])
    want_loss, want = _reference_loss_and_grads(params, dims, rows, offsets, labels, 0.1)

    loss, grads = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name in param_names(dims.n_heads):
        assert grads[name].dtype == np.float64
        assert np.allclose(grads[name], want[name], rtol=1e-12, atol=1e-15), name

    params32 = {k: v.astype(np.float32) for k, v in params.items()}
    loss, grads = loss_and_grads(params32, dims, rows.astype(np.float32), offsets, labels, 0.1)
    assert loss == pytest.approx(want_loss, rel=1e-5)
    for name in param_names(dims.n_heads):
        assert grads[name].dtype == np.float32
        scale = np.max(np.abs(want[name]))
        assert np.allclose(grads[name], want[name], rtol=0, atol=1e-4 * scale), name


def test_argmax_row_backward_matches_dense_reference():
    # ragged batches holding tied (repeated) rows, an all-gated set whose rows
    # all share one vector, and a one-row set
    rng = np.random.default_rng(47)
    dims = ModelDims(input_dim=9, n_heads=2, head_hidden=8, reduced_dim=5, cls_hidden=6, n_classes=3)
    params = init_params(dims, 7)
    gated = rng.normal(size=9)
    for trial in range(4):
        sets = []
        for _ in range(5):
            m = rng.normal(size=(int(rng.integers(2, 9)), 9))
            m[rng.integers(1, m.shape[0])] = m[0]
            m[-1] = gated
            sets.append(m)
        sets += [np.tile(gated, (4, 1)), rng.normal(size=(1, 9))]
        rows, offsets = _pack_sets([sets[i] for i in rng.permutation(len(sets))])
        labels = rng.integers(0, dims.n_classes, size=len(sets))
        _, cache = _batch_forward(params, dims, rows, offsets)
        for head in cache["heads"]:  # the backward runs on a strict subset of rows
            assert np.unique(head["amax"]).size < rows.shape[0]

        want_loss, want = _reference_loss_and_grads(params, dims, rows, offsets, labels, 0.1)
        loss, grads = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
        assert loss == want_loss
        for name in param_names(dims.n_heads):
            assert np.allclose(grads[name], want[name], rtol=1e-12, atol=1e-15), (trial, name)


def test_float32_loss_stays_finite_when_a_probability_underflows():
    # exp(-300) is 0 in float32 but a normal float64
    dims = ModelDims(input_dim=4, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    params = {k: v.astype(np.float32) for k, v in init_params(dims, 2).items()}
    params["cls_w2"][...] = 0.0
    params["cls_b2"][...] = [0.0, -300.0]
    rows, offsets = _pack_sets([np.ones((2, 4), dtype=np.float32)])
    loss, grads = loss_and_grads(params, dims, rows, offsets, np.array([0]), 0.1)
    assert np.isfinite(loss) and loss > 0
    assert _batch_loss(params, dims, [rows], np.array([0]), 0.1) == pytest.approx(loss, rel=1e-12)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def _passthrough_params(dims):
    """Head parameters that make f_red equal the input row (for x > -10)."""
    params = init_params(dims, 1)
    eye = np.eye(dims.input_dim)
    params["head0_w1"] = eye.copy()
    params["head0_b1"] = np.full(dims.head_hidden, 10.0)
    params["head0_w2"] = eye.copy()
    params["head0_b2"] = np.full(dims.reduced_dim, -10.0)
    return params


def test_max_pool_routes_to_single_argmax_row():
    # with a passthrough head, pooling takes the per-dimension max of the raw
    # rows, so a strictly dominated row must receive no gradient at all
    dims = ModelDims(input_dim=3, n_heads=1, head_hidden=3, reduced_dim=3, cls_hidden=4, n_classes=2)
    params = _passthrough_params(dims)
    rows = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]])
    offsets = np.array([0, 2])
    labels = np.array([0])
    loss, _ = loss_and_grads(params, dims, rows, offsets, labels, 0.0)
    rows2 = rows.copy()
    rows2[0] *= 1.5  # still dominated in every dimension
    loss2, _ = loss_and_grads(params, dims, rows2, offsets, labels, 0.0)
    assert loss == loss2
    rows3 = rows.copy()
    rows3[1] *= 1.5  # perturbing the argmax row must change the loss
    loss3, _ = loss_and_grads(params, dims, rows3, offsets, labels, 0.0)
    assert loss3 != loss


def test_max_pool_ties_route_to_first_row():
    from moric.classifier import _batch_forward

    dims = ModelDims(input_dim=3, n_heads=1, head_hidden=3, reduced_dim=3, cls_hidden=4, n_classes=2)
    params = _passthrough_params(dims)
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    offsets = np.array([0, 3])
    _, cache = _batch_forward(params, dims, rows, offsets)
    assert np.array_equal(cache["heads"][0]["amax"][0], np.zeros(3, dtype=int))


# ---------------------------------------------------------------------------
# Training behavior
# ---------------------------------------------------------------------------


def separable_dataset(rng, n_per_class=12, dim=16):
    """Two classes built from two distinct constant patterns plus jitter."""
    sets = []
    for label, center in (("a", 1.5), ("b", -1.5)):
        for _ in range(n_per_class):
            base = np.full((4, dim), center) + 0.05 * rng.normal(size=(4, dim))
            sets.append((make_feature_set(rng, rows=base, label=label), label))
    return sets


def test_training_separates_two_constant_classes():
    rng = np.random.default_rng(31)
    data = separable_dataset(rng)
    cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=50, patience=50, seed=5, n_heads=2)
    model = train(
        data,
        data[:4],
        cfg,
        head_hidden=16,
        reduced_dim=8,
        cls_hidden=8,
    )
    correct = sum(predict(model, fs)[0] == lbl for fs, lbl in data)
    assert correct == len(data)  # 100% train accuracy within 50 epochs


def test_loss_approaches_label_smoothing_floor():
    # cross-entropy with smoothing cannot reach 0; at perfect large-margin
    # prediction it approaches the closed-form floor
    alpha, c = 0.1, 2
    floor = -((1 - alpha) * np.log(1 - alpha + alpha / c) + alpha * (c - 1) / c * np.log(alpha / c))
    assert floor == pytest.approx(0.195951, abs=1e-5)

    rng = np.random.default_rng(37)
    data = separable_dataset(rng, n_per_class=8)
    cfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=400, patience=400, seed=2)
    model = train(data, data, cfg, head_hidden=16, reduced_dim=8, cls_hidden=8)
    rows = [fs.features for fs, _ in data]
    labels = np.array([0 if lbl == "a" else 1 for _, lbl in data])
    final_loss = _batch_loss(model.params, model.dims, rows, labels, alpha)
    assert final_loss > floor  # the floor is unreachable from above
    assert final_loss - floor < 0.01


def test_training_loss_non_increasing_early():
    rng = np.random.default_rng(41)
    data = separable_dataset(rng, n_per_class=8)
    rows = [fs.features for fs, _ in data]
    labels = np.array([0 if lbl == "a" else 1 for _, lbl in data])
    losses = []
    for epochs in range(1, 11):
        cfg = TrainConfig(lr=1e-2, batch_size=len(data), max_epochs=epochs, patience=1000, seed=3)
        model = train(data, data, cfg, head_hidden=16, reduced_dim=8, cls_hidden=8)
        losses.append(_batch_loss(model.params, model.dims, rows, labels, 0.1))
    assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(losses, losses[1:]))


def test_training_is_seed_repeatable():
    rng = np.random.default_rng(43)
    data = separable_dataset(rng, n_per_class=6)
    cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=10, patience=10, seed=11)
    m1 = train(data, data[:4], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    m2 = train(data, data[:4], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    for name in param_names(m1.dims.n_heads):
        assert np.array_equal(m1.params[name], m2.params[name])


def test_training_on_doubled_sets_matches_the_originals():
    # doubling every row of every set leaves the feature moments unchanged,
    # and each doubled set trains on its distinct rows: the originals
    rng = np.random.default_rng(53)
    data = separable_dataset(rng, n_per_class=6)
    doubled = [
        (make_feature_set(rng, rows=np.concatenate([fs.features, fs.features]), label=lbl), lbl)
        for fs, lbl in data
    ]
    cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=10, patience=10, seed=13)
    m1 = train(data, data[:4], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    m2 = train(doubled, doubled[:4], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    for name in param_names(m1.dims.n_heads):
        assert np.allclose(m1.params[name], m2.params[name], rtol=1e-5, atol=1e-6), name


def test_distinct_rows_keep_first_occurrence_order():
    rng = np.random.default_rng(59)
    a, b, c = rng.normal(size=(3, 5))
    a[2] = 0.0
    a_twin = a.copy()
    a_twin[2] = -0.0  # equal as floats, not as bytes: a distinct row
    rows = np.stack([b, a, b, c, a_twin, a, c, b])
    got = _distinct_rows(rows)
    want = np.stack([b, a, c, a_twin])
    assert got.tobytes() == want.tobytes()
    assert _distinct_rows(rows[::-1]).tobytes() == np.stack([b, c, a, a_twin]).tobytes()


def _assert_views_of_one_buffer(params, names):
    """The arrays are float64 views packed back to back in `names` order."""
    base = params[names[0]].base
    addr = params[names[0]].__array_interface__["data"][0]
    for name in names:
        p = params[name]
        assert p.dtype == np.float64 and p.flags.c_contiguous and p.base is base, name
        assert p.__array_interface__["data"][0] == addr, name
        addr += p.nbytes
    assert base.nbytes == addr - base.__array_interface__["data"][0]


def test_trained_and_loaded_params_are_views_of_one_buffer(tmp_path):
    rng = np.random.default_rng(44)
    data = separable_dataset(rng, n_per_class=4)
    cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=3, patience=3, seed=2, n_heads=3)
    model = train(data, data[:2], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    names = param_names(3)
    _assert_views_of_one_buffer(model.params, names)
    first, second = tmp_path / "a.morm", tmp_path / "b.morm"
    save_model(model, first)
    loaded = load_model(first)
    _assert_views_of_one_buffer(loaded.params, names)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_trained_model_equals_the_model_its_file_holds(tmp_path):
    # train folds the feature standardization into w1/b1 in float64 and then
    # rounds every parameter to the f32 value a model file stores
    rng = np.random.default_rng(47)
    data = separable_dataset(rng, n_per_class=6)
    cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=5, patience=5, seed=4)
    model = train(data, data[:4], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)
    path = tmp_path / "model.morm"
    save_model(model, path)
    loaded = load_model(path)
    for name in param_names(model.dims.n_heads):
        assert loaded.params[name].tobytes() == model.params[name].tobytes(), name
    for fs, _ in data:
        assert forward(loaded, fs)[0].tobytes() == forward(model, fs)[0].tobytes()


def _reference_init_params(dims, seed):
    """One array per parameter, drawn name by name in param_names order."""
    shapes = {}
    for k in range(dims.n_heads):
        shapes[f"head{k}_w1"] = (dims.input_dim, dims.head_hidden)
        shapes[f"head{k}_b1"] = (dims.head_hidden,)
        shapes[f"head{k}_w2"] = (dims.head_hidden, dims.reduced_dim)
        shapes[f"head{k}_b2"] = (dims.reduced_dim,)
    shapes["cls_w1"] = (dims.n_heads * dims.reduced_dim, dims.cls_hidden)
    shapes["cls_b1"] = (dims.cls_hidden,)
    shapes["cls_w2"] = (dims.cls_hidden, dims.n_classes)
    shapes["cls_b2"] = (dims.n_classes,)
    rng = np.random.default_rng(seed)
    params = {}
    for name in param_names(dims.n_heads):
        shape = shapes[name]
        fan_in = shape[0] if len(shape) == 2 else shapes[name.replace("_b", "_w")][0]
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, shape)
    return params


def test_init_params_matches_per_name_draw_bitwise():
    for n_heads, seed in ((1, 0), (2, 7), (3, 123)):
        dims = ModelDims(
            input_dim=20, n_heads=n_heads, head_hidden=9, reduced_dim=5, cls_hidden=6, n_classes=4
        )
        got = init_params(dims, seed)
        want = _reference_init_params(dims, seed)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape and np.array_equal(got[name], want[name]), name
        _assert_views_of_one_buffer(got, param_names(n_heads))


def test_training_rejects_single_class():
    rng = np.random.default_rng(47)
    data = [(make_feature_set(rng, label="a"), "a") for _ in range(4)]
    with pytest.raises(ValueError):
        train(data, data, TrainConfig(seed=0))


def test_training_rejects_a_feature_set_with_no_rows():
    rng = np.random.default_rng(48)
    data = separable_dataset(rng, n_per_class=2)
    empty = (make_feature_set(rng, rows=np.zeros((0, 16))), "a")
    cfg = TrainConfig(max_epochs=1, patience=1)
    with pytest.raises(ValueError, match="feature set 2 of the training set has no rows"):
        train(data[:2] + [empty] + data[2:], data, cfg)
    with pytest.raises(ValueError, match="feature set 1 of the validation set has no rows"):
        train(data, [data[0], empty], cfg)


def test_train_config_rejects_bad_values_and_carries_the_head_count():
    assert TrainConfig().n_heads == ModelDims.n_heads
    for kwargs, message in (
        ({"lr": float("nan")}, "lr must be finite and positive"),
        ({"lr": float("inf")}, "lr must be finite and positive"),
        ({"lr": 0.0}, "lr must be finite and positive"),
        ({"weight_decay": float("inf")}, "weight_decay must lie in"),
        ({"weight_decay": float("nan")}, "weight_decay must lie in"),
        ({"weight_decay": -1e-4}, "weight_decay must lie in"),
        ({"val_fraction": -0.1}, r"val_fraction must lie in \[0, 1.0\)"),
        ({"val_fraction": 1.0}, "val_fraction must lie in"),
        ({"val_fraction": float("nan")}, "val_fraction must lie in"),
        ({"label_smoothing": 1.0}, "label_smoothing must lie in"),
        ({"n_heads": 0}, "n_heads must be >= 1, got 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ({"patience": 0}, "patience must be >= 1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_identity_calibration_matches_softmax():
    rng = np.random.default_rng(53)
    z = rng.normal(size=(5, 4))
    cal = Calibration(temperature=1.0, bias=np.zeros(4))
    assert np.allclose(calibrated_probs(cal, z), softmax(z, axis=1), atol=1e-15)


def test_infinite_temperature_limit_is_uniform():
    rng = np.random.default_rng(59)
    z = rng.normal(size=(3, 5))
    cal = Calibration(temperature=1e9, bias=np.zeros(5))
    q = calibrated_probs(cal, z)
    assert np.allclose(q, 0.2, atol=1e-9)


def test_two_class_calibration_formula():
    cal = Calibration(temperature=2.0, bias=np.zeros(2))
    q = calibrated_probs(cal, np.array([2.0, 0.0]))
    e = np.e
    assert q[0] == pytest.approx(e / (e + 1), rel=1e-12)
    assert q[1] == pytest.approx(1 / (e + 1), rel=1e-12)


def test_temperature_only_calibration_preserves_argmax():
    rng = np.random.default_rng(61)
    for _ in range(200):
        z = rng.normal(size=6)
        t = float(rng.uniform(0.05, 50.0))
        cal = Calibration(temperature=t, bias=np.zeros(6))
        assert np.argmax(calibrated_probs(cal, z)) == np.argmax(softmax(z))


def test_calibration_freezes_its_own_copy_of_the_bias():
    bias = np.zeros(3)
    cal = Calibration(temperature=1.0, bias=bias)
    bias[0] = 5.0  # the caller's array stays writeable and apart
    assert cal.bias[0] == 0.0
    with pytest.raises(ValueError):
        cal.bias[0] = 1.0


def test_calibrate_improves_biased_labels():
    # model with systematically shifted logits: calibration fixes the shift
    rng = np.random.default_rng(67)
    model = small_model(n_classes=2)
    sets = [make_feature_set(rng, label=f"c{i % 2}") for i in range(12)]
    logits = np.stack([forward(model, fs)[0] for fs in sets])
    labels = np.arange(12) % 2
    (cal,) = calibrate(logits[None], labels[None], steps=200, lr=0.05)
    assert cal.temperature > 0
    assert cal.bias.shape == (2,)


def test_calibrate_rejects_empty_set():
    with pytest.raises(ValueError, match="empty calibration set"):
        calibrate(np.zeros((1, 0, 3)), np.zeros((1, 0), dtype=np.int64))


def test_predict_calibrated_b0_same_argmax():
    rng = np.random.default_rng(71)
    model = small_model()
    cal_model = model.with_calibration(Calibration(temperature=3.7, bias=np.zeros(3)))
    for _ in range(10):
        fs = make_feature_set(rng)
        plain, _ = predict(model, fs)
        scaled, _ = predict(cal_model, fs, use_calibration=True)
        assert plain == scaled


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


def _model_with_bank_and_calibration():
    dims = ModelDims(input_dim=16, n_heads=2, head_hidden=6, reduced_dim=4, cls_hidden=5, n_classes=3)
    params = init_params(dims, 9)
    # force f32-representable weights so the round trip is exact
    params = {k: v.astype(np.float32).astype(np.float64) for k, v in params.items()}
    bank = build_bank(21, 4, 3, 40)
    model = MoricModel(
        dims=dims,
        class_labels=("circle", "left_right", "up_down"),
        params=params,
        seed=9,
        kernel_bank=bank,
        calibration=Calibration(temperature=1.5, bias=np.array([0.1, -0.2, 0.05])),
        pipeline=PipelineConfig(doppler=DopplerParams(window_len=16), kernel_seed=21, n_kernels=4),
    )
    return model, dims, bank


def test_model_save_load_round_trip(tmp_path):
    model, dims, bank = _model_with_bank_and_calibration()
    path = tmp_path / "model.morm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dims == dims
    assert loaded.class_labels == model.class_labels
    assert loaded.seed == 9
    assert loaded.pipeline == model.pipeline
    for name in param_names(2):
        assert np.array_equal(loaded.params[name], model.params[name])
    assert loaded.calibration.temperature == pytest.approx(1.5)
    assert np.array_equal(loaded.calibration.bias, model.calibration.bias)
    from moric.features import serialize_bank

    assert serialize_bank(loaded.kernel_bank) == serialize_bank(bank)
    # saved bytes are stable across a save/load/save cycle
    path2 = tmp_path / "model2.morm"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_keeps_weights_and_calibration_bitwise(tmp_path):
    """The trailer's JSON floats round-trip exactly: a calibration that no
    short decimal writes survives the file unchanged, as do f32 weights."""
    model, _, _ = _model_with_bank_and_calibration()
    rng = np.random.default_rng(12)
    calibration = Calibration(temperature=1.0 / 3.0 + 1e-17, bias=rng.normal(size=3) * 1e-5)
    model = model.with_calibration(calibration)
    path = tmp_path / "model.morm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.calibration.temperature == calibration.temperature
    assert loaded.calibration.bias.tobytes() == calibration.bias.tobytes()
    for name in param_names(2):
        assert loaded.params[name].tobytes() == model.params[name].tobytes()


def test_load_model_rejects_bad_magic(tmp_path):
    from moric.core import FormatError

    p = tmp_path / "bad.morm"
    p.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(FormatError):
        load_model(p)


def test_load_model_rejects_every_truncation(tmp_path):
    from moric.core import FormatError

    model, _, _ = _model_with_bank_and_calibration()
    path = tmp_path / "model.morm"
    save_model(model, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.morm"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            load_model(cut)


def test_load_model_bounds_header_by_file_size(tmp_path):
    """A header whose weight count needs more bytes than the file holds is
    rejected before the weights are allocated."""
    from moric.core import FormatError

    path = tmp_path / "huge.morm"
    path.write_bytes(join_model(b"", b"", {}, n_weights=2**32 - 1))
    assert path.stat().st_size == 22
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"need {4 * (2**32 - 1)} more"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    # the bound is exact: one byte short of the weights trips it, and a file
    # ending right after them fails later, at the bank
    model, _, _ = _model_with_bank_and_calibration()
    save_model(model, path)
    raw = path.read_bytes()
    weights, bank, _ = split_model(raw)
    weights_end = 16 + len(weights)
    path.write_bytes(raw[: weights_end - 1])
    with pytest.raises(FormatError, match=f"need {len(weights)} more"):
        load_model(path)
    path.write_bytes(raw[:weights_end])
    with pytest.raises(FormatError, match=f"need {len(bank)} more"):
        load_model(path)


def test_load_model_rejects_bad_label_and_bank_magic(tmp_path):
    from moric.core import FormatError

    model, _, _ = _model_with_bank_and_calibration()
    path = tmp_path / "model.morm"
    save_model(model, path)
    raw = path.read_bytes()
    weights, bank, meta = split_model(raw)
    label_at = raw.rindex(b"circle")
    corruptions = {
        "non-string label": join_model(weights, bank, {**meta, "class_labels": [1, "left_right", "up_down"]}),
        "non-UTF-8 label": raw[:label_at] + b"\xff" + raw[label_at + 1 :],
        "bank magic": join_model(weights, b"XBNK" + bank[4:], meta),
    }
    for name, blob in corruptions.items():
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_model(path)


def test_load_model_rejects_fields_its_constructors_reject(tmp_path):
    """A complete file whose dims, weights or calibration break a model
    invariant is a bad file (FormatError naming the path), not bad input."""
    from moric.core import FormatError

    model, _, _ = _model_with_bank_and_calibration()
    path = tmp_path / "model.morm"
    save_model(model, path)
    weights, bank, meta = split_model(path.read_bytes())
    corruptions = {
        "n_heads must be >= 1": join_model(weights, bank, {**meta, "dims": {**meta["dims"], "n_heads": 0}}),
        "non-finite": join_model(struct.pack("<f", np.nan) + weights[4:], bank, meta),
        "temperature must be positive": join_model(
            weights, bank, {**meta, "calibration": {**meta["calibration"], "temperature": 0.0}}
        ),
    }
    for message, blob in corruptions.items():
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert str(path) in str(exc.value)


def test_model_rejects_a_bank_of_another_dimension_and_duplicate_labels(tmp_path):
    from moric.core import FormatError

    model, dims, _ = _model_with_bank_and_calibration()
    narrow = replace(dims, input_dim=8)
    with pytest.raises(ValueError, match="kernel bank dimension 16 does not match model D=8"):
        replace(model, dims=narrow, params=init_params(narrow, 0))
    with pytest.raises(ValueError, match="duplicate class labels"):
        replace(model, class_labels=("circle", "circle", "up_down"))
    # a file holding either is a bad file
    path = tmp_path / "model.morm"
    save_model(model, path)
    weights, bank, meta = split_model(path.read_bytes())
    save_model(replace(model, kernel_bank=None, pipeline=None, dims=narrow, params=init_params(narrow, 0)), path)
    narrow_weights, _, narrow_meta = split_model(path.read_bytes())
    corruptions = {
        "does not match model D=8": join_model(narrow_weights, bank, {**narrow_meta, "pipeline": meta["pipeline"]}),
        "duplicate class labels": join_model(weights, bank, {**meta, "class_labels": ["a", "a", "b"]}),
    }
    for message, blob in corruptions.items():
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert str(path) in str(exc.value)


def test_training_bits_do_not_depend_on_the_head_pool(tmp_path, monkeypatch):
    # the default pool spreads a step's heads and its AdamW update over the
    # usable CPUs; with no workers every part runs on the calling thread
    rng = np.random.default_rng(61)
    data = separable_dataset(rng, n_per_class=6, dim=40)
    dims = ModelDims(input_dim=40, n_heads=3, head_hidden=16, reduced_dim=8, cls_hidden=8, n_classes=3)
    params = {k: v.astype(np.float32) for k, v in init_params(dims, 9).items()}
    rows, offsets = _pack_sets([rng.normal(size=(int(rng.integers(1, 9)), 40)).astype(np.float32) for _ in range(6)])
    labels = np.array([0, 1, 2, 2, 1, 0])

    def outputs(path):
        cfg = TrainConfig(lr=1e-2, batch_size=4, max_epochs=6, patience=6, seed=8, n_heads=3)
        save_model(train(data, data[:4], cfg, head_hidden=16, reduced_dim=8, cls_hidden=8), path)
        return path.read_bytes(), loss_and_grads(params, dims, rows, offsets, labels, 0.1)

    pooled_file, (pooled_loss, pooled_grads) = outputs(tmp_path / "pooled.morm")
    monkeypatch.setattr(lanes, "POOL_SIZE", 0)
    serial_file, (serial_loss, serial_grads) = outputs(tmp_path / "serial.morm")
    assert pooled_file == serial_file
    assert pooled_loss == serial_loss
    for name in param_names(3):
        assert pooled_grads[name].tobytes() == serial_grads[name].tobytes(), name


def test_training_memory_peak_in_weight_vectors():
    # in float32 weight vectors, train's state is the weights, the gradient,
    # the two AdamW moments and the best checkpoint (5), plus the AdamW
    # blocks' temporaries; the float64 model it returns (2) is built after the
    # training state is freed. Measured tracemalloc peaks on this corpus:
    # 5.4 (serial) and 5.5 (two threads) vectors; 8.1 while train also held a
    # second gradient per step and folded through full float64 and float32
    # copies with the training state alive
    rng = np.random.default_rng(67)
    data = separable_dataset(rng, n_per_class=4, dim=1000)
    cfg = TrainConfig(lr=1e-2, batch_size=4, max_epochs=2, patience=2, seed=1)
    vector_bytes = 4 * _weight_count(ModelDims(input_dim=1000))
    tracemalloc.start()
    try:
        train(data, data[:2], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * vector_bytes, peak / vector_bytes


def test_train_aborts_on_divergent_loss():
    rng = np.random.default_rng(83)
    data = separable_dataset(rng, n_per_class=4, dim=8)
    # an absurd learning rate drives the loss non-finite within a few steps
    cfg = TrainConfig(lr=1e12, batch_size=4, max_epochs=20, patience=20, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            train(data, data[:2], cfg, head_hidden=8, reduced_dim=4, cls_hidden=4)



def _with_pipeline(raw: bytes, doc) -> bytes:
    """`raw` with the pipeline of its closing trailer replaced by `doc`."""
    weights, bank, meta = split_model(raw)
    return join_model(weights, bank, {**meta, "pipeline": doc})


def test_load_model_rejects_version_2_bad_counts_and_bad_trailer(tmp_path):
    """Besides the version, the header's weight count must be the one the
    dims imply and its bank byte count what the bank consumes; the trailer
    must be present and hold every key of every record."""
    from moric.core import FormatError

    model, _, _ = _model_with_bank_and_calibration()
    path = tmp_path / "model.morm"
    save_model(model, path)
    raw = path.read_bytes()
    weights, bank, meta = split_model(raw)
    n = len(weights) // 4
    doc = model.pipeline.to_dict()
    doppler = doc["doppler"]
    corruptions = {
        "version 2": (raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported model version 2"),
        "version 3": (raw[:4] + struct.pack("<I", 3) + raw[8:], "unsupported model version 3"),
        "appended": (raw + b"garbage!", "8 bytes after the trailer"),
        "one weight more": (join_model(weights + bytes(4), bank, meta), f"{n + 1} weights where the dims need {n}"),
        "one weight less": (join_model(weights[:-4], bank, meta), f"{n - 1} weights where the dims need {n}"),
        "bank one byte short": (
            join_model(weights, bank, meta, n_bank=len(bank) - 1),
            f"the kernel bank takes {len(bank)} bytes, the header says {len(bank) - 1}",
        ),
        "bank one byte long": (
            join_model(weights, bank + b"\x00", meta),
            f"the kernel bank takes {len(bank)} bytes, the header says {len(bank) + 1}",
        ),
        "missing trailer": (raw[: 16 + len(weights) + len(bank)], "missing the model trailer"),
        "missing key": (_with_pipeline(raw, {k: v for k, v in doc.items() if k != "snr_threshold_db"}),
                        r"bad model.pipeline: missing keys \['snr_threshold_db'\]"),
        "unknown key": (_with_pipeline(raw, {**doc, "normalize": True}),
                        r"bad model.pipeline: unknown keys \['normalize'\]"),
        "v3 hampel switch": (_with_pipeline(raw, {**doc, "use_hampel": True}),
                             r"bad model.pipeline: unknown keys \['use_hampel'\]"),
        "unknown doppler key": (_with_pipeline(raw, {**doc, "doppler": {**doppler, "window_fn": "hann"}}),
                                r"bad model.pipeline.doppler: unknown keys \['window_fn'\]"),
        "v3 estimator": (_with_pipeline(raw, {**doc, "doppler": {**doppler, "estimator": "psd_argmax"}}),
                         r"bad model.pipeline.doppler: unknown keys \['estimator'\]"),
        "wrong type": (_with_pipeline(raw, {**doc, "n_kernels": "4"}), "bad model.pipeline.n_kernels"),
        "bad doppler": (_with_pipeline(raw, {**doc, "doppler": {**doppler, "hop": 0}}), "hop must be >= 1"),
        "unknown top-level key": (join_model(weights, bank, {**meta, "extra": 1}),
                                  r"bad model: unknown keys \['extra'\]"),
        "missing top-level key": (join_model(weights, bank, {k: v for k, v in meta.items() if k != "seed"}),
                                  r"bad model: missing keys \['seed'\]"),
        "missing dims key": (
            join_model(weights, bank, {**meta, "dims": {k: v for k, v in meta["dims"].items() if k != "n_heads"}}),
            r"bad model.dims: missing keys \['n_heads'\]",
        ),
        "null dims field": (join_model(weights, bank, {**meta, "dims": {**meta["dims"], "n_heads": None}}),
                            "bad model.dims.n_heads: expected an integer"),
        "NaN bias": (
            join_model(weights, bank, {**meta, "calibration": {**meta["calibration"], "bias": [0.0, float("nan"), 0.0]}}),
            r"bad model.calibration.bias\[1\]: expected a number, got nan",
        ),
        "infinite bias": (
            join_model(weights, bank, {**meta, "calibration": {**meta["calibration"], "bias": [0.0, float("-inf"), 0.0]}}),
            r"bad model.calibration.bias\[1\]: expected a number, got -inf",
        ),
        "bias length": (join_model(weights, bank, {**meta, "calibration": {**meta["calibration"], "bias": [0.0]}}),
                        "calibration bias must hold 3 values"),
        "trailer not an object": (join_model(weights, bank, [meta]), r"bad model: expected an object, got \["),
        "kernel_seed": (_with_pipeline(raw, {**doc, "kernel_seed": 22}), "differ from the bank"),
        "n_kernels": (_with_pipeline(raw, {**doc, "n_kernels": 5}), "differ from the bank"),
        "n_biases": (_with_pipeline(raw, {**doc, "n_biases": 2}), "differ from the bank"),
    }
    for name, (blob, message) in corruptions.items():
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert str(path) in str(exc.value), name
    # no JSON number is non-finite, so only a constructor call can pass one
    with pytest.raises(ValueError, match="bias must be a vector of finite values"):
        Calibration(temperature=1.0, bias=[0.0, np.nan, 0.0])
    # the untouched trailer loads, and a model without a pipeline or a
    # calibration stores null
    path.write_bytes(_with_pipeline(raw, doc))
    assert load_model(path).pipeline == model.pipeline
    save_model(replace(model, pipeline=None, calibration=None), path)
    assert split_model(path.read_bytes())[2]["pipeline"] is None
    loaded = load_model(path)
    assert loaded.pipeline is None and loaded.calibration is None


def test_model_rejects_pipeline_that_disagrees_with_its_bank():
    model, _, _ = _model_with_bank_and_calibration()
    for change in ({"kernel_seed": 22}, {"n_kernels": 5}, {"n_biases": 2}):
        with pytest.raises(ValueError, match="differ from the bank"):
            replace(model, pipeline=replace(model.pipeline, **change))
    # either half alone is fine
    assert replace(model, kernel_bank=None, pipeline=replace(model.pipeline, n_kernels=5)).pipeline
    assert replace(model, pipeline=None).kernel_bank is not None


def test_unknown_label_is_named_before_any_forward_pass(monkeypatch):
    from moric import classifier, harness

    rng = np.random.default_rng(97)
    model = small_model()
    calls = []
    monkeypatch.setattr(classifier, "forward", lambda *args: calls.append(args))
    # sets of the wrong dimension would fail the forward pass with another message
    samples = [
        harness.PipelineSample(make_feature_set(rng, dim=5), label, "s", f"x{i}", {})
        for i, label in enumerate(["c0", "up_down", "c0", "up_down"])
    ]
    message = "gesture 'up_down' is not a class of the model"
    with pytest.raises(ValueError, match=message):
        harness.run_calibration_sweep(samples, model, [0, 1], n_draws=2)
    with pytest.raises(ValueError, match=message):
        harness.evaluate_samples(model, samples)
    assert calls == []
