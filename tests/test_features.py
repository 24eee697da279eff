import numpy as np
import pytest

from moric.features import (
    BLOCK_SAMPLES,
    Kernel,
    KernelBank,
    apply_batch,
    build_bank,
    deserialize_bank,
    serialize_bank,
)
from moric.core import FormatError

from conftest import bank_field_patches, two_kernel_bank


def brute_force_features(kernel: Kernel, x: np.ndarray):
    """Independent oracle: nested-loop dilated convolution and feature census."""
    pad = kernel.padding
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    out_len = len(padded) - (kernel.length - 1) * kernel.dilation
    z = []
    for t in range(out_len):
        acc = 0.0
        for j in range(kernel.length):
            acc += kernel.weights[j] * padded[t + j * kernel.dilation]
        z.append(acc)
    z = np.array(z)
    feats = [z.max() + kernel.biases[0]]
    for b in kernel.biases:
        feats.append(np.mean(z + b > 0))
    return np.array(feats)


def per_kernel_reference(bank: KernelBank, x: np.ndarray) -> np.ndarray:
    """The transform as one dilated convolution per kernel, one pass per tap."""
    out = np.empty((x.shape[0], bank.dim))
    for k, kernel in enumerate(bank.kernels):
        xp = np.pad(x, ((0, 0), (kernel.padding, kernel.padding)))
        out_len = xp.shape[1] - (kernel.length - 1) * kernel.dilation
        z = np.zeros((x.shape[0], out_len))
        for j in range(kernel.length):
            off = j * kernel.dilation
            z += kernel.weights[j] * xp[:, off : off + out_len]
        col = k * bank.features_per_kernel
        out[:, col] = z.max(axis=1) + kernel.biases[0]
        for j, b in enumerate(kernel.biases):
            out[:, col + 1 + j] = np.mean(z > -b, axis=1)
    return out


def test_same_seed_same_bank():
    b1 = build_bank(7, 50, 3, 100)
    b2 = build_bank(7, 50, 3, 100)
    assert serialize_bank(b1) == serialize_bank(b2)
    b3 = build_bank(8, 50, 3, 100)
    assert serialize_bank(b1) != serialize_bank(b3)


def test_short_series_forces_unit_dilation():
    bank = build_bank(3, 200, 2, 12)
    assert all(k.dilation == 1 for k in bank.kernels)
    # receptive field never exceeds the series
    for k in bank.kernels:
        assert (k.length - 1) * k.dilation + 1 <= 12


def test_receptive_field_bound_holds_generally():
    for t in (16, 40, 300, 1000):
        bank = build_bank(5, 300, 3, t)
        for k in bank.kernels:
            assert (k.length - 1) * k.dilation + 1 <= t


def test_length_distribution_uniform():
    bank = build_bank(123, 10_000, 1, 100)
    lengths = np.array([k.length for k in bank.kernels])
    n = len(lengths)
    p = 1.0 / 3.0
    sigma = np.sqrt(n * p * (1 - p))
    for target in (7, 9, 11):
        count = np.sum(lengths == target)
        assert abs(count - n * p) <= 3 * sigma


def test_zero_input_features_reflect_bias():
    bank = build_bank(0, 1, 1, 50)
    kernel = bank.kernels[0]
    # z is identically zero, so features depend on the bias alone
    pos = Kernel(
        length=kernel.length,
        weights=kernel.weights,
        biases=np.array([0.5]),
        dilation=kernel.dilation,
        padded=kernel.padded,
    )
    neg = Kernel(
        length=kernel.length,
        weights=kernel.weights,
        biases=np.array([-0.5]),
        dilation=kernel.dilation,
        padded=kernel.padded,
    )
    for k, max_expected, ppv_expected in ((pos, 0.5, 1.0), (neg, -0.5, 0.0)):
        b = KernelBank(seed=0, input_length=50, n_biases=1, kernels=(k,))
        feats = apply_batch(b, np.zeros((1, 50)))[0]
        assert feats[0] == pytest.approx(max_expected)
        assert feats[1] == pytest.approx(ppv_expected)


def test_impulse_matches_brute_force_oracle():
    x = np.zeros(20)
    x[9] = 1.0
    for padded in (False, True):
        kernel_src = build_bank(11, 1, 3, 20).kernels[0]
        kernel = Kernel(
            length=7,
            weights=kernel_src.weights[:7] - kernel_src.weights[:7].mean(),
            biases=kernel_src.biases,
            dilation=1,
            padded=padded,
        )
        bank = KernelBank(seed=0, input_length=20, n_biases=3, kernels=(kernel,))
        got = apply_batch(bank, x[None])[0]
        expected = brute_force_features(kernel, x)
        assert np.allclose(got, expected, atol=1e-12)


def test_random_series_match_brute_force_oracle():
    rng = np.random.default_rng(77)
    bank = build_bank(42, 8, 3, 64)
    x = rng.normal(size=64)
    got = apply_batch(bank, x[None])[0]
    expected = np.concatenate([brute_force_features(k, x) for k in bank.kernels])
    assert np.allclose(got, expected, atol=1e-12)


def test_ppv_bounds_and_finite_max():
    rng = np.random.default_rng(5)
    bank = build_bank(9, 30, 3, 128)
    feats = apply_batch(bank, rng.normal(size=(10, 128)))
    fpk = bank.features_per_kernel
    ppv = np.concatenate([feats[:, k * fpk + 1 : (k + 1) * fpk] for k in range(bank.n_kernels)], axis=1)
    assert np.all(ppv >= 0.0) and np.all(ppv <= 1.0)
    assert np.all(np.isfinite(feats))


def test_equal_rows_give_equal_features():
    rng = np.random.default_rng(6)
    bank = build_bank(1, 20, 2, 50)
    x = rng.normal(size=50)
    batch = np.stack([x, rng.normal(size=50), x])
    feats = apply_batch(bank, batch)
    assert np.array_equal(feats[0], feats[2])
    assert not np.array_equal(feats[0], feats[1])


def test_dimension_bookkeeping():
    bank = build_bank(1, 250, 3, 100)
    assert bank.dim == 1000
    assert bank.features_per_kernel == 4
    feats = apply_batch(bank, np.zeros((2, 100)))
    assert feats.shape == (2, 1000)


def test_apply_validates_length():
    bank = build_bank(1, 5, 2, 64)
    with pytest.raises(ValueError, match="does not match bank length"):
        apply_batch(bank, np.zeros((1, 65)))
    for shape in ((64,), (2, 3, 64)):
        with pytest.raises(ValueError, match=r"expected a \[rows, T\] batch"):
            apply_batch(bank, np.zeros(shape))


def test_build_bank_validates_args():
    with pytest.raises(ValueError):
        build_bank(0, 0, 3, 100)
    with pytest.raises(ValueError):
        build_bank(0, 5, 0, 100)
    with pytest.raises(ValueError):
        build_bank(0, 5, 3, 11)


def test_bank_serialization_round_trip_bitwise():
    bank = build_bank(99, 25, 3, 80)
    blob = serialize_bank(bank)
    back, used = deserialize_bank(blob)
    assert used == len(blob)
    assert serialize_bank(back) == blob
    assert back.seed == bank.seed
    for a, b in zip(bank.kernels, back.kernels):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert (a.length, a.dilation, a.padded) == (b.length, b.dilation, b.padded)


@pytest.mark.parametrize("input_length", [12, 13, 64, 400, 1000])
def test_grouped_transform_matches_per_kernel_reference(input_length):
    bank = build_bank(input_length, 120, 3, input_length)
    assert {(k.length, k.padded) for k in bank.kernels} == {
        (n, p) for n in (7, 9, 11) for p in (False, True)
    }
    if input_length <= 13:
        assert {k.dilation for k in bank.kernels} == {1}
    # enough rows for two full row blocks and a partial one
    n_rows = 2 * max(1, BLOCK_SAMPLES // input_length) + 3
    x = np.random.default_rng(input_length).normal(size=(n_rows, input_length))
    got = apply_batch(bank, x)
    expected = per_kernel_reference(bank, x)
    is_max = np.arange(bank.dim) % bank.features_per_kernel == 0
    assert np.allclose(got[:, is_max], expected[:, is_max], atol=1e-12, rtol=0)
    assert np.array_equal(got[:, ~is_max], expected[:, ~is_max])


def test_zero_rows_are_not_convolved_and_match_row_by_row():
    bank = build_bank(8, 60, 3, 1000)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(21, 1000))  # spans three row blocks
    zero_rows = [0, 3, 4, 9, 20]
    x[zero_rows] = 0.0
    x[4] = -0.0
    feats = apply_batch(bank, x)
    one_by_one = np.concatenate([apply_batch(bank, row[None]) for row in x])
    assert np.allclose(feats, one_by_one, atol=1e-12, rtol=0)
    zero = np.concatenate([np.concatenate([k.biases[:1], k.biases > 0]) for k in bank.kernels])
    for r in zero_rows:
        assert np.array_equal(feats[r], zero)
    assert np.array_equal(apply_batch(bank, np.zeros((2, 1000))), np.stack([zero, zero]))


def test_empty_batch_keeps_feature_width():
    bank = build_bank(2, 30, 3, 50)
    assert apply_batch(bank, np.zeros((0, 50))).shape == (0, bank.dim)


def test_every_kernel_in_exactly_one_group():
    bank = build_bank(3, 250, 3, 1000)
    index = np.concatenate([g.index for g in bank.groups])
    assert np.array_equal(np.sort(index), np.arange(bank.n_kernels))
    for g in bank.groups:
        assert len({(bank.kernels[i].dilation, bank.kernels[i].padded) for i in g.index}) == 1


def test_kernel_and_bank_invariants():
    bank = two_kernel_bank()
    k = bank.kernels[0]
    with pytest.raises(ValueError, match="kernel length 8"):
        Kernel(length=8, weights=np.zeros(8), biases=k.biases, dilation=1, padded=False)
    with pytest.raises(ValueError, match="dilation must be >= 1"):
        Kernel(length=k.length, weights=k.weights, biases=k.biases, dilation=0, padded=False)
    for padded in (False, True):
        wide = Kernel(length=9, weights=k.weights, biases=k.biases, dilation=5, padded=padded)
        with pytest.raises(ValueError, match="does not fit"):  # 8 * 5 >= 40
            KernelBank(seed=0, input_length=40, n_biases=2, kernels=(wide,))
    with pytest.raises(ValueError, match="biases"):
        KernelBank(seed=0, input_length=40, n_biases=3, kernels=(k,))


def test_deserialize_rejects_every_patched_bank_field():
    blob = serialize_bank(two_kernel_bank())
    assert serialize_bank(deserialize_bank(blob)[0]) == blob
    for name, (patched, message) in bank_field_patches(blob, 0).items():
        with pytest.raises(FormatError, match=message):
            deserialize_bank(patched)
