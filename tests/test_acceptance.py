"""Acceptance gate: one test per criterion, each printing its pass line and
checked against its stated tolerance and runtime budget."""

import os
import time

import numpy as np
import pytest

from moric.classifier import (
    Calibration,
    ModelDims,
    MoricModel,
    TrainConfig,
    calibrated_probs,
    forward,
    init_params,
    loss_and_grads,
    param_names,
    softmax,
    _pack_sets,
)
from moric.core import CsiFrame, FeatureSet, SPEED_OF_LIGHT
from moric.delay_doppler import (
    DopplerParams,
    decompose,
    estimate_velocity_phase,
    estimate_velocity_psd,
    periodic_sinc,
)
from moric.harness import Manifest, PipelineConfig, run_loso
from moric.sanitize import compensate_phase
from moric.simulator import (
    NoiseParams,
    ScatterCluster,
    Scene,
    Trajectory,
    path_length_change,
    synthesize_csi,
)

from conftest import make_radio, write_synthetic_manifest


class criterion:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE] criterion {self.number} ({self.description}): "
              f"{status} in {elapsed:.1f} s (budget {self.budget_s:.0f} s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f} s > {self.budget_s} s"
            )
        return False


RADIO = make_radio(n_subcarriers=52)


def _static_scene(noise, tau=30e-9, duration=1.0):
    return Scene(
        radio=RADIO,
        point_start=(1.0, 1.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, 0.0)),
        duration_s=duration,
        frame_rate_hz=RADIO.sample_rate_hz,
        static_paths=((tau, 1.0 + 0.0j),),
        noise=noise,
    )


def test_criterion_1_phase_compensation_oracle():
    with criterion(1, "phase compensation oracle", 5.0):
        distortion = NoiseParams(sto_walk_std_s=2e-9, sfo_ratio=1 + 2e-8)
        frame, _ = synthesize_csi(_static_scene(distortion), seed=1001)
        clean = compensate_phase(frame)
        stds = np.std(np.angle(clean.data[0]), axis=0)  # per frame, across subcarriers
        assert np.max(stds) <= 1e-6

        with_awgn = NoiseParams(sto_walk_std_s=2e-9, sfo_ratio=1 + 2e-8, awgn_snr_db=30.0)
        only_awgn = NoiseParams(awgn_snr_db=30.0)
        noisy, _ = synthesize_csi(_static_scene(with_awgn), seed=1002)
        reference, _ = synthesize_csi(_static_scene(only_awgn), seed=1002)

        def mean_var(f):
            return float(np.mean(np.var(np.angle(compensate_phase(f).data[0]), axis=0)))

        v_noisy = mean_var(noisy)
        v_ref = mean_var(reference)
        assert abs(v_noisy - v_ref) <= 0.10 * v_ref


def _two_path_frame(rng, sep_bins, n=52, equal_phase=False):
    df = RADIO.subcarrier_spacing_hz
    dtau = 1.0 / (n * df)
    lo = int(rng.integers(2, n - 2 - int(np.ceil(sep_bins))))
    tau_a = lo * dtau
    tau_b = tau_a + sep_bins * dtau
    if equal_phase:
        gain_a = gain_b = 1.0 + 0.0j
    else:
        mag = rng.uniform(0.7, 1.0, size=2)
        ph = rng.uniform(0, 2 * np.pi, size=2)
        gain_a = mag[0] * np.exp(1j * ph[0])
        gain_b = mag[1] * np.exp(1j * ph[1])
    scene = Scene(
        radio=RADIO,
        point_start=(1.0, 1.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, 0.0)),
        duration_s=0.16,
        frame_rate_hz=RADIO.sample_rate_hz,
        static_paths=((tau_a, gain_a), (tau_b, gain_b)),
        noise=NoiseParams(awgn_snr_db=30.0),
    )
    frame, _ = synthesize_csi(scene, seed=int(rng.integers(0, 2**31)))
    hi = lo + int(sep_bins) if float(sep_bins).is_integer() else lo
    return frame, lo, hi


def test_criterion_2_delay_recovery():
    with criterion(2, "two-path delay recovery", 30.0):
        for sep in (1, 2, 4):
            rng = np.random.default_rng([2026, sep])
            hits = 0
            for _ in range(100):
                frame, bin_a, bin_b = _two_path_frame(rng, sep)
                mags = np.mean(np.abs(decompose(frame, remove_static=False)[0]), axis=1)
                top2 = set(np.argsort(mags)[-2:].tolist())
                hits += top2 == {bin_a, bin_b}
            assert hits >= 99, f"separation {sep}: only {hits}/100 exact recoveries"

        # quarter-resolution separation merges into a single significant peak
        rng = np.random.default_rng([2026, 99])
        for _ in range(20):
            frame, bin_a, _ = _two_path_frame(rng, 0.25, equal_phase=True)
            mags = np.mean(np.abs(decompose(frame, remove_static=False)[0]), axis=1)
            peaks = [
                i
                for i in range(len(mags))
                if mags[i] >= 0.5 * mags.max()
                and mags[i] > (mags[i - 1] if i > 0 else -np.inf)
                and mags[i] > (mags[i + 1] if i < len(mags) - 1 else -np.inf)
            ]
            assert len(peaks) == 1


def test_criterion_3_doppler_oracle():
    with criterion(3, "Doppler velocity oracle", 60.0):
        params = DopplerParams(window_len=64, hop=4, fft_pad=512)
        lam = RADIO.wavelength_m
        grid = lam * RADIO.sample_rate_hz / params.fft_pad
        tol = max(0.05, grid)
        n, df = RADIO.n_subcarriers, RADIO.subcarrier_spacing_hz
        m = np.array([1.0, 0.0, 0.0])
        for i, target in enumerate((-1.5, -0.5, 0.5, 1.5)):
            scene = Scene(
                radio=RADIO,
                point_start=(2.0, 0.0, 1.0),
                trajectory=Trajectory(kind="constant_velocity", velocity=(target, 0.0, 0.0)),
                duration_s=2.56,
                frame_rate_hz=RADIO.sample_rate_hz,
                clusters=(
                    ScatterCluster(
                        mean_direction=m,
                        concentration=1e6,
                        n_scatterers=200,
                        delay_s=5.0 / (n * df),
                    ),
                ),
                noise=NoiseParams(awgn_snr_db=40.0),
            )
            frame, truth = synthesize_csi(scene, seed=3000 + i)
            series = decompose(frame, remove_static=True)[0, 5]
            v_psd = estimate_velocity_psd(series[None], RADIO, params)[0]
            rms_psd = float(np.sqrt(np.mean((v_psd - target) ** 2)))
            assert rms_psd <= tol, f"v.m={target}: PSD RMS {rms_psd:.4f} > {tol:.4f}"

            v_phase = estimate_velocity_phase(series, RADIO)
            rms_agree = float(np.sqrt(np.mean((v_phase - v_psd) ** 2)))
            assert rms_agree <= 0.1, f"v.m={target}: estimators differ {rms_agree:.4f} RMS"


def test_criterion_4_linearization_error_bound():
    with criterion(4, "linearization error bound", 5.0):
        rng = np.random.default_rng(4004)
        for _ in range(10_000):
            obs = rng.normal(size=3) * 2.0
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            d = rng.uniform(0.3, 6.0)
            p0 = obs + d * direction
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            speed = rng.uniform(0.05, 3.0)
            t = rng.uniform(1e-4, 0.1 * d / speed)  # |v| t / d <= 0.1
            exact, approx = path_length_change(obs, p0, v * speed, t)
            bound = (speed * t) ** 2 / (2.0 * d)
            assert abs(exact - approx) <= bound * (1 + 1e-9) + 1e-15


def test_criterion_5_set_invariance():
    with criterion(5, "set invariance of the classifier", 10.0):
        rng = np.random.default_rng(5005)
        dims = ModelDims(
            input_dim=128, n_heads=2, head_hidden=64, reduced_dim=32, cls_hidden=16, n_classes=4
        )
        model = MoricModel(
            dims=dims,
            class_labels=("a", "b", "c", "d"),
            params=init_params(dims, 55),
            seed=55,
        )
        for _ in range(100):
            n_rows = int(rng.integers(1, 24))
            fs = FeatureSet(
                features=rng.normal(size=(n_rows, 128)),
                delay_bins=np.arange(n_rows),
                streams=np.zeros(n_rows, dtype=int),
                gated=np.zeros(n_rows, dtype=bool),
            )
            logits, probs = forward(model, fs)

            perm = rng.permutation(n_rows)
            permuted = FeatureSet(
                features=fs.features[perm],
                delay_bins=fs.delay_bins[perm],
                streams=fs.streams[perm],
                gated=fs.gated[perm],
            )
            lp, pp = forward(model, permuted)
            assert np.array_equal(logits, lp) and np.array_equal(probs, pp)

            dup = int(rng.integers(0, n_rows))
            duplicated = FeatureSet(
                features=np.vstack([fs.features, fs.features[dup : dup + 1]]),
                delay_bins=np.concatenate([fs.delay_bins, fs.delay_bins[dup : dup + 1]]),
                streams=np.concatenate([fs.streams, fs.streams[dup : dup + 1]]),
                gated=np.concatenate([fs.gated, fs.gated[dup : dup + 1]]),
            )
            ld, pd = forward(model, duplicated)
            assert np.array_equal(logits, ld) and np.array_equal(probs, pd)


def test_criterion_6_gradient_correctness():
    with criterion(6, "analytic gradients vs finite differences", 30.0):
        rng = np.random.default_rng(6006)
        dims = ModelDims(
            input_dim=12, n_heads=2, head_hidden=9, reduced_dim=5, cls_hidden=6, n_classes=3
        )
        params = init_params(dims, 66)
        # batch 1: generic rows; batch 2: near-tied rows exercising the
        # max-pool boundary (margins far above the finite-difference step)
        generic = [rng.normal(size=(int(rng.integers(2, 7)), 12)) for _ in range(3)]
        base_row = rng.normal(size=12)
        near_tie = [np.vstack([base_row, base_row + 1e-2 * rng.normal(size=12), base_row * 0.5])]
        for batch_sets, labels in (
            (generic, np.array([0, 1, 2])),
            (near_tie, np.array([1])),
        ):
            rows, offsets = _pack_sets(batch_sets)
            _, grads = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
            for name in param_names(dims.n_heads):
                size = params[name].size
                probes = rng.choice(size, size=min(5, size), replace=False)
                for index in probes:
                    flat = params[name].reshape(-1)
                    eps = 1e-4
                    orig = flat[index]
                    flat[index] = orig + eps
                    lp, _ = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
                    flat[index] = orig - eps
                    lm, _ = loss_and_grads(params, dims, rows, offsets, labels, 0.1)
                    flat[index] = orig
                    fd = (lp - lm) / (2 * eps)
                    an = grads[name].reshape(-1)[index]
                    denom = max(abs(fd), abs(an), 1e-8)
                    assert abs(fd - an) / denom < 1e-4, f"{name}[{index}]"


def test_criterion_7_end_to_end_synthetic_classification(tmp_path):
    with criterion(7, "end-to-end synthetic LOSO classification", 1200.0):
        radio = make_radio(n_subcarriers=16)
        manifest, _ = write_synthetic_manifest(
            tmp_path / "corpus",
            subjects=[f"subj{i}" for i in range(6)],
            gestures=["circle", "left_right", "up_down", "push_pull"],
            samples_per_class=20,
            radio=radio,
            duration_s=5.0,
            seed=2026,
        )
        pcfg = PipelineConfig(doppler=DopplerParams(), n_kernels=250, n_biases=3)
        tcfg = TrainConfig(
            lr=1e-3, batch_size=64, max_epochs=150, patience=30, seed=7, val_fraction=0.15
        )
        report = run_loso(manifest, pcfg, tcfg)
        report.validate()
        print(
            f"  LOSO mean {100 * report.mean_accuracy:.1f}% +- "
            f"{100 * report.sd_accuracy:.1f}%, folds "
            f"{[round(a, 3) for a in report.fold_accuracies]}"
        )
        assert len(report.fold_subjects) == 6
        assert report.mean_accuracy >= 0.90


def test_criterion_8_parseval_and_leakage():
    with criterion(8, "decomposition energy and leakage", 5.0):
        rng = np.random.default_rng(8008)
        n = RADIO.n_subcarriers
        df = RADIO.subcarrier_spacing_hz
        for _ in range(20):
            data = rng.normal(size=(1, n, 6)) + 1j * rng.normal(size=(1, n, 6))
            frame = CsiFrame(config=RADIO, data=data)
            lhs = np.sum(np.abs(decompose(frame, remove_static=False)[0]) ** 2, axis=0)
            rhs = np.sum(np.abs(data[0]) ** 2, axis=0) / n
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * rhs)

        for _ in range(20):
            tau = rng.uniform(0, (n - 1) / (n * df))
            h = np.exp(-2j * np.pi * np.arange(n) * df * tau)[None, :, None] * np.ones((1, n, 2))
            frame = CsiFrame(config=RADIO, data=h)
            mags = np.abs(decompose(frame, remove_static=False)[0, :, 0])
            bin_delay_s = np.arange(n) / RADIO.bandwidth_hz
            envelope = np.abs(periodic_sinc(df * (bin_delay_s - tau), n))
            assert np.max(np.abs(mags - envelope)) < 1e-6


def test_criterion_9_calibration_identities():
    with criterion(9, "calibration identities and limits", 5.0):
        rng = np.random.default_rng(9009)
        z = rng.normal(size=(50, 5))
        identity = Calibration(temperature=1.0, bias=np.zeros(5))
        assert np.allclose(calibrated_probs(identity, z), softmax(z, axis=1), atol=1e-15)

        frozen = Calibration(temperature=1e12, bias=np.zeros(5))
        assert np.allclose(calibrated_probs(frozen, z), 0.2, atol=1e-9)

        for _ in range(500):
            logits = rng.normal(size=6) * rng.uniform(0.5, 5.0)
            t = float(rng.uniform(0.01, 100.0))
            cal = Calibration(temperature=t, bias=np.zeros(6))
            assert np.argmax(calibrated_probs(cal, logits)) == np.argmax(logits)


@pytest.mark.skipif(
    "MORIC_REALDATA_MANIFEST" not in os.environ,
    reason="informative real-data criterion: set MORIC_REALDATA_MANIFEST to a "
    "manifest of converted captures (orientation 180, all APs) to run",
)
def test_criterion_10_real_data_reproduction():
    with criterion(10, "real-data reproduction (informative)", 24 * 3600.0):
        manifest = Manifest.load(os.environ["MORIC_REALDATA_MANIFEST"])
        manifest = manifest.filter(orientation_deg=180)
        pcfg = PipelineConfig(doppler=DopplerParams(), n_kernels=250, n_biases=3)
        tcfg = TrainConfig()
        report = run_loso(manifest, pcfg, tcfg)
        print(f"  real-data LOSO mean {100 * report.mean_accuracy:.1f}%")
        assert report.mean_accuracy >= 0.45
