"""Each benchmark check accepts the program's output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest bench/test_bench_checks.py
"""

import numpy as np
import pytest

from moric import classifier, core, features, harness, sanitize, simulator
from moric.classifier import TrainConfig
from moric.core import FeatureSet
from moric.harness import PipelineConfig, Report

import checks
from checks import CheckFailed
from corpus import CaptureShape, gesture_scene


def simulated_frame(shape, seed=0):
    frame, _ = simulator.synthesize_csi(gesture_scene(np.random.default_rng(seed), "circle", shape), seed)
    return frame


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(1)
    sets = [
        (FeatureSet(rng.normal(size=(5, 6)), np.arange(5), np.zeros(5), np.zeros(5, bool)), lbl)
        for lbl in ("a", "b", "a", "b")
    ]
    return classifier.train(
        sets, [], TrainConfig(max_epochs=1, patience=1), head_hidden=8, reduced_dim=4, cls_hidden=4
    )


def test_features_check():
    bank = features.build_bank(3, 8, 3, 64)
    x = np.random.default_rng(2).normal(size=(3, 64))
    feats = features.apply_batch(bank, x)
    kernels = checks.parse_bank(features.serialize_bank(bank))
    checks.check_features(kernels, x, feats)
    for col, delta in ((0, 0.01), (1, 0.1)):
        bad = feats.copy()
        bad[1, col] += delta
        with pytest.raises(CheckFailed):
            checks.check_features(kernels, x, bad)


def test_velocity_rows_check(tmp_path):
    frame = simulated_frame(CaptureShape(1, 16, 400, False))
    vs = harness.velocity_set_for_frame(frame, PipelineConfig())
    core.write_dvel(vs, tmp_path / "v.dvel")
    values, gated = checks.read_velocity_rows(tmp_path / "v.dvel")
    checks.check_velocity_rows(values, gated)
    kept = np.flatnonzero(~gated)
    assert len(kept) > 0
    scaled = values.copy()
    scaled[kept[0]] *= 1.1
    with pytest.raises(CheckFailed):
        checks.check_velocity_rows(scaled, gated)
    marked = gated.copy()
    marked[kept[0]] = True
    with pytest.raises(CheckFailed):
        checks.check_velocity_rows(values, marked)


def test_logits_and_label_checks(tiny_model):
    fs = FeatureSet(np.random.default_rng(3).normal(size=(4, 6)), np.arange(4), np.zeros(4), np.zeros(4, bool))
    logits, _ = classifier.forward(tiny_model, fs)
    checks.check_logits(tiny_model.params, fs.features, logits)
    with pytest.raises(CheckFailed):
        checks.check_logits(tiny_model.params, fs.features, logits + np.array([1e-6, 0.0]))
    label, _ = classifier.predict(tiny_model, fs)
    checks.check_label(label, tiny_model.class_labels, logits)
    other = [c for c in tiny_model.class_labels if c != label][0]
    with pytest.raises(CheckFailed):
        checks.check_label(other, tiny_model.class_labels, logits)


def test_set_invariance_check(tiny_model):
    rows = np.random.default_rng(4).normal(size=(6, 6))

    def forward(idx):
        fs = FeatureSet(rows[idx], np.arange(len(idx)), np.zeros(len(idx)), np.zeros(len(idx), bool))
        return classifier.forward(tiny_model, fs)[0]

    checks.check_set_invariance(forward, len(rows), np.random.default_rng(5))
    # mean pooling depends on repetition, so it must be rejected
    with pytest.raises(CheckFailed):
        checks.check_set_invariance(lambda idx: rows[idx].mean(axis=0), len(rows), np.random.default_rng(5))


def test_phase_compensation_check():
    frame = simulated_frame(CaptureShape(3, 16, 60, True))
    before, after = frame.data, sanitize.compensate_phase(frame).data
    k = np.arange(before.shape[1])[None, :, None]
    checks.check_phase_compensation(before, after)
    for bad in (before, after * np.exp(0.05j * k), 1.01 * after):
        with pytest.raises(CheckFailed):
            checks.check_phase_compensation(before, bad)


def test_accuracy_report_and_sweep_checks():
    checks.check_accuracy("x", 0.6, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_accuracy("x", 0.4, 0.5)

    report = Report(
        class_labels=["a", "b"],
        fold_subjects=["s0", "s1"],
        fold_accuracies=[0.5, 1.0],
        mean_accuracy=0.75,
        sd_accuracy=0.35,
        confusion_pct=np.array([[100.0, 0.0], [50.0, 50.0]]),
        snr_median_by_stream={},
        runtime_s=1.0,
    )
    checks.check_report(report, 2)
    with pytest.raises(CheckFailed):
        checks.check_report(report, 3)
    report.confusion_pct = np.array([[90.0, 0.0], [50.0, 50.0]])
    with pytest.raises(CheckFailed):
        checks.check_report(report, 2)

    sweep = {0: {"mean_accuracy": 0.75, "draws": [0.75]}, 1: {"mean_accuracy": 0.8, "draws": [0.8]}}
    checks.check_sweep(sweep, (0, 1), 0.75)
    with pytest.raises(CheckFailed):
        checks.check_sweep(sweep, (0, 1), 0.5)
    with pytest.raises(CheckFailed):
        checks.check_sweep(sweep, (0, 1, 2), 0.75)
