import json

import numpy as np
import pytest

from moric.classifier import TrainConfig
from moric.core import SampleMeta
from moric.delay_doppler import DopplerParams
from moric.harness import (
    Manifest,
    ManifestEntry,
    PipelineConfig,
    Report,
    build_feature_table,
    derive_seed,
    evaluate_samples,
    get_kernel_bank,
    report_emit,
    run_calibration_sweep,
    run_loso,
    stratified_split,
)

from conftest import make_radio, write_synthetic_manifest


SMALL_RADIO = make_radio(n_subcarriers=16)
# gate semantics need T well above the Doppler window so the static segments
# span several window estimates; 5 s at 100 Hz matches the guided-trial regime
SMALL_PIPELINE = PipelineConfig(
    doppler=DopplerParams(window_len=64, hop=4, fft_pad=512),
    n_kernels=50,
    n_biases=2,
)
FAST_TRAIN = TrainConfig(
    lr=1e-2, batch_size=16, max_epochs=60, patience=60, seed=3, val_fraction=0.25
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest, path = write_synthetic_manifest(
        out,
        subjects=["s1", "s2"],
        gestures=["circle", "push_pull"],
        samples_per_class=12,
        radio=SMALL_RADIO,
        duration_s=5.0,
        seed=42,
        easy=True,
    )
    return manifest, path


@pytest.fixture(scope="module")
def corpus_samples(corpus):
    manifest, _ = corpus
    return build_feature_table(manifest, SMALL_PIPELINE)


def test_manifest_round_trip_and_filters(tmp_path, corpus):
    manifest, path = corpus
    loaded = Manifest.load(path)
    assert loaded.subjects() == ["s1", "s2"]
    assert loaded.gestures() == ["circle", "push_pull"]
    only_pp = loaded.filter(gestures=["push_pull"])
    assert {e.meta.gesture for e in only_pp.entries} == {"push_pull"}
    only_s1 = loaded.filter(orientation_deg=180).filter(access_point="sim")
    assert len(only_s1.entries) == len(loaded.entries)


def test_manifest_rejects_missing_file(tmp_path):
    doc = {
        "entries": [
            {
                "path": "does-not-exist.csit",
                "meta": {
                    "sample_id": "x",
                    "subject": "s",
                    "orientation_deg": 0,
                    "gesture": "circle",
                    "access_point": "ap",
                },
            }
        ]
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        Manifest.load(p)


def test_manifest_rejects_duplicate_ids(tmp_path):
    meta = SampleMeta("dup", "s", 0, "circle", "ap")
    f = tmp_path / "f.csit"
    f.write_bytes(b"")
    with pytest.raises(ValueError):
        Manifest(entries=(ManifestEntry(f, meta), ManifestEntry(f, meta)))


def test_stratified_split_is_deterministic_and_stratified():
    labels = ["a"] * 10 + ["b"] * 10
    tr1, va1 = stratified_split(labels, 0.2, seed=5)
    tr2, va2 = stratified_split(labels, 0.2, seed=5)
    assert (tr1, va1) == (tr2, va2)
    assert len(va1) == 4  # 2 per class
    va_labels = [labels[i] for i in va1]
    assert va_labels.count("a") == 2 and va_labels.count("b") == 2
    tr3, va3 = stratified_split(labels, 0.2, seed=6)
    assert (tr3, va3) != (tr1, va1)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_feature_table_threads_match_serial(corpus):
    manifest, _ = corpus
    sub = Manifest(entries=manifest.entries[:4])
    serial = build_feature_table(sub, SMALL_PIPELINE, threads=1)
    threaded = build_feature_table(sub, SMALL_PIPELINE, threads=2)
    for a, b in zip(serial, threaded):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.feature_set.features, b.feature_set.features)


def test_loso_two_subjects_separable(corpus, corpus_samples):
    manifest, _ = corpus
    report = run_loso(manifest, SMALL_PIPELINE, FAST_TRAIN, samples=corpus_samples)
    assert report.fold_subjects == ["s1", "s2"]
    assert len(report.fold_accuracies) == 2  # fold count equals subject count
    assert report.mean_accuracy == 1.0  # trivially separable two-class task
    report.validate()
    assert report.runtime_s > 0


def test_loso_rejects_single_subject(corpus):
    manifest, _ = corpus
    solo = manifest.filter()  # copy
    solo = Manifest(entries=tuple(e for e in solo.entries if e.meta.subject == "s1"))
    with pytest.raises(ValueError):
        run_loso(solo, SMALL_PIPELINE, FAST_TRAIN)


def test_loso_rejects_gesture_of_one_subject(corpus, corpus_samples):
    manifest, _ = corpus
    keep = [e for e in manifest.entries if not (e.meta.subject == "s1" and e.meta.gesture == "push_pull")]
    ids = {e.meta.sample_id for e in keep}
    samples = [s for s in corpus_samples if s.sample_id in ids]
    with pytest.raises(ValueError, match="gesture 'push_pull' occurs only for subject 's2'"):
        run_loso(Manifest(entries=tuple(keep)), SMALL_PIPELINE, FAST_TRAIN, samples=samples)


def test_loso_determinism_excluding_runtime(corpus, corpus_samples):
    manifest, _ = corpus
    r1 = run_loso(manifest, SMALL_PIPELINE, FAST_TRAIN, samples=corpus_samples)
    r2 = run_loso(manifest, SMALL_PIPELINE, FAST_TRAIN, samples=corpus_samples)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("runtime_s"), d2.pop("runtime_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_calibration_sweep_count_zero_identity(corpus, corpus_samples):
    samples = corpus_samples
    train_samples = [s for s in samples if s.subject == "s1"]
    eval_samples = [s for s in samples if s.subject == "s2"]
    from moric.classifier import train

    tr_items = [(s.feature_set, s.label) for s in train_samples]
    model = train(tr_items, tr_items[:4], FAST_TRAIN, head_hidden=16, reduced_dim=8, cls_hidden=8)

    results = run_calibration_sweep(eval_samples, model, [0, 2], n_draws=3, seed=7)
    uncal_acc, _ = evaluate_samples(model, eval_samples)
    assert results[0]["mean_accuracy"] == uncal_acc
    assert set(results) == {0, 2}
    # draws are seed-reproducible
    again = run_calibration_sweep(eval_samples, model, [2], n_draws=3, seed=7)
    assert again[2] == results[2]


def test_calibration_sweep_requires_enough_samples(corpus, corpus_samples):
    samples = corpus_samples
    eval_samples = [s for s in samples if s.subject == "s2"]
    from moric.classifier import train

    tr = [(s.feature_set, s.label) for s in samples if s.subject == "s1"]
    model = train(tr, tr[:4], FAST_TRAIN, head_hidden=16, reduced_dim=8, cls_hidden=8)
    with pytest.raises(ValueError):
        run_calibration_sweep(eval_samples, model, [12], n_draws=1, seed=0)


def test_report_emit_files(tmp_path, corpus, corpus_samples):
    manifest, _ = corpus
    report = run_loso(manifest, SMALL_PIPELINE, FAST_TRAIN, samples=corpus_samples)
    files = report_emit(report, tmp_path / "out")
    names = {f.name for f in files}
    assert names == {"report.json", "confusion.csv", "fold_accuracy.csv", "snr_by_stream.csv"}

    back = Report.from_dict(json.loads((tmp_path / "out" / "report.json").read_text()))
    assert back.to_json() == report.to_json()

    conf_lines = (tmp_path / "out" / "confusion.csv").read_text().strip().splitlines()
    assert len(conf_lines) == 1 + len(report.class_labels)  # header + C rows
    for row in back.confusion_pct:
        if row.sum() > 0:
            assert abs(row.sum() - 100.0) <= 0.1


def test_report_validate_rejects_bad_rows():
    rep = Report(
        class_labels=["a", "b"],
        fold_subjects=["s"],
        fold_accuracies=[1.0],
        mean_accuracy=1.0,
        sd_accuracy=0.0,
        confusion_pct=np.array([[60.0, 20.0], [0.0, 100.0]]),
        snr_median_by_stream={},
        runtime_s=0.1,
    )
    with pytest.raises(ValueError):
        rep.validate()


def test_kernel_bank_matches_table(corpus):
    manifest, _ = corpus
    bank = get_kernel_bank(manifest, SMALL_PIPELINE)
    assert bank.n_kernels == 50
    assert bank.dim == 150


def test_calibration_sweep_paper_counts(corpus, corpus_samples):
    # the reported sweep operates at 4, 6, and 10 samples per class
    samples = corpus_samples
    train_samples = [s for s in samples if s.subject == "s1"]
    eval_samples = [s for s in samples if s.subject == "s2"]
    from moric.classifier import train

    tr_items = [(s.feature_set, s.label) for s in train_samples]
    model = train(tr_items, tr_items[:4], FAST_TRAIN, head_hidden=16, reduced_dim=8, cls_hidden=8)
    results = run_calibration_sweep(eval_samples, model, [4, 6, 10], n_draws=2, seed=1)
    assert set(results) == {4, 6, 10}
    for count in (4, 6, 10):
        assert 0.0 <= results[count]["mean_accuracy"] <= 1.0
        assert len(results[count]["draws"]) == 2
