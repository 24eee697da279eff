import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moric import classifier, lanes
from moric.classifier import TrainConfig, calibrate, calibrated_probs, forward, predict, softmax
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
    kernel_bank,
    report_emit,
    run_calibration_sweep,
    run_loso,
    sample_logits,
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


def test_relative_manifest_loads_from_another_working_directory(tmp_path, monkeypatch):
    (tmp_path / "site").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "site")
    written, _ = write_synthetic_manifest(
        Path("corpus"), subjects=["s1"], gestures=["circle"], samples_per_class=2, radio=SMALL_RADIO, duration_s=1.0
    )
    # save writes each path relative to the manifest's directory
    doc = json.loads(Path("corpus/manifest.json").read_text())
    assert [e["path"] for e in doc["entries"]] == ["s1-circle-0.csit", "s1-circle-1.csit"]
    monkeypatch.chdir(tmp_path / "elsewhere")
    for path in (Path("../site/corpus/manifest.json"), tmp_path / "site/corpus/manifest.json"):
        loaded = Manifest.load(path)
        assert [e.meta for e in loaded.entries] == [e.meta for e in written.entries]
        for entry, original in zip(loaded.entries, written.entries):
            assert entry.path.read_bytes() == (tmp_path / "site" / original.path).read_bytes()


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


def test_zero_val_fraction_holds_nothing_out():
    labels = ["a", "b"] * 6
    assert stratified_split(labels, 0.0, seed=1) == (list(range(12)), [])
    # any fraction above 0 still holds out at least one sample per class
    _, val = stratified_split(labels, 0.01, seed=1)
    assert sorted(labels[i] for i in val) == ["a", "b"]


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


def test_feature_table_and_logits_do_not_depend_on_the_pool(corpus, held_out, monkeypatch):
    manifest, _ = corpus
    sub = Manifest(entries=manifest.entries[:5])
    model, samples = held_out
    outputs = {}
    for pool_size in (1, 0):  # two lanes whatever the host, then none
        monkeypatch.setattr(lanes, "POOL_SIZE", pool_size)
        tables = [build_feature_table(sub, SMALL_PIPELINE, threads=k) for k in (1, 2)]
        outputs[pool_size] = [[s.feature_set.features.tobytes() for s in t] for t in tables]
        outputs[pool_size].append(sample_logits(model, samples).tobytes())
    assert outputs[1][0] == outputs[1][1]
    assert outputs[1] == outputs[0]


def test_fanned_out_evaluation_raises_the_first_bad_samples_error(held_out, monkeypatch):
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)  # two lanes whatever the host
    model, samples = held_out
    dim = model.dims.input_dim

    def widened(s, extra):
        fs = s.feature_set
        rows = np.hstack([fs.features, np.zeros((fs.n_rows, extra))])
        return replace(s, feature_set=replace(fs, features=rows))

    first, last = 1, len(samples) - 1  # one in each lane
    bad = list(samples)
    bad[last] = widened(samples[last], 2)
    with pytest.raises(ValueError, match=f"feature dimension {dim + 2} "):
        sample_logits(model, bad)
    bad[first] = widened(samples[first], 1)
    with pytest.raises(ValueError, match=f"feature dimension {dim + 1} "):
        sample_logits(model, bad)


def test_feature_table_threads_are_capped_by_the_usable_cpus(corpus, monkeypatch):
    import threading

    from moric import harness

    manifest, _ = corpus
    sub = Manifest(entries=manifest.entries[:4])
    seen = []
    original = harness.velocity_set_for_frame

    def counted(frame, cfg):
        seen.append((threading.active_count(), threading.get_ident()))
        return original(frame, cfg)

    monkeypatch.setattr(harness, "velocity_set_for_frame", counted)
    before = threading.active_count()
    build_feature_table(sub, SMALL_PIPELINE, threads=64)
    assert len(seen) == 4
    assert max(count for count, _ in seen) <= before + lanes.POOL_SIZE
    assert len({ident for _, ident in seen}) <= min(4, lanes.usable_cpus())


def _patched_reads(monkeypatch, corpus, n, read):
    """featurize_manifest over the corpus's first n entries on two lanes, with
    read(index, path, read_csit) in place of each capture's read_csit."""
    from moric import harness

    manifest, _ = corpus
    sub = Manifest(entries=manifest.entries[:n])
    bank = kernel_bank(sub, SMALL_PIPELINE)
    paths = [e.path for e in sub.entries]
    original = harness.read_csit
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)  # two lanes whatever the host
    monkeypatch.setattr(harness, "read_csit", lambda path: read(paths.index(path), path, original))
    return harness.featurize_manifest(sub, SMALL_PIPELINE, bank, threads=2)


def test_feature_table_lanes_take_entries_one_at_a_time(corpus, monkeypatch):
    # a slow first capture must not hold back the ones after it: in contiguous
    # parts the second entry would wait for the lane that holds the first
    import threading

    second_read = threading.Event()
    waited = []

    def read(index, path, original):
        if index == 0:
            waited.append(second_read.wait(timeout=20))
        elif index == 1:
            second_read.set()
        return original(path)

    samples = _patched_reads(monkeypatch, corpus, 4, read)
    assert waited == [True]
    assert [s.sample_id for s in samples] == [e.meta.sample_id for e in corpus[0].entries[:4]]


def test_feature_table_lanes_raise_the_first_bad_entrys_error(corpus, monkeypatch):
    # entry 1 fails first in time, entry 0 later: a serial loop raises entry
    # 0's, and takes no entry after a failing one
    import threading

    failed = threading.Event()
    reads = []

    def read(index, path, original):
        reads.append(index)
        if index == 0:
            failed.wait(timeout=20)
            raise ValueError("entry 0 is bad")
        if index == 1:
            failed.set()
            raise ValueError("entry 1 is bad")
        return original(path)

    with pytest.raises(ValueError, match="entry 0 is bad"):
        _patched_reads(monkeypatch, corpus, 4, read)
    assert sorted(reads) == [0, 1]


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


def test_loso_names_a_sample_whose_subject_the_manifest_lacks(corpus, corpus_samples):
    manifest, _ = corpus
    stray = replace(corpus_samples[0], subject="zz")
    with pytest.raises(ValueError, match=f"sample {stray.sample_id} has subject 'zz'"):
        run_loso(manifest, SMALL_PIPELINE, FAST_TRAIN, samples=[stray] + corpus_samples[1:])


def test_loso_report_does_not_depend_on_the_head_pool(corpus, corpus_samples, monkeypatch):
    manifest, _ = corpus
    cfg = replace(FAST_TRAIN, max_epochs=10, patience=10)
    pooled = run_loso(manifest, SMALL_PIPELINE, cfg, samples=corpus_samples).to_dict()
    monkeypatch.setattr(lanes, "POOL_SIZE", 0)
    serial = run_loso(manifest, SMALL_PIPELINE, cfg, samples=corpus_samples).to_dict()
    pooled.pop("runtime_s"), serial.pop("runtime_s")
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)


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
    bank = kernel_bank(manifest, SMALL_PIPELINE)
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


def test_evaluate_samples_names_an_unknown_gesture(corpus_samples):
    from dataclasses import replace

    from moric.classifier import ModelDims, MoricModel, init_params

    dims = ModelDims(input_dim=150, n_heads=1, head_hidden=4, reduced_dim=3, cls_hidden=4, n_classes=2)
    model = MoricModel(dims=dims, class_labels=("circle", "push_pull"), params=init_params(dims, 0))
    samples = corpus_samples[:3] + [replace(corpus_samples[3], label="up_down")]
    with pytest.raises(ValueError, match="gesture 'up_down' is not a class of the model"):
        evaluate_samples(model, samples)
    acc, counts = evaluate_samples(model, corpus_samples[:3])
    assert counts.sum() == 3 and acc == np.trace(counts) / 3


def test_report_from_dict_rejects_malformed_documents():
    good = {
        "class_labels": ["a", "b"],
        "fold_subjects": ["s"],
        "fold_accuracies": [1.0],
        "mean_accuracy": 1.0,
        "sd_accuracy": 0.0,
        "confusion_pct": [[100.0, 0.0], [0.0, 100.0]],
        "snr_median_by_stream": {"0": 3.0},
        "runtime_s": 0.5,
    }
    assert Report.from_dict(good).to_dict() == good
    bad = [
        {"class_labels": ["a"]},
        [],
        "report",
        {**good, "class_labels": "ab"},
        {**good, "fold_accuracies": 1.0},
        {**good, "fold_accuracies": ["x"]},
        {**good, "mean_accuracy": None},
        {**good, "confusion_pct": [["x"]]},
        {**good, "snr_median_by_stream": [1.0]},
        {**good, "mean_accuracy": "0.5"},
        {**good, "class_labels": [1, 2]},
        {**good, "notes": "extra"},
        {**good, "confusion_pct": [[100.0, 0.0], [100.0]]},
    ]
    for doc in bad:
        with pytest.raises(ValueError, match="report"):
            Report.from_dict(doc)
    # only standard JSON: a NaN token is not read, and a NaN field is not written
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match="bad report.sd_accuracy: expected a number"):
            Report.from_json(json.dumps(good).replace('"sd_accuracy": 0.0', f'"sd_accuracy": {token}'))
    with pytest.raises(ValueError, match="not JSON compliant"):
        replace(Report.from_dict(good), sd_accuracy=float("nan")).to_json()
    # well-typed, but the fold lists disagree in length
    ragged = Report.from_dict({**good, "fold_subjects": ["s1", "s2", "s3"]})
    with pytest.raises(ValueError, match="3 fold subjects but 1 fold accuracies"):
        ragged.validate()


# ---------------------------------------------------------------------------
# Calibration sweep on cached logits, against the per-draw reference
# ---------------------------------------------------------------------------


def _reference_fit(logits, y, steps=500, lr=0.01):
    """The per-feature-set calibration loop as it ran before the batched fit."""
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
    return classifier.Calibration(temperature=float(np.exp(log_t)), bias=bias)


def _reference_calibrate(model, cal_set, steps=500, lr=0.01):
    """One forward pass per calibration set, then the per-draw fit."""
    y = classifier.label_indices(model, [lbl for _, lbl in cal_set])
    logits = np.stack([forward(model, fs)[0] for fs, _ in cal_set])
    return _reference_fit(logits, y, steps, lr)


def _reference_evaluate(model, samples, use_calibration=False):
    truth = classifier.label_indices(model, [s.label for s in samples])
    n = len(model.class_labels)
    counts = np.zeros((n, n), dtype=np.int64)
    for t, s in zip(truth, samples):
        _, probs = predict(model, s.feature_set, use_calibration=use_calibration)
        counts[t, np.argmax(probs)] += 1
    return int(np.trace(counts)) / len(samples), counts


def _reference_draws(samples, count, n_draws, seed):
    """The calibration indices of each draw, in the sweep's draw order."""
    by_class = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    for draw in range(n_draws):
        rng = np.random.default_rng(derive_seed(seed, f"cal-{count}-{draw}"))
        cal_idx = []
        for lbl in sorted(by_class):
            cal_idx.extend(rng.choice(by_class[lbl], size=count, replace=False).tolist())
        yield cal_idx


def _reference_sweep(samples, model, samples_per_class, n_draws=10, seed=0):
    """The per-draw sweep: forward passes and a separate fit in every draw."""
    results = {}
    for count in samples_per_class:
        if count == 0:
            acc, _ = _reference_evaluate(model, samples)
            results[0] = {"mean_accuracy": acc, "draws": [acc]}
            continue
        draws = []
        for cal_idx in _reference_draws(samples, count, n_draws, seed):
            cal_items = [(samples[i].feature_set, samples[i].label) for i in cal_idx]
            calibrated = model.with_calibration(_reference_calibrate(model, cal_items))
            cal_set = set(cal_idx)
            rest = [s for i, s in enumerate(samples) if i not in cal_set]
            acc, _ = _reference_evaluate(calibrated, rest, use_calibration=True)
            draws.append(acc)
        results[count] = {"mean_accuracy": float(np.mean(draws)), "draws": draws}
    return results


@pytest.fixture(scope="module")
def held_out(corpus_samples):
    """A small model trained on subject s1, and subject s2's samples."""
    tr_items = [(s.feature_set, s.label) for s in corpus_samples if s.subject == "s1"]
    model = classifier.train(tr_items, tr_items[:4], FAST_TRAIN, head_hidden=16, reduced_dim=8, cls_hidden=8)
    return model, [s for s in corpus_samples if s.subject == "s2"]


def _counting_forward(monkeypatch):
    calls = []
    original = classifier.forward

    def counted(model, fs):
        calls.append(fs)
        return original(model, fs)

    monkeypatch.setattr(classifier, "forward", counted)
    return calls


def test_sweep_equals_per_draw_reference(held_out):
    trained, samples = held_out
    # the trained model scores 1.0 in every draw; untrained ones score 0.1-0.6
    dims = replace(trained.dims, n_heads=1, head_hidden=4, reduced_dim=3, cls_hidden=4)
    untrained = [replace(trained, dims=dims, params=classifier.init_params(dims, k)) for k in (0, 2)]
    for model in [trained] + untrained:
        for seed in (0, 5):
            got = run_calibration_sweep(samples, model, [0, 1, 2], n_draws=4, seed=seed)
            assert got == _reference_sweep(samples, model, [0, 1, 2], n_draws=4, seed=seed)


def test_batched_calibrations_equal_per_draw_fits(held_out):
    model, samples = held_out
    logits = sample_logits(model, samples)
    truth = classifier.label_indices(model, [s.label for s in samples])
    for count in (1, 3):
        cal_idx = np.array(list(_reference_draws(samples, count, 5, seed=2)))
        batched = calibrate(logits[cal_idx], truth[cal_idx])
        assert len(batched) == 5
        for idx, cal in zip(cal_idx, batched):
            ref = _reference_calibrate(model, [(samples[i].feature_set, samples[i].label) for i in idx])
            assert cal.temperature == ref.temperature
            assert cal.bias.tobytes() == ref.bias.tobytes()


def test_batched_fit_equals_per_draw_fit_on_random_logits():
    rng = np.random.default_rng(11)
    for draws, n, c in ((1, 1, 2), (3, 7, 4), (10, 40, 5), (6, 130, 9)):
        logits = 3.0 * rng.normal(size=(draws, n, c))
        labels = rng.integers(0, c, size=(draws, n))
        batched = calibrate(logits, labels, steps=120, lr=0.05)
        for d, cal in enumerate(batched):
            ref = _reference_fit(logits[d], labels[d], steps=120, lr=0.05)
            assert cal.temperature == ref.temperature, (draws, n, c, d)
            assert cal.bias.tobytes() == ref.bias.tobytes(), (draws, n, c, d)


def test_evaluate_samples_counts_equal_per_sample_predict(held_out):
    model, samples = held_out
    cal = classifier.Calibration(temperature=0.7, bias=np.array([0.9, -0.4]))
    for m, use in ((model, False), (model.with_calibration(cal), True), (model.with_calibration(cal), False)):
        acc, counts = evaluate_samples(m, samples, use_calibration=use)
        ref_acc, ref_counts = _reference_evaluate(m, samples, use_calibration=use)
        assert acc == ref_acc and np.array_equal(counts, ref_counts)
    # the calibrated scorer's probabilities are predict's, bit for bit
    probs = calibrated_probs(cal, sample_logits(model, samples))
    for row, s in zip(probs, samples):
        assert row.tobytes() == predict(model.with_calibration(cal), s.feature_set, True)[1].tobytes()
    with pytest.raises(ValueError, match="no calibration"):
        evaluate_samples(model, samples, use_calibration=True)


def test_sweep_runs_one_forward_pass_per_sample(held_out, monkeypatch):
    model, samples = held_out
    calls = _counting_forward(monkeypatch)
    run_calibration_sweep(samples, model, [0, 1, 2], n_draws=3, seed=4)
    assert len(calls) == len(samples)
    # the samples fan out over lanes, which fix no call order
    assert sorted(id(fs) for fs in calls) == sorted(id(s.feature_set) for s in samples)


def test_sweep_and_evaluate_reject_bad_arguments_before_any_forward_pass(held_out, monkeypatch):
    model, samples = held_out
    calls = _counting_forward(monkeypatch)
    cases = [
        ((samples, model, [1], 0), "n_draws"),
        ((samples, model, [1, -1], 2), "samples_per_class"),
        ((samples, model, [], 2), "samples_per_class"),
        (([], model, [0, 1], 2), "no samples to evaluate"),
        ((samples, model, [12], 1), "need at least 13"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            run_calibration_sweep(*args)
    with pytest.raises(ValueError, match="no samples to evaluate"):
        evaluate_samples(model, [])
    assert calls == []


def test_calibrate_rejects_bad_steps_lr_and_labels():
    logits, labels = np.zeros((2, 3, 4)), np.zeros((2, 3), dtype=np.int64)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps"):
            calibrate(logits, labels, steps=steps)
    for lr in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            calibrate(logits, labels, lr=lr)
    for bad in (labels + 4, labels - 1):
        with pytest.raises(ValueError, match="class indices"):
            calibrate(logits, bad)
    with pytest.raises(ValueError, match="draws"):
        calibrate(logits[0], labels[0])
    for shape in ((1, 0, 4), (0, 3, 4)):
        with pytest.raises(ValueError, match="empty calibration set"):
            calibrate(np.zeros(shape), np.zeros(shape[:2], dtype=np.int64))
