"""End-to-end experiment harness: manifests, the per-sample pipeline,
leave-one-subject-out evaluation, calibration sweeps, and report emission."""

from __future__ import annotations

import csv
import json
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classifier, delay_doppler, features, sanitize
from .classifier import MoricModel, TrainConfig
from .core import CsiFrame, FeatureSet, PipelineConfig, SampleMeta, read_csit
from .features import KernelBank


def derive_seed(root: int, label: str) -> int:
    """Stable per-stage child seed: fold a label hash into the root seed."""
    return (int(root) << 32) ^ zlib.crc32(label.encode("utf-8"))


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    meta: SampleMeta


@dataclass(frozen=True)
class Manifest:
    """JSON-described experiment input: one CSIT file plus metadata per sample."""

    entries: Tuple[ManifestEntry, ...]

    def __post_init__(self):
        ids = [e.meta.sample_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("sample_id values must be unique within a manifest")
        for e in self.entries:
            if not e.meta.subject:
                raise ValueError(f"sample {e.meta.sample_id} has an empty subject")

    def subjects(self) -> List[str]:
        return sorted({e.meta.subject for e in self.entries})

    def gestures(self) -> List[str]:
        return sorted({e.meta.gesture for e in self.entries})

    def filter(
        self,
        orientation_deg: Optional[int] = None,
        access_point: Optional[str] = None,
        gestures: Optional[Sequence[str]] = None,
    ) -> "Manifest":
        kept = []
        for e in self.entries:
            if orientation_deg is not None and e.meta.orientation_deg != orientation_deg:
                continue
            if access_point is not None and e.meta.access_point != access_point:
                continue
            if gestures is not None and e.meta.gesture not in gestures:
                continue
            kept.append(e)
        return Manifest(entries=tuple(kept))

    @staticmethod
    def load(path) -> "Manifest":
        path = Path(path)
        doc = json.loads(path.read_text())
        items = doc.get("entries") if isinstance(doc, dict) else None
        if not isinstance(items, list):
            raise ValueError(f"{path}: a manifest is an object with an 'entries' list")
        if not items:
            raise ValueError(f"{path}: manifest has no entries")
        entries = []
        for i, item in enumerate(items):
            if not (isinstance(item, dict) and isinstance(item.get("path"), str) and "meta" in item):
                raise ValueError(f"{path}: manifest entry {i} needs a 'path' string and a 'meta'")
            p = Path(item["path"])
            if not p.is_absolute():
                p = path.parent / p
            if not p.exists():
                raise ValueError(f"manifest references missing file {p}")
            entries.append(ManifestEntry(path=p, meta=SampleMeta.from_dict(item["meta"])))
        return Manifest(entries=tuple(entries))

    def save(self, path) -> None:
        doc = {
            "entries": [
                {"path": str(e.path), "meta": e.meta.to_dict()} for e in self.entries
            ]
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


@dataclass(frozen=True)
class PipelineSample:
    """Per-sample pipeline output cached across folds."""

    feature_set: FeatureSet
    label: str
    subject: str
    sample_id: str
    snr_by_stream: Dict[int, np.ndarray]


def velocity_set_for_frame(frame: CsiFrame, cfg: PipelineConfig):
    """Sanitize a frame and extract its gated, normalized velocity set."""
    clean = sanitize.sanitize_frame(frame, apply_hampel=cfg.use_hampel)
    return delay_doppler.extract_velocity_set(
        clean, params=cfg.doppler, snr_threshold_db=cfg.snr_threshold_db
    )


def featurize_velocity_set(vs, bank: KernelBank, label: Optional[str] = None) -> FeatureSet:
    return FeatureSet(
        features=features.apply_batch(bank, vs.values),
        delay_bins=vs.delay_bins,
        streams=vs.streams,
        gated=vs.gated,
        label=label,
    )


def kernel_bank(manifest: Manifest, cfg: PipelineConfig) -> KernelBank:
    """The kernel bank `cfg` draws for the capture length of the manifest's
    first entry."""
    if not manifest.entries:
        raise ValueError("manifest has no entries")
    first = read_csit(manifest.entries[0].path)
    return features.build_bank(cfg.kernel_seed, cfg.n_kernels, cfg.n_biases, first.n_time)


def build_feature_table(
    manifest: Manifest, cfg: PipelineConfig, threads: int = 1
) -> List[PipelineSample]:
    """featurize_manifest with the kernel bank `cfg` draws for the manifest."""
    return featurize_manifest(manifest, cfg, kernel_bank(manifest, cfg), threads=threads)


def featurize_manifest(
    manifest: Manifest, cfg: PipelineConfig, bank: KernelBank, threads: int = 1
) -> List[PipelineSample]:
    """Run the per-sample pipeline over a manifest (optionally with a thread
    pool); output order follows the manifest."""

    def one(entry: ManifestEntry) -> PipelineSample:
        frame = read_csit(entry.path)
        if frame.n_time != bank.input_length:
            raise ValueError(
                f"{entry.path}: length {frame.n_time} differs from the kernel bank's "
                f"{bank.input_length}; all samples must share T"
            )
        vs = velocity_set_for_frame(frame, cfg)
        fset = featurize_velocity_set(vs, bank, label=entry.meta.gesture)
        return PipelineSample(
            feature_set=fset,
            label=entry.meta.gesture,
            subject=entry.meta.subject,
            sample_id=entry.meta.sample_id,
            snr_by_stream={int(k): vs.snr_db[vs.streams == k] for k in np.unique(vs.streams)},
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, manifest.entries))
    return [one(e) for e in manifest.entries]


def stratified_split(labels: Sequence[str], val_fraction: float, seed: int):
    """Per-class random split into train/validation index lists."""
    rng = np.random.default_rng(seed)
    by_class: Dict[str, list] = {}
    for i, lbl in enumerate(labels):
        by_class.setdefault(lbl, []).append(i)
    train_idx, val_idx = [], []
    for lbl in sorted(by_class):
        idx = np.array(by_class[lbl])
        rng.shuffle(idx)
        n_val = max(1, int(round(val_fraction * len(idx)))) if len(idx) > 1 else 0
        val_idx.extend(idx[:n_val].tolist())
        train_idx.extend(idx[n_val:].tolist())
    return sorted(train_idx), sorted(val_idx)


@dataclass
class Report:
    """LOSO evaluation summary."""

    class_labels: List[str]
    fold_subjects: List[str]
    fold_accuracies: List[float]
    mean_accuracy: float
    sd_accuracy: float
    confusion_pct: np.ndarray  # [true, predicted], rows sum to 100
    snr_median_by_stream: Dict[str, float]
    runtime_s: float

    def validate(self) -> None:
        c = len(self.class_labels)
        if self.confusion_pct.shape != (c, c):
            raise ValueError("confusion matrix shape mismatch")
        sums = self.confusion_pct.sum(axis=1)
        occupied = sums > 0
        if np.any(np.abs(sums[occupied] - 100.0) > 0.1):
            raise ValueError(f"confusion rows must sum to 100 +- 0.1, got {sums}")

    def to_dict(self) -> dict:
        return {
            "class_labels": self.class_labels,
            "fold_subjects": self.fold_subjects,
            "fold_accuracies": self.fold_accuracies,
            "mean_accuracy": self.mean_accuracy,
            "sd_accuracy": self.sd_accuracy,
            "confusion_pct": self.confusion_pct.tolist(),
            "snr_median_by_stream": self.snr_median_by_stream,
            "runtime_s": self.runtime_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d) -> "Report":
        """Raises ValueError for a non-object document, a missing key or a
        field of the wrong type."""
        if not isinstance(d, dict):
            raise ValueError("bad report: not a JSON object")
        try:
            if not all(isinstance(d[k], list) for k in ("class_labels", "fold_subjects", "fold_accuracies")):
                raise TypeError("class_labels, fold_subjects and fold_accuracies must be lists")
            return Report(
                class_labels=[str(x) for x in d["class_labels"]],
                fold_subjects=[str(x) for x in d["fold_subjects"]],
                fold_accuracies=[float(x) for x in d["fold_accuracies"]],
                mean_accuracy=float(d["mean_accuracy"]),
                sd_accuracy=float(d["sd_accuracy"]),
                confusion_pct=np.asarray(d["confusion_pct"], dtype=np.float64),
                snr_median_by_stream={k: float(v) for k, v in d["snr_median_by_stream"].items()},
                runtime_s=float(d["runtime_s"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"bad report: {exc!r}") from None


def evaluate_samples(model: MoricModel, samples: Sequence[PipelineSample], use_calibration=False):
    """Accuracy and confusion counts [true, predicted]; raises ValueError
    for a sample whose gesture is not a class of the model."""
    truth = classifier.label_indices(model, [s.label for s in samples])
    n = len(model.class_labels)
    counts = np.zeros((n, n), dtype=np.int64)
    for t, s in zip(truth, samples):
        _, probs = classifier.predict(model, s.feature_set, use_calibration=use_calibration)
        counts[t, np.argmax(probs)] += 1
    return int(np.trace(counts)) / len(samples), counts


def run_loso(
    manifest: Manifest,
    pipeline_cfg: PipelineConfig,
    train_cfg: TrainConfig,
    threads: int = 1,
    n_heads: int = 2,
    samples: Optional[List[PipelineSample]] = None,
) -> Report:
    """Leave-one-subject-out cross-validation over a manifest.

    Features are extracted once and shared across folds; each fold trains on
    the remaining subjects with a stratified train/validation split and tests
    on the held-out subject. Fold order follows the sorted subject names.
    """
    t0 = time.monotonic()
    subjects = manifest.subjects()
    if len(subjects) < 2:
        raise ValueError(f"LOSO needs at least 2 subjects, got {subjects}")
    # a gesture only one subject has is missing from that subject's fold model
    owners: Dict[str, set] = {}
    for e in manifest.entries:
        owners.setdefault(e.meta.gesture, set()).add(e.meta.subject)
    for gesture, who in sorted(owners.items()):
        if len(who) < 2:
            raise ValueError(
                f"gesture {gesture!r} occurs only for subject {min(who)!r}; "
                "LOSO needs every gesture in at least 2 subjects"
            )
    if samples is None:
        samples = build_feature_table(manifest, pipeline_cfg, threads=threads)
    per_subject: Dict[str, List[PipelineSample]] = {s: [] for s in subjects}
    for s in samples:
        per_subject[s.subject].append(s)
    for subj, items in per_subject.items():
        if not items:
            raise ValueError(f"subject {subj} has no samples")

    class_labels = sorted({s.label for s in samples})
    counts_total = np.zeros((len(class_labels), len(class_labels)), dtype=np.int64)
    fold_acc = []
    for fold, held_out in enumerate(subjects):
        train_samples = [s for s in samples if s.subject != held_out]
        split_seed = derive_seed(train_cfg.seed, f"split-{held_out}")
        tr_idx, va_idx = stratified_split(
            [s.label for s in train_samples], train_cfg.val_fraction, split_seed
        )
        train_items = [(train_samples[i].feature_set, train_samples[i].label) for i in tr_idx]
        val_items = [(train_samples[i].feature_set, train_samples[i].label) for i in va_idx]
        model = classifier.train(train_items, val_items, train_cfg, n_heads=n_heads)
        acc, counts = evaluate_samples(model, per_subject[held_out])
        fold_acc.append(acc)
        counts_total += counts

    row_sums = counts_total.sum(axis=1, keepdims=True)
    confusion = np.divide(
        100.0 * counts_total,
        row_sums,
        out=np.zeros_like(counts_total, dtype=np.float64),
        where=row_sums > 0,
    )
    snr_all: Dict[int, list] = {}
    for s in samples:
        for stream, arr in s.snr_by_stream.items():
            snr_all.setdefault(stream, []).append(arr)
    snr_median = {
        str(stream): float(np.median(np.concatenate(chunks)))
        for stream, chunks in sorted(snr_all.items())
    }
    accs = np.array(fold_acc)
    report = Report(
        class_labels=class_labels,
        fold_subjects=subjects,
        fold_accuracies=[float(a) for a in fold_acc],
        mean_accuracy=float(accs.mean()),
        sd_accuracy=float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
        confusion_pct=confusion,
        snr_median_by_stream=snr_median,
        runtime_s=time.monotonic() - t0,
    )
    report.validate()
    return report


def run_calibration_sweep(
    samples: Sequence[PipelineSample],
    model: MoricModel,
    samples_per_class: Sequence[int],
    n_draws: int = 10,
    seed: int = 0,
) -> dict:
    """Calibration benefit for a held-out subject's samples.

    For each count, draw that many calibration samples per class (seeded),
    fit the temperature/bias calibration, and score the remaining samples;
    repeat n_draws times and average. Count 0 reproduces the uncalibrated
    accuracy.
    """
    by_class: Dict[str, List[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    max_count = max(samples_per_class)
    for lbl, idx in by_class.items():
        if max_count > 0 and len(idx) < max_count + 1:
            raise ValueError(
                f"class {lbl} has {len(idx)} samples; need at least {max_count + 1}"
            )
    results = {}
    for count in samples_per_class:
        if count == 0:
            acc, _ = evaluate_samples(model, samples)
            results[0] = {"mean_accuracy": acc, "draws": [acc]}
            continue
        draws = []
        for draw in range(n_draws):
            rng = np.random.default_rng(derive_seed(seed, f"cal-{count}-{draw}"))
            cal_idx = []
            for lbl in sorted(by_class):
                cal_idx.extend(rng.choice(by_class[lbl], size=count, replace=False).tolist())
            cal_items = [(samples[i].feature_set, samples[i].label) for i in cal_idx]
            calibration = classifier.calibrate(model, cal_items)
            calibrated = model.with_calibration(calibration)
            cal_set = set(cal_idx)
            rest = [s for i, s in enumerate(samples) if i not in cal_set]
            acc, _ = evaluate_samples(calibrated, rest, use_calibration=True)
            draws.append(acc)
        results[count] = {"mean_accuracy": float(np.mean(draws)), "draws": draws}
    return results


def report_emit(report: Report, out_dir) -> List[Path]:
    """Write report.json plus CSV tables for external plotting."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.validate()
    written = []

    json_path = out_dir / "report.json"
    json_path.write_text(report.to_json())
    written.append(json_path)

    conf_path = out_dir / "confusion.csv"
    with open(conf_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred"] + report.class_labels)
        for lbl, row in zip(report.class_labels, report.confusion_pct):
            writer.writerow([lbl] + [f"{x:.3f}" for x in row])
    written.append(conf_path)

    acc_path = out_dir / "fold_accuracy.csv"
    with open(acc_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "accuracy"])
        for subj, acc in zip(report.fold_subjects, report.fold_accuracies):
            writer.writerow([subj, f"{acc:.6f}"])
        writer.writerow(["mean", f"{report.mean_accuracy:.6f}"])
        writer.writerow(["sd", f"{report.sd_accuracy:.6f}"])
    written.append(acc_path)

    snr_path = out_dir / "snr_by_stream.csv"
    with open(snr_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stream", "median_snr_db"])
        for stream, value in report.snr_median_by_stream.items():
            writer.writerow([stream, f"{value:.3f}"])
    written.append(snr_path)
    return written
