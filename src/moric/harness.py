"""End-to-end experiment harness: manifests, the per-sample pipeline,
leave-one-subject-out evaluation, calibration sweeps, and report emission.

Scoring has one path: `sample_logits` runs one forward pass per sample, the
samples handed out one at a time to the lanes of `moric.lanes`, and
`score_logits` turns those logits into accuracy and confusion counts.
`evaluate_samples` is the two in turn, and a calibration sweep computes the
logits once and scores every draw on rows of them.

`Manifest` and `Report` are `moric.core.JsonRecord`s: a malformed one is a
ValueError that names the bad key path. A manifest is `{"entries": [{"path":
<string>, "meta": <SampleMeta>}, ...]}`; a relative entry path is relative to
the manifest's directory, and `Manifest.save` writes every path that way."""

from __future__ import annotations

import csv
import os
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classifier, delay_doppler, features, sanitize
from .classifier import MoricModel, TrainConfig
from .core import CsiFrame, FeatureSet, JsonRecord, PipelineConfig, SampleMeta, read_csit
from .features import KernelBank
from .lanes import in_lanes, one_blas_thread


def derive_seed(root: int, label: str) -> int:
    """Stable per-stage child seed: fold a label hash into the root seed."""
    return (int(root) << 32) ^ zlib.crc32(label.encode("utf-8"))


@dataclass(frozen=True)
class ManifestEntry(JsonRecord):
    path: Path
    meta: SampleMeta


@dataclass(frozen=True)
class Manifest(JsonRecord):
    """JSON-described experiment input: one CSIT file plus metadata per sample."""

    _json_name = "manifest"

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

    @classmethod
    def load(cls, path) -> "Manifest":
        """The manifest at `path`, each relative entry path joined to its directory."""
        path = Path(path)
        entries = tuple(replace(e, path=path.parent / e.path) for e in cls.from_json(path.read_text()).entries)
        if not entries:
            raise ValueError(f"{path}: manifest has no entries")
        for e in entries:
            if not e.path.exists():
                raise ValueError(f"manifest references missing file {e.path}")
        return cls(entries=entries)

    def save(self, path) -> None:
        """Write the manifest, each entry path relative to the manifest's directory."""
        path = Path(path)
        entries = tuple(replace(e, path=Path(os.path.relpath(e.path, path.parent))) for e in self.entries)
        path.write_text(replace(self, entries=entries).to_json())


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
    clean = sanitize.sanitize_frame(frame)
    return delay_doppler.extract_velocity_set(clean, cfg.doppler, cfg.snr_threshold_db)


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
    manifest: Manifest, cfg: PipelineConfig, threads: Optional[int] = None
) -> List[PipelineSample]:
    """featurize_manifest with the kernel bank `cfg` draws for the manifest."""
    return featurize_manifest(manifest, cfg, kernel_bank(manifest, cfg), threads=threads)


@one_blas_thread()
def featurize_manifest(
    manifest: Manifest, cfg: PipelineConfig, bank: KernelBank, threads: Optional[int] = None
) -> List[PipelineSample]:
    """Run the per-sample pipeline over a manifest, its entries handed one at
    a time to one lane per usable CPU, or to at most `threads` lanes, so
    captures of different sizes still share the work; output order follows
    the manifest and no bit depends on the lanes. A failing entry raises what
    a serial loop would: the first one's error. A capture the pipeline
    rejects, or whose arithmetic overflows or turns invalid, is a ValueError
    that names its path. Fewer than 1 thread is a ValueError."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def one(entry: ManifestEntry) -> PipelineSample:
        frame = read_csit(entry.path)
        try:  # numpy's error state is per thread, so each lane sets its own
            with np.errstate(over="raise", invalid="raise"):
                if frame.n_time != bank.input_length:
                    raise ValueError(
                        f"length {frame.n_time} differs from the kernel bank's "
                        f"{bank.input_length}; all samples must share T"
                    )
                vs = velocity_set_for_frame(frame, cfg)
                fset = featurize_velocity_set(vs, bank, label=entry.meta.gesture)
        except (ValueError, FloatingPointError) as exc:
            raise ValueError(f"{entry.path}: {exc}") from None
        return PipelineSample(
            feature_set=fset,
            label=entry.meta.gesture,
            subject=entry.meta.subject,
            sample_id=entry.meta.sample_id,
            snr_by_stream={int(k): vs.snr_db[vs.streams == k] for k in np.unique(vs.streams)},
        )

    entries = manifest.entries
    return in_lanes(lambda i: one(entries[i]), len(entries), threads)


def stratified_split(labels: Sequence[str], val_fraction: float, seed: int):
    """Per-class random split into train/validation index lists. A class of
    two or more samples gives validation at least one of them unless
    `val_fraction` is 0, which holds nothing out."""
    rng = np.random.default_rng(seed)
    by_class: Dict[str, list] = {}
    for i, lbl in enumerate(labels):
        by_class.setdefault(lbl, []).append(i)
    train_idx, val_idx = [], []
    for lbl in sorted(by_class):
        idx = np.array(by_class[lbl])
        rng.shuffle(idx)
        n_val = max(1, int(round(val_fraction * len(idx)))) if len(idx) > 1 and val_fraction > 0 else 0
        val_idx.extend(idx[:n_val].tolist())
        train_idx.extend(idx[n_val:].tolist())
    return sorted(train_idx), sorted(val_idx)


def train_on_split(samples: Sequence[PipelineSample], cfg: TrainConfig, split: str):
    """classifier.train on a stratified train/validation split of the samples,
    seeded by the label `split`; returns the model and the training indices."""
    tr_idx, va_idx = stratified_split([s.label for s in samples], cfg.val_fraction, derive_seed(cfg.seed, split))
    items = [[(samples[i].feature_set, samples[i].label) for i in idx] for idx in (tr_idx, va_idx)]
    return classifier.train(*items, cfg), tr_idx


@dataclass
class Report(JsonRecord):
    """LOSO evaluation summary."""

    _json_name = "report"

    class_labels: List[str]
    fold_subjects: List[str]
    fold_accuracies: List[float]
    mean_accuracy: float
    sd_accuracy: float
    confusion_pct: np.ndarray  # [true, predicted], rows sum to 100
    snr_median_by_stream: Dict[str, float]
    runtime_s: float

    def validate(self) -> None:
        subjects, accuracies = len(self.fold_subjects), len(self.fold_accuracies)
        if subjects != accuracies:
            raise ValueError(f"report has {subjects} fold subjects but {accuracies} fold accuracies")
        c = len(self.class_labels)
        if self.confusion_pct.shape != (c, c):
            raise ValueError("confusion matrix shape mismatch")
        sums = self.confusion_pct.sum(axis=1)
        occupied = sums > 0
        if np.any(np.abs(sums[occupied] - 100.0) > 0.1):
            raise ValueError(f"confusion rows must sum to 100 +- 0.1, got {sums}")


def sample_logits(model: MoricModel, samples: Sequence[PipelineSample]) -> np.ndarray:
    """Class logits [n, C] of the samples, one forward pass each; the lanes
    take the samples one at a time. A failing sample raises what the serial
    loop would: the first one's error."""
    if not samples:
        raise ValueError("no samples to evaluate")
    return np.array(in_lanes(lambda i: classifier.forward(model, samples[i].feature_set)[0], len(samples)))


def score_logits(logits: np.ndarray, truth: np.ndarray, calibration=None):
    """Accuracy and confusion counts [true, predicted] of logits [n, C]
    against class indices `truth` [n]. The prediction is the argmax of the
    softmax, calibrated if a calibration is given, as in classifier.predict."""
    if calibration is None:
        probs = classifier.softmax(logits, axis=1)
    else:
        probs = classifier.calibrated_probs(calibration, logits)
    n = logits.shape[1]
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (truth, np.argmax(probs, axis=1)), 1)
    return int(np.trace(counts)) / len(truth), counts


def evaluate_samples(model: MoricModel, samples: Sequence[PipelineSample], use_calibration=False):
    """Accuracy and confusion counts [true, predicted]; raises ValueError for
    no samples or a sample whose gesture is not a class of the model."""
    truth = classifier.label_indices(model, [s.label for s in samples])
    if use_calibration and model.calibration is None:
        raise ValueError("model carries no calibration")
    calibration = model.calibration if use_calibration else None
    return score_logits(sample_logits(model, samples), truth, calibration)


def run_loso(
    manifest: Manifest,
    pipeline_cfg: PipelineConfig,
    train_cfg: TrainConfig,
    samples: Optional[List[PipelineSample]] = None,
) -> Report:
    """Leave-one-subject-out cross-validation over a manifest.

    Features are extracted once and shared across folds; each fold trains on
    the remaining subjects with a stratified train/validation split and tests
    on the held-out subject. Fold order follows the sorted subject names.
    A sample whose subject the manifest does not list is a ValueError.
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
        samples = build_feature_table(manifest, pipeline_cfg)
    per_subject: Dict[str, List[PipelineSample]] = {s: [] for s in subjects}
    for s in samples:
        if s.subject not in per_subject:
            raise ValueError(f"sample {s.sample_id} has subject {s.subject!r}, which the manifest does not list {subjects}")
        per_subject[s.subject].append(s)
    for subj, items in per_subject.items():
        if not items:
            raise ValueError(f"subject {subj} has no samples")

    class_labels = sorted({s.label for s in samples})
    counts_total = np.zeros((len(class_labels), len(class_labels)), dtype=np.int64)
    fold_acc = []
    for held_out in subjects:
        train_samples = [s for s in samples if s.subject != held_out]
        model, _ = train_on_split(train_samples, train_cfg, f"split-{held_out}")
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


def check_sweep_args(samples_per_class: Sequence[int], n_draws: int) -> List[int]:
    """The sweep's counts; a ValueError for no counts, a count below 0 or no draws."""
    counts = list(samples_per_class)
    if not counts or min(counts) < 0:
        raise ValueError(f"samples_per_class must be a non-empty list of counts >= 0, got {counts}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    return counts


def run_calibration_sweep(
    samples: Sequence[PipelineSample],
    model: MoricModel,
    samples_per_class: Sequence[int],
    n_draws: int = classifier.CALIBRATE_DRAWS,
    seed: int = 0,
) -> dict:
    """Calibration benefit for a held-out subject's samples.

    For each count, draw that many calibration samples per class (seeded),
    fit the temperature/bias calibration, and score the remaining samples;
    repeat n_draws times and average. Count 0 reproduces the uncalibrated
    accuracy. Each sample runs one forward pass; every draw fits and scores
    rows of those logits, and the draws of one count are one batched fit.
    The arguments are checked before any forward pass.
    """
    counts = check_sweep_args(samples_per_class, n_draws)
    truth = classifier.label_indices(model, [s.label for s in samples])
    by_class: Dict[str, List[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    max_count = max(counts)
    for lbl, idx in by_class.items():
        if max_count > 0 and len(idx) < max_count + 1:
            raise ValueError(
                f"class {lbl} has {len(idx)} samples; need at least {max_count + 1}"
            )
    logits = sample_logits(model, samples)
    results = {}
    for count in counts:
        if count == 0:
            acc, _ = score_logits(logits, truth)
            results[0] = {"mean_accuracy": acc, "draws": [acc]}
            continue
        cal_idx = np.empty((n_draws, count * len(by_class)), dtype=np.int64)
        for draw in range(n_draws):
            rng = np.random.default_rng(derive_seed(seed, f"cal-{count}-{draw}"))
            cal_idx[draw] = np.concatenate(
                [rng.choice(by_class[lbl], size=count, replace=False) for lbl in sorted(by_class)]
            )
        calibrations = classifier.calibrate(logits[cal_idx], truth[cal_idx])
        draws = []
        for idx, calibration in zip(cal_idx, calibrations):
            rest = np.ones(len(samples), dtype=bool)
            rest[idx] = False
            acc, _ = score_logits(logits[rest], truth[rest], calibration)
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
