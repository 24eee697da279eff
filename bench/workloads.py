"""The benchmark's workloads: one deployment set up from a seeded corpus, then
timed rounds of the same three operations on every workload.

Set-up (repeated `SETUPS` times; `setup_s` is the median) simulates the
corpus, writes every capture as CSIT, builds the feature table of the training
subjects and trains the model with a fixed epoch count. The run then repeats
whole rounds until `--seconds` have passed; a round is

* `capture_passes` passes over the target subject's captures, each classified
  one at a time from CSIT file to label (one operation per capture);
* one call of `harness.run_loso` over the training table plus the target
  subject's feature sets from the first capture pass (one operation per
  fold);
* `sweeps` calls of `harness.run_calibration_sweep` on the target subject with
  the set-up model (one operation per calibration draw, count 0 included).

Rounds interleave the three operations, so each metric samples the whole run
and a slow spell of the host spreads over all of them. Workloads differ in
capture shape and in the make-up of a round; see README.md.
"""

from __future__ import annotations

import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from moric import classifier, core, features, harness, sanitize
from moric.classifier import TrainConfig
from moric.core import FeatureSet
from moric.harness import Manifest, PipelineConfig, PipelineSample

import checks
from corpus import CaptureShape, write_corpus
from spans import Tracer

SETUPS = 3
TARGET = "target"
SWEEP_COUNTS = (0, 1)
SWEEP_DRAWS = 3
LEARNING_RATE = 3e-3
PIPELINE = PipelineConfig()  # the program's defaults: 250 kernels, 3 biases


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CaptureShape
    train_subjects: int  # subjects in the set-up feature table
    train_per_class: int  # their captures per gesture
    target_per_class: int  # the target subject's captures per gesture
    epochs: int  # every training run: fixed epochs, patience = epochs
    capture_passes: int  # per round
    sweeps: int  # per round
    accuracy_floor: Optional[float] = None  # LOSO and held-out floors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="capture-long",
            shape=CaptureShape(n_streams=1, n_subcarriers=16, n_frames=1000, impaired=False),
            train_subjects=2,
            train_per_class=1,
            target_per_class=2,
            epochs=10,
            capture_passes=2,
            sweeps=1,
        ),
        Workload(
            name="capture-wide",
            shape=CaptureShape(n_streams=3, n_subcarriers=52, n_frames=400, impaired=True),
            train_subjects=1,
            train_per_class=1,
            target_per_class=2,
            epochs=10,
            capture_passes=2,
            sweeps=2,
        ),
        Workload(
            name="loso-calibrate",
            shape=CaptureShape(n_streams=1, n_subcarriers=16, n_frames=400, impaired=False),
            train_subjects=3,
            train_per_class=2,
            target_per_class=2,
            epochs=20,
            capture_passes=3,
            sweeps=4,
            accuracy_floor=0.5,
        ),
    )
}


def train_config(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(lr=LEARNING_RATE, max_epochs=w.epochs, patience=w.epochs, seed=seed)


@dataclass
class Deployment:
    train_manifest: Manifest
    target_manifest: Manifest
    table: List[PipelineSample]
    model: classifier.MoricModel


def set_up(w: Workload, seed: int, work_dir: Path) -> Deployment:
    """Corpus simulation, CSIT writes, feature table and the trained model."""
    subjects = [(f"s{i}", w.train_per_class) for i in range(w.train_subjects)]
    train_manifest = write_corpus(work_dir, w.shape, subjects, seed)
    target_manifest = write_corpus(work_dir, w.shape, [(TARGET, w.target_per_class)], seed)
    table = harness.build_feature_table(train_manifest, PIPELINE, threads=1)
    bank = features.build_bank(
        PIPELINE.kernel_seed, PIPELINE.n_kernels, PIPELINE.n_biases, w.shape.n_frames
    )
    model = classifier.train(
        [(s.feature_set, s.label) for s in table], [], train_config(w, seed), kernel_bank=bank
    )
    return Deployment(train_manifest, target_manifest, table, model)


@dataclass
class Classified:
    """One capture's outputs from the first capture round, kept for checks."""

    frame: core.CsiFrame
    velocity_set: object
    feature_set: FeatureSet
    label: str


def classify(model, entry) -> Tuple[object, object, FeatureSet, str]:
    """One capture from CSIT file to label; the timed operation."""
    frame = core.read_csit(entry.path)
    vs = harness.velocity_set_for_frame(frame, PIPELINE)
    fs = harness.featurize_velocity_set(vs, model.kernel_bank, label=entry.meta.gesture)
    label, _ = classifier.predict(model, fs)
    return frame, vs, fs, label


class Run:
    """One benchmark run of a workload; `execute` returns the result object."""

    def __init__(self, w: Workload, seed: int, seconds: float, work_root: Path, tracer=None):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.work_root = work_root
        self.tracer = tracer
        self.attempted = 0
        self.failures: List[str] = []

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def execute(self) -> dict:
        with tempfile.TemporaryDirectory(prefix="run-", dir=self.work_root) as tmp:
            tmp = Path(tmp)
            setup_s = []
            for i in range(SETUPS):
                with self._span("bench.setup"):
                    t0 = time.perf_counter()
                    dep = set_up(self.w, self.seed, tmp / f"setup{i}")
                    setup_s.append(time.perf_counter() - t0)
            capture_ms: List[float] = []
            loso_s: List[float] = []
            sweep_s: List[float] = []
            classified: List[Classified] = []
            deadline = time.perf_counter() + self.seconds
            while not loso_s or time.perf_counter() < deadline:
                for _ in range(self.w.capture_passes):
                    outputs = self._capture_pass(dep, capture_ms)
                    if classified and [c.label for c in outputs] != [c.label for c in classified]:
                        self.failures.append("a capture pass changed its predicted labels")
                    classified = classified or outputs
                samples = target_samples(classified)
                report = self._loso(dep, samples, loso_s)
                for _ in range(self.w.sweeps):
                    sweep = self._sweep(dep, samples, sweep_s)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self._check(dep, classified, report, sweep, tmp)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "capture_ms_p50": (float(np.percentile(capture_ms, 50)), "ms"),
            "capture_ms_p90": (float(np.percentile(capture_ms, 90)), "ms"),
            "loso_s": (statistics.median(loso_s), "s"),
            "calibration_sweep_s": (statistics.median(sweep_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    # timed operations -------------------------------------------------------------

    def _capture_pass(self, dep: Deployment, times_ms: List[float]) -> List[Classified]:
        outputs = []
        for entry in dep.target_manifest.entries:
            with self._span("bench.capture"):
                t0 = time.perf_counter()
                frame, vs, fs, label = classify(dep.model, entry)
                times_ms.append(1e3 * (time.perf_counter() - t0))
            self.attempted += 1
            outputs.append(Classified(frame, vs, fs, label))
        return outputs

    def _loso(self, dep: Deployment, samples: List[PipelineSample], times_s: List[float]):
        manifest = Manifest(entries=dep.train_manifest.entries + dep.target_manifest.entries)
        with self._span("bench.loso"):
            t0 = time.perf_counter()
            report = harness.run_loso(
                manifest, PIPELINE, train_config(self.w, self.seed), samples=dep.table + samples
            )
            times_s.append(time.perf_counter() - t0)
        self.attempted += len(report.fold_subjects)
        return report

    def _sweep(self, dep: Deployment, samples: List[PipelineSample], times_s: List[float]):
        with self._span("bench.sweep"):
            t0 = time.perf_counter()
            sweep = harness.run_calibration_sweep(
                samples, dep.model, SWEEP_COUNTS, n_draws=SWEEP_DRAWS, seed=self.seed
            )
            times_s.append(time.perf_counter() - t0)
        self.attempted += sum(1 if c == 0 else SWEEP_DRAWS for c in SWEEP_COUNTS)
        return sweep

    # output checks (untimed) ---------------------------------------------------------

    def _check(self, dep, classified, report, sweep, tmp: Path) -> None:
        def attempt(what: str, fn, *args) -> None:
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                self.failures.append(f"{what}: {exc}")

        model = dep.model
        params = model.params
        labels = model.class_labels
        kernels = checks.parse_bank(features.serialize_bank(model.kernel_bank))
        rng = np.random.default_rng([self.seed, 0xC4EC])
        correct = 0
        for i, c in enumerate(classified):
            name = c.frame.meta.sample_id
            dvel = tmp / f"{name}.dvel"
            core.write_dvel(c.velocity_set, dvel)
            values, gated = checks.read_velocity_rows(dvel)
            attempt(f"{name} velocity rows", checks.check_velocity_rows, values, gated)
            rows = c.feature_set.features
            logits, _ = classifier.forward(model, c.feature_set)
            attempt(f"{name} forward", checks.check_logits, params, rows, logits)
            attempt(f"{name} label", checks.check_label, c.label, labels, logits)
            correct += int(c.label == c.feature_set.label)
            if i == 0:
                kept = np.flatnonzero(~gated)[:2]
                attempt(
                    f"{name} features",
                    checks.check_features,
                    kernels,
                    values[kept],
                    rows[kept],
                )
                attempt(
                    f"{name} set invariance",
                    checks.check_set_invariance,
                    lambda idx, fs=c.feature_set: classifier.forward(model, subset(fs, idx))[0],
                    len(rows),
                    rng,
                )
                if self.w.shape.impaired:
                    after = sanitize.compensate_phase(c.frame).data
                    attempt(
                        f"{name} phase compensation",
                        checks.check_phase_compensation,
                        c.frame.data,
                        after,
                    )
        held_out = correct / len(classified)
        attempt("LOSO report", checks.check_report, report, len(dep.train_manifest.subjects()) + 1)
        attempt("calibration sweep", checks.check_sweep, sweep, SWEEP_COUNTS, held_out)
        if self.w.accuracy_floor is not None:
            attempt("LOSO", checks.check_accuracy, "LOSO mean", report.mean_accuracy, self.w.accuracy_floor)
            attempt("held-out", checks.check_accuracy, "held-out", held_out, self.w.accuracy_floor)


def subset(fs: FeatureSet, index: np.ndarray) -> FeatureSet:
    """The rows of `fs` at `index` (any order, repeats allowed)."""
    return FeatureSet(
        features=fs.features[index],
        delay_bins=fs.delay_bins[index],
        streams=fs.streams[index],
        gated=fs.gated[index],
        label=fs.label,
    )


def target_samples(classified: List[Classified]) -> List[PipelineSample]:
    return [
        PipelineSample(
            feature_set=c.feature_set,
            label=c.feature_set.label,
            subject=TARGET,
            sample_id=c.frame.meta.sample_id,
            snr_by_stream={},
        )
        for c in classified
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns the result object the command prints and
    the list of failed output checks."""
    w = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    run = Run(w, seed, seconds, out_dir, tracer)
    if tracer is None:
        return run.execute(), run.failures
    with tracer.installed():
        result = run.execute()
    tracer.dump(
        out_dir / f"trace-{name}-seed{seed}.json",
        {"workload": name, "seed": seed, "end_to_end_traced": result["metrics"]},
    )
    result["metrics"] = tracer.per_layer_metrics()
    return result, run.failures
