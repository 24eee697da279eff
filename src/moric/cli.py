"""Command-line pipeline driver.

Subcommands cover the front-end stages file-to-file (simulate, sanitize,
decompose), model lifecycle (train, eval, calibrate), and full experiments
(loso, report). `train` and `loso` take the pipeline and training flags;
`eval` and `calibrate` featurize with the pipeline and kernel bank stored in
the model. Each of those flags is declared once, on its field of
`DopplerParams`, `PipelineConfig` or `TrainConfig` as `flag` and `help`
metadata; the parser takes its type from the annotation and its default from
the field. Exit codes: 0 success, 2 validation error, 3 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from . import classifier, harness, sanitize, simulator
from .classifier import TrainConfig
from .core import DopplerParams, FormatError, PipelineConfig, read_csit, write_csit, write_dvel
from .delay_doppler import extract_velocity_set
from .harness import Manifest, Report, derive_seed


def _add_flag(p: argparse.ArgumentParser, cls, name: str) -> None:
    """Add the flag that field `name` of record `cls` declares in its
    metadata, typed by the field's annotation and defaulting to its default."""
    f = cls.__dataclass_fields__[name]
    p.add_argument(f.metadata["flag"], dest=name, type=get_type_hints(cls)[name], default=f.default,
                   help=f"{f.metadata['help']} (default: %(default)s)")


def _add_flags(p: argparse.ArgumentParser, cls) -> None:
    """Add every flag record `cls` declares, its nested records' included."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            _add_flags(p, hints[f.name])
        elif "flag" in f.metadata:
            _add_flag(p, cls, f.name)


def _from_flags(cls, args, **given):
    """Record `cls` built from the flags `_add_flags` added; a field that
    declares no flag takes its value from `given`, else its default."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            given[f.name] = _from_flags(hints[f.name], args)
        elif "flag" in f.metadata:
            given[f.name] = getattr(args, f.name)
    return cls(**given)


def cmd_simulate(args) -> int:
    scene = simulator.Scene.from_json(Path(args.scene).read_text())
    frame, truth = simulator.synthesize_csi(scene, derive_seed(args.seed, "simulate"))
    write_csit(frame, args.out)
    if args.truth:
        names = ("cluster_delay_bins", "cluster_delays_s", "cluster_concentrations",
                 "cluster_mean_directions", "projected_velocity")
        doc = {name: getattr(truth, name).tolist() for name in names}
        Path(args.truth).write_text(json.dumps(doc, indent=2))
    print(f"wrote {args.out}: {frame.n_streams} streams x {frame.config.n_subcarriers} "
          f"subcarriers x {frame.n_time} frames")
    return 0


def cmd_sanitize(args) -> int:
    frame = read_csit(args.infile)
    clean = sanitize.sanitize_frame(frame)
    write_csit(clean, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_decompose(args) -> int:
    frame = read_csit(args.infile)
    vs = extract_velocity_set(frame, params=_from_flags(DopplerParams, args), snr_threshold_db=args.snr_threshold_db)
    write_dvel(vs, args.out)
    gated = int(vs.gated.sum())
    print(f"wrote {args.out}: {len(vs)} rows ({len(vs) - gated} kept, {gated} gated)")
    return 0


def cmd_train(args) -> int:
    manifest = Manifest.load(args.manifest)
    pcfg = _from_flags(PipelineConfig, args)
    tcfg = _from_flags(TrainConfig, args, seed=args.seed)
    bank = harness.kernel_bank(manifest, pcfg)
    samples = harness.featurize_manifest(manifest, pcfg, bank)
    model, tr_idx = harness.train_on_split(samples, tcfg, "split")
    model = replace(model, kernel_bank=bank, pipeline=pcfg)
    classifier.save_model(model, args.out)
    acc, _ = harness.evaluate_samples(model, [samples[i] for i in tr_idx])
    print(f"wrote {args.out}: train accuracy {acc:.3f} over {len(tr_idx)} samples")
    return 0


def _model_feature_table(model: classifier.MoricModel, args):
    """The manifest featurized by the pipeline and kernel bank stored in the
    model; a model without either is a FormatError, and a gesture that is not
    one of its classes a ValueError, both raised before any capture is read."""
    manifest = Manifest.load(args.manifest)
    classifier.label_indices(model, manifest.gestures())
    for what, value in (("kernel bank", model.kernel_bank), ("pipeline config", model.pipeline)):
        if value is None:
            raise FormatError(f"{args.model}: the model carries no {what}; train it with `moric train`")
    return harness.featurize_manifest(manifest, model.pipeline, model.kernel_bank)


def cmd_eval(args) -> int:
    model = classifier.load_model(args.model)
    if args.calibrated and model.calibration is None:
        raise ValueError(f"--calibrated: {args.model} carries no calibration; fit one with `moric calibrate`")
    samples = _model_feature_table(model, args)
    acc, counts = harness.evaluate_samples(model, samples, use_calibration=args.calibrated)
    print(f"accuracy {acc:.4f} over {len(samples)} samples")
    if args.report:
        out = Path(args.report)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.json").write_text(
            json.dumps(
                {
                    "accuracy": acc,
                    "n_samples": len(samples),
                    "class_labels": list(model.class_labels),
                    "confusion_counts": counts.tolist(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"wrote {out / 'eval.json'}")
    return 0


def cmd_calibrate(args) -> int:
    model = classifier.load_model(args.model)
    if args.sweep is not None:  # a non-integer or empty count is a ValueError too, so exits 2
        counts = harness.check_sweep_args([int(x) for x in args.sweep.split(",")], args.draws)
        if (args.steps, args.lr) != (classifier.CALIBRATE_STEPS, classifier.CALIBRATE_LR):
            raise ValueError(f"--steps and --lr set a fit only, not a sweep: got --steps {args.steps} --lr {args.lr}")
    elif not args.out:
        raise ValueError("--out is required when fitting a calibration")
    elif args.draws != classifier.CALIBRATE_DRAWS:
        raise ValueError(f"--draws sets a sweep only, not a fit: got --draws {args.draws}")
    else:
        classifier.check_calibrate_args(args.steps, args.lr)
    samples = _model_feature_table(model, args)
    if args.sweep is not None:
        results = harness.run_calibration_sweep(
            samples, model, counts, n_draws=args.draws, seed=args.seed
        )
        text = json.dumps(results, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0
    truth = classifier.label_indices(model, [s.label for s in samples])
    logits = harness.sample_logits(model, samples)
    (calibration,) = classifier.calibrate(logits[None], truth[None], steps=args.steps, lr=args.lr)
    classifier.save_model(replace(model, calibration=calibration), args.out)
    print(f"wrote {args.out}: T={calibration.temperature:.4f}")
    return 0


def cmd_loso(args) -> int:
    manifest = Manifest.load(args.manifest)
    pcfg = _from_flags(PipelineConfig, args)
    tcfg = _from_flags(TrainConfig, args, seed=args.seed)
    report = harness.run_loso(manifest, pcfg, tcfg)
    files = harness.report_emit(report, args.report)
    print(
        f"LOSO accuracy {100 * report.mean_accuracy:.1f}% +- {100 * report.sd_accuracy:.1f}% "
        f"over {len(report.fold_subjects)} subjects"
    )
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_report(args) -> int:
    report = Report.from_json(Path(args.infile).read_text())
    files = harness.report_emit(report, args.out)
    for f in files:
        print(f"wrote {f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moric",
        description="CSI delay-Doppler decomposition and activity classification pipeline",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize CSI from a scene description")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--out", required=True, help="output .csit path")
    p.add_argument("--truth", help="optional ground-truth JSON output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sanitize", help="compensate linear phase and filter outliers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser("decompose", help="delay decomposition and velocity estimation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, DopplerParams)
    _add_flag(p, PipelineConfig, "snr_threshold_db")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train", help="train a classifier from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, PipelineConfig)
    _add_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", help="optional output directory")
    p.add_argument("--calibrated", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="fit (or sweep) post-hoc calibration")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="output model path (fit) or JSON path (sweep)")
    p.add_argument("--steps", type=int, default=classifier.CALIBRATE_STEPS)
    p.add_argument("--lr", type=float, default=classifier.CALIBRATE_LR)
    p.add_argument("--sweep", help="comma-separated samples-per-class counts")
    p.add_argument("--draws", type=int, default=classifier.CALIBRATE_DRAWS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("loso", help="leave-one-subject-out evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True, help="report output directory")
    _add_flags(p, PipelineConfig)
    _add_flags(p, TrainConfig)
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("report", help="re-emit CSV tables from a report JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any command reads a file
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
