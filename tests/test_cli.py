import argparse
import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from moric.cli import build_parser, main
from moric.core import DopplerParams, read_csit, read_dvel, write_csit, write_dvel
from moric.delay_doppler import extract_velocity_set
from moric.sanitize import sanitize_frame
from moric.simulator import Scene

from conftest import (
    bank_field_patches,
    join_model,
    json_trailer,
    make_gesture_scene,
    make_radio,
    split_model,
    two_kernel_bank,
    write_synthetic_manifest,
)


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    radio = make_radio(n_subcarriers=16)
    rng = np.random.default_rng(9)
    scene = make_gesture_scene(rng, "circle", radio, duration_s=5.0, awgn_snr_db=30.0)
    path = out / "scene.json"
    path.write_text(scene.to_json())
    return path


def test_stage_composition(tmp_path, scene_file):
    """simulate -> sanitize -> decompose runs file-to-file, and each stage
    command writes the bytes its library calls write, flags included."""
    csit, clean, dvel = tmp_path / "x.csit", tmp_path / "y.csit", tmp_path / "v.dvel"
    ref = tmp_path / "ref"

    assert main(["simulate", "--scene", str(scene_file), "--out", str(csit)]) == 0
    assert read_csit(csit).config.n_subcarriers == 16

    assert main(["sanitize", "--in", str(csit), "--out", str(clean)]) == 0
    write_csit(sanitize_frame(read_csit(csit)), ref)
    assert clean.read_bytes() == ref.read_bytes()

    assert main(["decompose", "--in", str(clean), "--out", str(dvel),
                 "--window", "32", "--hop", "2", "--pad", "256", "--snr-db", "19"]) == 0
    write_dvel(extract_velocity_set(read_csit(clean), DopplerParams(32, 2, 256), 19.0), ref)
    assert dvel.read_bytes() == ref.read_bytes()
    vs = read_dvel(dvel)
    assert (len(vs), int(vs.gated.sum())) == (16, 7)  # the default 2 dB gate takes 6 rows


def test_simulate_truth_output(tmp_path, scene_file):
    csit = tmp_path / "x.csit"
    truth = tmp_path / "truth.json"
    assert main(
        ["simulate", "--scene", str(scene_file), "--out", str(csit), "--truth", str(truth)]
    ) == 0
    doc = json.loads(truth.read_text())
    assert len(doc["cluster_delay_bins"]) == 2
    assert len(doc["projected_velocity"][0]) == read_csit(csit).n_time


def test_simulate_is_seed_deterministic(tmp_path, scene_file):
    a, b = tmp_path / "a.csit", tmp_path / "b.csit"
    assert main(["--seed", "7", "simulate", "--scene", str(scene_file), "--out", str(a)]) == 0
    assert main(["--seed", "7", "simulate", "--scene", str(scene_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csit"
    assert main(["--seed", "8", "simulate", "--scene", str(scene_file), "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_missing_input_exits_3(tmp_path):
    assert main(["sanitize", "--in", str(tmp_path / "nope.csit"), "--out", str(tmp_path / "y")]) == 3


# Sample metadata of the right keys whose values the metadata codec once
# coerced (to subject "None", orientation 45, gesture "['x']") or ignored.
_META = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "g", "access_point": "p"}
COERCIBLE_METADATA = (
    {**_META, "subject": None},
    {**_META, "orientation_deg": 45.7},
    {**_META, "orientation_deg": True},
    {**_META, "gesture": ["x"]},
    {**_META, "room": "lab"},
)


def test_corrupt_input_exits_3(tmp_path, scene_file, capsys):
    bad = tmp_path / "bad.csit"
    bad.write_bytes(b"not a csit file at all")
    assert main(["sanitize", "--in", str(bad), "--out", str(tmp_path / "y")]) == 3
    # a metadata trailer that is not JSON
    csit = tmp_path / "x.csit"
    assert main(["simulate", "--scene", str(scene_file), "--out", str(csit)]) == 0
    bad.write_bytes(csit.read_bytes() + struct.pack("<I", 9) + b"{not json")
    assert main(["sanitize", "--in", str(bad), "--out", str(tmp_path / "y")]) == 3
    # a JSON-object trailer that is not sample metadata
    meta = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "g", "access_point": "p"}
    for trailer in (
        {"a": 1},
        {**meta, "orientation_deg": "zz"},
        {**meta, "orientation_deg": [1]},
        *COERCIBLE_METADATA,
    ):
        blob = json.dumps(trailer).encode()
        bad.write_bytes(csit.read_bytes() + struct.pack("<I", len(blob)) + blob)
        assert main(["sanitize", "--in", str(bad), "--out", str(tmp_path / "y")]) == 3, trailer
        assert f"{bad}: bad sample metadata" in capsys.readouterr().err, trailer
    # a metadata trailer holding a non-standard JSON token
    bad.write_bytes(csit.read_bytes() + json_trailer({**meta, "orientation_deg": float("nan")}))
    assert main(["sanitize", "--in", str(bad), "--out", str(tmp_path / "y")]) == 3
    assert f"{bad}: bad sample metadata.orientation_deg: expected an integer, got nan" in capsys.readouterr().err
    # a CSIT header of 0 streams
    bad.write_bytes(struct.pack("<4sIIIIddd", b"CSIT", 1, 0, 16, 500, 100.0, 2.4e9, 312.5e3))
    for command in ("sanitize", "decompose"):
        assert main([command, "--in", str(bad), "--out", str(tmp_path / "y")]) == 3, command
        assert f"{bad}: need at least one stream" in capsys.readouterr().err, command


def test_empty_manifest_exits_2(tmp_path, capsys):
    from moric.classifier import ModelDims, MoricModel, init_params, save_model

    dims = ModelDims(input_dim=4, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    model = tmp_path / "model.morm"
    save_model(MoricModel(dims=dims, class_labels=("a", "b"), params=init_params(dims, 0)), model)
    manifest = tmp_path / "manifest.json"
    meta = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "g", "access_point": "p"}
    entry = {"path": str(model), "meta": meta}
    malformed = [
        ({"entries": []}, "manifest has no entries"),
        ([], "bad manifest: expected an object, got []"),
        ({}, "bad manifest: missing keys ['entries']"),
        ({"entries": [entry], "bogus": 1}, "bad manifest: unknown keys ['bogus']"),
        ({"entries": [entry], "bogus": float("nan")}, "bad manifest: unknown keys ['bogus']"),
        ({"entries": float("nan")}, "bad manifest.entries: expected a list, got nan"),
        ({"entries": [1]}, "bad manifest.entries[0]: expected an object, got 1"),
        ({"entries": [{"meta": meta}]}, "bad manifest.entries[0]: missing keys ['path']"),
        ({"entries": [{"path": str(model)}]}, "bad manifest.entries[0]: missing keys ['meta']"),
        ({"entries": [{**entry, "path": 5}]}, "bad manifest.entries[0].path: expected a string, got 5"),
        ({"entries": [{"path": str(model), "meta": {"a": 1}}]}, "bad manifest.entries[0].meta: unknown keys ['a']"),
        *(({"entries": [{"path": str(model), "meta": meta}]}, "bad manifest.entries[0].meta") for meta in COERCIBLE_METADATA),
        ({"entries": [{"path": str(model), "meta": {**meta, "orientation_deg": float("nan")}}]},
         "bad manifest.entries[0].meta.orientation_deg: expected an integer, got nan"),
    ]
    for doc, message in malformed:
        manifest.write_text(json.dumps(doc))
        for argv in (
            ["train", "--manifest", str(manifest), "--out", str(tmp_path / "out.morm")],
            ["eval", "--model", str(model), "--manifest", str(manifest)],
            ["calibrate", "--model", str(model), "--manifest", str(manifest), "--out", str(tmp_path / "c")],
        ):
            assert main(argv) == 2, (argv[0], doc)
            assert message in capsys.readouterr().err, (argv[0], doc)


def test_loso_gesture_of_one_subject_exits_2(tmp_path, capsys):
    # checked before any file is read, so the entries need not be captures
    data = tmp_path / "x.csit"
    data.write_bytes(b"")
    meta = {"orientation_deg": 0, "access_point": "p"}
    entries = [
        {"path": str(data), "meta": dict(meta, sample_id=sid, subject=subj, gesture=g)}
        for sid, subj, g in (("1", "s1", "a"), ("2", "s2", "a"), ("3", "s2", "c"))
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    assert main(["loso", "--manifest", str(manifest), "--report", str(tmp_path / "r")]) == 2
    assert "gesture 'c' occurs only for subject 's2'" in capsys.readouterr().err


def test_validation_error_exits_2(tmp_path, scene_file):
    csit = tmp_path / "x.csit"
    assert main(["simulate", "--scene", str(scene_file), "--out", str(csit)]) == 0
    # Doppler window longer than the capture is a validation error
    assert main(
        ["decompose", "--in", str(csit), "--out", str(tmp_path / "v.dvel"), "--window", "1024"]
    ) == 2
    # so is an SNR gate that is not a finite number
    for value in ("nan", "inf"):
        assert main(["decompose", "--in", str(csit), "--out", str(tmp_path / "v.dvel"), "--snr-db", value]) == 2
    assert not (tmp_path / "v.dvel").exists()


def test_full_experiment_via_cli(tmp_path):
    radio = make_radio(n_subcarriers=16)
    manifest, manifest_path = write_synthetic_manifest(
        tmp_path / "corpus",
        subjects=["s1", "s2"],
        gestures=["circle", "push_pull"],
        samples_per_class=4,
        radio=radio,
        duration_s=5.0,
        seed=3,
        easy=True,
    )
    model_path = tmp_path / "model.morm"
    rc = main(
        [
            "train",
            "--manifest",
            str(manifest_path),
            "--out",
            str(model_path),
            "--kernels",
            "30",
            "--biases",
            "2",
            "--lr",
            "0.01",
            "--epochs",
            "30",
            "--patience",
            "30",
            "--batch",
            "8",
        ]
    )
    assert rc == 0
    assert model_path.exists()

    rc = main(
        [
            "eval",
            "--model",
            str(model_path),
            "--manifest",
            str(manifest_path),
            "--report",
            str(tmp_path / "evalout"),
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "evalout" / "eval.json").read_text())
    assert doc["n_samples"] == 16
    assert 0.0 <= doc["accuracy"] <= 1.0

    rc = main(
        [
            "loso",
            "--manifest",
            str(manifest_path),
            "--report",
            str(tmp_path / "losoreport"),
            "--kernels",
            "30",
            "--biases",
            "2",
            "--lr",
            "0.01",
            "--epochs",
            "30",
            "--patience",
            "30",
            "--batch",
            "8",
            "--val-frac",
            "0.25",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "losoreport" / "report.json").read_text())
    assert report["fold_subjects"] == ["s1", "s2"]

    # re-emit CSVs from the JSON
    rc = main(
        ["report", "--in", str(tmp_path / "losoreport" / "report.json"), "--out", str(tmp_path / "re")]
    )
    assert rc == 0
    assert (tmp_path / "re" / "confusion.csv").exists()


def test_calibrate_cli_fit_and_sweep(tmp_path):
    radio = make_radio(n_subcarriers=16)
    manifest, manifest_path = write_synthetic_manifest(
        tmp_path / "corpus",
        subjects=["s1"],
        gestures=["circle", "push_pull"],
        samples_per_class=4,
        radio=radio,
        duration_s=5.0,
        seed=4,
        easy=True,
    )
    model_path = tmp_path / "model.morm"
    args = ["--kernels", "30", "--biases", "2", "--lr", "0.01", "--epochs", "20",
            "--patience", "20", "--batch", "8"]
    assert main(["train", "--manifest", str(manifest_path), "--out", str(model_path)] + args) == 0

    fitted = tmp_path / "cal.morm"
    assert main(
        ["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
         "--out", str(fitted)]
    ) == 0
    from moric.classifier import load_model

    assert load_model(fitted).calibration is not None

    sweep_out = tmp_path / "sweep.json"
    assert main(
        ["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
         "--sweep", "0,2", "--draws", "2", "--out", str(sweep_out)]
    ) == 0
    doc = json.loads(sweep_out.read_text())
    assert set(doc) == {"0", "2"}


def _subcommands() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _help(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0, argv
    return capsys.readouterr().out


def test_help_exits_zero(capsys):
    # help strings go through argparse's % formatting, so a stray % would raise
    for argv in [[]] + [[name] for name in _subcommands()]:
        _help(capsys, argv)


def test_train_and_loso_help_list_the_same_record_flags(capsys):
    from moric.classifier import TrainConfig

    def listed(name):
        """{flag: its help as `name --help` prints it} for the record flags"""
        parser = _subcommands()[name]
        fmt = parser._get_formatter()
        flags = {a.option_strings[0]: fmt._expand_help(a) for a in parser._actions
                 if a.default not in (None, argparse.SUPPRESS)}
        text = " ".join(_help(capsys, [name]).split())  # argparse wraps long lines
        assert all(f"{flag} " in text and help in text for flag, help in flags.items()), name
        return flags

    train = listed("train")
    assert train == listed("loso")
    assert list(train) == PIPELINE_FLAGS + TRAINING_FLAGS
    assert train["--window"].endswith("(default: 64)")
    assert train["--heads"].endswith(f"(default: {TrainConfig.n_heads})")


def test_decompose_help_lists_exactly_the_doppler_flags(capsys):
    listed = set(re.findall(r"^\s+(--[\w-]+)", _help(capsys, ["decompose"]), flags=re.M))
    assert listed == {"--in", "--out", "--window", "--hop", "--pad", "--snr-db"}


def test_calibrate_fit_requires_out(tmp_path, capsys, flagged_model):
    # argument validation happens before any heavy work
    missing = main(["calibrate", "--model", str(tmp_path / "m.morm"),
                    "--manifest", str(tmp_path / "m.json")])
    assert missing == 3  # model file absent -> I/O error first
    # with the model in place, a missing --out is caught before the manifest is read
    model_path, _, _ = flagged_model
    assert main(["calibrate", "--model", str(model_path), "--manifest", str(tmp_path / "m.json")]) == 2
    assert "--out is required" in capsys.readouterr().err


def test_truncated_model_exits_3(tmp_path, capsys):
    from moric.classifier import ModelDims, MoricModel, init_params, save_model

    dims = ModelDims(input_dim=4, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    model = MoricModel(dims=dims, class_labels=("a", "b"), params=init_params(dims, 0))
    full = tmp_path / "model.morm"
    save_model(model, full)
    prefix = tmp_path / "prefix.morm"
    prefix.write_bytes(full.read_bytes()[:4])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": []}))
    assert main(["eval", "--model", str(prefix), "--manifest", str(manifest)]) == 3
    assert "truncated" in capsys.readouterr().err


def test_model_with_corrupt_header_or_bank_exits_3(tmp_path, capsys):
    from moric.classifier import ModelDims, MoricModel, init_params, save_model

    bank = two_kernel_bank()
    dims = ModelDims(input_dim=bank.dim, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    model = MoricModel(dims=dims, class_labels=("a", "b"), params=init_params(dims, 0), kernel_bank=bank)
    path = tmp_path / "model.morm"
    save_model(model, path)
    raw = path.read_bytes()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": []}))
    weights, bank_bytes, meta = split_model(raw)
    corrupt = {
        "n_heads": (join_model(weights, bank_bytes, {**meta, "dims": {**meta["dims"], "n_heads": 0}}),
                    "n_heads must be >= 1"),
        "weight count": (join_model(weights + bytes(4), bank_bytes, meta), "weights where the dims need"),
        "bank one byte short": (join_model(weights, bank_bytes, meta, n_bank=len(bank_bytes) - 1),
                                "the kernel bank takes"),
        "bank one byte long": (join_model(weights, bank_bytes + b"\x00", meta), "the kernel bank takes"),
        "appended bytes": (raw + b"garbage!", "8 bytes after the trailer"),
    }
    corrupt.update(bank_field_patches(raw, raw.index(b"KBNK")))
    for name, (blob, message) in corrupt.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest)]) == 3, name
        err = capsys.readouterr().err
        assert message is None or message in err, name
        assert str(path) in err, name


PIPELINE_FLAGS = ["--window", "--hop", "--pad", "--snr-db", "--kernel-seed", "--kernels", "--biases"]
TRAINING_FLAGS = ["--lr", "--batch", "--epochs", "--patience", "--weight-decay", "--val-frac", "--heads"]


@pytest.fixture(scope="module")
def flagged_model(tmp_path_factory):
    """A model trained with non-default pipeline flags, its corpus manifest,
    and a manifest holding a gesture the model lacks."""
    out = tmp_path_factory.mktemp("flagged")
    radio = make_radio(n_subcarriers=16)
    _, manifest_path = write_synthetic_manifest(
        out / "corpus", subjects=["s1"], gestures=["circle", "push_pull"], samples_per_class=3,
        radio=radio, duration_s=5.0, seed=5, easy=True,
    )
    _, foreign_path = write_synthetic_manifest(
        out / "foreign", subjects=["s2"], gestures=["circle", "up_down"], samples_per_class=2,
        radio=radio, duration_s=5.0, seed=6, easy=True,
    )
    model_path = out / "model.morm"
    assert main(
        ["train", "--manifest", str(manifest_path), "--out", str(model_path),
         "--kernels", "20", "--biases", "2", "--window", "32",
         "--lr", "0.01", "--epochs", "5", "--patience", "5", "--batch", "4"]
    ) == 0
    return model_path, manifest_path, foreign_path


def test_eval_and_calibrate_featurize_with_the_model_pipeline(tmp_path, flagged_model, monkeypatch):
    from moric import harness
    from moric.classifier import load_model
    from moric.core import DopplerParams, PipelineConfig
    from moric.harness import Manifest, build_feature_table

    model_path, manifest_path, _ = flagged_model
    want = PipelineConfig(doppler=DopplerParams(window_len=32), n_kernels=20, n_biases=2)
    assert load_model(model_path).pipeline == want

    scored = []
    evaluate = harness.evaluate_samples

    def recording_evaluate(model, samples, **kwargs):
        scored.extend(samples)
        return evaluate(model, samples, **kwargs)

    monkeypatch.setattr(harness, "evaluate_samples", recording_evaluate)
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest_path)]) == 0
    reference = build_feature_table(Manifest.load(manifest_path), want)
    assert len(scored) == len(reference) == 6
    for got, ref in zip(scored, reference):
        for field in ("features", "delay_bins", "streams", "gated"):
            a, b = getattr(got.feature_set, field), getattr(ref.feature_set, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    fitted = tmp_path / "cal.morm"
    assert main(["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
                 "--out", str(fitted)]) == 0
    assert load_model(fitted).pipeline == want
    assert main(["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
                 "--sweep", "0,1", "--draws", "1"]) == 0


def test_eval_and_calibrate_take_no_pipeline_flags(capsys, flagged_model):
    model_path, manifest_path, _ = flagged_model
    for command in ("eval", "calibrate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert not [flag for flag in PIPELINE_FLAGS if flag in text], command
        for flag in PIPELINE_FLAGS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", str(model_path), "--manifest", str(manifest_path), flag, "3"])
            assert exc.value.code == 2, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_gesture_exits_2(tmp_path, capsys, flagged_model, monkeypatch):
    from moric import harness

    featurized = []
    monkeypatch.setattr(harness, "featurize_manifest", lambda *args, **kw: featurized.append(args))
    model_path, _, foreign_path = flagged_model
    base = ["--model", str(model_path), "--manifest", str(foreign_path)]
    for argv in (
        ["eval"] + base,
        ["calibrate"] + base + ["--out", str(tmp_path / "cal.morm")],
        ["calibrate"] + base + ["--sweep", "0,1", "--draws", "1"],
    ):
        assert main(argv) == 2, argv
        assert "gesture 'up_down' is not a class of the model" in capsys.readouterr().err, argv
    assert featurized == []  # named before any capture is featurized


def test_bad_or_incomplete_model_file_exits_3(tmp_path, capsys, flagged_model):
    from dataclasses import replace

    from moric.classifier import load_model, save_model

    model_path, manifest_path, _ = flagged_model
    model = load_model(model_path)
    raw = model_path.read_bytes()
    weights, bank, meta = split_model(raw)
    doc = model.pipeline.to_dict()
    path = tmp_path / "model.morm"

    def with_pipeline(pipeline):
        return join_model(weights, bank, {**meta, "pipeline": pipeline})

    cases = {
        "version 2": (raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported model version 2"),
        "version 3": (raw[:4] + struct.pack("<I", 3) + raw[8:], "unsupported model version 3"),
        "appended bytes": (raw + b"garbage!", "bytes after the trailer"),
        "missing trailer": (raw[: 16 + len(weights) + len(bank)], "missing the model trailer"),
        "missing key": (with_pipeline({k: v for k, v in doc.items() if k != "n_biases"}),
                        "bad model.pipeline: missing keys ['n_biases']"),
        "unknown key": (with_pipeline({**doc, "normalize": True}), "bad model.pipeline: unknown keys ['normalize']"),
        "kernel_seed": (with_pipeline({**doc, "kernel_seed": 7}), "differ from the bank"),
        "negative kernel_seed": (with_pipeline({**doc, "kernel_seed": -3}), "kernel_seed must be >= 0, got -3"),
        "n_kernels": (with_pipeline({**doc, "n_kernels": 21}), "differ from the bank"),
        "n_biases": (with_pipeline({**doc, "n_biases": 3}), "differ from the bank"),
    }
    for name, (blob, message) in cases.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest_path)]) == 3, name
        err = capsys.readouterr().err
        assert message in err and str(path) in err, name
    for field, what in (("kernel_bank", "kernel bank"), ("pipeline", "pipeline config")):
        save_model(replace(model, **{field: None}), path)
        for command in ("eval", "calibrate"):
            argv = [command, "--model", str(path), "--manifest", str(manifest_path), "--out", str(tmp_path / "c")]
            assert main(argv[:5] if command == "eval" else argv) == 3, (field, command)
            assert f"the model carries no {what}" in capsys.readouterr().err


def test_model_with_a_foreign_bank_or_duplicate_labels_exits_3(tmp_path, capsys, flagged_model, monkeypatch):
    """A model whose bank does not make features of its input dimension, or
    whose class labels repeat, is a bad file: eval exits 3 before it
    featurizes a capture."""
    from dataclasses import replace

    from moric import harness
    from moric.classifier import ModelDims, init_params, load_model, save_model

    model_path, manifest_path, _ = flagged_model
    featurized = []
    monkeypatch.setattr(harness, "featurize_manifest", lambda *args, **kw: featurized.append(args))
    weights, bank, meta = split_model(model_path.read_bytes())
    model = load_model(model_path)
    dims = ModelDims(input_dim=5, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    path = tmp_path / "model.morm"
    save_model(replace(model, dims=dims, params=init_params(dims, 0), kernel_bank=None), path)
    small_weights, _, small_meta = split_model(path.read_bytes())
    cases = {
        "foreign bank": (join_model(small_weights, bank, small_meta),
                         f"kernel bank dimension {model.kernel_bank.dim} does not match model D=5"),
        "duplicate labels": (join_model(weights, bank, {**meta, "class_labels": ["circle", "circle"]}),
                             "duplicate class labels ['circle', 'circle']"),
    }
    for name, (blob, message) in cases.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest_path)]) == 3, name
        err = capsys.readouterr().err
        assert message in err and str(path) in err, name
    assert featurized == []


def test_eval_calibrated_without_a_calibration_exits_2_before_featurizing(capsys, flagged_model, monkeypatch):
    from moric import harness

    model_path, manifest_path, _ = flagged_model
    featurized = []
    monkeypatch.setattr(harness, "featurize_manifest", lambda *args, **kw: featurized.append(args))
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest_path), "--calibrated"]) == 2
    assert f"--calibrated: {model_path} carries no calibration" in capsys.readouterr().err
    assert featurized == []


def test_capture_of_no_streams_exits_3(tmp_path, capsys, flagged_model):
    model_path, _, _ = flagged_model
    empty = tmp_path / "empty.csit"
    empty.write_bytes(struct.pack("<4sIIIIddd", b"CSIT", 1, 0, 16, 500, 100.0, 2.4e9, 312.5e3))
    meta = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "circle", "access_point": "p"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [{"path": str(empty), "meta": meta}]}))
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest)]) == 3
    assert f"{empty}: need at least one stream" in capsys.readouterr().err


def _eval_with_a_bad_capture(tmp_path, flagged_model, at, byte, alone=False):
    """`moric eval` over the flagged corpus with its second capture truncated
    by 5 bytes (at None) or with byte `at` of its header set to `byte`, and
    with the other captures too unless `alone`; returns the exit code and the
    bad capture's path."""
    from dataclasses import replace

    from moric.harness import Manifest

    model_path, manifest_path, _ = flagged_model
    manifest = Manifest.load(manifest_path)
    raw = bytearray(manifest.entries[1].path.read_bytes())
    bad = tmp_path / "bad.csit"
    if at is None:
        bad.write_bytes(raw[:-5])
    else:
        raw[at] = byte
        bad.write_bytes(raw)
    entries = list(manifest.entries)
    entries[1] = replace(entries[1], path=bad)
    Manifest(entries=tuple(entries[1:2] if alone else entries)).save(tmp_path / "manifest.json")
    return main(["eval", "--model", str(model_path), "--manifest", str(tmp_path / "manifest.json")]), bad


@pytest.mark.parametrize("at, byte", [(35, 0x00), (35, 0x20), (27, 0x7F), (None, None)])
def test_a_capture_the_pipeline_cannot_use_is_named_once(tmp_path, capsys, flagged_model, at, byte):
    """A header float the reader accepts but the velocity grid cannot use (the
    top byte of carrier_hz or of sample_rate_hz) exits 2 and a truncated
    capture exits 3, each with one error line that names the capture once
    and no numpy warning."""
    code, bad = _eval_with_a_bad_capture(tmp_path, flagged_model, at, byte)
    assert code == (3 if at is None else 2)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and err.count(str(bad)) == 1, err


@pytest.mark.parametrize("at, byte", [(35, 0x00), (35, 0x20), (27, 0x7F)])
def test_a_capture_alone_in_its_manifest_fans_out_its_rows_and_is_named_once(
    tmp_path, capsys, monkeypatch, flagged_model, at, byte
):
    """A one-capture manifest hands the capture's row blocks to the lanes, and
    the capture is still named once, with no numpy warning."""
    from moric import delay_doppler, features, lanes, sanitize

    monkeypatch.setattr(lanes, "POOL_SIZE", 1)
    monkeypatch.setattr(sanitize, "MEDIAN_BLOCK_SAMPLES", 4000)  # 32 rows in 4 blocks
    monkeypatch.setattr(delay_doppler, "PSD_BLOCK_WINDOWS", 400)  # 16 rows in 6 blocks
    monkeypatch.setattr(features, "BLOCK_SAMPLES", 1500)
    submitted, submit = [], lanes._pool.submit
    monkeypatch.setattr(lanes._pool, "submit", lambda *a: submitted.append(1) or submit(*a))
    code, bad = _eval_with_a_bad_capture(tmp_path, flagged_model, at, byte, alone=True)
    assert code == 2 and submitted
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and err.count(str(bad)) == 1, err


def test_bad_training_and_pipeline_values_exit_2_before_featurizing(tmp_path, capsys, flagged_model, monkeypatch):
    from moric import harness

    featurized = []
    monkeypatch.setattr(harness, "featurize_manifest", lambda *args, **kw: featurized.append(args))
    _, manifest_path, _ = flagged_model
    commands = (
        ["train", "--manifest", str(manifest_path), "--out", str(tmp_path / "out.morm")],
        ["loso", "--manifest", str(manifest_path), "--report", str(tmp_path / "r")],
    )
    for flags, message in (
        (["--snr-db", "nan"], "snr_threshold_db must be finite, got nan"),
        (["--snr-db=-inf"], "snr_threshold_db must be finite, got -inf"),
        (["--val-frac", "-1"], "val_fraction must lie in [0, 1.0), got -1.0"),
        (["--val-frac", "2"], "val_fraction must lie in [0, 1.0), got 2.0"),
        (["--lr", "inf"], "lr must be finite and positive, got inf"),
        (["--lr", "nan"], "lr must be finite and positive, got nan"),
        (["--weight-decay", "inf"], "weight_decay must lie in [0, inf), got inf"),
        (["--heads", "0"], "n_heads must be >= 1, got 0"),
        (["--kernel-seed", "-3"], "kernel_seed must be >= 0, got -3"),
    ):
        for argv in commands:
            assert main(argv + flags) == 2, (argv[0], flags)
            assert message in capsys.readouterr().err, (argv[0], flags)
    # the root --seed; simulate checks it before it reads the scene
    simulate = ["simulate", "--scene", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.csit")]
    for argv in commands + (simulate,):
        assert main(["--seed", "-1"] + argv) == 2, argv[0]
        assert "seed must be >= 0, got -1" in capsys.readouterr().err, argv[0]
    assert featurized == []
    assert not (tmp_path / "out.morm").exists() and not (tmp_path / "r").exists()


TRAIN_ARGV = ["train", "--manifest", "m.json", "--out", "m.morm"]  # the required flags alone
LOSO_ARGV = ["loso", "--manifest", "m.json", "--report", "r"]


def test_sanitize_takes_no_hampel_flags(tmp_path, capsys, scene_file):
    """The front end has one estimator and always filters and normalizes: no
    command takes a Hampel setting, a switch to skip a step or an estimator
    choice, no command writes random-kernel features, and the program sets
    its own thread count."""
    csit = tmp_path / "x.csit"
    assert main(["simulate", "--scene", str(scene_file), "--out", str(csit)]) == 0
    io = ["--in", str(csit), "--out", str(tmp_path / "y")]
    cases = [["sanitize", *io, "--window", "5"], ["sanitize", *io, "--sigmas", "5"],
             ["sanitize", *io, "--skip-hampel"], ["decompose", *io, "--estimator", "psd"],
             ["decompose", *io, "--no-normalize"]]
    for command in TRAIN_ARGV, LOSO_ARGV:
        cases += [command + ["--skip-hampel"], command + ["--estimator", "psd"]]
        cases += [command + ["--threads", "2"], ["--threads=2"] + command]
    cases = [(argv, "unrecognized arguments") for argv in cases]
    cases.append((["features", "--in", str(tmp_path / "v.dvel"), "--out", str(tmp_path / "f")], "invalid choice"))
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_pipeline_and_training_flags_default_to_their_records():
    """`train` and `loso` with no optional flag give the records' defaults, and
    `decompose` the Doppler ones; `calibrate` gets the defaults of the
    functions it calls."""
    import inspect

    from moric import cli, classifier, harness
    from moric.classifier import TrainConfig
    from moric.core import PipelineConfig

    parser = cli.build_parser()
    for argv in TRAIN_ARGV, LOSO_ARGV:
        args = parser.parse_args(argv)
        assert cli._from_flags(PipelineConfig, args) == PipelineConfig(), argv
        assert cli._from_flags(TrainConfig, args, seed=args.seed) == TrainConfig(), argv
        assert args.n_heads == TrainConfig.n_heads, argv
    args = parser.parse_args(["calibrate", "--model", "m.morm", "--manifest", "m.json"])
    fit = inspect.signature(classifier.calibrate).parameters
    sweep = inspect.signature(harness.run_calibration_sweep).parameters
    assert (args.steps, args.lr, args.draws) == (fit["steps"].default, fit["lr"].default, sweep["n_draws"].default)
    assert (args.steps, args.lr, args.draws) == (500, 0.01, 10)
    args = parser.parse_args(["decompose", "--in", "y.csit", "--out", "v.dvel"])
    assert cli._from_flags(DopplerParams, args) == PipelineConfig().doppler
    assert args.snr_threshold_db == PipelineConfig().snr_threshold_db


def test_calibrate_sweep_counts_are_checked_before_featurizing(tmp_path, capsys, flagged_model):
    model_path, _, _ = flagged_model
    missing = str(tmp_path / "absent.json")
    assert main(["calibrate", "--model", str(model_path), "--manifest", missing, "--sweep", "a,b"]) == 2
    assert "invalid literal" in capsys.readouterr().err


def test_calibrate_rejects_bad_sweep_and_fit_arguments(tmp_path, capsys, flagged_model, monkeypatch):
    from moric import harness

    model_path, manifest_path, _ = flagged_model
    featurized = []
    monkeypatch.setattr(harness, "featurize_manifest", lambda *args, **kw: featurized.append(args))
    base = ["calibrate", "--model", str(model_path), "--manifest", str(manifest_path)]
    out = ["--out", str(tmp_path / "cal.morm")]
    for extra, message in (
        (["--sweep", "1", "--draws", "0"], "n_draws must be >= 1"),
        (["--sweep", "-1"], "samples_per_class"),
        (["--sweep", "0,-1"], "samples_per_class"),
        (out + ["--steps", "-3"], "steps must be >= 1"),
        (out + ["--steps", "0"], "steps must be >= 1"),
        (out + ["--lr", "0"], "lr must be finite and positive"),
        (out + ["--lr", "nan"], "lr must be finite and positive"),
        (["--sweep", "1", "--steps", "0"], "--steps and --lr set a fit only, not a sweep: got --steps 0 --lr 0.01"),
        (["--sweep", "1", "--lr", "nan"], "got --steps 500 --lr nan"),
        (["--sweep", ""] + out, "invalid literal for int()"),
        (out + ["--draws", "0"], "--draws sets a sweep only, not a fit: got --draws 0"),
    ):
        assert main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert message in captured.err, extra
        assert "NaN" not in captured.out, extra
    assert main(["--seed", "-1"] + base + ["--sweep", "1"]) == 2  # the root --seed precedes the command
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "cal.morm").exists()
    assert featurized == []  # every argument is checked before the manifest is featurized


def test_calibrate_fit_equals_per_draw_reference(tmp_path, flagged_model):
    from moric.classifier import load_model
    from moric.harness import Manifest, featurize_manifest

    from test_harness import _reference_calibrate

    model_path, manifest_path, _ = flagged_model
    fitted = tmp_path / "cal.morm"
    assert main(["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
                 "--out", str(fitted), "--steps", "300", "--lr", "0.02"]) == 0
    model = load_model(model_path)
    samples = featurize_manifest(Manifest.load(manifest_path), model.pipeline, model.kernel_bank)
    ref = _reference_calibrate(model, [(s.feature_set, s.label) for s in samples], steps=300, lr=0.02)
    got = load_model(fitted).calibration
    assert got.temperature == ref.temperature
    assert got.bias.tobytes() == ref.bias.tobytes()


def test_report_rejects_malformed_report_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    for doc in ({"class_labels": ["a"]}, [1, 2], {"class_labels": "a", "fold_subjects": []}):
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2, doc
        assert "bad report" in capsys.readouterr().err, doc
    # well-typed, but zip would pair only the first subject with an accuracy
    good = {
        "class_labels": ["a"],
        "fold_subjects": ["s1", "s2", "s3"],
        "fold_accuracies": [1.0],
        "mean_accuracy": 1.0,
        "sd_accuracy": 0.0,
        "confusion_pct": [[100.0]],
        "snr_median_by_stream": {},
        "runtime_s": 0.1,
    }
    path.write_text(json.dumps(good))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "ragged")]) == 2
    assert "3 fold subjects but 1 fold accuracies" in capsys.readouterr().err
    assert not (tmp_path / "ragged" / "fold_accuracy.csv").exists()
    path.write_text(json.dumps({**good, "fold_accuracies": [1.0, 1.0, 1.0]}))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "even")]) == 0
    # a non-standard JSON token
    path.write_text(json.dumps({**good, "fold_accuracies": [1.0, float("nan"), 1.0]}))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "nan")]) == 2
    assert "bad report.fold_accuracies[1]: expected a number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()


def test_malformed_scene_exits_2(tmp_path, scene_file, capsys):
    doc = json.loads(scene_file.read_text())
    cluster = doc["clusters"][0]
    cases = [
        ({}, "bad scene: missing keys"),
        ([1], "bad scene: expected an object"),
        ({**doc, "trajectory": {**doc["trajectory"], "bogus": 1}}, "bad scene.trajectory: unknown keys ['bogus']"),
        ({**doc, "bogus": 1}, "bad scene: unknown keys ['bogus']"),
        ({**doc, "tx_pos": [0.0, 0.0, 0.0]}, "bad scene: unknown keys ['tx_pos']"),
        ({**doc, "rx_pos": [3.0, 0.0, 0.0]}, "bad scene: unknown keys ['rx_pos']"),
        ({**doc, "reflectors": []}, "bad scene: unknown keys ['reflectors']"),
        ({**doc, "duration_s": "1"}, "bad scene.duration_s: expected a number, got '1'"),
        ({**doc, "n_streams": 1.5}, "bad scene.n_streams: expected an integer, got 1.5"),
        ({**doc, "duration_s": 10**400}, "bad scene.duration_s: expected a number"),  # beyond float range
        ({**doc, "duration_s": float("nan")}, "bad scene.duration_s: expected a number, got nan"),
        ({**doc, "duration_s": float("-inf")}, "bad scene.duration_s: expected a number, got -inf"),
        (
            {**doc, "clusters": [{"mean_direction": cluster["mean_direction"]}]},
            "bad scene.clusters[0]: missing keys ['concentration', 'delay_s', 'n_scatterers']",
        ),
    ]
    path = tmp_path / "scene.json"
    for scene, message in cases:
        path.write_text(json.dumps(scene))
        assert main(["simulate", "--scene", str(path), "--out", str(tmp_path / "x.csit")]) == 2, scene
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, scene
    assert not (tmp_path / "x.csit").exists()


def _readme_scene() -> str:
    """The JSON block that README.md documents as a minimal scene."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    return block


def test_readme_commands_are_the_cli_commands():
    """The `moric <command>` lines of README.md's shell blocks name every
    subcommand, and no other, and each of them parses."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("moric ")]
    assert {line.split()[1] for line in lines} == set(_subcommands())
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_scene_simulates(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(_readme_scene())
    scene = Scene.from_json(path.read_text())
    assert main(["simulate", "--scene", str(path), "--out", str(tmp_path / "x.csit")]) == 0
    frame = read_csit(tmp_path / "x.csit")
    assert frame.data.shape == (scene.n_streams, scene.radio.n_subcarriers, 500)
