import json
import struct

import numpy as np
import pytest

from moric.cli import main
from moric.core import read_csit, read_dvel, read_feat
from moric.simulator import Scene

from conftest import (
    bank_field_patches,
    make_gesture_scene,
    make_radio,
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
    """simulate -> sanitize -> decompose -> features runs file-to-file."""
    csit = tmp_path / "x.csit"
    clean = tmp_path / "y.csit"
    dvel = tmp_path / "v.dvel"
    feat = tmp_path / "f.feat"

    assert main(["simulate", "--scene", str(scene_file), "--out", str(csit)]) == 0
    frame = read_csit(csit)
    assert frame.config.n_subcarriers == 16

    assert main(["sanitize", "--in", str(csit), "--out", str(clean)]) == 0
    assert main(
        ["decompose", "--in", str(clean), "--out", str(dvel), "--window", "64", "--hop", "4"]
    ) == 0
    vs = read_dvel(dvel)
    assert len(vs) == 16

    assert main(
        ["features", "--in", str(dvel), "--out", str(feat), "--kernels", "20", "--biases", "2"]
    ) == 0
    fs = read_feat(feat)
    assert fs.n_rows == 16
    assert fs.dim == 60


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


def test_corrupt_input_exits_3(tmp_path, scene_file):
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
    for trailer in ({"a": 1}, {**meta, "orientation_deg": "zz"}, {**meta, "orientation_deg": [1]}):
        blob = json.dumps(trailer).encode()
        bad.write_bytes(csit.read_bytes() + struct.pack("<I", len(blob)) + blob)
        assert main(["sanitize", "--in", str(bad), "--out", str(tmp_path / "y")]) == 3, trailer


def test_empty_manifest_exits_2(tmp_path, capsys):
    from moric.classifier import ModelDims, MoricModel, init_params, save_model

    dims = ModelDims(input_dim=4, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    model = tmp_path / "model.morm"
    save_model(MoricModel(dims=dims, class_labels=("a", "b"), params=init_params(dims, 0)), model)
    manifest = tmp_path / "manifest.json"
    meta = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "g", "access_point": "p"}
    malformed = [
        ({"entries": []}, "manifest has no entries"),
        ([], "'entries' list"),
        ({}, "'entries' list"),
        ({"entries": [1]}, "entry 0 needs"),
        ({"entries": [{"meta": meta}]}, "entry 0 needs"),
        ({"entries": [{"path": str(model)}]}, "entry 0 needs"),
        ({"entries": [{"path": str(model), "meta": {"a": 1}}]}, "bad sample metadata"),
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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0


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
    import struct

    from moric.classifier import ModelDims, MoricModel, init_params, save_model

    bank = two_kernel_bank()
    dims = ModelDims(input_dim=bank.dim, n_heads=1, head_hidden=3, reduced_dim=2, cls_hidden=3, n_classes=2)
    model = MoricModel(dims=dims, class_labels=("a", "b"), params=init_params(dims, 0), kernel_bank=bank)
    path = tmp_path / "model.morm"
    save_model(model, path)
    raw = path.read_bytes()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": []}))
    corrupt = {
        "n_heads": (raw[:12] + struct.pack("<I", 0) + raw[16:], "n_heads must be >= 1"),
        "appended bytes": (raw + b"garbage!", "8 bytes after the trailer"),
    }
    corrupt.update(bank_field_patches(raw, raw.index(b"KBNK")))
    for name, (blob, message) in corrupt.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest)]) == 3, name
        err = capsys.readouterr().err
        assert message is None or message in err, name


PIPELINE_FLAGS = ["--window", "--hop", "--pad", "--estimator", "--snr-db", "--skip-hampel",
                  "--kernel-seed", "--kernels", "--biases"]


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
         "--kernels", "20", "--biases", "2", "--window", "32", "--skip-hampel",
         "--lr", "0.01", "--epochs", "5", "--patience", "5", "--batch", "4"]
    ) == 0
    return model_path, manifest_path, foreign_path


def test_eval_and_calibrate_featurize_with_the_model_pipeline(tmp_path, flagged_model, monkeypatch):
    from moric import harness
    from moric.classifier import load_model
    from moric.core import DopplerParams, PipelineConfig
    from moric.harness import Manifest, build_feature_table

    model_path, manifest_path, _ = flagged_model
    want = PipelineConfig(doppler=DopplerParams(window_len=32), use_hampel=False, n_kernels=20, n_biases=2)
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
            value = [] if flag == "--skip-hampel" else ["psd" if flag == "--estimator" else "3"]
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", str(model_path), "--manifest", str(manifest_path), flag] + value)
            assert exc.value.code == 2, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_gesture_exits_2(tmp_path, capsys, flagged_model):
    model_path, _, foreign_path = flagged_model
    base = ["--model", str(model_path), "--manifest", str(foreign_path)]
    for argv in (
        ["eval"] + base,
        ["calibrate"] + base + ["--out", str(tmp_path / "cal.morm")],
        ["calibrate"] + base + ["--sweep", "0,1", "--draws", "1"],
    ):
        assert main(argv) == 2, argv
        assert "gesture 'up_down' is not a class of the model" in capsys.readouterr().err, argv


def test_bad_or_incomplete_model_file_exits_3(tmp_path, capsys, flagged_model):
    from dataclasses import replace

    from moric.classifier import load_model, save_model
    from moric.core import _json_trailer

    model_path, manifest_path, _ = flagged_model
    model = load_model(model_path)
    raw = model_path.read_bytes()
    body = raw[: raw.rindex(b'{"pipeline"') - 4]
    doc = model.pipeline.to_dict()
    path = tmp_path / "model.morm"
    cases = {
        "version 1": (raw[:4] + struct.pack("<I", 1) + raw[8:], "unsupported model version 1"),
        "appended bytes": (raw + b"garbage!", "bytes after the trailer"),
        "missing key": (body + _json_trailer({"pipeline": {k: v for k, v in doc.items() if k != "n_biases"}}),
                        "missing keys ['n_biases']"),
        "unknown key": (body + _json_trailer({"pipeline": {**doc, "normalize": True}}),
                        "unknown keys ['normalize']"),
        "kernel_seed": (body + _json_trailer({"pipeline": {**doc, "kernel_seed": 7}}), "differ from the bank"),
        "n_kernels": (body + _json_trailer({"pipeline": {**doc, "n_kernels": 21}}), "differ from the bank"),
        "n_biases": (body + _json_trailer({"pipeline": {**doc, "n_biases": 3}}), "differ from the bank"),
    }
    for name, (blob, message) in cases.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest_path)]) == 3, name
        assert message in capsys.readouterr().err, name
    for field, what in (("kernel_bank", "kernel bank"), ("pipeline", "pipeline config")):
        save_model(replace(model, **{field: None}), path)
        for command in ("eval", "calibrate"):
            argv = [command, "--model", str(path), "--manifest", str(manifest_path), "--out", str(tmp_path / "c")]
            assert main(argv[:5] if command == "eval" else argv) == 3, (field, command)
            assert f"the model carries no {what}" in capsys.readouterr().err


def test_calibrate_sweep_counts_are_checked_before_featurizing(tmp_path, capsys, flagged_model):
    model_path, _, _ = flagged_model
    missing = str(tmp_path / "absent.json")
    assert main(["calibrate", "--model", str(model_path), "--manifest", missing, "--sweep", "a,b"]) == 2
    assert "invalid literal" in capsys.readouterr().err


def test_report_rejects_malformed_report_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    for doc in ({"class_labels": ["a"]}, [1, 2], {"class_labels": "a", "fold_subjects": []}):
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2, doc
        assert "bad report" in capsys.readouterr().err, doc
