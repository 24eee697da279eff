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
            "--kernels",
            "30",
            "--biases",
            "2",
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
         "--out", str(fitted), "--kernels", "30", "--biases", "2"]
    ) == 0
    from moric.classifier import load_model

    assert load_model(fitted).calibration is not None

    sweep_out = tmp_path / "sweep.json"
    assert main(
        ["calibrate", "--model", str(model_path), "--manifest", str(manifest_path),
         "--sweep", "0,2", "--draws", "2", "--out", str(sweep_out),
         "--kernels", "30", "--biases", "2"]
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


def test_calibrate_fit_requires_out(tmp_path):
    # argument validation happens before any heavy work
    missing = main(["calibrate", "--model", str(tmp_path / "m.morm"),
                    "--manifest", str(tmp_path / "m.json")])
    assert missing == 3  # model file absent -> I/O error first


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
    corrupt = {"n_heads": (raw[:12] + struct.pack("<I", 0) + raw[16:], "n_heads must be >= 1")}
    corrupt.update(bank_field_patches(raw, raw.index(b"KBNK")))
    for name, (blob, message) in corrupt.items():
        path.write_bytes(blob)
        assert main(["eval", "--model", str(path), "--manifest", str(manifest)]) == 3, name
        err = capsys.readouterr().err
        assert message is None or message in err, name
