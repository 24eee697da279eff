"""One capture's row blocks on the lanes: the Hampel filter, the Doppler PSD
and the kernel transform hand their blocks to `moric.lanes`, one level deep,
and no output bit depends on it."""

import dataclasses

import numpy as np
import pytest

from moric import classifier, delay_doppler, features, harness, lanes, sanitize
from moric.classifier import ModelDims, MoricModel, init_params
from moric.core import PipelineConfig, write_dvel
from moric.harness import Manifest
from moric.simulator import NoiseParams, synthesize_csi

from conftest import make_gesture_scene, make_radio, write_synthetic_manifest

PIPELINE = PipelineConfig(n_kernels=40)


def _capture(n_streams, duration_s, seed):
    rng = np.random.default_rng(seed)
    radio = make_radio(n_subcarriers=16)
    noise = NoiseParams(csd_delay_s=(0.0, 50e-9, 100e-9)[:n_streams], sto_walk_std_s=2e-9, awgn_snr_db=20.0)
    scene = make_gesture_scene(rng, "push_pull", radio, duration_s=duration_s)
    return synthesize_csi(dataclasses.replace(scene, n_streams=n_streams, noise=noise), seed=seed)[0]


def _model(bank):
    dims = ModelDims(input_dim=bank.dim, n_heads=2, head_hidden=16, reduced_dim=8, cls_hidden=8, n_classes=3)
    return MoricModel(dims=dims, class_labels=("a", "b", "c"), params=init_params(dims, 4), kernel_bank=bank)


@pytest.fixture
def small_blocks(monkeypatch):
    # a 3 x 16 x 400 capture then spans 14 Hampel blocks (96 rows of 390
    # interior columns, 7 rows a block), 8 PSD blocks (48 rows of 85
    # windows, 6 rows a block) and up to 16 kernel blocks (3 rows a block)
    monkeypatch.setattr(sanitize, "MEDIAN_BLOCK_SAMPLES", 2800)
    monkeypatch.setattr(delay_doppler, "PSD_BLOCK_WINDOWS", 520)
    monkeypatch.setattr(features, "BLOCK_SAMPLES", 1200)


@pytest.fixture
def no_pool(monkeypatch):
    """Two lanes whatever the host, and a pool that fails any submission."""
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)

    def submit(*args, **kwargs):
        raise AssertionError("a work item reached the pool")

    monkeypatch.setattr(lanes._pool, "submit", submit)


def test_capture_bits_do_not_depend_on_the_row_block_pool(tmp_path, monkeypatch, small_blocks):
    # a pool of one worker spreads each stage's row blocks over two lanes;
    # with no workers every block runs on the calling thread
    frame = _capture(n_streams=3, duration_s=4.0, seed=11)
    bank = features.build_bank(PIPELINE.kernel_seed, PIPELINE.n_kernels, PIPELINE.n_biases, frame.n_time)
    model = _model(bank)
    submitted = []
    submit = lanes._pool.submit
    monkeypatch.setattr(lanes._pool, "submit", lambda *a: submitted.append(1) or submit(*a))

    def outputs(pool_size, path):
        monkeypatch.setattr(lanes, "POOL_SIZE", pool_size)
        with lanes.one_blas_thread():
            vs = harness.velocity_set_for_frame(frame, PIPELINE)
            fs = harness.featurize_velocity_set(vs, bank)
            logits, _ = classifier.forward(model, fs)
        write_dvel(vs, path)
        return vs, (path.read_bytes(), vs.values.tobytes(), fs.features.tobytes(), logits.tobytes())

    vs, pooled = outputs(1, tmp_path / "pooled.dvel")
    assert len(submitted) == 3  # one worker lane per stage
    _, serial = outputs(0, tmp_path / "serial.dvel")
    assert len(submitted) == 3
    assert pooled == serial
    assert np.count_nonzero(~vs.gated) > 2 * (features.BLOCK_SAMPLES // frame.n_time)  # kernel blocks to share


def test_a_one_lane_manifest_runs_every_row_block_on_the_calling_thread(tmp_path, small_blocks, no_pool):
    # featurize_manifest(threads=1) caps the captures at one lane, and a cap
    # holds all the way down: no capture's row blocks fan out either
    radio = make_radio(n_subcarriers=16)
    _, path = write_synthetic_manifest(tmp_path, ["s1"], ["circle", "push_pull"], 1, radio, duration_s=4.0, seed=3)
    manifest = Manifest.load(path)
    samples = harness.featurize_manifest(manifest, PIPELINE, harness.kernel_bank(manifest, PIPELINE), threads=1)
    assert [s.sample_id for s in samples] == ["s1-circle-0", "s1-push_pull-0"]


def test_a_1x16x400_capture_submits_nothing_to_the_pool(no_pool):
    # at the default block sizes a one-stream, 16-subcarrier capture of 400
    # frames is one block in each stage, so it never leaves the calling thread
    frame = _capture(n_streams=1, duration_s=4.0, seed=12)
    assert frame.data.shape == (1, 16, 400)
    pipeline = PipelineConfig()
    bank = features.build_bank(pipeline.kernel_seed, pipeline.n_kernels, pipeline.n_biases, frame.n_time)
    vs = harness.velocity_set_for_frame(frame, pipeline)
    classifier.predict(_model(bank), harness.featurize_velocity_set(vs, bank))
