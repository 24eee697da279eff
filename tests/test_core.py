import struct

import numpy as np
import pytest

from moric.core import (
    CsiFrame,
    FeatureSet,
    FormatError,
    RadioConfig,
    SampleMeta,
    SPEED_OF_LIGHT,
    VelocitySet,
    VelocityVector,
    read_csit,
    read_dvel,
    read_feat,
    write_csit,
    write_dvel,
    write_feat,
)

from conftest import make_radio, random_frame


def test_radio_config_wavelength_identity():
    cfg = make_radio()
    assert cfg.wavelength_m * cfg.carrier_hz == SPEED_OF_LIGHT


def test_radio_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RadioConfig(carrier_hz=-1.0, subcarrier_spacing_hz=1.0, n_subcarriers=4, sample_rate_hz=1.0)
    with pytest.raises(ValueError):
        RadioConfig(carrier_hz=1.0, subcarrier_spacing_hz=1.0, n_subcarriers=1, sample_rate_hz=1.0)


def test_csi_frame_validates_shape_and_finiteness():
    cfg = make_radio(n_subcarriers=4)
    with pytest.raises(ValueError):
        CsiFrame(config=cfg, data=np.ones((2, 5, 4), dtype=complex))  # wrong N
    with pytest.raises(ValueError):
        CsiFrame(config=cfg, data=np.ones((2, 4, 1), dtype=complex))  # T too short
    bad = np.ones((1, 4, 3), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        CsiFrame(config=cfg, data=bad)


def test_csit_identity_payload(tmp_path):
    # all-(1+0j) 1x2x2 frame: payload is exactly 8 f32 values re=1, im=0
    cfg = RadioConfig(carrier_hz=2.4e9, subcarrier_spacing_hz=312.5e3, n_subcarriers=2, sample_rate_hz=100.0)
    frame = CsiFrame(config=cfg, data=np.ones((1, 2, 2), dtype=complex))
    path = tmp_path / "tiny.csit"
    write_csit(frame, path)
    raw = path.read_bytes()
    header_size = 4 + 4 + 3 * 4 + 3 * 8
    payload = np.frombuffer(raw, dtype="<f4", offset=header_size)
    assert payload.shape == (8,)
    assert np.array_equal(payload[0::2], np.ones(4, dtype="<f4"))
    assert np.array_equal(payload[1::2], np.zeros(4, dtype="<f4"))


def test_csit_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    frame = random_frame(rng, n_streams=3, n_subcarriers=52, n_time=5)
    meta = SampleMeta("s1", "alice", 180, "circle", "ap5")
    frame = CsiFrame(config=frame.config, data=frame.data, meta=meta)
    p1, p2 = tmp_path / "a.csit", tmp_path / "b.csit"
    write_csit(frame, p1)
    loaded = read_csit(p1)
    write_csit(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.meta == meta
    assert loaded.config == frame.config
    # values survive exactly once representable in f32
    assert np.array_equal(
        loaded.data.astype(np.complex64), frame.data.astype(np.complex64)
    )


def test_csit_single_ap_header_shape(tmp_path):
    # one access point: 3 antennas x 52 retained data tones
    frame = random_frame(np.random.default_rng(0), n_streams=3, n_subcarriers=52, n_time=4)
    path = tmp_path / "ap.csit"
    write_csit(frame, path)
    loaded = read_csit(path)
    assert loaded.n_streams == 3
    assert loaded.config.n_subcarriers == 52


def test_csit_rejects_bad_magic_version_truncation(tmp_path):
    frame = random_frame(np.random.default_rng(1), n_streams=1, n_subcarriers=4, n_time=3)
    path = tmp_path / "x.csit"
    write_csit(frame, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.csit"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        read_csit(bad)

    badv = bytearray(raw)
    badv[4] = 99
    bad.write_bytes(bytes(badv))
    with pytest.raises(FormatError):
        read_csit(bad)

    bad.write_bytes(bytes(raw[:-7]))
    with pytest.raises(FormatError):
        read_csit(bad)

    # a metadata trailer that is not a UTF-8 JSON object
    for blob in (b"{not json", b"\xff", b"[1]"):
        bad.write_bytes(bytes(raw) + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(FormatError):
            read_csit(bad)


def _velocity_set(rng, n_vectors=3, t=30, source="sample-1"):
    vectors = []
    for i in range(n_vectors):
        vectors.append(
            VelocityVector(
                values=rng.normal(size=t).astype(np.float32).astype(np.float64),
                delay_bin=i,
                stream=i % 2,
                snr_db=float(np.float32(rng.normal())),
                gated=False,
            )
        )
    return VelocitySet(vectors=tuple(vectors), n_time=t, source=source)


def test_dvel_round_trip_bitwise(tmp_path):
    vs = _velocity_set(np.random.default_rng(3))
    p1, p2 = tmp_path / "a.dvel", tmp_path / "b.dvel"
    write_dvel(vs, p1)
    loaded = read_dvel(p1)
    write_dvel(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.source == "sample-1"
    assert len(loaded) == 3
    for orig, back in zip(vs.vectors, loaded.vectors):
        assert np.array_equal(orig.values, back.values)
        assert (orig.delay_bin, orig.stream, orig.gated) == (back.delay_bin, back.stream, back.gated)


def test_dvel_empty_set_legal(tmp_path):
    vs = VelocitySet(vectors=(), n_time=10, source="")
    path = tmp_path / "empty.dvel"
    write_dvel(vs, path)
    loaded = read_dvel(path)
    assert len(loaded) == 0
    assert loaded.n_time == 10


def test_gated_vector_must_be_zero():
    with pytest.raises(ValueError):
        VelocityVector(values=np.array([0.0, 1.0]), delay_bin=0, stream=0, snr_db=0.0, gated=True)
    v = VelocityVector(values=np.zeros(5), delay_bin=0, stream=0, snr_db=-3.0, gated=True)
    assert np.all(v.values == 0)


def test_dvel_truncation_detected(tmp_path):
    vs = _velocity_set(np.random.default_rng(4))
    path = tmp_path / "t.dvel"
    write_dvel(vs, path)
    raw = path.read_bytes()
    # strip the trailer first, then cut into the payload
    bad = tmp_path / "cut.dvel"
    bad.write_bytes(raw[:40])
    with pytest.raises(FormatError):
        read_dvel(bad)


def test_feat_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    fs = FeatureSet(
        features=rng.normal(size=(4, 6)).astype(np.float32).astype(np.float64),
        delay_bins=np.arange(4),
        streams=np.zeros(4, dtype=int),
        gated=np.array([False, True, False, False]),
        label="circle",
    )
    p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
    write_feat(fs, p1)
    loaded = read_feat(p1)
    write_feat(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.label == "circle"
    assert np.array_equal(loaded.features, fs.features)
    assert np.array_equal(loaded.gated, fs.gated)


def test_velocity_set_rejects_mismatched_lengths():
    v1 = VelocityVector(values=np.zeros(5), delay_bin=0, stream=0, snr_db=0.0, gated=False)
    v2 = VelocityVector(values=np.zeros(6), delay_bin=1, stream=0, snr_db=0.0, gated=False)
    with pytest.raises(ValueError):
        VelocitySet(vectors=(v1, v2), n_time=5)
