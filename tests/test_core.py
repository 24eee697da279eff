import json
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
    read_csit,
    read_dvel,
    write_csit,
    write_dvel,
)

from conftest import json_trailer, make_radio, random_frame


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
    with pytest.raises(ValueError, match="need at least one stream"):
        CsiFrame(config=cfg, data=np.ones((0, 4, 3), dtype=complex))


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

    # a non-standard JSON token in the trailer
    meta = {"sample_id": "a", "subject": "s", "orientation_deg": 0, "gesture": "g", "access_point": "p"}
    for value in (float("nan"), float("inf")):
        bad.write_bytes(bytes(raw) + json_trailer({**meta, "orientation_deg": value}))
        with pytest.raises(FormatError, match=f"orientation_deg: expected an integer, got {value}"):
            read_csit(bad)

    # a header of 0 streams, whose payload is empty
    bad.write_bytes(struct.pack("<4sIIIIddd", b"CSIT", 1, 0, 4, 3, 100.0, 2.4e9, 312.5e3))
    with pytest.raises(FormatError, match="need at least one stream"):
        read_csit(bad)


def _velocity_set(rng, n_rows=3, t=30, source="sample-1"):
    return VelocitySet(
        values=rng.normal(size=(n_rows, t)).astype(np.float32).astype(np.float64),
        delay_bins=np.arange(n_rows),
        streams=np.arange(n_rows) % 2,
        snr_db=rng.normal(size=n_rows).astype(np.float32).astype(np.float64),
        gated=np.zeros(n_rows, dtype=bool),
        source=source,
    )


def _struct_dvel(vs):
    """Byte reference: the per-row `struct` writer DVEL had before its rows
    became one packed record array."""
    out = [struct.pack("<4sIII", b"DVEL", 1, len(vs), vs.n_time)]
    for r in range(len(vs)):
        out.append(struct.pack("<IIfB", vs.delay_bins[r], vs.streams[r], vs.snr_db[r], int(vs.gated[r])))
        out.append(np.asarray(vs.values[r], dtype="<f4").tobytes())
    if vs.source:
        blob = json.dumps({"source": vs.source}, sort_keys=True).encode("utf-8")
        out += [struct.pack("<I", len(blob)), blob]
    return b"".join(out)


def test_dvel_round_trip_bitwise(tmp_path):
    vs = _velocity_set(np.random.default_rng(3))
    p1, p2 = tmp_path / "a.dvel", tmp_path / "b.dvel"
    write_dvel(vs, p1)
    loaded = read_dvel(p1)
    write_dvel(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.source == "sample-1"
    assert len(loaded) == 3
    assert np.array_equal(loaded.values, vs.values)
    for name in ("delay_bins", "streams", "gated"):
        assert np.array_equal(getattr(loaded, name), getattr(vs, name)), name


def test_dvel_writer_matches_struct_reference(tmp_path):
    rng = np.random.default_rng(6)
    gated = _velocity_set(rng, n_rows=5, t=40)
    values = gated.values.copy()
    values[[1, 3]] = 0.0
    gated = VelocitySet(
        values=values,
        delay_bins=np.arange(5) + 7,
        streams=np.array([0, 0, 1, 2, 2]),
        snr_db=rng.normal(scale=10.0, size=5),  # not f32-representable: the writer rounds
        gated=np.array([False, True, False, True, False]),
        source="",
    )
    for vs in (_velocity_set(rng), gated, _velocity_set(rng, n_rows=0, t=25)):
        write_dvel(vs, tmp_path / "v.dvel")
        assert (tmp_path / "v.dvel").read_bytes() == _struct_dvel(vs)


def test_dvel_empty_set_legal(tmp_path):
    vs = VelocitySet(
        values=np.zeros((0, 10)), delay_bins=[], streams=[], snr_db=[], gated=[], source=""
    )
    path = tmp_path / "empty.dvel"
    write_dvel(vs, path)
    loaded = read_dvel(path)
    assert len(loaded) == 0
    assert loaded.n_time == 10


def test_gated_vector_must_be_zero():
    def one_row(values, gated):
        return VelocitySet(
            values=np.asarray(values)[None], delay_bins=[0], streams=[0], snr_db=[-3.0], gated=[gated]
        )

    with pytest.raises(ValueError):
        one_row([0.0, 1.0], gated=True)
    v = one_row(np.zeros(5), gated=True)
    assert np.all(v.values == 0)
    assert one_row([0.0, 1.0], gated=False).values[0, 1] == 1.0


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
    # bytes after the trailer
    bad.write_bytes(raw + b"garbage")
    with pytest.raises(FormatError, match="after the trailer"):
        read_dvel(bad)
    # a gated flag byte other than 0/1 on an all-zero row (header 16 bytes,
    # then bin, stream and snr)
    zero = VelocitySet(values=np.zeros((1, 5)), delay_bins=[2], streams=[0], snr_db=[1.0], gated=[False])
    write_dvel(zero, path)
    raw = path.read_bytes()
    bad.write_bytes(raw[:28] + b"\x07" + raw[29:])
    with pytest.raises(FormatError, match="gated flag"):
        read_dvel(bad)


def test_readers_reject_non_finite_payload_values(tmp_path):
    """A quiet NaN, a signaling NaN or an infinity in an f32 payload is a
    FormatError naming the file, with no warning from the cast to float64; so
    is one in a DVEL row's SNR."""
    csit, dvel, bad = tmp_path / "x.csit", tmp_path / "x.dvel", tmp_path / "bad"
    _csit_with_trailer(csit)
    _dvel_with_trailer(dvel)
    csit_at = struct.calcsize("<4sIIIIddd")
    dvel_row = struct.calcsize("<4sIII")  # then bin, stream, snr, gated flag, values
    for bits in (0x7FC00000, 0x7F800001, 0x7F800000):
        word = struct.pack("<I", bits)
        for read, raw, at, message in (
            (read_csit, csit.read_bytes(), csit_at, "CSI tensor contains non-finite values"),
            (read_dvel, dvel.read_bytes(), dvel_row + 13, "velocity values contain non-finite entries"),
            (read_dvel, dvel.read_bytes(), dvel_row + 8, "velocity SNRs contain non-finite entries"),
        ):
            bad.write_bytes(raw[:at] + word + raw[at + 4 :])
            with pytest.raises(FormatError, match=message) as exc:
                read(bad)
            assert str(exc.value).startswith(f"{bad}: "), (hex(bits), message)


def test_dvel_trailers_are_strict_records(tmp_path):
    """A DVEL trailer holds exactly a string `source`; anything else names
    the file and the key."""
    path = tmp_path / "plain.dvel"
    write_dvel(_velocity_set(np.random.default_rng(12), source=""), path)
    payload = path.read_bytes()  # no trailer: the file ends after the rows
    bad = tmp_path / "bad"
    for trailer, message in (
        ({"source": 5}, r"bad DVEL trailer.source: expected a string, got 5"),
        ({"source": None}, r"bad DVEL trailer.source: expected a string"),
        ({"source": "x", "bogus": 1}, r"bad DVEL trailer: unknown keys \['bogus'\]"),
        ({}, r"bad DVEL trailer: missing keys \['source'\]"),
        ({"source": float("nan")}, r"bad DVEL trailer.source: expected a string, got nan"),
    ):
        bad.write_bytes(payload + json_trailer(trailer))
        with pytest.raises(FormatError, match=message) as exc:
            read_dvel(bad)
        assert str(exc.value).startswith(f"{bad}: "), message


def test_feature_set_rejects_non_finite_features():
    rng = np.random.default_rng(11)
    for bad_value in (np.nan, np.inf, -np.inf):
        features = rng.normal(size=(3, 4))
        features[1, 2] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            FeatureSet(features=features, delay_bins=[0, 1, 2], streams=[0, 0, 0], gated=[0, 0, 0])


def _csit_with_trailer(path):
    frame = random_frame(np.random.default_rng(2), n_streams=1, n_subcarriers=4, n_time=3)
    meta = SampleMeta("s1", "alice", 90, "circle", "ap1")
    write_csit(CsiFrame(config=frame.config, data=frame.data, meta=meta), path)
    return read_csit


def _dvel_with_trailer(path):
    write_dvel(_velocity_set(np.random.default_rng(9), n_rows=2, t=5), path)
    return read_dvel


@pytest.mark.parametrize("make", [_csit_with_trailer, _dvel_with_trailer])
def test_every_proper_prefix_raises_format_error(tmp_path, make):
    path = tmp_path / "full"
    read = make(path)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, raw.rindex(b"{") - 4)
    payload_end = len(raw) - 4 - blob_len
    prefix = tmp_path / "prefix"
    accepted = []
    for n in range(len(raw)):
        prefix.write_bytes(raw[:n])
        try:
            read(prefix)
        except FormatError:
            continue
        accepted.append(n)
    assert accepted == [payload_end]


def test_velocity_set_rejects_mismatched_lengths():
    # the array form of "every row has the set's length": one metadata entry per row
    with pytest.raises(ValueError):
        VelocitySet(values=np.zeros((2, 5)), delay_bins=[0], streams=[0, 0], snr_db=[0, 0], gated=[0, 0])
    with pytest.raises(ValueError):
        VelocitySet(values=np.zeros(5), delay_bins=[0], streams=[0], snr_db=[0], gated=[0])
    with pytest.raises(ValueError):
        VelocitySet(values=[[0.0, np.nan]], delay_bins=[0], streams=[0], snr_db=[0], gated=[0])
    vs = VelocitySet(values=np.zeros((2, 5)), delay_bins=[0, 1], streams=[0, 0], snr_db=[0, 0], gated=[0, 0])
    assert vs.n_time == 5
    with pytest.raises(ValueError):
        vs.values[0, 0] = 1.0  # read-only


def test_core_records_round_trip_through_json():
    from moric.core import DopplerParams, PipelineConfig

    records = [
        SampleMeta("s1", "alice", 180, "circle", "ap5"),
        RadioConfig(carrier_hz=5e9, subcarrier_spacing_hz=312500.0, n_subcarriers=52, sample_rate_hz=100.0),
        DopplerParams(window_len=16, hop=3),
        PipelineConfig(snr_threshold_db=-1.25, n_biases=4),
    ]
    for record in records:
        back = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
        assert back == record
        assert back.to_json() == record.to_json()
    # the metadata layout, which CSIT trailers and manifests store
    assert records[0].to_dict() == {
        "sample_id": "s1", "subject": "alice", "orientation_deg": 180, "gesture": "circle", "access_point": "ap5"
    }


def test_pipeline_config_dict_round_trip_and_rejections():
    from moric.core import DopplerParams, PipelineConfig

    cfg = PipelineConfig(
        doppler=DopplerParams(window_len=32, hop=2, fft_pad=256),
        snr_threshold_db=1.5,
        kernel_seed=7,
        n_kernels=20,
        n_biases=2,
    )
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert PipelineConfig.from_dict(doc) == cfg
    assert set(doc) == {"doppler", "snr_threshold_db", "kernel_seed", "n_kernels", "n_biases"}
    # an integer is a valid JSON number for a float field
    assert PipelineConfig.from_dict({**doc, "snr_threshold_db": 2}).snr_threshold_db == 2.0
    bad = {
        "missing": {k: v for k, v in doc.items() if k != "n_biases"},
        "unknown": {**doc, "hampel_window": 11},
        "nested unknown": {**doc, "doppler": {**doc["doppler"], "window_fn": "hann"}},
        "nested missing": {**doc, "doppler": {"window_len": 32}},
        "string for int": {**doc, "n_kernels": "20"},
        "bool for int": {**doc, "kernel_seed": True},
        "bool for float": {**doc, "snr_threshold_db": True},
        "float for int": {**doc, "doppler": {**doc["doppler"], "hop": 2.0}},
        "not an object": [],
        "doppler not an object": {**doc, "doppler": None},
        "rejected by DopplerParams": {**doc, "doppler": {**doc["doppler"], "hop": 0}},
        "NaN threshold": {**doc, "snr_threshold_db": float("nan")},
        "infinite threshold": {**doc, "snr_threshold_db": float("inf")},
        "negative kernel_seed": {**doc, "kernel_seed": -1},
    }
    for name, value in bad.items():
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(value)


def test_only_standard_finite_json_is_read_or_written():
    """A float field holds a finite number: the NaN and Infinity tokens and a
    number beyond the float range are of a wrong JSON type, and a record
    holding a non-finite float is not written."""
    from moric.core import PipelineConfig

    good = PipelineConfig().to_json()
    assert '"snr_threshold_db": 2.0' in good
    for token, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")):
        with pytest.raises(ValueError, match=f"bad pipeline.snr_threshold_db: expected a number, got {value}"):
            PipelineConfig.from_json(good.replace('"snr_threshold_db": 2.0', f'"snr_threshold_db": {token}'))
    with pytest.raises(ValueError, match="bad pipeline.snr_threshold_db: expected a number, got nan"):
        PipelineConfig.from_dict({**json.loads(good), "snr_threshold_db": float("nan")})
    with pytest.raises(ValueError, match="snr_threshold_db must be finite"):
        PipelineConfig(snr_threshold_db=float("nan"))
    radio = make_radio()
    assert RadioConfig.from_json(radio.to_json()) == radio
    object.__setattr__(radio, "sample_rate_hz", float("inf"))  # past the constructor's check
    with pytest.raises(ValueError, match="not JSON compliant"):
        radio.to_json()
