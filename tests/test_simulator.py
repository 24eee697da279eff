import json

import numpy as np
import pytest

from moric.core import SPEED_OF_LIGHT, RadioConfig
from moric.delay_doppler import decompose
from moric.simulator import (
    NoiseParams,
    ScatterCluster,
    Scene,
    Trajectory,
    doppler_shift,
    path_length_change,
    sample_vmf,
    synthesize_csi,
    total_path_change,
)

from conftest import make_radio


# ---------------------------------------------------------------------------
# Path-length geometry
# ---------------------------------------------------------------------------


def test_path_length_change_collinear_is_exact():
    exact, approx = path_length_change((0, 0, 0), (3, 0, 0), (1, 0, 0), 0.1)
    assert exact == pytest.approx(0.1, abs=1e-12)
    assert approx == pytest.approx(0.1, abs=1e-15)


def test_path_length_change_perpendicular():
    exact, approx = path_length_change((0, 0, 0), (3, 0, 0), (0, 1, 0), 0.1)
    assert approx == 0.0
    # exact Euclidean geometry: sqrt(9 + 0.01) - 3
    assert exact == pytest.approx(np.sqrt(9.01) - 3.0, rel=1e-12)
    assert exact == pytest.approx(1.6662e-3, rel=1e-3)


def test_path_length_change_zero_time():
    exact, approx = path_length_change((1, 2, 3), (4, 5, 6), (0.3, -0.2, 0.1), 0.0)
    assert exact == 0.0
    assert approx == 0.0


def test_path_length_change_coincident_rejected():
    with pytest.raises(ValueError):
        path_length_change((1, 1, 1), (1, 1, 1), (1, 0, 0), 0.1)


def test_total_path_change_collinear_segments():
    v = np.array([1.0, 0.0, 0.0])
    res = total_path_change([v, v], v, 0.1)
    assert res.delta_l_m == pytest.approx(0.2, abs=1e-15)
    assert res.n_segments == 2
    assert res.cos_theta_eq == pytest.approx(1.0)
    assert res.delta_tau_s == pytest.approx(0.2 / SPEED_OF_LIGHT)


def test_total_path_change_opposite_segments_cancel():
    v = np.array([0.0, 0.0, 2.0])
    res = total_path_change([[0, 0, 1], [0, 0, -1]], v, 0.5)
    assert res.delta_l_m == pytest.approx(0.0, abs=1e-15)
    assert res.cos_theta_eq == pytest.approx(0.0, abs=1e-15)


def test_total_path_change_matches_per_segment_oracle():
    rng = np.random.default_rng(11)
    v = rng.normal(size=3)
    dirs = rng.normal(size=(3, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t = 0.13
    # independent oracle: sum the per-segment linearizations one at a time
    expected = sum(float(np.dot(v, d)) * t for d in dirs)
    res = total_path_change(dirs, v, t)
    assert res.delta_l_m == pytest.approx(expected, rel=1e-12)
    cos_expected = np.mean([np.dot(v, d) / np.linalg.norm(v) for d in dirs])
    assert res.cos_theta_eq == pytest.approx(cos_expected, rel=1e-12)


def test_linearization_error_bound_holds():
    # |exact - approx| <= (|v| t)^2 / (2 d) whenever |v| t <= d / 2
    rng = np.random.default_rng(101)
    for _ in range(2000):
        obs = rng.normal(size=3) * 3.0
        p0 = obs + rng.normal(size=3) * rng.uniform(0.5, 5.0)
        d = np.linalg.norm(p0 - obs)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        speed = rng.uniform(0.01, 3.0)
        t = rng.uniform(1e-3, d / (2 * speed))
        exact, approx = path_length_change(obs, p0, v * speed, t)
        bound = (speed * t) ** 2 / (2 * d)
        assert abs(exact - approx) <= bound * (1 + 1e-9) + 1e-15


# ---------------------------------------------------------------------------
# Doppler shift
# ---------------------------------------------------------------------------


def test_doppler_shift_values(radio):
    # v.r = 1 m/s at 2.4 GHz: f_d = f_c / c
    fd = doppler_shift((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), radio)
    assert fd == pytest.approx(2.4e9 / SPEED_OF_LIGHT, rel=1e-6)
    assert fd == pytest.approx(8.00554, rel=1e-5)

    assert doppler_shift((0, 1, 0), (1, 0, 0), radio) == 0.0

    fd_neg = doppler_shift((-0.5, 0.0, 0.0), (1.0, 0.0, 0.0), radio)
    assert fd_neg == pytest.approx(-0.5 * 2.4e9 / SPEED_OF_LIGHT, rel=1e-6)
    assert fd_neg == pytest.approx(-4.00277, rel=1e-5)


def test_doppler_shift_requires_unit_direction(radio):
    with pytest.raises(ValueError):
        doppler_shift((1, 0, 0), (2, 0, 0), radio)


# ---------------------------------------------------------------------------
# von Mises-Fisher sampling
# ---------------------------------------------------------------------------


def test_vmf_uniform_sphere_has_no_mean_direction():
    samples = sample_vmf((0, 0, 1), 0.0, 100_000, rng=1)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-9)
    assert np.linalg.norm(samples.mean(axis=0)) < 0.02


def test_vmf_high_concentration_collapses_to_mean():
    m = np.array([1.0, 2.0, -1.0])
    m /= np.linalg.norm(m)
    samples = sample_vmf(m, 1e6, 5000, rng=2)
    angles = np.arccos(np.clip(samples @ m, -1, 1))
    assert np.max(angles) < 0.01


def test_vmf_mean_resultant_length_kappa_10():
    # closed form: E[r . m] = coth(kappa) - 1/kappa = 0.9000 at kappa = 10
    kappa = 10.0
    samples = sample_vmf((0.0, 1.0, 0.0), kappa, 200_000, rng=3)
    expected = 1.0 / np.tanh(kappa) - 1.0 / kappa
    assert expected == pytest.approx(0.9000, abs=1e-4)
    assert float(np.mean(samples @ np.array([0.0, 1.0, 0.0]))) == pytest.approx(expected, abs=0.01)


def test_vmf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_vmf((0, 0, 2), 1.0, 5, rng=0)
    with pytest.raises(ValueError):
        sample_vmf((0, 0, 1), -1.0, 5, rng=0)


# ---------------------------------------------------------------------------
# CSI synthesis
# ---------------------------------------------------------------------------


def _static_scene(radio, tau=0.0, gain=0.8 + 0.2j, noise=None, duration=0.5):
    return Scene(
        radio=radio,
        point_start=(1.0, 1.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.0, 0.0, 0.0)),
        duration_s=duration,
        frame_rate_hz=radio.sample_rate_hz,
        static_paths=((tau, gain),),
        noise=noise or NoiseParams(),
    )


def test_static_los_scene_constant_channel(radio):
    frame, _ = synthesize_csi(_static_scene(radio, tau=0.0), seed=0)
    expected = 0.8 + 0.2j
    assert np.allclose(frame.data, expected, atol=1e-12)


def test_single_cluster_bin_velocity_tone(radio):
    # one tight cluster at bin 3 moving at v.m = 1 m/s: the decomposed bin-3
    # series is a complex exponential at f_c/c Hz
    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    tau3 = 3.0 / (n * df)
    m = np.array([1.0, 0.0, 0.0])
    scene = Scene(
        radio=radio,
        point_start=(2.0, 0.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(1.0, 0.0, 0.0)),
        duration_s=2.0,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=m, concentration=1e6, n_scatterers=200, delay_s=tau3
            ),
        ),
    )
    frame, truth = synthesize_csi(scene, seed=5)
    assert np.allclose(truth.projected_velocity[0], 1.0)
    assert truth.cluster_delay_bins[0] == 3

    bins = decompose(frame, remove_static=False)[0]
    series = bins[3]
    # nearly all the energy lands in bin 3
    energy = np.abs(bins) ** 2
    assert energy[3].sum() > 0.99 * energy.sum()

    fd = 2.4e9 / SPEED_OF_LIGHT  # 8.00554 Hz
    dt = 1.0 / radio.sample_rate_hz
    measured = np.unwrap(np.angle(series * np.conj(series[0])))
    expected = 2.0 * np.pi * fd * np.arange(len(series)) * dt
    assert np.max(np.abs(measured - expected)) < 0.05


def test_sto_injection_is_linear_phase_in_subcarrier(radio):
    clean, _ = synthesize_csi(_static_scene(radio, tau=30e-9), seed=9)
    noisy, _ = synthesize_csi(
        _static_scene(radio, tau=30e-9, noise=NoiseParams(sto_walk_std_s=2e-9)), seed=9
    )
    ratio = noisy.data / clean.data  # pure phase factor exp(-j 2 pi rho (fc + n df))
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)
    phase = np.unwrap(np.angle(ratio[0]), axis=0)  # [N, T]
    for s in range(phase.shape[1]):
        col = phase[:, s]
        diffs = np.diff(col)
        assert np.allclose(diffs, diffs[0], atol=1e-9)  # linear in n per frame


def test_synthesis_is_deterministic(radio):
    scene = Scene(
        radio=radio,
        point_start=(1.0, 2.0, 1.0),
        trajectory=Trajectory(kind="gesture", gesture="circle"),
        duration_s=0.5,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=(0, 0, 1), concentration=50.0, n_scatterers=40, delay_s=1e-7
            ),
        ),
        noise=NoiseParams(sto_walk_std_s=1e-9, awgn_snr_db=20.0),
    )
    f1, _ = synthesize_csi(scene, seed=42)
    f2, _ = synthesize_csi(scene, seed=42)
    assert np.array_equal(f1.data, f2.data)
    f3, _ = synthesize_csi(scene, seed=43)
    assert not np.array_equal(f1.data, f3.data)


def test_awgn_energy_bookkeeping(radio):
    # adding AWGN at 0 dB raises total payload power by the expected noise
    # power within 5% over 100 frames
    base = Scene(
        radio=radio,
        point_start=(1.0, 1.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.2, 0.0, 0.0)),
        duration_s=1.0,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=(1, 0, 0), concentration=20.0, n_scatterers=50, delay_s=5e-8
            ),
        ),
        static_paths=((0.0, 1.0 + 0.0j),),
    )
    clean, _ = synthesize_csi(base, seed=21)
    noisy, _ = synthesize_csi(
        Scene.from_dict({**base.to_dict(), "noise": NoiseParams(awgn_snr_db=0.0).to_dict()}),
        seed=21,
    )
    p_clean = np.sum(np.abs(clean.data) ** 2)
    p_noisy = np.sum(np.abs(noisy.data) ** 2)
    expected_noise = np.mean(np.abs(clean.data) ** 2) * clean.data.size  # 0 dB: equal power
    assert (p_noisy - p_clean) / expected_noise == pytest.approx(1.0, abs=0.05)


def test_scene_rejects_out_of_range_delay(radio):
    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    too_late = (n - 0.5) / (n * df)
    with pytest.raises(ValueError):
        synthesize_csi(_static_scene(radio, tau=too_late), seed=0)


def test_scene_json_round_trip(radio):
    scene = Scene(
        radio=radio,
        point_start=(1.0, 2.0, 0.5),
        trajectory=Trajectory(kind="gesture", gesture="up_down", amplitude_m=0.1, period_s=0.8),
        duration_s=1.5,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=(0, 1, 0),
                concentration=100.0,
                n_scatterers=64,
                delay_s=2e-7,
                gain=0.5 - 0.1j,
            ),
        ),
        static_paths=((1e-8, 1.0 + 0.5j),),
        noise=NoiseParams(sto_walk_std_s=1e-9, sfo_ratio=1 + 2e-8, awgn_snr_db=25.0),
        n_streams=2,
    )
    back = Scene.from_json(scene.to_json())
    assert back.to_dict() == scene.to_dict()
    f1, _ = synthesize_csi(scene, seed=3)
    f2, _ = synthesize_csi(back, seed=3)
    assert np.array_equal(f1.data, f2.data)


def _codec_scenes():
    """A constant-velocity scene with every optional part set, and a gesture
    scene, each with the JSON text that the scene codec wrote before it
    became annotation-driven (whitespace collapsed, keys the scene no longer
    has dropped)."""
    radio = RadioConfig(carrier_hz=5.0e9, subcarrier_spacing_hz=312500.0, n_subcarriers=16, sample_rate_hz=200.0)
    constant = Scene(
        radio=radio,
        point_start=(1.0, 2.0, 0.5),
        trajectory=Trajectory(kind="constant_velocity", velocity=(0.25, -0.5, 0.125)),
        duration_s=0.5,
        frame_rate_hz=200.0,
        clusters=(
            ScatterCluster(
                mean_direction=(0.0, 1.0, 0.0), concentration=100.0, n_scatterers=16, delay_s=2e-7, gain=0.5 - 0.25j
            ),
            ScatterCluster(mean_direction=(0.6, 0.0, 0.8), concentration=0.0, n_scatterers=8, delay_s=0.0),
        ),
        static_paths=((0.0, 1.0 + 0.0j), (1e-7, -0.5 + 0.75j)),
        noise=NoiseParams(
            csd_delay_s=(0.0, 5e-8),
            sto_walk_std_s=1e-9,
            sfo_ratio=1.00000002,
            beamforming=((0.5, 0.25), (1.0, 0.0)),
            awgn_snr_db=25.0,
        ),
        n_streams=2,
    )
    constant_text = """{"clusters": [{"concentration": 100.0, "delay_s": 2e-07, "gain_im": -0.25,
    "gain_re": 0.5, "mean_direction": [0.0, 1.0, 0.0], "n_scatterers": 16}, {"concentration": 0.0,
    "delay_s": 0.0, "gain_im": 0.0, "gain_re": 1.0, "mean_direction": [0.6, 0.0, 0.8], "n_scatterers": 8}],
    "duration_s": 0.5, "frame_rate_hz": 200.0, "n_streams": 2, "noise": {"awgn_snr_db": 25.0,
    "beamforming": [[0.5, 0.25], [1.0, 0.0]], "csd_delay_s": [0.0, 5e-08], "sfo_ratio": 1.00000002,
    "sto_walk_std_s": 1e-09}, "point_start": [1.0, 2.0, 0.5], "radio": {"carrier_hz": 5000000000.0,
    "n_subcarriers": 16, "sample_rate_hz": 200.0, "subcarrier_spacing_hz": 312500.0},
    "static_paths": [{"delay_s": 0.0, "gain_im": 0.0, "gain_re": 1.0}, {"delay_s": 1e-07, "gain_im": 0.75,
    "gain_re": -0.5}], "trajectory": {"kind": "constant_velocity", "velocity": [0.25, -0.5, 0.125]}}"""
    gesture = Scene(
        radio=radio,
        point_start=(1.0, 1.5, 1.0),
        trajectory=Trajectory(
            kind="gesture",
            gesture="push_pull",
            amplitude_m=0.1,
            period_s=0.8,
            orientation_deg=30.0,
            phase_deg=45.0,
            active_start_s=0.1,
            active_duration_s=0.3,
        ),
        duration_s=0.5,
        frame_rate_hz=200.0,
        clusters=(ScatterCluster(mean_direction=(0.0, 0.0, 1.0), concentration=50.0, n_scatterers=12, delay_s=1e-7),),
        noise=NoiseParams(awgn_snr_db=30.0),
    )
    gesture_text = """{"clusters": [{"concentration": 50.0, "delay_s": 1e-07, "gain_im": 0.0, "gain_re": 1.0,
    "mean_direction": [0.0, 0.0, 1.0], "n_scatterers": 12}], "duration_s": 0.5, "frame_rate_hz": 200.0,
    "n_streams": 1, "noise": {"awgn_snr_db": 30.0, "beamforming": null, "csd_delay_s": [], "sfo_ratio": 1.0,
    "sto_walk_std_s": 0.0}, "point_start": [1.0, 1.5, 1.0], "radio": {"carrier_hz": 5000000000.0,
    "n_subcarriers": 16, "sample_rate_hz": 200.0, "subcarrier_spacing_hz": 312500.0},
    "static_paths": [], "trajectory": {"active_duration_s": 0.3,
    "active_start_s": 0.1, "amplitude_m": 0.1, "gesture": "push_pull", "kind": "gesture",
    "orientation_deg": 30.0, "period_s": 0.8, "phase_deg": 45.0}}"""
    return (constant, constant_text), (gesture, gesture_text)


def test_scene_files_of_the_hand_written_codec_still_load():
    for scene, text in _codec_scenes():
        loaded = Scene.from_json(text)
        assert loaded == scene
        # the codec now writes every field; the old keys keep their values
        old = json.loads(text)
        new = json.loads(scene.to_json())
        assert new["trajectory"].items() >= old["trajectory"].items()
        assert {k: v for k, v in new.items() if k != "trajectory"} == {
            k: v for k, v in old.items() if k != "trajectory"
        }
        f1, _ = synthesize_csi(scene, seed=4)
        f2, _ = synthesize_csi(loaded, seed=4)
        assert f1.data.tobytes() == f2.data.tobytes()


def test_scene_records_round_trip_through_json():
    (constant, _), (gesture, _) = _codec_scenes()
    records = [
        constant,
        gesture,
        constant.trajectory,
        gesture.trajectory,
        Trajectory(kind="gesture", gesture="circle"),
        constant.clusters[0],
        constant.radio,
        constant.noise,
        gesture.noise,  # beamforming None
        NoiseParams(beamforming=((2.0, -0.5),)),
    ]
    for record in records:
        back = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
        assert back == record, record
        assert back.to_json() == record.to_json()
    # a static path keeps its (delay, gain) tuple shape
    assert Scene.from_json(constant.to_json()).static_paths == ((0.0, 1.0 + 0.0j), (1e-7, -0.5 + 0.75j))


def test_scene_json_rejects_malformed_documents():
    (constant, _), _ = _codec_scenes()
    doc = json.loads(constant.to_json())
    cluster = doc["clusters"][0]
    # tests/test_cli.py runs the malformed scenes that crashed `moric simulate`
    bad = {
        "bool for float": ({**doc, "frame_rate_hz": True}, "bad scene.frame_rate_hz: expected a number"),
        "numeric string in a vector": (
            {**doc, "point_start": ["0", 0, 0]},
            "bad scene.point_start[0]: expected a number",
        ),
        "2-vector": ({**doc, "point_start": [1.0, 2.0]}, "bad scene.point_start: expected 3 items"),
        "static path without gain_im": (
            {**doc, "static_paths": [{"delay_s": 0.0, "gain_re": 1.0}]},
            "bad scene.static_paths[0]: missing keys ['gain_im']",
        ),
        "string gain": ({**doc, "clusters": [{**cluster, "gain_im": "0"}]}, "bad scene.clusters[0].gain_im"),
        "null noise": ({**doc, "noise": None}, "bad scene.noise: expected an object"),
        "rejected by the constructor": (
            {**doc, "trajectory": {"kind": "gesture", "gesture": "wave"}},
            "bad scene.trajectory: unknown gesture 'wave'",
        ),
    }
    for name, (value, message) in bad.items():
        with pytest.raises(ValueError) as exc:
            Scene.from_dict(value)
        assert message in str(exc.value), name
    # an absent key takes the field default, except where the field has none
    minimal = {k: doc[k] for k in ("radio", "point_start", "trajectory", "duration_s", "frame_rate_hz")}
    assert Scene.from_dict(minimal).noise == NoiseParams()
    assert Scene.from_dict({**doc, "clusters": [{k: v for k, v in cluster.items() if k != "gain_im"}]}).clusters[
        0
    ].gain == complex(cluster["gain_re"], 0.0)


def test_trajectory_speed_limit_enforced():
    with pytest.raises(ValueError):
        Trajectory(kind="constant_velocity", velocity=(4.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Trajectory(kind="gesture", gesture="circle", amplitude_m=1.0, period_s=1.0)


def test_gesture_trajectories_sample_consistently():
    traj = Trajectory(kind="gesture", gesture="left_right", amplitude_m=0.15, period_s=1.0)
    t = np.linspace(0, 2, 201)
    offsets, vels = traj.sample(t)
    # velocity is the derivative of the offset (finite-difference check)
    fd = np.gradient(offsets[:, 0], t)
    assert np.allclose(fd[2:-2], vels[2:-2, 0], atol=2e-3)
    assert np.max(np.linalg.norm(vels, axis=1)) <= 3.0
    # yaw rotation moves lateral motion into y
    rot = Trajectory(
        kind="gesture", gesture="left_right", amplitude_m=0.15, period_s=1.0, orientation_deg=90.0
    )
    off_rot, _ = rot.sample(t)
    assert np.allclose(off_rot[:, 1], offsets[:, 0], atol=1e-12)


def test_csd_injection_is_per_stream_linear_phase(radio):
    scene_dict = _static_scene(radio, tau=30e-9).to_dict()
    scene_dict["n_streams"] = 2
    clean, _ = synthesize_csi(Scene.from_dict(scene_dict), seed=13)
    scene_dict["noise"] = NoiseParams(csd_delay_s=(0.0, 200e-9)).to_dict()
    shifted, _ = synthesize_csi(Scene.from_dict(scene_dict), seed=13)
    # stream 0 has no CSD delay; stream 1 picks up a pure linear-in-n phase
    assert np.allclose(shifted.data[0], clean.data[0])
    ratio = shifted.data[1] / clean.data[1]
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-12)
    phase = np.unwrap(np.angle(ratio[:, 0]))
    diffs = np.diff(phase)
    assert np.allclose(diffs, diffs[0], atol=1e-9)
    df = radio.subcarrier_spacing_hz
    expected_step = -2 * np.pi * 200e-9 * df
    wrapped = (diffs[0] - expected_step + np.pi) % (2 * np.pi) - np.pi
    assert abs(wrapped) < 1e-9


def test_beamforming_scales_and_rotates(radio):
    base = _static_scene(radio, tau=30e-9)
    clean, _ = synthesize_csi(base, seed=14)
    noisy_dict = base.to_dict()
    noisy_dict["noise"] = NoiseParams(beamforming=((0.5, 0.25),)).to_dict()
    beamformed, _ = synthesize_csi(Scene.from_dict(noisy_dict), seed=14)
    expected = 0.5 * np.exp(-2j * np.pi * 0.25)
    assert np.allclose(beamformed.data, clean.data * expected, atol=1e-12)


def test_phase_derivative_recovers_projection_within_two_percent(radio):
    # single tight cluster at 40 dB SNR: the instantaneous phase slope of the
    # decomposed bin tracks v(s) . m within 2% relative error
    from moric.delay_doppler import decompose, estimate_velocity_phase

    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    m = np.array([0.6, 0.8, 0.0])
    scene = Scene(
        radio=radio,
        point_start=(2.0, 0.0, 1.0),
        trajectory=Trajectory(kind="constant_velocity", velocity=tuple(1.0 * m)),
        duration_s=2.0,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=(
            ScatterCluster(
                mean_direction=m, concentration=1e6, n_scatterers=200, delay_s=7 / (n * df)
            ),
        ),
        noise=NoiseParams(awgn_snr_db=40.0),
    )
    frame, truth = synthesize_csi(scene, seed=71)
    series = decompose(frame, remove_static=False)[0, 7]
    v = estimate_velocity_phase(series, radio)
    target = truth.projected_velocity[0]
    rel = np.abs(v[2:-2] - target[2:-2]) / np.abs(target[2:-2])
    assert np.max(rel) < 0.02
