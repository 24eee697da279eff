import numpy as np
import pytest

from moric.core import RadioConfig


@pytest.fixture
def radio():
    """2.4 GHz, 52-tone, 100 Hz frame-rate configuration used across tests."""
    return RadioConfig(
        carrier_hz=2.4e9,
        subcarrier_spacing_hz=312.5e3,
        n_subcarriers=52,
        sample_rate_hz=100.0,
    )


def make_radio(n_subcarriers=52, sample_rate_hz=100.0):
    return RadioConfig(
        carrier_hz=2.4e9,
        subcarrier_spacing_hz=312.5e3,
        n_subcarriers=n_subcarriers,
        sample_rate_hz=sample_rate_hz,
    )


def random_frame(rng, n_streams=2, n_subcarriers=52, n_time=32, radio_kw=None):
    from moric.core import CsiFrame

    radio_kw = radio_kw or {}
    config = make_radio(n_subcarriers=n_subcarriers, **radio_kw)
    data = rng.normal(size=(n_streams, n_subcarriers, n_time)) + 1j * rng.normal(
        size=(n_streams, n_subcarriers, n_time)
    )
    return CsiFrame(config=config, data=data)


# periods sit well above the 0.64 s Doppler window so the PSD argmax tracks
# the instantaneous velocity; adjacent classes differ by >= 25% in rate
GESTURE_PERIODS = {"circle": 2.0, "left_right": 1.6, "up_down": 1.25, "push_pull": 1.0}


def make_gesture_scene(
    rng,
    gesture,
    radio,
    duration_s,
    n_clusters=2,
    period_jitter=0.0,
    awgn_snr_db=None,
    kappa_range=(300.0, 3000.0),
    easy=False,
):
    """Randomized-geometry scene for one gesture capture.

    Per-call randomness (cluster directions, delays, gains, gesture phase,
    orientation) models subject/trial variability; the gesture's oscillation
    period and active duration are the class-distinguishing traits. The first
    cluster is drawn near the gesture's peak-velocity direction so every
    sample carries at least one informative projection; the rest are uniform.
    `easy=True` narrows the nuisance randomness for trivially separable
    smoke-test corpora.
    """
    from moric.simulator import NoiseParams, ScatterCluster, Scene, Trajectory

    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    period = GESTURE_PERIODS[gesture] * (1.0 + period_jitter * rng.uniform(-1, 1))
    active = min(1.6 * period, duration_s * 0.7)
    start = 0.5 * (duration_s - active)
    if easy:
        orientation = float(rng.uniform(0, 45))
        phase = 0.0
        amplitude = 0.15
        align_noise = 0.1
        kappa_range = (3000.0, 10000.0)
    else:
        orientation = float(rng.uniform(0, 360))
        phase = float(rng.uniform(0, 360))
        amplitude = 0.15 * rng.uniform(0.85, 1.15)
        align_noise = 0.25
    trajectory = Trajectory(
        kind="gesture",
        gesture=gesture,
        amplitude_m=amplitude,
        period_s=period,
        orientation_deg=orientation,
        phase_deg=phase,
        active_start_s=start,
        active_duration_s=active,
    )
    times = np.arange(int(duration_s * radio.sample_rate_hz)) / radio.sample_rate_hz
    _, vels = trajectory.sample(times)
    speeds = np.linalg.norm(vels, axis=1)
    peak_dir = vels[np.argmax(speeds)] / speeds.max()

    bins = rng.choice(np.arange(2, n - 2), size=n_clusters, replace=False)
    clusters = []
    for i, b in enumerate(bins):
        if i == 0:
            direction = peak_dir + align_noise * rng.normal(size=3)
        else:
            direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phase = rng.uniform(0, 2 * np.pi)
        clusters.append(
            ScatterCluster(
                mean_direction=direction,
                concentration=float(rng.uniform(*kappa_range)),
                n_scatterers=48,
                delay_s=float(b) / (n * df),
                gain=complex(np.cos(phase), np.sin(phase)) * rng.uniform(0.6, 1.0),
            )
        )
    return Scene(
        radio=radio,
        point_start=(1.0 + rng.uniform(-0.3, 0.3), 1.5 + rng.uniform(-0.3, 0.3), 1.0),
        trajectory=trajectory,
        duration_s=duration_s,
        frame_rate_hz=radio.sample_rate_hz,
        clusters=tuple(clusters),
        static_paths=((0.0, 1.0 + 0.0j),),
        noise=NoiseParams(awgn_snr_db=awgn_snr_db),
    )


def write_synthetic_manifest(
    out_dir,
    subjects,
    gestures,
    samples_per_class,
    radio,
    duration_s=5.0,
    seed=0,
    awgn_snr_db=30.0,
    easy=False,
    n_clusters=2,
):
    """Simulate a labelled corpus of gesture captures and save a manifest."""
    from moric.core import CsiFrame, SampleMeta, write_csit
    from moric.harness import Manifest, ManifestEntry
    from moric.simulator import synthesize_csi

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for si, subject in enumerate(subjects):
        subject_rng = np.random.default_rng([seed, si])
        for gesture in gestures:
            for k in range(samples_per_class):
                scene = make_gesture_scene(
                    subject_rng,
                    gesture,
                    radio,
                    duration_s,
                    n_clusters=n_clusters,
                    awgn_snr_db=awgn_snr_db,
                    easy=easy,
                )
                sample_seed = int(subject_rng.integers(0, 2**31))
                frame, _ = synthesize_csi(scene, seed=sample_seed)
                sample_id = f"{subject}-{gesture}-{k}"
                meta = SampleMeta(
                    sample_id=sample_id,
                    subject=subject,
                    orientation_deg=180,
                    gesture=gesture,
                    access_point="sim",
                )
                frame = CsiFrame(config=frame.config, data=frame.data, meta=meta)
                path = out_dir / f"{sample_id}.csit"
                write_csit(frame, path)
                entries.append(ManifestEntry(path=path, meta=meta))
    manifest = Manifest(entries=tuple(entries))
    manifest_path = out_dir / "manifest.json"
    manifest.save(manifest_path)
    return manifest, manifest_path


def two_kernel_bank():
    """A 40-sample bank: an unpadded 9-tap kernel at dilation 2 and a padded
    7-tap kernel at dilation 3, two biases each."""
    from moric.features import Kernel, KernelBank

    rng = np.random.default_rng(4)
    kernels = tuple(
        Kernel(length=n, weights=rng.normal(size=n), biases=rng.uniform(-1, 1, 2), dilation=d, padded=p)
        for n, d, p in ((9, 2, False), (7, 3, True))
    )
    return KernelBank(seed=4, input_length=40, n_biases=2, kernels=kernels)


def bank_field_patches(raw: bytes, at: int):
    """Copies of `raw` with one field of the `two_kernel_bank` serialized at
    byte `at` set to a value a bank may not hold: {field: (bytes, message)},
    where `message`, if not None, is a pattern the FormatError must match."""
    import struct

    second = 24 + 9 + 9 * 8 + 2 * 8  # header of the second kernel record
    fields = {
        "input_length": (12, "<I", 16, "dilation 2 does not fit"),  # 8 * 2 >= 16
        # with no biases the records misparse, so any rejection will do
        "n_biases": (16, "<I", 0, None),
        "length": (24, "<I", 8, "kernel length 8"),
        "dilation": (28, "<I", 0, "dilation must be >= 1"),
        "padded": (32, "<B", 2, "bad padding flag 2"),
        "padded dilation": (second + 4, "<I", 7, "dilation 7 does not fit"),  # 6 * 7 >= 40
    }
    out = {}
    for name, (offset, fmt, value, message) in fields.items():
        pos = at + offset
        out[name] = (raw[:pos] + struct.pack(fmt, value) + raw[pos + struct.calcsize(fmt) :], message)
    return out


MORM_HEADER = "<4sIII"  # magic, version, f32 weight count, kernel bank bytes


def split_model(raw: bytes):
    """The parts of a MORM v4 file: (weight bytes, bank bytes, trailer document)."""
    import json
    import struct

    _, _, n_weights, n_bank = struct.unpack_from(MORM_HEADER, raw)
    start = struct.calcsize(MORM_HEADER)
    bank_at = start + 4 * n_weights
    trailer_at = bank_at + n_bank
    return raw[start:bank_at], raw[bank_at:trailer_at], json.loads(raw[trailer_at + 4 :])


def join_model(weights: bytes, bank: bytes, meta: dict, n_weights=None, n_bank=None, version=4) -> bytes:
    """A MORM file of the given parts; the header counts default to the parts' sizes."""
    import struct

    from moric.core import _json_trailer

    n_weights = len(weights) // 4 if n_weights is None else n_weights
    n_bank = len(bank) if n_bank is None else n_bank
    return struct.pack(MORM_HEADER, b"MORM", version, n_weights, n_bank) + weights + bank + _json_trailer(meta)
