"""Seeded synthetic gesture corpora for the benchmark.

Scenes are built with `moric.simulator` directly, so the benchmark's inputs
depend only on the workload seed and the simulator, never on the test suite.
Each capture is one gesture performed by one subject: the gesture's
oscillation period is the class trait, while the period jitter, orientation,
amplitude, start point, cluster geometry and the simulator's own noise vary
per capture.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from moric import core, simulator
from moric.core import CsiFrame, RadioConfig, SampleMeta
from moric.harness import Manifest, ManifestEntry
from moric.simulator import NoiseParams, ScatterCluster, Scene, Trajectory

GESTURES = ("circle", "left_right", "up_down", "push_pull")
# seconds per oscillation; neighbouring classes differ by ~40 %, and every
# period is longer than the 0.64 s Doppler window
GESTURE_PERIODS = {"circle": 2.0, "left_right": 1.4, "up_down": 1.0, "push_pull": 0.7}
FRAME_RATE_HZ = 100.0
CARRIER_HZ = 2.4e9
SPACING_HZ = 312.5e3
# per-stream cyclic shift delays of a 3-antenna transmitter (802.11n values)
CSD_DELAYS_S = (0.0, -200e-9, -100e-9)
STO_WALK_STD_S = 2e-9
SFO_RATIO = 1.0 + 2e-8
AWGN_SNR_DB = 30.0


@dataclass(frozen=True)
class CaptureShape:
    """Size of one capture and whether hardware impairments are injected."""

    n_streams: int
    n_subcarriers: int
    n_frames: int
    impaired: bool

    @property
    def duration_s(self) -> float:
        return self.n_frames / FRAME_RATE_HZ

    def radio(self) -> RadioConfig:
        return RadioConfig(
            carrier_hz=CARRIER_HZ,
            subcarrier_spacing_hz=SPACING_HZ,
            n_subcarriers=self.n_subcarriers,
            sample_rate_hz=FRAME_RATE_HZ,
        )

    def noise(self) -> NoiseParams:
        if not self.impaired:
            return NoiseParams(awgn_snr_db=AWGN_SNR_DB)
        return NoiseParams(
            csd_delay_s=CSD_DELAYS_S[: self.n_streams],
            sto_walk_std_s=STO_WALK_STD_S,
            sfo_ratio=SFO_RATIO,
            awgn_snr_db=AWGN_SNR_DB,
        )


def gesture_scene(rng: np.random.Generator, gesture: str, shape: CaptureShape) -> Scene:
    """One randomized capture of `gesture`; every draw comes from `rng`."""
    radio = shape.radio()
    duration = shape.duration_s
    period = GESTURE_PERIODS[gesture] * (1.0 + 0.05 * rng.uniform(-1, 1))
    active = 0.7 * duration
    trajectory = Trajectory(
        kind="gesture",
        gesture=gesture,
        amplitude_m=0.15 * rng.uniform(0.9, 1.1),
        period_s=period,
        orientation_deg=float(rng.uniform(0, 30)),
        phase_deg=0.0,
        active_start_s=0.5 * (duration - active),
        active_duration_s=active,
    )
    # one scatter cluster, on a random delay bin, lies near the direction of
    # peak hand speed, so every capture carries an informative bin
    _, vels = trajectory.sample(np.arange(shape.n_frames) / FRAME_RATE_HZ)
    speeds = np.linalg.norm(vels, axis=1)
    peak_dir = vels[np.argmax(speeds)] / speeds.max()
    n, df = radio.n_subcarriers, radio.subcarrier_spacing_hz
    direction = peak_dir + 0.1 * rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    angle = rng.uniform(0, 2 * np.pi)
    cluster = ScatterCluster(
        mean_direction=direction,
        concentration=float(rng.uniform(3000.0, 10000.0)),
        n_scatterers=48,
        delay_s=float(rng.integers(2, n - 2)) / (n * df),
        gain=complex(np.cos(angle), np.sin(angle)) * rng.uniform(0.6, 1.0),
    )
    return Scene(
        radio=radio,
        point_start=(1.0 + rng.uniform(-0.3, 0.3), 1.5 + rng.uniform(-0.3, 0.3), 1.0),
        trajectory=trajectory,
        duration_s=duration,
        frame_rate_hz=FRAME_RATE_HZ,
        clusters=(cluster,),
        static_paths=((0.0, 1.0 + 0.0j),),
        noise=shape.noise(),
        n_streams=shape.n_streams,
    )


def write_corpus(
    out_dir: Path,
    shape: CaptureShape,
    subjects: Sequence[Tuple[str, int]],
    seed: int,
) -> Manifest:
    """Simulate captures for `(subject, captures per gesture)` pairs, write
    each as a CSIT file under `out_dir`, and return their manifest.

    Each subject draws from its own generator, seeded by the workload seed and
    the subject's name, so no subject's captures depend on another's.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: List[ManifestEntry] = []
    for subject, per_class in subjects:
        rng = np.random.default_rng([seed, zlib.crc32(subject.encode())])
        for gesture in GESTURES:
            for k in range(per_class):
                scene = gesture_scene(rng, gesture, shape)
                frame, _ = simulator.synthesize_csi(scene, seed=int(rng.integers(0, 2**31)))
                meta = SampleMeta(
                    sample_id=f"{subject}-{gesture}-{k}",
                    subject=subject,
                    orientation_deg=0,
                    gesture=gesture,
                    access_point="sim",
                )
                path = out_dir / f"{meta.sample_id}.csit"
                core.write_csit(CsiFrame(config=frame.config, data=frame.data, meta=meta), path)
                entries.append(ManifestEntry(path=path, meta=meta))
    return Manifest(entries=tuple(entries))
