"""Synthetic multipath CSI generator with known ground truth.

Models the channel as a sum of static paths plus scatter clusters whose
directions follow a von Mises-Fisher law on the unit sphere. A point moving
through the scene modulates each scatterer's phase through its Doppler shift;
the per-frame phase is accumulated by trapezoidal integration of the Doppler
frequency so that time-varying velocities are honored over long gestures.
Hardware impairments (CSD, STO, SFO, beamforming, AWGN) are injected as
multiplicative/additive terms on the clean channel.

A `Scene` and its parts are `JsonRecord`s: a scene file is their JSON form,
and a malformed one is a ValueError naming the bad key path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .core import SPEED_OF_LIGHT, CANONICAL_GESTURES, CsiFrame, JsonRecord, RadioConfig

MAX_POINT_SPEED = 3.0  # m/s, generous ceiling over indoor hand-motion speeds


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _vec3(x, name: str) -> Tuple[float, float, float]:
    """A checked 3-vector stored as a tuple, so records compare by value."""
    return tuple(_as_vec3(x, name).tolist())


def _yaw_matrix(deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Trajectory(JsonRecord):
    """Motion of the tracked point: constant velocity or a guided gesture.

    Gestures are sinusoidal displacements along a gesture-specific axis
    (circle sweeps two axes in quadrature), optionally yawed about z by
    `orientation_deg`. Axes before rotation: left_right = x, push_pull = y,
    up_down = z, circle = x/z plane. A gesture can be confined to an activity
    window (`active_start_s`, `active_duration_s`) with the point at rest
    outside it, mirroring guided-trial captures that embed the motion between
    rest segments; `phase_deg` shifts the oscillation phase while keeping the
    position continuous at the window start.
    """

    kind: str  # "constant_velocity" | "gesture"
    velocity: Optional[Tuple[float, float, float]] = None
    gesture: Optional[str] = None
    amplitude_m: float = 0.15
    period_s: float = 1.0
    orientation_deg: float = 0.0
    phase_deg: float = 0.0
    active_start_s: float = 0.0
    active_duration_s: Optional[float] = None

    def __post_init__(self):
        if self.kind == "constant_velocity":
            v = _vec3(self.velocity, "velocity")
            if np.linalg.norm(v) > MAX_POINT_SPEED:
                raise ValueError(f"speed {np.linalg.norm(v):.2f} m/s exceeds {MAX_POINT_SPEED}")
            object.__setattr__(self, "velocity", v)
        elif self.kind == "gesture":
            if self.gesture not in CANONICAL_GESTURES:
                raise ValueError(f"unknown gesture {self.gesture!r}")
            if not (self.amplitude_m > 0 and self.period_s > 0):
                raise ValueError("gesture amplitude and period must be positive")
            peak = 2.0 * np.pi * self.amplitude_m / self.period_s
            if peak > MAX_POINT_SPEED:
                raise ValueError(f"gesture peak speed {peak:.2f} m/s exceeds {MAX_POINT_SPEED}")
            if self.active_start_s < 0:
                raise ValueError("active_start_s must be >= 0")
            if self.active_duration_s is not None and self.active_duration_s <= 0:
                raise ValueError("active_duration_s must be positive")
        else:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    def sample(self, times: np.ndarray):
        """Return (offsets, velocities), each [T, 3], relative to the start point."""
        t = np.asarray(times, dtype=np.float64)
        if self.kind == "constant_velocity":
            v = np.asarray(self.velocity, dtype=np.float64)
            return np.outer(t, v), np.tile(v, (len(t), 1))
        w = 2.0 * np.pi / self.period_s
        a = self.amplitude_m
        phi = np.deg2rad(self.phase_deg)
        end = np.inf if self.active_duration_s is None else self.active_start_s + self.active_duration_s
        u = np.clip(t - self.active_start_s, 0.0, end - self.active_start_s)
        moving = (t >= self.active_start_s) & (t < end)
        offsets = np.zeros((len(t), 3))
        vels = np.zeros((len(t), 3))
        if self.gesture == "circle":
            offsets[:, 0] = a * (np.sin(w * u + phi) - np.sin(phi))
            offsets[:, 2] = a * (np.cos(phi) - np.cos(w * u + phi))
            vels[:, 0] = a * w * np.cos(w * u + phi) * moving
            vels[:, 2] = a * w * np.sin(w * u + phi) * moving
        else:
            axis = {"left_right": 0, "push_pull": 1, "up_down": 2}[self.gesture]
            offsets[:, axis] = a * (np.sin(w * u + phi) - np.sin(phi))
            vels[:, axis] = a * w * np.cos(w * u + phi) * moving
        rot = _yaw_matrix(self.orientation_deg)
        return offsets @ rot.T, vels @ rot.T


@dataclass(frozen=True)
class ScatterCluster(JsonRecord):
    """A von Mises-Fisher cluster of scatterers sharing one propagation delay."""

    mean_direction: Tuple[float, float, float]
    concentration: float
    n_scatterers: int
    delay_s: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        m = _as_vec3(self.mean_direction, "mean_direction")
        if abs(np.linalg.norm(m) - 1.0) > 1e-12:
            raise ValueError("mean_direction must be a unit vector (within 1e-12)")
        if not (self.concentration >= 0 and np.isfinite(self.concentration)):
            raise ValueError("concentration must be >= 0")
        if self.n_scatterers < 1:
            raise ValueError("need at least one scatterer")
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")
        object.__setattr__(self, "mean_direction", tuple(m.tolist()))
        object.__setattr__(self, "gain", complex(self.gain))


class StaticPath(NamedTuple):
    """A path of fixed delay and complex gain, such as the line of sight."""

    delay_s: float
    gain: complex


@dataclass(frozen=True)
class NoiseParams(JsonRecord):
    """Impairment model: per-stream CSD delay, STO random walk, SFO clock
    ratio, optional beamforming gain/phase, and AWGN level relative to the
    payload power."""

    csd_delay_s: Tuple[float, ...] = ()
    sto_walk_std_s: float = 0.0
    sfo_ratio: float = 1.0
    beamforming: Optional[Tuple[Tuple[float, float], ...]] = None  # per-stream (gain, phase_cycles)
    awgn_snr_db: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "csd_delay_s", tuple(float(x) for x in self.csd_delay_s))
        if not np.isfinite(self.sto_walk_std_s) or self.sto_walk_std_s < 0:
            raise ValueError("sto_walk_std_s must be finite and >= 0")
        if not np.isfinite(self.sfo_ratio) or self.sfo_ratio <= 0:
            raise ValueError("sfo_ratio must be finite and positive")
        if self.beamforming is not None:
            object.__setattr__(self, "beamforming", tuple((float(q), float(z)) for q, z in self.beamforming))
        if self.awgn_snr_db is not None and not (-10.0 <= self.awgn_snr_db <= 80.0):
            raise ValueError("awgn_snr_db must lie in [-10, 80] dB")


@dataclass(frozen=True)
class Scene(JsonRecord):
    """Full simulation description: point motion, clusters, static paths,
    impairments, radio configuration, and capture length. `to_json` writes
    every field; a scene file may omit any field with a default."""

    _json_name = "scene"

    radio: RadioConfig
    point_start: Tuple[float, float, float]
    trajectory: Trajectory
    duration_s: float
    frame_rate_hz: float
    clusters: Tuple[ScatterCluster, ...] = ()
    static_paths: Tuple[StaticPath, ...] = ()
    noise: NoiseParams = field(default_factory=NoiseParams)
    n_streams: int = 1

    def __post_init__(self):
        object.__setattr__(self, "point_start", _vec3(self.point_start, "point_start"))
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(
            self, "static_paths", tuple(StaticPath(float(d), complex(g)) for d, g in self.static_paths)
        )
        for name in ("duration_s", "frame_rate_hz"):
            if not (getattr(self, name) > 0 and np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if abs(self.frame_rate_hz - self.radio.sample_rate_hz) > 1e-9 * self.frame_rate_hz:
            raise ValueError("frame_rate_hz must match radio.sample_rate_hz")
        if self.n_streams < 1:
            raise ValueError("need at least one stream")

    @property
    def max_unambiguous_delay_s(self) -> float:
        n = self.radio.n_subcarriers
        return (n - 1) / (n * self.radio.subcarrier_spacing_hz)


@dataclass(frozen=True)
class GroundTruth:
    """Per-cluster truth emitted next to the synthetic CSI."""

    cluster_mean_directions: np.ndarray  # [cluster, 3]
    cluster_concentrations: np.ndarray
    cluster_delays_s: np.ndarray
    cluster_delay_bins: np.ndarray
    projected_velocity: np.ndarray  # [cluster, T] = v(s) . m_i


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def path_length_change(observer, p0, v, t: float):
    """Distance change between a fixed observer and a point moving at constant v.

    Returns (exact_m, approx_m): the exact Euclidean change and its
    small-displacement linearization (v . r / d) * t.
    """
    observer = _as_vec3(observer, "observer")
    p0 = _as_vec3(p0, "p0")
    v = _as_vec3(v, "v")
    r = p0 - observer
    d = np.linalg.norm(r)
    if d == 0.0:
        raise ValueError("observer coincides with the moving point")
    exact = np.linalg.norm(r + v * t) - d
    approx = float(np.dot(v, r) / d) * t
    return float(exact), float(approx)


class TotalPathChange(NamedTuple):
    delta_l_m: float
    delta_tau_s: float
    n_segments: int
    cos_theta_eq: float


def total_path_change(segment_dirs, v, t: float) -> TotalPathChange:
    """Linearized total path-length change over all segments incident at the point.

    `segment_dirs` are unit vectors from each fixed endpoint toward the point;
    each segment contributes (v . r_i) * t. Also reports the segment count and
    the equivalent observation cosine (mean of the per-segment cosines).
    """
    dirs = np.atleast_2d(np.asarray(segment_dirs, dtype=np.float64))
    if dirs.shape[0] < 1 or dirs.shape[1] != 3:
        raise ValueError("need at least one 3-vector segment direction")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("segment directions must be unit vectors")
    v = _as_vec3(v, "v")
    speed = np.linalg.norm(v)
    cosines = dirs @ v / speed if speed > 0 else np.zeros(len(dirs))
    total = float(np.sum(dirs @ v) * t)
    return TotalPathChange(
        delta_l_m=total,
        delta_tau_s=total / SPEED_OF_LIGHT,
        n_segments=len(dirs),
        cos_theta_eq=float(np.mean(cosines)),
    )


def doppler_shift(v, direction, radio: RadioConfig) -> float:
    """Doppler shift (Hz) of motion v projected on a unit direction:
    (f_c / c) * (v . r)."""
    v = _as_vec3(v, "v")
    r = _as_vec3(direction, "direction")
    if abs(np.linalg.norm(r) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return float(radio.carrier_hz / SPEED_OF_LIGHT * np.dot(v, r))


# ---------------------------------------------------------------------------
# von Mises-Fisher sampling
# ---------------------------------------------------------------------------


def sample_vmf(mean_direction, kappa: float, n: int, rng) -> np.ndarray:
    """Draw n unit 3-vectors from a von Mises-Fisher density on the sphere.

    Uses exact inverse-CDF sampling of the polar cosine (no rejection loop),
    rotated so the pole lands on `mean_direction`. kappa = 0 reduces to the
    uniform sphere. `rng` is an int seed or a numpy Generator.
    """
    m = _as_vec3(mean_direction, "mean_direction")
    norm = np.linalg.norm(m)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("mean_direction must be a unit vector")
    m = m / norm
    if kappa < 0 or not np.isfinite(kappa):
        raise ValueError("kappa must be finite and >= 0")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    u = rng.random(n)
    if kappa < 1e-12:
        w = 2.0 * u - 1.0
    else:
        # inverse CDF of the polar cosine: w = 1 + log(u + (1-u) e^{-2k}) / k
        inner = u + (1.0 - u) * np.exp(-2.0 * kappa)
        w = 1.0 + np.log(np.maximum(inner, np.finfo(np.float64).tiny)) / kappa
    w = np.clip(w, -1.0, 1.0)
    phi = 2.0 * np.pi * rng.random(n)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    # orthonormal frame (e1, e2, m)
    helper = np.array([1.0, 0.0, 0.0]) if abs(m[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(helper, m)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m, e1)
    out = (
        sin_theta[:, None] * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
        + w[:, None] * m
    )
    return out


# ---------------------------------------------------------------------------
# CSI synthesis
# ---------------------------------------------------------------------------


def _accumulated_phase(fd: np.ndarray, dt: float) -> np.ndarray:
    """2*pi * integral of the Doppler frequency, trapezoidal, phase(0) = 0.

    fd has shape [T, ...]; integration runs along the first axis.
    """
    steps = 0.5 * (fd[1:] + fd[:-1]) * dt
    phase = np.zeros_like(fd)
    np.cumsum(steps, axis=0, out=phase[1:])
    return 2.0 * np.pi * phase


def synthesize_csi(scene: Scene, seed: int):
    """Generate (CsiFrame, GroundTruth) for a scene.

    The clean channel is, per subcarrier n and frame s,
        H_n(s) = sum_i a_n(tau_i) * gain_i * mean_r exp(j phi_r(s))
               + sum_l a_n(tau_l) * beta_l,
    with a_n(tau) = exp(-j 2 pi (f_c + n df) tau) and phi_r the accumulated
    phase of scatterer r's Doppler shift. Impairment terms multiply in per
    stream, then AWGN is added at the configured SNR. Identical (scene, seed)
    pairs produce bitwise-identical output; the scatterer, STO, and AWGN
    random streams are independent children of the seed so that enabling one
    impairment never perturbs the draws of another.
    """
    radio = scene.radio
    n_sub = radio.n_subcarriers
    df = radio.subcarrier_spacing_hz
    fc = radio.carrier_hz
    t_frames = int(round(scene.duration_s * scene.frame_rate_hz))
    if t_frames < 2:
        raise ValueError("scene too short: need at least 2 frames")
    dt = 1.0 / scene.frame_rate_hz
    times = np.arange(t_frames) * dt

    max_delay = scene.max_unambiguous_delay_s
    for c in scene.clusters:
        if c.delay_s > max_delay:
            raise ValueError(f"cluster delay {c.delay_s} exceeds unambiguous range {max_delay}")
    for d, _ in scene.static_paths:
        if d > max_delay:
            raise ValueError(f"static path delay {d} exceeds unambiguous range {max_delay}")

    rng_scatter = np.random.default_rng([int(seed), 0x5CA7])
    rng_sto = np.random.default_rng([int(seed), 0x570])
    rng_awgn = np.random.default_rng([int(seed), 0xA3A3])

    _, velocities = scene.trajectory.sample(times)

    n_idx = np.arange(n_sub)

    def tone(delay_s: float) -> np.ndarray:
        return np.exp(-2j * np.pi * (fc + n_idx * df) * delay_s)

    base = np.zeros((n_sub, t_frames), dtype=np.complex128)
    projected = np.zeros((len(scene.clusters), t_frames))
    for i, cluster in enumerate(scene.clusters):
        dirs = sample_vmf(cluster.mean_direction, cluster.concentration, cluster.n_scatterers, rng_scatter)
        fd = (fc / SPEED_OF_LIGHT) * (velocities @ dirs.T)  # [T, R]
        phase = _accumulated_phase(fd, dt)
        motion = np.mean(np.exp(1j * phase), axis=1)  # [T]
        base += np.outer(tone(cluster.delay_s), cluster.gain * motion)
        projected[i] = velocities @ cluster.mean_direction
    for delay_s, gain in scene.static_paths:
        base += np.outer(tone(delay_s), np.full(t_frames, gain))

    noise = scene.noise
    data = np.empty((scene.n_streams, n_sub, t_frames), dtype=np.complex128)
    grid = fc + n_idx[:, None] * df  # [N, 1]
    for m in range(scene.n_streams):
        h = base.copy()
        if m < len(noise.csd_delay_s) and noise.csd_delay_s[m] != 0.0:
            h *= np.exp(-2j * np.pi * noise.csd_delay_s[m] * grid)
        if noise.sto_walk_std_s > 0:
            rho = np.cumsum(rng_sto.normal(0.0, noise.sto_walk_std_s, t_frames))
            h *= np.exp(-2j * np.pi * rho[None, :] * grid)
        if noise.sfo_ratio != 1.0:
            eta = times  # elapsed time acts as the accumulating offset
            h *= np.exp(-2j * np.pi * eta[None, :] * (noise.sfo_ratio - 1.0) * grid)
        if noise.beamforming is not None and m < len(noise.beamforming):
            q, zeta = noise.beamforming[m]
            h *= q * np.exp(-2j * np.pi * zeta)
        data[m] = h

    if noise.awgn_snr_db is not None:
        signal_power = float(np.mean(np.abs(data) ** 2))
        noise_power = signal_power / 10.0 ** (noise.awgn_snr_db / 10.0)
        scale = np.sqrt(noise_power / 2.0)
        data = data + scale * (
            rng_awgn.standard_normal(data.shape) + 1j * rng_awgn.standard_normal(data.shape)
        )

    truth = GroundTruth(
        cluster_mean_directions=np.array([c.mean_direction for c in scene.clusters]).reshape(-1, 3),
        cluster_concentrations=np.array([c.concentration for c in scene.clusters]),
        cluster_delays_s=np.array([c.delay_s for c in scene.clusters]),
        cluster_delay_bins=np.array(
            [int(round(c.delay_s * n_sub * df)) for c in scene.clusters], dtype=np.int64
        ),
        projected_velocity=projected,
    )
    return CsiFrame(config=radio, data=data), truth
