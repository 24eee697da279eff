"""Shared domain types and the binary file formats that connect pipeline stages.

All on-disk formats are little-endian, use 32-bit floats for bulk payloads,
and carry headers that fully determine the payload length so a reader can
validate file size before parsing. In-memory computation is 64-bit.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

CANONICAL_GESTURES = ("circle", "left_right", "up_down", "push_pull")

CSIT_MAGIC = b"CSIT"
DVEL_MAGIC = b"DVEL"
FEAT_MAGIC = b"FEAT"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """An on-disk file violates its declared format (magic, version, size)."""


class ByteReader:
    """Sequential reader over a byte string that raises FormatError, naming
    `source`, instead of reading past the end."""

    def __init__(self, raw: bytes, source, pos: int = 0):
        self.raw = raw
        self.source = source
        self.pos = pos

    def take(self, n: int) -> bytes:
        if n > len(self.raw) - self.pos:
            raise FormatError(f"{self.source}: truncated at byte {self.pos} (need {n} more)")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """A writable copy of `count` items of `dtype`."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()


@contextmanager
def format_errors(source):
    """Re-raise a ValueError from the enclosed parse, such as a constructor
    rejecting a decoded field, as a FormatError naming `source`."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None


@dataclass(frozen=True)
class RadioConfig:
    """Static radio parameters of one capture: carrier, subcarrier grid, frame rate."""

    carrier_hz: float
    subcarrier_spacing_hz: float
    n_subcarriers: int
    sample_rate_hz: float

    def __post_init__(self):
        if not (self.carrier_hz > 0 and np.isfinite(self.carrier_hz)):
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if not (self.subcarrier_spacing_hz > 0 and np.isfinite(self.subcarrier_spacing_hz)):
            raise ValueError("subcarrier_spacing_hz must be positive")
        if self.n_subcarriers < 2:
            raise ValueError(f"need at least 2 subcarriers, got {self.n_subcarriers}")
        if not (self.sample_rate_hz > 0 and np.isfinite(self.sample_rate_hz)):
            raise ValueError("sample_rate_hz must be positive")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    def subcarrier_hz(self, n) -> float:
        """Absolute frequency of subcarrier n on the centered grid."""
        return self.carrier_hz - (np.asarray(n) - self.n_subcarriers / 2.0) * self.subcarrier_spacing_hz


@dataclass(frozen=True)
class SampleMeta:
    """Recording metadata attached to one CSI capture."""

    sample_id: str
    subject: str
    orientation_deg: int
    gesture: str
    access_point: str

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "subject": self.subject,
            "orientation_deg": self.orientation_deg,
            "gesture": self.gesture,
            "access_point": self.access_point,
        }

    @staticmethod
    def from_dict(d: dict) -> "SampleMeta":
        return SampleMeta(
            sample_id=str(d["sample_id"]),
            subject=str(d["subject"]),
            orientation_deg=int(d["orientation_deg"]),
            gesture=str(d["gesture"]),
            access_point=str(d["access_point"]),
        )


@dataclass(frozen=True)
class CsiFrame:
    """Complex CSI tensor [stream, subcarrier, time] plus its radio configuration.

    One stream is one transmit/receive antenna pair at one access point;
    concatenating access points is stream concatenation.
    """

    config: RadioConfig
    data: np.ndarray
    meta: Optional[SampleMeta] = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise ValueError(f"CSI tensor must be [stream, subcarrier, time], got shape {data.shape}")
        if data.shape[1] != self.config.n_subcarriers:
            raise ValueError(
                f"subcarrier axis {data.shape[1]} does not match config N={self.config.n_subcarriers}"
            )
        if data.shape[2] < 2:
            raise ValueError(f"need at least 2 time samples, got {data.shape[2]}")
        if not np.all(np.isfinite(data.view(np.float64))):
            raise ValueError("CSI tensor contains non-finite values")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n_streams(self) -> int:
        return self.data.shape[0]

    @property
    def n_time(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class VelocityVector:
    """One per-delay-bin Doppler velocity time series with its gating state."""

    values: np.ndarray
    delay_bin: int
    stream: int
    snr_db: float
    gated: bool

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("velocity values must be a 1-D series")
        if not np.all(np.isfinite(values)):
            raise ValueError("velocity values contain non-finite entries")
        if self.gated and np.any(values != 0.0):
            raise ValueError("gated velocity vector must be all zeros")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VelocitySet:
    """Multiset of per-delay-bin velocity series extracted from one capture.

    List order carries no semantic meaning; downstream classification must be
    invariant to it.
    """

    vectors: tuple
    n_time: int
    source: str = ""

    def __post_init__(self):
        vectors = tuple(self.vectors)
        for v in vectors:
            if len(v.values) != self.n_time:
                raise ValueError(
                    f"vector length {len(v.values)} does not match set length {self.n_time}"
                )
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class FeatureSet:
    """Fixed-dimension feature rows, one per velocity vector of a capture."""

    features: np.ndarray
    delay_bins: np.ndarray
    streams: np.ndarray
    gated: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature matrix must be [row, feature]")
        n = features.shape[0]
        bins = np.asarray(self.delay_bins, dtype=np.int64)
        streams = np.asarray(self.streams, dtype=np.int64)
        gated = np.asarray(self.gated, dtype=bool)
        if bins.shape != (n,) or streams.shape != (n,) or gated.shape != (n,):
            raise ValueError("per-row metadata must match the number of feature rows")
        for arr, name in ((features, "features"), (bins, "b"), (streams, "s"), (gated, "g")):
            arr.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "delay_bins", bins)
        object.__setattr__(self, "streams", streams)
        object.__setattr__(self, "gated", gated)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# CSIT format
# ---------------------------------------------------------------------------

_CSIT_HEADER = struct.Struct("<4sIIIIddd")


def write_csit(frame: CsiFrame, path) -> None:
    """Write a CsiFrame: CSIT magic, version, header, interleaved f32 payload,
    optional JSON metadata trailer."""
    data = frame.data
    s, n, t = data.shape
    payload = np.empty((s, n, t, 2), dtype="<f4")
    payload[..., 0] = data.real
    payload[..., 1] = data.imag
    if not np.all(np.isfinite(payload)):
        raise ValueError("CSI payload not representable as finite f32")
    header = _CSIT_HEADER.pack(
        CSIT_MAGIC,
        FORMAT_VERSION,
        s,
        n,
        t,
        frame.config.sample_rate_hz,
        frame.config.carrier_hz,
        frame.config.subcarrier_spacing_hz,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())
        if frame.meta is not None:
            blob = json.dumps(frame.meta.to_dict(), sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_csit(path) -> CsiFrame:
    """Inverse of write_csit. Raises FormatError on bad magic/version/truncation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CSIT_HEADER.size:
        raise FormatError(f"{path}: file shorter than CSIT header")
    magic, version, s, n, t, fs, fc, df = _CSIT_HEADER.unpack_from(raw, 0)
    if magic != CSIT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported CSIT version {version}")
    n_payload = s * n * t * 2
    offset = _CSIT_HEADER.size
    if len(raw) < offset + n_payload * 4:
        raise FormatError(f"{path}: truncated payload")
    flat = np.frombuffer(raw, dtype="<f4", count=n_payload, offset=offset)
    pairs = flat.reshape(s, n, t, 2).astype(np.float64)
    data = pairs[..., 0] + 1j * pairs[..., 1]
    meta = _read_json_trailer(raw, offset + n_payload * 4, path)
    config = RadioConfig(
        carrier_hz=fc, subcarrier_spacing_hz=df, n_subcarriers=n, sample_rate_hz=fs
    )
    return CsiFrame(
        config=config,
        data=data,
        meta=SampleMeta.from_dict(meta) if meta else None,
    )


def _read_json_trailer(raw: bytes, offset: int, path) -> Optional[dict]:
    if offset == len(raw):
        return None
    r = ByteReader(raw, path, pos=offset)
    (blob_len,) = r.unpack("<I")
    with format_errors(path):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        trailer = json.loads(r.take(blob_len).decode("utf-8"))
    if not isinstance(trailer, dict):
        raise FormatError(f"{path}: metadata trailer is not a JSON object")
    return trailer


# ---------------------------------------------------------------------------
# DVEL format
# ---------------------------------------------------------------------------

_DVEL_HEADER = struct.Struct("<4sIII")
_DVEL_VEC = struct.Struct("<IIfB")


def write_dvel(vs: VelocitySet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_DVEL_HEADER.pack(DVEL_MAGIC, FORMAT_VERSION, len(vs.vectors), vs.n_time))
        for v in vs.vectors:
            fh.write(_DVEL_VEC.pack(v.delay_bin, v.stream, v.snr_db, int(v.gated)))
            fh.write(np.asarray(v.values, dtype="<f4").tobytes())
        if vs.source:
            blob = json.dumps({"source": vs.source}, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_dvel(path) -> VelocitySet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DVEL_HEADER.size:
        raise FormatError(f"{path}: file shorter than DVEL header")
    magic, version, n_vectors, n_time = _DVEL_HEADER.unpack_from(raw, 0)
    if magic != DVEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported DVEL version {version}")
    offset = _DVEL_HEADER.size
    rec_size = _DVEL_VEC.size + 4 * n_time
    if len(raw) < offset + n_vectors * rec_size:
        raise FormatError(f"{path}: truncated payload")
    vectors = []
    for _ in range(n_vectors):
        delay_bin, stream, snr_db, gated = _DVEL_VEC.unpack_from(raw, offset)
        offset += _DVEL_VEC.size
        values = np.frombuffer(raw, dtype="<f4", count=n_time, offset=offset).astype(np.float64)
        offset += 4 * n_time
        vectors.append(
            VelocityVector(
                values=values,
                delay_bin=delay_bin,
                stream=stream,
                snr_db=float(snr_db),
                gated=bool(gated),
            )
        )
    trailer = _read_json_trailer(raw, offset, path)
    source = trailer.get("source", "") if trailer else ""
    return VelocitySet(vectors=tuple(vectors), n_time=n_time, source=source)


# ---------------------------------------------------------------------------
# FEAT format
# ---------------------------------------------------------------------------

_FEAT_HEADER = struct.Struct("<4sII")
_FEAT_ROW = struct.Struct("<IIB")


def write_feat(fs: FeatureSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_FEAT_HEADER.pack(FEAT_MAGIC, fs.n_rows, fs.dim))
        for i in range(fs.n_rows):
            fh.write(_FEAT_ROW.pack(int(fs.delay_bins[i]), int(fs.streams[i]), int(fs.gated[i])))
            fh.write(np.asarray(fs.features[i], dtype="<f4").tobytes())
        if fs.label is not None:
            blob = json.dumps({"label": fs.label}, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_feat(path) -> FeatureSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _FEAT_HEADER.size:
        raise FormatError(f"{path}: file shorter than FEAT header")
    magic, n_rows, dim = _FEAT_HEADER.unpack_from(raw, 0)
    if magic != FEAT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    offset = _FEAT_HEADER.size
    rec_size = _FEAT_ROW.size + 4 * dim
    if len(raw) < offset + n_rows * rec_size:
        raise FormatError(f"{path}: truncated payload")
    features = np.empty((n_rows, dim), dtype=np.float64)
    bins = np.empty(n_rows, dtype=np.int64)
    streams = np.empty(n_rows, dtype=np.int64)
    gated = np.empty(n_rows, dtype=bool)
    for i in range(n_rows):
        delay_bin, stream, g = _FEAT_ROW.unpack_from(raw, offset)
        offset += _FEAT_ROW.size
        features[i] = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset)
        offset += 4 * dim
        bins[i], streams[i], gated[i] = delay_bin, stream, bool(g)
    trailer = _read_json_trailer(raw, offset, path)
    label = trailer.get("label") if trailer else None
    return FeatureSet(features=features, delay_bins=bins, streams=streams, gated=gated, label=label)
