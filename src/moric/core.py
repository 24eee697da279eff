"""Shared domain types and the binary file formats that connect pipeline stages.

All on-disk formats are little-endian, use 32-bit floats for bulk payloads,
and carry headers that fully determine the payload length so a reader can
validate file size before parsing. In-memory computation is 64-bit. Every
binary file (CSIT, DVEL and the classifier's MORM) is framed the same
way and goes through `write_framed` and `read_framed`: a struct header that
opens with the 4-byte magic and a u32 version, the payload, then an optional
length-prefixed JSON trailer that must end the file.

Every record stored as JSON (sample metadata, pipeline config, manifest,
report, scene, file trailers) is a `JsonRecord`. Its codec maps float (a JSON int is accepted, a
bool never), int, str, Path (a string), Optional, tuples, List, Dict[str, X],
float64 np.ndarray and nested dataclass or NamedTuple records; a complex field
`x` is the two numbers `x_re` and `x_im`. An unknown key, a wrong JSON type or a
missing required key is a ValueError naming the key path. Only standard JSON
is read or written: a float is finite, so the NaN and Infinity tokens and a
number beyond the float range are of a wrong JSON type.
"""

from __future__ import annotations

import json
import struct
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

CANONICAL_GESTURES = ("circle", "left_right", "up_down", "push_pull")

CSIT_MAGIC = b"CSIT"
DVEL_MAGIC = b"DVEL"
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

    def array(self, dtype, count: int) -> np.ndarray:
        """A writable copy of `count` items of `dtype`."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()

    def trailer(self, record):
        """The optional `u32 length, UTF-8 JSON object` trailer, which must end
        the bytes, decoded as the JsonRecord type `record`; None if the bytes
        end first."""
        if self.pos == len(self.raw):
            return None
        (blob_len,) = self.unpack("<I")
        blob = self.take(blob_len)
        if self.pos != len(self.raw):
            raise FormatError(f"{self.source}: {len(self.raw) - self.pos} bytes after the trailer")
        with format_errors(self.source):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            return record.from_json(blob.decode("utf-8"))


def read_framed(path, header: struct.Struct, magic: bytes, version: int, name: Optional[str] = None):
    """A ByteReader over the file `path`, past its `header`, and the header
    fields after the magic and the version. Raises FormatError on a short
    header, a magic other than `magic` or a version other than `version`;
    `name` names the format in that message, its magic if None."""
    r = ByteReader(Path(path).read_bytes(), path)
    got_magic, got_version, *fields = r.unpack(header.format)
    if got_magic != magic:
        raise FormatError(f"{path}: bad magic {got_magic!r}")
    if got_version != version:
        raise FormatError(f"{path}: unsupported {name or magic.decode()} version {got_version}")
    return r, fields


def write_framed(path, header: bytes, payload: bytes, trailer: Optional[JsonRecord]) -> None:
    """Write the packed `header`, the payload and, unless it is None, the
    trailer record as a `u32 length, UTF-8 JSON object` trailer."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if trailer is not None:
            blob = json.dumps(trailer.to_dict(), sort_keys=True, allow_nan=False).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)) + blob)


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


class JsonRecord:
    """Base of the records stored as JSON (see the module docstring). An absent
    key takes the field's default unless the type sets `_require_all_keys`."""

    _json_name = None  # the root of error key paths; the class name if None
    _require_all_keys = False

    def to_dict(self) -> dict:
        return _encode(self, type(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, doc):
        return _decode(doc, cls, cls._json_name or cls.__name__)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@lru_cache(maxsize=None)
def _record_fields(cls) -> tuple:
    """A record's ((name, type, default), ...) and {JSON key: (type, default)},
    the default MISSING where the document must hold the key."""
    hints, strict = get_type_hints(cls), getattr(cls, "_require_all_keys", False)
    if is_dataclass(cls):  # decoded records share one default_factory() value; those are frozen
        pairs = [(f.name, f.default if f.default_factory is MISSING else f.default_factory()) for f in fields(cls)]
    else:
        pairs = [(name, cls._field_defaults.get(name, MISSING)) for name in cls._fields]
    specs = tuple((name, hints[name], MISSING if strict else default) for name, default in pairs)
    keys = {}
    for name, ftype, default in specs:
        if ftype is complex:  # stored as two numbers
            keys[f"{name}_re"] = (float, getattr(default, "real", MISSING))
            keys[f"{name}_im"] = (float, getattr(default, "imag", MISSING))
        else:
            keys[name] = (ftype, default)
    return specs, keys


def _item_types(tp, n: int) -> tuple:
    args = get_args(tp)  # of List[X], Tuple[X, ...] or a fixed-length tuple
    return args if get_origin(tp) is tuple and args[-1] is not Ellipsis else args[:1] * n


def _encode(value, tp):
    """The JSON value of `value`, whose annotation is `tp`."""
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]; records use no other union
        return None if value is None else _encode(value, get_args(tp)[0])
    if tp in (float, int, str):
        return tp(value)
    if tp is Path:
        return str(value)
    if tp is np.ndarray:
        return np.asarray(value, dtype=np.float64).tolist()
    if origin in (tuple, list):
        return [_encode(v, t) for v, t in zip(value, _item_types(tp, len(value)))]
    if origin is dict:
        return {k: _encode(v, get_args(tp)[1]) for k, v in value.items()}
    doc = {}
    for name, ftype, _ in _record_fields(tp)[0]:
        v = getattr(value, name)
        doc.update({f"{name}_re": v.real, f"{name}_im": v.imag} if ftype is complex else {name: _encode(v, ftype)})
    return doc


def _decode(value, tp, path: str):
    """The value of annotation `tp` that the JSON value at key path `path` holds."""
    origin = get_origin(tp)
    if (tp is float and type(value) is float and np.isfinite(value)) or (tp in (int, str) and type(value) is tp):
        return value
    if tp is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)  # a larger integer would raise OverflowError
    if tp is Path and type(value) is str:
        return Path(value)
    if origin is Union:
        return None if value is None else _decode(value, get_args(tp)[0], path)
    if type(value) is list and tp is np.ndarray:
        rows = [_decode(v, np.ndarray if type(v) is list else float, f"{path}[{i}]") for i, v in enumerate(value)]
        try:
            return np.array(rows, dtype=np.float64)
        except ValueError:  # numpy rejects a ragged nesting
            raise ValueError(f"bad {path}: a ragged array") from None
    if type(value) is list and origin in (tuple, list):
        types = _item_types(tp, len(value))
        if len(types) != len(value):
            raise ValueError(f"bad {path}: expected {len(types)} items, got {len(value)}")
        return origin(_decode(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, types)))
    if type(value) is dict and origin is dict:
        return {k: _decode(v, get_args(tp)[1], f"{path}.{k}") for k, v in value.items()}
    if type(value) is dict and (is_dataclass(tp) or hasattr(tp, "_fields")):
        return _decode_record(value, tp, path)
    names = {float: "a number", int: "an integer", str: "a string", Path: "a string"}
    want = names.get(tp, "a list" if origin in (tuple, list) or tp is np.ndarray else "an object")
    raise ValueError(f"bad {path}: expected {want}, got {value!r}")


def _decode_record(doc: dict, cls, path: str):
    specs, keys = _record_fields(cls)
    unknown = sorted(doc.keys() - keys.keys())
    missing = sorted(k for k, (_, default) in keys.items() if default is MISSING and k not in doc)
    if unknown or missing:
        problems = [f"{what} keys {ks}" for what, ks in (("unknown", unknown), ("missing", missing)) if ks]
        raise ValueError(f"bad {path}: " + ", ".join(problems))
    values = {k: _decode(doc[k], t, f"{path}.{k}") if k in doc else d for k, (t, d) in keys.items()}
    for name, ftype, _ in specs:
        if ftype is complex:
            values[name] = complex(values.pop(f"{name}_re"), values.pop(f"{name}_im"))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"bad {path}: {exc}") from None


@dataclass(frozen=True)
class RadioConfig(JsonRecord):
    """Static radio parameters of one capture: carrier, subcarrier grid, frame rate."""

    carrier_hz: float
    subcarrier_spacing_hz: float
    n_subcarriers: int
    sample_rate_hz: float

    def __post_init__(self):
        for name in ("carrier_hz", "subcarrier_spacing_hz", "sample_rate_hz"):
            if not (getattr(self, name) > 0 and np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_subcarriers < 2:
            raise ValueError(f"need at least 2 subcarriers, got {self.n_subcarriers}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz


@dataclass(frozen=True)
class DopplerParams(JsonRecord):
    """Sliding-window Doppler estimation parameters; the window is Hann.
    Captures should satisfy T >= ~5x window_len, so that the SNR gate's
    static edges span several window estimates."""

    _require_all_keys = True

    window_len: int = field(default=64, metadata={"flag": "--window", "help": "Doppler window length in frames"})
    hop: int = field(default=4, metadata={"flag": "--hop", "help": "Doppler window hop in frames"})
    fft_pad: int = field(default=512, metadata={"flag": "--pad", "help": "FFT length for the PSD"})

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.fft_pad < self.window_len:
            raise ValueError("fft_pad must be >= window_len")


@dataclass(frozen=True)
class PipelineConfig(JsonRecord):
    """Knobs for the CSI -> features part of the pipeline. A trained model
    carries its own, so inference featurizes as training did; its JSON form
    must therefore hold every key."""

    _json_name = "pipeline"
    _require_all_keys = True

    doppler: DopplerParams = field(default_factory=DopplerParams)
    snr_threshold_db: float = field(default=2.0, metadata={"flag": "--snr-db", "help": "SNR gate in dB"})
    kernel_seed: int = field(default=42, metadata={"flag": "--kernel-seed", "help": "kernel bank seed"})
    n_kernels: int = field(default=250, metadata={"flag": "--kernels", "help": "number of random kernels"})
    n_biases: int = field(default=3, metadata={"flag": "--biases", "help": "PPV biases per kernel"})

    def __post_init__(self):
        if not np.isfinite(self.snr_threshold_db):
            raise ValueError(f"snr_threshold_db must be finite, got {self.snr_threshold_db}")
        if self.kernel_seed < 0:
            raise ValueError(f"kernel_seed must be >= 0, got {self.kernel_seed}")


@dataclass(frozen=True)
class SampleMeta(JsonRecord):
    """Recording metadata attached to one CSI capture."""

    _json_name = "sample metadata"

    sample_id: str
    subject: str
    orientation_deg: int
    gesture: str
    access_point: str


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
        if data.shape[0] < 1:
            raise ValueError("need at least one stream")
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


def _frozen_rows(obj, n: int, **dtypes) -> None:
    """Cast the named per-row fields of a frozen dataclass to read-only 1-D
    arrays of `n` entries of the given dtypes and store them back."""
    for name, dtype in dtypes.items():
        arr = np.asarray(getattr(obj, name), dtype=dtype)
        if arr.shape != (n,):
            raise ValueError(f"{name}: per-row metadata must have one entry per row ({n})")
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class VelocitySet:
    """Multiset of per-delay-bin velocity series extracted from one capture:
    `values` [row, time], one row per (stream, delay bin), with each row's
    metadata and gating state.

    Row order carries no semantic meaning; downstream classification must be
    invariant to it. Gated rows are all zero.
    """

    values: np.ndarray
    delay_bins: np.ndarray
    streams: np.ndarray
    snr_db: np.ndarray
    gated: np.ndarray
    source: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("velocity values must be [row, time]")
        if not np.all(np.isfinite(values)):
            raise ValueError("velocity values contain non-finite entries")
        _frozen_rows(
            self, values.shape[0], delay_bins=np.int64, streams=np.int64, snr_db=np.float64, gated=bool
        )
        if not np.all(np.isfinite(self.snr_db)):
            raise ValueError("velocity SNRs contain non-finite entries")
        if np.any(values[self.gated] != 0.0):
            raise ValueError("gated velocity rows must be all zeros")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_time(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureSet:
    """Fixed-dimension feature rows, one per velocity row of a capture."""

    features: np.ndarray
    delay_bins: np.ndarray
    streams: np.ndarray
    gated: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature matrix must be [row, feature]")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite entries")
        _frozen_rows(self, features.shape[0], delay_bins=np.int64, streams=np.int64, gated=bool)
        features.flags.writeable = False
        object.__setattr__(self, "features", features)

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
    write_framed(path, header, payload.tobytes(), frame.meta)


def read_csit(path) -> CsiFrame:
    """Inverse of write_csit. Raises FormatError on bad magic/version/truncation
    and on a header, payload or metadata trailer the constructors reject."""
    r, (s, n, t, fs, fc, df) = read_framed(path, _CSIT_HEADER, CSIT_MAGIC, FORMAT_VERSION)
    with np.errstate(invalid="ignore"):  # a signaling NaN casts to a quiet one, which CsiFrame rejects
        pairs = r.array("<f4", s * n * t * 2).reshape(s, n, t, 2).astype(np.float64)
    meta = r.trailer(SampleMeta)
    with format_errors(path):
        config = RadioConfig(
            carrier_hz=fc, subcarrier_spacing_hz=df, n_subcarriers=n, sample_rate_hz=fs
        )
        return CsiFrame(config=config, data=pairs[..., 0] + 1j * pairs[..., 1], meta=meta)


# ---------------------------------------------------------------------------
# DVEL format
# ---------------------------------------------------------------------------
# A header (magic, u32 version, u32 rows, u32 length T) followed by one packed
# record per row, whose last field holds the T f32 values, then the optional
# JSON trailer holding the source sample id.

_DVEL_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class _DvelTrailer(JsonRecord):
    _json_name = "DVEL trailer"
    source: str


def _dvel_record(n_time: int) -> np.dtype:
    return np.dtype(
        [("bin", "<u4"), ("stream", "<u4"), ("snr", "<f4"), ("gated", "u1"), ("values", "<f4", (n_time,))]
    )


def write_dvel(vs: VelocitySet, path) -> None:
    """Write a VelocitySet: DVEL header, one packed record per row, and the
    source sample id as the trailer unless it is empty."""
    records = np.empty(len(vs), dtype=_dvel_record(vs.n_time))
    for name, column in zip(records.dtype.names, (vs.delay_bins, vs.streams, vs.snr_db, vs.gated, vs.values)):
        records[name] = column
    header = _DVEL_HEADER.pack(DVEL_MAGIC, FORMAT_VERSION, len(vs), vs.n_time)
    write_framed(path, header, records.tobytes(), _DvelTrailer(vs.source) if vs.source else None)


def read_dvel(path) -> VelocitySet:
    """Inverse of write_dvel. Raises FormatError on bad magic/version/truncation,
    a gated flag other than 0/1, a trailer other than {"source": <string>} and
    rows the VelocitySet constructor rejects."""
    r, (rows, n_time) = read_framed(path, _DVEL_HEADER, DVEL_MAGIC, FORMAT_VERSION)
    with format_errors(path):  # numpy rejects a record wider than 2 GiB
        dtype = _dvel_record(n_time)
    records = r.array(dtype, rows)
    bad = np.flatnonzero(records["gated"] > 1)
    if bad.size:
        raise FormatError(f"{path}: gated flag other than 0/1 in row {bad[0]}")
    trailer = r.trailer(_DvelTrailer)
    with format_errors(path), np.errstate(invalid="ignore"):  # VelocitySet rejects a signaling NaN as quiet
        return VelocitySet(
            values=records["values"],
            delay_bins=records["bin"],
            streams=records["stream"],
            snr_db=records["snr"],
            gated=records["gated"],
            source=trailer.source if trailer else "",
        )
