"""CSI delay-Doppler decomposition and set-invariant activity classification."""

from .core import (
    CsiFrame,
    DopplerParams,
    FeatureSet,
    PipelineConfig,
    RadioConfig,
    SampleMeta,
    VelocitySet,
    read_csit,
    read_dvel,
    read_feat,
    write_csit,
    write_dvel,
    write_feat,
)
from .classifier import Calibration, MoricModel, TrainConfig, calibrate, forward, predict, train
from .delay_doppler import decompose, extract_velocity_set
from .features import KernelBank, build_bank
from .harness import Manifest, Report, run_calibration_sweep, run_loso
from .simulator import NoiseParams, ScatterCluster, Scene, Trajectory, synthesize_csi

__all__ = [
    "Calibration",
    "CsiFrame",
    "DopplerParams",
    "FeatureSet",
    "KernelBank",
    "Manifest",
    "MoricModel",
    "NoiseParams",
    "PipelineConfig",
    "RadioConfig",
    "Report",
    "SampleMeta",
    "ScatterCluster",
    "Scene",
    "TrainConfig",
    "Trajectory",
    "VelocitySet",
    "build_bank",
    "calibrate",
    "decompose",
    "extract_velocity_set",
    "forward",
    "predict",
    "read_csit",
    "read_dvel",
    "read_feat",
    "run_calibration_sweep",
    "run_loso",
    "synthesize_csi",
    "train",
    "write_csit",
    "write_dvel",
    "write_feat",
]
