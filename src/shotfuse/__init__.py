"""Shot detection for racquet sports from fused wrist-worn microphone and IMU data."""

from .audio import (
    FilterModel,
    PcmAudio,
    apf,
    audio_likelihood,
    detect_audio,
    short_time_energy,
)
from .events import EvalReport, LabelSet, dedup, evaluate
from .forest import ForestModel, classify, train_forest
from .fusion import (
    SyncedSeries,
    audio_only_events,
    detect_shots,
    extract_features,
    select_candidates,
)
from .imu import ImuComponents, ImuStream, decompose, ipf, lowpass, prepare_components
from .series import SampleSeries, cross_correlate, triangle_smooth
from .sync import (
    OffsetEstimate,
    estimate_offset,
    quantize,
    self_calibrate_quantizer,
    validate_offset,
)
from .synth import SynthConfig, synthesize
from .training import TrainConfig, train_filter, window_table

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FilterModel",
    "ForestModel",
    "ImuComponents",
    "ImuStream",
    "LabelSet",
    "OffsetEstimate",
    "PcmAudio",
    "SampleSeries",
    "SynthConfig",
    "SyncedSeries",
    "TrainConfig",
    "apf",
    "audio_likelihood",
    "audio_only_events",
    "classify",
    "cross_correlate",
    "decompose",
    "dedup",
    "detect_audio",
    "detect_shots",
    "estimate_offset",
    "evaluate",
    "extract_features",
    "ipf",
    "lowpass",
    "prepare_components",
    "quantize",
    "select_candidates",
    "self_calibrate_quantizer",
    "short_time_energy",
    "synthesize",
    "train_filter",
    "train_forest",
    "triangle_smooth",
    "validate_offset",
    "window_table",
]
