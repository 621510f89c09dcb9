"""Fused detection: IPF candidates, neighborhood features, forest decision.

Candidate points are strict local maxima of the motion likelihood within a
500 ms neighborhood. Each candidate is described by the maxima of five
synchronized series in that neighborhood and handed to the forest; runs of
consecutive positives collapse to their first event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioConfig, FilterModel, detect_audio
from .audio import audio_likelihood  # noqa: F401 -- still bound here for tools that wrap it
from .events import ShotEvent, dedup
from .forest import ForestModel, classify
from .imu import ImuComponents, ImuStream, ipf, prepare_components
from .series import SampleSeries
from .sync import OffsetEstimate

__all__ = [
    "FEATURE_NAMES",
    "NEIGHBORHOOD_MS",
    "Candidate",
    "SyncedSeries",
    "select_candidates",
    "extract_features",
    "detect_shots",
    "audio_only_events",
    "imu_only_events",
]

#: Fixed feature order of the fusion classifier.
FEATURE_NAMES = ("apf_max", "ipf_max", "a_rad_max", "a_tan_max", "w_rad_max")
#: Total width of the candidate / feature neighborhood.
NEIGHBORHOOD_MS = 500.0


@dataclass(frozen=True, eq=False)
class Candidate:
    """A candidate shot: center time plus the 5 neighborhood-max features."""

    time_ms: float
    features: np.ndarray

    def __post_init__(self):
        arr = np.array(self.features, dtype=float)
        if arr.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features")
        if not np.all(np.isfinite(arr)):
            raise ValueError("features must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "features", arr)


@dataclass(frozen=True, eq=False)
class SyncedSeries:
    """One run's five fusion series on the audio clock, with the sync verdict.

    Build it with :meth:`align`, which moves the IMU-derived series onto
    the audio clock.
    """

    apf: SampleSeries
    ipf: SampleSeries
    a_rad: SampleSeries
    a_tan: SampleSeries
    w_rad: SampleSeries
    offset: OffsetEstimate
    validated: bool

    @classmethod
    def align(
        cls,
        apf: SampleSeries,
        imu_ipf: SampleSeries,
        comps: ImuComponents,
        offset: OffsetEstimate,
        validated: bool,
    ) -> "SyncedSeries":
        """Shift the IMU-clock series by -offset (IMU minus audio time)."""
        shift = -offset.offset_ms
        return cls(
            apf,
            imu_ipf.shifted(shift),
            comps.a_rad.shifted(shift),
            comps.a_tan.shifted(shift),
            comps.w_rad.shifted(shift),
            offset,
            validated,
        )

    @property
    def feature_series(self) -> tuple[SampleSeries, ...]:
        """The five series in FEATURE_NAMES order."""
        return (self.apf, self.ipf, self.a_rad, self.a_tan, self.w_rad)

    def sync_report(self) -> dict:
        """The sync.json payload."""
        return {
            "offset_ms": self.offset.offset_ms,
            "peak_correlation": self.offset.peak_correlation,
            "validated": self.validated,
            "window_seconds": self.offset.window_seconds,
        }


def select_candidates(ipf_series: SampleSeries, window_ms: float = NEIGHBORHOOD_MS) -> np.ndarray:
    """Timestamps of samples strictly greater than all others within +/-window_ms/2.

    Windows truncate at the stream edges; plateaus and exact ties yield no
    candidate. Returned in time order.
    """
    v = ipf_series.values
    n = v.size
    if n == 0:
        return np.empty(0)
    half = int(round((window_ms / 2.0) / ipf_series.period_ms))
    if half < 1:
        return ipf_series.times()
    padded = np.full(n + 2 * half, -np.inf)
    padded[half : half + n] = v
    windows = sliding_window_view(padded, 2 * half + 1)
    peak_idx = np.flatnonzero(v >= windows.max(axis=1))
    # Enforce strictness: the center must be the only occurrence of the max.
    strict = [i for i in peak_idx if np.count_nonzero(windows[i] == v[i]) == 1]
    return ipf_series.start_time + np.array(strict, dtype=float) * ipf_series.period_ms


def _window_max(series: SampleSeries, t0: float, t1: float) -> float:
    eps = 1e-9
    i0 = int(np.ceil((t0 - series.start_time) / series.period_ms - eps))
    i1 = int(np.floor((t1 - series.start_time) / series.period_ms + eps)) + 1
    i0 = max(i0, 0)
    i1 = min(i1, len(series))
    if i0 >= i1:
        # Window misses the series entirely; fall back to the nearest sample.
        k = min(max(series.index_at((t0 + t1) / 2.0), 0), len(series) - 1)
        return float(series.values[k])
    return float(series.values[i0:i1].max())


def extract_features(
    t: float,
    apf: SampleSeries,
    ipf_series: SampleSeries,
    a_rad: SampleSeries,
    a_tan: SampleSeries,
    w_rad: SampleSeries,
    neighborhood_ms: float = NEIGHBORHOOD_MS,
) -> Candidate:
    """Neighborhood maxima of the five series around a candidate time.

    All series must already sit on the common clock. Partial windows at the
    stream edges use whatever samples are available.
    """
    series = (apf, ipf_series, a_rad, a_tan, w_rad)
    if all(t < s.start_time or t >= s.end_time for s in series):
        raise ValueError("candidate out of range")
    half = neighborhood_ms / 2.0
    feats = [_window_max(s, t - half, t + half) for s in series]
    return Candidate(float(t), np.array(feats))


def detect_shots(
    synced: SyncedSeries,
    forest_model: ForestModel,
    neighborhood_ms: float = NEIGHBORHOOD_MS,
) -> list[ShotEvent]:
    """Full fused pipeline on synchronized streams.

    Candidates come from the motion likelihood, features from both
    modalities, decisions from the forest, and consecutive positives are
    deduplicated. Deterministic end to end; every emitted timestamp is a
    candidate timestamp.
    """
    hits = []
    for t in select_candidates(synced.ipf, neighborhood_ms):
        candidate = extract_features(t, *synced.feature_series, neighborhood_ms)
        label, score = classify(forest_model, candidate)
        if label == 1:
            hits.append(ShotEvent(float(t), score))
    return dedup(hits, neighborhood_ms)


def audio_only_events(
    audio: SampleSeries,
    filter_model: FilterModel,
    audio_cfg: AudioConfig = AudioConfig(),
    dedup_window_ms: float = NEIGHBORHOOD_MS,
) -> list[ShotEvent]:
    """Single-modality baseline: biased likelihood threshold plus dedup."""
    return dedup(detect_audio(audio, filter_model, audio_cfg), dedup_window_ms)


def imu_only_events(
    imu: ImuStream,
    threshold: float,
    offset_ms: float = 0.0,
    dedup_window_ms: float = NEIGHBORHOOD_MS,
    neighborhood_ms: float = NEIGHBORHOOD_MS,
) -> list[ShotEvent]:
    """Single-modality baseline: IPF candidates above a fixed threshold.

    offset_ms (IMU minus audio time) relocates the events onto the audio
    clock so they can be scored against audio-clock labels; a standalone
    IMU system would keep its own clock and pass 0.
    """
    likelihood = ipf(prepare_components(imu)).shifted(-offset_ms)
    hits = []
    for t in select_candidates(likelihood, neighborhood_ms):
        value = likelihood.values[likelihood.index_at(t)]
        if value > threshold:
            hits.append(ShotEvent(float(t), float(value)))
    return dedup(hits, dedup_window_ms)
