"""Fused detection: IPF candidates, neighborhood features, forest decision.

Candidate points are strict local maxima of the motion likelihood within a
500 ms neighborhood. Each candidate is described by the maxima of five
synchronized series in that neighborhood and handed to the forest; runs of
consecutive positives collapse to their first event. candidate_table is the
one source of candidate times and features for detection and forest training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import audio_likelihood  # noqa: F401 -- still bound here for tools that wrap it
from .events import NEIGHBORHOOD_MS, dedup
from .forest import ForestModel, classify
from .imu import ImuComponents
from .imu import ipf, prepare_components  # noqa: F401 -- still bound here for tools that wrap them
from .series import PERIOD_MS, SampleSeries
from .sync import OffsetEstimate

__all__ = [
    "FEATURE_NAMES",
    "SyncedSeries",
    "select_candidates",
    "extract_features",
    "candidate_table",
    "detect_shots",
]

#: Fixed feature order of the fusion classifier.
FEATURE_NAMES = ("apf_max", "ipf_max", "a_rad_max", "a_tan_max", "w_rad_max")
#: Samples on either side of a candidate in its NEIGHBORHOOD_MS window.
_HALF = int(round((NEIGHBORHOOD_MS / 2.0) / PERIOD_MS))


@dataclass(frozen=True, eq=False)
class SyncedSeries:
    """One run's five fusion series on the audio clock, with the sync verdict (sync.OffsetEstimate).

    Build it with :meth:`align`, which moves the IMU-derived series onto
    the audio clock.
    """

    apf: SampleSeries
    ipf: SampleSeries
    a_rad: SampleSeries
    a_tan: SampleSeries
    w_rad: SampleSeries
    offset: OffsetEstimate

    @classmethod
    def align(
        cls, apf: SampleSeries, imu_ipf: SampleSeries, comps: ImuComponents, offset: OffsetEstimate
    ) -> "SyncedSeries":
        """Shift the IMU-clock series by -offset (IMU minus audio time)."""
        shifted = (s.shifted(-offset.offset_ms) for s in (imu_ipf, comps.a_rad, comps.a_tan, comps.w_rad))
        return cls(apf, *shifted, offset)


def _running_max(x: np.ndarray, width: int) -> np.ndarray:
    """max(x[j : j + width]) for every j with a full window, by doubling spans.

    Each step doubles the span every entry covers; two overlapping spans
    then cover the width. A max is exact, so the result does not depend on
    the order of comparisons.
    """
    m, span = x, 1
    while 2 * span <= width:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[: m.size - (width - span)], m[width - span :])


def select_candidates(ipf_series: SampleSeries) -> np.ndarray:
    """Timestamps of samples strictly greater than all others within +/-NEIGHBORHOOD_MS/2.

    Windows truncate at the stream edges; plateaus and exact ties yield no
    candidate. Returned in time order.
    """
    v = ipf_series.values
    n = v.size
    padded = np.full(n + 2 * _HALF, -np.inf)
    padded[_HALF : _HALF + n] = v
    # spans[i] is the max of the _HALF samples before sample i, spans[i + _HALF + 1] of the _HALF after it.
    spans = _running_max(padded, _HALF)
    strict = np.flatnonzero((v > spans[:n]) & (v > spans[_HALF + 1 :]))
    return ipf_series.start_time + strict.astype(float) * PERIOD_MS


def _window_maxima(series: SampleSeries, centers: np.ndarray) -> np.ndarray:
    """Max of the 2 * _HALF + 1 samples centred on each sample index; the edge sample stands in past either end.

    One copy of the series carries its edge samples a window's width past each end; one reduceat reads every window.
    """
    width, v = 2 * _HALF + 1, series.values
    padded = np.concatenate((np.full(width, v[0]), v, np.full(width, v[-1])))  # np.pad(mode="edge") takes 4x as long
    # A window past an end moves to the nearest one that still holds the edge sample.
    first = np.clip(centers - _HALF, -2 * _HALF, len(series) - 1) + width
    return np.maximum.reduceat(padded, np.column_stack((first, first + width)).ravel())[::2]


def extract_features(
    times,
    apf: SampleSeries,
    ipf_series: SampleSeries,
    a_rad: SampleSeries,
    a_tan: SampleSeries,
    w_rad: SampleSeries,
) -> np.ndarray:
    """Neighborhood maxima of the five series around each candidate time.

    Returns the (len(times), 5) feature matrix, columns in FEATURE_NAMES
    order. All series must already sit on the common clock and hold
    samples. Each time is read on each series' grid, which the synced
    series share: its window is the 51 samples centred on its sample
    (SampleSeries.index_at), with the series' edge sample standing in past
    either end (_window_maxima).
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    series = (apf, ipf_series, a_rad, a_tan, w_rad)
    for name, s in zip(FEATURE_NAMES, series):
        if len(s) == 0:
            raise ValueError(f"{name.removesuffix('_max')} series is empty")
    outside = np.ones(times.size, dtype=bool)
    for s in series:
        # Written positively so that a NaN time counts as outside.
        outside &= ~((times >= s.start_time) & (times < s.end_time))
    if outside.any():
        raise ValueError("candidate out of range")
    return np.column_stack([_window_maxima(s, s.index_at(times)) for s in series])


def candidate_table(synced: SyncedSeries) -> tuple[np.ndarray, np.ndarray]:
    """Candidate times (n,) and their (n, 5) feature matrix, columns in FEATURE_NAMES order."""
    times = select_candidates(synced.ipf)
    return times, extract_features(times, synced.apf, synced.ipf, synced.a_rad, synced.a_tan, synced.w_rad)


def detect_shots(synced: SyncedSeries, forest_model: ForestModel) -> np.ndarray:
    """Full fused pipeline on synchronized streams: the (n, 2) event table of time_ms and score.

    Candidates come from the motion likelihood, features from both
    modalities, decisions from the forest, and consecutive positives are
    deduplicated. Deterministic end to end; each row holds a candidate_table
    time and its vote fraction.
    """
    times, X = candidate_table(synced)
    labels, scores = classify(forest_model, X)
    hits = np.flatnonzero(labels == 1)
    kept = hits[dedup(times[hits])]
    return np.column_stack((times[kept], scores[kept]))
