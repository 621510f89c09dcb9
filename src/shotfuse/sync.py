"""Cross-modal stream alignment from the two likelihood series.

Sensor handlers come up at different times, so the audio and IMU streams
disagree by an unknown offset (typically a few hundred ms). Both
likelihood series are quantized to five levels, spread with a triangle
kernel so misalignment is penalized gradually, and cross-correlated; the
lag of the correlation peak is the offset. A fresh window re-estimate
validates the lock before the synchronizer is cut off. One OffsetEstimate
holds the whole verdict; sync.json is its fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PERIOD_MS, SampleSeries, cross_correlate, freeze_in_place, triangle_smooth

__all__ = [
    "QUANT_LEVELS",
    "OffsetEstimate",
    "self_calibrate_quantizer",
    "quantize",
    "estimate_offset",
    "validate_offset",
]

QUANT_LEVELS = 5
#: Shortest snippet the offset estimator accepts.
MIN_OVERLAP_SECONDS = 5.0
#: The offset is searched over lags within +/- this many milliseconds.
MAX_LAG_MS = 2000.0
#: Fresh data after the estimation snippet that validation re-estimates on.
VALIDATION_SECONDS = 5.0
VALIDATION_OFFSET_TOLERANCE_MS = 50.0
VALIDATION_MIN_CORRELATION = 0.4
#: Share of each live series, from the top, that self-calibration fits quintiles on.
CALIBRATION_TOP_FRACTION = 0.1


def _percentile(values: np.ndarray, q) -> np.ndarray:
    """np.percentile(values, q) of a non-empty 1-D float array, bit for bit, at a fraction of its cost.

    numpy's default linear method: the virtual index (n - 1) * (q / 100)
    lies between the order statistics at its floor and the next index,
    and numpy's _lerp interpolates between them, from the upper one when
    the fraction is at least 0.5. One single-index np.partition at the
    lowest floor and a sort of the values above it put every needed order
    statistic in place (numpy's own partition on several indices costs
    several times as much). A NaN anywhere gives NaN, as numpy's does.
    """
    index = (values.size - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(index)
    fraction = index - below
    below = below.astype(np.intp)
    lowest = int(below.min())
    ordered = np.partition(values, lowest)
    ordered[lowest + 1 :].sort()
    if np.isnan(ordered[-1]):
        return np.full(index.shape, np.nan)
    a, b = ordered[below], ordered[np.minimum(below + 1, values.size - 1)]
    step = b - a
    return np.where(fraction >= 0.5, b - step * (1 - fraction), a + step * fraction)


def _quantile_boundaries(values, name: str) -> np.ndarray:
    """Read-only 20/40/60/80 percentiles of at least 5 values with a non-degenerate spread."""
    v = np.asarray(values, dtype=float)
    if v.size < QUANT_LEVELS:
        raise ValueError(f"{name}: insufficient calibration data")
    # Linear-interpolation percentiles, fixed so boundaries are reproducible.
    b = _percentile(v, [20.0, 40.0, 60.0, 80.0])
    if np.any(np.diff(b) <= 0):
        raise ValueError(f"{name}: degenerate distribution")
    return freeze_in_place(b)


@dataclass(frozen=True)
class OffsetEstimate:
    """The sync verdict, and the sync.json payload: its fields are the file's keys.

    offset_ms is IMU time minus audio time; validated says whether a fresh
    window confirmed the lock (validate_offset), False until it is checked.
    """

    offset_ms: float
    peak_correlation: float
    window_seconds: float
    validated: bool = False


def self_calibrate_quantizer(apf: SampleSeries, ipf: SampleSeries) -> tuple[np.ndarray, np.ndarray]:
    """Level boundaries of each live series, APF first: quintiles of its upper decile.

    Used when no labeled shots are available: the strongest values of a
    snippet stand in for the shot-conditional peak distribution.
    """

    def boundaries(values: np.ndarray, name: str) -> np.ndarray:
        cut = _percentile(values, 100.0 * (1.0 - CALIBRATION_TOP_FRACTION))
        return _quantile_boundaries(values[values >= cut], name)

    return boundaries(apf.values, "apf"), boundaries(ipf.values, "ipf")


def quantize(x: SampleSeries, boundaries) -> SampleSeries:
    """Map each value to its level in {0..4}; intervals are right-closed.

    Level k collects values in (b[k-1], b[k]] with b[-1] = -inf and
    b[4] = +inf, so a value equal to a boundary takes the lower level: the
    level is the number of boundaries strictly below the value, the four
    comparisons summed into one float array.
    """
    b = np.asarray(boundaries, dtype=float)
    return x.with_values(freeze_in_place((x.values > b[:, None]).sum(axis=0, dtype=float)))


def estimate_offset(apf: SampleSeries, ipf: SampleSeries, boundaries) -> OffsetEstimate:
    """Offset of the IMU stream relative to the audio stream.

    Both series are quantized by their boundaries (a pair, APF's first)
    and triangle-smoothed, then cross-correlated over lags within
    MAX_LAG_MS. Ties between equal correlation maxima break toward the
    smallest |lag| (the clocks are near-aligned a priori), then toward the
    negative lag. The differing series start times are folded into the
    reported offset.
    """
    overlap_ms = min(apf.end_time, ipf.end_time) - max(apf.start_time, ipf.start_time)
    # One period of slack so sub-period start misalignment cannot trip the check.
    if overlap_ms < MIN_OVERLAP_SECONDS * 1000.0 - PERIOD_MS:
        raise ValueError(
            f"snippet too short: the audio and IMU series overlap for {max(overlap_ms, 0.0) / 1000.0:g} s,"
            f" the offset estimate needs {MIN_OVERLAP_SECONDS:g} s"
        )

    qa, qi = (triangle_smooth(quantize(x, b)) for x, b in zip((apf, ipf), boundaries))
    max_lag = int(round(MAX_LAG_MS / PERIOD_MS))
    correlations = cross_correlate(qa, qi, max_lag)
    peak = correlations.max()
    # Tied lags ascend, so the first of the smallest |lag| is the negative one.
    tied = np.flatnonzero(correlations == peak) - max_lag
    best_lag = tied[np.argmin(np.abs(tied))]
    offset_ms = best_lag * PERIOD_MS + (ipf.start_time - apf.start_time)
    return OffsetEstimate(float(offset_ms), float(peak), overlap_ms / 1000.0)


def validate_offset(
    apf_tail: SampleSeries, ipf_tail: SampleSeries, boundaries, candidate: OffsetEstimate
) -> bool:
    """Re-estimate on the fresh tail that follows the estimation snippet.

    True iff the fresh estimate lands within +/-50 ms of the candidate and
    its correlation peak reaches 0.4. The caller cuts the tail and keeps
    the answer as the candidate's validated field (pipeline.synced_series).
    """
    fresh = estimate_offset(apf_tail, ipf_tail, boundaries)
    return (
        abs(fresh.offset_ms - candidate.offset_ms) <= VALIDATION_OFFSET_TOLERANCE_MS
        and fresh.peak_correlation >= VALIDATION_MIN_CORRELATION
    )
