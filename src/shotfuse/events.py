"""Shot events, ground-truth labels, and tolerance-based evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .series import freeze

__all__ = ["NEIGHBORHOOD_MS", "MATCH_TOLERANCE_MS", "ShotEvent", "LabelSet", "EvalReport", "dedup",
           "check_tolerance", "precision_recall_f", "evaluate"]

#: Width of a shot's neighborhood: the candidate and feature window of
#: fusion, and the span within which dedup keeps only the first event.
NEIGHBORHOOD_MS = 500.0
#: Default distance within which a detection matches a label (evaluate).
MATCH_TOLERANCE_MS = 100.0


@dataclass(frozen=True)
class ShotEvent:
    """A detected (or hypothesized) shot: timestamp in ms plus a score.

    Scores from the fused classifier are vote fractions in [0, 1]; the
    audio-only path emits raw thresholded likelihood values instead.
    """

    time_ms: float
    score: float


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Ground-truth shot timestamps (ms), finite, strictly ascending and non-negative."""

    shots: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        arr = freeze(self.shots)
        if arr.ndim != 1:
            raise ValueError("shots must be one-dimensional")
        if not np.isfinite(arr).all():
            raise ValueError("shot timestamps must be finite")
        if arr.size and arr[0] < 0:
            raise ValueError("shot timestamps must be non-negative")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("shot timestamps must be strictly ascending")
        object.__setattr__(self, "shots", arr)

    def __len__(self) -> int:
        return self.shots.size


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f_score: float
    true_positives: int
    false_positives: int
    false_negatives: int
    match_tolerance_ms: float

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "match_tolerance_ms": self.match_tolerance_ms,
        }


def dedup(events: list[ShotEvent]) -> list[ShotEvent]:
    """Keep the first of any run of events at most NEIGHBORHOOD_MS apart.

    An event is dropped iff it falls within NEIGHBORHOOD_MS after the
    previously kept event, exactly NEIGHBORHOOD_MS included; the first
    event is always kept.
    """
    kept: list[ShotEvent] = []
    last_time = None
    for e in events:
        if last_time is not None and e.time_ms < last_time:
            raise ValueError("unordered events")
        last_time = e.time_ms
        if kept and e.time_ms - kept[-1].time_ms <= NEIGHBORHOOD_MS:
            continue
        kept.append(e)
    return kept


def check_tolerance(tolerance_ms: float) -> None:
    """Reject a match tolerance that is not finite and non-negative."""
    if not 0.0 <= tolerance_ms < math.inf:
        raise ValueError(f"tolerance_ms must be finite and non-negative, got {tolerance_ms}")


def precision_recall_f(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and their harmonic mean F from match counts.

    Precision is 1 with no detections and recall 1 with no positives
    (vacuous truth); F is 0 when both are 0.
    """
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f_score


def evaluate(
    events: list[ShotEvent], labels: LabelSet, tolerance_ms: float = MATCH_TOLERANCE_MS
) -> EvalReport:
    """Score detections against labels with greedy one-to-one matching.

    Labels are processed in time order; each label claims the nearest
    still-unmatched event within +/- tolerance_ms (ties go to the earlier
    event). Matched pairs count as true positives, leftover events as false
    positives, leftover labels as false negatives. Precision is 1 when there
    are no events and recall 1 when there are no labels (vacuous truth).
    tolerance_ms must be finite and non-negative, and event times finite.
    """
    check_tolerance(tolerance_ms)
    times = np.sort(np.array([e.time_ms for e in events], dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("event times must be finite")
    n = times.size
    at = times.tolist()
    # One sweep: every event at or after the pointer p is free, and free
    # holds the free events before it as [time, count] per distinct time,
    # ascending. Labels ascend, so a label that takes a later event takes p.
    free = []
    p = tp = 0
    for t in labels.shots.tolist():
        while p < n and at[p] < t:
            if free and free[-1][0] == at[p]:
                free[-1][1] += 1
            else:
                free.append([at[p], 1])
            p += 1
        d = at[p] - t if p < n else math.inf
        if free and t - free[-1][0] <= d:
            d = t - free[-1][0]
            # Ties go to the earliest event: walk back over the earlier times
            # the distance rounds to the same value.
            k = len(free) - 1
            while k and t - free[k - 1][0] == d:
                k -= 1
            if d <= tolerance_ms:
                free[k][1] -= 1
                if not free[k][1]:
                    del free[k]
                tp += 1
        elif d <= tolerance_ms:
            p += 1
            tp += 1

    fp = n - tp
    fn = len(labels) - tp
    return EvalReport(*precision_recall_f(tp, fp, fn), tp, fp, fn, tolerance_ms)
