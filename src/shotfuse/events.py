"""Shot events, ground-truth labels, and tolerance-based evaluation.

An event list is an (n, 2) float array, one row per event: time_ms, then a
score (a vote fraction in [0, 1] from the fused classifier, the biased
likelihood from the audio-only path), the two columns of detections.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .series import freeze

__all__ = ["NEIGHBORHOOD_MS", "MATCH_TOLERANCE_MS", "LabelSet", "EvalReport", "dedup",
           "check_tolerance", "precision_recall_f", "evaluate"]

#: Width of a shot's neighborhood: the candidate and feature window of
#: fusion, and the span within which dedup keeps only the first event.
NEIGHBORHOOD_MS = 500.0
#: Default distance within which a detection matches a label (evaluate).
MATCH_TOLERANCE_MS = 100.0


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


def dedup(times) -> np.ndarray:
    """Positions of the events kept: the first of any run at most NEIGHBORHOOD_MS apart.

    times must be one-dimensional, finite and ascending. An event is dropped iff it falls
    within NEIGHBORHOOD_MS after the previously kept event, exactly
    NEIGHBORHOOD_MS included (as t - last_kept <= NEIGHBORHOOD_MS); the
    first event is always kept.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("event times must be one-dimensional")
    if not np.isfinite(times).all():
        raise ValueError("event times must be finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("unordered events")
    kept = []
    last = -math.inf
    for i, t in enumerate(times.tolist()):
        if t - last > NEIGHBORHOOD_MS:
            kept.append(i)
            last = t
    return np.array(kept, dtype=np.intp)


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


def evaluate(times, labels: LabelSet, tolerance_ms: float = MATCH_TOLERANCE_MS) -> EvalReport:
    """Score detection times (ms, any order) against labels with greedy one-to-one matching.

    Labels are processed in time order; each label claims the nearest
    still-unmatched event within +/- tolerance_ms (ties go to the earlier
    event). Matched pairs count as true positives, leftover events as false
    positives, leftover labels as false negatives. Precision is 1 when there
    are no events and recall 1 when there are no labels (vacuous truth).
    tolerance_ms must be finite and non-negative, and event times finite.
    """
    check_tolerance(tolerance_ms)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("event times must be one-dimensional")
    times = np.sort(times)
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
