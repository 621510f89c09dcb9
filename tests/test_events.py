import time

import numpy as np
import pytest

from shotfuse import LabelSet, dedup, evaluate
from shotfuse.events import NEIGHBORHOOD_MS


def ev(*times):
    return np.array(times, dtype=float)


# --- dedup -------------------------------------------------------------------


def test_dedup_drops_trailing_neighbors():
    assert dedup(ev(0, 300, 900)).tolist() == [0, 2]
    # An event exactly NEIGHBORHOOD_MS after the kept one is a neighbor too.
    assert dedup(ev(0, 500, 1000.5)).tolist() == [0, 2]


def test_dedup_single_event():
    assert dedup(ev(42)).tolist() == [0]


def test_dedup_of_nothing_is_an_empty_index():
    kept = dedup(ev())
    assert kept.size == 0 and kept.dtype == np.intp


def test_dedup_keeps_spaced_events():
    assert dedup(ev(0, 600, 1200)).tolist() == [0, 1, 2]


def test_dedup_unordered_rejected():
    with pytest.raises(ValueError, match="unordered events"):
        dedup(ev(100, 50))


@pytest.mark.parametrize("table", [[[100.0, 0.9], [700.0, 0.8]], np.empty((0, 2))], ids=["two-events", "empty"])
def test_dedup_rejects_an_event_table(table):
    # dedup takes the time column: a whole (n, 2) table used to fail as
    # "unordered events", and an empty one passed silently.
    with pytest.raises(ValueError, match="^event times must be one-dimensional$"):
        dedup(table)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dedup_rejects_non_finite_times(bad):
    # A NaN used to pass both the order check and the neighborhood rule, so
    # the event 100 ms after a kept one survived.
    with pytest.raises(ValueError, match="event times must be finite"):
        dedup(ev(0, bad, 100))


def test_dedup_compares_the_difference_not_the_sum():
    # 800.69 - 300.69 rounds to 500.00000000000006, outside the neighborhood,
    # though 300.69 + 500 rounds to exactly 800.69.
    assert 800.69 - 300.69 > NEIGHBORHOOD_MS and 300.69 + NEIGHBORHOOD_MS == 800.69
    assert dedup([300.69, 800.69]).tolist() == [0, 1]


def reference_dedup(times):
    """The list loop dedup ran before it returned positions, over plain times."""
    kept = []
    last_time = None
    for i, t in enumerate(times):
        if last_time is not None and t < last_time:
            raise ValueError("unordered events")
        last_time = t
        if kept and t - times[kept[-1]] <= NEIGHBORHOOD_MS:
            continue
        kept.append(i)
    return kept


def test_dedup_idempotence_property():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(0, 40))
        # About a third of the gaps are exactly NEIGHBORHOOD_MS, some are 0.
        gaps = np.where(rng.random(n) < 0.3, NEIGHBORHOOD_MS, rng.uniform(0, 1200, n))
        gaps[rng.random(n) < 0.1] = 0.0
        times = rng.uniform(0, 1000) + np.cumsum(gaps)
        kept = dedup(times)
        assert kept.tolist() == reference_dedup(times.tolist())
        once = times[kept]
        assert dedup(once).tolist() == list(range(once.size))


# --- evaluate -----------------------------------------------------------------


def labels(*times):
    return LabelSet(np.array(times, dtype=float))


def test_exact_matches_are_perfect():
    report = evaluate(ev(100, 2000, 4000), labels(100, 2000, 4000))
    assert (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)
    assert report.true_positives == 3


def test_no_events_nonempty_labels():
    report = evaluate([], labels(100, 200))
    assert report.precision == 1.0
    assert report.recall == 0.0
    assert report.f_score == 0.0


def test_no_labels_some_events():
    report = evaluate(ev(100), LabelSet())
    assert report.recall == 1.0
    assert report.precision == 0.0
    assert report.f_score == 0.0


def test_hand_worked_example():
    # 3 events; 2 within tolerance of distinct labels; 4 labels total
    events = ev(1000, 3050, 9000)
    report = evaluate(events, labels(1010, 3000, 5000, 7000), tolerance_ms=100.0)
    assert report.true_positives == 2
    assert report.precision == pytest.approx(2.0 / 3.0)
    assert report.recall == pytest.approx(0.5)
    assert report.f_score == pytest.approx(4.0 / 7.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -5.0])
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    # An event on its label used to score F 0 at a NaN or negative tolerance.
    with pytest.raises(ValueError, match=f"^tolerance_ms must be finite and non-negative, got {tolerance}"):
        evaluate(ev(1000), labels(1000), tolerance_ms=tolerance)
    assert evaluate(ev(1000), labels(1000), tolerance_ms=0.0).f_score == 1.0


def test_one_event_cannot_match_two_labels():
    report = evaluate(ev(1000), labels(950, 1050), tolerance_ms=100.0)
    assert report.true_positives == 1
    assert report.false_negatives == 1


def optimal_matching_count(event_times, label_times, tol):
    """Maximum bipartite matching via augmenting paths (independent oracle)."""
    adjacency = [
        [j for j, e in enumerate(event_times) if abs(e - t) <= tol]
        for t in label_times
    ]
    match_of_event = {}

    def augment(i, seen):
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of_event or augment(match_of_event[j], seen):
                match_of_event[j] = i
                return True
        return False

    count = 0
    for i in range(len(label_times)):
        if augment(i, set()):
            count += 1
    return count


def test_counts_are_consistent_property():
    rng = np.random.default_rng(41)
    for _ in range(100):
        e_times = np.sort(rng.uniform(0, 10000, rng.integers(0, 25)))
        l_times = np.sort(rng.uniform(0, 10000, rng.integers(0, 25)))
        while np.any(np.diff(l_times) <= 0):
            l_times = np.sort(rng.uniform(0, 10000, rng.integers(1, 25)))
        report = evaluate(e_times, LabelSet(l_times), tolerance_ms=150.0)
        assert report.true_positives + report.false_negatives == len(l_times)
        assert report.true_positives + report.false_positives == len(e_times)
        optimal = optimal_matching_count(e_times, l_times, 150.0)
        assert optimal - 1 <= report.true_positives <= optimal


def test_greedy_equals_optimal_when_events_are_sparse():
    rng = np.random.default_rng(43)
    tol = 100.0
    for _ in range(100):
        # all pairwise gaps exceed 2 * tolerance
        base = np.cumsum(rng.uniform(2 * tol + 1, 1000, 15))
        jitter = rng.uniform(-tol, tol, 15)
        keep = rng.random(15) < 0.7
        events = (base + jitter)[keep]
        report = evaluate(events, LabelSet(base), tolerance_ms=tol)
        assert report.true_positives == optimal_matching_count(events, base, tol)


def scan_true_positives(event_times, label_times, tol):
    """Reference: each label, in order, scans every free event for the nearest (the earlier on ties)."""
    times = np.sort(np.asarray(event_times, dtype=float))
    matched = np.zeros(times.size, dtype=bool)
    tp = 0
    for t in label_times:
        free = np.flatnonzero(~matched)
        if free.size == 0:
            break
        dist = np.abs(times[free] - t)
        k = int(np.argmin(dist))
        if dist[k] <= tol:
            matched[free[k]] = True
            tp += 1
    return tp


def test_evaluate_matches_the_per_label_scan():
    rng = np.random.default_rng(4242)
    for case in range(3000):
        span = int(rng.integers(1, 60))
        if case % 4:  # an integer grid: duplicate times and equal-distance ties
            e_times = rng.integers(0, span + 1, rng.integers(0, 30)).astype(float)
            l_times = np.unique(rng.integers(0, span + 1, rng.integers(0, 30))).astype(float)
        else:
            e_times = rng.uniform(-5, span, rng.integers(0, 30))
            l_times = np.unique(rng.uniform(0, span, rng.integers(0, 30)))
        tol = (0.0, 1.0, 2.5, float(rng.integers(0, 10)), span + 10.0)[case % 5]
        report = evaluate(e_times, LabelSet(l_times), tol)
        assert report.true_positives == scan_true_positives(e_times, l_times, tol), case


def test_evaluate_takes_the_earliest_of_times_the_distance_cannot_tell_apart():
    # With u one step of doubles near 90, events a and b = a + u / 2 lie the same
    # rounded 90 ms before the first label, and the second label reaches only b.
    u = np.spacing(90.0)
    a, b = 10.0, 10.0 + u / 2
    first, second = 100.0, 100.0 + 3 * u
    assert first - a == first - b and second - b < second - a
    report = evaluate(ev(a, b), labels(first, second), tolerance_ms=second - b)
    assert report.true_positives == scan_true_positives([a, b], [first, second], second - b) == 2


def test_evaluate_is_fast_on_10k_events_and_labels():
    rng = np.random.default_rng(11)
    e_times = rng.uniform(0, 1e7, 10_000)
    l_times = np.sort(rng.choice(np.arange(0, 10_000_000, 7), 10_000, replace=False)).astype(float)
    start = time.perf_counter()
    report = evaluate(e_times, LabelSet(l_times), 1e7)
    assert report.true_positives == 10_000
    assert time.perf_counter() - start < 10.0  # about 0.05 s; a find without a root never returns


def test_evaluate_is_fast_on_10k_events_at_one_time():
    # Every label ties over all the free events; they share one time, so the walk is one step.
    events = np.zeros(10_000)
    l_times = np.arange(1.0, 10_001.0)
    start = time.perf_counter()
    report = evaluate(events, LabelSet(l_times), 1e7)
    assert report.true_positives == 10_000
    assert time.perf_counter() - start < 1.0  # about 0.01 s; walking each duplicate takes about 5 s


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_event_times(bad):
    with pytest.raises(ValueError, match="event times must be finite"):
        evaluate(ev(100.0, bad), labels(100.0))


def test_evaluate_rejects_an_event_table():
    # The (n, 2) table sorted row by row would count its scores as times.
    with pytest.raises(ValueError, match="event times must be one-dimensional"):
        evaluate(np.array([[100.0, 0.9]]), labels(100.0))
    # A scalar used to fail inside np.sort as numpy's AxisError.
    with pytest.raises(ValueError, match="event times must be one-dimensional"):
        evaluate(5.0, labels(100.0))
