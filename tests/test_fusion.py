import numpy as np
import pytest

import shotfuse as sf
from shotfuse import (
    ForestModel,
    ImuStream,
    OffsetEstimate,
    SampleSeries,
    SyncedSeries,
    detect_shots,
    extract_features,
    select_candidates,
)
from shotfuse.events import NEIGHBORHOOD_MS
from shotfuse.fusion import _running_max, candidate_table
from shotfuse.imu import decompose, ipf, prepare_components
from shotfuse.pipeline import candidate_dataset, synced_series
from shotfuse.series import PERIOD_MS


def series(values, start=0.0):
    return SampleSeries(start, np.asarray(values, dtype=float))


# --- select_candidates -------------------------------------------------------


def test_single_isolated_peak():
    v = np.zeros(200)
    v[90] = 5.0
    times = select_candidates(series(v))
    assert np.array_equal(times, [900.0])


def test_dominated_peak_is_not_candidate():
    v = np.zeros(200)
    v[100] = 2.0
    v[120] = 1.0  # 200 ms later: the taller peak sits inside its +/-250 ms window
    times = select_candidates(series(v))
    assert np.array_equal(times, [1000.0])


def test_peaks_beyond_window_are_both_candidates():
    v = np.zeros(200)
    v[100] = 2.0
    v[130] = 1.0  # 300 ms apart: outside each other's +/-250 ms windows
    times = select_candidates(series(v))
    assert np.array_equal(times, [1000.0, 1300.0])


def test_two_separated_peaks():
    v = np.zeros(200)
    v[50] = 1.0
    v[110] = 1.0  # 600 ms apart, windows do not overlap
    times = select_candidates(series(v))
    assert np.array_equal(times, [500.0, 1100.0])


def test_constant_series_has_no_candidates():
    assert select_candidates(series(np.full(100, 3.0))).size == 0


def test_plateau_has_no_candidates():
    v = np.zeros(120)
    v[60:62] = 2.0
    assert select_candidates(series(v)).size == 0


def test_boundary_peak_uses_truncated_window():
    v = np.zeros(100)
    v[2] = 1.0
    assert 20.0 in select_candidates(series(v))


def test_scaling_invariance_property():
    rng = np.random.default_rng(19)
    for _ in range(100):
        v = rng.standard_normal(300)
        alpha = float(rng.uniform(0.01, 50.0))
        base = select_candidates(series(v))
        scaled = select_candidates(series(alpha * v))
        assert np.array_equal(base, scaled)


def window_view_candidates(ipf_series):
    """Reference: the max over every sample's whole (2 * half + 1) window, then a count of the max."""
    v = ipf_series.values
    n = v.size
    if n == 0:
        return np.empty(0)
    half = int(round((NEIGHBORHOOD_MS / 2.0) / PERIOD_MS))
    padded = np.full(n + 2 * half, -np.inf)
    padded[half : half + n] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    peak_idx = np.flatnonzero(v >= windows.max(axis=1))
    strict = peak_idx[np.count_nonzero(windows[peak_idx] == v[peak_idx, None], axis=1) == 1]
    return ipf_series.start_time + strict.astype(float) * PERIOD_MS


def tied_series(rng, n):
    """Values on a 0.1 grid with constant runs, plateaus and peaks at both edges."""
    v = np.round(rng.uniform(0.0, 1.0, n), 1)
    for _ in range(int(rng.integers(0, 6))):
        lo = int(rng.integers(0, max(n, 1)))
        v[lo : lo + int(rng.integers(1, 40))] = np.round(rng.uniform(0.0, 1.5), 1)
    if n and rng.random() < 0.3:
        v[0] = 2.0
    if n and rng.random() < 0.3:
        v[-1] = 2.0
    return v


def test_select_candidates_matches_the_window_view_reference():
    rng = np.random.default_rng(2024)
    for case in range(600):
        n = int(rng.integers(0, 401))
        s = series(tied_series(rng, n), start=float(rng.uniform(-50, 50)))
        assert np.array_equal(select_candidates(s), window_view_candidates(s)), case


def test_running_max_matches_the_sliding_window_max():
    # Every width up to 64, so the half windows 0, 1, 4 and 10 are covered
    # as well as 25, over lengths on both sides of each power of two.
    rng = np.random.default_rng(2025)
    powers = [2**k + d for k in range(8) for d in (-1, 0, 1)]
    for width in range(1, 65):
        for n in sorted({width, *(p for p in powers if p >= width)}):
            x = np.round(rng.uniform(0.0, 1.0, n), 1)
            want = np.lib.stride_tricks.sliding_window_view(x, width).max(axis=1)
            assert np.array_equal(_running_max(x, width), want), (width, n)


# --- extract_features -----------------------------------------------------------


def five_series(apf=None, ipf=None, a_rad=None, a_tan=None, w_rad=None, n=100):
    def mk(v):
        return series(np.full(n, 0.0) if v is None else v)

    return mk(apf), mk(ipf), mk(a_rad), mk(a_tan), mk(w_rad)


def test_constant_series_features():
    ss = tuple(series(np.full(100, 4.2)) for _ in range(5))
    c = extract_features([500.0], *ss)[0]
    assert np.allclose(c, 4.2)


def test_impulse_in_window_is_captured():
    apf = np.zeros(100)
    apf[60] = 7.0  # 100 ms after the candidate, inside +/-250 ms
    ss = five_series(apf=apf)
    c = extract_features([500.0], *ss)[0]
    assert c[0] == 7.0


def test_features_match_window_scan(rng):
    arrays = [rng.standard_normal(200) for _ in range(5)]
    ss = tuple(series(a) for a in arrays)
    t = 700.0
    c = extract_features([t], *ss)[0]
    for k, a in enumerate(arrays):
        lo = int(np.ceil((t - 250.0) / 10.0))
        hi = int(np.floor((t + 250.0) / 10.0)) + 1
        assert c[k] == pytest.approx(np.max(a[lo:hi]), rel=1e-12)


def test_partial_window_at_edge(rng):
    arrays = [rng.standard_normal(100) for _ in range(5)]
    ss = tuple(series(a) for a in arrays)
    c = extract_features([30.0], *ss)[0]  # window [  -220, 280 ] truncates at 0
    for k, a in enumerate(arrays):
        assert c[k] == pytest.approx(np.max(a[:29]), rel=1e-12)


@pytest.mark.parametrize("t", [99999.0, np.inf, -np.inf, np.nan])
def test_candidate_out_of_range(t):
    ss = five_series()
    with pytest.raises(ValueError, match="candidate out of range"):
        extract_features([t], *ss)


def test_empty_series_is_named():
    for k, name in enumerate(["apf", "ipf", "a_rad", "a_tan", "w_rad"]):
        ss = list(five_series())
        ss[k] = series(np.empty(0))
        with pytest.raises(ValueError, match=f"^{name} series is empty$"):
            extract_features([500.0], *ss)


# --- detect_shots ------------------------------------------------------------------


def apf_threshold_forest(threshold):
    """Single stump voting shot iff the APF feature exceeds threshold."""
    return ForestModel([0, -1, -1], [threshold, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 1], [3], seed=0)


def aligned(audio, imu, model, offset):
    """The synced bundle at a given offset, skipping the offset estimate."""
    comps = prepare_components(decompose(imu))
    return SyncedSeries.align(sf.audio_likelihood(audio, model), ipf(comps), comps, offset)


def silence_and_stillness(duration_s=10.0):
    n_audio = int(duration_s * 8000)
    n_imu = int(duration_s * 100)
    audio = sf.PcmAudio(np.zeros(n_audio, dtype=np.int16))
    imu = ImuStream([10.0 * np.arange(n_imu), *np.zeros((6, n_imu))])
    return audio, imu


def test_detect_shots_empty_on_silence(identity_model):
    audio, imu = silence_and_stillness()
    forest = apf_threshold_forest(0.5)
    offset = OffsetEstimate(0.0, 1.0, 5.0)
    assert detect_shots(aligned(audio, imu, identity_model, offset), forest).shape == (0, 2)


def test_detect_shots_synthetic_game(identity_model):
    cfg = sf.SynthConfig(duration_s=60.0, shot_count=20, injected_offset_ms=-180.0, seed=77)
    audio, imu, labels = sf.synthesize(cfg)
    synced = synced_series(sf.audio_likelihood(audio, identity_model), decompose(imu))
    forest = sf.train_forest(*candidate_dataset(synced, labels), tree_count=15, seed=4)

    events = detect_shots(synced, forest)
    assert len(events) == 20
    for t in events[:, 0]:
        assert np.min(np.abs(labels.shots - t)) <= 100.0


def _trained_forest(identity_model, seed=77):
    cfg = sf.SynthConfig(duration_s=60.0, shot_count=20, injected_offset_ms=0.0,
                         distractor_rate_per_min=4.0, seed=seed)
    audio, imu, labels = sf.synthesize(cfg)
    synced = synced_series(sf.audio_likelihood(audio, identity_model), decompose(imu))
    return sf.train_forest(*candidate_dataset(synced, labels), tree_count=15, seed=4)


def test_detect_shots_suppresses_audio_only_distractors(identity_model):
    forest = _trained_forest(identity_model)
    # bursts but no swings: every IPF candidate is noise-level and gets rejected
    cfg = sf.SynthConfig(duration_s=30.0, shot_count=0, injected_offset_ms=0.0,
                         distractor_rate_per_min=10.0, seed=13)
    audio, imu, labels = sf.synthesize(cfg)
    assert len(labels) == 0
    offset = OffsetEstimate(0.0, 1.0, 5.0)
    events = detect_shots(aligned(audio, imu, identity_model, offset), forest)
    assert events.shape == (0, 2)


def test_detect_shots_events_are_candidate_times(identity_model):
    cfg = sf.SynthConfig(duration_s=30.0, shot_count=10, injected_offset_ms=0.0, seed=21)
    audio, imu, labels = sf.synthesize(cfg)
    forest = apf_threshold_forest(0.0)
    offset = OffsetEstimate(0.0, 1.0, 5.0)
    events = detect_shots(aligned(audio, imu, identity_model, offset), forest)
    candidates = select_candidates(ipf(prepare_components(decompose(imu))))
    assert len(events) > 0
    assert np.isin(events[:, 0], candidates).all()


def test_detect_shots_deterministic(identity_model):
    cfg = sf.SynthConfig(duration_s=30.0, shot_count=10, injected_offset_ms=-100.0, seed=23)
    audio, imu, _ = sf.synthesize(cfg)
    forest = apf_threshold_forest(1e-4)
    offset = OffsetEstimate(-100.0, 0.9, 10.0)
    a = detect_shots(aligned(audio, imu, identity_model, offset), forest)
    b = detect_shots(aligned(audio, imu, identity_model, offset), forest)
    assert np.array_equal(a, b)


def scan_window_max(s, t, half=250.0):
    """Per-candidate oracle: max over samples timed within [t - half, t + half]."""
    eps = 1e-9 * PERIOD_MS
    inside = [v for ts, v in zip(s.times(), s.values) if t - half - eps <= ts <= t + half + eps]
    if inside:
        return max(inside), len(inside)
    nearest = int(np.argmin(np.abs(s.times() - t)))
    return s.values[nearest], 0


def test_feature_matrix_matches_window_scan():
    rng = np.random.default_rng(31)
    sizes = set()
    for _ in range(10):
        # Every series starts on the candidates' 10 ms grid, as the synced
        # series do; windows reach past the ends of the shorter ones, and the
        # far series starts late enough that some windows miss it entirely.
        ipf_s = series(rng.standard_normal(300))
        others = []
        for _ in range(3):
            n = int(rng.integers(50, 400))
            others.append(series(rng.standard_normal(n), start=float(rng.integers(-80, 81)) * PERIOD_MS))
        far = series(rng.standard_normal(40), start=2600.0)
        ss = (others[0], ipf_s, others[1], others[2], far)
        times = np.r_[0.0, 10.0, 2990.0, rng.choice(ipf_s.times(), 20)]
        X = extract_features(times, *ss)
        assert X.shape == (times.size, 5)
        for i, t in enumerate(times):
            for k, s in enumerate(ss):
                want, size = scan_window_max(s, t)
                assert X[i, k] == want
                sizes.add(size)
    assert {0, 50, 51} <= sizes


def test_candidate_table_matches_window_scan_where_the_imu_starts_first(identity_model):
    # The IMU records 1.5 s before the audio, so the first candidates' windows
    # end before the audio likelihood's first sample and read its edge.
    cfg = sf.SynthConfig(duration_s=30.0, injected_offset_ms=1500.0, seed=7)
    audio, imu, _ = sf.synthesize(cfg)
    synced = synced_series(sf.audio_likelihood(audio, identity_model), decompose(imu))
    times, X = candidate_table(synced)
    assert np.any(times + NEIGHBORHOOD_MS / 2.0 < synced.apf.start_time)
    ss = (synced.apf, synced.ipf, synced.a_rad, synced.a_tan, synced.w_rad)
    for i, t in enumerate(times):
        for k, s in enumerate(ss):
            assert X[i, k] == scan_window_max(s, t)[0]


def test_no_candidates_give_empty_tables():
    X = extract_features([], *five_series())
    assert X.shape == (0, 5) and X.dtype == float
    # A constant motion likelihood has no strict maximum, so no candidate.
    apf, ipf_s, a_rad, a_tan, w_rad = five_series(apf=np.linspace(0.0, 1.0, 100), ipf=np.full(100, 0.3))
    synced = SyncedSeries(apf, ipf_s, a_rad, a_tan, w_rad, OffsetEstimate(0.0, 1.0, 5.0))
    events = detect_shots(synced, apf_threshold_forest(0.5))
    assert events.shape == (0, 2) and events.dtype == float
