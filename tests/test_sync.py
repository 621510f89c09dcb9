import numpy as np
import pytest

from shotfuse import sync
from shotfuse import (
    OffsetEstimate,
    SampleSeries,
    cross_correlate,
    estimate_offset,
    quantize,
    self_calibrate_quantizer,
    triangle_smooth,
    validate_offset,
)


def series(values, start=0.0):
    return SampleSeries(start, np.asarray(values, dtype=float))


def peaked_stream(rng, n=2000, n_peaks=20, start=0.0):
    """Sparse positive peaks over small noise, mimicking a likelihood series."""
    v = np.abs(rng.normal(0.0, 0.01, n))
    idx = rng.choice(np.arange(50, n - 50), size=n_peaks, replace=False)
    v[idx] += rng.uniform(1.0, 4.0, n_peaks)
    return series(v, start=start), np.sort(idx)


def quantizer_for(apf_s, ipf_s):
    return self_calibrate_quantizer(apf_s, ipf_s)


# --- quantizer boundaries ------------------------------------------------------


def test_quantizer_boundaries_1_to_100():
    b = sync._quantile_boundaries(np.arange(1.0, 101.0), "apf")
    assert np.allclose(b, [20.8, 40.6, 60.4, 80.2])
    assert not b.flags.writeable


def test_quantizer_boundaries_five_values():
    b = sync._quantile_boundaries([0.0, 1.0, 2.0, 3.0, 4.0], "ipf")
    assert np.allclose(b, [0.8, 1.6, 2.4, 3.2])


def test_quantizer_degenerate_distribution(identity_model):
    import shotfuse as sf

    with pytest.raises(ValueError, match="^apf: degenerate distribution"):
        sync._quantile_boundaries(np.full(10, 3.0), "apf")
    # a silent audio stream and a still IMU stream each name their modality
    audio, imu, _ = sf.synthesize(sf.SynthConfig(duration_s=20.0, shot_count=10, seed=45))
    apf_s = sf.audio_likelihood(audio, identity_model)
    ipf_s = sf.ipf(sf.prepare_components(sf.decompose(imu)))
    silent = sf.audio_likelihood(sf.PcmAudio(np.zeros(len(audio), dtype=np.int16)), identity_model)
    still = sf.ipf(sf.prepare_components(sf.decompose(sf.ImuStream([imu.block[0], *np.zeros((6, len(imu)))]))))
    with pytest.raises(ValueError, match="^apf: degenerate distribution"):
        self_calibrate_quantizer(silent, ipf_s)
    with pytest.raises(ValueError, match="^ipf: degenerate distribution"):
        self_calibrate_quantizer(apf_s, still)


def test_quantizer_insufficient_data():
    with pytest.raises(ValueError, match="insufficient calibration data"):
        sync._quantile_boundaries([1.0, 2.0, 3.0], "apf")


# --- quantize -------------------------------------------------------------------


def test_quantize_extremes_and_ties():
    b = [1.0, 2.0, 3.0, 4.0]
    out = quantize(series([0.5, 1.0, 2.0, 2.5, 4.0, 9.9]), b)
    assert np.array_equal(out.values, [0, 0, 1, 2, 3, 4])


def test_quantize_matches_scan_oracle(rng):
    b = np.sort(rng.uniform(-1.0, 1.0, 4))
    while np.any(np.diff(b) <= 0):
        b = np.sort(rng.uniform(-1.0, 1.0, 4))
    values = rng.uniform(-2.0, 2.0, 200)
    out = quantize(series(values), b)
    for v, level in zip(values, out.values):
        expected = 0
        for bound in b:
            if v > bound:
                expected += 1
        assert level == expected


def test_quantize_counts_like_a_left_searchsorted(rng):
    # The level of x is the number of boundaries strictly below it.
    for b in (np.array([1.0, 2.0, 3.0, 4.0]), np.array([-0.5, 0.0, 0.25, 1.0]), np.sort(rng.uniform(-1.0, 1.0, 4))):
        values = np.r_[b, -0.0, 0.0, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                       (b[:-1] + b[1:]) / 2, b[0] - 1.0, b[-1] + 1.0, rng.uniform(-2.0, 5.0, 500)]
        levels = quantize(series(values), b).values
        assert levels.dtype == np.float64
        assert levels.tobytes() == np.searchsorted(b, values, "left").astype(float).tobytes()


def test_quantize_monotonicity_property():
    rng = np.random.default_rng(31)
    for _ in range(100):
        b = np.cumsum(rng.uniform(0.1, 1.0, 4))
        x, y = np.sort(rng.uniform(-1.0, 6.0, 2))
        lx = quantize(series([x]), b).values[0]
        ly = quantize(series([y]), b).values[0]
        assert lx <= ly


# --- estimate_offset --------------------------------------------------------------


def test_estimate_same_series_is_zero(rng):
    s, _ = peaked_stream(rng)
    q = quantizer_for(s, s)
    est = estimate_offset(s, s, q)
    assert est.offset_ms == 0.0
    assert est.peak_correlation == pytest.approx(1.0)


def test_estimate_recovers_injected_offset_synthetic_streams():
    # paired streams: identical peak pattern, IMU copy delayed by -270 ms
    import shotfuse as sf
    from shotfuse.imu import decompose, ipf, prepare_components

    errors = []
    for seed in range(5):
        cfg = sf.SynthConfig(duration_s=20.0, shot_count=15, injected_offset_ms=-270.0,
                             seed=500 + seed)
        audio, imu, _ = sf.synthesize(cfg)
        model = sf.FilterModel(np.r_[1.0, np.zeros(22)], 0.0)
        apf_s = sf.audio_likelihood(audio, model)
        ipf_s = ipf(prepare_components(decompose(imu)))
        q = self_calibrate_quantizer(apf_s, ipf_s)
        est = estimate_offset(apf_s, ipf_s, q)
        errors.append(est.offset_ms - (-270.0))
    assert all(abs(e) <= 40.0 for e in errors)


def test_estimate_pure_noise_low_correlation(rng):
    a = series(np.abs(rng.normal(0.0, 1.0, 2000)))
    b = series(np.abs(rng.normal(0.0, 1.0, 2000)))
    q = quantizer_for(a, b)
    est = estimate_offset(a, b, q)
    assert est.peak_correlation < 0.3


def test_estimate_snippet_too_short(rng):
    a = series(np.abs(rng.normal(0.0, 1.0, 300)))
    q = quantizer_for(a, a)
    with pytest.raises(ValueError, match="snippet too short"):
        estimate_offset(a, a.slice_time(0.0, 2000.0), q)


def test_estimate_shift_equivariance(monkeypatch):
    monkeypatch.setattr(sync, "MAX_LAG_MS", 600.0)
    rng = np.random.default_rng(37)
    base, _ = peaked_stream(rng, n=1500, n_peaks=25)
    q = quantizer_for(base, base)
    reference = estimate_offset(base, base, q).offset_ms
    for _ in range(100):
        k = int(rng.integers(-30, 31))
        shifted = series(np.roll(base.values, k))  # content delayed by k samples
        est = estimate_offset(base, shifted, q)
        assert est.offset_ms == pytest.approx(reference + 10.0 * k)


def test_estimate_invariant_under_quintile_preserving_transform(rng, monkeypatch):
    monkeypatch.setattr(sync, "MAX_LAG_MS", 500.0)
    base, idx = peaked_stream(rng, n=1200, n_peaks=30)
    other = series(np.roll(base.values, 7))
    peaks = base.values[idx]
    q1 = sync._quantile_boundaries(peaks, "apf"), sync._quantile_boundaries(peaks, "ipf")
    q2 = sync._quantile_boundaries(peaks**3, "apf"), q1[1]
    a = estimate_offset(base, other, q1)
    b = estimate_offset(series(base.values**3), other, q2)
    assert a.offset_ms == b.offset_ms


def test_estimate_accounts_for_start_time(monkeypatch):
    monkeypatch.setattr(sync, "MAX_LAG_MS", 600.0)
    rng = np.random.default_rng(41)
    base, _ = peaked_stream(rng, n=1500, n_peaks=25)
    q = quantizer_for(base, base)
    moved = series(base.values, start=base.start_time + 130.0)
    est = estimate_offset(base, moved, q)
    assert est.offset_ms == pytest.approx(130.0)


def test_estimate_deterministic(rng):
    a, _ = peaked_stream(rng)
    b = series(np.roll(a.values, -9))
    q = quantizer_for(a, b)
    e1 = estimate_offset(a, b, q)
    e2 = estimate_offset(a, b, q)
    assert e1 == e2


# --- validate_offset ----------------------------------------------------------------


def _dense_fixture(seed, injected=-270.0, duration=50.0, shots=40):
    import shotfuse as sf
    from shotfuse.imu import decompose, ipf, prepare_components

    cfg = sf.SynthConfig(duration_s=duration, shot_count=shots,
                         injected_offset_ms=injected, seed=seed)
    audio, imu, _ = sf.synthesize(cfg)
    model = sf.FilterModel(np.r_[1.0, np.zeros(22)], 0.0)
    apf_s = sf.audio_likelihood(audio, model)
    ipf_s = ipf(prepare_components(decompose(imu)))
    return apf_s, ipf_s, self_calibrate_quantizer(apf_s, ipf_s)


def tail(s):
    """The 10-s validation tail after a 20-s estimation snippet, cut as synced_series cuts its 5-s one."""
    return s.slice_time(20000, 30000)


def test_validate_stationary_offset():
    apf_s, ipf_s, q = _dense_fixture(3)
    est = estimate_offset(apf_s.slice_time(0, 20000), ipf_s.slice_time(0, 20000), q)
    assert validate_offset(tail(apf_s), tail(ipf_s), q, est)


def test_validate_rejects_drifted_candidate():
    apf_s, ipf_s, q = _dense_fixture(4)
    est = estimate_offset(apf_s.slice_time(0, 20000), ipf_s.slice_time(0, 20000), q)
    drifted = OffsetEstimate(est.offset_ms + 200.0, est.peak_correlation, est.window_seconds)
    assert not validate_offset(tail(apf_s), tail(ipf_s), q, drifted)


def test_validate_rejects_silent_window(rng):
    active, _ = peaked_stream(rng, n=2000, n_peaks=30)
    # streams share peaks during estimation, then go quiet (independent noise)
    a_vals = np.concatenate([active.values, np.abs(rng.normal(0.0, 0.005, 1000))])
    b_vals = np.concatenate([np.roll(active.values, 3), np.abs(rng.normal(0.0, 0.005, 1000))])
    a = series(a_vals)
    b = series(b_vals)
    q = quantizer_for(a, b)
    est = estimate_offset(a.slice_time(0, 20000), b.slice_time(0, 20000), q)
    assert not validate_offset(tail(a), tail(b), q, est)


def test_exactly_tied_peaks_resolve_to_smaller_lag():
    # Levels equal the values under these boundaries. One event in the
    # audio train; two equal events in the longer IMU train align with it
    # at lags 2 and 20 with identical window statistics.
    levels = np.array([0.5, 1.5, 2.5, 3.5])
    q = levels, levels
    apf = np.zeros(600)
    apf[300] = 4.0
    ipf = np.zeros(620)
    ipf[[302, 320]] = 4.0
    a, b = SampleSeries(0.0, apf), SampleSeries(0.0, ipf)
    corr = cross_correlate(triangle_smooth(a), triangle_smooth(b), 200)
    assert corr[2 + 200] == corr[20 + 200] == corr.max()
    est = estimate_offset(a, b, q)
    assert est.offset_ms == 20.0
    assert est.peak_correlation == corr[2 + 200]

    # A mirror-symmetric pair ties at -k and +k with equal statistics; the negative lag wins.
    apf = np.zeros(601)
    apf[300] = 4.0
    ipf = np.zeros(601)
    ipf[[280, 320]] = 4.0
    a, b = SampleSeries(0.0, apf), SampleSeries(0.0, ipf)
    corr = cross_correlate(triangle_smooth(a), triangle_smooth(b), 200)
    assert corr[-20 + 200] == corr[20 + 200] == corr.max()
    est = estimate_offset(a, b, q)
    assert est.offset_ms == -200.0
    assert est.peak_correlation == corr[20 + 200]

    # A silent audio train correlates 0 at every lag; the tie goes to lag 0.
    est = estimate_offset(SampleSeries(0.0, np.zeros(601)), b, q)
    assert est.offset_ms == 0.0
    assert est.peak_correlation == 0.0


def test_percentile_helper_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(61)
    arrays = []
    for n in (5, 6, 7, 11, 100, 999, 2900, 6001, 60_000):
        arrays += [
            rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3),
            np.round(rng.exponential(1.0, n), 1),  # rounded values, many ties
            rng.integers(0, 4, n).astype(float),  # a handful of distinct values
            np.abs(rng.normal(0.0, 0.01, n)) + (rng.random(n) < 0.05) * rng.uniform(1.0, 4.0, n),
        ]
    for v in arrays:
        v.flags.writeable = False  # series values are read-only
        for q in (90.0, [20.0, 40.0, 60.0, 80.0], [0.0, 100.0, 50.0, 12.5], float(rng.uniform(0, 100))):
            got = sync._percentile(v, q)
            assert np.array_equal(got, np.percentile(v, q)), (v.size, q)
            assert np.shape(got) == np.shape(np.percentile(v, q))
    with_nan = rng.random(50)
    with_nan[7] = np.nan
    assert np.isnan(sync._percentile(with_nan, [20.0, 90.0])).all()
