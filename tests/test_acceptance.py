"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import shotfuse as sf
from shotfuse import (
    FilterModel,
    LabelSet,
    PcmAudio,
    SynthConfig,
    TrainConfig,
)
from shotfuse.audio import MICROFRAME_SAMPLES, apf, short_time_energy
from shotfuse.imu import ImuStream, decompose, ipf, prepare_components
from shotfuse.fusion import select_candidates
from shotfuse.pipeline import (
    candidate_dataset,
    shuffle_split,
    synced_series,
    window_metrics,
    windows_from_labels,
)
from shotfuse.series import SampleSeries, fir_frames
from shotfuse.sync import estimate_offset, quantize, self_calibrate_quantizer
from shotfuse.training import center_forms, total_gradients, train_filter
from shotfuse.forest import classify, train_forest
from shotfuse.events import dedup, evaluate
from test_training import labeled, stack_windows, window_scores


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


# --- 1. formula oracles -------------------------------------------------------


def test_criterion_1_formula_oracles():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0

    for _ in range(100):
        # short-time energy vs per-frame loop over the decoded PCM samples
        audio = PcmAudio.from_float(rng.standard_normal(400))
        x = audio.samples / 32768.0
        ste = short_time_energy(audio, np.array([1.0])).values
        for i in range(5):
            expected = sum(float(v) ** 2 for v in x[80 * i : 80 * (i + 1)])
            worst = max(worst, abs(ste[i] - expected) / max(abs(expected), 1e-300))

        # audio peak function vs direct formula
        e = rng.uniform(0.0, 5.0, 20)
        out = apf(SampleSeries(0.0, e)).values
        for j in range(out.size):
            i = j + 5
            expected = e[i] - sum(e[i - 5 : i + 6]) / 11.0
            worst = max(worst, abs(out[j] - expected) / max(abs(expected), 1e-12))

        # axis decomposition vs per-sample formula
        a = rng.uniform(-2.0, 2.0, (12, 3))
        g = rng.uniform(-500.0, 500.0, (12, 3))
        comps = decompose(ImuStream([10.0 * np.arange(12), *a.T, *g.T]))
        for k in range(12):
            worst = max(worst, abs(comps.a_rad.values[k] - a[k, 0]))
            expected = float(np.sqrt(a[k, 1] ** 2 + a[k, 2] ** 2))
            worst = max(worst, abs(comps.a_tan.values[k] - expected) / max(expected, 1e-12))
            worst = max(worst, abs(comps.w_rad.values[k] - g[k, 0]))
            expected = float(np.sqrt(g[k, 1] ** 2 + g[k, 2] ** 2))
            worst = max(worst, abs(comps.w_tan.values[k] - expected) / max(expected, 1e-12))

        # motion peak function (mean convention) vs direct formula
        ar = rng.uniform(-2.0, 2.0, 25)
        wt = rng.uniform(0.0, 500.0, 25)
        zero = SampleSeries(0.0, np.zeros(25))
        out = ipf(
            sf.ImuComponents(
                SampleSeries(0.0, ar), zero, zero, SampleSeries(0.0, wt)
            )
        ).values
        for j in range(out.size):
            i = j + 4
            expected = (ar[i] - np.mean(ar[i - 4 : i + 6])) * (wt[i] - np.mean(wt[i - 4 : i + 6]))
            worst = max(worst, abs(out[j] - expected) / max(abs(expected), 1e-12))

    elapsed = time.time() - t0
    verdict(
        1,
        worst < 1e-12 and elapsed < 5.0,
        f"formula oracles match within {worst:.2e} relative (100 inputs each) in {elapsed:.2f}s",
    )


# --- 2. gradient check ----------------------------------------------------------


def test_criterion_2_gradient_check():
    step = 1e-4
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        weights = rng.normal(0.0, 0.2, 23)
        bias = float(rng.normal(0.0, 0.5))
        # The window of the center microframe of 21 drawn microframes.
        draw = PcmAudio.from_float(0.3 * rng.standard_normal(21 * MICROFRAME_SAMPLES)).samples
        samples = draw[None, 378:1280]
        forms = center_forms(PcmAudio(draw), [378])
        score = window_scores(samples / 32768.0, weights, bias)[0]
        labels = [1 if score <= 0.0 else 0]  # force a nonzero loss
        loss, d_w, d_b = total_gradients(forms, labels, weights, bias)
        assert loss != 0.0

        grads = np.r_[d_w, d_b]
        for t in range(24):
            up_w, down_w = weights.copy(), weights.copy()
            up_b = down_b = bias
            if t < 23:
                up_w[t] += step
                down_w[t] -= step
            else:
                up_b = bias + step
                down_b = bias - step
            fd = (
                total_gradients(forms, labels, up_w, up_b)[0]
                - total_gradients(forms, labels, down_w, down_b)[0]
            ) / (2 * step)
            rel = abs(fd - grads[t]) / max(abs(fd), abs(grads[t]), 1e-8)
            worst = max(worst, rel)
    verdict(2, worst < 1e-4, f"analytic vs central-difference gradients: worst rel err {worst:.2e}")


# --- 3. filter training ----------------------------------------------------------


def test_criterion_3_filter_training():
    rng = np.random.default_rng(300)
    # Each window is cut from 21 drawn microframes: samples 378 to 1280 are
    # the filter history and the macroframe of the center microframe.
    span = 21 * MICROFRAME_SAMPLES
    window = slice(378, 1280)

    def burst_window():
        x = 0.002 * rng.standard_normal(span)
        tone = np.sin(2 * np.pi * 1000.0 * np.arange(80) / 8000.0)
        mid = span // 2
        x[mid - 40 : mid + 40] += tone
        return PcmAudio.from_float(x[window]).samples

    def noise_window():
        return PcmAudio.from_float(0.02 * rng.standard_normal(span)[window]).samples

    # The windows lie end to end in one recording, bursts first.
    rows = [burst_window() for _ in range(30)]
    rows += [noise_window() for _ in range(600)]  # 1:20 ratio
    corpus, audio = labeled(rows, np.repeat([1, 0], [30, 600]))
    train_set, held_out = shuffle_split(corpus, seed=300)

    cfg = TrainConfig(seed=300, max_epochs=200)
    model = train_filter(train_set, cfg, audio)

    samples, labels = stack_windows(train_set, audio)
    scores = window_scores(samples, model.weights, model.bias)
    wrong = int(np.count_nonzero((scores > 0.0) != labels))
    metrics = window_metrics(model, held_out, audio)
    verdict(
        3,
        wrong == 0 and metrics["f_score"] >= 0.9,
        f"training misclassifications {wrong}; held-out F {metrics['f_score']:.3f}",
    )


# --- 4. synchronization -----------------------------------------------------------


def test_criterion_4_synchronization():
    rng = np.random.default_rng(400)
    model = FilterModel(np.r_[1.0, np.zeros(22)], 0.0)
    errors = []
    slowest = 0.0
    for k in range(50):
        injected = float(rng.uniform(-500.0, 500.0))
        cfg = SynthConfig(
            duration_s=20.0, shot_count=16, injected_offset_ms=injected, seed=4000 + k
        )
        t0 = time.time()
        audio, imu, _ = sf.synthesize(cfg)
        apf_s = sf.audio_likelihood(audio, model)
        ipf_s = ipf(prepare_components(decompose(imu)))
        q = self_calibrate_quantizer(apf_s, ipf_s)
        est = estimate_offset(apf_s, ipf_s, q)
        slowest = max(slowest, time.time() - t0)
        errors.append(est.offset_ms - injected)
    mae = float(np.mean(np.abs(errors)))
    verdict(
        4,
        mae <= 40.0 and slowest < 1.0,
        f"offset MAE {mae:.1f} ms over 50 trials; slowest trial {slowest:.2f}s",
    )


# --- 5 + 6. end-to-end fusion and determinism ---------------------------------------


def imu_only_events(imu: ImuStream, threshold: float, offset_ms: float = 0.0) -> np.ndarray:
    """Single-modality baseline: IPF candidates above a fixed threshold.

    offset_ms (IMU minus audio time) relocates the events onto the audio
    clock so they can be scored against audio-clock labels; a standalone
    IMU system would keep its own clock and pass 0.
    """
    likelihood = ipf(prepare_components(decompose(imu))).shifted(-offset_ms)
    times = select_candidates(likelihood)
    values = likelihood.values[likelihood.index_at(times)]
    hits = np.flatnonzero(values > threshold)
    kept = hits[dedup(times[hits])]
    return np.column_stack((times[kept], values[kept]))


def calibrate_ipf_threshold(
    ipf_common: SampleSeries, labels: LabelSet, tolerance_ms: float = 100.0
) -> float:
    """Threshold on IPF candidate values that maximizes F against labels.

    Used to give the motion-only baseline a fair, training-data-derived
    decision rule. Ties prefer the higher threshold.
    """
    times = select_candidates(ipf_common)
    values = ipf_common.values[ipf_common.index_at(times)]
    uniq = np.unique(values)
    cuts = [uniq.max() + 1.0]
    cuts += [(uniq[i] + uniq[i + 1]) / 2.0 for i in range(uniq.size - 1)]
    cuts += [uniq.min() - 1.0]
    best_f = -1.0
    best_cut = 0.0
    for cut in cuts:
        above = times[values > cut]
        f = evaluate(above[dedup(above)], labels, tolerance_ms).f_score
        if f > best_f or (f == best_f and cut > best_cut):
            best_f = f
            best_cut = cut
    return float(best_cut)


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """Filter, forest, and IPF threshold trained on a separate corpus."""
    cfg = SynthConfig(
        duration_s=240.0,
        shot_count=60,
        injected_offset_ms=-150.0,
        distractor_rate_per_min=5.0,
        seed=510,
    )
    audio, imu, labels = sf.synthesize(cfg)
    windows = windows_from_labels(audio, labels, seed=510)
    train_set, _ = shuffle_split(windows, seed=510)
    filter_model = train_filter(train_set, TrainConfig(seed=510), audio)

    synced = synced_series(sf.audio_likelihood(audio, filter_model), decompose(imu))
    forest = train_forest(*candidate_dataset(synced, labels), tree_count=50, seed=510)
    threshold = calibrate_ipf_threshold(synced.ipf, labels)
    return filter_model, forest, threshold


def test_criterion_5_end_to_end_fusion(trained_models, monkeypatch):
    filter_model, forest, ipf_threshold = trained_models
    corpus = SynthConfig(
        duration_s=600.0,
        shot_count=100,
        injected_offset_ms=-270.0,
        distractor_rate_per_min=5.0,
        seed=500,
    )
    audio, imu, labels = sf.synthesize(corpus)

    monkeypatch.setattr(sf.sync, "VALIDATION_SECONDS", 60.0)
    t0 = time.time()
    synced = synced_series(sf.audio_likelihood(audio, filter_model), decompose(imu))
    events = sf.detect_shots(synced, forest)
    elapsed = time.time() - t0
    est = synced.offset

    fused = evaluate(events[:, 0], labels, 100.0)
    audio_only = evaluate(sf.audio_only_events(audio, filter_model)[:, 0], labels, 100.0)
    imu_only = evaluate(
        imu_only_events(imu, ipf_threshold, est.offset_ms)[:, 0], labels, 100.0
    )
    gap_audio = fused.f_score - audio_only.f_score
    gap_imu = fused.f_score - imu_only.f_score
    verdict(
        5,
        fused.f_score >= 0.95 and gap_audio >= 0.05 and gap_imu >= 0.05 and elapsed < 30.0,
        (
            f"fused F {fused.f_score:.3f} vs audio-only {audio_only.f_score:.3f} "
            f"and imu-only {imu_only.f_score:.3f} (offset {est.offset_ms:+.0f} ms) in {elapsed:.1f}s"
        ),
    )


def test_criterion_6_determinism(tmp_path):
    cli = [sys.executable, "-m", "shotfuse"]
    cfg = {
        "duration_s": 40.0,
        "shot_count": 24,
        "injected_offset_ms": -270.0,
        "distractor_rate_per_min": 2.0,
        "seed": 60,
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data"
    subprocess.run(
        cli + ["synth", "--config", str(cfg_path), "--out-dir", str(data)],
        check=True, capture_output=True,
    )
    filter_path = tmp_path / "filter.json"
    subprocess.run(
        cli + ["train-filter", "--data", str(data), "--out", str(filter_path),
               "--epochs", "60", "--seed", "6"],
        check=True, capture_output=True,
    )

    forest_blobs = []
    for name in ("fa.json", "fb.json"):
        out = tmp_path / name
        subprocess.run(
            cli + ["train-forest", "--data", str(data), "--filter", str(filter_path),
                   "--out", str(out), "--seed", "6"],
            check=True, capture_output=True,
        )
        forest_blobs.append(out.read_bytes())

    detect_blobs = []
    for name in ("da", "db"):
        out_dir = tmp_path / name
        subprocess.run(
            cli + ["detect", "--audio", str(data / "audio.wav"), "--imu", str(data / "imu.csv"),
                   "--filter", str(filter_path), "--forest", str(tmp_path / "fa.json"),
                   "--out-dir", str(out_dir)],
            check=True, capture_output=True,
        )
        detect_blobs.append(
            (out_dir / "detections.csv").read_bytes() + (out_dir / "sync.json").read_bytes()
        )

    verdict(
        6,
        forest_blobs[0] == forest_blobs[1] and detect_blobs[0] == detect_blobs[1],
        "repeated train-forest and detect runs are byte-identical",
    )


# --- 7. property suites -------------------------------------------------------------


def test_criterion_7_property_suites(monkeypatch):
    rng = np.random.default_rng(700)
    checks = []

    # linearity of the front convolution
    kernel = rng.standard_normal(11)

    def filtered(v):  # the 50 PCM samples as 5 frames of 10; flatten copies, for a block lives one step
        blocks = fir_frames(PcmAudio(v.astype(np.int16)).read_into, kernel, 10, 5)
        return np.concatenate([block.flatten() for _, _, block in blocks])

    ok = True
    for _ in range(100):
        # Integer weights on samples of at most 1024 steps keep every sum a PCM sample.
        x, y = rng.integers(-1024, 1024, (2, 50))
        a, b = rng.integers(-15, 16, 2)
        lhs = filtered(a * x + b * y)
        rhs = a * filtered(x) + b * filtered(y)
        ok = ok and np.allclose(lhs, rhs, atol=1e-9)
    checks.append(("fir linearity", ok))

    # shift equivariance of the offset estimator
    base = np.abs(rng.normal(0.0, 0.01, 1200))
    base[rng.choice(np.arange(50, 1150), 25, replace=False)] += rng.uniform(1, 4, 25)
    s = SampleSeries(0.0, base)
    q = self_calibrate_quantizer(s, s)
    monkeypatch.setattr(sf.sync, "MAX_LAG_MS", 500.0)
    ref = estimate_offset(s, s, q).offset_ms
    ok = True
    for _ in range(100):
        k = int(rng.integers(-25, 26))
        moved = SampleSeries(0.0, np.roll(base, k))
        ok = ok and estimate_offset(s, moved, q).offset_ms == pytest.approx(ref + 10.0 * k)
    checks.append(("offset shift equivariance", ok))

    # quantization monotonicity
    ok = True
    for _ in range(100):
        bounds = np.cumsum(rng.uniform(0.1, 1.0, 4))
        x, y = np.sort(rng.uniform(-1.0, 6.0, 2))
        lx = quantize(SampleSeries(0.0, [x]), bounds).values[0]
        ly = quantize(SampleSeries(0.0, [y]), bounds).values[0]
        ok = ok and lx <= ly
    checks.append(("quantization monotonicity", ok))

    # dedup idempotence
    ok = True
    for _ in range(100):
        times = np.sort(rng.uniform(0, 30000, int(rng.integers(0, 50))))
        once = times[dedup(times)]
        ok = ok and np.array_equal(dedup(once), np.arange(once.size))
    checks.append(("dedup idempotence", ok))

    # vote-majority consistency
    X = np.array([
        np.r_[rng.uniform(2.0, 4.0) if k % 2 else rng.uniform(-1.0, 1.0), rng.standard_normal(4)]
        for k in range(40)
    ])
    model = train_forest(X, np.arange(40) % 2, tree_count=7, seed=70)

    def tree_vote(tree, x):
        node = 0
        while tree.leaf_class[node] < 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        return int(tree.leaf_class[node])

    ok = True
    for _ in range(100):
        x = rng.uniform(-2.0, 5.0, 5)
        votes = sum(tree_vote(t, x) for t in model.trees)
        labels, scores = classify(model, x[None, :])
        ok = ok and scores[0] == votes / 7.0 and labels[0] == (1 if scores[0] > 0.5 else 0)
    checks.append(("vote-majority consistency", ok))

    # TP/FP/FN accounting
    ok = True
    for _ in range(100):
        e_times = np.sort(rng.uniform(0, 10000, int(rng.integers(0, 20))))
        l_times = np.unique(rng.uniform(0, 10000, int(rng.integers(1, 20))))
        report = evaluate(e_times, LabelSet(l_times), 120.0)
        ok = ok and report.true_positives + report.false_negatives == l_times.size
        ok = ok and report.true_positives + report.false_positives == e_times.size
    checks.append(("match accounting", ok))

    failing = [name for name, good in checks if not good]
    verdict(7, not failing, f"property suites (100 cases each): {len(checks)} suites, failing: {failing or 'none'}")
