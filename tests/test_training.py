import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import shotfuse
from shotfuse import LabeledAudioWindow, PcmAudio, TrainConfig, train_filter
from shotfuse import training
from shotfuse.audio import PCM_SCALE
from shotfuse.pipeline import window_metrics
from shotfuse.training import (
    FORM_CHUNK_WINDOWS,
    INIT_STD,
    PACKED_TAPS,
    center_forms,
    form_scores,
    total_gradients,
)

WINDOW_SAMPLES = 21 * 80


def pcm(x):
    """Float samples quantized to the window's 16-bit PCM."""
    return PcmAudio.from_float(x).samples


def random_pcm(rng, shape, scale=0.3):
    """A (windows, samples) int16 matrix of quantized Gaussian noise."""
    return np.array([pcm(row) for row in scale * rng.standard_normal(shape)])


def silence(n):
    return np.zeros(n, dtype=np.int16)


def unpack(forms):
    """Full symmetric (windows, 23, 23) matrices of packed forms."""
    rows, cols = np.triu_indices(23)
    full = np.empty((len(forms), 23, 23))
    full[:, rows, cols] = forms
    full[:, cols, rows] = forms
    return full


def reference_score(samples, weights, bias):
    """Brute-force oracle: filter the whole window, then score its center 10 ms microframe."""
    filtered = np.convolve(samples, weights)[: samples.size]
    frame_len = 80
    n_frames = samples.size // frame_len
    energy = np.sum(filtered[: n_frames * frame_len].reshape(n_frames, frame_len) ** 2, axis=1)
    center = n_frames // 2
    return energy[center] - energy[center - 5 : center + 6].mean() + bias


def stack_windows(windows):
    """Decoded (windows, samples) matrix and (windows,) labels of equal-length windows."""
    lengths = {w.samples.size for w in windows}
    if len(lengths) > 1:
        raise ValueError(f"windows of mixed length {sorted(lengths)}; all must share one length")
    shape = (len(windows), lengths.pop() if lengths else 0)
    samples = np.array([w.samples for w in windows], dtype=np.int16).reshape(shape)
    return samples * PCM_SCALE, np.array([w.label for w in windows], dtype=int)


def _center_history(samples, n_taps):
    """Each row's center span (training._center_span) as a new contiguous float matrix."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a (windows, samples) matrix")
    start, stop = training._center_span(samples.shape[1], n_taps)
    return np.pad(samples[:, max(start, 0) : stop], ((0, 0), (max(-start, 0), 0)))


def window_scores(samples, weights, bias):
    """Biased score of each row's center microframe, by refiltering its center macroframe.

    The oracle the packed forms are checked against: samples is a decoded
    (windows, samples) matrix; the score is the center frame's energy
    minus the mean energy of its macroframe, plus the bias.
    """
    history = _center_history(samples, weights.size)
    taps = sliding_window_view(history, weights.size, axis=1)
    filtered = np.einsum("nkj,j->nk", taps, weights[::-1])
    blocks = filtered.reshape(len(history), 11, 80)
    energy = np.einsum("nfk,nfk->nf", blocks, blocks)
    return energy[:, 5] - energy.mean(axis=1) + bias


def loss(samples, labels, weights, bias):
    return total_gradients(center_forms(samples), labels, weights, bias)[0]


# --- the oracle scorer against the full-window oracle ------------------------


@pytest.mark.parametrize("length", [902, 1000, WINDOW_SAMPLES])
def test_window_scores_match_full_window_convolution(length):
    # 902 is the shortest window, whose filter history is all zero padding;
    # 1000 is not a whole number of microframes.
    rng = np.random.default_rng(length)
    for bias in (0.0, 0.7):
        weights = rng.normal(0.0, 0.3, 23)
        samples = rng.standard_normal((6, length))
        expected = [reference_score(row, weights, bias) for row in samples]
        got = window_scores(samples, weights, bias)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_window_scores_reject_short_and_unbatched_windows():
    weights = np.ones(23)
    with pytest.raises(ValueError, match="window too short"):
        window_scores(np.zeros((2, 901)), weights, 0.0)
    with pytest.raises(ValueError, match="matrix"):
        window_scores(np.zeros(WINDOW_SAMPLES), weights, 0.0)


def test_mixed_window_lengths_rejected():
    windows = [LabeledAudioWindow(silence(1000), 1), LabeledAudioWindow(silence(WINDOW_SAMPLES), 0)]
    with pytest.raises(ValueError, match="mixed length"):
        stack_windows(windows)
    with pytest.raises(ValueError, match="mixed length"):
        train_filter(windows, TrainConfig(max_epochs=0))
    with pytest.raises(ValueError, match="mixed length"):
        center_forms([w.samples for w in windows])


def test_stack_windows_keeps_rows_and_labels():
    windows = [LabeledAudioWindow(np.full(5, i, dtype=np.int16), i % 2) for i in range(3)]
    samples, labels = stack_windows(windows)
    # Rows come back decoded: PCM step i is i / 32768.
    assert np.array_equal(samples, np.repeat([[0.0], [1.0], [2.0]], 5, axis=1) / 32768)
    assert np.array_equal(labels, [0, 1, 0])
    samples, labels = stack_windows([])
    assert samples.shape == (0, 0) and labels.shape == (0,)


# --- the packed forms against exact and dense oracles ------------------------


def dense_form(samples, n_taps=23):
    """X^T diag(c) X over the center macroframe's tap vectors, from the full-window convolution."""
    padded = np.r_[np.zeros(n_taps - 1), samples]
    center = samples.size // 80 // 2
    first = (center - 5) * 80
    # Row k holds the samples filtered output first + k reads, newest first.
    X = np.array([padded[first + k : first + k + n_taps][::-1] for k in range(11 * 80)])
    c = np.full(11 * 80, -1.0 / 11)
    c[5 * 80 : 6 * 80] += 1.0
    return X.T @ (c[:, None] * X)


def exact_form(pcm_row, n_taps=23):
    """The packed form in Python integers, rounded once: M / (11 * 2^30) with M = X^T diag(11 c) X."""
    padded = [0] * (n_taps - 1) + [int(v) for v in pcm_row]
    center = len(pcm_row) // 80 // 2
    first = (center - 5) * 80
    X = [padded[first + k : first + k + n_taps][::-1] for k in range(11 * 80)]
    c = [10 if 5 * 80 <= k < 6 * 80 else -1 for k in range(11 * 80)]
    columns = list(zip(*X))
    weighted = [[ck * v for ck, v in zip(c, col)] for col in columns]
    # Python's int / int is the correctly rounded quotient, as Fraction(M, 11 << 30) would give.
    return [
        sum(a * b for a, b in zip(weighted[i], columns[j])) / (11 << 30)
        for i in range(n_taps)
        for j in range(i, n_taps)
    ]


@pytest.mark.parametrize("length", [902, 959, WINDOW_SAMPLES])
def test_center_forms_equal_the_exact_integer_form(length):
    # At 902 and 959 samples the center span starts 22 samples before the
    # window, so the history is partly zero padding.
    rng = np.random.default_rng(length)
    rows = [
        rng.integers(-32768, 32768, length, dtype=np.int16),
        rng.integers(-32768, 32768, length, dtype=np.int16),
        np.full(length, -32768, dtype=np.int16),
        np.resize(np.array([-32768, 32767], dtype=np.int16), length),
        np.where(rng.random(length) < 0.5, -32768, 32767).astype(np.int16),
        silence(length),
    ]
    forms = center_forms(rows)
    assert forms.shape == (len(rows), PACKED_TAPS)
    for form, row in zip(forms, rows):
        assert form.tolist() == exact_form(row)
    assert not forms[-1].any()


def test_center_forms_bytes_do_not_depend_on_chunking(rng, monkeypatch):
    samples = rng.integers(-32768, 32768, (100, WINDOW_SAMPLES), dtype=np.int16)
    digests = set()
    for chunk in (1, 7, 64):
        monkeypatch.setattr(training, "FORM_CHUNK_WINDOWS", chunk)
        digests.add(hashlib.sha256(center_forms(samples).tobytes()).hexdigest())
        digests.add(hashlib.sha256(center_forms(list(samples)).tobytes()).hexdigest())
    assert len(digests) == 1


FORMS_DIGEST = """
import hashlib, numpy as np
from shotfuse.training import center_forms
samples = np.random.default_rng(5).integers(-32768, 32768, (300, 1680), dtype=np.int16)
print(hashlib.sha256(center_forms(samples).tobytes()).hexdigest())
"""


def test_center_forms_bytes_do_not_depend_on_blas_threads():
    src = str(Path(shotfuse.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", FORMS_DIGEST], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64


def test_center_forms_reject_float_windows():
    with pytest.raises(ValueError, match=r"^windows must be 16-bit PCM \(int16\), got float64$"):
        center_forms(np.zeros((2, WINDOW_SAMPLES)))
    assert center_forms([]).shape == (0, PACKED_TAPS)


@pytest.mark.parametrize("length", [902, 1000, WINDOW_SAMPLES])
def test_center_forms_match_dense_oracle_and_scores(length):
    rng = np.random.default_rng(10 + length)
    samples = random_pcm(rng, (5, length))
    decoded = samples * PCM_SCALE
    forms = unpack(center_forms(samples))
    for form, row in zip(forms, decoded):
        expected = dense_form(row)
        np.testing.assert_allclose(form, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    for bias in (0.0, -0.4):
        weights = rng.normal(0.0, 0.3, 23)
        np.testing.assert_allclose(
            form_scores(center_forms(samples), weights, bias),
            window_scores(decoded, weights, bias),
            rtol=1e-12,
        )


def scorer_loss(samples, labels, weights, bias):
    """The decision loss computed from window_scores alone."""
    score = window_scores(samples * PCM_SCALE, weights, bias)
    predicted = score > 0.0
    sign = (predicted & (labels == 0)).astype(float) - (~predicted & (labels == 1))
    return float(np.sum(sign * score))


def test_form_gradients_match_central_differences_of_the_scorer():
    rng = np.random.default_rng(55)
    step = 1e-4
    for _ in range(5):
        weights = rng.normal(0.0, 0.2, 23)
        bias = float(rng.normal(0.0, 0.5))
        samples = random_pcm(rng, (4, WINDOW_SAMPLES))
        labels = (window_scores(samples * PCM_SCALE, weights, bias) <= 0.0).astype(int)
        labels[0] = 1 - labels[0]  # one correctly classified window contributes nothing
        value, d_w, d_b = total_gradients(center_forms(samples), labels, weights, bias)
        assert value == pytest.approx(scorer_loss(samples, labels, weights, bias), rel=1e-12)
        for t in range(24):
            up_w, down_w = weights.copy(), weights.copy()
            up_b = down_b = bias
            if t < 23:
                up_w[t] += step
                down_w[t] -= step
            else:
                up_b, down_b = bias + step, bias - step
            fd = (scorer_loss(samples, labels, up_w, up_b) - scorer_loss(samples, labels, down_w, down_b)) / (
                2 * step
            )
            analytic = d_w[t] if t < 23 else d_b
            assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8) < 1e-4


def test_total_gradients_reject_mismatched_shapes():
    forms = center_forms(np.zeros((2, WINDOW_SAMPLES), dtype=np.int16))
    with pytest.raises(ValueError, match="stack"):
        total_gradients(forms[0], [0], np.ones(23), 0.0)
    with pytest.raises(ValueError, match="stack"):
        total_gradients(forms, [0, 1], np.ones(22), 0.0)
    with pytest.raises(ValueError, match="stack"):
        total_gradients(unpack(forms), [0, 1], np.ones(23), 0.0)
    with pytest.raises(ValueError, match="one label per window"):
        total_gradients(forms, [0], np.ones(23), 0.0)


# --- gradient correctness (finite-difference oracle) ----------------------


def check_central_differences(samples, labels, weights, bias, step=1e-4):
    value, d_w, d_b = total_gradients(center_forms(samples), labels, weights, bias)
    for t in range(weights.size):
        up, down = weights.copy(), weights.copy()
        up[t] += step
        down[t] -= step
        fd = (loss(samples, labels, up, bias) - loss(samples, labels, down, bias)) / (2 * step)
        assert abs(fd - d_w[t]) / max(abs(fd), abs(d_w[t]), 1e-8) < 1e-4
    fd_bias = (loss(samples, labels, weights, bias + step) - loss(samples, labels, weights, bias - step)) / (
        2 * step
    )
    assert abs(fd_bias - d_b) / max(abs(fd_bias), abs(d_b), 1e-8) < 1e-4
    return value


@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_central_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    weights = rng.normal(0.0, 0.2, 23)
    bias = float(rng.normal(0.0, 0.5))
    samples = random_pcm(rng, (3, WINDOW_SAMPLES))
    # Every window misclassified: a missed shot where the score is not positive.
    labels = (window_scores(samples * PCM_SCALE, weights, bias) <= 0.0).astype(int)
    assert check_central_differences(samples, labels, weights, bias) > 0.0


def test_gradients_on_a_mixed_batch():
    """Correct and misclassified windows of both labels in one batch."""
    rng = np.random.default_rng(77)
    weights = rng.normal(0.0, 0.2, 23)
    samples = random_pcm(rng, (40, WINDOW_SAMPLES))
    raw = window_scores(samples * PCM_SCALE, weights, 0.0)
    bias = -float(np.median(raw))
    scores = raw + bias
    # Keep windows whose score a finite-difference step cannot flip.
    positive = np.flatnonzero(scores > 1e-2)[:4]
    negative = np.flatnonzero(scores < -1e-2)[:4]
    assert positive.size == negative.size == 4
    rows = np.r_[positive, negative]
    # One correct shot, three false alarms, two correct non-shots and two
    # missed shots, so the bias gradient is not zero either.
    labels = np.array([1, 0, 0, 0, 0, 0, 1, 1])
    predicted = (scores[rows] > 0.0).astype(int)
    assert {(p, l) for p, l in zip(predicted, labels)} == {(1, 1), (1, 0), (0, 0), (0, 1)}

    value = check_central_differences(samples[rows], labels, weights, bias)
    # Only the misclassified rows contribute to the loss.
    wrong = predicted != labels
    assert value == pytest.approx(np.sum(np.abs(scores[rows][wrong])), rel=1e-12)


def test_loss_is_nonnegative_everywhere(rng):
    for _ in range(50):
        weights = rng.normal(0.0, 0.3, 23)
        bias = float(rng.normal(0.0, 1.0))
        samples = random_pcm(rng, (4, WINDOW_SAMPLES))
        assert loss(samples, rng.integers(0, 2, 4), weights, bias) >= 0.0


# --- training behavior ------------------------------------------------------


def burst_window(rng, amplitude=1.0):
    x = np.zeros(WINDOW_SAMPLES)
    center = WINDOW_SAMPLES // 2
    tone = amplitude * np.sin(2 * np.pi * 1000.0 * np.arange(80) / 8000.0)
    x[center - 40 : center + 40] = tone
    return LabeledAudioWindow(pcm(x), 1)


def noise_window(rng, scale=0.02):
    return LabeledAudioWindow(pcm(scale * rng.standard_normal(WINDOW_SAMPLES)), 0)


def separable_corpus(rng, positives=12):
    data = [burst_window(rng) for _ in range(positives)]
    data += [noise_window(rng) for _ in range(20 * positives)]
    return data


def count_misclassified(model, data):
    samples, labels = stack_windows(data)
    predicted = window_scores(samples, model.weights, model.bias) > 0.0
    return int(np.count_nonzero(predicted != labels))


def test_training_converges_on_separable_corpus(rng):
    data = separable_corpus(rng)
    cfg = TrainConfig(seed=42, max_epochs=200)
    model = train_filter(data, cfg)
    assert count_misclassified(model, data) == 0


def test_zero_epochs_returns_initialized_model(rng):
    data = separable_corpus(rng, positives=2)
    cfg = TrainConfig(seed=9, max_epochs=0)
    model = train_filter(data, cfg)
    assert model.bias == 0.0
    expected = np.random.default_rng(9).normal(0.0, INIT_STD, 23)
    assert np.array_equal(model.weights, expected)


def test_single_class_data_rejected(rng):
    data = [noise_window(rng) for _ in range(10)]
    with pytest.raises(ValueError, match="degenerate training set"):
        train_filter(data, TrainConfig())


def test_training_is_deterministic(rng):
    data = separable_corpus(rng, positives=4)
    cfg = TrainConfig(seed=3, max_epochs=10)
    a = train_filter(data, cfg)
    b = train_filter(data, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


@pytest.mark.parametrize("length", [902, 959, WINDOW_SAMPLES])
def test_train_filter_builds_the_forms_of_center_forms(rng, monkeypatch, length):
    # At 902 and 959 samples the center span starts 22 samples before the
    # window; 10 + 59 windows leave a partial last chunk.
    positives, negatives = 10, FORM_CHUNK_WINDOWS - 5
    data = [
        LabeledAudioWindow(rng.integers(-3000, 3000, length).astype(np.int16), int(i < positives))
        for i in range(positives + negatives)
    ]
    built = []
    history_forms = training._history_forms

    def spy(history, forms):
        assert forms.shape == (len(history), PACKED_TAPS)
        built.append(history_forms(history, forms).copy())
        return forms

    monkeypatch.setattr(training, "_history_forms", spy)
    train_filter(data, TrainConfig(max_epochs=1))
    samples = np.array([w.samples for w in data])  # positives come first, as train_filter orders them
    assert np.array_equal(np.concatenate(built), center_forms(samples))


def test_config_errors_name_the_bound():
    with pytest.raises(ValueError, match="^max_epochs must be non-negative$"):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError, match="^learning_rate and batch_size must be positive$"):
        TrainConfig(batch_size=0)
    # NaN used to train every epoch on NaN and inf to fail only at the end;
    # a NaN ratio died converting the negative count to an integer.
    for field in ("learning_rate", "neg_pos_ratio"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
                TrainConfig(**{field: bad})


def test_window_metrics_score_held_out_windows_like_the_oracle(rng):
    data = separable_corpus(rng, positives=6)
    model = train_filter(data, TrainConfig(seed=4, max_epochs=3))
    held_out = separable_corpus(rng, positives=6)
    samples, labels = stack_windows(held_out)
    predicted = window_scores(samples, model.weights, model.bias) > 0.0
    tp = np.count_nonzero(predicted & (labels == 1))
    metrics = window_metrics(model, held_out)
    assert metrics["windows"] == len(held_out)
    assert metrics["precision"] == (tp / np.count_nonzero(predicted) if predicted.any() else 1.0)
    assert metrics["recall"] == tp / np.count_nonzero(labels)
    assert window_metrics(model, [])["windows"] == 0


def test_short_window_rejected():
    data = [
        LabeledAudioWindow(silence(400), 1),
        LabeledAudioWindow(silence(400), 0),
    ]
    with pytest.raises(ValueError, match="window too short"):
        train_filter(data, TrainConfig())


def test_window_adopts_frozen_samples_and_copies_the_rest():
    x = np.arange(10, dtype=np.int16)
    copied = LabeledAudioWindow(x, 1)
    x[0] = 5
    assert copied.samples[0] == 0 and not copied.samples.flags.writeable
    x.flags.writeable = False
    assert np.shares_memory(LabeledAudioWindow(x[2:], 0).samples, x)
    assert LabeledAudioWindow(x.astype(">i2"), 0).samples.dtype == np.int16


def test_window_rejects_nan_and_float_samples_at_construction():
    # A NaN window used to train every epoch and fail only as "model parameters must be finite".
    with pytest.raises(ValueError, match=r"^audio window samples must be 16-bit PCM \(int16\), got float64$"):
        LabeledAudioWindow(np.full(WINDOW_SAMPLES, np.nan), 1)
    for bad in (np.zeros(WINDOW_SAMPLES), np.zeros(WINDOW_SAMPLES, dtype=np.int32), [0] * 10):
        with pytest.raises(ValueError, match="^audio window samples must be 16-bit PCM"):
            LabeledAudioWindow(bad, 0)
    with pytest.raises(ValueError, match="^audio window samples must be one-dimensional$"):
        LabeledAudioWindow(np.zeros((2, 5), dtype=np.int16), 0)
