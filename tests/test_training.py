import numpy as np
import pytest

from shotfuse import LabeledAudioWindow, PcmAudio, TrainConfig, train_filter
from shotfuse import training
from shotfuse.training import (
    FORM_CHUNK_WINDOWS,
    INIT_STD,
    center_forms,
    stack_windows,
    total_gradients,
    window_scores,
)

WINDOW_SAMPLES = 21 * 80


def pcm(x):
    """Float samples quantized to the window's 16-bit PCM."""
    return PcmAudio.from_float(x).samples


def silence(n):
    return np.zeros(n, dtype=np.int16)


def reference_score(samples, weights, bias):
    """Brute-force oracle: filter the whole window, then score its center 10 ms microframe."""
    filtered = np.convolve(samples, weights)[: samples.size]
    frame_len = 80
    n_frames = samples.size // frame_len
    energy = np.sum(filtered[: n_frames * frame_len].reshape(n_frames, frame_len) ** 2, axis=1)
    center = n_frames // 2
    return energy[center] - energy[center - 5 : center + 6].mean() + bias


def loss(samples, labels, weights, bias):
    return total_gradients(center_forms(samples), labels, weights, bias)[0]


# --- the batched scorer against the full-window oracle -----------------------


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


def test_stack_windows_keeps_rows_and_labels():
    windows = [LabeledAudioWindow(np.full(5, i, dtype=np.int16), i % 2) for i in range(3)]
    samples, labels = stack_windows(windows)
    # Rows come back decoded: PCM step i is i / 32768.
    assert np.array_equal(samples, np.repeat([[0.0], [1.0], [2.0]], 5, axis=1) / 32768)
    assert np.array_equal(labels, [0, 1, 0])
    samples, labels = stack_windows([])
    assert samples.shape == (0, 0) and labels.shape == (0,)


# --- the quadratic forms against a dense oracle and the scorer --------------


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


@pytest.mark.parametrize("length", [902, 1000, WINDOW_SAMPLES])
def test_center_forms_match_dense_oracle_and_scores(length):
    rng = np.random.default_rng(10 + length)
    samples = rng.standard_normal((5, length))
    forms = center_forms(samples)
    assert forms.shape == (5, 23, 23)
    for form, row in zip(forms, samples):
        expected = dense_form(row)
        np.testing.assert_allclose(form, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    for bias in (0.0, -0.4):
        weights = rng.normal(0.0, 0.3, 23)
        np.testing.assert_allclose(
            np.einsum("i,nij,j->n", weights, forms, weights) + bias,
            window_scores(samples, weights, bias),
            rtol=1e-12,
        )


def scorer_loss(samples, labels, weights, bias):
    """The decision loss computed from window_scores alone."""
    score = window_scores(samples, weights, bias)
    predicted = score > 0.0
    sign = (predicted & (labels == 0)).astype(float) - (~predicted & (labels == 1))
    return float(np.sum(sign * score))


def test_form_gradients_match_central_differences_of_the_scorer():
    rng = np.random.default_rng(55)
    step = 1e-4
    for _ in range(5):
        weights = rng.normal(0.0, 0.2, 23)
        bias = float(rng.normal(0.0, 0.5))
        samples = rng.standard_normal((4, WINDOW_SAMPLES))
        labels = (window_scores(samples, weights, bias) <= 0.0).astype(int)
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
    forms = center_forms(np.zeros((2, WINDOW_SAMPLES)))
    with pytest.raises(ValueError, match="stack"):
        total_gradients(forms[0], [0], np.ones(23), 0.0)
    with pytest.raises(ValueError, match="stack"):
        total_gradients(forms, [0, 1], np.ones(22), 0.0)
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
    samples = rng.standard_normal((3, WINDOW_SAMPLES))
    # Every window misclassified: a missed shot where the score is not positive.
    labels = (window_scores(samples, weights, bias) <= 0.0).astype(int)
    assert check_central_differences(samples, labels, weights, bias) > 0.0


def test_gradients_on_a_mixed_batch():
    """Correct and misclassified windows of both labels in one batch."""
    rng = np.random.default_rng(77)
    weights = rng.normal(0.0, 0.2, 23)
    samples = rng.standard_normal((40, WINDOW_SAMPLES))
    raw = window_scores(samples, weights, 0.0)
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
        samples = rng.standard_normal((4, WINDOW_SAMPLES))
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
        built.append(history_forms(history, forms).copy())
        return forms

    monkeypatch.setattr(training, "_history_forms", spy)
    train_filter(data, TrainConfig(max_epochs=1))
    samples, _ = stack_windows(data)  # positives come first, as train_filter orders them
    assert np.array_equal(np.concatenate(built), center_forms(samples))


def test_config_errors_name_the_bound():
    with pytest.raises(ValueError, match="^max_epochs must be non-negative$"):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError, match="^learning_rate and batch_size must be positive$"):
        TrainConfig(batch_size=0)


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
