import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import shotfuse
from shotfuse import ForestModel, LabeledAudioWindow, PcmAudio, SynthConfig, TrainConfig, train_filter, train_forest
from shotfuse import training
from shotfuse.audio import PCM_SCALE, WINDOW_SAMPLES
from shotfuse.pipeline import window_metrics
from shotfuse.training import (
    FORM_CHUNK_WINDOWS,
    INIT_STD,
    PACKED_TAPS,
    center_forms,
    form_scores,
    total_gradients,
)

#: Random training windows are cut from 21-microframe draws: CENTER is the
#: window of a draw's center microframe, number 10, samples (10 - 5) * 80 - 22
#: to (10 + 6) * 80 (windows_from_labels).
DRAW_SAMPLES = 21 * 80
CENTER = slice(378, 1280)


def pcm(x):
    """Float samples quantized to the window's 16-bit PCM."""
    return PcmAudio.from_float(x).samples


def random_pcm(rng, shape, scale=0.3):
    """A (draws, samples) int16 matrix of quantized Gaussian noise."""
    return np.array([pcm(row) for row in scale * rng.standard_normal(shape)])


def random_windows(rng, n, scale=0.3):
    """The center windows of n random draws: a (windows, WINDOW_SAMPLES) int16 view."""
    return random_pcm(rng, (n, DRAW_SAMPLES), scale)[:, CENTER]


def silence(n):
    return np.zeros(n, dtype=np.int16)


def unpack(forms):
    """Full symmetric (windows, 23, 23) matrices of packed forms."""
    rows, cols = np.triu_indices(23)
    full = np.empty((len(forms), 23, 23))
    full[:, rows, cols] = forms
    full[:, cols, rows] = forms
    return full


def reference_score(draw, weights, bias):
    """Brute-force oracle: filter the whole draw from rest, then score its trailing window.

    That is the center microframe of the draw's last 11 microframes.
    """
    filtered = np.convolve(draw, weights)[: draw.size]
    energy = np.sum(filtered[draw.size - 11 * 80 :].reshape(11, 80) ** 2, axis=1)
    return energy[5] - energy.mean() + bias


def stack_windows(windows):
    """Decoded (windows, WINDOW_SAMPLES) matrix and (windows,) labels."""
    samples = np.array([w.samples for w in windows], dtype=np.int16).reshape(len(windows), WINDOW_SAMPLES)
    return samples * PCM_SCALE, np.array([w.label for w in windows], dtype=int)


def window_scores(samples, weights, bias):
    """Biased score of each row's center microframe, by refiltering its macroframe.

    The oracle the packed forms are checked against: samples is a decoded
    (windows, WINDOW_SAMPLES) matrix whose first 22 columns are the filter's
    history; the score is the center frame's energy minus the mean energy
    of its macroframe, plus the bias.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != WINDOW_SAMPLES:
        raise ValueError(f"samples must be a (windows, {WINDOW_SAMPLES}) matrix")
    taps = sliding_window_view(samples, weights.size, axis=1)
    filtered = np.einsum("nkj,j->nk", taps, weights[::-1])
    blocks = filtered.reshape(len(samples), 11, 80)
    energy = np.einsum("nfk,nfk->nf", blocks, blocks)
    return energy[:, 5] - energy.mean(axis=1) + bias


def loss(samples, labels, weights, bias):
    return total_gradients(center_forms(samples), labels, weights, bias)[0]


# --- the oracle scorer against the full-window oracle ------------------------


@pytest.mark.parametrize("length", [902, 1000, DRAW_SAMPLES])
def test_window_scores_match_full_window_convolution(length):
    # The window is the last WINDOW_SAMPLES of a draw of `length` samples,
    # so its first 22 samples are the history the whole-draw filter reads;
    # 1000 is not a whole number of microframes.
    rng = np.random.default_rng(length)
    for bias in (0.0, 0.7):
        weights = rng.normal(0.0, 0.3, 23)
        draws = rng.standard_normal((6, length))
        expected = [reference_score(row, weights, bias) for row in draws]
        got = window_scores(draws[:, -WINDOW_SAMPLES:], weights, bias)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_window_scores_reject_short_and_unbatched_windows():
    weights = np.ones(23)
    for bad in (np.zeros((2, 901)), np.zeros((2, 903)), np.zeros(WINDOW_SAMPLES)):
        with pytest.raises(ValueError, match="matrix"):
            window_scores(bad, weights, 0.0)


def test_mixed_window_lengths_rejected():
    with pytest.raises(ValueError):
        center_forms([silence(WINDOW_SAMPLES), silence(WINDOW_SAMPLES + 1)])


@pytest.mark.parametrize("length", [901, 903, DRAW_SAMPLES])
def test_windows_of_another_length_rejected(length):
    with pytest.raises(ValueError, match=f"^audio window must hold 902 samples, got {length}$"):
        LabeledAudioWindow(silence(length), 0)
    message = rf"^windows must be rows of 902 16-bit PCM \(int16\) samples, got int16 rows of shape \({length},\)"
    for rows in (np.zeros((2, length), dtype=np.int16), [silence(length)] * 2):
        with pytest.raises(ValueError, match=message):
            center_forms(rows)


def test_stack_windows_keeps_rows_and_labels():
    windows = [LabeledAudioWindow(np.full(WINDOW_SAMPLES, i, dtype=np.int16), i % 2) for i in range(3)]
    samples, labels = stack_windows(windows)
    # Rows come back decoded: PCM step i is i / 32768.
    assert np.array_equal(samples, np.repeat([[0.0], [1.0], [2.0]], WINDOW_SAMPLES, axis=1) / 32768)
    assert np.array_equal(labels, [0, 1, 0])
    samples, labels = stack_windows([])
    assert samples.shape == (0, WINDOW_SAMPLES) and labels.shape == (0,)


# --- the packed forms against exact and dense oracles ------------------------


def dense_form(window, n_taps=23):
    """X^T diag(c) X over the macroframe's tap vectors of a window."""
    # Row k holds the samples macroframe output k reads, newest first.
    X = np.array([window[k : k + n_taps][::-1] for k in range(11 * 80)])
    c = np.full(11 * 80, -1.0 / 11)
    c[5 * 80 : 6 * 80] += 1.0
    return X.T @ (c[:, None] * X)


def exact_form(pcm_window, n_taps=23):
    """The packed form in Python integers, rounded once: M / (11 * 2^30) with M = X^T diag(11 c) X."""
    window = [int(v) for v in pcm_window]
    X = [window[k : k + n_taps][::-1] for k in range(11 * 80)]
    c = [10 if 5 * 80 <= k < 6 * 80 else -1 for k in range(11 * 80)]
    columns = list(zip(*X))
    weighted = [[ck * v for ck, v in zip(c, col)] for col in columns]
    # Python's int / int is the correctly rounded quotient, as Fraction(M, 11 << 30) would give.
    return [
        sum(a * b for a, b in zip(weighted[i], columns[j])) / (11 << 30)
        for i in range(n_taps)
        for j in range(i, n_taps)
    ]


@pytest.mark.parametrize("length", [902, 959, DRAW_SAMPLES])
def test_center_forms_equal_the_exact_integer_form(length):
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples:
    # a view that starts inside its row, as windows_from_labels cuts them.
    rng = np.random.default_rng(length)
    draws = [
        rng.integers(-32768, 32768, length, dtype=np.int16),
        rng.integers(-32768, 32768, length, dtype=np.int16),
        np.full(length, -32768, dtype=np.int16),
        np.resize(np.array([-32768, 32767], dtype=np.int16), length),
        np.where(rng.random(length) < 0.5, -32768, 32767).astype(np.int16),
        silence(length),
    ]
    rows = [draw[-WINDOW_SAMPLES:] for draw in draws]
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
    # Every block size that divides the 80-sample microframe.
    for block in (5, 8, 10, 16, 20, 40, 80):
        monkeypatch.setattr(training, "_BLOCK", block)
        digests.add(hashlib.sha256(center_forms(samples).tobytes()).hexdigest())
    assert len(digests) == 1


FORMS_DIGEST = """
import hashlib, numpy as np
from shotfuse.training import center_forms
samples = np.random.default_rng(5).integers(-32768, 32768, (300, 902), dtype=np.int16)
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
    with pytest.raises(ValueError, match=r"^windows must be rows of 902 .*, got float64 rows"):
        center_forms(np.zeros((2, WINDOW_SAMPLES)))
    assert center_forms([]).shape == (0, PACKED_TAPS)


@pytest.mark.parametrize("length", [902, 1000, DRAW_SAMPLES])
def test_center_forms_match_dense_oracle_and_scores(length):
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples.
    rng = np.random.default_rng(10 + length)
    samples = random_pcm(rng, (5, length))[:, -WINDOW_SAMPLES:]
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
        samples = random_windows(rng, 4)
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
    samples = random_windows(rng, 3)
    # Every window misclassified: a missed shot where the score is not positive.
    labels = (window_scores(samples * PCM_SCALE, weights, bias) <= 0.0).astype(int)
    assert check_central_differences(samples, labels, weights, bias) > 0.0


def test_gradients_on_a_mixed_batch():
    """Correct and misclassified windows of both labels in one batch."""
    rng = np.random.default_rng(77)
    weights = rng.normal(0.0, 0.2, 23)
    samples = random_windows(rng, 40)
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
        samples = random_windows(rng, 4)
        assert loss(samples, rng.integers(0, 2, 4), weights, bias) >= 0.0


# --- training behavior ------------------------------------------------------


def burst_window(rng, amplitude=1.0):
    x = np.zeros(WINDOW_SAMPLES)
    # A 1 kHz tone over the center microframe, after 22 samples of history and 5 microframes.
    x[422:502] = amplitude * np.sin(2 * np.pi * 1000.0 * np.arange(80) / 8000.0)
    return LabeledAudioWindow(pcm(x), 1)


def noise_window(rng, scale=0.02):
    return LabeledAudioWindow(pcm(scale * rng.standard_normal(DRAW_SAMPLES))[CENTER], 0)


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


@pytest.mark.parametrize("length", [902, 959, DRAW_SAMPLES])
def test_train_filter_builds_the_forms_of_center_forms(rng, monkeypatch, length):
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples;
    # 10 + 59 windows leave a partial last chunk.
    positives, negatives = 10, FORM_CHUNK_WINDOWS - 5
    draws = rng.integers(-3000, 3000, (positives + negatives, length)).astype(np.int16)
    data = [LabeledAudioWindow(draw[-WINDOW_SAMPLES:], int(i < positives)) for i, draw in enumerate(draws)]
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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SynthConfig(seed=-1), "seed must be non-negative, got -1"),
        (lambda: TrainConfig(seed=-1), "seed must be non-negative, got -1"),
        (lambda: train_forest(np.eye(2, 5), [0, 1], seed=-1), "seed must be non-negative, got -1"),
        (lambda: TrainConfig(seed=2.5), "seed must be an integer, got 2.5"),
        (lambda: TrainConfig(seed=True), "seed must be an integer, got True"),
        (lambda: TrainConfig(max_epochs=3.0), "max_epochs must be an integer, got 3.0"),
        # True is an int to Python: as a seed it made a forest file the loader rejects,
        # and as a tree count it trained one tree.
        (lambda: train_forest(np.eye(2, 5), [0, 1], seed=True), "seed must be an integer, got True"),
        (lambda: train_forest(np.eye(2, 5), [0, 1], tree_count=True), "tree_count must be an integer, got True"),
        (lambda: ForestModel([-1], [0.0], [-1], [-1], [1], [1], seed=False), "seed must be an integer, got False"),
    ],
    ids=["synth-seed", "train-seed", "forest-seed", "float-seed", "bool-seed", "float-epochs",
         "forest-bool-seed", "bool-tree-count", "model-bool-seed"],
)
def test_seeds_and_epochs_are_checked_before_numpy_sees_them(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


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
    # Samples have no default: the empty window is as invalid as a short one.
    with pytest.raises(TypeError):
        LabeledAudioWindow(label=1)
    with pytest.raises(ValueError, match="^audio window must hold 902 samples, got 0$"):
        LabeledAudioWindow(silence(0), 1)


def test_window_adopts_frozen_samples_and_copies_the_rest():
    x = np.arange(WINDOW_SAMPLES + 2, dtype=np.int16)
    copied = LabeledAudioWindow(x[:WINDOW_SAMPLES], 1)
    x[0] = 5
    assert copied.samples[0] == 0 and not copied.samples.flags.writeable
    x.flags.writeable = False
    assert np.shares_memory(LabeledAudioWindow(x[2:], 0).samples, x)
    assert LabeledAudioWindow(x[2:].astype(">i2"), 0).samples.dtype == np.int16


def test_window_rejects_nan_and_float_samples_at_construction():
    # A NaN window used to train every epoch and fail only as "model parameters must be finite".
    with pytest.raises(ValueError, match=r"^audio window samples must be 16-bit PCM \(int16\), got float64$"):
        LabeledAudioWindow(np.full(WINDOW_SAMPLES, np.nan), 1)
    for bad in (np.zeros(WINDOW_SAMPLES), np.zeros(WINDOW_SAMPLES, dtype=np.int32), [0] * 10):
        with pytest.raises(ValueError, match="^audio window samples must be 16-bit PCM"):
            LabeledAudioWindow(bad, 0)
    with pytest.raises(ValueError, match="^audio window samples must be one-dimensional$"):
        LabeledAudioWindow(np.zeros((2, 5), dtype=np.int16), 0)
