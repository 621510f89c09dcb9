import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import shotfuse
from shotfuse import ForestModel, PcmAudio, SynthConfig, TrainConfig, train_filter, train_forest
from shotfuse import training
from shotfuse.audio import PCM_SCALE, WINDOW_SAMPLES
from shotfuse.dataio import WavFile, read_wav, write_wav
from shotfuse.pipeline import window_metrics
from shotfuse.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    FORM_CHUNK_WINDOWS,
    INIT_STD,
    PACKED_TAPS,
    center_forms,
    form_scores,
    total_gradients,
    window_table,
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


def end_to_end(rows):
    """One recording of the rows of a (windows, samples) int16 matrix laid end to end, and each row's start."""
    rows = np.asarray(rows, dtype=np.int16)
    return PcmAudio(rows.ravel()), rows.shape[1] * np.arange(len(rows))


def forms_of(rows):
    """center_forms of the rows of a (windows, WINDOW_SAMPLES) int16 matrix, laid end to end."""
    audio, starts = end_to_end(rows)
    return center_forms(audio, starts)


def labeled(rows, labels):
    """A window table over the rows of a (windows, WINDOW_SAMPLES) int16 matrix laid end to end, and that recording."""
    audio, starts = end_to_end(rows)
    return window_table(starts, labels), audio


def stack_windows(windows, audio):
    """Decoded (windows, WINDOW_SAMPLES) matrix and (windows,) labels of a window table over audio."""
    return sliding_window_view(audio.samples, WINDOW_SAMPLES)[windows.start] * PCM_SCALE, windows.label


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
    return total_gradients(forms_of(samples), labels, weights, bias)[0]


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


OUTSIDE = r"^window starts must be integers from 0 to 98, so that every window lies in the samples$"


@pytest.mark.parametrize(
    "starts",
    # A negative start would wrap round to the end of the recording through the window view.
    [[-1], [0, -902], [99], [0, 98, 1000], [0.0], np.array([[0]]), np.int64(0)],
    ids=["negative", "wrapping", "one-past-last", "far-past", "float", "2-d", "scalar"],
)
def test_center_forms_reject_windows_outside_the_samples(starts):
    audio = PcmAudio(silence(WINDOW_SAMPLES + 98))
    with pytest.raises(ValueError, match=OUTSIDE):
        center_forms(audio, starts)
    assert center_forms(audio, [0, 98]).shape == (2, PACKED_TAPS)


def test_stack_windows_keeps_rows_and_labels():
    windows, audio = labeled(np.repeat(np.arange(3, dtype=np.int16)[:, None], WINDOW_SAMPLES, axis=1), [0, 1, 0])
    samples, labels = stack_windows(windows, audio)
    # Rows come back decoded: PCM step i is i / 32768.
    assert np.array_equal(samples, np.repeat([[0.0], [1.0], [2.0]], WINDOW_SAMPLES, axis=1) / 32768)
    assert np.array_equal(labels, [0, 1, 0])
    samples, labels = stack_windows(windows[:0], audio)
    assert samples.shape == (0, WINDOW_SAMPLES) and labels.shape == (0,)


# --- the window table ---------------------------------------------------------


def test_window_table_is_a_record_array_of_starts_and_labels():
    table = window_table(np.array([5, 0, 5], dtype=np.int32), np.array([1, 0, 0], dtype=np.uint8))
    assert isinstance(table, np.recarray) and table.dtype.names == ("start", "label")
    assert table.start.tolist() == [5, 0, 5] and table.label.tolist() == [1, 0, 0]
    assert [w.label for w in table] == [1, 0, 0]  # rows read as records, as the benchmark's tracer reads them
    assert len(window_table([], [])) == 0


@pytest.mark.parametrize(
    "starts, labels, message",
    [
        ([0, 1], [1], r"^need one label per window start, got \(1,\) labels for \(2,\) starts$"),
        ([[0, 1]], [[1, 0]], r"^need one label per window start, got \(1, 2\) labels for \(1, 2\) starts$"),
        ([0.0, 1.0], [1, 0], "^window starts and labels must be integers, got float64 and int64$"),
        ([0, 1], [1.0, 0.0], "^window starts and labels must be integers, got int64 and float64$"),
        ([0, 1], [1, 2], "^labels must be 0 or 1$"),
        ([0, 1], [-1, 0], "^labels must be 0 or 1$"),
    ],
    ids=["short-labels", "2-d", "float-starts", "float-labels", "label-2", "label-minus-1"],
)
def test_window_table_checks_its_starts_and_labels(starts, labels, message):
    with pytest.raises(ValueError, match=message):
        window_table(starts, labels)


def test_training_and_metrics_reject_windows_outside_the_recording(rng):
    rows = random_pcm(rng, (4, WINDOW_SAMPLES))
    audio, starts = end_to_end(rows)
    model = train_filter(window_table(starts, [1, 0, 0, 0]), TrainConfig(max_epochs=1), audio)
    last = 3 * WINDOW_SAMPLES  # the last window of the four
    for start in (-1, last + 1):
        windows = window_table(np.r_[starts[:3], start], [1, 0, 0, 0])
        message = rf"^window starts must be integers from 0 to {last}, so that every window lies in the samples$"
        with pytest.raises(ValueError, match=message):
            train_filter(windows, TrainConfig(max_epochs=1), audio)
        with pytest.raises(ValueError, match=message):
            window_metrics(model, windows, audio)


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
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples,
    # and the rows lie end to end in one recording.
    rng = np.random.default_rng(length)
    draws = [
        rng.integers(-32768, 32768, length, dtype=np.int16),
        rng.integers(-32768, 32768, length, dtype=np.int16),
        np.full(length, -32768, dtype=np.int16),
        np.resize(np.array([-32768, 32767], dtype=np.int16), length),
        np.where(rng.random(length) < 0.5, -32768, 32767).astype(np.int16),
        silence(length),
    ]
    audio, starts = end_to_end(draws)
    forms = center_forms(audio, starts + length - WINDOW_SAMPLES)
    assert forms.shape == (len(draws), PACKED_TAPS)
    for form, draw in zip(forms, draws):
        assert form.tolist() == exact_form(draw[-WINDOW_SAMPLES:])
    assert not forms[-1].any()


def test_center_forms_at_overlapping_and_repeated_starts(rng, monkeypatch):
    # Seven windows in chunks of three leave a partial last chunk; the
    # windows overlap and one repeats.
    samples = rng.integers(-32768, 32768, 2 * WINDOW_SAMPLES, dtype=np.int16)
    starts = np.array([0, 1, 37, 450, 900, 900, WINDOW_SAMPLES])
    monkeypatch.setattr(training, "FORM_CHUNK_WINDOWS", 3)
    forms = center_forms(PcmAudio(samples), starts)
    assert forms.shape == (starts.size, PACKED_TAPS)
    for form, start in zip(forms, starts):
        assert form.tolist() == exact_form(samples[start : start + WINDOW_SAMPLES])


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_center_forms_reject_starts_that_do_not_ascend(rng, dtype):
    # Unsigned starts too: their differences wrap round, and their places
    # in the read segment can be negative.
    audio = PcmAudio(rng.integers(-32768, 32768, WINDOW_SAMPLES + 98, dtype=np.int16))
    with pytest.raises(ValueError, match="^window starts must ascend, so that each window is cut as the recording is read$"):
        center_forms(audio, np.array([0, 98, 97], dtype=dtype))
    ascending = np.array([0, 97, 97, 98])
    assert center_forms(audio, ascending.astype(dtype)).tobytes() == center_forms(audio, ascending).tobytes()


def test_center_forms_bytes_do_not_depend_on_chunking(rng, monkeypatch):
    audio = PcmAudio(rng.integers(-32768, 32768, 20 * WINDOW_SAMPLES, dtype=np.int16))
    starts = np.sort(rng.integers(0, len(audio) - WINDOW_SAMPLES + 1, 100))
    digests = set()
    for chunk in (1, 7, 64, 100, 128):
        monkeypatch.setattr(training, "FORM_CHUNK_WINDOWS", chunk)
        digests.add(hashlib.sha256(center_forms(audio, starts).tobytes()).hexdigest())
    # Every block size that divides the 80-sample microframe.
    for block in (5, 8, 10, 16, 20, 40, 80):
        monkeypatch.setattr(training, "_BLOCK", block)
        digests.add(hashlib.sha256(center_forms(audio, starts).tobytes()).hexdigest())
    # Reads shorter than a window, one sample short of it, as long, and
    # reads that hold many windows or the whole recording.
    for read in (1, 450, WINDOW_SAMPLES - 1, WINDOW_SAMPLES, 1000, 4096, len(audio)):
        monkeypatch.setattr(training, "FORM_READ_SAMPLES", read)
        digests.add(hashlib.sha256(center_forms(audio, starts).tobytes()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize(
    "read",
    # One file read for the whole recording; file reads that end inside
    # windows; file reads shorter than a window.
    [None, 1000, WINDOW_SAMPLES - 1],
    ids=["whole", "straddling", "shorter-than-a-window"],
)
def test_center_forms_from_a_wav_file_equal_those_from_its_pcm(tmp_path, rng, monkeypatch, read):
    path = tmp_path / "a.wav"
    write_wav(path, PcmAudio(rng.integers(-32768, 32768, 5 * WINDOW_SAMPLES + 37, dtype=np.int16)))
    last = 4 * WINDOW_SAMPLES + 37
    # Overlapping and repeated starts, the first and the last window among them.
    picked = np.array([last, 0, 901, 902, 900, 0, last])
    starts = np.sort(np.r_[rng.integers(0, last + 1, 40), picked])
    monkeypatch.setattr(training, "FORM_CHUNK_WINDOWS", 5)  # the buffer fills across reads
    if read:
        monkeypatch.setattr(training, "FORM_READ_SAMPLES", read)  # each read is one file read
    streamed, pcm = center_forms(WavFile(path), starts), read_wav(path)
    assert streamed.tobytes() == center_forms(pcm, starts).tobytes()
    for start in np.unique(picked):
        row = np.searchsorted(starts, start)
        assert streamed[row].tolist() == exact_form(pcm.samples[start : start + WINDOW_SAMPLES])


def test_center_forms_read_a_truncated_wav_to_the_cut(tmp_path, rng):
    whole, path = tmp_path / "whole.wav", tmp_path / "cut.wav"
    read = training.FORM_READ_SAMPLES
    n, kept = 3 * read + 5000, 2 * read + 2000
    write_wav(whole, PcmAudio(rng.integers(-32768, 32768, n, dtype=np.int16)))
    path.write_bytes(whole.read_bytes()[: 44 + 2 * kept + 1])  # a 44-byte header, then 2 bytes a frame
    # Every window ends in the first read; the cut lies in the third.
    starts = [0, 500, read - WINDOW_SAMPLES]
    with pytest.raises(ValueError, match=f"^truncated WAV: the header declares {n} frames, the file holds {kept}$"):
        center_forms(WavFile(path), starts)


FORMS_DIGEST = """
import hashlib, numpy as np
from shotfuse import PcmAudio
from shotfuse.training import center_forms
rng = np.random.default_rng(5)
audio = PcmAudio(rng.integers(-32768, 32768, 100_000, dtype=np.int16))
print(hashlib.sha256(center_forms(audio, np.sort(rng.integers(0, 100_000 - 901, 300))).tobytes()).hexdigest())
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


def test_center_forms_read_only_one_dimensional_pcm():
    # center_forms reads a PcmAudio, which rejects anything else as it is made.
    with pytest.raises(ValueError, match=r"^audio samples must be 16-bit PCM \(int16\), got float64$"):
        PcmAudio(np.zeros(WINDOW_SAMPLES))
    with pytest.raises(ValueError, match="^audio samples must be one-dimensional$"):
        PcmAudio(np.zeros((2, WINDOW_SAMPLES), dtype=np.int16))
    assert center_forms(PcmAudio(silence(WINDOW_SAMPLES)), []).shape == (0, PACKED_TAPS)
    # No window fits in a short recording, but none is asked for either.
    assert center_forms(PcmAudio(silence(10)), np.empty(0, dtype=int)).shape == (0, PACKED_TAPS)


@pytest.mark.parametrize("length", [902, 1000, DRAW_SAMPLES])
def test_center_forms_match_dense_oracle_and_scores(length):
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples.
    rng = np.random.default_rng(10 + length)
    samples = random_pcm(rng, (5, length))[:, -WINDOW_SAMPLES:]
    decoded = samples * PCM_SCALE
    forms = unpack(forms_of(samples))
    for form, row in zip(forms, decoded):
        expected = dense_form(row)
        np.testing.assert_allclose(form, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    for bias in (0.0, -0.4):
        weights = rng.normal(0.0, 0.3, 23)
        np.testing.assert_allclose(
            form_scores(forms_of(samples), weights, bias),
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
        value, d_w, d_b = total_gradients(forms_of(samples), labels, weights, bias)
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
    forms = forms_of(np.zeros((2, WINDOW_SAMPLES), dtype=np.int16))
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
    value, d_w, d_b = total_gradients(forms_of(samples), labels, weights, bias)
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


def burst_window():
    x = np.zeros(WINDOW_SAMPLES)
    # A 1 kHz tone over the center microframe, after 22 samples of history and 5 microframes.
    x[422:502] = np.sin(2 * np.pi * 1000.0 * np.arange(80) / 8000.0)
    return pcm(x)


def noise_window(rng, scale=0.02):
    return pcm(scale * rng.standard_normal(DRAW_SAMPLES))[CENTER]


def separable_corpus(rng, positives=12):
    """A window table of bursts, then 20 noise windows per burst, over one recording of them."""
    rows = [burst_window() for _ in range(positives)]
    rows += [noise_window(rng) for _ in range(20 * positives)]
    return labeled(rows, (np.arange(len(rows)) < positives).astype(int))


def count_misclassified(model, windows, audio):
    samples, labels = stack_windows(windows, audio)
    predicted = window_scores(samples, model.weights, model.bias) > 0.0
    return int(np.count_nonzero(predicted != labels))


def test_training_converges_on_separable_corpus(rng):
    windows, audio = separable_corpus(rng)
    cfg = TrainConfig(seed=42, max_epochs=200)
    model = train_filter(windows, cfg, audio)
    assert count_misclassified(model, windows, audio) == 0


def test_zero_epochs_returns_initialized_model(rng):
    windows, audio = separable_corpus(rng, positives=2)
    cfg = TrainConfig(seed=9, max_epochs=0)
    model = train_filter(windows, cfg, audio)
    assert model.bias == 0.0
    expected = np.random.default_rng(9).normal(0.0, INIT_STD, 23)
    assert np.array_equal(model.weights, expected)


def test_single_class_data_rejected(rng):
    for label in (0, 1):
        windows, audio = labeled([noise_window(rng) for _ in range(10)], np.full(10, label))
        with pytest.raises(ValueError, match="^degenerate training set$"):
            train_filter(windows, TrainConfig(), audio)


def test_training_is_deterministic(rng):
    windows, audio = separable_corpus(rng, positives=4)
    cfg = TrainConfig(seed=3, max_epochs=10)
    a = train_filter(windows, cfg, audio)
    b = train_filter(windows, cfg, audio)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def reference_train_filter(windows, cfg, audio):
    """train_filter written plainly: its weights, its bias and the epochs it ran.

    The same draws from one seeded generator: the initial weights, the
    negative subsample, one permutation of the chosen windows per epoch.
    Each mini-batch's summed gradients, divided by its size, take one Adam
    step. The forms are the chosen windows' own, in the order chosen.
    """
    rng = np.random.default_rng(cfg.seed)
    weights = rng.normal(0.0, INIT_STD, 23)
    positives = np.flatnonzero(windows.label == 1)
    negatives = np.flatnonzero(windows.label == 0)
    wanted = int(round(cfg.neg_pos_ratio * positives.size))
    if negatives.size > wanted:
        negatives = negatives[rng.choice(negatives.size, size=wanted, replace=False)]
    chosen = np.concatenate([positives, negatives])
    forms = center_forms(audio, windows.start)[chosen]
    labels = windows.label[chosen]
    params, m, v, step = np.append(weights, 0.0), np.zeros(24), np.zeros(24), 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(chosen))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, d_w, d_b = total_gradients(forms[batch], labels[batch], params[:-1], params[-1])
            epoch_loss += loss
            grad = np.append(d_w, d_b) / len(batch)
            step += 1
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
            m_hat = m / (1 - ADAM_BETA1**step)
            v_hat = v / (1 - ADAM_BETA2**step)
            params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        if epoch_loss == 0.0:
            break
    return params[:-1], params[-1], epoch


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_filter_is_the_plain_adam_loop_bit_for_bit(rng, epochs):
    # 10 positives keep 200 of the 240 noise windows: six batches of 32 and one of 18.
    # Labels interleave, so the chosen windows are not in start order.
    rows = random_windows(rng, 250)
    labels = np.zeros(250, dtype=int)
    labels[3::25] = 1
    rows[labels == 1] = burst_window()
    windows, audio = labeled(rows, labels)
    cfg = TrainConfig(seed=11, max_epochs=epochs)
    model = train_filter(windows, cfg, audio)
    weights, bias, ran = reference_train_filter(windows, cfg, audio)
    assert ran == epochs  # no epoch reached zero loss
    assert model.weights.tobytes() == weights.tobytes() and model.bias == bias


@pytest.mark.parametrize("length", [902, 959, DRAW_SAMPLES])
def test_train_filter_builds_the_forms_of_center_forms(rng, monkeypatch, length):
    # Each window is the last WINDOW_SAMPLES of a row of `length` samples;
    # 10 + 59 windows leave a partial last chunk. Labels interleave, so the
    # positives train_filter puts first are not the first rows. Reads of
    # 1000 samples end inside windows, so each chunk fills across reads.
    positives, negatives = 10, FORM_CHUNK_WINDOWS - 5
    draws = rng.integers(-3000, 3000, (positives + negatives, length)).astype(np.int16)
    audio, starts = end_to_end(draws)
    labels = np.zeros(draws.shape[0], dtype=int)
    labels[::7] = 1
    windows = window_table(starts + length - WINDOW_SAMPLES, labels)
    built = []
    history_forms = training._history_forms

    def spy(history, forms):
        assert forms.shape == (len(history), PACKED_TAPS)
        built.append(history_forms(history, forms).copy())
        return forms

    monkeypatch.setattr(training, "_history_forms", spy)
    monkeypatch.setattr(training, "FORM_READ_SAMPLES", 1000)
    train_filter(windows, TrainConfig(max_epochs=1), audio)
    # One build per chunk of windows, in ascending start order, as the recording is read.
    assert [len(forms) for forms in built] == [FORM_CHUNK_WINDOWS, 5]
    assert np.array_equal(np.concatenate(built), forms_of(draws[:, -WINDOW_SAMPLES:]))


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
    windows, audio = separable_corpus(rng, positives=6)
    model = train_filter(windows, TrainConfig(seed=4, max_epochs=3), audio)
    held_out, held_audio = separable_corpus(rng, positives=6)
    samples, labels = stack_windows(held_out, held_audio)
    predicted = window_scores(samples, model.weights, model.bias) > 0.0
    tp = np.count_nonzero(predicted & (labels == 1))
    metrics = window_metrics(model, held_out, held_audio)
    assert metrics["windows"] == len(held_out)
    assert metrics["precision"] == (tp / np.count_nonzero(predicted) if predicted.any() else 1.0)
    assert metrics["recall"] == tp / np.count_nonzero(labels)
    assert window_metrics(model, held_out[:0], held_audio)["windows"] == 0
