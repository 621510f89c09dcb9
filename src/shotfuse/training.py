"""Gradient training of the audio front filter and decision bias.

The detector is differentiable end to end: convolution -> per-frame energy
-> macroframe mean subtraction -> bias threshold. Misclassified windows
contribute the (signed) decision score as their loss; correct ones
contribute nothing. The whole chain is a quadratic form in the filter
weights, so each window's form is built once (center_forms) and every
epoch scores and differentiates windows from it in O(taps^2); the
gradients are applied with a mini-batch Adam loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import (
    FILTER_TAPS,
    MACROFRAME_FRAMES,
    MACROFRAME_HALF,
    MICROFRAME_SAMPLES,
    PCM_SCALE,
    FilterModel,
    LabeledAudioWindow,
)

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
    "INIT_STD",
    "TrainConfig",
    "stack_windows",
    "window_scores",
    "center_forms",
    "total_gradients",
    "train_filter",
]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
#: Spread of the initial weights: 1/sqrt(taps) gives the initial filter unit
#: energy on average.
INIT_STD = 1.0 / math.sqrt(FILTER_TAPS)
#: Windows whose center spans train_filter decodes per chunk while building its forms.
FORM_CHUNK_WINDOWS = 64


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train_filter`.

    Negative windows are subsampled to neg_pos_ratio per positive (20:1 by
    default, matching the scarcity of shots in a real game).
    """

    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    neg_pos_ratio: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate and batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.neg_pos_ratio < 1:
            raise ValueError("neg_pos_ratio must be at least 1")


def _shared_length(windows: list[LabeledAudioWindow]) -> int:
    lengths = {w.samples.size for w in windows}
    if len(lengths) > 1:
        raise ValueError(f"windows of mixed length {sorted(lengths)}; all must share one length")
    return lengths.pop() if lengths else 0


def stack_windows(windows: list[LabeledAudioWindow]) -> tuple[np.ndarray, np.ndarray]:
    """Decoded (windows, samples) matrix and (windows,) labels of equal-length windows.

    Decodes whole windows (samples * PCM_SCALE, exact); callers pass one
    small batch per call. train_filter decodes only each window's center
    span instead (_center_span).
    """
    shape = (len(windows), _shared_length(windows))
    pcm = np.array([w.samples for w in windows], dtype=np.int16).reshape(shape)
    return pcm * PCM_SCALE, np.array([w.label for w in windows], dtype=int)


def _center_span(n_samples: int, n_taps: int) -> tuple[int, int]:
    """Bounds [start, stop) of the samples the filter reads to output a window's center macroframe.

    That is the center microframe and MACROFRAME_HALF microframes on each
    side, preceded by n_taps - 1 samples of history; start is negative
    when that history reaches back before the window's first sample,
    which reads as zeros.
    """
    if n_samples < MACROFRAME_FRAMES * MICROFRAME_SAMPLES + n_taps - 1:
        raise ValueError("window too short")
    first = (n_samples // MICROFRAME_SAMPLES // 2 - MACROFRAME_HALF) * MICROFRAME_SAMPLES
    return first - (n_taps - 1), first + MACROFRAME_FRAMES * MICROFRAME_SAMPLES


def _center_history(samples: np.ndarray, n_taps: int) -> np.ndarray:
    """Each row's center span (_center_span) as a new contiguous float matrix."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a (windows, samples) matrix")
    start, stop = _center_span(samples.shape[1], n_taps)
    return np.pad(samples[:, max(start, 0) : stop], ((0, 0), (max(-start, 0), 0)))


def window_scores(samples: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Biased likelihood at the center microframe of each row of a (windows, samples) matrix.

    The center microframe is number (samples // MICROFRAME_SAMPLES) // 2;
    a window needs a full macroframe around it plus n_taps - 1 samples.
    The score is the center frame's energy minus the mean energy of its
    macroframe, plus the bias.
    """
    history = _center_history(samples, weights.size)
    taps = sliding_window_view(history, weights.size, axis=1)
    filtered = np.einsum("nkj,j->nk", taps, weights[::-1])
    blocks = filtered.reshape(len(history), MACROFRAME_FRAMES, MICROFRAME_SAMPLES)
    energy = np.einsum("nfk,nfk->nf", blocks, blocks)
    return energy[:, MACROFRAME_HALF] - energy.mean(axis=1) + bias


def center_forms(samples: np.ndarray) -> np.ndarray:
    """Quadratic form of each row's center score: (windows, FILTER_TAPS, FILTER_TAPS).

    window_scores(samples, w, b) equals w @ Q @ w + b for each row's Q, so
    Q depends on the samples only. Filtered output k of the center
    macroframe is w @ t_k, where t_k[i] = history[k + n_taps - 1 - i], and
    Q = sum_k c_k t_k t_k^T with c_k = 1 - 1/11 on the center microframe
    and -1/11 on the rest of the macroframe.
    """
    history = _center_history(samples, FILTER_TAPS)
    return _history_forms(history, np.empty((len(history), FILTER_TAPS, FILTER_TAPS)))


def _history_forms(history: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """center_forms of contiguous center-span rows (_center_span), written into forms.

    The first row is one pass over the taps. Shifting both indices by one
    moves every t_k back one output, so Q[i+1, j+1] = Q[i, j] plus one
    rank-one term per step of c (c is 0 outside the macroframe):
    O(n_taps^2) per window for the rest.
    """
    n_taps = FILTER_TAPS
    c = np.full(MACROFRAME_FRAMES * MICROFRAME_SAMPLES, -1.0 / MACROFRAME_FRAMES)
    c[MACROFRAME_HALF * MICROFRAME_SAMPLES : (MACROFRAME_HALF + 1) * MICROFRAME_SAMPLES] += 1.0
    taps = sliding_window_view(history, n_taps, axis=1)
    forms[:, 0] = np.einsum("nk,nkj->nj", history[:, n_taps - 1 :] * c, taps)[:, ::-1]
    forms[:, 1:, 0] = forms[:, 0, 1:]
    # step[m] = c[m] - c[m - 1] (c = 0 outside the macroframe) is nonzero
    # only at the macroframe's and the center microframe's edges, and
    # Q[i+1, j+1] - Q[i, j] sums step[m] * t_{m-1}[i] * t_{m-1}[j] over them.
    step = np.diff(c, prepend=0.0, append=0.0)
    edges = np.flatnonzero(step)
    u = history[:, edges[:, None] + (n_taps - 2) - np.arange(n_taps - 1)]
    shift = (u * step[edges, None]).transpose(0, 2, 1) @ u
    for i in range(n_taps - 1):
        forms[:, i + 1, 1:] = forms[:, i, :-1] + shift[:, i]
    return forms


def total_gradients(
    forms: np.ndarray, labels: np.ndarray, weights: np.ndarray, bias: float
) -> tuple[float, np.ndarray, float]:
    """Summed loss and its gradients w.r.t. weights and bias over a stack of center_forms.

    A window's loss is -(score) for a missed shot, +(score) for a false
    alarm, and 0 for a correct classification (ties at score 0 count as
    non-shot). The score is w @ Q @ w + bias, so its weight gradient is
    2 Q w.
    """
    forms = np.asarray(forms, dtype=float)
    if forms.ndim != 3 or forms.shape[1:] != (weights.size, weights.size):
        raise ValueError("forms must be a (windows, taps, taps) stack")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (len(forms),):
        raise ValueError("need one label per window")
    qw = (forms.reshape(-1, weights.size) @ weights).reshape(len(forms), weights.size)
    score = qw @ weights + bias
    # +1 for a false alarm, -1 for a missed shot, 0 when correct.
    d_score = (score > 0.0) - labels
    return float(d_score @ score), 2.0 * (d_score @ qw), float(d_score.sum())


class _Adam:
    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def train_filter(data: list[LabeledAudioWindow], cfg: TrainConfig = TrainConfig()) -> FilterModel:
    """Fit FILTER_TAPS filter weights and the bias by mini-batch Adam on the decision loss.

    Weights start from N(0, INIT_STD^2) under cfg.seed, bias from 0.
    Negatives are subsampled (without replacement, when enough exist) to
    neg_pos_ratio per positive. Training stops at max_epochs or after an
    epoch whose total loss is zero. Batch gradients are means, keeping the
    learning rate scale-free in batch size.
    """
    positives = [w for w in data if w.label == 1]
    negatives = [w for w in data if w.label == 0]
    if not positives or not negatives:
        raise ValueError("degenerate training set")
    span_start, span_stop = _center_span(_shared_length(data), FILTER_TAPS)

    rng = np.random.default_rng(cfg.seed)
    weights = rng.normal(0.0, INIT_STD, FILTER_TAPS)

    wanted = int(round(cfg.neg_pos_ratio * len(positives)))
    if len(negatives) > wanted:
        picked = rng.choice(len(negatives), size=wanted, replace=False)
        negatives = [negatives[i] for i in picked]
    windows = positives + negatives

    if cfg.max_epochs == 0:
        return FilterModel(weights, 0.0)

    # The forms are the only per-window state the epochs read: built once,
    # a chunk at a time, from each window's center span alone. The spans
    # are decoded from PCM into one reused buffer, whose leading zeros pad
    # a span that starts before its window.
    forms = np.empty((len(windows), FILTER_TAPS, FILTER_TAPS))
    pad = max(-span_start, 0)
    history = np.zeros((min(FORM_CHUNK_WINDOWS, len(windows)), span_stop - span_start))
    for lo in range(0, len(windows), FORM_CHUNK_WINDOWS):
        chunk = windows[lo : lo + FORM_CHUNK_WINDOWS]
        spans = [w.samples[span_start + pad : span_stop] for w in chunk]
        np.multiply(np.array(spans), PCM_SCALE, out=history[: len(chunk), pad:])
        _history_forms(history[: len(chunk)], forms[lo : lo + len(chunk)])
    labels = np.repeat([1, 0], [len(positives), len(negatives)])

    params = np.concatenate([weights, [0.0]])
    opt = _Adam(params.size, cfg.learning_rate)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(windows))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            loss, d_w, d_b = total_gradients(forms[rows], labels[rows], params[:-1], params[-1])
            epoch_loss += loss
            grad = np.concatenate([d_w, [d_b]]) / len(rows)
            params = opt.step(params, grad)
        if epoch_loss == 0.0:
            break
    return FilterModel(params[:-1], float(params[-1]))
