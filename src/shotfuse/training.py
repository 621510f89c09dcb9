"""Gradient training of the audio front filter and decision bias.

The detector is differentiable end to end: convolution -> per-frame energy
-> macroframe mean subtraction -> bias threshold. Misclassified windows
contribute the (signed) decision score as their loss; correct ones
contribute nothing. Gradients are propagated analytically through that
chain and applied with a mini-batch Adam loop.
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
    "total_gradients",
    "train_filter",
]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
#: Spread of the initial weights: 1/sqrt(taps) gives the initial filter unit
#: energy on average.
INIT_STD = 1.0 / math.sqrt(FILTER_TAPS)


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
    """(windows, samples) matrix and (windows,) labels of equal-length windows."""
    shape = (len(windows), _shared_length(windows))
    samples = np.array([w.samples for w in windows], dtype=float).reshape(shape)
    return samples, np.array([w.label for w in windows], dtype=int)


def _check_length(n_samples: int, n_taps: int) -> None:
    if n_samples < MACROFRAME_FRAMES * MICROFRAME_SAMPLES + n_taps - 1:
        raise ValueError("window too short")


def _center_history(samples: np.ndarray, n_taps: int) -> np.ndarray:
    """The samples the filter reads to output each row's center macroframe.

    That is the center microframe and MACROFRAME_HALF microframes on each
    side, preceded by n_taps - 1 samples of history (zeros before a
    window's first sample).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a (windows, samples) matrix")
    _check_length(samples.shape[1], n_taps)
    frame_len = MICROFRAME_SAMPLES
    first = (samples.shape[1] // frame_len // 2 - MACROFRAME_HALF) * frame_len
    start = first - (n_taps - 1)
    history = samples[:, max(start, 0) : first + MACROFRAME_FRAMES * frame_len]
    return np.pad(history, ((0, 0), (max(-start, 0), 0)))


def _center_scores(history: np.ndarray, weights: np.ndarray, bias: float):
    """Filtered center macroframes as (windows, frames, frame samples) and the biased scores.

    The score is the center frame's energy minus the mean energy of its
    macroframe, plus the bias.
    """
    taps = sliding_window_view(history, weights.size, axis=1)
    filtered = np.einsum("nkj,j->nk", taps, weights[::-1])
    blocks = filtered.reshape(len(history), MACROFRAME_FRAMES, MICROFRAME_SAMPLES)
    energy = np.einsum("nfk,nfk->nf", blocks, blocks)
    return blocks, energy[:, MACROFRAME_HALF] - energy.mean(axis=1) + bias


def window_scores(samples: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Biased likelihood at the center microframe of each row of a (windows, samples) matrix.

    The center microframe is number (samples // MICROFRAME_SAMPLES) // 2;
    a window needs a full macroframe around it plus n_taps - 1 samples.
    """
    return _center_scores(_center_history(samples, weights.size), weights, bias)[1]


def total_gradients(
    samples: np.ndarray, labels: np.ndarray, weights: np.ndarray, bias: float
) -> tuple[float, np.ndarray, float]:
    """Summed loss and its gradients w.r.t. weights and bias over the rows of samples.

    A row's loss is -(score) for a missed shot, +(score) for a false
    alarm, and 0 for a correct classification (ties at score 0 count as
    non-shot).
    """
    history = _center_history(samples, weights.size)
    labels = np.asarray(labels)
    if labels.shape != (len(history),):
        raise ValueError("need one label per window")
    blocks, score = _center_scores(history, weights, bias)
    predicted = score > 0.0
    false_alarm = predicted & (labels == 0)
    missed = ~predicted & (labels == 1)
    d_score = false_alarm - missed.astype(float)
    loss = float(np.sum(d_score * score))

    # Backpropagate score -> energy -> filtered signal -> weights over the
    # misclassified rows; the others contribute nothing.
    wrong = np.flatnonzero(d_score)
    m = MACROFRAME_FRAMES
    d_energy = np.eye(m)[MACROFRAME_HALF] - 1.0 / m
    d_blocks = 2.0 * blocks[wrong] * (d_score[wrong, None] * d_energy)[:, :, None]
    # filtered[k] = sum_j taps[k, j] * weights[n_taps - 1 - j]
    taps = sliding_window_view(history[wrong], weights.size, axis=1)
    d_weights = np.einsum("nk,nkj->j", d_blocks.reshape(taps.shape[:2]), taps)[::-1]
    return loss, d_weights, float(np.sum(d_score))


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
    _check_length(_shared_length(data), FILTER_TAPS)

    rng = np.random.default_rng(cfg.seed)
    weights = rng.normal(0.0, INIT_STD, FILTER_TAPS)

    wanted = int(round(cfg.neg_pos_ratio * len(positives)))
    if len(negatives) > wanted:
        picked = rng.choice(len(negatives), size=wanted, replace=False)
        negatives = [negatives[i] for i in picked]
    windows = positives + negatives

    if cfg.max_epochs == 0:
        return FilterModel(weights, 0.0)

    params = np.concatenate([weights, [0.0]])
    opt = _Adam(params.size, cfg.learning_rate)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(windows))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            samples, labels = stack_windows(
                [windows[i] for i in order[start : start + cfg.batch_size]]
            )
            loss, d_w, d_b = total_gradients(samples, labels, params[:-1], params[-1])
            epoch_loss += loss
            grad = np.concatenate([d_w, [d_b]]) / len(samples)
            params = opt.step(params, grad)
        if epoch_loss == 0.0:
            break
    return FilterModel(params[:-1], float(params[-1]))
