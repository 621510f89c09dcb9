"""Gradient training of the audio front filter and decision bias.

Training data is one window table over one recording (window_table), a
PcmAudio or a dataio.WavFile: the forms are cut from one ordered pass that
reads it into one reused buffer, so training on a WavFile never holds the PCM.
The detector is differentiable end to end: convolution -> per-frame energy ->
macroframe mean subtraction -> bias threshold. Misclassified windows
contribute the (signed) decision score as their loss; correct ones contribute
nothing. The whole chain is a quadratic form in the filter weights, so each
window's form is built once (center_forms), exactly and as its 276-entry upper
triangle, and every epoch scores and differentiates windows from it in
O(taps^2); the gradients are applied with a mini-batch Adam loop. Held-out
windows are scored from the same forms (form_scores).

A form's first row is a blocked matmul of the window's macroframe
samples, in rows of _BLOCK, against the overlapping spans each row meets;
the other rows follow by a diagonal recursion. Every product and partial
sum is an integer below 2^45, which float64 holds exactly, so any
summation order gives the same bytes: the forms do not depend on the
block size, the chunking or the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import (
    FILTER_TAPS,
    MACROFRAME_FRAMES,
    MACROFRAME_HALF,
    MICROFRAME_SAMPLES,
    PCM_SCALE,
    WINDOW_SAMPLES,
    FilterModel,
    PcmAudio,
)
from .forest import check_integer, check_seed

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
    "INIT_STD",
    "PACKED_TAPS",
    "TrainConfig",
    "center_forms",
    "form_scores",
    "total_gradients",
    "train_filter",
    "window_table",
]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
#: Spread of the initial weights: 1/sqrt(taps) gives the initial filter unit
#: energy on average.
INIT_STD = 1.0 / math.sqrt(FILTER_TAPS)
#: Windows whose forms center_forms builds at once.
FORM_CHUNK_WINDOWS = 64
#: Samples center_forms reads from its source at a time.
FORM_READ_SAMPLES = 81920
# Macroframe samples per row of the first form row's blocked product
# (_history_forms). It divides MICROFRAME_SAMPLES, so that the center
# microframe is whole rows.
_BLOCK = 10
#: Entries of a packed form: the upper triangle of a FILTER_TAPS square, row by row.
PACKED_TAPS = FILTER_TAPS * (FILTER_TAPS + 1) // 2

# Row and column of each packed entry, the packed index of every (i, j) of
# the full symmetric matrix, the packed offset of each row, and the factor
# that counts an off-diagonal pair w_i w_j twice.
_UPPER = np.triu_indices(FILTER_TAPS)
_SYMMETRIC = np.empty((FILTER_TAPS, FILTER_TAPS), dtype=np.intp)
_SYMMETRIC[_UPPER] = _SYMMETRIC.T[_UPPER] = np.arange(PACKED_TAPS)
_ROW_START = np.r_[0, np.cumsum(np.arange(FILTER_TAPS, 0, -1))]
_PAIR_SCALE = np.where(_UPPER[0] == _UPPER[1], 1.0, 2.0)
# The nonzero steps of 11 c over the center macroframe (10 on the center
# microframe, -1 on the rest, 0 outside) and where they are, the samples of
# t_{m-1}[i] = window[m + n_taps - 2 - i], i < n_taps - 1, at each step m,
# and 11 / PCM_SCALE^2 = 11 * 2^30, which turns M into Q.
_C11 = np.full(MACROFRAME_FRAMES * MICROFRAME_SAMPLES, -1.0)
_C11[MACROFRAME_HALF * MICROFRAME_SAMPLES : (MACROFRAME_HALF + 1) * MICROFRAME_SAMPLES] += MACROFRAME_FRAMES
_STEPS = np.diff(_C11, prepend=0.0, append=0.0)
_EDGES = np.flatnonzero(_STEPS)
_EDGE_SAMPLES = _EDGES[:, None] + (FILTER_TAPS - 2) - np.arange(FILTER_TAPS - 1)
_FORM_SCALE = MACROFRAME_FRAMES / PCM_SCALE**2


@dataclass(frozen=True)
class TrainConfig:
    """The two settable values of :func:`train_filter`: max_epochs and seed.

    The rest of the policy is fixed: Adam steps of learning_rate on
    mini-batches of batch_size windows, and negative windows subsampled to
    neg_pos_ratio per positive (20:1, matching the scarcity of shots in a
    real game).
    """

    learning_rate: ClassVar[float] = 1e-3
    batch_size: ClassVar[int] = 32
    neg_pos_ratio: ClassVar[float] = 20.0

    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if check_integer(self.max_epochs, "max_epochs") < 0:
            raise ValueError("max_epochs must be non-negative")
        check_seed(self.seed)


def window_table(starts, labels) -> np.recarray:
    """Training windows as one record array of int fields start and label, one row per window.

    A window is the WINDOW_SAMPLES samples of a recording from its start:
    the filter history, then the macroframe of the microframe it scores.
    Its samples stay in the recording; center_forms reads and checks them.
    """
    starts, labels = np.asarray(starts), np.asarray(labels)
    if starts.ndim != 1 or labels.shape != starts.shape:
        raise ValueError(f"need one label per window start, got {labels.shape} labels for {starts.shape} starts")
    if starts.size and (starts.dtype.kind not in "iu" or labels.dtype.kind not in "iu"):
        raise ValueError(f"window starts and labels must be integers, got {starts.dtype} and {labels.dtype}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    table = np.recarray(starts.size, dtype=[("start", np.int64), ("label", np.int64)])
    table.start, table.label = starts, labels
    return table


def center_forms(audio: PcmAudio, starts) -> np.ndarray:
    """Packed quadratic form of the center score of each window of a recording: (windows, PACKED_TAPS).

    audio is a PcmAudio or anything with its len() in samples and
    read_into(buffer), such as dataio.WavFile, and starts the first sample of
    each window in it, ascending, overlapping or repeated; row i is the form
    of the window at starts[i]. A window's center score, its center
    microframe's filtered energy minus its macroframe's mean energy plus the
    bias, is w @ Q @ w + bias for a symmetric Q of its samples; its row here
    is Q's upper triangle, row by row (form_scores). Filtered output k of the
    macroframe is w @ t_k, where t_k[i] = window[k + n_taps - 1 - i], and
    Q = sum_k c_k t_k t_k^T with c_k = 1 - 1/11 on the center microframe and
    -1/11 on the rest of the macroframe.

    The source is read once, in order and to its end, FORM_READ_SAMPLES
    at a time, so a source that checks its length does so on every call,
    and a WavFile's PCM is never held. Each read goes straight into one
    reused int16 segment, after the last WINDOW_SAMPLES - 1 samples before
    it; the windows it completes are cut from it in ascending start order,
    as PCM steps, into one reused buffer of FORM_CHUNK_WINDOWS rows, which
    fills across reads. Each full buffer's forms are built at once, into the
    next rows of the stack (the first row a few blocked matmuls, the rest
    a diagonal recursion: _history_forms), so the stack is built in place.
    Each entry is the correctly rounded exact value, whatever
    FORM_READ_SAMPLES, FORM_CHUNK_WINDOWS, _BLOCK or the BLAS thread
    count.
    """
    starts = np.asarray(starts)
    last = len(audio) - WINDOW_SAMPLES
    outside = starts.size and (starts.dtype.kind not in "iu" or starts.min() < 0 or starts.max() > last)
    if starts.ndim != 1 or outside:
        raise ValueError(f"window starts must be integers from 0 to {last}, so that every window lies in the samples")
    starts = starts.astype(np.intp, copy=False)  # signed: a window's place in the segment may be negative
    if (np.diff(starts) < 0).any():
        raise ValueError("window starts must ascend, so that each window is cut as the recording is read")
    forms = np.empty((starts.size, PACKED_TAPS))
    # After a read of `read` samples that ends at sample `end`, the segment
    # holds samples end - read - carry to end; no window still to cut starts
    # before them. The carry is junk before the first read, where no window starts.
    carry = WINDOW_SAMPLES - 1
    segment = np.empty(carry + FORM_READ_SAMPLES, dtype=np.int16)
    windows = sliding_window_view(segment, WINDOW_SAMPLES)
    history = np.empty((min(FORM_CHUNK_WINDOWS, starts.size), WINDOW_SAMPLES))
    done = filled = end = 0  # windows cut, those of them waiting in history, samples read
    for read in audio.read_into(segment[carry:]):
        if done == starts.size:  # the rest is read only for the source's length check
            continue
        end += read
        ready = np.searchsorted(starts, end - WINDOW_SAMPLES, side="right")
        while done < ready:
            take = min(ready - done, len(history) - filled)
            history[filled : filled + take] = windows[starts[done : done + take] - (end - read - carry)]
            filled, done = filled + take, done + take
            if filled == len(history) or done == starts.size:
                _history_forms(history[:filled], forms[done - filled : done])
                filled = 0
        segment[:carry] = segment[read : read + carry]
    return forms


def _history_forms(history: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """center_forms of C-contiguous window rows of PCM steps, written into packed forms; spends the rows.

    Up to the final division everything is an integer below 2^45, which
    float64 holds exactly in any summation order: the samples are PCM
    steps and 11 c_k is 10 or -1, so this builds M = 11 * 2^30 * Q, and no
    blocking, chunking or BLAS thread count can change a bit of it.

    The first row holds the lagged sums sum_k 11 c_k x[k] window[k + j],
    j < n_taps, of the macroframe's samples x[k] = window[k + n_taps - 1].
    They come from batched matmuls: x, reshaped into rows of _BLOCK
    samples, times the overlapping spans window[b * _BLOCK :][:width] of
    width = _BLOCK + n_taps - 1 that row b meets, so that entry (r, s) of a
    window's _BLOCK x width product sums x[k] window[k + s - r] over the k
    of column r of the rows, and diagonal j of the product sums to lag j.
    The rows go in interleaved groups whose spans lie groups * _BLOCK >=
    width samples apart: spans that do not overlap take BLAS, not numpy's
    slower loop, and the groups' diagonal sums add up to the lags.
    _BLOCK divides the microframe, so the center microframe is whole rows,
    and their product, times 11, adds the center's weight without a
    weighted copy of x. Shifting both indices by one moves every t_k back
    one output, so Q[i+1, j+1] = Q[i, j] plus one rank-one term per step
    of c (c is 0 outside the macroframe): packed row i+1 is row i without
    its last entry plus that step's row. Those rows are built in the
    window rows' own memory once the samples they read are gathered, so
    the rows hold junk after the call. The division rounds each entry of
    M / (11 * 2^30) once.
    """
    (n, size), n_taps, block = history.shape, FILTER_TAPS, _BLOCK
    width = block + n_taps - 1
    groups = -(-width // block)
    step = history.itemsize
    rows = history[:, n_taps - 1 :].reshape(n, -1, block).transpose(0, 2, 1)
    spans = np.ndarray((n, (size - width) // block + 1, width), buffer=history, strides=(size * step, block * step, step))
    center = slice(MACROFRAME_HALF * MICROFRAME_SAMPLES // block, (MACROFRAME_HALF + 1) * MICROFRAME_SAMPLES // block)
    product = np.empty((n, block, width))
    diagonals = np.ndarray((n, block, n_taps), buffer=product, strides=(block * width * step, (width + 1) * step, step))
    ones = np.ones(block)
    lagged = np.zeros((n, n_taps))
    for g in range(groups):
        np.matmul(rows[:, :, g::groups], spans[:, g::groups], out=product)
        lagged += ones @ diagonals
    np.matmul(rows[:, :, center], spans[:, center], out=product)
    forms[:, :n_taps] = (MACROFRAME_FRAMES * (ones @ diagonals) - lagged)[:, ::-1]
    del product, diagonals  # before the edge terms, so the chunk's peak falls
    # Q[i+1, j+1] - Q[i, j] sums step[m] * t_{m-1}[i] * t_{m-1}[j] over the
    # edges m of the macroframe and of the center microframe.
    # u holds every sample the steps read, so the spent rows take its weighted copy and the steps.
    u = history[:, _EDGE_SAMPLES]
    spent = history.reshape(-1)
    weighted = spent[: u.size].reshape(u.shape)
    shift = spent[u.size : u.size + n * (n_taps - 1) ** 2].reshape(n, n_taps - 1, n_taps - 1)
    np.matmul(np.multiply(u, _STEPS[_EDGES, None], out=weighted).transpose(0, 2, 1), u, out=shift)
    for i in range(n_taps - 1):
        row, below = _ROW_START[i], _ROW_START[i + 1]
        forms[:, below : below + n_taps - 1 - i] = forms[:, row : below - 1] + shift[:, i, i:]
    np.divide(forms, _FORM_SCALE, out=forms)
    return forms


def form_scores(forms: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Biased center score of each window from its packed form (center_forms): p @ pair(w) + bias."""
    return forms @ (weights[_UPPER[0]] * weights[_UPPER[1]] * _PAIR_SCALE) + bias


def total_gradients(
    forms: np.ndarray, labels: np.ndarray, weights: np.ndarray, bias: float
) -> tuple[float, np.ndarray, float]:
    """Summed loss and its gradients w.r.t. weights and bias over a stack of packed center_forms.

    A window's loss is -(score) for a missed shot, +(score) for a false
    alarm, and 0 for a correct classification (ties at score 0 count as
    non-shot). The score is w @ Q @ w + bias, so its weight gradient is
    2 Q w, and the batch's is 2 (sum of +-Q) w: one unpacked matrix.
    """
    forms = np.asarray(forms, dtype=float)
    if forms.ndim != 2 or forms.shape[1] != PACKED_TAPS or weights.size != FILTER_TAPS:
        raise ValueError("forms must be a (windows, PACKED_TAPS) stack for FILTER_TAPS weights")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (len(forms),):
        raise ValueError("need one label per window")
    score = form_scores(forms, weights, bias)
    # +1 for a false alarm, -1 for a missed shot, 0 when correct.
    d_score = (score > 0.0) - labels
    return float(d_score @ score), 2.0 * ((d_score @ forms)[_SYMMETRIC] @ weights), float(d_score.sum())


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


def train_filter(windows: np.recarray, cfg: TrainConfig, audio: PcmAudio) -> FilterModel:
    """Fit FILTER_TAPS filter weights and the bias by mini-batch Adam on the decision loss.

    windows is a window table (window_table) over audio, a PcmAudio or
    a dataio.WavFile, which center_forms reads once. Weights start
    from N(0, INIT_STD^2) under cfg.seed, bias from 0. Negatives are
    subsampled (without replacement, when enough exist) to neg_pos_ratio
    per positive. Training stops at max_epochs or after an epoch whose
    total loss is zero. Batch gradients are means, keeping the learning
    rate scale-free in batch size.
    """
    positives = np.flatnonzero(windows["label"] == 1)
    negatives = np.flatnonzero(windows["label"] == 0)
    if not positives.size or not negatives.size:
        raise ValueError("degenerate training set")

    rng = np.random.default_rng(cfg.seed)
    weights = rng.normal(0.0, INIT_STD, FILTER_TAPS)

    wanted = int(round(cfg.neg_pos_ratio * positives.size))
    if negatives.size > wanted:
        negatives = negatives[rng.choice(negatives.size, size=wanted, replace=False)]

    if cfg.max_epochs == 0:
        return FilterModel(weights, 0.0)

    # The packed forms are the only per-window state the epochs read. They
    # are built in ascending start order; row_of maps each chosen window,
    # positives first, to its row, so each epoch's permutation picks the
    # same windows in the same order whatever the row order.
    chosen = windows[np.concatenate([positives, negatives])]
    by_start = np.argsort(chosen["start"])
    forms = center_forms(audio, chosen["start"][by_start])
    labels = chosen["label"][by_start]
    row_of = np.empty_like(by_start)
    row_of[by_start] = np.arange(by_start.size)

    params = np.concatenate([weights, [0.0]])
    opt = _Adam(params.size, cfg.learning_rate)
    for _ in range(cfg.max_epochs):
        order = row_of[rng.permutation(len(forms))]
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
