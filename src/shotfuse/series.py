"""Uniform sample series and the shared DSP primitives.

Every signal the pipeline derives (frame energies, likelihood functions,
IMU components) is a :class:`SampleSeries`: a start timestamp and values
on the one 100 Hz clock, so sample ``k`` is located at
``start_time + k * PERIOD_MS`` milliseconds. Raw audio stays 16-bit PCM
(``audio.PcmAudio``) and is filtered by :func:`fir_frames` one chunk at a
time, as integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "PERIOD_MS",
    "SampleSeries",
    "TRIANGLE_TAPS",
    "convolve",
    "deviation",
    "fir_frames",
    "triangle_smooth",
    "cross_correlate",
]


def _is_frozen(values, dtype) -> bool:
    """Whether values can be stored as is: no alias can ever write it.

    That is a C-contiguous ndarray of dtype, of any number of dimensions,
    that is read-only, as is every array in its .base chain, where the
    chain ends in a buffer numpy owns or in an immutable bytes object.
    Contiguity keeps results independent of adoption: every kernel sees
    the layout a copy would have.
    """
    if type(values) is not np.ndarray or values.dtype != dtype:
        return False
    arr = values
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return (arr is None or type(arr) is bytes) and values.flags.c_contiguous


def freeze_in_place(values: np.ndarray) -> np.ndarray:
    """A fresh array made read-only in place, so that freeze adopts it (or a contiguous view of it)."""
    values.flags.writeable = False
    return values


def freeze(values, dtype=np.float64) -> np.ndarray:
    """values as a read-only C-contiguous dtype array: a frozen array itself, anything else a frozen copy.

    Every value type takes its arrays through here. Adopting a view keeps
    its whole parent buffer alive.
    """
    if _is_frozen(values, dtype):
        return values
    return freeze_in_place(np.array(values, dtype=dtype, order="C"))


def _readonly_array(values, name: str) -> np.ndarray:
    arr = freeze(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    # NaN and +-inf reach the extremes (NaN compares false): two scalars check every value, with no bool array.
    if arr.size and not (-np.inf < arr.min() and arr.max() < np.inf):
        raise ValueError(f"{name} must be finite")
    return arr


#: Sample period of every series: the 10 ms microframe of the audio path
#: and the 100 Hz IMU, which the likelihoods line up sample by sample.
PERIOD_MS = 10.0


@dataclass(frozen=True, eq=False)
class SampleSeries:
    """Immutable scalar time series on the PERIOD_MS clock.

    start_time is in milliseconds since the stream epoch.
    """

    start_time: float = 0.0
    values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly_array(self.values, "values"))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_time(self) -> float:
        """Timestamp one sample period past the last sample."""
        return self.start_time + len(self) * PERIOD_MS

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(len(self)) * PERIOD_MS

    def index_at(self, t_ms):
        """Nearest sample index of a timestamp, or of each timestamp in an array.

        Ties round to even; the index may fall outside the series.
        """
        idx = np.rint((np.asarray(t_ms, dtype=float) - self.start_time) / PERIOD_MS)
        return int(idx) if idx.ndim == 0 else idx.astype(int)

    def with_values(self, values) -> "SampleSeries":
        return SampleSeries(self.start_time, values)

    def shifted(self, delta_ms: float) -> "SampleSeries":
        """Same samples relocated in time by delta_ms."""
        return SampleSeries(self.start_time + delta_ms, self.values)

    def slice_time(self, t0_ms: float, t1_ms: float) -> "SampleSeries":
        """Sub-series of samples with timestamps in [t0_ms, t1_ms)."""
        eps = 1e-9
        i0 = int(np.ceil((t0_ms - self.start_time) / PERIOD_MS - eps))
        i1 = int(np.ceil((t1_ms - self.start_time) / PERIOD_MS - eps))
        i0 = max(i0, 0)
        i1 = min(max(i1, i0), len(self))
        return SampleSeries(self.start_time + i0 * PERIOD_MS, self.values[i0:i1])


#: Peak-spreading kernel used before stream alignment, normalized to unit sum.
TRIANGLE_TAPS = np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]) / 16.0


#: Frames per matmul in fir_frames: about 200 kB per chunk buffer, less than the PCM of a minute of audio.
FIR_CHUNK_FRAMES = 256

#: Outputs per row of fir_frames' matmul, when it divides the frame. Each
#: row reads taps - 1 + FIR_BAND samples, so a narrow band skips most of
#: the zeros a frame-wide Toeplitz matrix multiplies.
FIR_BAND = 16


def fir_frames(read_into, taps: np.ndarray, frame: int, frames: int):
    """Causal FIR output of the PCM samples cut into frames, as (lo, hi, block) per chunk, in order.

    read_into(buffer) reads the int16 samples in order into buffer,
    len(buffer) of them at a time, and yields after each read how many it
    holds (all of buffer but on the last read); it is called once, with
    an int16 buffer of up to FIR_CHUNK_FRAMES * frame samples that this
    call owns. An in-memory recording copies them and a WAV file reads
    them (audio.PcmAudio.read_into, dataio.WavFile.read_into). With x the
    samples,
    block[i, j] = sum_t taps[t] * x[(lo + i) * frame + j - t]
    for the frames lo <= lo + i < hi of range(frames); x reads as zero
    before sample 0 and past its end.

    Each block is a view of one result buffer that every step overwrites:
    it is valid only until the generator is advanced, so a caller that
    keeps blocks must copy them. Each chunk of up to FIR_CHUNK_FRAMES
    frames is one read, cast into one reused float64 segment (its samples
    as float integers after the taps - 1 samples before it, which the
    segment carries from the previous chunk, zero-padded), so no
    source is ever held or converted whole, and is one matmul: rows of a
    strided read-only view of every band's window in the segment (its
    FIR_BAND outputs' samples and the taps - 1 before them), built once
    per call, against the Toeplitz band of the reversed taps. A frame that
    FIR_BAND does not divide is one band. The source is read to its end,
    so a source that checks its length does so on every call.
    """
    taps = np.asarray(taps, dtype=float)
    history = taps.size - 1
    band = FIR_BAND if frame % FIR_BAND == 0 else frame
    # Window row r holds sample (band start - history + r), so it meets output j at tap j + history - r.
    tap = np.arange(band) + history - np.arange(history + band)[:, None]
    toeplitz = np.where((tap >= 0) & (tap <= history), taps[np.clip(tap, 0, history)], 0.0)
    most = min(frames, FIR_CHUNK_FRAMES) * frame  # a short recording gets buffers of its own size
    pcm = np.empty(most, dtype=np.int16)
    reads = read_into(pcm)
    segment = np.zeros(history + most)
    windows = sliding_window_view(segment, history + band)[::band]
    result = np.empty((most // band, band))
    for lo in range(0, frames, FIR_CHUNK_FRAMES):
        hi = min(lo + FIR_CHUNK_FRAMES, frames)
        size = (hi - lo) * frame
        if lo:  # the previous chunk was full: its last history samples precede this one
            segment[:history] = segment[segment.size - history :]
        count = min(next(reads, 0), size)
        segment[history : history + count] = pcm[:count]
        segment[history + count : history + size] = 0.0
        rows = size // band
        np.matmul(windows[:rows], toeplitz, out=result[:rows])
        yield lo, hi, result[:rows].reshape(hi - lo, frame)
    for _ in reads:
        pass


def triangle_smooth(x: SampleSeries) -> SampleSeries:
    """Centered convolution with the normalized (1,2,3,4,3,2,1) kernel.

    Zero padding at the edges; a constant series is preserved in the interior.
    """
    if len(x) == 0:
        raise ValueError("empty signal")
    half = len(TRIANGLE_TAPS) // 2
    return x.with_values(freeze_in_place(convolve(x.values, TRIANGLE_TAPS, half, half + len(x))))


#: Outputs per np.convolve in convolve: 16 kB pieces, where a whole read-only 10-min series was copied (0.48 MB).
CONVOLVE_PIECE = 2048


def convolve(values: np.ndarray, kernel: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Outputs lo .. hi - 1 of np.convolve(values, kernel), bit for bit, as a fresh writeable array.

    np.convolve copies a read-only input whole, so each CONVOLVE_PIECE
    outputs convolve only the slice they read: the same dot products, in
    "valid" mode where all are whole windows. A slice holds at least
    min(len(values), len(kernel)) samples, since np.convolve swaps a
    shorter input with the kernel and sums in another order.
    """
    n, m = values.size, kernel.size
    width = min(n, m)
    out = np.empty(hi - lo)
    for p in range(lo, hi, CONVOLVE_PIECE):
        q = min(p + CONVOLVE_PIECE, hi)
        s = min(max(p - m + 1, 0), n - width)
        e = max(min(q, n), s + width)
        mode, skip = ("valid", 0) if (s, e) == (p - m + 1, q) else ("full", p - s)
        out[p - lo : q - lo] = np.convolve(values[s:e], kernel, mode)[skip : skip + q - p]
    return out


def deviation(values: np.ndarray, window: int, lead: int) -> np.ndarray:
    """values[i + lead] - mean(values[i : i + window]) for each whole window i, as a fresh writeable array."""
    if values.size < window:
        raise ValueError("insufficient context")
    out = convolve(values, np.ones(window) / window, window - 1, values.size)
    return np.subtract(values[lead : lead + out.size], out, out=out)


def _window_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Sum, sum of squares and constancy of x[lo:hi] for each (lo, hi) pair.

    All three come from one reused array of running totals whose first entry is 0.
    """
    running = np.zeros(x.size + 1)
    np.cumsum(x, out=running[1:])
    sums = running[hi] - running[lo]
    np.cumsum(np.square(x, out=running[1:]), out=running[1:])
    squares = running[hi] - running[lo]
    # running[i] counts the changes x[k] != x[k - 1] for 0 < k <= i.
    np.cumsum(np.not_equal(x[1:], x[:-1], out=running[1 : x.size]), out=running[1 : x.size])
    return sums, squares, running[hi - 1] == running[lo]


#: Samples of u per row of _lagged_products' matmul, and the most rows per copy of v's windows.
CORRELATE_BLOCK = 50
CORRELATE_CHUNK_ROWS = 32


def _lagged_products(u: np.ndarray, v: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_k u[k] * v[k + lag] for each lag in [-max_lag, +max_lag], in lag order; v reads as zero outside.

    u is cut into rows of CORRELATE_BLOCK samples (a reshape, but for a
    zero-padded copy of the chunk with a ragged last row), and row r meets
    the window of v that starts max_lag samples before it,
    CORRELATE_BLOCK + 2 * max_lag samples wide, zero outside v. A window
    inside v is a view of v; the few edge rows' windows view zero-padded
    copies of their stretch of v (_padded). The windows overlap, so
    chunks of up to CORRELATE_CHUNK_ROWS rows, spread evenly, are copied
    into one reused buffer, one matmul each, which sum into
    gram[i, j] = sum_r u[r, i] * window[r, j]. The sum for a lag is then
    the diagonal gram[i, i + lag + max_lag]. The buffers hold
    2 * CORRELATE_BLOCK + CORRELATE_CHUNK_ROWS window widths plus the edge
    stretches: about 0.5 MB at max_lag 200, growing with max_lag.
    """
    block = CORRELATE_BLOCK
    width = block + 2 * max_lag
    count = -(-u.size // block)  # rows of u
    # Rows per chunk: the fewest chunks, of even size (a one-row matmul is slow).
    per = -(-count // -(-count // CORRELATE_CHUNK_ROWS))
    # Row r's window is v[r * block - max_lag :][:width]; rows inner_lo .. inner_hi - 1 lie inside v.
    inner_lo = min(-(-max_lag // block), count)
    inner_hi = min(max((v.size - width + max_lag) // block + 1, inner_lo), count)
    stretches = (
        (0, inner_lo, _padded(v, -max_lag, inner_lo * block + max_lag)),
        (inner_lo, inner_hi, v[inner_lo * block - max_lag :]),
        (inner_hi, count, _padded(v, inner_hi * block - max_lag, count * block + max_lag)),
    )
    step = v.itemsize
    parts = [(lo, hi, np.ndarray((hi - lo, width), buffer=stretch, strides=(block * step, step)))
             for lo, hi, stretch in stretches if lo < hi]
    copied = np.empty((per, width))
    gram, product = np.empty((2, block, width))
    for lo in range(0, count, per):
        hi = min(lo + per, count)
        if hi * block <= u.size:
            u_rows = u[lo * block : hi * block].reshape(hi - lo, block)
        else:
            u_rows = np.zeros((hi - lo, block))
            u_rows.reshape(-1)[: u.size - lo * block] = u[lo * block :]
        for first, last, windows in parts:
            a, b = max(lo, first), min(hi, last)
            if a < b:
                np.copyto(copied[a - lo : b - lo], windows[a - first : b - first])
        np.matmul(u_rows.T, copied[: hi - lo], out=product if lo else gram)
        if lo:
            gram += product
    diagonals = np.ndarray((block, 2 * max_lag + 1), buffer=gram, strides=((width + 1) * step, step))
    return np.ones(block) @ diagonals


def _padded(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """v[lo:hi] for bounds that may lie past either end of v, zero there."""
    out = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, v.size)
    if a < b:
        out[a - lo : b - lo] = v[a:b]
    return out


def cross_correlate(a: SampleSeries, b: SampleSeries, max_lag: int) -> np.ndarray:
    """Normalized correlation of a[k] against b[k + lag] for each lag.

    Returns a float array of 2 * max_lag + 1 correlations, one per integer
    lag in [-max_lag, +max_lag] in lag order, so lag sits at index
    lag + max_lag. Each overlap window is zero-meaned and unit-normed, so
    correlations lie in [-1, 1]; a zero-variance window yields 0. If ``b``
    is ``a`` delayed by k samples, the maximum sits at lag k.

    All lags come from running sums (Lewis, "Fast Normalized
    Cross-Correlation", 1995): window sums and sums of squares by cumsum,
    cross terms by one blocked matmul of ``a`` against windows of
    zero-padded ``b`` (_lagged_products). On values of a binary grid such
    as the 1/16 steps of triangle-smoothed levels every product, sum,
    numerator and window variance is exact, so rounding happens only in the
    final product, square root and division: the result does not depend on
    the summation order, the block size or the BLAS thread count, and
    windows with equal statistics give bit-equal correlations.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty signal")
    if max_lag < 0 or max_lag >= min(len(a), len(b)):
        raise ValueError("max_lag must be smaller than both series")
    u, v = a.values, b.values
    lags = np.arange(-max_lag, max_lag + 1)
    i0 = np.maximum(0, -lags)
    i1 = np.minimum(u.size, v.size - lags)
    n = (i1 - i0).astype(float)
    su, suu, u_flat = _window_sums(u, i0, i1)
    sv, svv, v_flat = _window_sums(v, i0 + lags, i1 + lags)
    suv = _lagged_products(u, v, max_lag)
    num = n * suv - su * sv
    var = (n * suu - su * su) * (n * svv - sv * sv)
    # Off the grid, cancellation can leave a non-constant window a variance <= 0.
    live = ~(u_flat | v_flat) & (var > 0.0)
    corr = np.zeros(lags.size)
    corr[live] = num[live] / np.sqrt(var[live])
    return corr
