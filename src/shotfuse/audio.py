"""Audio shot-likelihood pipeline: front FIR filter, frame energy, peak function.

The microphone stream is filtered, cut into short non-overlapping
microframes whose energy is summed, and each frame's energy is compared
against the mean of its surrounding macroframe. The resulting peak function
is a likelihood series on the 100 Hz clock of series.PERIOD_MS, one value
per microframe, that spikes at impact sounds; adding the model bias and
thresholding at zero turns it into a detector.

A recording stays 16-bit PCM from the WAV file to the filter, and the FIR
pass decodes it one chunk at a time. Every reader owns an int16 buffer
and has its source read the samples into it, one buffer at a time
(read_into): the workflows read the file (``dataio.WavFile``) straight
into those buffers and never hold the recording; training cuts its
windows, rows of a table of start samples (training.window_table), from
one ordered pass over them and decodes one chunk of windows at a time.
A :class:`PcmAudio` is the same recording in memory, and every reader
takes either. The audio clock starts at 0 ms with the first sample; the
IMU runs on its own clock, whose offset the synchronizer estimates. Every
value type here takes its arrays through series.freeze.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import dedup
from .series import PERIOD_MS, SampleSeries, deviation, finite_vector, fir_frames, freeze, freeze_in_place

__all__ = [
    "SAMPLE_RATE_HZ",
    "PCM_SCALE",
    "MICROFRAME_MS",
    "MICROFRAME_SAMPLES",
    "MACROFRAME_HALF",
    "MACROFRAME_FRAMES",
    "FILTER_TAPS",
    "WINDOW_SAMPLES",
    "PcmAudio",
    "FilterModel",
    "short_time_energy",
    "apf",
    "audio_likelihood",
    "audio_only_events",
]

#: Microphone sample rate; the WAV readers (read_wav and WavFile, through dataio._open_wav) accept no other.
SAMPLE_RATE_HZ = 8000
#: Amplitude of one 16-bit PCM step: PCM sample s stands for s * PCM_SCALE, in [-1, 1).
PCM_SCALE = 1.0 / 32768.0
#: Microframe length: the unit of frame energy, one period of the likelihood clock.
#: An int, as filter.json records it.
MICROFRAME_MS = int(PERIOD_MS)
MICROFRAME_SAMPLES = SAMPLE_RATE_HZ * MICROFRAME_MS // 1000
#: Microframes of context on each side of a frame; the macroframe spans 11 (110 ms).
MACROFRAME_HALF = 5
MACROFRAME_FRAMES = 2 * MACROFRAME_HALF + 1
#: Samples PcmAudio.from_float quantizes at a time: 0.5 MB of float64.
_QUANTIZE_SAMPLES = 1 << 16
#: Length of the trainable front FIR filter.
FILTER_TAPS = 23
#: Samples of a training window: the filter's history, then the macroframe it scores.
WINDOW_SAMPLES = FILTER_TAPS - 1 + MACROFRAME_FRAMES * MICROFRAME_SAMPLES


@dataclass(frozen=True, eq=False)
class PcmAudio:
    """A recording as read-only 16-bit PCM: the only in-memory form of audio.

    Sample k stands for samples[k] * PCM_SCALE at k / 8 ms: the audio clock
    starts at 0 and the rate is SAMPLE_RATE_HZ. Every int16 decodes exactly
    to float64, so consumers decode a chunk at a time and never hold the
    whole stream as floats. Frozen samples are adopted (see series.freeze),
    others copied; anything that is not a 16-bit integer array, floats and
    NaNs included, is rejected rather than silently truncated.
    """

    samples: np.ndarray

    def __post_init__(self):
        dtype = getattr(self.samples, "dtype", None)
        if not isinstance(self.samples, np.ndarray) or dtype.kind != "i" or dtype.itemsize != 2:
            got = dtype if dtype is not None else type(self.samples).__name__
            raise ValueError(f"audio samples must be 16-bit PCM (int16), got {got}")
        arr = freeze(self.samples, np.int16)
        if arr.ndim != 1:
            raise ValueError("audio samples must be one-dimensional")
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_float(cls, values) -> "PcmAudio":
        """Quantize float samples once: clip(round(v / PCM_SCALE)) to the int16 range, _QUANTIZE_SAMPLES at a time."""
        values = np.asarray(values, dtype=float)
        samples = np.empty(values.shape, dtype=np.int16)
        flat, out = values.reshape(-1), samples.reshape(-1)
        for start in range(0, flat.size, _QUANTIZE_SAMPLES):
            part = flat[start : start + _QUANTIZE_SAMPLES]
            if not np.isfinite(part).all():
                raise ValueError("audio values must be finite")
            scaled = part / PCM_SCALE
            np.round(scaled, out=scaled)
            np.clip(scaled, -32768, 32767, out=scaled)
            out[start : start + _QUANTIZE_SAMPLES] = scaled
        return cls(freeze_in_place(samples))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def end_time(self) -> float:
        """Timestamp one sample period past the last sample."""
        return len(self) * 1000.0 / SAMPLE_RATE_HZ

    def read_into(self, buffer: np.ndarray):
        """Copy the samples in order into the int16 buffer, len(buffer) at a time; yield each copy's count.

        Every copy but the last fills the whole buffer, as dataio.WavFile's reads do.
        """
        for start in range(0, len(self), buffer.size):
            count = min(buffer.size, len(self) - start)
            buffer[:count] = self.samples[start : start + count]
            yield count


@dataclass(frozen=True, eq=False)
class FilterModel:
    """Trainable audio front end: FIR weights plus the decision bias."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        arr = finite_vector(self.weights, "weights")
        if arr.size != FILTER_TAPS:
            raise ValueError(f"weights must hold {FILTER_TAPS} values, got {arr.size}")
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")
        object.__setattr__(self, "weights", arr)


def short_time_energy(x: PcmAudio, taps: np.ndarray) -> SampleSeries:
    """Sum of squared FIR-filtered samples per non-overlapping microframe.

    x is a PcmAudio or anything with its len() in samples and
    read_into(buffer), such as dataio.WavFile. The filter is causal with
    zero initial state (series.fir_frames) and reads the decoded samples
    (PCM * PCM_SCALE). Each chunk of frames is read into the filter's own
    int16 buffer, filtered as integers, squared and summed into the
    energies as it is made, so the filtered stream never exists in full,
    and a WavFile's PCM does not either; the energies are then scaled by
    PCM_SCALE**2 once. That is the decoded computation bit for bit:
    PCM_SCALE is 2**-15, and scaling by a power of two commutes with every
    rounding while the values stay normal. A trailing
    partial microframe is discarded. Each output value is timestamped at
    the center of its microframe on the audio clock, which starts at 0, so
    the first sits at MICROFRAME_MS / 2. The energies
    are the only array this makes that outlives the call; it is frozen, so
    the series adopts it, and nothing here keeps a reference to x.
    """
    if len(x) < MICROFRAME_SAMPLES:
        raise ValueError("insufficient samples")
    energy = np.empty(len(x) // MICROFRAME_SAMPLES)
    for lo, hi, block in fir_frames(x.read_into, taps, MICROFRAME_SAMPLES, energy.size):
        np.einsum("ij,ij->i", block, block, out=energy[lo:hi])
    energy *= PCM_SCALE**2
    return SampleSeries(MICROFRAME_MS / 2.0, freeze_in_place(energy))


def apf(energy: SampleSeries) -> SampleSeries:
    """Frame energy minus the mean energy of its centered macroframe.

    Only indices with a full macroframe of context are emitted, so the
    output is shorter by 2 * MACROFRAME_HALF frames and starts
    MACROFRAME_HALF frames later (50 ms of inherent lookahead). It is
    series.deviation of the energies, frozen and adopted, not copied.
    """
    out = deviation(energy.values, MACROFRAME_FRAMES, MACROFRAME_HALF)
    return SampleSeries(energy.start_time + MACROFRAME_HALF * PERIOD_MS, freeze_in_place(out))


def audio_likelihood(x: PcmAudio, model: FilterModel) -> SampleSeries:
    """Likelihood series of the filtered stream; the bias is not applied here.

    Downstream consumers (synchronizer, fusion) want the raw peak function;
    only :func:`audio_only_events` folds in the decision bias. x is a PcmAudio
    or a dataio.WavFile (see :func:`short_time_energy`); the detection
    workflows pass a WavFile, so the recording is read one FIR chunk at a
    time and never held.
    """
    return apf(short_time_energy(x, model.weights))


def audio_only_events(x: PcmAudio, model: FilterModel) -> np.ndarray:
    """Single-modality baseline: the microframes whose biased likelihood is strictly positive, deduplicated.

    x is as in audio_likelihood. Returns the (n, 2) event table: time_ms,
    then the biased likelihood as score, one row per event events.dedup keeps.
    """
    likelihood = audio_likelihood(x, model)
    scores = likelihood.values + model.bias
    hits = np.flatnonzero(scores > 0.0)
    times = likelihood.start_time + hits * PERIOD_MS
    kept = dedup(times)
    return np.column_stack((times[kept], scores[hits[kept]]))
