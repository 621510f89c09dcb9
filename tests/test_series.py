import numpy as np
import pytest

import shotfuse.series
from shotfuse import (
    ImuComponents,
    PcmAudio,
    SampleSeries,
    apf,
    cross_correlate,
    ipf,
    lowpass,
    quantize,
    short_time_energy,
    triangle_smooth,
)
from shotfuse.audio import MACROFRAME_FRAMES, PCM_SCALE
from shotfuse.imu import IPF_WINDOW, LOWPASS_A, LOWPASS_B, LOWPASS_RESPONSE
from shotfuse.series import CONVOLVE_PIECE, FIR_CHUNK_FRAMES, TRIANGLE_TAPS, convolve, fir_frames


def make(values, start=0.0):
    return SampleSeries(start, np.asarray(values, dtype=float))


# --- SampleSeries basics -------------------------------------------------


def test_series_rejects_nonfinite():
    with pytest.raises(ValueError):
        make([1.0, np.nan])


def test_series_timestamps():
    s = make([0, 1, 2], start=40.0)
    assert np.allclose(s.times(), [40.0, 50.0, 60.0])
    assert s.end_time == 70.0
    assert s.index_at(51.0) == 1


def test_series_slice_time():
    s = make(np.arange(10))
    sub = s.slice_time(20.0, 50.0)
    assert sub.start_time == 20.0
    assert np.array_equal(sub.values, [2, 3, 4])


def test_series_values_are_immutable():
    s = make([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def frozen(values):
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def test_series_adopts_frozen_arrays():
    owned = frozen([1.0, 2.0, 3.0])
    over_bytes = np.frombuffer(np.arange(3.0).tobytes())
    for x in (owned, owned[1:], over_bytes):
        assert np.shares_memory(SampleSeries(0.0, x).values, x)


def test_series_checks_adopted_arrays():
    for values in ([1.0, np.inf], [1.0, -np.inf], [np.nan, 1.0], [np.nan, np.inf], [np.inf, 2.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            SampleSeries(0.0, frozen(values))


def test_series_copies_writeable_input():
    x = np.array([1.0, 2.0])
    s = SampleSeries(0.0, x)
    x[0] = 9.0
    assert s.values.tolist() == [1.0, 2.0]
    assert not s.values.flags.writeable


def test_series_copies_read_only_view_of_writeable_base():
    base = np.array([1.0, 2.0, 3.0])
    view = base[1:]
    view.flags.writeable = False
    s = SampleSeries(0.0, view)
    base[1] = 9.0
    assert s.values.tolist() == [2.0, 3.0]


def test_series_copies_read_only_array_over_mutable_buffer():
    buffer = bytearray(np.array([1.0, 2.0]).tobytes())
    x = np.frombuffer(buffer)
    x.flags.writeable = False
    s = SampleSeries(0.0, x)
    buffer[:8] = np.array([9.0]).tobytes()
    assert s.values.tolist() == [1.0, 2.0]


def test_series_copies_frozen_arrays_of_another_layout():
    wide = frozen(np.arange(6.0))
    for x in (wide.astype(np.float32), wide[::2], wide.astype(">f8")):
        x.flags.writeable = False
        values = SampleSeries(0.0, x).values
        assert not np.shares_memory(values, x)
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tolist() == x.tolist()


def test_stages_hand_over_the_arrays_they_make_without_a_copy(monkeypatch):
    # lowpass, apf, ipf, quantize and triangle_smooth freeze their fresh outputs, so the series adopt them.
    is_frozen = shotfuse.series._is_frozen
    rejected = []

    def spy(values, dtype):
        adopted = is_frozen(values, dtype)
        if not adopted and getattr(values, "dtype", None) == np.float64:
            rejected.append(values.size)
        return adopted

    x = make(np.random.default_rng(5).uniform(0.0, 1.0, 200))
    comps = ImuComponents(x, x, x, x)
    monkeypatch.setattr(shotfuse.series, "_is_frozen", spy)
    outputs = [lowpass(x), apf(x), ipf(comps), quantize(x, [0.2, 0.4, 0.6, 0.8]), triangle_smooth(x)]
    assert [len(s) for s in outputs] == [200, 190, 191, 200, 200]
    assert rejected == []


# --- fir_frames ------------------------------------------------------------

FRAME = 80  # audio microframe: one row of the blocked matmul


def steps(rng, n, most=32768):
    """n random decoded PCM samples: steps of PCM_SCALE below most steps in size."""
    return rng.integers(-most, most, n) * PCM_SCALE


def fir(x, taps):
    """Causal "same"-length FIR output of x, decoded PCM samples, stitched from fir_frames' blocks."""
    audio = PcmAudio.from_float(x)
    assert np.array_equal(audio.samples * PCM_SCALE, x), "x must be whole PCM steps"
    frames = -(-len(x) // FRAME)
    out = np.empty((frames, FRAME))
    for lo, hi, block in fir_frames(audio.read_into, taps, FRAME, frames):
        out[lo:hi] = block * PCM_SCALE
    return out.ravel()[: len(x)]


def test_fir_impulse_response():
    taps = np.array([0.5, -0.25, 0.125])
    out = fir(np.r_[0.5, np.zeros(9)], taps)
    assert np.allclose(out[:3], 0.5 * taps)
    assert np.allclose(out[3:], 0.0)


def test_fir_single_tap_identity(rng):
    x = steps(rng, 30)
    assert np.array_equal(fir(x, np.array([1.0])), x)


def brute_force_convolve(x, taps):
    # independent double-loop evaluation of out[k] = sum_t taps[t] * x[k-t]
    out = np.zeros(len(x))
    for k in range(len(x)):
        for t in range(len(taps)):
            if 0 <= k - t < len(x):
                out[k] += taps[t] * x[k - t]
    return out


def test_fir_matches_bruteforce(rng):
    x = steps(rng, 50)
    taps = rng.standard_normal(23)
    expected = brute_force_convolve(x, taps)
    assert np.allclose(fir(x, taps), expected, rtol=1e-12, atol=1e-12)


def test_fir_empty_signal_error():
    # The FIR front end refuses an empty recording.
    with pytest.raises(ValueError, match="insufficient samples"):
        short_time_energy(PcmAudio(np.empty(0, dtype=np.int16)), np.array([1.0]))


def test_fir_linearity_property():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(11)
    for _ in range(100):
        # Integer weights on samples of at most 1024 steps keep the sum whole PCM steps.
        x = steps(rng, 40, 1024)
        y = steps(rng, 40, 1024)
        a, b = rng.integers(-15, 16, 2)
        combined = fir(a * x + b * y, w)
        split = a * fir(x, w) + b * fir(y, w)
        assert np.allclose(combined, split, atol=1e-9)


# --- blocked FIR kernel: fir_frames and the filtered frame energy -----------

LONG = 3 * FIR_CHUNK_FRAMES * FRAME + 37  # three full chunks and a partial tail frame
TAP_COUNTS = (1, 2, 23, 81, 200)  # at 81 and 200 the history is longer than one frame


def short_lengths(n_taps):
    return (1, 79, 80, 81, n_taps - 1 + FRAME, n_taps + FRAME)


def brute_force_at(x, taps, ks):
    # out[k] = sum_t taps[t] * x[k-t] by a double loop, at the listed indexes only
    out = []
    for k in ks:
        acc = 0.0
        for t in range(len(taps)):
            if 0 <= k - t < len(x):
                acc += taps[t] * x[k - t]
        out.append(acc)
    return np.array(out)


def frame_energy(filtered):
    frames = len(filtered) // FRAME
    return np.array([sum(float(v) ** 2 for v in filtered[FRAME * i : FRAME * (i + 1)]) for i in range(frames)])


@pytest.mark.parametrize("n_taps", TAP_COUNTS)
def test_blocked_fir_matches_bruteforce_at_every_short_length(rng, n_taps):
    taps = rng.standard_normal(n_taps)
    for n in short_lengths(n_taps):
        x = steps(rng, n)
        out = fir(x, taps)
        assert len(out) == n
        assert np.allclose(out, brute_force_convolve(x, taps), rtol=1e-12, atol=1e-12), n


@pytest.mark.parametrize("n_taps", TAP_COUNTS)
def test_blocked_fir_across_chunk_boundaries(rng, n_taps):
    taps = rng.standard_normal(n_taps)
    x = steps(rng, LONG)
    out = fir(x, taps)
    assert len(out) == LONG
    chunk = FIR_CHUNK_FRAMES * FRAME
    ks = np.r_[
        np.arange(n_taps + FRAME),  # zero history at the start
        *[np.arange(b - n_taps - 1, b + n_taps + 1) for b in (chunk, 2 * chunk)],
        np.arange(3 * chunk - n_taps - 1, LONG),  # the last chunk boundary and the partial tail
    ]
    assert np.allclose(out[ks], brute_force_at(x, taps, ks), rtol=1e-12, atol=1e-12)
    assert np.allclose(out, np.convolve(x, taps)[:LONG], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_taps", TAP_COUNTS)
def test_filtered_energy_matches_bruteforce_then_frame_sums(rng, n_taps):
    taps = rng.standard_normal(n_taps)
    for n in short_lengths(n_taps) + (LONG,):
        audio = PcmAudio.from_float(rng.standard_normal(n))
        if n < FRAME:
            with pytest.raises(ValueError, match="insufficient samples"):
                short_time_energy(audio, taps)
            continue
        x = audio.samples / 32768.0
        filtered = brute_force_convolve(x, taps) if n < LONG else np.convolve(x, taps)[:n]
        out = short_time_energy(audio, taps)
        assert out.start_time == 5.0
        assert np.allclose(out.values, frame_energy(filtered), rtol=1e-12, atol=0.0), n


def frame_wide_fir_frames(read_into, taps, frame, frames):
    """Reference fir_frames: one fresh segment and result per chunk, and a frame-wide Toeplitz matrix."""
    taps = np.asarray(taps, dtype=float)
    history = taps.size - 1
    span = history + frame
    tap = np.arange(frame) + history - np.arange(span)[:, None]
    toeplitz = np.where((tap >= 0) & (tap <= history), taps[np.clip(tap, 0, history)], 0.0)
    pcm = np.empty(FIR_CHUNK_FRAMES * frame, dtype=np.int16)
    reads = read_into(pcm)
    before = np.zeros(history)
    for lo in range(0, frames, FIR_CHUNK_FRAMES):
        hi = min(lo + FIR_CHUNK_FRAMES, frames)
        segment = np.zeros(history + (hi - lo) * frame)
        segment[:history] = before
        count = min(next(reads, 0), (hi - lo) * frame)
        segment[history : history + count] = pcm[:count]
        before = segment[segment.size - history :].copy()
        yield lo, hi, np.lib.stride_tricks.sliding_window_view(segment, span)[::frame] @ toeplitz


def block_energies(frames_of, audio, taps, frame, frames=None):
    """Energy in squared PCM steps of the first frames frames.

    By default that is every frame that holds a sample, a last partial frame read as zero past the end.
    """
    energy = np.empty(-(-len(audio) // frame) if frames is None else frames)
    for lo, hi, block in frames_of(audio.read_into, taps, frame, energy.size):
        np.einsum("ij,ij->i", block, block, out=energy[lo:hi])
    return energy


@pytest.mark.parametrize("frame", (FRAME, 10))
@pytest.mark.parametrize("n_taps", (1, 23, 81, 200))
def test_banded_fir_energy_matches_the_frame_wide_reference(rng, n_taps, frame):
    taps = rng.standard_normal(n_taps)
    audio = PcmAudio.from_float(rng.standard_normal(3 * FIR_CHUNK_FRAMES * frame + 5 * frame + 3))
    expected = block_energies(frame_wide_fir_frames, audio, taps, frame)
    assert expected.size > 3 * FIR_CHUNK_FRAMES
    assert np.allclose(block_energies(fir_frames, audio, taps, frame), expected, rtol=1e-12, atol=0.0)
    if frame == FRAME:  # which drops the partial frame
        assert np.allclose(short_time_energy(audio, taps).values, expected[:-1] * PCM_SCALE**2, rtol=1e-12, atol=0.0)


def decoded_fir_frames(read_into, taps, frame, frames):
    """fir_frames as it filtered decoded samples: each chunk's int16 samples times PCM_SCALE, then the banded matmul."""
    taps = np.asarray(taps, dtype=float)
    history = taps.size - 1
    band = shotfuse.series.FIR_BAND if frame % shotfuse.series.FIR_BAND == 0 else frame
    tap = np.arange(band) + history - np.arange(history + band)[:, None]
    toeplitz = np.where((tap >= 0) & (tap <= history), taps[np.clip(tap, 0, history)], 0.0)
    most = min(frames, FIR_CHUNK_FRAMES) * frame
    pcm = np.empty(most, dtype=np.int16)
    reads = read_into(pcm)
    segment = np.zeros(history + most)
    windows = np.lib.stride_tricks.sliding_window_view(segment, history + band)[::band]
    result = np.empty((most // band, band))
    for lo in range(0, frames, FIR_CHUNK_FRAMES):
        hi = min(lo + FIR_CHUNK_FRAMES, frames)
        size = (hi - lo) * frame
        if lo:
            segment[:history] = segment[segment.size - history :]
        count = min(next(reads, 0), size)
        np.multiply(pcm[:count], PCM_SCALE, out=segment[history : history + count])
        segment[history + count : history + size] = 0.0
        rows = size // band
        np.matmul(windows[:rows], toeplitz, out=result[:rows])
        yield lo, hi, result[:rows].reshape(hi - lo, frame)


@pytest.mark.parametrize("n_taps", (1, 23, 81, 200))
def test_energy_of_integer_pcm_is_the_decoded_energy_bit_for_bit(rng, n_taps):
    # PCM_SCALE is 2**-15: scaling by it commutes with every rounding of the filter and the squares.
    n = 3 * FIR_CHUNK_FRAMES * FRAME + 5 * FRAME + 37
    recordings = {
        "random": rng.integers(-32768, 32768, n),
        "silence": np.zeros(n, dtype=int),
        "full scale": rng.choice([-32768, 32767], n),
    }
    for name, samples in recordings.items():
        audio = PcmAudio(samples.astype(np.int16))
        # Magnitudes from 1e-3 to 1e3, of both signs.
        taps = 10.0 ** rng.uniform(-3.0, 3.0, n_taps) * rng.choice([-1.0, 1.0], n_taps)
        # The whole frames only, as short_time_energy filters them: the chunks' matmuls then have the same rows.
        decoded = block_energies(decoded_fir_frames, audio, taps, FRAME, len(audio) // FRAME)
        assert np.array_equal(short_time_energy(audio, taps).values, decoded), name
        assert name == "silence" or decoded.min() > 0.0, name


def test_fir_blocks_are_valid_until_the_next_step(rng):
    # Every block is a view of one buffer that the next step overwrites, so kept blocks must be copies.
    taps = rng.standard_normal(23)
    read = PcmAudio.from_float(steps(rng, 3 * FIR_CHUNK_FRAMES * FRAME)).read_into
    kept, copies = [], []
    for lo, hi, block in fir_frames(read, taps, FRAME, 3 * FIR_CHUNK_FRAMES):
        kept.append(block)
        copies.append(block.copy())
    assert len(kept) == 3 and all(np.shares_memory(block, kept[0]) for block in kept)
    assert np.array_equal(kept[0], copies[-1])
    reference = frame_wide_fir_frames(read, taps, FRAME, 3 * FIR_CHUNK_FRAMES)
    reference = np.concatenate([block for _, _, block in reference])
    assert np.allclose(np.concatenate(copies), reference, rtol=1e-12, atol=1e-12)


# --- lowpass ---------------------------------------------------------------

# The 2nd-order Butterworth low-pass at 10 Hz for 100 Hz, as scipy.signal.butter(2, 10, fs=100) gives it.
BUTTER_B = np.array([0.0674552738890719, 0.1349105477781438, 0.0674552738890719])
BUTTER_A = np.array([1.0, -1.1429805025399011, 0.41280159809618877])


def frequency_response(f_hz, n=4096):
    """|H| of lowpass on a 100 Hz series at f_hz, from the DTFT of its impulse response."""
    impulse = lowpass(make(np.r_[1.0, np.zeros(n - 1)])).values
    return abs(np.sum(impulse * np.exp(-2j * np.pi * f_hz / 100.0 * np.arange(n))))


def test_lowpass_coefficients_match_butterworth_design():
    assert np.allclose(LOWPASS_B, BUTTER_B, rtol=0.0, atol=1e-15)
    assert np.allclose(LOWPASS_A, BUTTER_A, rtol=0.0, atol=1e-15)


def test_lowpass_group_delay():
    # DC group delay of the impulse response, in samples: 21.8 ms at 100 Hz.
    h = lowpass(make(np.r_[1.0, np.zeros(199)])).values
    k = np.arange(h.size)
    assert abs(np.sum(k * h) / np.sum(h) - 2.176) <= 1e-3


def test_lowpass_dc_gain():
    x = make(np.full(500, 3.5))
    out = lowpass(x)
    assert abs(out.values[-1] - 3.5) < 1e-6  # settled transient


def test_lowpass_cutoff_gain_is_half_power():
    assert abs(frequency_response(10.0) - 1 / np.sqrt(2)) < 0.05 / np.sqrt(2)


def test_lowpass_attenuates_high_frequency():
    # transfer-function magnitude at 40 Hz should be well below 0.1
    assert frequency_response(40.0) < 0.1
    # and so should the steady-state amplitude of a filtered sine
    t = np.arange(2000) / 100.0
    out = lowpass(make(np.sin(2 * np.pi * 40.0 * t)))
    assert np.max(np.abs(out.values[500:])) < 0.1


def test_iir_identity_and_zero():
    x = make(np.zeros(20), start=30.0)
    out = lowpass(x)
    assert np.array_equal(out.values, x.values)
    assert (out.start_time, len(out)) == (x.start_time, len(x))
    with pytest.raises(ValueError, match="empty signal"):
        lowpass(make([]))


def direct_recursion(b, a, x):
    # textbook direct-form I recursion with zero initial state
    y = np.zeros_like(x)
    for n in range(len(x)):
        acc = 0.0
        for i in range(len(b)):
            if n - i >= 0:
                acc += b[i] * x[n - i]
        for j in range(1, len(a)):
            if n - j >= 0:
                acc -= a[j] * y[n - j]
        y[n] = acc
    return y


def test_iir_matches_direct_recursion(rng):
    x = rng.standard_normal(200)
    out = lowpass(make(x))
    expected = direct_recursion(BUTTER_B, BUTTER_A, x)
    assert np.allclose(out.values, expected, rtol=1e-12, atol=1e-12)


def test_iir_bounded_output_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 300)
        out = lowpass(make(x))
        assert np.max(np.abs(out.values)) <= 100.0 * np.max(np.abs(x))


# --- convolve ----------------------------------------------------------------


@pytest.mark.parametrize("kernel, outputs", [
    (np.ones(MACROFRAME_FRAMES) / MACROFRAME_FRAMES, lambda n: (MACROFRAME_FRAMES - 1, n)),  # apf: whole windows
    (np.ones(IPF_WINDOW) / IPF_WINDOW, lambda n: (IPF_WINDOW - 1, n)),  # ipf: whole windows
    (LOWPASS_RESPONSE, lambda n: (0, n)),  # lowpass: the causal outputs
    (TRIANGLE_TAPS, lambda n: (3, 3 + n)),  # triangle_smooth: the centered outputs
], ids=["apf", "ipf", "lowpass", "triangle_smooth"])
def test_convolve_pieces_are_bit_equal_to_one_convolution(rng, monkeypatch, kernel, outputs):
    # Each output is the same dot product, wherever the pieces end, also where a piece's
    # slice would be shorter than the kernel, for which np.convolve swaps its operands.
    m = kernel.size
    steps = (-m - 1, -m, -m + 1, -1, 0, 1, m - 1, m, m + 1)
    for piece in (1, 7, 50, CONVOLVE_PIECE, None):  # None: one piece for every length
        monkeypatch.setattr(shotfuse.series, "CONVOLVE_PIECE", piece or 3 * CONVOLVE_PIECE)
        near = {k * (piece or CONVOLVE_PIECE) + d for k in (1, 2) for d in steps}
        for n in sorted(set(range(1, 131)) | {n for n in near if n > 0}):
            values = frozen(rng.exponential(1.0, n) ** 3)
            lo, hi = outputs(n)
            if hi <= lo:
                continue  # its caller needs a whole window
            whole = np.convolve(values, kernel)[lo:hi]
            assert convolve(values, kernel, lo, hi).tobytes() == whole.tobytes(), (piece, n)


# --- triangle_smooth ------------------------------------------------------


def test_triangle_impulse_response():
    x = np.zeros(15)
    x[7] = 1.0
    out = triangle_smooth(make(x))
    assert np.allclose(out.values[4:11], TRIANGLE_TAPS)
    assert out.values[7] == pytest.approx(4.0 / 16.0)


def test_triangle_preserves_constant_interior():
    out = triangle_smooth(make(np.full(20, 5.0)))
    assert np.allclose(out.values[3:-3], 5.0, atol=1e-12)


def centered_convolution(x, kernel):
    half = len(kernel) // 2
    out = np.zeros_like(x)
    for i in range(len(x)):
        for j, k in enumerate(kernel):
            src = i + j - half
            if 0 <= src < len(x):
                out[i] += k * x[src]
    return out


def test_triangle_matches_centered_convolution(rng):
    x = rng.standard_normal(40)
    out = triangle_smooth(make(x))
    # symmetric kernel: convolution equals correlation
    expected = centered_convolution(x, TRIANGLE_TAPS[::-1])
    assert np.allclose(out.values, expected, rtol=1e-12, atol=1e-12)


def test_triangle_preserves_isolated_maximum():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = np.zeros(60)
        pos = int(rng.integers(5, 55))
        x[pos] = rng.uniform(1.0, 10.0)
        out = triangle_smooth(make(x))
        assert int(np.argmax(out.values)) == pos


# --- cross_correlate -------------------------------------------------------


def test_crosscorr_self_peak_at_zero(rng):
    x = make(rng.standard_normal(100))
    corr = cross_correlate(x, x, 10)
    assert corr.shape == (21,)
    assert int(np.argmax(corr)) - 10 == 0
    assert corr.max() == pytest.approx(1.0)


@pytest.mark.parametrize("shift", [-7, -1, 3, 12])
def test_crosscorr_recovers_shift(rng, shift):
    base = rng.standard_normal(200)
    shifted = np.roll(base, shift)  # b[i] = a[i - shift]
    corr = cross_correlate(make(base), make(shifted), 20)
    assert int(np.argmax(corr)) - 20 == shift


def test_crosscorr_constant_is_zero():
    a = make(np.full(50, 2.0))
    b = make(np.full(50, -1.0))
    assert np.all(cross_correlate(a, b, 5) == 0.0)


def test_crosscorr_lag_symmetry_property():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = make(rng.standard_normal(60))
        b = make(rng.standard_normal(60))
        ab = cross_correlate(a, b, 8)
        ba = cross_correlate(b, a, 8)
        for lag in range(-8, 9):
            assert ab[lag + 8] == pytest.approx(ba[-lag + 8], abs=1e-9)


def brute_correlate(a, b, max_lag):
    """Per-lag oracle: mean-subtract each overlap window, then normalize; in lag order."""
    out = []
    for lag in range(-max_lag, max_lag + 1):
        i0 = max(0, -lag)
        i1 = min(a.size, b.size - lag)
        du = a[i0:i1] - a[i0:i1].mean()
        dv = b[i0 + lag : i1 + lag] - b[i0 + lag : i1 + lag].mean()
        denom = np.sqrt(np.dot(du, du) * np.dot(dv, dv))
        out.append(0.0 if denom == 0.0 else float(np.dot(du, dv) / denom))
    return np.array(out)


def grid_train(rng, n):
    """Sparse quantized levels, triangle-smoothed: every value a multiple of 1/16."""
    levels = np.where(rng.random(n) < 0.2, rng.integers(1, 5, n), 0).astype(float)
    return triangle_smooth(make(levels))


def test_crosscorr_matches_brute_force_on_grid_trains():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = grid_train(rng, int(rng.integers(20, 120)))
        b = grid_train(rng, int(rng.integers(20, 120)))
        max_lag = int(rng.integers(0, min(len(a), len(b))))
        fast = cross_correlate(a, b, max_lag)
        slow = brute_correlate(a.values, b.values, max_lag)
        assert fast.shape == slow.shape == (2 * max_lag + 1,)
        for c_fast, c_slow in zip(fast, slow):
            assert abs(c_fast - c_slow) <= 1e-12


def test_crosscorr_constant_non_dyadic_window_is_exactly_zero(rng):
    a = np.r_[np.full(40, 0.1), rng.standard_normal(10)]
    b = rng.standard_normal(50)
    corr = cross_correlate(make(a), make(b), 20)
    for lag in range(10, 21):  # the window a[0 : 50 - lag] holds only the 0.1 run
        assert corr[lag + 20] == 0.0
    assert np.all(cross_correlate(make(np.full(30, 0.1)), make(b[:30]), 10) == 0.0)


def test_crosscorr_general_floats_match_brute_force(rng):
    for _ in range(20):
        a = rng.standard_normal(int(rng.integers(10, 80)))
        b = rng.standard_normal(int(rng.integers(10, 80)))
        max_lag = int(rng.integers(0, min(a.size, b.size)))
        fast = cross_correlate(make(a), make(b), max_lag)
        for c_fast, c_slow in zip(fast, brute_correlate(a, b, max_lag)):
            assert c_fast == pytest.approx(c_slow, abs=1e-9)


def correlate_oracle(a, b, max_lag):
    """cross_correlate as it was before the blocked matmul: window sums by concatenated cumsums, cross terms by np.correlate."""

    def window_sums(x, lo, hi):
        c1 = np.concatenate(([0.0], np.cumsum(x)))
        c2 = np.concatenate(([0.0], np.cumsum(x * x)))
        changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
        return c1[hi] - c1[lo], c2[hi] - c2[lo], changes[hi - 1] == changes[lo]

    u, v = a.values, b.values
    lags = np.arange(-max_lag, max_lag + 1)
    i0 = np.maximum(0, -lags)
    i1 = np.minimum(u.size, v.size - lags)
    n = (i1 - i0).astype(float)
    su, suu, u_flat = window_sums(u, i0, i1)
    sv, svv, v_flat = window_sums(v, i0 + lags, i1 + lags)
    padded = np.zeros(max(u.size, v.size) + 2 * max_lag)
    padded[max_lag : max_lag + v.size] = v
    suv = np.correlate(padded, u, "valid")[: lags.size]
    num = n * suv - su * sv
    var = (n * suu - su * su) * (n * svv - sv * sv)
    live = ~(u_flat | v_flat) & (var > 0.0)
    corr = np.zeros(lags.size)
    corr[live] = num[live] / np.sqrt(var[live])
    return corr


def test_blocked_crosscorr_is_bit_equal_to_the_correlate_oracle_on_grid_trains():
    rng = np.random.default_rng(29)
    block = shotfuse.series.CORRELATE_BLOCK
    chunk = block * shotfuse.series.CORRELATE_CHUNK_ROWS
    # Lengths around one block, whole and ragged rows, and across one and two chunks of rows.
    lengths = [1, 2, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 3,
               chunk - 1, chunk, chunk + 1, chunk + block + 7, 2 * chunk + 11]
    cases = [(500, 500, 200)]  # the validation window: 5 s at 100 Hz, 2 s of lags
    for nu in lengths:
        for nv in (nu, nu + 1, nu + block + 3, max(1, nu - block - 3)):
            shortest = min(nu, nv)
            cases += [(nu, nv, lag) for lag in {0, 1, block - 1, block, block + 1, 2 * block + 5, shortest - 1}
                      if lag < shortest]
    for nu, nv, max_lag in cases:
        a, b = grid_train(rng, nu), grid_train(rng, nv)
        got, want = cross_correlate(a, b, max_lag), correlate_oracle(a, b, max_lag)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (nu, nv, max_lag)
