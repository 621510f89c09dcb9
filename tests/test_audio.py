import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import shotfuse
from shotfuse import (
    FilterModel,
    PcmAudio,
    SampleSeries,
    apf,
    audio_likelihood,
    detect_audio,
    short_time_energy,
)


def audio_series(values):
    return PcmAudio.from_float(values)


def decoded(audio):
    return audio.samples / 32768.0


def frame_series(values, start=5.0):
    return SampleSeries(start, np.asarray(values, dtype=float))


# --- PcmAudio -----------------------------------------------------------------


def test_pcm_quantizes_once_by_round_then_clip():
    # Half steps round to even; full scale clips to the 16-bit range.
    audio = PcmAudio.from_float([1.0, -1.0, 0.5 / 32768, 1.5 / 32768, 2.0, -2.0])
    assert audio.samples.dtype == np.int16 and not audio.samples.flags.writeable
    assert audio.samples.tolist() == [32767, -32768, 0, 2, 32767, -32768]
    assert (len(audio), audio.end_time) == (6, 0.75)


def test_pcm_rejects_floats_and_non_finite_values():
    with pytest.raises(ValueError, match=r"^audio samples must be 16-bit PCM \(int16\), got float64$"):
        PcmAudio(np.zeros(80))
    with pytest.raises(ValueError, match="^audio values must be finite$"):
        PcmAudio.from_float([0.0, np.nan])
    # A NaN is not PCM either, nor is a wider integer or a list.
    for bad, got in ((np.full(80, np.nan), "float64"), (np.zeros(80, dtype=np.int32), "int32"), ([0] * 10, "list")):
        with pytest.raises(ValueError, match=rf"^audio samples must be 16-bit PCM \(int16\), got {got}$"):
            PcmAudio(bad)
    with pytest.raises(ValueError, match="^audio samples must be one-dimensional$"):
        PcmAudio(np.zeros((2, 5), dtype=np.int16))


def test_pcm_adopts_frozen_samples_and_copies_the_rest():
    x = np.arange(82, dtype=np.int16)
    copied = PcmAudio(x[:80])
    x[0] = 5
    assert copied.samples[0] == 0 and not copied.samples.flags.writeable
    x.flags.writeable = False
    assert np.shares_memory(PcmAudio(x[2:]).samples, x)
    assert PcmAudio(x[2:].astype(">i2")).samples.dtype == np.int16


@pytest.mark.parametrize("taps", [1, 5, 22, 24])
def test_filter_model_holds_exactly_the_filter_taps(taps):
    # A 5-tap model used to build and filter, though training only makes 23.
    with pytest.raises(ValueError, match=f"^weights must hold 23 values, got {taps}$"):
        FilterModel(np.full(taps, 0.1))
    with pytest.raises(ValueError, match=r"^weights must be one-dimensional, got shape \(2, 2\)$"):
        FilterModel(np.ones((2, 2)))
    assert FilterModel(np.full(23, 0.1)).weights.shape == (23,)


# --- short_time_energy -----------------------------------------------------


def test_ste_zeros():
    out = short_time_energy(audio_series(np.zeros(80)), np.array([1.0]))
    assert np.array_equal(out.values, [0.0])
    assert out.start_time == 5.0


def test_ste_constant_half():
    out = short_time_energy(audio_series(np.full(80, 0.5)), np.array([1.0]))
    assert out.values[0] == pytest.approx(20.0)  # 80 * 0.25


def test_ste_matches_per_frame_loop(rng):
    audio = audio_series(rng.standard_normal(800))
    x = decoded(audio)
    out = short_time_energy(audio, np.array([1.0]))
    assert len(out) == 10
    for i in range(10):
        expected = sum(float(v) ** 2 for v in x[80 * i : 80 * (i + 1)])
        assert out.values[i] == pytest.approx(expected, rel=1e-12)


def test_ste_discards_partial_frame(rng):
    x = rng.standard_normal(170)
    out = short_time_energy(audio_series(x), np.array([1.0]))
    assert len(out) == 2


def test_ste_insufficient_samples():
    with pytest.raises(ValueError, match="insufficient samples"):
        short_time_energy(audio_series(np.zeros(79)), np.array([1.0]))


def test_ste_frame_center_timestamps():
    # The audio clock starts at 0 with the first sample.
    out = short_time_energy(audio_series(np.zeros(240)), np.array([1.0]))
    assert np.allclose(out.times(), [5.0, 15.0, 25.0])


# --- apf --------------------------------------------------------------------


def test_apf_constant_is_zero():
    out = apf(frame_series(np.full(30, 7.0)))
    assert np.allclose(out.values, 0.0, atol=1e-12)
    assert len(out) == 20


def test_apf_single_spike_value():
    e = np.zeros(11)
    e[5] = 1.0
    out = apf(frame_series(e))
    assert len(out) == 1
    assert out.values[0] == pytest.approx(10.0 / 11.0)


def test_apf_matches_direct_formula(rng):
    e = rng.uniform(0.0, 5.0, 40)
    out = apf(frame_series(e))
    for j in range(len(out)):
        i = j + 5
        expected = e[i] - sum(e[i - 5 : i + 6]) / 11.0
        assert out.values[j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_apf_start_time_advances_by_lookahead():
    out = apf(frame_series(np.zeros(20), start=5.0))
    assert out.start_time == 55.0  # 50 ms of inherent lookahead


def test_apf_insufficient_context():
    with pytest.raises(ValueError, match="insufficient context"):
        apf(frame_series(np.zeros(10)))


# --- audio_likelihood --------------------------------------------------------


def test_likelihood_silence_is_zero(identity_model):
    out = audio_likelihood(audio_series(np.zeros(8000)), identity_model)
    assert np.allclose(out.values, 0.0)


def test_likelihood_identity_filter_matches_raw(identity_model, rng):
    x = rng.standard_normal(4000)
    direct = apf(short_time_energy(audio_series(x), np.array([1.0])))
    via_model = audio_likelihood(audio_series(x), identity_model)
    assert np.allclose(via_model.values, direct.values, rtol=1e-12)


LIKELIHOOD_DIGEST = """
import hashlib
import numpy as np
from shotfuse import FilterModel, PcmAudio, audio_likelihood
rng = np.random.default_rng(5)
x = PcmAudio.from_float(rng.standard_normal(30 * 8000))
out = audio_likelihood(x, FilterModel(rng.standard_normal(23)))
print(hashlib.sha256(out.values.tobytes()).hexdigest())
"""


def test_likelihood_bytes_do_not_depend_on_blas_threads():
    # The blocked FIR is a BLAS matmul; 30 s of audio makes twelve chunks big enough to thread.
    src = str(Path(shotfuse.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", LIKELIHOOD_DIGEST], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64


def test_likelihood_adopts_its_energy_and_apf_arrays(identity_model):
    frames = 60000  # 10 min: one frame-rate array is 0.48 MB
    audio = PcmAudio(np.zeros(frames * 80, dtype=np.int16))
    audio_likelihood(audio, identity_model)  # first-call caches are not the call's memory
    tracemalloc.start()
    try:
        out = audio_likelihood(audio, identity_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not out.values.flags.writeable and out.values.base is None
    # The energies, the likelihood and one piece of the macroframe mean
    # (measured 1.03 MB). One np.convolve of the read-only energies, which
    # copies them, put it at 1.45 MB; a copy of either series on top of
    # that at 1.99 MB.
    assert peak < 2.5 * frames * 8, f"{peak / 1e6:.2f} MB"


def test_likelihood_burst_argmax(identity_model, rng):
    x = 1e-4 * rng.standard_normal(8000)
    burst_frame = 50
    start = burst_frame * 80 + 10
    x[start : start + 60] += 0.5 * np.sin(2 * np.pi * 1000 * np.arange(60) / 8000)
    out = audio_likelihood(audio_series(x), identity_model)
    peak_frame = int(np.argmax(out.values)) + 5  # output drops 5 leading frames
    assert abs(peak_frame - burst_frame) <= 1


def test_likelihood_scaling_invariance(identity_model):
    # PCM scales exactly by an integer gain that stays inside 16 bits.
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.integers(-1000, 1001, 2000).astype(np.int16)
        alpha = int(rng.integers(1, 33))
        base = audio_likelihood(PcmAudio(x), identity_model)
        scaled = audio_likelihood(PcmAudio(alpha * x), identity_model)
        assert np.allclose(scaled.values, alpha**2 * base.values, rtol=1e-9)
        assert int(np.argmax(scaled.values)) == int(np.argmax(base.values))


def test_likelihood_deterministic(identity_model, rng):
    x = rng.standard_normal(4000)
    a = audio_likelihood(audio_series(x), identity_model)
    b = audio_likelihood(audio_series(x), identity_model)
    assert np.array_equal(a.values, b.values)


# --- detect_audio -------------------------------------------------------------


def test_detect_none_with_huge_negative_bias(rng):
    model = FilterModel(np.r_[1.0, np.zeros(22)], bias=-1e12)
    x = rng.standard_normal(8000)
    assert detect_audio(audio_series(x), model).shape == (0, 2)


def test_detect_zero_audio_zero_bias(identity_model):
    assert detect_audio(audio_series(np.zeros(8000)), identity_model).shape == (0, 2)


def test_detect_single_event_at_peak():
    # craft an energy landscape with one frame clearing the bias
    rng = np.random.default_rng(5)
    x = 1e-3 * rng.standard_normal(4000)
    x[20 * 80 : 20 * 80 + 80] += 0.3
    model = FilterModel(np.r_[1.0, np.zeros(22)], bias=-0.4)
    likelihood = audio_likelihood(audio_series(x), model)
    expected_hits = np.flatnonzero(likelihood.values + model.bias > 0)
    events = detect_audio(audio_series(x), model)
    assert len(events) == len(expected_hits) == 1
    hit_time = likelihood.start_time + expected_hits[0] * 10.0
    assert events[0, 0] == pytest.approx(hit_time)
    assert events[0, 1] == pytest.approx(
        float(likelihood.values[expected_hits[0]]) + model.bias
    )


def test_detect_strict_inequality_at_zero(identity_model):
    # all-zero audio gives APF exactly 0; bias 0 must not fire
    events = detect_audio(audio_series(np.zeros(2400)), identity_model)
    assert events.shape == (0, 2)
