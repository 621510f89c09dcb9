import json

import numpy as np
import pytest

from shotfuse import SynthConfig, synthesize


def test_empty_config_yields_noise_only():
    cfg = SynthConfig(duration_s=5.0, shot_count=0, seed=1)
    audio, imu, labels = synthesize(cfg)
    assert len(labels) == 0
    assert len(audio) == 40000
    assert len(imu) == 500
    # background only: no sample anywhere near burst amplitude
    assert np.max(np.abs(audio.samples / 32768.0)) < 0.05
    assert np.max(np.abs(imu.block[5])) < 200.0  # gy


def test_twenty_shots_sixty_seconds():
    cfg = SynthConfig(duration_s=60.0, shot_count=20, seed=2)
    _, _, labels = synthesize(cfg)
    assert len(labels) == 20
    assert np.all(np.diff(labels.shots) >= 1000.0)


def test_injected_offset_places_imu_bumps_late_on_their_clock():
    cfg = SynthConfig(duration_s=30.0, shot_count=8, injected_offset_ms=-270.0,
                      imu_noise_g=0.001, seed=3)
    _, imu, labels = synthesize(cfg)
    t, ax = imu.block[:2]
    for shot in labels.shots:
        window = (t >= shot - 600.0) & (t <= shot + 600.0)
        peak_t = t[window][np.argmax(ax[window])]
        # the bump's IMU timestamp is the audio-clock time plus the offset
        assert abs(peak_t - (shot - 270.0)) <= 20.0


def test_determinism_bit_identical():
    cfg = SynthConfig(duration_s=10.0, shot_count=5, distractor_rate_per_min=6.0, seed=4)
    a_audio, a_imu, a_labels = synthesize(cfg)
    b_audio, b_imu, b_labels = synthesize(cfg)
    assert np.array_equal(a_audio.samples, b_audio.samples)
    assert np.array_equal(a_imu.block, b_imu.block)
    assert np.array_equal(a_labels.shots, b_labels.shots)


def test_different_seeds_differ():
    base = SynthConfig(duration_s=10.0, shot_count=5, seed=5)
    other = SynthConfig(duration_s=10.0, shot_count=5, seed=6)
    a, _, _ = synthesize(base)
    b, _, _ = synthesize(other)
    assert not np.array_equal(a.samples, b.samples)


def test_infeasible_shot_count():
    with pytest.raises(ValueError, match="shot_count does not fit"):
        SynthConfig(duration_s=5.0, shot_count=50)
    # feasible per the config invariant but not once margins are applied
    cfg = SynthConfig(duration_s=10.0, shot_count=10, seed=7)
    with pytest.raises(ValueError, match="cannot place shots"):
        synthesize(cfg)


@pytest.mark.parametrize(
    "field", ["duration_s", "audio_snr_db", "imu_noise_g", "injected_offset_ms", "distractor_rate_per_min"]
)
def test_non_finite_fields_rejected(field):
    # NaN durations and offsets used to die in synthesize converting NaN to
    # an integer, and an infinite distractor rate with an OverflowError.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            SynthConfig(**{field: bad})


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"shot_count": 2.5}', "shot_count must be an integer, got 2.5"),
        ('{"shot_count": true}', "shot_count must be an integer, got True"),
        ('{"shot_count": "3"}', "shot_count must be an integer, got '3'"),
        ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
        ('{"seed": false}', "seed must be an integer, got False"),
        ('{"duration_s": "5"}', "duration_s must be a real number, got '5'"),
        ('{"imu_noise_g": true}', "imu_noise_g must be a real number, got True"),
        ('{"injected_offset_ms": null}', "injected_offset_ms must be a real number, got None"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(config, message):
    # As `shotfuse synth` reads them. A float count or seed used to die inside numpy, a text
    # duration in math.isfinite, and a true shot count synthesized one shot.
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynthConfig(**json.loads(config))


def test_distractor_counts_scale_with_rate():
    cfg = SynthConfig(duration_s=60.0, shot_count=5, distractor_rate_per_min=6.0,
                      imu_noise_g=0.001, seed=8)
    audio, imu, labels = synthesize(cfg)
    assert len(labels) == 5
    # five shots + six imu-only distractors produce eleven accel bumps
    strong = (imu.block[1] > 1.5).astype(int)  # ax
    rising_edges = int(np.sum(np.diff(np.r_[0, strong]) == 1))
    assert rising_edges == 11


@pytest.mark.parametrize("duration_s", [1e-5, 1e-4, 0.004, 0.0099])
def test_durations_shorter_than_one_imu_period_are_rejected(duration_s):
    # 1e-5 s used to fail inside np.fft (no FFT data points), 1e-4 s to warn
    # of a 0/0 noise RMS and then fail on non-finite audio, and 0.004 s to
    # synthesize an IMU stream with no sample.
    with pytest.raises(ValueError, match=f"^duration_s must be at least one IMU period, 0.01 s, got {duration_s}$"):
        SynthConfig(duration_s=duration_s, shot_count=0)


def test_one_imu_period_synthesizes_one_imu_sample():
    audio, imu, labels = synthesize(SynthConfig(duration_s=0.01, shot_count=0, seed=9))
    assert (len(audio), len(imu), len(labels)) == (80, 1, 0)
    assert np.isclose(np.sqrt(np.mean((audio.samples / 32768.0) ** 2)), 0.005, rtol=0.1)
