"""Synthetic paired streams with ground truth.

Stands in for real recordings in tests and the evaluation harness: shots
are short band-limited audio bursts over a pink-noise floor, co-located
with half-sine bumps on the radial acceleration and tangential angular
velocity. Distractor events exercise each modality alone. The IMU stream
runs on its own clock, offset from the audio clock by a configurable
amount, which is what the synchronizer must recover.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE_HZ, PcmAudio
from .events import LabelSet
from .forest import check_integer, check_seed
from .imu import ACCEL_RANGE_G, GYRO_RANGE_DPS, IMU_RATE_HZ, ImuStream
from .series import freeze_in_place

__all__ = ["SynthConfig", "synthesize"]

NOISE_RMS = 0.005
BURST_MS = 10.0
BURST_F0_HZ = 1000.0
BURST_F1_HZ = 3000.0
BUMP_MS = 150.0
BUMP_ACCEL_RANGE_G = (2.0, 4.0)
BUMP_GYRO_RANGE_DPS = (300.0, 800.0)
GYRO_NOISE_SCALE = 200.0  # deg/s of gyro noise per g of accel noise
AX_BASELINE_G = 0.5
EVENT_MIN_GAP_MS = 1000.0
EDGE_MARGIN_MS = 1000.0
#: The shortest session synthesize makes: one IMU sample, 80 audio samples.
MIN_DURATION_S = 1.0 / IMU_RATE_HZ


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float = 60.0
    shot_count: int = 20
    audio_snr_db: float = 20.0
    imu_noise_g: float = 0.05
    injected_offset_ms: float = 0.0
    distractor_rate_per_min: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_integer(self.shot_count, "shot_count")
        check_seed(self.seed)
        for name in ("duration_s", "audio_snr_db", "imu_noise_g", "injected_offset_ms",
                     "distractor_rate_per_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.duration_s < MIN_DURATION_S:
            # Shorter, the IMU stream has no sample and the audio too few for one noise spectrum.
            raise ValueError(f"duration_s must be at least one IMU period, {MIN_DURATION_S} s, got {self.duration_s}")
        if self.shot_count < 0 or self.distractor_rate_per_min < 0:
            raise ValueError("counts and rates must be non-negative")
        if self.imu_noise_g < 0:
            raise ValueError("imu_noise_g must be non-negative")
        if self.shot_count * (EVENT_MIN_GAP_MS / 1000.0) > self.duration_s:
            raise ValueError("shot_count does not fit the duration")


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """1/f-shaped Gaussian noise, unit RMS, with no full-length temporary but the spectrum and the squares."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    scale = np.fft.rfftfreq(n)
    np.sqrt(scale, out=scale)
    np.divide(1.0, scale[1:], out=scale[1:])
    scale[0] = 0.0
    spectrum *= scale
    del scale
    shaped = np.fft.irfft(spectrum, n)
    del spectrum
    shaped /= np.sqrt(np.mean(shaped**2))
    return shaped


def _burst(rng: np.random.Generator) -> np.ndarray:
    """Windowed 1-3 kHz chirp of one microframe length, unit RMS."""
    n = int(round(BURST_MS / 1000.0 * SAMPLE_RATE_HZ))
    t = np.arange(n) / SAMPLE_RATE_HZ
    sweep = (BURST_F1_HZ - BURST_F0_HZ) / (2.0 * BURST_MS / 1000.0)
    phase = 2.0 * np.pi * (BURST_F0_HZ * t + sweep * t**2) + rng.uniform(0.0, 2.0 * np.pi)
    wave = np.hanning(n) * np.sin(phase)
    return wave / np.sqrt(np.mean(wave**2))


def _place_events(rng: np.random.Generator, count: int, duration_ms: float) -> np.ndarray:
    """Sorted event times >= EVENT_MIN_GAP_MS apart, away from the stream edges."""
    if count == 0:
        return np.empty(0)
    span = duration_ms - 2.0 * EDGE_MARGIN_MS
    slack = span - (count - 1) * EVENT_MIN_GAP_MS
    if span <= 0 or slack < 0:
        raise ValueError("cannot place shots")
    offsets = np.sort(rng.uniform(0.0, slack, size=count))
    return EDGE_MARGIN_MS + offsets + np.arange(count) * EVENT_MIN_GAP_MS


def _add_bump(values: np.ndarray, center_idx: int, peak: float) -> None:
    n = int(round(BUMP_MS / 1000.0 * IMU_RATE_HZ))
    bump = peak * np.sin(np.pi * (np.arange(n) + 0.5) / n)
    start = center_idx - n // 2
    lo = max(start, 0)
    hi = min(start + n, values.size)
    if lo < hi:
        values[lo:hi] += bump[lo - start : hi - start]


def synthesize(cfg: SynthConfig) -> tuple[PcmAudio, ImuStream, LabelSet]:
    """Generate (audio, imu stream, labels), fully determined by cfg.seed.

    The audio is quantized to 16-bit PCM once, here, so what synthesize
    returns is exactly what write_wav stores and read_wav reads back.

    Labels are shot times on the audio clock. IMU timestamps run on
    the IMU clock: a physical event at audio time T lands at IMU timestamp
    T + injected_offset_ms, so the synchronizer should recover
    injected_offset_ms as its (IMU minus audio) offset. Distractor events
    carry only one modality each and are absent from the labels.
    """
    rng = np.random.default_rng(cfg.seed)
    duration_ms = cfg.duration_s * 1000.0
    n_distract = int(round(cfg.distractor_rate_per_min * cfg.duration_s / 60.0))

    total = cfg.shot_count + 2 * n_distract
    times = _place_events(rng, total, duration_ms)
    order = rng.permutation(total)
    shot_times = np.sort(times[order[: cfg.shot_count]])
    audio_only_times = np.sort(times[order[cfg.shot_count : cfg.shot_count + n_distract]])
    imu_only_times = np.sort(times[order[cfg.shot_count + n_distract :]])

    # Audio stream (audio clock starts at 0).
    n_audio = int(round(cfg.duration_s * SAMPLE_RATE_HZ))
    audio = _pink_noise(n_audio, rng)
    audio *= NOISE_RMS
    burst_rms = NOISE_RMS * 10.0 ** (cfg.audio_snr_db / 20.0)
    for t in np.concatenate([shot_times, audio_only_times]):
        wave = burst_rms * _burst(rng)
        start = int(round(t / 1000.0 * SAMPLE_RATE_HZ)) - wave.size // 2
        lo, hi = max(start, 0), min(start + wave.size, n_audio)
        if lo < hi:
            audio[lo:hi] += wave[lo - start : hi - start]

    # IMU stream on its own clock, as one block with a row per IMU_FIELDS entry.
    n_imu = int(round(cfg.duration_s * IMU_RATE_HZ))
    noise = 3 * [cfg.imu_noise_g] + 3 * [GYRO_NOISE_SCALE * cfg.imu_noise_g]
    block = np.stack([np.arange(n_imu) * (1000.0 / IMU_RATE_HZ)] + [rng.normal(0.0, s, n_imu) for s in noise])
    _, ax, _, _, _, gy, gz = block
    ax += AX_BASELINE_G
    for t in np.concatenate([shot_times, imu_only_times]):
        center = int(round((t + cfg.injected_offset_ms) / 1000.0 * IMU_RATE_HZ))
        accel_peak = rng.uniform(*BUMP_ACCEL_RANGE_G)
        gyro_peak = rng.uniform(*BUMP_GYRO_RANGE_DPS)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        _add_bump(ax, center, accel_peak)
        _add_bump(gy, center, gyro_peak * np.cos(angle))
        _add_bump(gz, center, gyro_peak * np.sin(angle))

    np.clip(block[1:4], -ACCEL_RANGE_G, ACCEL_RANGE_G, out=block[1:4])
    np.clip(block[4:], -GYRO_RANGE_DPS, GYRO_RANGE_DPS, out=block[4:])

    return PcmAudio.from_float(audio), ImuStream(freeze_in_place(block)), LabelSet(freeze_in_place(shot_times))
