"""File formats: WAV audio, IMU/label/event CSVs, and model JSON."""

from __future__ import annotations

import csv
import json
import wave
from pathlib import Path

import numpy as np

from .audio import AudioConfig, FilterModel
from .events import LabelSet, ShotEvent
from .forest import ForestModel
from .imu import ImuStream, first_invalid_sample
from .series import SampleSeries

__all__ = [
    "read_wav",
    "write_wav",
    "read_imu_csv",
    "write_imu_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_events_csv",
    "write_events_csv",
    "write_series_csv",
    "save_filter_model",
    "load_filter_model",
    "save_forest_model",
    "load_forest_model",
]

PCM_SCALE = 32768.0
IMU_COLUMNS = ("t_ms", "ax", "ay", "az", "gx", "gy", "gz")


def read_wav(path, expected_rate: int = 8000, start_time_ms: float = 0.0) -> SampleSeries:
    """Load 16-bit mono PCM audio, normalized to [-1, 1] by 1/32768."""
    with wave.open(str(path), "rb") as wav:
        if wav.getcomptype() != "NONE":
            raise ValueError(f"expected uncompressed PCM, got {wav.getcomptype()}")
        if wav.getsampwidth() != 2:
            raise ValueError(f"expected 16-bit samples, got {8 * wav.getsampwidth()}-bit")
        if wav.getnchannels() != 1:
            raise ValueError(f"expected mono audio, got {wav.getnchannels()} channels")
        if wav.getframerate() != expected_rate:
            raise ValueError(f"expected {expected_rate} Hz, got {wav.getframerate()} Hz")
        raw = wav.readframes(wav.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / PCM_SCALE
    return SampleSeries(float(expected_rate), start_time_ms, samples)


def write_wav(path, series: SampleSeries) -> None:
    ints = np.clip(np.round(series.values * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(series.rate))
        wav.writeframes(ints.tobytes())


def _parse_float(cell: str, column: str, row_num: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"row {row_num}: non-numeric value {cell!r} in column {column}") from None


def read_imu_csv(path) -> ImuStream:
    """Parse an IMU stream, enforcing the header and the sensor range invariants.

    Errors name the CSV row (header = row 1, blank lines counted but skipped).
    """
    samples = []
    row_nums = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("missing header")
        header = [h.strip() for h in header]
        for col in IMU_COLUMNS:
            if col not in header:
                raise ValueError(f"missing column {col}")
        positions = [header.index(col) for col in IMU_COLUMNS]
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
            samples.append(
                [_parse_float(row[pos], col, row_num) for pos, col in zip(positions, IMU_COLUMNS)]
            )
            row_nums.append(row_num)
    columns = np.array(samples, dtype=float).reshape(-1, len(IMU_COLUMNS)).T
    bad = first_invalid_sample(columns)
    if bad is not None:
        raise ValueError(f"row {row_nums[bad[0]]}: {bad[1]}")
    return ImuStream(*columns)


def write_imu_csv(path, stream: ImuStream) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IMU_COLUMNS)
        for t, *sensors in stream.columns().T.tolist():
            writer.writerow([f"{t:.3f}"] + [f"{v:.6f}" for v in sensors])


def read_labels_csv(path) -> LabelSet:
    """Single-column CSV of shot timestamps with header t_ms."""
    times = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip() != "t_ms":
            raise ValueError("missing column t_ms")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            times.append(_parse_float(row[0], "t_ms", row_num))
    return LabelSet(np.array(times))


def write_labels_csv(path, labels: LabelSet) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t_ms\n")
        for t in labels.shots:
            fh.write(f"{t:.3f}\n")


def read_events_csv(path) -> list[ShotEvent]:
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["time_ms", "score"]:
            raise ValueError("expected header time_ms,score")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            events.append(
                ShotEvent(
                    _parse_float(row[0], "time_ms", row_num),
                    _parse_float(row[1], "score", row_num),
                )
            )
    return events


def write_events_csv(path, events: list[ShotEvent]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time_ms,score\n")
        for e in events:
            fh.write(f"{e.time_ms:.3f},{e.score:.6f}\n")


def write_series_csv(path, series: SampleSeries) -> None:
    """Dump a series as time_ms,value rows for external plotting."""
    with open(path, "w", newline="") as fh:
        fh.write("time_ms,value\n")
        for t, v in zip(series.times(), series.values):
            fh.write(f"{t:.3f},{v:.9g}\n")


def save_filter_model(path, model: FilterModel, cfg: AudioConfig = AudioConfig()) -> None:
    payload = {
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        "sample_rate": cfg.sample_rate,
        "microframe_ms": cfg.microframe_ms,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_filter_model(path) -> tuple[FilterModel, AudioConfig]:
    with open(path) as fh:
        payload = json.load(fh)
    model = FilterModel(np.array(payload["weights"], dtype=float), float(payload["bias"]))
    cfg = AudioConfig(
        sample_rate=int(payload["sample_rate"]),
        microframe_ms=int(payload["microframe_ms"]),
    )
    return model, cfg


def save_forest_model(path, model: ForestModel) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_forest_model(path) -> ForestModel:
    with open(path) as fh:
        return ForestModel.from_dict(json.load(fh))


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
