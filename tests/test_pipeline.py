import json

import numpy as np
import pytest

import shotfuse as sf
from shotfuse.dataio import (
    save_filter_model,
    write_imu_csv,
    write_labels_csv,
    write_wav,
)
from shotfuse.pipeline import (
    PipelineOptions,
    candidate_dataset,
    run_pipeline,
    shuffle_split,
    synced_series,
    windows_from_labels,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """The 20-shot, -270 ms fixture with trained models saved to disk."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = sf.SynthConfig(duration_s=60.0, shot_count=20, injected_offset_ms=-270.0, seed=81)
    audio, imu, labels = sf.synthesize(cfg)
    write_wav(root / "audio.wav", audio)
    write_imu_csv(root / "imu.csv", imu)
    write_labels_csv(root / "labels.csv", labels)

    windows = windows_from_labels(audio, labels, seed=8)
    train_set, _ = shuffle_split(windows, 0.8, 8)
    filter_model = sf.train_filter(train_set, sf.TrainConfig(seed=8))
    save_filter_model(root / "filter.json", filter_model)

    X, y = candidate_dataset(synced_series(audio, imu, filter_model), labels)
    forest = sf.train_forest(X, y, tree_count=50, seed=8)
    from shotfuse.dataio import save_forest_model

    save_forest_model(root / "forest.json", forest)
    return root


def test_run_pipeline_on_fixture(fixture_dir, tmp_path):
    out_dir = tmp_path / "out"
    result = run_pipeline(
        fixture_dir / "audio.wav",
        fixture_dir / "imu.csv",
        fixture_dir / "filter.json",
        fixture_dir / "forest.json",
        PipelineOptions(out_dir=str(out_dir), labels_path=str(fixture_dir / "labels.csv")),
    )
    assert abs(result["sync"]["offset_ms"] - (-270.0)) <= 40.0
    assert result["report"]["f_score"] >= 0.95
    sync_payload = json.loads((out_dir / "sync.json").read_text())
    assert set(sync_payload) == {"offset_ms", "peak_correlation", "validated", "window_seconds"}
    lines = (out_dir / "detections.csv").read_text().splitlines()
    assert lines[0] == "time_ms,score"
    assert len(lines) == result["event_count"] + 1


def test_run_pipeline_missing_model(fixture_dir, tmp_path):
    with pytest.raises(FileNotFoundError, match="model not found"):
        run_pipeline(
            fixture_dir / "audio.wav",
            fixture_dir / "imu.csv",
            tmp_path / "absent.json",
            fixture_dir / "forest.json",
            PipelineOptions(out_dir=str(tmp_path)),
        )


def test_windows_snap_to_stream_frame_grid():
    cfg = sf.SynthConfig(duration_s=30.0, shot_count=10, seed=85)
    audio, _, labels = sf.synthesize(cfg)
    windows = windows_from_labels(audio, labels, seed=1, negatives_per_positive=2.0)
    positives = [w for w in windows if w.label == 1]
    assert len(positives) == 10
    span = 21 * 80
    assert all(w.samples.size == span for w in windows)
    # a positive window's center frame must contain its label's samples
    for w, t in zip(positives, labels.shots):
        frame = int(t / 10.0)
        start = (frame - 10) * 80
        assert np.array_equal(w.samples, audio.values[start : start + span])
