"""Memory regression: each raw input lives only as long as the stage that reads it.

On a seeded 3-min session, tracemalloc peaks are held to the sizes of the
arrays a stage must keep (the PCM, the packed training forms) plus a stated margin.
"""

import gc
import tracemalloc

import pytest

import shotfuse as sf
from shotfuse.dataio import save_filter_model, save_forest_model, write_imu_csv, write_wav
from shotfuse.training import PACKED_TAPS
from shotfuse.pipeline import (
    PipelineOptions,
    candidate_dataset,
    run_pipeline,
    shuffle_split,
    synced_series,
    windows_from_labels,
)

MB = 1e6
DURATION_S = 180.0


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A 3-min recording on disk with 1-epoch models, and its training windows."""
    root = tmp_path_factory.mktemp("memory")
    cfg = sf.SynthConfig(duration_s=DURATION_S, shot_count=90, injected_offset_ms=-210.0,
                         distractor_rate_per_min=5.0, seed=1234)
    audio, imu, labels = sf.synthesize(cfg)
    write_wav(root / "audio.wav", audio)
    write_imu_csv(root / "imu.csv", imu)
    train_set, _ = shuffle_split(windows_from_labels(audio, labels, seed=3), 3)
    filter_model = sf.train_filter(train_set, sf.TrainConfig(max_epochs=1, seed=3))
    save_filter_model(root / "filter.json", filter_model)
    synced = synced_series(sf.audio_likelihood(audio, filter_model), imu)
    forest = sf.train_forest(*candidate_dataset(synced, labels), tree_count=10, seed=3)
    save_forest_model(root / "forest.json", forest)
    return root, train_set


def traced_peak(fn) -> int:
    fn()  # first-call imports and caches are not the call's memory
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_pipeline_never_holds_the_pcm_and_the_imu_samples_together(session, tmp_path):
    root, _ = session
    peak = traced_peak(lambda: run_pipeline(
        root / "audio.wav", root / "imu.csv", root / "filter.json", root / "forest.json",
        PipelineOptions(out_dir=str(tmp_path)),
    ))
    pcm_bytes = 2 * int(DURATION_S * 8000)
    # Margin: half the PCM (1.44 MB). Measured 0.80 MB above the PCM: the
    # energy and likelihood arrays and the FIR chunk buffers. Keeping the PCM
    # through IMU parsing and sync put the peak 2.65 MB above it.
    assert peak < pcm_bytes + pcm_bytes / 2, f"{peak / MB:.2f} MB"


def test_train_filter_holds_the_forms_and_one_chunk_of_spans(session):
    _, train_set = session
    cfg = sf.TrainConfig(max_epochs=1, seed=3)
    peak = traced_peak(lambda: sf.train_filter(train_set, cfg))
    positives = sum(w.label for w in train_set)
    negatives = min(len(train_set) - positives, round(cfg.neg_pos_ratio * positives))
    forms_bytes = (positives + negatives) * PACKED_TAPS * 8
    # Margin: 1.5 MB above the packed forms (3.3 MB here). Measured 1.20 MB:
    # one chunk's windows and their weighted copy, 0.46 MB each, and the
    # recursion's steps. Decoding and padding whole windows per
    # 128-window chunk took 4.26 MB; full (windows, 23, 23) forms, 3.1 MB more.
    assert peak < forms_bytes + 1.5 * MB, f"{(peak - forms_bytes) / MB:.2f} MB above the forms"
