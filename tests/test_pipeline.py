import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import shotfuse as sf
from shotfuse import forest, fusion, pipeline, sync
from shotfuse.dataio import (
    load_filter_model,
    load_forest_model,
    read_imu_csv,
    read_labels_csv,
    read_wav,
    save_filter_model,
    save_forest_model,
    write_imu_csv,
    write_labels_csv,
    write_wav,
)
from shotfuse.pipeline import (
    PipelineOptions,
    candidate_dataset,
    run_pipeline,
    shuffle_split,
    sync_workflow,
    synced_series,
    train_forest_workflow,
    windows_from_labels,
)
from shotfuse.series import SampleSeries


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
    train_set, _ = shuffle_split(windows, 8)
    filter_model = sf.train_filter(train_set, sf.TrainConfig(seed=8), audio)
    save_filter_model(root / "filter.json", filter_model)

    X, y = candidate_dataset(synced_series(sf.audio_likelihood(audio, filter_model), sf.decompose(imu)), labels)
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


def test_run_pipeline_sync_json_and_detections_bytes(tmp_path, monkeypatch):
    # The files run_pipeline writes, apart from what sync and fusion compute: those are stubbed.
    save_filter_model(tmp_path / "filter.json", sf.FilterModel(np.ones(23), 0.0))
    save_forest_model(tmp_path / "forest.json", sf.ForestModel([-1], [0.0], [-1], [-1], [1], [1], seed=0))
    synced = fusion.SyncedSeries(*[SampleSeries()] * 5, sync.OffsetEstimate(-270.0, 0.8125, 55.0, validated=True))
    monkeypatch.setattr(pipeline, "_synced_files", lambda audio_path, imu_path, filter_model: synced)
    monkeypatch.setattr(pipeline, "detect_shots", lambda synced, model: np.array([[1234.5, 0.96], [5000.0, 0.5]]))
    out_dir = tmp_path / "out"
    run_pipeline("audio.wav", "imu.csv", tmp_path / "filter.json", tmp_path / "forest.json",
                 PipelineOptions(out_dir=str(out_dir)))
    assert (out_dir / "sync.json").read_text() == (
        '{\n  "offset_ms": -270.0,\n  "peak_correlation": 0.8125,\n  "validated": true,\n'
        '  "window_seconds": 55.0\n}\n'
    )
    assert (out_dir / "detections.csv").read_bytes() == b"time_ms,score\n1234.500,0.960000\n5000.000,0.500000\n"


def test_run_pipeline_never_decodes_the_whole_recording(fixture_dir, tmp_path):
    n = 60 * 8000

    def run(out):
        run_pipeline(
            fixture_dir / "audio.wav", fixture_dir / "imu.csv", fixture_dir / "filter.json",
            fixture_dir / "forest.json", PipelineOptions(out_dir=str(tmp_path / out)),
        )

    run("warm")  # first-call imports and caches are not the run's memory
    tracemalloc.start()
    try:
        run("measured")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The PCM (2 bytes a sample) and a few chunk-sized buffers; one float
    # copy of the audio alone would be 8 bytes a sample.
    assert peak < 0.75 * (8 * n)


def test_run_pipeline_missing_model(fixture_dir, tmp_path):
    with pytest.raises(FileNotFoundError, match="model not found"):
        run_pipeline(
            fixture_dir / "audio.wav",
            fixture_dir / "imu.csv",
            tmp_path / "absent.json",
            fixture_dir / "forest.json",
            PipelineOptions(out_dir=str(tmp_path)),
        )


@pytest.mark.parametrize("missing", ["imu", "forest"])
def test_run_pipeline_needs_imu_and_forest_before_it_touches_a_file(fixture_dir, tmp_path, missing):
    # Without an IMU path it used to make out_dir, then die in read_imu_csv with a bare TypeError.
    paths = {"imu": fixture_dir / "imu.csv", "forest": fixture_dir / "forest.json", missing: None}
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="^detect needs --imu and --forest unless --audio-only is given$"):
        run_pipeline(fixture_dir / "audio.wav", paths["imu"], fixture_dir / "filter.json", paths["forest"],
                     PipelineOptions(out_dir=str(out_dir)))
    assert not out_dir.exists()


def test_detection_and_training_read_one_candidate_table(fixture_dir, tmp_path, monkeypatch):
    # Both workflows take their candidates and features from fusion.candidate_table, once per run,
    # and training sees the very matrix the forest votes on in detection.
    calls = {"select_candidates": 0, "extract_features": 0}
    voted = []

    def counting(name):
        fn = getattr(fusion, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    def classify(model, X):
        voted.append(X)
        return forest.classify(model, X)

    for name in calls:
        monkeypatch.setattr(fusion, name, counting(name))
    monkeypatch.setattr(fusion, "classify", classify)
    run_pipeline(
        fixture_dir / "audio.wav", fixture_dir / "imu.csv", fixture_dir / "filter.json",
        fixture_dir / "forest.json", PipelineOptions(out_dir=str(tmp_path / "out")),
    )
    assert calls == {"select_candidates": 1, "extract_features": 1}
    train_forest_workflow(fixture_dir, fixture_dir / "filter.json", tmp_path / "forest.json", seed=8)
    assert calls == {"select_candidates": 2, "extract_features": 2}

    apf = sf.audio_likelihood(read_wav(fixture_dir / "audio.wav"), load_filter_model(fixture_dir / "filter.json"))
    synced = synced_series(apf, read_imu_csv(fixture_dir / "imu.csv"))
    voted.clear()
    fusion.detect_shots(synced, load_forest_model(fixture_dir / "forest.json"))
    [X] = voted
    labels = read_labels_csv(fixture_dir / "labels.csv")
    assert candidate_dataset(synced, labels)[0].tobytes() == X.tobytes()


def test_train_forest_reports_the_sync_payload(fixture_dir, tmp_path):
    result = train_forest_workflow(fixture_dir, fixture_dir / "filter.json", tmp_path / "forest.json", seed=8)
    payload = sync_workflow(fixture_dir / "audio.wav", fixture_dir / "imu.csv", fixture_dir / "filter.json")
    assert set(payload) == {"offset_ms", "peak_correlation", "validated", "window_seconds"}
    assert {key: result[key] for key in payload} == payload


def test_windows_snap_to_stream_frame_grid(monkeypatch):
    cfg = sf.SynthConfig(duration_s=30.0, shot_count=10, seed=85)
    audio, _, labels = sf.synthesize(cfg)
    monkeypatch.setattr(sf.TrainConfig, "neg_pos_ratio", 2.0)
    windows = windows_from_labels(audio, labels, seed=1)
    # Positives come first, one per label: the window of a label's
    # microframe f is the 22 samples of filter history and the macroframe
    # centered on f, samples (f - 5) * 80 - 22 to (f + 6) * 80.
    assert windows.label.tolist() == [1] * 10 + [0] * 20
    assert windows.start[:10].tolist() == [(int(t / 10.0) - 5) * 80 - 22 for t in labels.shots]
    # Every window, negatives too, starts on the stream's frame grid.
    assert np.all((windows.start + 22) % 80 == 0)


def reference_windows(audio, labels, negatives_per_positive, min_label_distance_ms, seed):
    """Scalar rejection loop: one uniform draw per attempt, capped at 100 per wanted negative.

    A microframe is drawn when a 21-microframe run centered on it fits the
    stream; its window is that run's samples 378 to 1280.
    """
    rng = np.random.default_rng(seed)
    span = 21 * 80
    n_frames = len(audio) // 80

    def cut(center_ms):
        start_frame = int(center_ms / 10) - 10
        if start_frame < 0 or start_frame + 21 > n_frames:
            return None
        return audio.samples[start_frame * 80 + 378 : start_frame * 80 + 1280]

    out = [(s, 1) for s in map(cut, labels.shots) if s is not None]
    if not out:
        return out
    wanted = int(round(negatives_per_positive * len(out)))
    half_ms = span / 2 / 8000 * 1000.0
    negatives = attempts = 0
    while negatives < wanted and attempts < 100 * wanted:
        attempts += 1
        t = rng.uniform(half_ms, audio.end_time - half_ms)
        if np.min(np.abs(labels.shots - t)) < min_label_distance_ms:
            continue
        samples = cut(t)
        if samples is not None:
            out.append((samples, 0))
            negatives += 1
    return out


@pytest.mark.parametrize(
    "ratio, distance_ms, seed",
    # The last case rejects most draws and runs out of attempts before `wanted`.
    [(20.0, 500.0, 0), (3.0, 500.0, 5), (1.5, 1000.0, 11), (20.0, 3300.0, 2)],
)
def test_windows_from_labels_matches_scalar_draw_loop(monkeypatch, ratio, distance_ms, seed):
    # Labels near both ends leave positive windows outside the stream.
    audio, _, labels = sf.synthesize(sf.SynthConfig(duration_s=40.0, shot_count=12, seed=86))
    labels = sf.LabelSet(np.r_[20.0, labels.shots, audio.end_time - 30.0])
    monkeypatch.setattr(pipeline, "MIN_LABEL_DISTANCE_MS", distance_ms)
    monkeypatch.setattr(sf.TrainConfig, "neg_pos_ratio", ratio)
    windows = windows_from_labels(audio, labels, seed=seed)
    expected = reference_windows(audio, labels, ratio, distance_ms, seed)
    assert windows.label.tolist() == [label for _, label in expected]
    for start, (samples, _) in zip(windows.start, expected):
        assert np.array_equal(audio.samples[start : start + 902], samples)


def full_draw_negative_starts(audio, labels, ratio, distance_ms, seed):
    """First samples of the negative windows, scoring all 100 * wanted draws at once.

    A draw's window is samples 378 to 1280 of the 21-microframe run centered
    on its microframe, when that run fits the stream.
    """
    rng = np.random.default_rng(seed)
    shots = labels.shots
    n_frames = len(audio) // 80
    frames = (shots / 10).astype(int) - 10
    wanted = int(round(ratio * np.count_nonzero((frames >= 0) & (frames + 21 <= n_frames))))
    half_ms = 21 * 80 / 2 / 8000 * 1000.0
    centers = rng.uniform(half_ms, audio.end_time - half_ms, 100 * wanted)
    frames = (centers / 10).astype(int) - 10
    fits = (frames >= 0) & (frames + 21 <= n_frames)
    far = np.min(np.abs(centers[:, None] - shots[None, :]), axis=1) >= distance_ms
    return (frames * 80 + 378)[fits & far][:wanted]


@pytest.mark.parametrize(
    "ratio, distance_ms, seed",
    # Labels 3 s apart reject most draws at 3 s, so the prefix chunks grow
    # several times; at 3.5 s the whole capped stream runs out before `wanted`.
    [(20.0, 500.0, 3), (20.0, 3000.0, 4), (20.0, 3500.0, 6)],
)
def test_negative_windows_match_a_full_draw(monkeypatch, ratio, distance_ms, seed):
    audio, _, labels = sf.synthesize(sf.SynthConfig(duration_s=120.0, shot_count=40, seed=88))
    monkeypatch.setattr(pipeline, "MIN_LABEL_DISTANCE_MS", distance_ms)
    monkeypatch.setattr(sf.TrainConfig, "neg_pos_ratio", ratio)
    windows = windows_from_labels(audio, labels, seed=seed)
    expected = full_draw_negative_starts(audio, labels, ratio, distance_ms, seed)
    assert windows.start[windows.label == 0].tolist() == expected.tolist() and expected.size > 0


def counted_draws(monkeypatch):
    """The number of centers each _label_distance call of windows_from_labels scores, one entry per call."""
    scored = []
    label_distance = pipeline._label_distance

    def counting(labels, times):
        scored.append(times.size)
        return label_distance(labels, times)

    monkeypatch.setattr(pipeline, "_label_distance", counting)
    return scored


@pytest.mark.parametrize("seed", [5, 6])
def test_negative_draws_are_sized_by_their_acceptance(monkeypatch, seed):
    # 200 shots in 300 s: a draw passes the 500 ms label test about one time in three.
    audio, _, labels = sf.synthesize(sf.SynthConfig(duration_s=300.0, shot_count=200, seed=seed))
    scored = counted_draws(monkeypatch)
    windows = windows_from_labels(audio, labels, seed=seed)
    wanted = 20 * np.count_nonzero(windows.label == 1)
    # The uniform stream the negatives are the first `wanted` passing draws of.
    centers = np.random.default_rng(seed).uniform(105.0, audio.end_time - 105.0, 100 * wanted)
    frames = (centers / 10).astype(int)
    far = np.abs(centers[:, None] - labels.shots).min(axis=1) >= 500.0
    passing = (frames >= 10) & (frames + 10 < len(audio) // 80) & far
    position = np.flatnonzero(passing)[wanted - 1] + 1
    assert np.count_nonzero(windows.label == 0) == wanted and 0.25 < passing[:position].mean() < 0.4
    # Doubling the chunk until enough pass would score 3 * 2 * wanted, twice the draws used.
    assert scored[0] == 2 * wanted and sum(scored) < 1.5 * position


def test_negative_draws_double_while_none_pass(monkeypatch):
    # No draw lies 1000 s from a label, so the whole capped stream of 100 * wanted draws is scored.
    audio, _, labels = sf.synthesize(sf.SynthConfig(duration_s=30.0, shot_count=10, seed=90))
    monkeypatch.setattr(pipeline, "MIN_LABEL_DISTANCE_MS", 1e6)
    scored = counted_draws(monkeypatch)
    windows = windows_from_labels(audio, labels, seed=1)
    wanted = 20 * len(windows)
    assert scored == [2 * wanted, 4 * wanted, 8 * wanted, 16 * wanted, 32 * wanted, 38 * wanted]


def test_windows_from_labels_without_labels():
    audio, _, _ = sf.synthesize(sf.SynthConfig(duration_s=10.0, shot_count=3, seed=87))
    windows = windows_from_labels(audio, sf.LabelSet(np.empty(0)))
    assert len(windows) == 0 and windows.dtype.names == ("start", "label")


def test_windows_are_a_table_of_starts_and_labels(monkeypatch):
    audio, _, labels = sf.synthesize(sf.SynthConfig(duration_s=20.0, shot_count=6, seed=89))
    monkeypatch.setattr(sf.TrainConfig, "neg_pos_ratio", 2.0)
    windows = windows_from_labels(audio, labels)
    assert isinstance(windows, np.recarray) and windows.dtype.names == ("start", "label")
    assert len(windows) == 18
    assert windows.start.min() >= 0 and windows.start.max() <= len(audio) - 902


def test_shuffle_split_permutes_rows_with_one_index():
    rows = np.arange(10)
    train, held_out = shuffle_split(rows, seed=4)
    order = np.random.default_rng(4).permutation(10)
    assert type(train) is type(held_out) is np.ndarray
    assert train.tolist() == order[:8].tolist() and held_out.tolist() == order[8:].tolist()
    table = sf.window_table(rows, rows % 2)
    train, held_out = shuffle_split(table, seed=4)
    assert isinstance(train, np.recarray) and train.start.tolist() == order[:8].tolist()
    assert train.label.tolist() == (order[:8] % 2).tolist() and held_out.start.tolist() == order[8:].tolist()
    assert [len(part) for part in shuffle_split(rows[:0])] == [0, 0]


def test_loading_detecting_and_training_build_no_per_tree_objects(fixture_dir, tmp_path, monkeypatch):
    # A forest is one node table from the file or the trainer to the votes: each load and each
    # training builds and checks one ForestModel of all 50 trees, and nothing per tree.
    built = []
    check = forest.ForestModel.__post_init__

    def count(self):
        check(self)
        built.append(self.tree_count)

    monkeypatch.setattr(forest.ForestModel, "__post_init__", count)
    model = load_forest_model(fixture_dir / "forest.json")
    assert built == [50]
    result = run_pipeline(
        fixture_dir / "audio.wav", fixture_dir / "imu.csv", fixture_dir / "filter.json",
        fixture_dir / "forest.json", PipelineOptions(out_dir=str(tmp_path / "out")),
    )
    assert result["event_count"] > 0
    assert built == [50, 50]
    audio = read_wav(fixture_dir / "audio.wav")
    apf = sf.audio_likelihood(audio, load_filter_model(fixture_dir / "filter.json"))
    synced = synced_series(apf, read_imu_csv(fixture_dir / "imu.csv"))
    X, y = candidate_dataset(synced, read_labels_csv(fixture_dir / "labels.csv"))
    sf.train_forest(X, y, tree_count=50, seed=8)
    assert built == [50, 50, 50]
    # Only asking for the trees builds one-tree forests, as views of the table.
    trees = model.trees
    assert built == [50, 50, 50] + [1] * 50
    assert all(np.shares_memory(t.feature, model.feature) for t in trees)
    assert sum(t.feature.size for t in trees) == model.feature.size


@pytest.mark.parametrize("duration_s", [20.0, 8.0])
def test_synced_series_estimates_before_the_validation_tail(identity_model, monkeypatch, duration_s):
    # The estimate takes the overlap minus a VALIDATION_SECONDS tail and validation re-estimates
    # on that tail; an overlap too short to leave MIN_OVERLAP_SECONDS is estimated whole, unvalidated.
    cfg = sf.SynthConfig(duration_s=duration_s, shot_count=5, injected_offset_ms=-150.0, seed=24)
    audio, imu, _ = sf.synthesize(cfg)
    apf = sf.audio_likelihood(audio, identity_model)
    ipf = sf.ipf(sf.prepare_components(sf.decompose(imu)))
    t0 = max(apf.start_time, ipf.start_time)
    overlap_ms = min(apf.end_time, ipf.end_time) - t0
    validation_ms = sync.VALIDATION_SECONDS * 1000.0
    validates = overlap_ms - validation_ms >= sync.MIN_OVERLAP_SECONDS * 1000.0
    assert validates == (duration_s == 20.0)

    estimate, fresh, validations = [], [], []

    def spy(calls, fn):
        def record(*args):
            calls.append(args)
            out = fn(*args)
            calls[-1] += (out,)
            return out

        return record

    monkeypatch.setattr(pipeline, "estimate_offset", spy(estimate, sync.estimate_offset))
    monkeypatch.setattr(sync, "estimate_offset", spy(fresh, sync.estimate_offset))
    monkeypatch.setattr(pipeline, "validate_offset", spy(validations, sync.validate_offset))
    synced = synced_series(apf, sf.decompose(imu))

    def same(cut, series):
        return cut.start_time == series.start_time and np.array_equal(cut.values, series.values)

    end = t0 + overlap_ms - (validation_ms if validates else 0.0)
    [(a, i, boundaries, est)] = estimate
    assert same(a, apf.slice_time(t0, end)) and same(i, ipf.slice_time(t0, end))
    if not validates:
        assert fresh == validations == []
        assert synced.offset == est and synced.offset.validated is False
        return
    tail = t0 + est.window_seconds * 1000.0
    [(a, i, tail_boundaries, _)] = fresh
    assert same(a, apf.slice_time(tail, tail + validation_ms))
    assert same(i, ipf.slice_time(tail, tail + validation_ms))
    assert tail_boundaries is boundaries
    [call] = validations
    assert call[3] == est and synced.offset == dataclasses.replace(est, validated=call[-1])
    assert synced.offset.validated is call[-1]
