"""End-to-end workflows: synthesis, training data preparation, sync, detection, evaluation.

Each CLI subcommand is one workflow here (synth_workflow,
train_filter_workflow, train_forest_workflow, sync_workflow, run_pipeline,
eval_workflow); each takes paths and returns the plain dict the CLI prints.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import sync
from .audio import (
    FILTER_TAPS,
    MACROFRAME_HALF,
    MICROFRAME_MS,
    MICROFRAME_SAMPLES,
    SAMPLE_RATE_HZ,
    FilterModel,
    PcmAudio,
    audio_likelihood,
    audio_only_events,
)
from .dataio import (
    WavFile,
    ensure_dir,
    load_filter_model,
    load_forest_model,
    read_events_csv,
    read_imu_csv,
    read_labels_csv,
    read_synth_config,
    save_filter_model,
    save_forest_model,
    write_events_csv,
    write_imu_csv,
    write_json,
    write_labels_csv,
    write_series_csv,
    write_wav,
)
from .dataio import read_wav  # noqa: F401 -- still bound here for tools that wrap it
from .events import MATCH_TOLERANCE_MS, LabelSet, check_tolerance, evaluate, precision_recall_f
from .forest import DEFAULT_TREE_COUNT, check_seed, classify, train_forest
from .fusion import SyncedSeries, candidate_table, detect_shots
from .fusion import extract_features, select_candidates  # noqa: F401 -- still bound here for tools that wrap them
from .imu import ImuComponents, ipf, prepare_components
from .series import SampleSeries
from .sync import estimate_offset, self_calibrate_quantizer, validate_offset
from .synth import synthesize
from .training import TrainConfig, center_forms, form_scores, train_filter, window_table

__all__ = [
    "PipelineOptions",
    "windows_from_labels",
    "shuffle_split",
    "window_metrics",
    "synced_series",
    "candidate_dataset",
    "synth_workflow",
    "train_filter_workflow",
    "train_forest_workflow",
    "sync_workflow",
    "run_pipeline",
    "eval_workflow",
]

#: Candidates within this distance of a ground-truth shot count as positive.
CANDIDATE_LABEL_TOLERANCE_MS = 150.0
#: Share of the labeled items the training workflows fit on; the rest is held out.
TRAIN_FRACTION = 0.8
#: Negative training windows are drawn at least this far from every label.
MIN_LABEL_DISTANCE_MS = 500.0
#: Whole microframes a labeled or drawn microframe needs on each side of it
#: to become a training window; negative centers are drawn that margin plus
#: half a microframe (105 ms) inside the stream. A window itself reaches only
#: MACROFRAME_HALF microframes (plus the filter history) each way; the wider
#: margin fixes which labels qualify and the seeded negative draws.
DRAW_MARGIN_FRAMES = 10


def _label_distance(labels: LabelSet, times: np.ndarray) -> np.ndarray:
    """Distance from each time to its nearest label; inf when there are no labels."""
    shots = labels.shots
    if shots.size == 0:
        return np.full(times.size, np.inf)
    # Labels ascend, so the nearest one is a neighbor of the insertion point.
    after = np.minimum(np.searchsorted(shots, times), shots.size - 1)
    before = np.maximum(after - 1, 0)
    return np.minimum(np.abs(shots[before] - times), np.abs(shots[after] - times))


def windows_from_labels(audio: PcmAudio, labels: LabelSet, seed: int = 0) -> np.recarray:
    """Labeled training windows of a recorded stream: a window table over it (training.window_table).

    One positive window per label, centered on the stream microframe that
    contains it; windows snap to the stream's own frame grid so training
    sees exactly the frame phases the live detector will see. For
    microframe f the window is samples[(f - 5) * 80 - 22 : (f + 6) * 80],
    the WINDOW_SAMPLES the filter reads to score f, so its start is
    (f - 5) * 80 - 22. Negative windows are sampled uniformly at least
    MIN_LABEL_DISTANCE_MS away from every label, TrainConfig.neg_pos_ratio
    of them per positive, and follow the positives. Only microframes with
    DRAW_MARGIN_FRAMES whole microframes on each side are drawn. Of audio,
    a PcmAudio or a dataio.WavFile, only len() is read.
    """
    rng = np.random.default_rng(seed)
    n_frames = len(audio) // MICROFRAME_SAMPLES

    def frames(center_ms: np.ndarray) -> np.ndarray:
        """Stream microframe of each time, or -1 where it lacks the draw margin."""
        frame = (center_ms / MICROFRAME_MS).astype(int)
        inside = (frame >= DRAW_MARGIN_FRAMES) & (frame + DRAW_MARGIN_FRAMES < n_frames)
        return np.where(inside, frame, -1)

    positive = frames(labels.shots)
    positive = positive[positive >= 0]

    # Negative centers come from a capped stream of 100 * wanted uniform
    # draws; the first `wanted` far enough from every label whose
    # microframe has the margin are kept. The stream is drawn in prefix
    # chunks, which give the values of one draw, in order, and stops once
    # enough are kept. The first chunk is 2 * wanted draws; each later one
    # is twice the draws the acceptance so far expects the rest to need,
    # but never more than a schedule that doubles the chunk every time.
    wanted = int(round(TrainConfig.neg_pos_ratio * positive.size))
    margin_ms = (DRAW_MARGIN_FRAMES + 0.5) * MICROFRAME_MS
    lo = margin_ms
    hi = len(audio) * 1000.0 / SAMPLE_RATE_HZ - margin_ms
    kept = [np.empty(0, dtype=int)]
    budget = 100 * wanted
    drawn = found = 0
    size = doubling = 2 * wanted
    while budget > 0 and found < wanted:
        centers = rng.uniform(lo, hi, min(size, budget))
        budget -= centers.size
        frame = frames(centers)
        far = (frame >= 0) & (_label_distance(labels, centers) >= MIN_LABEL_DISTANCE_MS)
        kept.append(frame[far])
        drawn += centers.size
        found += kept[-1].size
        doubling *= 2
        # The ceiling of 2 * (wanted - found) / (found / drawn).
        size = min(doubling, -(-2 * (wanted - found) * drawn // found)) if found else doubling
    negative = np.concatenate(kept)[:wanted]

    lead = FILTER_TAPS - 1 + MACROFRAME_HALF * MICROFRAME_SAMPLES
    starts = np.concatenate([positive, negative]) * MICROFRAME_SAMPLES - lead
    return window_table(starts, np.repeat([1, 0], [positive.size, negative.size]))


def shuffle_split(items: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split of an array's rows; the first part gets round(TRAIN_FRACTION * n) of them."""
    rng = np.random.default_rng(seed)
    shuffled = items[rng.permutation(len(items))]
    cut = int(round(TRAIN_FRACTION * len(items)))
    return shuffled[:cut], shuffled[cut:]


def window_metrics(model: FilterModel, windows: np.recarray, audio: PcmAudio) -> dict:
    """Window-level precision/recall/F of the biased-threshold classifier on a window table over audio.

    audio is a PcmAudio or a dataio.WavFile, read once by center_forms.

    Scores each window's center from its packed form, as training does;
    the counts do not depend on the order of the windows, so their forms
    are built in ascending start order (center_forms).
    """
    by_start = np.argsort(windows["start"])
    labels = windows["label"][by_start]
    predicted = form_scores(center_forms(audio, windows["start"][by_start]), model.weights, model.bias) > 0.0
    tp = int(np.count_nonzero(predicted & (labels == 1)))
    fp = int(np.count_nonzero(predicted & (labels == 0)))
    fn = int(np.count_nonzero(~predicted & (labels == 1)))
    precision, recall, f_score = precision_recall_f(tp, fp, fn)
    return {"precision": precision, "recall": recall, "f_score": f_score, "windows": len(windows)}


def synced_series(apf: SampleSeries, comps: ImuComponents) -> SyncedSeries:
    """The low-passed IMU components, the motion likelihood and the validated offset, once per run.

    apf is the run's audio likelihood (audio_likelihood), computed by the
    caller from the WAV file before it parses the IMU CSV into comps
    (read_imu_csv, or decompose of an in-memory stream), so no caller
    holds the recording. The live streams calibrate their own quantizer:
    dense quantized trains correlate far better than sparse shot-peak
    quintiles. Both sync windows are cut here: the offset is estimated on
    the whole overlap minus a sync.VALIDATION_SECONDS tail, and
    validate_offset re-estimates on that tail, the fresh data after it.
    When that leaves less than sync.MIN_OVERLAP_SECONDS, the estimate uses
    the whole overlap and validation is skipped: the offset's validated
    field stays False.
    """
    comps = prepare_components(comps)
    ipf_raw = ipf(comps)
    boundaries = self_calibrate_quantizer(apf, ipf_raw)

    t0 = max(apf.start_time, ipf_raw.start_time)
    t1 = min(apf.end_time, ipf_raw.end_time)
    have_seconds = (t1 - t0) / 1000.0
    window = have_seconds - sync.VALIDATION_SECONDS
    if window < sync.MIN_OVERLAP_SECONDS:
        window = have_seconds
    end = t0 + window * 1000.0
    est = estimate_offset(apf.slice_time(t0, end), ipf_raw.slice_time(t0, end), boundaries)
    if have_seconds >= est.window_seconds + sync.VALIDATION_SECONDS:
        tail = t0 + est.window_seconds * 1000.0
        tail_end = tail + sync.VALIDATION_SECONDS * 1000.0
        fresh = apf.slice_time(tail, tail_end), ipf_raw.slice_time(tail, tail_end)
        est = replace(est, validated=validate_offset(*fresh, boundaries, est))
    return SyncedSeries.align(apf, ipf_raw, comps, est)


def _synced_files(audio_path, imu_path, filter_model: FilterModel) -> SyncedSeries:
    """synced_series of a WAV and an IMU CSV: the likelihood is streamed from the WAV before the CSV is parsed."""
    return synced_series(audio_likelihood(WavFile(audio_path), filter_model), read_imu_csv(imu_path))


def _require_models(*paths) -> None:
    """Fail with 'model not found: <path>' before any work when a model file is missing."""
    for path in paths:
        if path is None or not os.path.exists(path):
            raise FileNotFoundError(f"model not found: {path}")


def candidate_dataset(synced: SyncedSeries, labels: LabelSet) -> tuple[np.ndarray, np.ndarray]:
    """candidate_table's feature matrix (n, 5) and proximity-derived 0/1 labels (n,).

    A candidate is positive iff it lies within CANDIDATE_LABEL_TOLERANCE_MS
    of some ground-truth shot.
    """
    times, X = candidate_table(synced)
    return X, (_label_distance(labels, times) <= CANDIDATE_LABEL_TOLERANCE_MS).astype(int)


def synth_workflow(config_path, out_dir) -> dict:
    """synth subcommand: the corpus of the SynthConfig fields in a JSON file, as audio.wav, imu.csv and labels.csv."""
    cfg = read_synth_config(config_path)
    audio, imu, labels = synthesize(cfg)
    out = ensure_dir(out_dir)
    write_wav(out / "audio.wav", audio)
    write_imu_csv(out / "imu.csv", imu)
    write_labels_csv(out / "labels.csv", labels)
    return {
        "out_dir": str(out),
        "duration_s": cfg.duration_s,
        "shots": len(labels),
        "imu_records": len(imu),
        "audio_samples": len(audio),
    }


def train_filter_workflow(data_dir, out_path, train_cfg: TrainConfig = TrainConfig()) -> dict:
    """train-filter subcommand: windows from labels, 80/20 split, fit, save; the WAV is streamed, twice."""
    data_dir = Path(data_dir)
    audio = WavFile(data_dir / "audio.wav")
    labels = read_labels_csv(data_dir / "labels.csv")
    windows = windows_from_labels(audio, labels, train_cfg.seed)
    train_set, val_set = shuffle_split(windows, train_cfg.seed)
    model = train_filter(train_set, train_cfg, audio)
    save_filter_model(out_path, model)
    metrics = window_metrics(model, val_set, audio)
    metrics["model_path"] = str(out_path)
    return metrics


def train_forest_workflow(data_dir, filter_path, out_path, seed: int = 0) -> dict:
    """train-forest subcommand: sync the streams, label candidates, fit DEFAULT_TREE_COUNT trees, save."""
    check_seed(seed)
    data_dir = Path(data_dir)
    _require_models(filter_path)
    synced = _synced_files(data_dir / "audio.wav", data_dir / "imu.csv", load_filter_model(filter_path))
    labels = read_labels_csv(data_dir / "labels.csv")
    X, y = candidate_dataset(synced, labels)
    train_rows, val_rows = shuffle_split(np.arange(y.size), seed)
    model = train_forest(X[train_rows], y[train_rows], DEFAULT_TREE_COUNT, seed)
    save_forest_model(out_path, model)

    predicted, _ = classify(model, X[val_rows])
    correct = int(np.count_nonzero(predicted == y[val_rows]))
    return {
        **asdict(synced.offset),
        "candidates": int(y.size),
        "validation_accuracy": correct / len(val_rows) if len(val_rows) else 1.0,
        "model_path": str(out_path),
    }


def sync_workflow(audio_path, imu_path, filter_path) -> dict:
    """sync subcommand: the sync verdict of one recording (sync.OffsetEstimate), as sync.json holds it."""
    _require_models(filter_path)
    return asdict(_synced_files(audio_path, imu_path, load_filter_model(filter_path)).offset)


@dataclass(frozen=True)
class PipelineOptions:
    out_dir: str = "."
    labels_path: str | None = None
    audio_only: bool = False
    tolerance_ms: float = MATCH_TOLERANCE_MS
    emit_series: bool = False

    def __post_init__(self):
        check_tolerance(self.tolerance_ms)
        if self.audio_only and self.emit_series:
            raise ValueError("--audio-only and --emit-series cannot be combined: audio-only detection writes no series")


def run_pipeline(
    audio_path,
    imu_path,
    filter_model_path,
    forest_model_path,
    options: PipelineOptions = PipelineOptions(),
) -> dict:
    """detect subcommand: ingest, synchronize, fuse, evaluate, write artifacts.

    Writes detections.csv (time_ms,score) and, unless running audio-only,
    sync.json to options.out_dir; optionally the likelihood series as CSVs.
    Returns a result dict mirroring what lands on disk.
    """
    if not options.audio_only and (imu_path is None or forest_model_path is None):
        raise ValueError("detect needs --imu and --forest unless --audio-only is given")
    _require_models(filter_model_path)
    if not options.audio_only:
        _require_models(forest_model_path)
    filter_model = load_filter_model(filter_model_path)
    labels = read_labels_csv(options.labels_path) if options.labels_path else None
    out_dir = ensure_dir(options.out_dir)
    result: dict = {}

    if options.audio_only:
        events = audio_only_events(WavFile(audio_path), filter_model)
    else:
        synced = _synced_files(audio_path, imu_path, filter_model)
        forest_model = load_forest_model(forest_model_path)
        events = detect_shots(synced, forest_model)
        result["sync"] = asdict(synced.offset)
        sync_path = out_dir / "sync.json"
        write_json(sync_path, result["sync"])
        result["sync_path"] = str(sync_path)
        if options.emit_series:
            write_series_csv(out_dir / "apf.csv", synced.apf)
            write_series_csv(out_dir / "ipf.csv", synced.ipf)

    detections_path = out_dir / "detections.csv"
    write_events_csv(detections_path, events)
    result["detections_path"] = str(detections_path)
    result["event_count"] = len(events)

    if labels is not None:
        result["report"] = asdict(evaluate(events[:, 0], labels, options.tolerance_ms))
    return result


def eval_workflow(events_path, labels_path, tolerance_ms: float = MATCH_TOLERANCE_MS) -> dict:
    """eval subcommand: a detections CSV scored against a labels CSV (events.evaluate)."""
    events = read_events_csv(events_path)
    labels = read_labels_csv(labels_path)
    return asdict(evaluate(events[:, 0], labels, tolerance_ms))
