"""Memory regression: each raw input lives only as long as the stage that reads it.

On a seeded 3-min session, tracemalloc peaks are held to the sizes of the
arrays a stage must keep (the packed training forms) plus a stated margin,
and the workflows that stream the WAV to less than its PCM above those
arrays. The offset estimate, the low-pass and the IMU peak function are
held to stated sizes on series of a 10-min session, and the forest vote
to one that does not grow with the number of rows. Synthesis and the
IMU CSV writer are held to their one float copy of the audio and one
chunk of text.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import shotfuse as sf
from shotfuse.dataio import save_filter_model, save_forest_model, write_imu_csv, write_labels_csv, write_wav
from shotfuse.training import PACKED_TAPS
from shotfuse.pipeline import (
    PipelineOptions,
    candidate_dataset,
    run_pipeline,
    shuffle_split,
    synced_series,
    train_filter_workflow,
    train_forest_workflow,
    windows_from_labels,
)
from shotfuse.forest import CLASSIFY_ROWS, classify
from shotfuse.sync import estimate_offset, self_calibrate_quantizer

MB = 1e6
DURATION_S = 180.0


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A 3-min recording on disk with 1-epoch models, its training window table and the recording."""
    root = tmp_path_factory.mktemp("memory")
    cfg = sf.SynthConfig(duration_s=DURATION_S, shot_count=90, injected_offset_ms=-210.0,
                         distractor_rate_per_min=5.0, seed=1234)
    audio, imu, labels = sf.synthesize(cfg)
    write_wav(root / "audio.wav", audio)
    write_imu_csv(root / "imu.csv", imu)
    write_labels_csv(root / "labels.csv", labels)
    train_set, _ = shuffle_split(windows_from_labels(audio, labels, seed=3), 3)
    filter_model = sf.train_filter(train_set, sf.TrainConfig(max_epochs=1, seed=3), audio)
    save_filter_model(root / "filter.json", filter_model)
    synced = synced_series(sf.audio_likelihood(audio, filter_model), sf.decompose(imu))
    forest = sf.train_forest(*candidate_dataset(synced, labels), tree_count=10, seed=3)
    save_forest_model(root / "forest.json", forest)
    return root, train_set, audio


def traced_peak(fn) -> int:
    fn()  # first-call imports and caches are not the call's memory
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PCM_BYTES = 2 * int(DURATION_S * 8000)  # 2.88 MB


def test_run_pipeline_never_holds_the_pcm_and_the_imu_samples_together(session, tmp_path):
    root, _, _ = session
    peak = traced_peak(lambda: run_pipeline(
        root / "audio.wav", root / "imu.csv", root / "filter.json", root / "forest.json",
        PipelineOptions(out_dir=str(tmp_path)),
    ))
    # The WAV is streamed, so the peak stays below the PCM alone. Measured
    # 1.70 MB, set by the offset estimate: the likelihoods, the components
    # and the correlation's buffers; the IMU parse peaks at 1.62 MB. Parsing
    # the IMU CSV into one (7, n) block, alive next to the components made
    # from it, put the peak at 1.91 MB; reading the whole PCM first at 3.68
    # MB, and holding it through IMU parsing and sync at 5.5 MB.
    assert peak < 0.85 * PCM_BYTES, f"{peak / MB:.2f} MB"


def test_audio_only_detect_streams_the_wav(session, tmp_path):
    root, _, _ = session
    peak = traced_peak(lambda: run_pipeline(
        root / "audio.wav", None, root / "filter.json", None,
        PipelineOptions(out_dir=str(tmp_path), audio_only=True),
    ))
    # Measured 0.97 MB: the frame-rate energies and likelihood (0.14 MB
    # each), the FIR chunk buffers and the events. Reading the whole PCM
    # put the peak at 3.68 MB.
    assert peak < 0.5 * PCM_BYTES, f"{peak / MB:.2f} MB"


def test_train_forest_workflow_streams_the_wav(session, tmp_path):
    root, _, _ = session
    peak = traced_peak(lambda: train_forest_workflow(root, root / "filter.json", tmp_path / "forest.json", seed=3))
    # Measured 2.16 MB: the synced series, the candidate table and the
    # forest's training tables. Reading the whole PCM put the peak at 3.68 MB.
    assert peak < PCM_BYTES, f"{peak / MB:.2f} MB"


def forms_bytes_of(train_set, cfg) -> int:
    """Bytes of the packed forms train_filter builds for a training window table."""
    positives = int(train_set.label.sum())
    negatives = min(len(train_set) - positives, round(cfg.neg_pos_ratio * positives))
    return (positives + negatives) * PACKED_TAPS * 8


def test_train_filter_holds_the_forms_and_one_chunk_of_spans(session):
    _, train_set, audio = session
    cfg = sf.TrainConfig(max_epochs=1, seed=3)
    peak = traced_peak(lambda: sf.train_filter(train_set, cfg, audio))
    forms_bytes = forms_bytes_of(train_set, cfg)
    # Margin: 1.15 MB above the packed forms (3.3 MB here), 0.25 MB above
    # the measured 0.90 MB: one chunk's windows as PCM steps (0.46 MB), the
    # int16 segment the reads go into (0.17 MB) and the first row's blocked
    # product (0.16 MB); the recursion's steps and their products are
    # written into the spent windows. Building them as fresh arrays (0.29
    # MB) put the peak at 1.05 MB. A list of one window object per row
    # added 0.13 MB. A weighted copy of the chunk's windows for an einsum
    # took 1.20 MB; decoding and padding whole windows per 128-window
    # chunk, 4.26 MB; full (windows, 23, 23) forms, 3.1 MB more.
    assert peak < forms_bytes + 1.15 * MB, f"{(peak - forms_bytes) / MB:.2f} MB above the forms"


def test_train_filter_workflow_streams_the_wav(session, tmp_path):
    root, train_set, _ = session
    cfg = sf.TrainConfig(max_epochs=1, seed=3)  # the session's split, so the same training windows
    peak = traced_peak(lambda: train_filter_workflow(root, tmp_path / "filter.json", cfg))
    forms_bytes = forms_bytes_of(train_set, cfg)
    # Margin: 1.22 MB above the packed forms (3.3 MB here), 0.25 MB above
    # the measured 4.31 MB, 0.97 MB above the forms: train_filter's chunk
    # buffers (above), which the WAV is read straight into. Handing each
    # file read over as a fresh 0.16 MB bytes object, with the steps built
    # as fresh arrays, put the peak at 4.62 MB; reading the whole PCM at
    # 7.13 MB: the forms, the PCM (2.88 MB) and 0.91 MB.
    assert peak < forms_bytes + 1.22 * MB, f"{(peak - forms_bytes) / MB:.2f} MB above the forms"


def test_estimate_offset_temporaries_on_a_10_min_pair():
    rng = np.random.default_rng(11)
    n = 60_000  # 10 min at 100 Hz
    apf, ipf = (sf.SampleSeries(start, rng.exponential(1.0, n) * (rng.random(n) < 0.05) + 1e-3 * rng.random(n))
                for start in (0.0, 130.0))
    q = self_calibrate_quantizer(apf, ipf)
    peak = traced_peak(lambda: estimate_offset(apf, ipf, q))
    # Above the 0.96 MB of inputs; margin 0.25 MB. Measured 1.49 MB: the two
    # quantized and smoothed series (0.48 MB each), and inside
    # cross_correlate one series' running sums (0.48 MB) and the blocked
    # matmul's buffers. A zero-padded copy of the second series (0.48 MB
    # more) put it at 1.95 MB; a searchsorted quantizer (int64 result and
    # float copy), window sums by concatenated cumsums and np.correlate at
    # 2.97 MB.
    assert peak < 1.75 * MB, f"{peak / MB:.2f} MB"


def test_lowpass_and_ipf_never_copy_their_read_only_inputs():
    rng = np.random.default_rng(13)
    n = 60_000  # 10 min at 100 Hz
    a, w = (sf.SampleSeries(0.0, rng.standard_normal(n)) for _ in range(2))
    comps = sf.ImuComponents(a, a, a, w)
    lowpass_peak = traced_peak(lambda: sf.lowpass(a))
    ipf_peak = traced_peak(lambda: sf.ipf(comps))
    # Above the 0.48 MB inputs; margin 0.25 MB. Measured 0.52 MB for lowpass,
    # its result and one piece's slice and convolution, and 0.99 MB for ipf,
    # its two deviations. One np.convolve of each read-only input, which
    # numpy copies whole first, put them at 0.96 and 1.92 MB.
    assert lowpass_peak < 0.77 * MB, f"lowpass {lowpass_peak / MB:.2f} MB"
    assert ipf_peak < 1.25 * MB, f"ipf {ipf_peak / MB:.2f} MB"


def test_set_up_holds_no_full_length_temporaries(tmp_path):
    rng = np.random.default_rng(17)
    n = 60_000  # 10 min at 100 Hz
    stream = sf.ImuStream([10.0 * np.arange(n), *rng.uniform(-2.0, 2.0, (3, n)), *rng.uniform(-500.0, 500.0, (3, n))])
    write_peak = traced_peak(lambda: write_imu_csv(tmp_path / "imu.csv", stream))
    # A bound that does not grow with the rows; margin 0.25 MB. Measured
    # 1.76 MB: one 4096-row chunk's slots, masks and text. Formatting every
    # row by % and joining the file's text took 25.2 MB.
    assert write_peak < 2.0 * MB, f"write_imu_csv {write_peak / MB:.2f} MB"
    cfg = sf.SynthConfig(duration_s=60.0, shot_count=20, distractor_rate_per_min=4.0, seed=7)
    noise_bytes = 8 * 60 * 8000  # one float64 array of the audio: 3.84 MB
    synth_peak = traced_peak(lambda: sf.synthesize(cfg))
    # Measured 7.75 MB: the shaped noise and its squares, for the RMS. A
    # product for each scaling step and a float copy for quantizing took
    # 19.2 MB.
    assert synth_peak < 2.1 * noise_bytes, f"synthesize {synth_peak / MB:.2f} MB"


def test_classify_holds_one_block_of_row_tree_pairs():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((600, 5))
    forest = sf.train_forest(X, (X[:, 0] + 0.5 * rng.standard_normal(600) > 0).astype(int), tree_count=50, seed=5)
    rows = rng.standard_normal((4000, 5))
    peak = traced_peak(lambda: classify(forest, rows))
    pair_bytes = CLASSIFY_ROWS * 50 * 8  # one int64 entry per (row, tree) pair of a block: 0.1 MB
    # A bound that does not grow with the rows. Measured 0.94 MB: a block's
    # index arrays, the node table's offset links and the 4000 votes and
    # scores. Descending all 200,000 pairs at once took 11.6 MB.
    assert peak < 12 * pair_bytes, f"{peak / MB:.2f} MB"
