"""Every metric the benchmark reports: name, unit, direction and what it should move.

``GATED`` are the end-to-end metrics that every workload measures; they make
up the last output line of an untraced run and the ``end_to_end`` list of
``BENCHMARK.json``. ``REPORTED`` are end-to-end metrics that exist only on
some workloads or can read exactly 0; they are printed and written to the
report but carry no bound. ``LAYERS`` are the per-layer metrics of a traced
run. A layer metric's ``moves`` names the end-to-end metric and workload
where a change to that layer should show.

End-to-end times are wall times scaled to the nominal speed of a reference
loop timed next to each call (see ``workloads.reference_seconds``); the
report keeps the raw wall medians. Per-layer times are raw wall times.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str = ""
    bound: float | None = None
    exact: bool = False  # a count that repeats exactly for one seed and one program
    moves: str = ""


GATED = (
    Metric("setup_s", "s", "lower",
           "median over set-up rounds of one round's synthesis and writing of its inputs, "
           "at the nominal reference speed like every time below",
           bound=0.25),
    Metric("detect_p50_s", "s", "lower", "median wall time of one run_pipeline call", bound=0.25),
    Metric("detect_xrt", "s/s", "higher",
           "recorded seconds per wall second, median over run_pipeline calls", bound=0.25),
    Metric("train_filter_s", "s", "lower",
           "median wall time of one train_filter_workflow call at the fixed epoch count",
           bound=0.25),
    Metric("train_forest_s", "s", "lower",
           "median wall time of one train_forest_workflow call (50 trees)", bound=0.25),
    Metric("peak_mem_mb", "MB", "lower",
           "largest tracemalloc peak of one call of each kind, run again untimed "
           "after the measured window", bound=0.25),
    Metric("fused_f", "ratio", "higher",
           "F at 100 ms of every first-pass detection against its labels, pooled", bound=0.05),
    Metric("offset_err_ms", "ms", "lower",
           "median |estimated - injected offset| over every first-pass sync "
           "(run_pipeline and train_forest_workflow); the report also has the mean",
           bound=0.25),
    Metric("filter_window_f", "ratio", "higher",
           "held-out window F of each trained filter, mean over first-pass trainings", bound=0.2),
    Metric("forest_val_acc", "ratio", "higher",
           "held-out candidate accuracy of each trained forest, mean over first-pass trainings",
           bound=0.05),
)

REPORTED = (
    Metric("detect_tail_s", "s", "lower",
           "highest percentile of run_pipeline wall time with at least 10 samples beyond it; "
           "needs 11 or more calls, so detect-long has none"),
    Metric("fail_ratio", "ratio", "lower",
           "failed or incorrect operations / attempted; the last line's failed/attempted"),
    Metric("sync_validated_ratio", "ratio", "higher",
           "share of first-pass run_pipeline calls whose sync.json says validated: true; "
           "reads 0 on long recordings"),
)


def _layer(name, unit, better, moves, exact=False):
    return Metric(name, unit, better, exact=exact, moves=moves)


LAYERS = (
    _layer("dataio.read_imu_csv.s", "s", "lower",
           "detect_p50_s/detect_xrt on detect-long and detect-clips; train_forest_s on train"),
    _layer("dataio.read_imu_csv.rows", "count", "lower", "rows per call", exact=True),
    _layer("dataio.read_wav.s", "s", "lower", "detect_p50_s on detect-long"),
    _layer("dataio.load_forest_model.s", "s", "lower", "detect_tail_s/detect_p50_s on detect-clips"),
    _layer("audio.audio_likelihood.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("audio.audio_likelihood.calls", "count", "lower",
           "calls per run_pipeline call; detect_xrt on detect-long", exact=True),
    _layer("imu.prepare_components.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("imu.prepare_components.calls", "count", "lower",
           "calls per run_pipeline call; detect_xrt on detect-long", exact=True),
    _layer("imu.ipf.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("sync.self_calibrate_quantizer.s", "s", "lower", "detect_p50_s on detect-clips"),
    _layer("sync.estimate_offset.s", "s", "lower", "detect_p50_s/detect_tail_s on detect-clips"),
    _layer("sync.estimate_offset.calls", "count", "lower",
           "calls per run_pipeline call; detect_p50_s on detect-clips", exact=True),
    _layer("sync.validate_offset.s", "s", "lower", "detect_p50_s on detect-clips"),
    _layer("series.cross_correlate.s", "s", "lower",
           "detect_p50_s on detect-clips most, detect-long less"),
    _layer("series.cross_correlate.lags", "count", "lower", "lags per call", exact=True),
    _layer("fusion.select_candidates.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("fusion.candidates", "count", "lower",
           "candidates per run_pipeline call; detect_xrt on detect-long", exact=True),
    _layer("fusion.extract_features.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("fusion.detect_shots.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("fusion.kept_ratio", "ratio", "higher", "events / candidates in run_pipeline calls"),
    _layer("forest.classify.s", "s", "lower", "detect_xrt on detect-long"),
    _layer("forest.classify.calls", "count", "lower", "calls per run_pipeline call", exact=True),
    _layer("forest.train_forest.s", "s", "lower", "train_forest_s on train"),
    _layer("forest.nodes", "count", "lower", "nodes per trained forest", exact=True),
    _layer("training.train_filter.s", "s", "lower", "train_filter_s on train"),
    _layer("training.epochs", "count", "lower", "epochs per train_filter call", exact=True),
    _layer("training.window_evals_per_s", "1/s", "higher", "train_filter_s on train"),
    _layer("pipeline.windows_from_labels.s", "s", "lower", "train_filter_s on train"),
    _layer("pipeline.window_metrics.s", "s", "lower", "train_filter_s on train"),
    _layer("pipeline.candidate_dataset.s", "s", "lower", "train_forest_s on train"),
    _layer("pipeline.run_pipeline.self_s", "s", "lower", "detect_p50_s on every workload"),
    _layer("events.dedup.s", "s", "lower", "guards against regressions"),
    _layer("events.evaluate.s", "s", "lower", "guards against regressions"),
    _layer("synth.synthesize.s", "s", "lower", "setup_s on every workload; seconds per set-up round"),
    _layer("trace.overhead_s", "s", "lower",
           "median traced minus median untraced wall time of the workload's main operation"),
) + tuple(
    _layer(f"{layer}.errors", "count", "lower", "fail_ratio on every workload", exact=True)
    for layer in ("dataio", "audio", "imu", "sync", "series", "fusion", "forest",
                  "training", "pipeline", "events")
)

UNITS = {m.name: m.unit for m in GATED + REPORTED + LAYERS}


def benchmark_entries() -> tuple[list[dict], list[dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    end_to_end = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in GATED
    ]
    per_layer = [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS]
    return end_to_end, per_layer
