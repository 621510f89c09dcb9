"""Command-line interface: synth, train-filter, train-forest, sync, detect, eval."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .dataio import (
    ensure_dir,
    read_events_csv,
    read_labels_csv,
    write_imu_csv,
    write_labels_csv,
    write_wav,
)
from .events import MATCH_TOLERANCE_MS, evaluate
from .pipeline import (
    PipelineOptions,
    run_pipeline,
    sync_workflow,
    train_filter_workflow,
    train_forest_workflow,
)
from .synth import SynthConfig, synthesize
from .training import TrainConfig


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_synth(args) -> int:
    with open(args.config) as fh:
        cfg = SynthConfig(**json.load(fh))
    audio, imu, labels = synthesize(cfg)
    out = ensure_dir(args.out_dir)
    write_wav(out / "audio.wav", audio)
    write_imu_csv(out / "imu.csv", imu)
    write_labels_csv(out / "labels.csv", labels)
    _emit(
        {
            "out_dir": str(out),
            "duration_s": cfg.duration_s,
            "shots": len(labels),
            "imu_records": len(imu),
            "audio_samples": len(audio),
        }
    )
    return 0


def cmd_train_filter(args) -> int:
    metrics = train_filter_workflow(args.data, args.out, TrainConfig(max_epochs=args.epochs, seed=args.seed))
    _emit(metrics)
    return 0


def cmd_train_forest(args) -> int:
    metrics = train_forest_workflow(args.data, args.filter, args.out, seed=args.seed)
    _emit(metrics)
    return 0


def cmd_sync(args) -> int:
    _emit(sync_workflow(args.audio, args.imu, args.filter))
    return 0


def cmd_detect(args) -> int:
    options = PipelineOptions(
        out_dir=args.out_dir,
        labels_path=args.labels,
        audio_only=args.audio_only,
        tolerance_ms=args.tolerance_ms,
        emit_series=args.emit_series,
    )
    result = run_pipeline(args.audio, args.imu, args.filter, args.forest, options)
    _emit(result)
    return 0


def cmd_eval(args) -> int:
    events = read_events_csv(args.events)
    labels = read_labels_csv(args.labels)
    _emit(asdict(evaluate(events[:, 0], labels, args.tolerance_ms)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotfuse",
        description="Shot detection for racquet sports from fused microphone and IMU streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--config", required=True, help="JSON file of generator settings")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-filter", help="train the audio front filter")
    p.add_argument("--data", required=True, help="directory with audio.wav and labels.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train_filter)

    p = sub.add_parser("train-forest", help="train the fusion classifier")
    p.add_argument("--data", required=True, help="directory with audio.wav, imu.csv, labels.csv")
    p.add_argument("--filter", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train_forest)

    p = sub.add_parser("sync", help="estimate the IMU-vs-audio clock offset")
    p.add_argument("--audio", required=True)
    p.add_argument("--imu", required=True)
    p.add_argument("--filter", required=True)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("detect", help="run the full detection pipeline")
    p.add_argument("--audio", required=True)
    p.add_argument("--imu")
    p.add_argument("--filter", required=True)
    p.add_argument("--forest")
    p.add_argument("--labels")
    p.add_argument("--audio-only", action="store_true")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--tolerance-ms", type=float, default=MATCH_TOLERANCE_MS)
    p.add_argument("--emit-series", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a detections file against labels")
    p.add_argument("--events", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--tolerance-ms", type=float, default=MATCH_TOLERANCE_MS)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
