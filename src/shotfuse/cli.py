"""Command-line interface: synth, train-filter, train-forest, sync, detect, eval.

The CLI only parses: each subcommand is one pipeline workflow, whose dict
main prints.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .events import MATCH_TOLERANCE_MS
from .training import TrainConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotfuse",
        description="Shot detection for racquet sports from fused microphone and IMU streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--config", required=True, help="JSON file of generator settings")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=lambda a: pipeline.synth_workflow(a.config, a.out_dir))

    p = sub.add_parser("train-filter", help="train the audio front filter")
    p.add_argument("--data", required=True, help="directory with audio.wav and labels.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(run=lambda a: pipeline.train_filter_workflow(
        a.data, a.out, TrainConfig(max_epochs=a.epochs, seed=a.seed)))

    p = sub.add_parser("train-forest", help="train the fusion classifier")
    p.add_argument("--data", required=True, help="directory with audio.wav, imu.csv, labels.csv")
    p.add_argument("--filter", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(run=lambda a: pipeline.train_forest_workflow(a.data, a.filter, a.out, seed=a.seed))

    p = sub.add_parser("sync", help="estimate the IMU-vs-audio clock offset")
    p.add_argument("--audio", required=True)
    p.add_argument("--imu", required=True)
    p.add_argument("--filter", required=True)
    p.set_defaults(run=lambda a: pipeline.sync_workflow(a.audio, a.imu, a.filter))

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
    p.set_defaults(run=lambda a: pipeline.run_pipeline(a.audio, a.imu, a.filter, a.forest, pipeline.PipelineOptions(
        out_dir=a.out_dir, labels_path=a.labels, audio_only=a.audio_only, tolerance_ms=a.tolerance_ms,
        emit_series=a.emit_series)))

    p = sub.add_parser("eval", help="score a detections file against labels")
    p.add_argument("--events", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--tolerance-ms", type=float, default=MATCH_TOLERANCE_MS)
    p.set_defaults(run=lambda a: pipeline.eval_workflow(a.events, a.labels, a.tolerance_ms))

    return parser


def main(argv=None) -> int:
    """Run one subcommand's workflow and print its dict as indented JSON; on any error print `error: ...`, return 1."""
    args = build_parser().parse_args(argv)
    try:
        print(json.dumps(args.run(args), indent=2, sort_keys=True))
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
