"""shotfuse benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload detect-clips --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. After set-up (synthesizing and writing the
seeded inputs) the run calls the library only through
``pipeline.run_pipeline``, ``pipeline.train_filter_workflow`` and
``pipeline.train_forest_workflow``, checks every output, and prints each
metric with its unit, a ``report`` JSON line, and as its last line the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics from spans
with ``--trace 1``. Spans and the report are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(values):
    """Highest percentile with at least 10 samples beyond it, as (value, percentile)."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def at_reference_speed(records, final_ref_s) -> list[float | None]:
    """Each call's wall time scaled to the nominal reference speed.

    A call is scaled by the mean of the reference timed just before it and
    the one timed just after it (before the next call, or at the end).
    """
    from workloads import REFERENCE_NOMINAL_S

    refs = [r["ref_s"] for r in records[1:]] + [final_ref_s]
    return [r["seconds"] * REFERENCE_NOMINAL_S / ((r["ref_s"] + after) / 2)
            if "seconds" in r else None for r, after in zip(records, refs)]


def end_to_end(manifest, records, final_ref_s) -> tuple[dict, dict]:
    """(gated, reported) metric values from the run's records; None where nothing passed.

    Times are at the nominal reference speed; the report keeps the raw wall medians.
    """
    from workloads import REFERENCE_NOMINAL_S

    scaled = at_reference_speed(records, final_ref_s)
    ok = [(r, t) for r, t in zip(records, scaled) if r["ok"] and r["phase"] != "memory"]
    first = [r for r, _ in ok if r["phase"] == "first"]
    peaks = [r["peak_mb"] for r in records if r["ok"] and r["phase"] == "memory"]
    first_det = [r for r in first if r["kind"] == "detect"]
    detects = [t for r, t in ok if r["kind"] == "detect"]
    counts = [sum(r[k] for r in first_det) for k in ("tp", "fp", "fn")]
    syncs = [r["offset_err_ms"] for r in first if "offset_err_ms" in r]

    def seconds(kind, wall=False):
        return _median(r["seconds"] if wall else t for r, t in ok if r["kind"] == kind)

    def first_mean(kind, key):
        return _mean(r[key] for r in first if r["kind"] == kind)

    rounds = manifest["rounds"]
    gated = {
        "setup_s": _median(r["seconds"] * REFERENCE_NOMINAL_S / r["ref_s"] for r in rounds),
        "detect_p50_s": _median(detects),
        "detect_xrt": _median(r["duration_s"] / t for r, t in ok if r["kind"] == "detect"),
        "train_filter_s": seconds("train_filter"),
        "train_forest_s": seconds("train_forest"),
        "peak_mem_mb": max(peaks) if peaks else None,
        "fused_f": 2 * counts[0] / (2 * counts[0] + counts[1] + counts[2]) if any(counts) else None,
        "offset_err_ms": _median(syncs),
        "filter_window_f": first_mean("train_filter", "f_score"),
        "forest_val_acc": first_mean("train_forest", "accuracy"),
    }
    tail_s, tail_pct = tail(detects)
    reported = {
        "detect_tail_s": tail_s,
        "detect_tail_percentile": tail_pct,
        "detect_calls": len(detects),
        "fail_ratio": sum(1 for r in records if not r["ok"]) / len(records),
        "sync_validated_ratio": _mean(r["validated"] for r in first_det),
        "syncs": len(syncs),
        "offset_err_mean_ms": _mean(syncs),
        "wall_setup_s": _median(r["seconds"] for r in rounds),
        "wall_detect_p50_s": seconds("detect", wall=True),
        "wall_train_filter_s": seconds("train_filter", wall=True),
        "wall_train_forest_s": seconds("train_forest", wall=True),
        "reference_p50_s": _median([r["ref_s"] for r in records] + [final_ref_s]),
    }
    return gated, reported


def per_layer(w, manifest, records, final_ref_s, tracer) -> dict:
    from metrics import LAYERS
    from spans import BINDINGS, root_of, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    roots = root_of(spans)
    ops = [i for i, s in enumerate(spans) if s[3] < 0]
    out = {m.name: 0.0 for m in LAYERS}

    def total_self(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name)

    for name in BINDINGS:
        out[f"{name}.s"] = total_self(name) / len(ops)
    runs = [i for i in ops if spans[i][0] == "pipeline.run_pipeline"]
    out["pipeline.run_pipeline.self_s"] = sum(selfs[i] for i in runs) / max(len(runs), 1)

    # Counts come from the first pass only, which every run executes in full.
    first = [i for i, s in enumerate(spans) if spans[roots[i]][4].get("first")]
    first_runs = [i for i in runs if spans[i][4].get("first")]

    def in_runs(name):
        return [spans[i] for i in first if spans[i][0] == name
                and spans[roots[i]][0] == "pipeline.run_pipeline"]

    def per_call(name, key):
        calls = [spans[i][4][key] for i in first if spans[i][0] == name and key in spans[i][4]]
        return sum(calls) / len(calls) if calls else 0.0

    n_runs = max(len(first_runs), 1)
    for name in ("audio.audio_likelihood", "imu.prepare_components",
                 "sync.estimate_offset", "forest.classify"):
        out[f"{name}.calls"] = len(in_runs(name)) / n_runs
    out["dataio.read_imu_csv.rows"] = per_call("dataio.read_imu_csv", "rows")
    out["series.cross_correlate.lags"] = per_call("series.cross_correlate", "lags")
    out["forest.nodes"] = per_call("forest.train_forest", "nodes")
    candidates = sum(s[4].get("n", 0) for s in in_runs("fusion.select_candidates"))
    events = sum(s[4].get("n", 0) for s in in_runs("fusion.detect_shots"))
    out["fusion.candidates"] = candidates / n_runs
    out["fusion.kept_ratio"] = events / candidates if candidates else 0.0

    trainings = [spans[i] for i in first if spans[i][0] == "training.train_filter"]
    out["training.epochs"] = (
        sum(s[4].get("window_evals", 0) / s[4]["epoch_windows"] for s in trainings)
        / len(trainings) if trainings else 0.0)
    all_trainings = [s for s in spans if s[0] == "training.train_filter"]
    busy = sum(s[2] - s[1] for s in all_trainings)
    out["training.window_evals_per_s"] = (
        sum(s[4].get("window_evals", 0) for s in all_trainings) / busy if busy else 0.0)

    out["synth.synthesize.s"] = statistics.median(r["synth_seconds"] for r in manifest["rounds"])
    main = [(r["traced"], t) for r, t in zip(records, at_reference_speed(records, final_ref_s))
            if r["ok"] and r["kind"] == w.main_op and r["phase"] != "memory"]
    traced = [t for on, t in main if on]
    plain = [t for on, t in main if not on]
    if traced and plain:
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    # An error is counted once, at the span it was raised in, not at each ancestor.
    child_failed = {s[3] for s in spans if s[5] is not None and s[3] >= 0}
    for i, s in enumerate(spans):
        if s[5] is not None and i not in child_failed:
            out[f"{s[0].split('.')[0]}.errors"] += 1
    return out


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one combined result line."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Randomized str hashing changes dict and set layouts, hence when the
        # garbage collector runs, hence peak memory: up to 25% between runs
        # of one seed. Restart this process once with hashing fixed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                 + (sys.argv[1:] if argv is None else list(argv)))
    args = parse_args(argv)
    if not (SRC / "shotfuse" / "__init__.py").is_file():
        print(f"shotfuse sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # single-threaded; set before numpy loads any BLAS
    sys.path[:0] = [str(SRC), str(HERE)]
    from metrics import GATED, LAYERS, REPORTED, UNITS
    from spans import Tracer
    from workloads import WORKLOADS, Runner, build_inputs, tiny

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)

    label = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / label
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = build_inputs(w, args.seed, work)
        runner = Runner(w, manifest, work, Tracer())
        runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = sum(1 for r in records if not r["ok"])
    gated, reported = end_to_end(manifest, records, runner.final_ref_s)
    layers = per_layer(w, manifest, records, runner.final_ref_s, runner.tracer) \
        if args.trace else {}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.trace:
        runner.tracer.dump(results / f"{label}.spans.json")
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "machine": machine_info(), **runner.output_hashes(),
        "operations": {k: sum(1 for r in records if r["kind"] == k and r["phase"] != "memory")
                       for k in ("train_filter", "train_forest", "detect")},
        "errors": sorted({r["error"] for r in records if r["error"]}),
        "samples_s": {k: [round(r["seconds"], 6) for r in records
                          if r["kind"] == k and r["ok"] and r["phase"] != "memory"]
                      for k in ("train_filter", "train_forest", "detect")},
        "peak_mb": {r["kind"]: r.get("peak_mb") for r in records if r["phase"] == "memory"},
        "end_to_end": gated, "reported": reported, "per_layer": layers,
    }
    with open(results / f"{label}.report.json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          f"outputs={report['outputs_sha256'][:16]} models={report['models_sha256'][:16]}")
    for m in GATED + REPORTED:
        value = gated.get(m.name, reported.get(m.name))
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{m.name} {shown} {m.unit} ({m.better} is better): {m.doc}")
    if reported.get("detect_tail_percentile") is not None:
        print(f"detect_tail_s is p{reported['detect_tail_percentile']:.1f} "
              f"of {reported['detect_calls']} detect calls")
    for m in LAYERS if args.trace else ():
        print(f"{m.name} {layers[m.name]:.6g} {m.unit}"
              + (" (exact count)" if m.exact else "") + f"  -> {m.moves}")
    print(json.dumps({"report": report}, sort_keys=True))

    chosen = layers if args.trace else gated
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
