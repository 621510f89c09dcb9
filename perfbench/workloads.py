"""Workloads: seeded inputs built in set-up, then the public calls a run times and checks.

Every workload runs in rounds. Set-up synthesizes and writes, for each round,
one labeled training corpus and that round's detection inputs. The measured
phase first makes one pass: per round, ``train_filter_workflow`` and
``train_forest_workflow`` on the round's corpus, then ``run_pipeline`` on
each of its inputs with the models just trained. The quality metrics and
output hashes come from that pass, so they are fixed by the seed. The run
then repeats the same sequence of calls until its time is up, and every
repeat must reproduce the first pass's bytes.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import tracemalloc
import zlib
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

DISTRACTORS_PER_MIN = 5.0  # per modality
OFFSET_RANGE_MS = 500.0
ROUNDS = 3
SYNC_FIELDS = {"offset_ms", "peak_correlation", "validated", "window_seconds"}

#: Nominal duration of one reference_seconds() call; times are reported at this speed.
REFERENCE_NOMINAL_S = 0.005
_REF_SIGNAL = np.random.default_rng(0).standard_normal(200_000)
_REF_KERNEL = np.ones(23)


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and numpy work, to track the machine's speed.

    On a shared machine the same call runs up to 1.6x slower for seconds at a
    time. Running this before every timed call lets the runner report each
    time at the nominal reference speed: wall * REFERENCE_NOMINAL_S / reference.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    np.convolve(_REF_SIGNAL, _REF_KERNEL)
    return perf_counter() - t0


@dataclass(frozen=True)
class Corpus:
    duration_s: float
    shots_per_min: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: Corpus  # one labeled training corpus per round
    inputs: Corpus  # one recording per detect call
    inputs_per_round: int
    # Fixed train_filter epoch count. The filter stops early after an epoch
    # with zero loss, which small corpora reach by the second or third epoch
    # on some seeds; one epoch always runs in full, so its work is fixed.
    epochs: int
    main_op: str  # the call kind trace.overhead_s is measured on
    rounds: int = ROUNDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "detect-long",
            "10-min sessions: every per-sample and per-candidate path (IMU parse, FIR, "
            "401-lag correlation, forest votes) grows with length",
            train=Corpus(180.0, 30.0), inputs=Corpus(600.0, 30.0), inputs_per_round=1,
            epochs=1, main_op="detect",
        ),
        Workload(
            "detect-clips",
            "many event-dense 30-s clips: fixed per-call costs (model load, filter design, "
            "quantizer, two 401-lag loops) dominate each call",
            train=Corpus(180.0, 30.0), inputs=Corpus(30.0, 40.0), inputs_per_round=20,
            epochs=1, main_op="detect",
        ),
        Workload(
            "train",
            "train_filter at 5 epochs and a 50-tree train_forest on 10-min labeled corpora; "
            "the only workload where training dominates",
            train=Corpus(600.0, 30.0), inputs=Corpus(30.0, 40.0), inputs_per_round=10,
            epochs=5, main_op="train_filter",
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at sizes that finish in seconds, for the smoke test."""
    return replace(
        w,
        train=Corpus(60.0, 30.0),
        inputs=Corpus(min(w.inputs.duration_s, 60.0), w.inputs.shots_per_min),
        inputs_per_round=min(w.inputs_per_round, 2),
        epochs=2,
        rounds=2,
    )


# ---------------------------------------------------------------- set-up


def _write_recording(directory, corpus: Corpus, rng) -> tuple[dict, float]:
    from shotfuse import dataio
    from shotfuse.synth import SynthConfig, synthesize

    cfg = SynthConfig(
        duration_s=corpus.duration_s,
        shot_count=int(round(corpus.shots_per_min * corpus.duration_s / 60.0)),
        injected_offset_ms=float(rng.uniform(-OFFSET_RANGE_MS, OFFSET_RANGE_MS)),
        distractor_rate_per_min=DISTRACTORS_PER_MIN,
        seed=int(rng.integers(2**31)),
    )
    t0 = perf_counter()
    audio, records, labels = synthesize(cfg)
    synth_s = perf_counter() - t0
    os.makedirs(directory, exist_ok=True)
    dataio.write_wav(os.path.join(directory, "audio.wav"), audio)
    dataio.write_imu_csv(os.path.join(directory, "imu.csv"), records)
    dataio.write_labels_csv(os.path.join(directory, "labels.csv"), labels)
    info = {"dir": str(directory), "duration_s": cfg.duration_s,
            "offset_ms": cfg.injected_offset_ms}
    return info, synth_s


def build_inputs(w: Workload, seed: int, work_dir) -> dict:
    """Synthesize and write every round's inputs; the manifest says where and how long."""
    rounds = []
    for r in range(w.rounds):
        rng = np.random.default_rng([seed, zlib.crc32(w.name.encode()), r])
        ref = reference_seconds()
        t0 = perf_counter()
        base = os.path.join(work_dir, f"r{r}")
        train, synth_s = _write_recording(os.path.join(base, "train"), w.train, rng)
        inputs = []
        for i in range(w.inputs_per_round):
            info, s = _write_recording(os.path.join(base, f"in{i}"), w.inputs, rng)
            inputs.append(info)
            synth_s += s
        seconds = perf_counter() - t0
        rounds.append({
            "seconds": seconds,
            "ref_s": (ref + reference_seconds()) / 2,
            "synth_seconds": synth_s,
            "train_seed": int(rng.integers(2**31)),
            "train": train,
            "inputs": inputs,
        })
    return {"rounds": rounds}


# ---------------------------------------------------------------- checks


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_detections(path, duration_s: float, event_count: int) -> None:
    """detections.csv parses, its times ascend strictly and lie inside the recording."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["time_ms", "score"]:
        raise ValueError("detections.csv: bad header")
    times = [float(t) for t, _score in rows[1:]]
    if len(times) != event_count:
        raise ValueError(f"detections.csv: {len(times)} rows, run_pipeline reported {event_count}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("detections.csv: times not strictly ascending")
    if times and (times[0] < 0.0 or times[-1] > duration_s * 1000.0):
        raise ValueError("detections.csv: time outside the recording")


def check_sync(path) -> dict:
    with open(path) as fh:
        sync = json.load(fh)
    if set(sync) != SYNC_FIELDS:
        raise ValueError(f"sync.json: fields {sorted(sync)}")
    if not isinstance(sync["validated"], bool):
        raise ValueError("sync.json: validated is not a bool")
    for key in SYNC_FIELDS - {"validated"}:
        if not math.isfinite(sync[key]):
            raise ValueError(f"sync.json: {key} is not finite")
    return sync


# ---------------------------------------------------------------- operations


class Runner:
    """Runs and checks the workload's public calls; one record per call."""

    def __init__(self, w: Workload, manifest: dict, work_dir, tracer):
        from shotfuse import pipeline  # imported after the runner has set thread limits

        self.pipeline = pipeline
        self.w = w
        self.rounds = manifest["rounds"]
        self.work_dir = str(work_dir)
        self.tracer = tracer
        self.records: list[dict] = []
        self._first_hash: dict[tuple, str] = {}
        self.phase = "first"  # then "repeat", then "memory"

    def _models(self, r: int) -> tuple[str, str]:
        base = os.path.join(self.work_dir, "models")
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, f"r{r}-filter.json"), os.path.join(base, f"r{r}-forest.json")

    def _call(self, kind, key, fn, *args, check, **kwargs) -> None:
        """Time one public call inside an operation span, then check what it wrote."""
        rec = {"kind": kind, "key": list(key), "phase": self.phase,
               "traced": self.tracer.active, "ok": False, "error": None}
        info = {"first": self.phase == "first"}
        gc.collect()  # the previous call's garbage is not this call's time or memory
        rec["ref_s"] = reference_seconds()
        try:
            if self.phase == "memory":
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = self.tracer.span(f"pipeline.{fn.__name__}", fn, *args, info=info,
                                          **kwargs)
            finally:
                rec["seconds"] = perf_counter() - t0
                if self.phase == "memory":
                    rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            digest = check(result, rec)
        except Exception as exc:  # a failed call is counted, and the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            expected = self._first_hash.setdefault(tuple(key), digest)
            if digest == expected:
                rec["ok"] = True
            else:
                rec["error"] = "outputs differ from the first execution of this input"
        self.records.append(rec)

    def train_filter(self, r: int) -> None:
        from shotfuse import dataio
        from shotfuse.training import TrainConfig

        rnd = self.rounds[r]
        filter_path, _ = self._models(r)

        def check(result, rec):
            dataio.load_filter_model(filter_path)
            rec["f_score"] = result["f_score"]
            return sha256_files(filter_path)

        cfg = TrainConfig(max_epochs=self.w.epochs, seed=rnd["train_seed"])
        self._call("train_filter", ("filter", r), self.pipeline.train_filter_workflow,
                   rnd["train"]["dir"], filter_path, cfg, check=check)

    def train_forest(self, r: int) -> None:
        from shotfuse import dataio

        rnd = self.rounds[r]
        filter_path, forest_path = self._models(r)

        def check(result, rec):
            forest = dataio.load_forest_model(forest_path)
            if forest.tree_count != 50:
                raise ValueError(f"forest has {forest.tree_count} trees")
            rec["accuracy"] = result["validation_accuracy"]
            rec["offset_err_ms"] = abs(result["offset_ms"] - rnd["train"]["offset_ms"])
            rec["validated"] = bool(result["validated"])
            return sha256_files(forest_path)

        self._call("train_forest", ("forest", r), self.pipeline.train_forest_workflow,
                   rnd["train"]["dir"], filter_path, forest_path, seed=rnd["train_seed"],
                   check=check)

    def detect(self, r: int, i: int) -> None:
        inp = self.rounds[r]["inputs"][i]
        filter_path, forest_path = self._models(r)
        out_dir = os.path.join(self.work_dir, "out", f"r{r}-in{i}")
        options = self.pipeline.PipelineOptions(
            out_dir=out_dir, labels_path=os.path.join(inp["dir"], "labels.csv"))

        def check(result, rec):
            detections = os.path.join(out_dir, "detections.csv")
            sync_path = os.path.join(out_dir, "sync.json")
            check_detections(detections, inp["duration_s"], result["event_count"])
            sync = check_sync(sync_path)
            report = result["report"]
            rec.update(
                duration_s=inp["duration_s"],
                tp=report["true_positives"], fp=report["false_positives"],
                fn=report["false_negatives"],
                offset_err_ms=abs(sync["offset_ms"] - inp["offset_ms"]),
                validated=sync["validated"],
            )
            return sha256_files(detections, sync_path)

        self._call("detect", ("detect", r, i), self.pipeline.run_pipeline,
                   os.path.join(inp["dir"], "audio.wav"), os.path.join(inp["dir"], "imu.csv"),
                   filter_path, forest_path, options, check=check)

    def run(self, seconds: float, trace: bool) -> None:
        """First pass over every operation, then the same sequence again until time is up.

        Per round the sequence trains the filter, then the forest, then
        detects on each input with those models. With ``trace`` the first
        pass is traced and the repeats alternate untraced and traced,
        starting untraced, so one run gives both the spans and the tracing
        overhead; it runs on until it has one untraced call of the main kind.
        Last, untimed, one call of each kind runs again under tracemalloc for
        its allocation peak; tracemalloc slows Python code by 2 to 4 times.
        """
        ops = []
        for r, rnd in enumerate(self.rounds):
            ops += [(self.train_filter, (r,)), (self.train_forest, (r,))]
            ops += [(self.detect, (r, i)) for i in range(len(rnd["inputs"]))]
        start = perf_counter()
        if trace:
            self.tracer.install()
        for fn, args in ops:
            fn(*args)
        self.phase = "repeat"
        n = 0
        while perf_counter() - start < seconds or (trace and not any(
                r["kind"] == self.w.main_op and not r["traced"] for r in self.records)):
            if trace and n % 2 == 1:
                if not self.tracer.active:
                    self.tracer.install()
            elif self.tracer.active:
                self.tracer.uninstall()
            fn, args = ops[n % len(ops)]
            fn(*args)
            n += 1
        self.tracer.uninstall()
        self.final_ref_s = reference_seconds()
        self.phase = "memory"
        for fn, args in ops[:3]:  # round 0: train_filter, train_forest, first detect
            fn(*args)

    def output_hashes(self) -> dict:
        def combined(prefixes):
            h = hashlib.sha256()
            for key in sorted(k for k in self._first_hash if k[0] in prefixes):
                h.update(self._first_hash[key].encode())
            return h.hexdigest()

        return {"outputs_sha256": combined({"detect"}),
                "models_sha256": combined({"filter", "forest"})}
