"""Spans recorded from outside the library, by wrapping functions where they are bound.

A library function imported into several modules (``audio_likelihood`` lives
in ``shotfuse.pipeline`` and ``shotfuse.fusion``) is wrapped at every binding
a caller looks it up through, all under one span name. Each call records one
span: name, start, end, parent index, a small info dict and the exception
type it raised, if any. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from time import perf_counter

#: span name -> modules of the ``shotfuse`` package that bind the function.
BINDINGS = {
    "dataio.read_imu_csv": ("pipeline",),
    "dataio.read_wav": ("pipeline",),
    "dataio.load_forest_model": ("pipeline",),
    "audio.audio_likelihood": ("pipeline", "fusion"),
    "imu.prepare_components": ("pipeline", "fusion"),
    "imu.ipf": ("pipeline", "fusion"),
    "sync.self_calibrate_quantizer": ("pipeline",),
    "sync.estimate_offset": ("pipeline", "sync"),
    "sync.validate_offset": ("pipeline",),
    "series.cross_correlate": ("sync",),
    "fusion.select_candidates": ("fusion", "pipeline"),
    "fusion.extract_features": ("fusion", "pipeline"),
    "fusion.detect_shots": ("pipeline",),
    "forest.classify": ("fusion", "pipeline"),
    "forest.train_forest": ("pipeline",),
    "training.train_filter": ("pipeline",),
    "pipeline.windows_from_labels": ("pipeline",),
    "pipeline.window_metrics": ("pipeline",),
    "pipeline.candidate_dataset": ("pipeline",),
    "events.dedup": ("fusion",),
    "events.evaluate": ("pipeline",),
}

def _train_filter_windows(args, kwargs) -> int:
    """Windows one epoch of train_filter visits: positives plus subsampled negatives."""
    data = args[0] if args else kwargs["data"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    pos = sum(1 for w in data if w.label == 1)
    neg = len(data) - pos
    return pos + min(neg, int(round(cfg.neg_pos_ratio * pos)))


#: span name -> info recorded from (args, kwargs, result) after the call returns.
_INFO = {
    "dataio.read_imu_csv": lambda a, k, out: {"rows": len(out)},
    "series.cross_correlate": lambda a, k, out: {"lags": len(out)},
    "fusion.select_candidates": lambda a, k, out: {"n": len(out)},
    "fusion.detect_shots": lambda a, k, out: {"n": len(out)},
    "forest.train_forest": lambda a, k, out: {"nodes": sum(len(t.feature) for t in out.trees)},
    "training.train_filter": lambda a, k, out: {"epoch_windows": _train_filter_windows(a, k)},
}


class Tracer:
    """Span recorder; :meth:`install` wraps the bindings, :meth:`uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info, error]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.active = False

    def span(self, name, fn, *args, info=None, **kwargs):
        """Call fn inside a span; when tracing is off, just call it."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        record = [name, perf_counter(), math.nan, self._stack[-1] if self._stack else -1,
                  dict(info or {}), None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        extra = _INFO.get(name)
        if extra is not None:
            record[4].update(extra(args, kwargs, out))
        return out

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _count_windows(self, fn):
        # total_gradients runs once per mini-batch; a span per batch would
        # split train_filter's self time, so only count the windows it scores.
        @functools.wraps(fn)
        def wrapper(batch, *args, **kwargs):
            if self._stack:
                info = self.spans[self._stack[-1]][4]
                info["window_evals"] = info.get("window_evals", 0) + len(batch)
            return fn(batch, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, modules in BINDINGS.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(f"shotfuse.{mod_name}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        training = importlib.import_module("shotfuse.training")
        self._saved.append((training, "total_gradients", training.total_gradients))
        training.total_gradients = self._count_windows(training.total_gradients)
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        self.active = False

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "info", "error")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The run is single-threaded, so children never overlap one another.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (itself for an operation span)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[3] < 0 else roots[s[3]])
    return roots
