import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shotfuse

MODULES = ["shotfuse"] + [
    f"shotfuse.{m.name}" for m in pkgutil.iter_modules(shotfuse.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_import_loads_only_numpy_and_the_standard_library():
    # A fresh interpreter, so that only the modules `import shotfuse` loads are counted.
    probe = (
        "import sys; before = set(sys.modules); import shotfuse; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shotfuse.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert set(out.stdout.split()) - set(sys.stdlib_module_names) <= {"numpy", "shotfuse"}


def test_benchmark_tracer_finds_every_binding_it_wraps():
    # The benchmark's tracer wraps library functions where modules bind them; a binding a module
    # no longer has would stop every traced run.
    spans = load_spans()
    bound = [
        (mod, name.split(".", 1)[1])
        for name, modules in spans.BINDINGS.items()
        for mod in (importlib.import_module(f"shotfuse.{m}") for m in modules)
    ]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in bound if not hasattr(mod, attr)]
    assert missing == []
    originals = [getattr(mod, attr) for mod, attr in bound]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(mod, attr).__wrapped__ is fn for (mod, attr), fn in zip(bound, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bound, originals))


def load_spans():
    """perfbench/spans.py, loaded by path so that perfbench stays off sys.path."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_counts_the_windows_of_a_window_table():
    # The traced benchmark counts train_filter's epoch windows from its first two arguments:
    # the window table, whose records it reads by .label, and the config.
    from shotfuse.pipeline import shuffle_split, windows_from_labels

    audio, _, labels = shotfuse.synthesize(shotfuse.SynthConfig(duration_s=30.0, shot_count=10, seed=90))
    train_set, _ = shuffle_split(windows_from_labels(audio, labels, seed=2), 2)
    cfg = shotfuse.TrainConfig(max_epochs=1)
    positives = int(np.count_nonzero(train_set.label == 1))
    negatives = len(train_set) - positives
    assert 0 < positives and 0 < negatives
    expected = positives + min(negatives, round(cfg.neg_pos_ratio * positives))
    assert load_spans()._train_filter_windows((train_set, cfg), {}) == expected
    shotfuse.train_filter(train_set, cfg, audio)  # the same arguments train the filter


def test_traced_train_filter_counts_every_window_of_its_epoch():
    # train_filter scores its mini-batches through training.total_gradients, the binding the tracer
    # counts windows at; one epoch scores each of its epoch windows once.
    from shotfuse import pipeline
    from shotfuse.pipeline import shuffle_split, windows_from_labels

    audio, _, labels = shotfuse.synthesize(shotfuse.SynthConfig(duration_s=30.0, shot_count=10, seed=90))
    train_set, _ = shuffle_split(windows_from_labels(audio, labels, seed=2), 2)
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        pipeline.train_filter(train_set, shotfuse.TrainConfig(max_epochs=1), audio)
    finally:
        tracer.uninstall()
    [info] = [s[4] for s in tracer.spans if s[0] == "training.train_filter"]
    assert info["window_evals"] == info["epoch_windows"] > 0
