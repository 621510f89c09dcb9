"""Golden bytes: the corpora that CI's byte-determinism steps run on, and the CI corpus' outputs, pinned by sha256.

tests/golden.json records, for each corpus, its synth config and the sha256
of the three files `shotfuse synth` writes; for the CI corpus also the sha256
of the models that 1-epoch train-filter and train-forest fit on it and of
the files `detect --emit-series --labels` writes with them; and the numpy
version they were made with: the pink noise goes through np.fft, every draw
through numpy's Generator and training sums floats, so a numpy release may
move bytes. A change that moves them on purpose updates golden.json in the
same commit.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from shotfuse.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def assert_recorded(what, recorded, directory):
    """Check each file named in recorded against its sha256, naming every file that changed."""
    changed = [name for name, digest in sorted(recorded.items())
               if hashlib.sha256((directory / name).read_bytes()).hexdigest() != digest]
    assert not changed, (
        f"{what}: {', '.join(changed)} changed; recorded with numpy {GOLDEN['numpy']}, "
        f"running numpy {np.__version__} on {platform.machine()}"
    )


def synth(tmp_path, corpus):
    """The corpus' files, written by `shotfuse synth` into tmp_path / corpus."""
    config = tmp_path / f"{corpus}.json"
    config.write_text(json.dumps(GOLDEN["corpora"][corpus]["config"]))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / corpus)]) == 0
    return tmp_path / corpus


@pytest.mark.parametrize("corpus", sorted(GOLDEN["corpora"]))
def test_synth_files_are_the_recorded_bytes(tmp_path, capsys, corpus):
    assert_recorded(f"{corpus} corpus", GOLDEN["corpora"][corpus]["sha256"], synth(tmp_path, corpus))


def test_ci_corpus_models_and_detections_are_the_recorded_bytes(tmp_path, capsys):
    data = synth(tmp_path, "ci")
    out = tmp_path / "out"
    filter_path, forest_path = out / "filter.json", out / "forest.json"
    runs = [
        ["train-filter", "--data", data, "--out", filter_path, "--epochs", "1"],
        ["train-forest", "--data", data, "--filter", filter_path, "--out", forest_path],
        ["detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv", "--filter", filter_path,
         "--forest", forest_path, "--labels", data / "labels.csv", "--out-dir", out, "--emit-series"],
    ]
    out.mkdir()
    for run in runs:
        assert main([str(arg) for arg in run]) == 0, run[0]
    assert_recorded("ci corpus outputs", GOLDEN["outputs"]["ci"], out)
