"""Golden bytes: the corpora that CI's byte-determinism steps run on, and what every CLI subcommand writes on them, pinned by sha256.

tests/golden.json records, for each corpus, its synth config and the sha256
of the three files `shotfuse synth` writes. For the CI corpus it also records
the models that 1-epoch and default (200-epoch) train-filter and train-forest
fit on it, the files `detect --emit-series --labels` and `detect
--audio-only` write with them, and what `sync` and `eval` print; for the 8-s
clip what `sync` prints; for the corpus whose IMU records 1.5 s before the
audio the files `detect --emit-series` writes with the CI models. Printed
output is pinned as the file <subcommand>.stdout. golden.json also records
the numpy version they were made with: the pink noise goes through np.fft,
every draw through numpy's Generator and training sums floats, so a numpy
release may move bytes. A change that moves them on purpose updates
golden.json in the same commit.
"""

import hashlib
import io
import json
import platform
from contextlib import redirect_stdout
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


def cli(*args) -> str:
    """What `shotfuse *args` prints, run in-process; the run must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        status = main([str(arg) for arg in args])
    assert status == 0, args[0]
    return out.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding every corpus, written by `shotfuse synth`, and the CI corpus' models and detect outputs.

    The models are the 1-epoch filter and the forest in root / "ci-out", next
    to what `detect --emit-series --labels` writes with them.
    """
    root = tmp_path_factory.mktemp("golden")
    for corpus, entry in GOLDEN["corpora"].items():
        config = root / f"{corpus}.json"
        config.write_text(json.dumps(entry["config"]))
        cli("synth", "--config", config, "--out-dir", root / corpus)
    data, out = root / "ci", root / "ci-out"
    out.mkdir()
    cli("train-filter", "--data", data, "--out", out / "filter.json", "--epochs", "1")
    cli("train-forest", "--data", data, "--filter", out / "filter.json", "--out", out / "forest.json")
    cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv", "--filter", out / "filter.json",
        "--forest", out / "forest.json", "--labels", data / "labels.csv", "--out-dir", out, "--emit-series")
    return root


def detect(root, audio, imu, out_dir, *flags):
    """Fused `shotfuse detect` with the CI corpus' models."""
    models = root / "ci-out"
    cli("detect", "--audio", audio, "--imu", imu, "--filter", models / "filter.json",
        "--forest", models / "forest.json", "--out-dir", out_dir, *flags)


@pytest.mark.parametrize("corpus", sorted(GOLDEN["corpora"]))
def test_synth_files_are_the_recorded_bytes(root, corpus):
    assert_recorded(f"{corpus} corpus", GOLDEN["corpora"][corpus]["sha256"], root / corpus)


def test_ci_corpus_models_and_detections_are_the_recorded_bytes(root):
    data, out = root / "ci", root / "ci-out"
    filter_path = out / "filter.json"
    cli("train-filter", "--data", data, "--out", out / "filter-default.json")
    (out / "sync.stdout").write_text(cli("sync", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                                         "--filter", filter_path))
    (out / "eval.stdout").write_text(cli("eval", "--events", out / "detections.csv", "--labels", data / "labels.csv"))
    cli("detect", "--audio", data / "audio.wav", "--filter", filter_path, "--audio-only",
        "--out-dir", out / "audio-only")
    assert_recorded("ci corpus outputs", GOLDEN["outputs"]["ci"], out)


def test_short_clip_sync_is_the_recorded_bytes(root, tmp_path):
    # 8 s minus the 5-s validation tail leaves less than the 5-s minimum
    # snippet, so the offset is estimated on the whole overlap and unvalidated.
    printed = cli("sync", "--audio", root / "short" / "audio.wav", "--imu", root / "short" / "imu.csv",
                  "--filter", root / "ci-out" / "filter.json")
    assert '"validated": false' in printed
    (tmp_path / "sync.stdout").write_text(printed)
    assert_recorded("short clip outputs", GOLDEN["outputs"]["short"], tmp_path)


def test_early_imu_detections_are_the_recorded_bytes(root, tmp_path):
    # The first candidates' feature windows end before the audio likelihood
    # starts and read its edge sample.
    detect(root, root / "early" / "audio.wav", root / "early" / "imu.csv", tmp_path, "--emit-series")
    assert_recorded("early corpus outputs", GOLDEN["outputs"]["early"], tmp_path)


@pytest.mark.parametrize("shift_ms", [-50, 10, 1000])
def test_shifting_the_imu_clock_moves_only_the_offset(root, tmp_path, shift_ms):
    # Every IMU t_ms of the CI corpus moves by shift_ms; the recording is
    # physically the same, so the offset moves by exactly as much and the
    # audio-dated detections do not move. Shifts beyond the +/-2 s lag
    # search are not invariant yet.
    header, *rows = (root / "ci" / "imu.csv").read_text().splitlines()
    shifted = [f"{float(t) + shift_ms:.3f},{rest}" for t, rest in (row.split(",", 1) for row in rows)]
    imu = tmp_path / "imu.csv"
    imu.write_text("\n".join([header, *shifted]) + "\n")
    detect(root, root / "ci" / "audio.wav", imu, tmp_path)
    base = json.loads((root / "ci-out" / "sync.json").read_text())
    assert json.loads((tmp_path / "sync.json").read_text())["offset_ms"] == base["offset_ms"] + shift_ms
    assert (tmp_path / "detections.csv").read_bytes() == (root / "ci-out" / "detections.csv").read_bytes()
